"""Staggered difference/average operators and the symmetric tridiagonal step solver.

Primal grid functions live on the N+2 closure points (boundary values
stored explicitly); dual grid functions live on the N+1 star half-points.
The difference and average operators map primal -> star and star -> interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .mesh import Mesh, integrate
from .noise_tree import EDGE_SIGNS

_PIVOT_RTOL = 1e-13
# Magnitudes allowed for the prefix products of the two-row factors.
_PREFIX_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class GridFunction:
    """Real values on the closure points of a mesh (length N+2)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.N + 2,):
            raise ValueError(
                f"grid function needs {self.mesh.N + 2} closure values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]


@dataclass(frozen=True)
class DualGridFunction:
    """Real values on the star half-points of a mesh (length N+1)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.N + 1,):
            raise ValueError(
                f"dual grid function needs {self.mesh.N + 1} star values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


def apply_Dh(u: GridFunction) -> DualGridFunction:
    """Centered difference, closure points -> star half-points."""
    v = np.diff(u.values) / u.mesh.h
    return DualGridFunction(u.mesh, v)


def apply_Ah(u: GridFunction) -> DualGridFunction:
    """Two-point average, closure points -> star half-points."""
    v = 0.5 * (u.values[1:] + u.values[:-1])
    return DualGridFunction(u.mesh, v)


def apply_Dh_dual(v: DualGridFunction) -> np.ndarray:
    """Centered difference, star half-points -> interior points."""
    return np.diff(v.values) / v.mesh.h


def apply_Ah_dual(v: DualGridFunction) -> np.ndarray:
    """Two-point average, star half-points -> interior points."""
    return 0.5 * (v.values[1:] + v.values[:-1])


def apply_Dh2(u: GridFunction) -> np.ndarray:
    """Three-point second difference at the interior points."""
    w = u.values
    return (w[2:] - 2.0 * w[1:-1] + w[:-2]) / u.mesh.h**2


def leibniz_residuals(u: GridFunction, v: GridFunction) -> tuple[float, float, float]:
    """Max-abs residuals of the three product identities.

    Product rule for the difference on the star points, product rule for
    the average on the star points, and the average/second-difference
    reconstruction of the identity on the double-ring points.
    """
    mesh = u.mesh
    uv = GridFunction(mesh, u.values * v.values)
    du, dv = apply_Dh(u).values, apply_Dh(v).values
    au, av = apply_Ah(u).values, apply_Ah(v).values
    q = mesh.h**2 / 4.0

    res1 = np.abs(apply_Dh(uv).values - (du * av + au * dv)).max()
    res2 = np.abs(apply_Ah(uv).values - (au * av + q * du * dv)).max()

    recon = apply_Ah_dual(apply_Ah(u)) - q * apply_Dh2(u)
    diff3 = np.abs(u.interior - recon)[1:-1]
    res3 = diff3.max() if diff3.size else 0.0
    return float(res1), float(res2), float(res3)


def ibp_residuals(u: GridFunction, v: DualGridFunction) -> tuple[float, float]:
    """Residuals of the two summation-by-parts identities.

    The difference identity picks up a boundary term weighted by the outward
    normal; the average identity picks up -h/2 times the plain boundary sum.
    """
    mesh = u.mesh
    # traces of u and v at x=0 and x=1, where the outward normals are -1 and +1
    bnd = np.array([u.values[0] * v.values[0], u.values[-1] * v.values[-1]])

    lhs1 = integrate(mesh, u.interior * apply_Dh_dual(v), "interior")
    bnd1 = integrate(mesh, bnd * np.array([-1.0, 1.0]), "boundary")
    rhs1 = -integrate(mesh, apply_Dh(u).values * v.values, "star") + bnd1

    lhs2 = integrate(mesh, u.interior * apply_Ah_dual(v), "interior")
    rhs2 = (integrate(mesh, apply_Ah(u).values * v.values, "star")
            - 0.5 * mesh.h * integrate(mesh, bnd, "boundary"))

    return float(abs(lhs1 - rhs1)), float(abs(lhs2 - rhs2))


def consistency_orders() -> dict[str, float]:
    """Observed convergence orders of the staggered operators on sin(pi*x).

    Halves h four times from 1/16, measures the max error against the
    exact derivative over the interior window [0.25, 0.75], and returns
    the least-squares slope of log(error) vs log(h) per operator.  All
    four combinations are second order.
    """
    spacings = [1 / 16 / 2**j for j in range(5)]
    errors = {name: [] for name in
              ("first_difference", "second_difference", "averaged_difference", "double_average")}
    lo, hi = 0.25, 0.75
    for h in spacings:
        N = round(1.0 / h) - 1
        mesh = Mesh(N)
        u = GridFunction(mesh, np.sin(np.pi * mesh.closure))
        x_int = mesh.interior
        x_star = mesh.star
        in_int = (x_int >= lo) & (x_int <= hi)
        in_star = (x_star >= lo) & (x_star <= hi)

        d1 = apply_Dh(u).values
        errors["first_difference"].append(
            np.abs(d1 - np.pi * np.cos(np.pi * x_star))[in_star].max())
        errors["second_difference"].append(
            np.abs(apply_Dh2(u) + np.pi**2 * np.sin(np.pi * x_int))[in_int].max())
        errors["averaged_difference"].append(
            np.abs(apply_Ah_dual(apply_Dh(u)) - np.pi * np.cos(np.pi * x_int))[in_int].max())
        errors["double_average"].append(
            np.abs(apply_Ah_dual(apply_Ah(u)) - np.sin(np.pi * x_int))[in_int].max())

    log_h = np.log(spacings)
    return {name: float(np.polyfit(log_h, np.log(errs), 1)[0])
            for name, errs in errors.items()}


class StepOperator:
    """Symmetric tridiagonal step matrices factored once and applied to many batches.

    ``diag`` holds one matrix per row: shape (n,) or (1, n) is one shared
    matrix, shape (P, n) one matrix per node; ``off`` (both off-diagonals)
    broadcasts against it.  Elimination without pivoting, checked against
    each node's own max|diag|, runs here, once; ``solve`` serves any number
    of batches.

    * One shared matrix keeps its ``symmetric_inverse``, taken after the
      pivot check, so a batched solve is a single matmul.  A shared
      drift-implicit matrix also keeps ``split`` for the backward step (see
      ``drift_implicit``); every other operator has ``split`` None.
    * Per-node matrices keep the elimination as two rows per node (Stone,
      J. ACM 20, 1973), node-major with shape (P, 1, n), applied to
      right-hand sides grouped by node, (..., P*C, n): five whole-array
      calls per solve.  With the pivots piv and pf[i] = prod(-mult[:i])
      the prefix products of the negated multipliers mult = off/piv, the
      rows are u = 1/pf and w = pf**2/piv, and a solve is
      x = u * revcumsum(w * cumsum(u * r)).  They are kept when every
      prefix product lies in [1e-150, 1e150] in magnitude and every w is
      finite and normal; otherwise (a zero off-diagonal entry, or
      multipliers decaying or growing too fast over many rows) the
      multipliers and reciprocal pivots are kept space-major, (n, P), and
      the Thomas substitution runs row by row.

    Raises SingularSystemError when a pivot falls below the dominance
    threshold, which the drift-implicit steppers rule out up front but the
    anti-diffusive source stepper can hit.
    """

    def __init__(self, off, diag):
        diag = np.atleast_2d(np.asarray(diag, dtype=float))
        nodes, n = diag.shape
        off = np.broadcast_to(np.asarray(off, dtype=float), (nodes, n - 1))
        self.nodes, self.n = nodes, n
        self._inverse = self._rows = self.split = None
        if nodes == 1:
            _pivots_in_place(off, diag.copy())
            self._inverse = symmetric_inverse(off[0], diag[0])
            return
        rows = np.empty((2, nodes, n))
        rows[1] = diag
        _pivots_in_place(off, rows[1])
        if _two_rows(off, rows):
            self._rows = rows[:, :, np.newaxis, :]
            return
        piv = diag.copy()
        _pivots_in_place(off, piv)
        self._mult = (off / piv[:, :-1]).T.copy()
        self._inv_piv = (1.0 / piv).T.copy()

    @classmethod
    def drift_implicit(cls, mesh: Mesh, dt: float, a1) -> "StepOperator":
        """I - dt*(second difference + a1*) on the interior, Dirichlet rows eliminated.

        ``a1`` of shape (N,) or (1, N) gives one shared matrix, (P, N) one per node.
        With dt*a1 < 1 the off-diagonal is -dt/h^2 and the pivots lie above
        dt/h^2, so every negated multiplier lies in (0, 1) and the prefix
        products only decay; per-node operators keep their two rows unless
        the products fall below 1e-150, which needs dt below about 3e-5.

        A shared matrix, with inverse M, also gets ``split``: the (2N, N)
        matrices kron(EDGE_SIGNS, M)/(2 sqrt(dt)) = [-M; M]/(2 sqrt(dt))
        and [M; M]/2.  A row [c0 | c1] of a
        node's two children times them gives the martingale coefficient
        and the conditional mean of the solved children, (M c1 - M c0)/(2
        sqrt(dt)) and (M c0 + M c1)/2: the transpose of the forward step's
        edge map, one matmul each.  They are built here, with the inverse,
        and not on first use: built in the middle of a sweep, these
        long-lived arrays sit between the sweep's temporaries on the heap,
        and one HUM solve with adapted coefficients (N = 63, depth 10) took
        9726 minor page faults instead of 3745.
        """
        a1 = np.asarray(a1, dtype=float)
        try:
            op = cls(*drift_implicit_bands(mesh, dt, a1))
        except SingularSystemError as exc:
            bound = float(np.abs(a1).max()) if a1.size else 0.0
            raise SingularSystemError(
                f"{exc} (dt={dt:g}, h={mesh.h:g}, max|a1|={bound:g})"
            ) from exc
        if op.nodes == 1:
            m = op._inverse
            op.split = (np.kron(EDGE_SIGNS, m) / (2.0 * np.sqrt(dt)), np.vstack([m, m]) / 2.0)
        return op

    @property
    def prefix_form(self) -> bool:
        """Whether per-node solves use the two-row substitution."""
        return self._rows is not None

    def solve(self, rhs, out=None) -> np.ndarray:
        """Solve every row of ``rhs`` (last axis is space).

        With per-node matrices ``rhs`` has shape (..., P*C, n): along the
        row axis the rows are grouped by node, row r using node r // C, and
        any leading axes (samples) share the factors.  ``out``, a
        C-contiguous float array of ``rhs``'s shape, receives the solution
        and is returned; it may be ``rhs`` itself, and the two-row
        substitution then runs in place with no temporary.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[-1:] != (self.n,):
            raise ValueError(f"rhs must have {self.n} values along its last axis, got shape {rhs.shape}")
        if out is None:
            out = np.empty_like(rhs, order="C")
        elif out.shape != rhs.shape or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape {rhs.shape}")
        if self._inverse is not None:
            np.matmul(rhs.reshape(-1, self.n), self._inverse, out=out.reshape(-1, self.n))
            return out
        if rhs.ndim < 2 or rhs.shape[-2] % self.nodes:
            raise ValueError(
                f"rhs rows must be grouped by node, a multiple of {self.nodes}, got shape {rhs.shape}"
            )
        if self._rows is None:
            return self._eliminate(rhs, out)
        u, w = self._rows
        grouped = (-1, self.nodes, rhs.shape[-2] // self.nodes, self.n)
        y = np.multiply(rhs.reshape(grouped), u, out=out.reshape(grouped))
        np.cumsum(y, axis=-1, out=y)
        y *= w
        rev = y[..., ::-1]
        np.cumsum(rev, axis=-1, out=rev)
        y *= u
        return out

    def _eliminate(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Thomas substitution with the stored factors, written to ``out``.

        Works space-major with the node axis last, x[i] of shape (S, C, P),
        so every update is one contiguous vector operation over all rows of
        all samples.  Symmetry gives both sweeps the same multipliers.
        """
        grouped = (-1, self.nodes, rhs.shape[-2] // self.nodes, self.n)
        x = rhs.reshape(grouped).transpose(3, 0, 2, 1).copy()
        rows = list(x)
        prev = rows[0]
        for row, mult in zip(rows[1:], self._mult):
            row -= mult * prev
            prev = row
        prev *= self._inv_piv[-1]
        for row, mult, inv_piv in zip(rows[-2::-1], self._mult[::-1], self._inv_piv[-2::-1]):
            row *= inv_piv
            row -= mult * prev
            prev = row
        out.reshape(grouped)[...] = x.transpose(1, 3, 2, 0)
        return out


def drift_implicit_bands(mesh: Mesh, dt: float, a1) -> tuple[np.ndarray, np.ndarray]:
    """Bands (off, diag) of ``StepOperator.drift_implicit``'s matrix: -dt/h^2,
    N - 1 values, and 1 + 2 dt/h^2 - dt*a1 in the shape of ``a1``."""
    h2 = mesh.h**2
    return np.full(mesh.N - 1, -dt / h2), 1.0 + 2.0 * dt / h2 - dt * np.asarray(a1, dtype=float)


def symmetric_inverse(off, diag) -> np.ndarray:
    """Inverse of one symmetric tridiagonal matrix, bands ``off`` and ``diag``,
    symmetrized to equal its transpose exactly; checks no pivot."""
    inv = np.linalg.inv(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (inv + inv.T)


def _pivots_in_place(off, piv):
    """Overwrite the diagonals ``piv`` (nodes, n) with the pivots of
    elimination without pivoting, ``off`` broadcast to (nodes, n - 1).

    Raises SingularSystemError at the first pivot at or below _PIVOT_RTOL
    times its node's max|diag|.  Past a vanishing pivot the values are
    meaningless (NaN counts as vanishing); only the first is reported.
    """
    scale = np.maximum(piv.max(axis=1), -piv.min(axis=1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, piv.shape[1]):
            piv[:, i] -= off[:, i - 1] / piv[:, i - 1] * off[:, i - 1]
    tol = _PIVOT_RTOL * scale
    if (piv.min(axis=1) > tol).all():
        return
    small = ~(np.abs(piv) > tol[:, np.newaxis])
    if small.any():
        row = int(small.any(axis=0).argmax())
        raise SingularSystemError(
            f"vanishing pivot at row {row} (|pivot| <= {_PIVOT_RTOL:g} * {scale[small[:, row]][0]:g})"
        )


def _two_rows(off, rows) -> bool:
    """Turn the pivots in rows[1], shape (nodes, n), into the two rows
    (u, w) = ``rows`` in place, ``off`` broadcast to (nodes, n - 1); no
    temporary is larger than one value per node.  Returns whether the
    rows hold: every |pf| within _PREFIX_RANGE and every |w| finite and
    normal.
    """
    u, w = rows
    pf = u[:, 1:]
    u[:, 0] = 1.0
    # Values out of range are caught below.
    with np.errstate(all="ignore"):
        np.divide(off, w[:, :-1], out=pf)
        np.negative(pf, out=pf)
        np.cumprod(pf, axis=1, out=pf)
        np.divide(u, w, out=w)
        w *= u
        np.reciprocal(u, out=u)
    # The range is symmetric about 1, so |u| = 1/|pf| may be checked in its place.
    lo, hi = _PREFIX_RANGE
    u_mag = u if u.min() >= 0 else np.abs(u)
    w_mag = w if w.min() >= 0 else np.abs(w)
    # Comparisons with NaN are false, so a non-finite value also fails here.
    return bool(lo <= u_mag.min() and u_mag.max() <= hi
                and np.finfo(float).tiny <= w_mag.min() and w_mag.max() <= np.finfo(float).max)


def solve_tridiagonal(off, diag, rhs) -> np.ndarray:
    """One-off symmetric tridiagonal solve: one StepOperator build and one
    ``solve``, so the bands and ``rhs`` take that class's shapes.  Code that
    solves with the same matrix repeatedly should keep the operator."""
    return StepOperator(off, diag).solve(rhs)


def solve_drift_implicit(mesh: Mesh, dt: float, a1, rhs) -> np.ndarray:
    """Solve (I - dt*(second difference + a1*)) x = rhs on the interior with
    one ``StepOperator.drift_implicit`` build and one ``solve``; ``a1`` and
    ``rhs`` take that method's shapes.  Needs dt > 0."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return StepOperator.drift_implicit(mesh, dt, a1).solve(rhs)
