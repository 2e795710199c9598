"""Staggered difference/average operators and the tridiagonal step solver.

Primal grid functions live on the N+2 closure points (boundary values
stored explicitly); dual grid functions live on the N+1 star half-points.
The difference and average operators map primal -> star and star -> interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularSystemError
from .mesh import Mesh, integrate

_PIVOT_RTOL = 1e-13
# Magnitudes allowed for the prefix products of the per-node substitution.
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

    @classmethod
    def from_callable(cls, mesh: Mesh, f: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        return cls(mesh, np.asarray(f(mesh.closure), dtype=float))

    @classmethod
    def from_interior(cls, mesh: Mesh, interior, boundary=(0.0, 0.0)) -> "GridFunction":
        vals = np.empty(mesh.N + 2)
        vals[0], vals[-1] = boundary
        vals[1:-1] = np.asarray(interior, dtype=float)
        return cls(mesh, vals)

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


def consistency_orders(h0: float = 1 / 16, halvings: int = 4,
                       window: tuple[float, float] = (0.25, 0.75)) -> dict[str, float]:
    """Observed convergence orders of the staggered operators on sin(pi*x).

    Halves h ``halvings`` times from ``h0``, measures the max error against
    the exact derivative over an interior window, and returns the
    least-squares slope of log(error) vs log(h) per operator.  All four
    combinations are second order.
    """
    spacings = [h0 / 2**j for j in range(halvings + 1)]
    errors = {name: [] for name in
              ("first_difference", "second_difference", "averaged_difference", "double_average")}
    lo, hi = window
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
    """Tridiagonal step matrices factored once and applied to many batches.

    ``diag`` holds one matrix per row: shape (n,) or (1, n) is one shared
    matrix, shape (P, n) one matrix per node; ``sub``/``sup`` broadcast
    against it.  Thomas elimination without pivoting runs here, once, with
    a pivot check against each node's own max|diag|; ``solve`` only
    substitutes, for any number of batches.

    * One shared matrix keeps its inverse, obtained by eliminating the
      identity, so a batched solve is a single matmul.
    * Per-node matrices keep the prefix-product form of the substitution
      (Stone, J. ACM 20, 1973), node-major with shape (P, 1, n), applied to
      right-hand sides grouped by node, (..., P*C, n): five whole-array
      calls per solve.  It needs every prefix product of the negated
      multipliers to lie in [1e-150, 1e150]; otherwise (a zero off-diagonal
      entry, or multipliers decaying or growing too fast over many rows)
      the multipliers and reciprocal pivots are kept space-major, (n, P),
      and the Thomas substitution runs row by row.

    Raises SingularSystemError when a pivot falls below the dominance
    threshold, which the drift-implicit steppers rule out up front but the
    anti-diffusive source stepper can hit.
    """

    def __init__(self, sub, diag, sup):
        diag = np.atleast_2d(np.asarray(diag, dtype=float))
        nodes, n = diag.shape
        sub = np.broadcast_to(np.asarray(sub, dtype=float), (nodes, n - 1))
        sup = np.broadcast_to(np.asarray(sup, dtype=float), (nodes, n - 1))

        scale = np.abs(diag).max(axis=1)
        piv = np.empty_like(diag)
        piv[:, 0] = diag[:, 0]
        for i in range(n):
            if i:
                piv[:, i] = diag[:, i] - sub[:, i - 1] / piv[:, i - 1] * sup[:, i - 1]
            small = np.abs(piv[:, i]) <= _PIVOT_RTOL * scale
            if np.any(small):
                raise SingularSystemError(
                    f"vanishing pivot at row {i} (|pivot| <= {_PIVOT_RTOL:g} * {scale[small][0]:g})"
                )
        self.nodes, self.n = nodes, n
        lower, upper = sub / piv[:, :-1], sup / piv[:, :-1]
        self._prefix = None
        if nodes > 1:
            self._prefix = _prefix_factors(lower, upper, piv, np.array_equal(sub, sup))
        if self._prefix is None:
            self._lower = lower.T.copy()
            self._upper = upper.T.copy()
            self._inv_piv = (1.0 / piv).T.copy()
        # Row i of the eliminated identity is M^-1 e_i, so this is M^-T.
        self._inverse_t = self._eliminate(np.eye(n)) if nodes == 1 else None

    @classmethod
    def drift_implicit(cls, mesh: Mesh, dt: float, a1) -> "StepOperator":
        """I - dt*(second difference + a1*) on the interior, Dirichlet rows eliminated.

        ``a1`` of shape (N,) or (1, N) gives one shared matrix, (P, N) one per node.
        With dt*a1 < 1 the matrix is symmetric with off-diagonal -dt/h^2 and
        pivots above dt/h^2, so every negated multiplier lies in (0, 1) and
        the prefix products only decay; per-node operators take the prefix
        form unless they fall below 1e-150, which needs dt below about 3e-5.
        """
        a1 = np.asarray(a1, dtype=float)
        try:
            return cls(*drift_implicit_bands(mesh, dt, a1))
        except SingularSystemError as exc:
            bound = float(np.abs(a1).max()) if a1.size else 0.0
            raise SingularSystemError(
                f"{exc} (dt={dt:g}, h={mesh.h:g}, max|a1|={bound:g})"
            ) from exc

    @property
    def prefix_form(self) -> bool:
        """Whether per-node solves use the prefix-product substitution."""
        return self._prefix is not None

    def solve(self, rhs, transpose: bool = False) -> np.ndarray:
        """Solve every row of ``rhs`` (last axis is space).

        With per-node matrices ``rhs`` has shape (..., P*C, n): along the
        row axis the rows are grouped by node, row r using node r // C, and
        any leading axes (samples) share the factors.  ``transpose=True``
        solves with the transposed matrices.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[-1:] != (self.n,):
            raise ValueError(f"rhs must have {self.n} values along its last axis, got shape {rhs.shape}")
        if self._inverse_t is not None:
            inv = self._inverse_t.T if transpose else self._inverse_t
            return (rhs.reshape(-1, self.n) @ inv).reshape(rhs.shape)
        if rhs.ndim < 2 or rhs.shape[-2] % self.nodes:
            raise ValueError(
                f"rhs rows must be grouped by node, a multiple of {self.nodes}, got shape {rhs.shape}"
            )
        if self._prefix is None:
            return self._eliminate(rhs, transpose)
        inv_pf, mid, pb = self._prefix[transpose]
        y = rhs.reshape(-1, self.nodes, rhs.shape[-2] // self.nodes, self.n) * inv_pf
        np.cumsum(y, axis=-1, out=y)
        y *= mid
        rev = y[..., ::-1]
        np.cumsum(rev, axis=-1, out=rev)
        y *= pb
        return y.reshape(rhs.shape)

    def _eliminate(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Thomas substitution with the stored factors.

        Works space-major with the node axis last, x[i] of shape (S, C, P),
        so every update is one contiguous vector operation over all rows of
        all samples.
        """
        lower, upper = (self._upper, self._lower) if transpose else (self._lower, self._upper)
        per_node = rhs.shape[-2] // self.nodes
        x = rhs.reshape(-1, self.nodes, per_node, self.n).transpose(3, 0, 2, 1).copy()
        rows = list(x)
        prev = rows[0]
        for row, mult in zip(rows[1:], lower):
            row -= mult * prev
            prev = row
        prev *= self._inv_piv[-1]
        for row, mult, inv_piv in zip(rows[-2::-1], upper[::-1], self._inv_piv[-2::-1]):
            row *= inv_piv
            row -= mult * prev
            prev = row
        return x.transpose(1, 3, 2, 0).reshape(rhs.shape)



def _prefix_factors(lower, upper, piv, symmetric: bool):
    """Prefix-product factors of the plain and the transposed solve, or None.

    With pf[i] = prod(-lower[:i]) and pb[i] = prod(-upper[i:]), the forward
    sweep y[i] = r[i] - lower[i-1]*y[i-1] is y = pf * cumsum(r / pf) and the
    back substitution x[i] = y[i]/piv[i] - upper[i]*x[i+1] is
    x = pb * revcumsum(y / (piv*pb)).  Each orientation is stored as
    (1/pf, pf/(piv*pb), pb) with shape (nodes, 1, n); the transposed matrix
    swaps the multipliers, so a symmetric one shares its arrays.  None when
    a product is zero, non-finite or outside _PREFIX_RANGE.
    """
    ones = np.ones((len(piv), 1))
    lo, hi = _PREFIX_RANGE
    factors = []
    for low, up in [(lower, upper)] if symmetric else [(lower, upper), (upper, lower)]:
        pf = np.hstack([ones, np.cumprod(-low, axis=1)])
        pb = np.hstack([np.cumprod(-up[:, ::-1], axis=1)[:, ::-1], ones])
        size = np.abs(np.hstack([pf, pb]))
        # Comparisons with NaN are false, so a non-finite product also fails here.
        if not (lo <= size.min() and size.max() <= hi):
            return None
        mid = pf / (piv * pb)
        if not np.isfinite(mid).all():
            return None
        factors.append(tuple(f[:, np.newaxis, :] for f in (1.0 / pf, mid, pb)))
    return factors[0], factors[-1]


def solve_tridiagonal(sub, diag, sup, rhs, transpose: bool = False) -> np.ndarray:
    """One-off tridiagonal solve, vectorized over batch rows.

    ``sub``/``diag``/``sup`` may be 1-D (shared matrix) or carry leading
    batch axes matching ``rhs``.  ``transpose=True`` solves with the
    transposed matrix.  Factors a fresh StepOperator per call; code that
    solves with the same matrix repeatedly should keep the operator.
    """
    rhs = np.asarray(rhs, dtype=float)
    bands = [np.asarray(b, dtype=float) for b in (sub, diag, sup)]
    if any(b.ndim > 1 for b in bands):
        rows = rhs.shape[:-1]
        bands = [np.broadcast_to(b, rows + b.shape[-1:]).reshape(-1, b.shape[-1]) for b in bands]
    rows = rhs.reshape(-1, rhs.shape[-1])
    return StepOperator(*bands).solve(rows, transpose).reshape(rhs.shape)


def drift_implicit_bands(mesh: Mesh, dt: float, a1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands of I - dt*(second difference + a1*), Dirichlet rows eliminated."""
    N, h = mesh.N, mesh.h
    a1 = np.asarray(a1, dtype=float)
    off = np.full(N - 1, -dt / h**2)
    diag = 1.0 + 2.0 * dt / h**2 - dt * a1
    return off, diag, off


def solve_drift_implicit(mesh: Mesh, dt: float, a1, rhs, transpose: bool = False) -> np.ndarray:
    """Solve (I - dt*(second difference + a1*)) x = rhs on the interior.

    ``a1`` is the interior reaction coefficient (length N, or batched like
    ``rhs``); ``transpose=True`` solves with the transposed matrix.  dt = 0
    degenerates to the identity.  Factors a fresh StepOperator per call.
    """
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1] != mesh.N:
        raise ValueError(f"rhs must have {mesh.N} interior values, got {rhs.shape[-1]}")
    if dt == 0.0:
        return rhs.copy()
    a1 = np.asarray(a1, dtype=float)
    if a1.size != mesh.N:
        a1 = np.broadcast_to(a1, rhs.shape).reshape(-1, mesh.N)
    rows = rhs.reshape(-1, mesh.N)
    return StepOperator.drift_implicit(mesh, dt, a1).solve(rows, transpose).reshape(rhs.shape)
