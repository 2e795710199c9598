"""Drift-implicit scheme for the controlled forward system on the tree.

Each step solves (I - dt*(second difference + a1)) y_next = y + dt*chi*u
+ (a2*y + v)*dB with the noise and both controls explicit, so the map
(y0, u, v) -> states is affine and every node-level solve is tridiagonal.
Coefficients are sampled at the left endpoint of each step.  The drift
control u of a ``ControlPair`` acts only through the window, as chi*u:
``solve_forward`` applies chi, and ``forward_step`` takes the drift term
chi*u as its u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .mesh import Mesh
from .discrete_calc import StepOperator
from .noise_tree import EDGE_SIGNS, ScenarioTree


@dataclass(frozen=True)
class OmegaRegion:
    """Control window: the interior points falling in an open interval.

    ``mask`` and ``indicator`` are computed once per region and read-only.
    """

    mesh: Mesh
    interval: tuple[float, float]

    def __post_init__(self):
        a, b = self.interval
        if not 0.0 <= a < b <= 1.0:
            raise ConfigurationError(f"control interval must satisfy 0 <= a < b <= 1, got {self.interval}")
        if not self.mask.any():
            raise ConfigurationError(
                f"control interval {self.interval} contains no interior points at N={self.mesh.N}"
            )

    def check_mesh(self, mesh: Mesh) -> None:
        """Raise ConfigurationError unless this window was built on ``mesh``."""
        if self.mesh != mesh:
            raise ConfigurationError(
                f"control window built for N={self.mesh.N} cannot act on a mesh with N={mesh.N}")

    @cached_property
    def mask(self) -> np.ndarray:
        x = self.mesh.interior
        a, b = self.interval
        mask = (x > a) & (x < b)
        mask.flags.writeable = False
        return mask

    @cached_property
    def indicator(self) -> np.ndarray:
        indicator = self.mask.astype(float)
        indicator.flags.writeable = False
        return indicator


def sampled_levels(tree: ScenarioTree, mesh: Mesh, f) -> list[np.ndarray]:
    """Deterministic coefficient f(x, t) at each step's left endpoint, shape (1, N)."""
    x = mesh.interior
    return [np.asarray(f(x, k * tree.dt), dtype=float).reshape(1, mesh.N)
            for k in range(tree.depth)]


def uniform_levels(tree: ScenarioTree, mesh: Mesh, rng: np.random.Generator,
                   magnitude: float) -> list[np.ndarray]:
    """Nodewise uniform coefficient in [-magnitude, magnitude], shape (2^k, N)."""
    return [magnitude * rng.uniform(-1, 1, size=(1 << k, mesh.N)) for k in range(tree.depth)]


def _read_only(arr) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


class Coefficients:
    """Reaction coefficients per time level, optionally per node.

    ``a1_levels[k]`` and ``a2_levels[k]`` have shape (1, N) for deterministic
    coefficients or (2^k, N) for adapted ones.  Both are tuples of
    read-only copies of the given arrays, so the step operators factored
    from them cannot go stale.
    """

    def __init__(self, tree: ScenarioTree, mesh: Mesh,
                 a1_levels: list[np.ndarray], a2_levels: list[np.ndarray]):
        if len(a1_levels) != tree.depth or len(a2_levels) != tree.depth:
            raise ConfigurationError("coefficients must provide one array per time step")
        self.a1_levels = tuple(_read_only(a) for a in a1_levels)
        self.a2_levels = tuple(_read_only(a) for a in a2_levels)
        for k, (a1, a2) in enumerate(zip(self.a1_levels, self.a2_levels)):
            for name, arr in (("a1", a1), ("a2", a2)):
                if arr.ndim != 2 or arr.shape[1] != mesh.N or arr.shape[0] not in (1, 1 << k):
                    raise ConfigurationError(
                        f"coefficient at level {k} must have shape (1, {mesh.N}) or "
                        f"({1 << k}, {mesh.N}), got {arr.shape}"
                    )
                if not np.isfinite(arr).all():
                    raise ConfigurationError(f"coefficient {name} at level {k} is not finite")
        self.tree = tree
        self.mesh = mesh
        self._steps: list[StepOperator] | None = None

    @classmethod
    def constant(cls, tree: ScenarioTree, mesh: Mesh, c1: float, c2: float) -> "Coefficients":
        return cls(tree, mesh, [np.full((1, mesh.N), c1)] * tree.depth,
                   [np.full((1, mesh.N), c2)] * tree.depth)

    @classmethod
    def adapted_random(cls, tree: ScenarioTree, mesh: Mesh, rng: np.random.Generator,
                       mag1: float, mag2: float) -> "Coefficients":
        """Nodewise uniform coefficients in [-mag, mag], adapted by construction."""
        a1 = uniform_levels(tree, mesh, rng, mag1)
        return cls(tree, mesh, a1, uniform_levels(tree, mesh, rng, mag2))

    def step_operators(self) -> list[StepOperator]:
        """Factored implicit step matrix of every level, built on first use.

        Checks diagonal dominance before factoring.  A level whose a1 equals
        the previous level's shares that level's operator (the same
        object), so a run of equal levels is factored once; every later
        sweep with these coefficients reuses the operators, which live as
        long as this object.
        """
        if self._steps is None:
            self.validate_dominance()
            self._steps = []
            for k, a1 in enumerate(self.a1_levels):
                if k and np.array_equal(a1, self.a1_levels[k - 1]):
                    self._steps.append(self._steps[-1])
                else:
                    self._steps.append(StepOperator.drift_implicit(self.mesh, self.tree.dt, a1))
        return self._steps

    def check_grid(self, tree: ScenarioTree, mesh: Mesh) -> None:
        """Raise ConfigurationError unless these coefficients were built on
        ``tree`` and ``mesh``.  The sweeps read their grid from the
        coefficients; an entry point handed a grid as well (``HumProblem``,
        ``observability_sample``) checks it here once, since stepping with
        another grid's dt or N would be silently wrong."""
        if self.tree != tree or self.mesh != mesh:
            raise ConfigurationError(
                f"coefficients built for depth {self.tree.depth}, T={self.tree.T:g}, "
                f"N={self.mesh.N} cannot drive a sweep with depth {tree.depth}, "
                f"T={tree.T:g}, N={mesh.N}"
            )

    def validate_dominance(self):
        """Diagonal dominance of the implicit step: dt * max|a1| < 1."""
        m1 = max((np.abs(a).max() for a in self.a1_levels), default=0.0)
        if self.tree.dt * m1 >= 1.0:
            raise ConfigurationError(
                f"dt*max|a1| = {self.tree.dt * m1:.6g} >= 1 breaks diagonal dominance; "
                "reduce the coefficient magnitude or increase the tree depth"
            )


@dataclass
class ControlPair:
    """Drift control u and diffusion control v, tree fields over levels
    0..depth-1, with the window through which u acts.

    u is the control before chi: the forward sweep steps with
    ``region.indicator * u``, so values of u outside the window never
    reach the state.  ``solve_forward`` reads u and v once, in level
    order, so they may also be iterators over the levels.
    """

    u: list[np.ndarray]
    v: list[np.ndarray]
    region: OmegaRegion


def forward_step(step: StepOperator, dt: float, y: np.ndarray, u: np.ndarray, v: np.ndarray,
                 a2: np.ndarray) -> np.ndarray:
    """One implicit step of node rows (..., B, N) to their children (..., 2B, N).

    ``step`` is the level's factored step matrix; node n's children are
    rows 2n and 2n+1, their increments signed as ``EDGE_SIGNS``, the order
    that ``backward_step`` splits.  ``u`` is the drift term, zero outside
    the window (``solve_forward`` passes chi*u); ``u``, ``v`` and ``a2``
    broadcast against ``y``, and the children take the broadcast shape, so
    leading axes (samples) of any operand are kept.  No operand is written
    to: the step allocates one parent-sized array (the noise term, then
    the drift y + dt*u) and the children, whose right-hand sides it
    solves in place.
    """
    shape = np.broadcast(y, u, v, a2).shape
    parents = shape[:-2] + (shape[-2] if len(shape) > 1 else 1, step.n)
    # Child c's right-hand side is drift + (a2*y + v) * EDGE_SIGNS[c]*sqrt(dt);
    # one parent-sized array holds the noise, then the drift y + dt*u.
    parent = np.multiply(a2, y, out=np.empty(parents))
    parent += v
    children = parent[..., np.newaxis, :] * (EDGE_SIGNS * np.sqrt(dt))
    np.multiply(u, dt, out=parent)
    parent += y
    children += parent[..., np.newaxis, :]
    children = children.reshape(parents[:-2] + (-1, step.n))
    return step.solve(children, out=children)


def solve_forward(y0: np.ndarray, controls: ControlPair | None,
                  coeffs: Coefficients) -> np.ndarray:
    """Leaf states (2^depth, N) of ``coeffs.tree`` reached from ``y0`` (not
    written to), carrying one level as ``solve_backward`` does; affine in (y0, u, v).

    Each control level is read once, in level order, and released after
    its step, so ``controls.u`` and ``controls.v`` may be iterators that
    hand over levels they no longer hold (``gramian_apply`` passes such
    iterators to free each backward level once it is stepped).  Neither
    the controls' lists nor their arrays are written to.
    """
    tree = coeffs.tree
    steps = coeffs.step_operators()
    y = np.asarray(y0, dtype=float).reshape(1, coeffs.mesh.N)
    us, vs = (iter(controls.u), iter(controls.v)) if controls is not None else (None, None)
    for k in range(tree.depth):
        u = v = 0.0
        if us is not None:
            u, v = next(us, None), next(vs, None)
            if u is None or v is None:
                raise ValueError(f"controls must provide {tree.depth} levels, got {k}")
            u = controls.region.indicator * u
        y = forward_step(steps[k], tree.dt, y, u, v, coeffs.a2_levels[k])
    return y
