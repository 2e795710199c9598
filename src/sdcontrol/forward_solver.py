"""Drift-implicit scheme for the controlled forward system on the tree.

Each step solves (I - dt*(second difference + a1)) y_next = y + dt*chi*u
+ (a2*y + v)*dB with the noise and both controls explicit, so the map
(y0, u, v) -> states is affine and every node-level solve is tridiagonal.
Coefficients are sampled at the left endpoint of each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .mesh import Mesh
from .discrete_calc import StepOperator
from .noise_tree import AdaptedField, ScenarioTree, tree_inner


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


class Coefficients:
    """Reaction coefficients per time level, optionally per node.

    ``a1_levels[k]`` and ``a2_levels[k]`` have shape (1, N) for deterministic
    coefficients or (2^k, N) for adapted ones.
    """

    def __init__(self, tree: ScenarioTree, mesh: Mesh,
                 a1_levels: list[np.ndarray], a2_levels: list[np.ndarray]):
        if len(a1_levels) != tree.depth or len(a2_levels) != tree.depth:
            raise ConfigurationError("coefficients must provide one array per time step")
        for k, (a1, a2) in enumerate(zip(a1_levels, a2_levels)):
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
        self.a1_levels = a1_levels
        self.a2_levels = a2_levels
        self._steps: list[StepOperator] | None = None

    @classmethod
    def zero(cls, tree: ScenarioTree, mesh: Mesh) -> "Coefficients":
        z = [np.zeros((1, mesh.N)) for _ in range(tree.depth)]
        return cls(tree, mesh, z, [a.copy() for a in z])

    @classmethod
    def from_functions(cls, tree: ScenarioTree, mesh: Mesh, f1, f2) -> "Coefficients":
        """Deterministic coefficients a(x, t) sampled at left endpoints."""
        return cls(tree, mesh, sampled_levels(tree, mesh, f1), sampled_levels(tree, mesh, f2))

    @classmethod
    def constant(cls, tree: ScenarioTree, mesh: Mesh, c1: float, c2: float) -> "Coefficients":
        return cls.from_functions(tree, mesh, lambda x, t: np.full_like(x, c1),
                                  lambda x, t: np.full_like(x, c2))

    @classmethod
    def adapted_random(cls, tree: ScenarioTree, mesh: Mesh, rng: np.random.Generator,
                       mag1: float, mag2: float) -> "Coefficients":
        """Nodewise uniform coefficients in [-mag, mag], adapted by construction."""
        a1 = uniform_levels(tree, mesh, rng, mag1)
        return cls(tree, mesh, a1, uniform_levels(tree, mesh, rng, mag2))

    def at(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        return self.a1_levels[level], self.a2_levels[level]

    @property
    def sup_norm(self) -> float:
        """|a1|_inf + |a2|_inf over all levels and nodes."""
        m1 = max((np.abs(a).max() for a in self.a1_levels), default=0.0)
        m2 = max((np.abs(a).max() for a in self.a2_levels), default=0.0)
        return float(m1 + m2)

    def step_operators(self) -> list[StepOperator]:
        """Factored implicit step matrix of every level, built on first use.

        Checks diagonal dominance before factoring; every later sweep with
        these coefficients reuses the operators, which live as long as this
        object.  The level arrays must not be modified afterwards.
        """
        if self._steps is None:
            self.validate_dominance()
            self._steps = [StepOperator.drift_implicit(self.mesh, self.tree.dt, a1)
                           for a1 in self.a1_levels]
        return self._steps

    def check_grid(self, tree: ScenarioTree, mesh: Mesh) -> None:
        """Raise ConfigurationError unless these coefficients were built on
        ``tree`` and ``mesh``: a sweep on another grid would factor with one
        dt and step the explicit terms with another."""
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
    """Drift control supported in the window, diffusion control everywhere."""

    u: AdaptedField
    v: AdaptedField
    region: OmegaRegion

    def __post_init__(self):
        outside = ~self.region.mask
        for k, arr in enumerate(self.u.levels):
            if arr[:, outside].any():
                raise ConfigurationError(f"drift control has support outside the window at level {k}")

    @classmethod
    def windowed(cls, drift: AdaptedField, v: AdaptedField, region: OmegaRegion,
                 sign: float = 1.0) -> "ControlPair":
        """Pair whose drift control is sign * indicator * drift.

        The drift control is masked to the window here, so the support scan
        of the constructor is skipped; the Gramian builds its controls this
        way on every apply.
        """
        weight = sign * region.indicator
        pair = cls.__new__(cls)
        pair.u = AdaptedField(drift.tree, drift.mesh, [weight * arr for arr in drift.levels])
        pair.v, pair.region = v, region
        return pair


@dataclass
class ForwardSolution:
    states: AdaptedField

    @property
    def terminal(self) -> np.ndarray:
        return self.states.levels[-1]


# Increment signs of a node's two children: child 2n takes -sqrt(dt), 2n+1 takes +sqrt(dt).
_EDGE_SIGNS = np.array([[-1.0], [1.0]])


def forward_step(step: StepOperator, dt: float, y: np.ndarray, u: np.ndarray, v: np.ndarray,
                 a2: np.ndarray, indicator: np.ndarray | float,
                 sign: float | np.ndarray) -> np.ndarray:
    """One implicit step along the edge with increment sign*sqrt(dt).

    ``step`` is the level's factored step matrix.  ``sign`` may be an array
    of edge signs broadcasting against the state, which steps several edges
    at once: the right-hand side then has shape (..., nodes, edges, N) and
    its node and edge axes are merged into rows in node order, while any
    leading axes (samples) are kept.
    """
    rhs = y + dt * indicator * u + (a2 * y + v) * (sign * np.sqrt(dt))
    return step.solve(rhs.reshape(rhs.shape[:-3] + (-1, step.n))).reshape(rhs.shape)


def solve_forward(y0: np.ndarray, controls: ControlPair | None, coeffs: Coefficients,
                  tree: ScenarioTree, mesh: Mesh) -> ForwardSolution:
    """Propagate the state through every tree node; affine in (y0, u, v)."""
    coeffs.check_grid(tree, mesh)
    steps = coeffs.step_operators()
    y0 = np.asarray(y0, dtype=float).reshape(mesh.N)
    indicator = controls.region.indicator if controls is not None else 0.0

    levels = [y0[np.newaxis, :].copy()]
    for k in range(tree.depth):
        u = v = 0.0
        if controls is not None:
            u = controls.u.levels[k][:, np.newaxis]
            v = controls.v.levels[k][:, np.newaxis]
        children = forward_step(steps[k], tree.dt, levels[k][:, np.newaxis], u, v,
                                coeffs.a2_levels[k][:, np.newaxis], indicator, _EDGE_SIGNS)
        levels.append(children.reshape(2 << k, mesh.N))

    return ForwardSolution(states=AdaptedField(tree, mesh, levels))


def energy_growth_rate(sol: ForwardSolution, coeffs: Coefficients) -> float:
    """Measured constant c with E||y(t)||^2 <= e^(c*(1+A)*t) * E||y0||^2.

    Returns 0 when the initial energy is zero or no growth occurs.
    """
    tree, mesh = sol.states.tree, sol.states.mesh
    e0 = tree_inner(tree, mesh, 0, sol.states.levels[0], sol.states.levels[0])
    if e0 == 0.0:
        return 0.0
    a_norm = coeffs.sup_norm
    worst = 0.0
    for k in range(1, tree.depth + 1):
        ek = tree_inner(tree, mesh, k, sol.states.levels[k], sol.states.levels[k])
        t = k * tree.dt
        if ek > e0:
            worst = max(worst, np.log(ek / e0) / ((1.0 + a_norm) * t))
    return float(worst)
