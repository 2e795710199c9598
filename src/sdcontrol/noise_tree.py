"""Binary scenario tree: an exact finite model of the driving noise.

Level k holds 2^k nodes, each with probability 2^-k.  Node n at level k+1
descends from node n//2; odd child indices take the increment +sqrt(dt),
even indices -sqrt(dt).  With these two-point increments conditional
expectations are plain child averages and the martingale representation
is an exact two-equations-two-unknowns solve, so duality and control
closure can be tested to machine precision instead of Monte-Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .mesh import Mesh

DEFAULT_DEPTH_CAP = 16


@dataclass(frozen=True)
class ScenarioTree:
    """Binary increment tree with ``depth`` steps on [0, T]."""

    depth: int
    T: float

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.T <= 0:
            raise ValueError(f"final time must be positive, got {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.depth

    @property
    def increment(self) -> float:
        return float(np.sqrt(self.dt))

    def num_nodes(self, level: int) -> int:
        self._check_level(level)
        return 1 << level

    def node_probability(self, level: int) -> float:
        self._check_level(level)
        return 2.0 ** (-level)

    def edge_signs(self, level: int) -> np.ndarray:
        """Signs of the increments leading into the level's nodes (+1 odd, -1 even)."""
        if not 1 <= level <= self.depth:
            raise ValueError(f"level must be in 1..{self.depth}, got {level}")
        idx = np.arange(1 << level)
        return np.where(idx % 2 == 1, 1.0, -1.0)

    def _check_level(self, level: int):
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in 0..{self.depth}, got {level}")


def build_tree(depth: int, T: float, depth_cap: int = DEFAULT_DEPTH_CAP) -> ScenarioTree:
    """Tree with ``depth`` steps; refuses depths whose 2^depth leaves exceed the cap."""
    if depth > depth_cap:
        raise ResourceLimitError(
            f"tree depth {depth} exceeds cap {depth_cap} "
            f"({2**depth} leaves; raise the cap explicitly if intended)"
        )
    return ScenarioTree(depth=depth, T=T)


def expectation(tree: ScenarioTree, level: int, values) -> float:
    """Equal-weight average over the level's nodes (the first axis of ``values``)."""
    count = tree.num_nodes(level)
    values = np.asarray(values, dtype=float)
    if values.shape[0] != count:
        raise ValueError(f"level {level} has {count} nodes, got {values.shape[0]} values")
    return float(values.mean(axis=0)) if values.ndim == 1 else values.mean(axis=0)


def martingale_coeff(z_plus, z_minus, dt: float):
    """Conditional mean and martingale coefficient from the two child values.

    Solves z_child = mean + coeff * (+-sqrt(dt)) exactly for both children.
    """
    z_plus = np.asarray(z_plus, dtype=float)
    z_minus = np.asarray(z_minus, dtype=float)
    mean = 0.5 * (z_plus + z_minus)
    coeff = (z_plus - z_minus) / (2.0 * np.sqrt(dt))
    return mean, coeff


@dataclass
class AdaptedField:
    """Tree-indexed grid values: one interior vector per node, per level.

    ``levels[k]`` has shape (2^k, N), or (..., 2^k, N) for a batch of
    samples held along leading axes.  Adaptedness is structural: the entry
    for node n at level k is a single value, so it cannot depend on signs
    drawn after level k.
    """

    tree: ScenarioTree
    mesh: Mesh
    levels: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        for k, arr in enumerate(self.levels):
            expected = (1 << k, self.mesh.N)
            if arr.shape[-2:] != expected:
                raise ValueError(f"level {k} values must have shape {expected}, got {arr.shape}")

    @classmethod
    def zeros(cls, tree: ScenarioTree, mesh: Mesh, num_levels: int | None = None) -> "AdaptedField":
        if num_levels is None:
            num_levels = tree.depth + 1
        return cls(tree, mesh, [np.zeros((1 << k, mesh.N)) for k in range(num_levels)])

    @classmethod
    def random(cls, tree: ScenarioTree, mesh: Mesh, rng: np.random.Generator,
               num_levels: int | None = None, modes: int = 0, scale: float = 1.0) -> "AdaptedField":
        """Seeded nodewise samples, adapted by construction.

        ``modes=0`` draws independent values per point; ``modes=J`` draws
        per-node coefficients of the first J Dirichlet sine modes, which
        gives families comparable across mesh refinements.
        """
        if num_levels is None:
            num_levels = tree.depth + 1
        return cls(tree, mesh, random_levels(mesh, rng, (), num_levels, modes, scale))

    def copy(self) -> "AdaptedField":
        return AdaptedField(self.tree, self.mesh, [arr.copy() for arr in self.levels])


def random_levels(mesh: Mesh, rng: np.random.Generator, shape: tuple[int, ...],
                  num_levels: int, modes: int = 0, scale: float = 1.0) -> list[np.ndarray]:
    """Seeded nodewise values of levels 0..num_levels-1, each of shape
    ``shape`` + (2^k, N), drawn in one call.

    The draw runs over ``shape``, then level, node and point (or mode), so a
    batch consumes the generator exactly like its samples drawn one at a
    time.  ``modes=0`` draws independent values per point; ``modes=J``
    draws per-node coefficients of the first J Dirichlet sine modes.
    """
    width = modes if modes > 0 else mesh.N
    values = scale * rng.standard_normal(tuple(shape) + ((1 << num_levels) - 1, width))
    if modes > 0:
        basis = np.sin(np.outer(np.arange(1, modes + 1) * np.pi, mesh.interior))
        values = (values.reshape(-1, modes) @ basis).reshape(values.shape[:-1] + (mesh.N,))
    return [values[..., (1 << k) - 1:(2 << k) - 1, :] for k in range(num_levels)]


def _node_sum(prod: np.ndarray):
    """Sum over the node and space axes (the last two); keeps leading axes."""
    return prod.sum() if prod.ndim <= 2 else prod.sum(axis=(-2, -1))


def _scalar_or_array(total):
    """A float for an unbatched result, an array over the sample axes otherwise."""
    return float(total) if np.ndim(total) == 0 else total


def tree_inner(tree: ScenarioTree, mesh: Mesh, level: int, a: np.ndarray, b: np.ndarray,
               weight=1.0):
    """Probability-weighted mesh inner product E[h * sum(weight*a*b)] of two
    level-k node arrays; ``weight`` is a scalar or a pointwise array.

    ``a`` and ``b`` have shape (2^k, N) (a level-0 vector may be (N,)); with
    leading sample axes, (..., 2^k, N), the result is an array over them.
    """
    count = tree.num_nodes(level)
    prod = weight * np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    shaped = prod.shape[-2:] == (count, mesh.N) if prod.ndim >= 2 else prod.size == count * mesh.N
    if not shaped:
        raise ValueError(f"level {level} values must have shape ({count}, {mesh.N}), "
                         f"got {prod.shape}")
    return _scalar_or_array(mesh.h * _node_sum(prod) / count)


def time_pairing(tree: ScenarioTree, mesh: Mesh, a, b, weight=None):
    """Left-endpoint tree-time quadrature sum_k dt * E[h * sum(weight_k*a_k*b_k)]
    over levels 0..depth-1.

    ``a`` and ``b`` are adapted fields or lists of level arrays (2^k, M),
    where M need not be N (staggered values work too); leading sample axes,
    (..., 2^k, M), give an array over them instead of a float.  ``weight``
    is None, one pointwise array used at every level, or a (depth, M) array
    with one row per level.
    """
    a_levels = a.levels if isinstance(a, AdaptedField) else a
    b_levels = b.levels if isinstance(b, AdaptedField) else b
    per_level = weight is not None and np.ndim(weight) == 2
    total = 0.0
    for k in range(min(len(a_levels), len(b_levels), tree.depth)):
        prod = a_levels[k] * b_levels[k]
        if weight is not None:
            prod = (weight[k] if per_level else weight) * prod
        total += _node_sum(prod) / (1 << k)
    return _scalar_or_array(tree.dt * mesh.h * total)
