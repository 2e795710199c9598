"""Binary scenario tree: an exact finite model of the driving noise.

Level k holds 2^k nodes, each with probability 2^-k.  Node n at level k+1
descends from node n//2, and ``EDGE_SIGNS`` gives the signs of the
increments +-sqrt(dt) into a node's two children.  With these two-point
increments conditional expectations are plain child averages and the
martingale representation is an exact two-equations-two-unknowns solve,
so duality and control closure can be tested to machine precision
instead of Monte-Carlo noise.

A tree field is a plain list of level arrays: entry k has shape (2^k, N),
one grid vector per node, or (..., 2^k, N) for a batch of samples held
along leading axes.  Adaptedness is structural: the entry for node n at
level k is a single value, so it cannot depend on signs drawn after
level k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .mesh import Mesh

DEPTH_CAP = 16

# Increment signs of a node's two children, as a column: child 2n takes
# -sqrt(dt) and child 2n+1 takes +sqrt(dt).  The forward step, the shared
# backward ``split`` and ``ScenarioTree.edge_signs`` read the signs here;
# ``martingale_coeff`` (row 0 of a pair is c_-) and ``hum.riccati_levels``
# (Bq[:N] maps c_-) hard-code the order.
EDGE_SIGNS = np.array([[-1.0], [1.0]])
EDGE_SIGNS.flags.writeable = False


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
        """Signs of the increments leading into the level's nodes, ``EDGE_SIGNS``
        repeated once per parent."""
        if not 1 <= level <= self.depth:
            raise ValueError(f"level must be in 1..{self.depth}, got {level}")
        return np.tile(EDGE_SIGNS[:, 0], 1 << (level - 1))

    def _check_level(self, level: int):
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in 0..{self.depth}, got {level}")


def build_tree(depth: int, T: float) -> ScenarioTree:
    """Tree with ``depth`` steps; refuses depths above DEPTH_CAP (2^16 leaves)."""
    if depth > DEPTH_CAP:
        raise ResourceLimitError(f"tree depth {depth} exceeds cap {DEPTH_CAP} ({2**depth} leaves)")
    return ScenarioTree(depth=depth, T=T)


def martingale_coeff(children, dt: float):
    """Conditional mean and martingale coefficient of child rows (..., 2B, N),
    each of shape (..., B, N).

    Rows 2n and 2n+1 are node n's children, signed as ``EDGE_SIGNS``;
    solves z_child = mean + coeff * (+-sqrt(dt)) exactly for both, each
    in one new array, scaled in place.
    """
    children = np.asarray(children, dtype=float)
    if children.ndim < 2 or children.shape[-2] % 2:
        raise ValueError(f"children must be rows (..., 2B, N), got shape {children.shape}")
    pairs = children.reshape(children.shape[:-2] + (-1, 2, children.shape[-1]))
    z_minus, z_plus = pairs[..., 0, :], pairs[..., 1, :]
    mean = z_plus + z_minus
    mean *= 0.5
    coeff = z_plus - z_minus
    coeff /= 2.0 * np.sqrt(dt)
    return mean, coeff


def random_levels(mesh: Mesh, rng: np.random.Generator, shape: tuple[int, ...],
                  num_levels: int, modes: int = 0) -> list[np.ndarray]:
    """Seeded nodewise values of levels 0..num_levels-1, each of shape
    ``shape`` + (2^k, N), drawn in one call.

    The draw runs over ``shape``, then level, node and point (or mode), so a
    batch consumes the generator exactly like its samples drawn one at a
    time.  ``modes=0`` draws independent values per point; ``modes=J``
    draws per-node coefficients of the first J Dirichlet sine modes.
    """
    width = modes if modes > 0 else mesh.N
    values = rng.standard_normal(tuple(shape) + ((1 << num_levels) - 1, width))
    if modes > 0:
        basis = np.sin(np.outer(np.arange(1, modes + 1) * np.pi, mesh.interior))
        values = (values.reshape(-1, modes) @ basis).reshape(values.shape[:-1] + (mesh.N,))
    return [values[..., (1 << k) - 1:(2 << k) - 1, :] for k in range(num_levels)]


def _level_sum(a: np.ndarray, b: np.ndarray, weight=None):
    """Sum of weight*a*b over the last two axes (node, point), keeping
    leading sample axes, with no product temporary: a scalar or pointwise
    (M,) weight is a third einsum operand.

    Unweighted einsum adds each sample of a batch in one pass but a lone
    sample in blocks of 8192 values; a lone sample is therefore reduced as
    a batch of two stride-0 copies, so its sum is the same in any batch.
    """
    if weight is not None:
        return np.einsum("...ij,...ij,j->...", a, b, np.atleast_1d(weight))
    if a.size == a.shape[-2] * a.shape[-1] and b.size == b.shape[-2] * b.shape[-1]:
        lone = (1,) * (max(a.ndim, b.ndim) - 2)
        a, b = (np.broadcast_to(x, (2,) + x.shape[-2:]) for x in (a, b))
        return np.einsum("...ij,...ij->...", a, b)[0].reshape(lone)
    return np.einsum("...ij,...ij->...", a, b)


def _scalar_or_array(total):
    """A float for an unbatched result, an array over the sample axes otherwise."""
    return float(total) if np.ndim(total) == 0 else total


def tree_inner(tree: ScenarioTree, mesh: Mesh, level: int, a: np.ndarray, b: np.ndarray,
               weight=None):
    """Probability-weighted mesh inner product E[h * sum(weight*a*b)] of two
    level-k node arrays; ``weight`` is None, a scalar or a pointwise array.

    ``a`` and ``b`` have shape (2^k, N) (a level-0 vector may be (N,)); with
    leading sample axes, (..., 2^k, N), the result is an array over them.
    """
    count = tree.num_nodes(level)
    a, b = np.atleast_2d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    for x in (a, b):
        if x.shape[-2:] != (count, mesh.N):
            raise ValueError(f"level {level} values must have shape ({count}, {mesh.N}), "
                             f"got {x.shape}")
    return _scalar_or_array((mesh.h / count) * _level_sum(a, b, weight))


def time_pairing(tree: ScenarioTree, mesh: Mesh, a, b, weight=None):
    """Left-endpoint tree-time quadrature sum_k dt * E[h * sum(weight*a_k*b_k)]
    over levels 0..depth-1.

    ``a`` and ``b`` are tree fields, lists of level arrays (2^k, M), where
    M need not be N (staggered values work too); leading sample axes,
    (..., 2^k, M), give an array over them instead of a float.  ``weight``
    is None, a scalar or a pointwise (M,) array used at every level.  Each
    operand needs at least ``depth`` levels; a leaf level beyond them is
    not summed.
    """
    if min(len(a), len(b)) < tree.depth:
        raise ValueError(f"time_pairing needs {tree.depth} levels of each operand, "
                         f"got {len(a)} and {len(b)}")
    total = 0.0
    for k in range(tree.depth):
        total += (tree.dt * mesh.h / (1 << k)) * _level_sum(a[k], b[k], weight)
    return _scalar_or_array(total)
