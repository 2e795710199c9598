"""Backward sweep defined as the exact transpose of the forward scheme.

Transposing one forward step with respect to the probability-weighted mesh
inner product gives, for a node with transpose-solved children zhat =
(I - dt*(D2 + a1))^-T z_child:

    zeta = (zhat_plus + zhat_minus) / 2          (conditional mean)
    Z    = (zhat_plus - zhat_minus) / (2 sqrt(dt))  (martingale coefficient)
    z    = zeta + dt * a2 * Z                    (adjoint, rebuilt bit for bit)

The step matrix is symmetric, so that solve is the forward step's own:
both sweeps apply one factored operator.  On a level whose matrix is
shared by its nodes, with inverse M, the solve and the split are fused:
a node's children, in ``noise_tree.EDGE_SIGNS`` order, form one row
[z_minus | z_plus] of length 2N, and
Z = row @ [-M; M]/(2 sqrt(dt)) and zeta = row @ [M; M]/2 are one matmul
each (the operator's ``split``, built with it for the tree's dt), the
transpose of the forward step's edge map.  That order sums 2N
products per entry in the matmul, so equal children give Z = 0 only up
to roundoff, |Z| <= N eps (|M| |z_child|)/sqrt(dt): for children equal
to 2 at dt = 0.1 it is 2.2e-16 at N = 4, 3.6e-16 at N = 8 and 1.2e-15
at N = 63, alone or in a batch.  Taking the difference z_plus - z_minus
first would keep Z exactly 0, but measured 25-30 % slower per
observability fit (N = 8, depth 8, 400 samples).  Levels with one matrix per node, and operators
built without a split, solve first and split with ``martingale_coeff``.

With these definitions the pairing of state and adjoint telescopes
exactly across levels:

    E<y(T), z_T> - E<y0, z(0)> = sum_k dt E<chi*u_k, zeta_k> + sum_k dt E<v_k, Z_k>

for every input, which is the identity the control synthesis rests on.
It reads y and z only at the root and the leaves, all that the sweeps
keep of them (``solve_backward`` keeps zeta and Z as well).
A freestanding discretization of the adjoint equation would satisfy it only
up to O(dt) and the closure tests downstream would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete_calc import StepOperator
from .forward_solver import Coefficients, ControlPair
from .mesh import Mesh
from .noise_tree import ScenarioTree, martingale_coeff, time_pairing, tree_inner


@dataclass
class BackwardSolution:
    """The transposed sweep's leaf datum ``zT`` (the caller's array, not
    copied), root value ``z0`` (..., N) and dual pairings ``zeta`` and
    ``Z`` of the drift and diffusion controls, tree fields over levels
    0..depth-1.  The adjoint at a level k < depth is not stored: it is
    ``zeta[k] + dt * a2[k] * Z[k]``, bit for bit what ``backward_step``
    returned.  A batched sweep keeps its leading sample axes on every level.
    """

    zT: np.ndarray
    z0: np.ndarray
    zeta: list[np.ndarray]
    Z: list[np.ndarray]


def backward_step(step: StepOperator, dt: float, z_children: np.ndarray,
                  a2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transpose one forward step: children (..., 2B, N) -> (z, Z, zeta) at the parents.

    ``step`` is the level's factored step matrix, its own transpose, built
    for this ``dt``; leading axes of ``z_children`` (samples) are kept.
    Returns the adjoint z, the martingale coefficient Z and the conditional
    mean zeta, three new arrays (``z_children`` is not written to).  An
    operator with a ``split`` (a shared drift-implicit
    matrix) splits the children with one matmul pair on rows
    [child 2n | child 2n+1], the transpose of the edge map of
    ``forward_step``; any other operator solves, then splits.
    BLAS takes a single row through its vector path, whose roundoff
    differs from the same row inside a batch, so a lone pair row (level 0
    of an unbatched sweep or of a batch of one) is multiplied as a
    stride-0 batch of two.  A sample's adjoint then has the same bits
    with and without a sample axis, and in any batch at the widths where
    BLAS rounds a row of a product alike for every row count, which
    depends on N (not at N = 9 to 12; see README, Determinism).
    ``forward_step`` is not fused: its (2N x 2N) map
    doubles the matmul flops, and at N = 63, depth 10 it has measured both
    slower (3.3-4.3 against 2.7 ms per sweep) and faster (2.1-2.5 against
    2.7-2.8 ms) on 2 vCPUs, so it stays a solve after the edge map.
    """
    if step.split is not None:
        diff, mean = step.split
        z_children = np.asarray(z_children, dtype=float)
        if z_children.ndim < 2 or z_children.shape[-1] != step.n or z_children.shape[-2] % 2:
            raise ValueError(f"children must be rows (..., 2B, {step.n}), got shape {z_children.shape}")
        parents = z_children.shape[:-2] + (z_children.shape[-2] // 2, step.n)
        pairs = z_children.reshape(-1, 2 * step.n)
        rows = len(pairs)
        if rows == 1:
            pairs = np.broadcast_to(pairs, (2, 2 * step.n))
        coeff, zeta = (pairs @ diff)[:rows].reshape(parents), (pairs @ mean)[:rows].reshape(parents)
    else:
        zeta, coeff = martingale_coeff(step.solve(z_children), dt)
    z = np.multiply(dt * a2, coeff)
    z += zeta
    return z, coeff, zeta


def solve_backward(zT: np.ndarray, coeffs: Coefficients) -> BackwardSolution:
    """Sweep from the leaf data down to the root of ``coeffs.tree``; linear
    in the leaf data.

    ``zT`` has shape (2^depth, N), or (..., 2^depth, N) for a batch of
    samples swept at once; every level keeps the leading axes.
    """
    tree = coeffs.tree
    steps = coeffs.step_operators()
    zT = np.asarray(zT, dtype=float)
    leaves = (tree.num_nodes(tree.depth), coeffs.mesh.N)
    zT = zT.reshape(zT.shape[:-2] + leaves if zT.ndim > 2 else leaves)

    zeta_levels = [None] * tree.depth
    coeff_levels = [None] * tree.depth
    z = zT
    for k in range(tree.depth - 1, -1, -1):
        z, coeff_levels[k], zeta_levels[k] = backward_step(
            steps[k], tree.dt, z, coeffs.a2_levels[k])

    return BackwardSolution(zT=zT, z0=z[..., 0, :], zeta=zeta_levels, Z=coeff_levels)


def duality_residual(y0: np.ndarray, yT: np.ndarray, backward: BackwardSolution,
                     controls: ControlPair | None, tree: ScenarioTree,
                     mesh: Mesh) -> tuple[float, float]:
    """Absolute residual of the telescoped pairing identity of the state's
    root ``y0`` and leaves ``yT`` with ``backward``, plus its scale."""
    lhs_T = tree_inner(tree, mesh, tree.depth, yT, backward.zT)
    lhs_0 = tree_inner(tree, mesh, 0, y0, backward.z0[..., np.newaxis, :])
    rhs_u = rhs_v = 0.0
    if controls is not None:
        rhs_u = time_pairing(tree, mesh, controls.u, backward.zeta,
                             weight=controls.region.indicator)
        rhs_v = time_pairing(tree, mesh, controls.v, backward.Z)
    residual = (lhs_T - lhs_0) - (rhs_u + rhs_v)
    scale = max(abs(lhs_T), abs(lhs_0), abs(rhs_u), abs(rhs_v), 1e-300)
    return float(abs(residual)), float(scale)
