"""Backward sweep defined as the exact transpose of the forward scheme.

Transposing one forward step with respect to the probability-weighted mesh
inner product gives, for a node with transpose-solved children zhat =
(I - dt*(D2 + a1))^-T z_child:

    zeta = (zhat_plus + zhat_minus) / 2          (conditional mean)
    Z    = (zhat_plus - zhat_minus) / (2 sqrt(dt))  (martingale coefficient)
    z    = zeta + dt * a2 * Z

With these definitions the pairing of state and adjoint telescopes exactly
across levels:

    E<y(T), z_T> - E<y0, z(0)> = sum_k dt E<chi*u_k, zeta_k> + sum_k dt E<v_k, Z_k>

for every input, which is the identity the control synthesis rests on.
A freestanding discretization of the adjoint equation would satisfy it only
up to O(dt) and the closure tests downstream would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete_calc import StepOperator
from .forward_solver import Coefficients, ControlPair, ForwardSolution
from .mesh import Mesh
from .noise_tree import (AdaptedField, ScenarioTree, martingale_coeff, time_pairing,
                         tree_inner)


@dataclass
class BackwardSolution:
    """Adjoint pair plus the dual pairings produced by the transposed sweep.

    ``z`` spans levels 0..depth (first component, terminal datum at the
    leaves); ``zeta`` and ``Z`` span levels 0..depth-1 and are the exact
    dual pairings of the drift and diffusion controls.  A batched sweep
    keeps its leading sample axes on every level.
    """

    z: AdaptedField
    zeta: AdaptedField
    Z: AdaptedField

    @property
    def z0(self) -> np.ndarray:
        return self.z.levels[0][..., 0, :]

    @property
    def zT(self) -> np.ndarray:
        return self.z.levels[-1]


def backward_step(step: StepOperator, dt: float, z_children: np.ndarray,
                  a2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transpose one forward step: children (..., 2B, N) -> (z, Z, zeta) at the parents.

    ``step`` is the level's factored step matrix; leading axes of
    ``z_children`` (samples) are kept.  Returns the adjoint z, the
    martingale coefficient Z and the conditional mean zeta.
    """
    zhat = step.solve(z_children, transpose=True)
    zhat = zhat.reshape(zhat.shape[:-2] + (-1, 2, step.n))
    zeta, coeff = martingale_coeff(zhat[..., 1, :], zhat[..., 0, :], dt)
    return zeta + dt * a2 * coeff, coeff, zeta


def solve_backward(zT: np.ndarray, coeffs: Coefficients, tree: ScenarioTree,
                   mesh: Mesh) -> BackwardSolution:
    """Sweep from the leaf data down to the root; linear in the leaf data.

    ``zT`` has shape (2^depth, N), or (..., 2^depth, N) for a batch of
    samples swept at once; every level keeps the leading axes.
    """
    coeffs.check_grid(tree, mesh)
    steps = coeffs.step_operators()
    zT = np.asarray(zT, dtype=float)
    leaves = (tree.num_nodes(tree.depth), mesh.N)
    zT = zT.reshape(zT.shape[:-2] + leaves if zT.ndim > 2 else leaves)

    z_levels = [None] * (tree.depth + 1)
    zeta_levels = [None] * tree.depth
    coeff_levels = [None] * tree.depth
    z_levels[tree.depth] = zT.copy()

    for k in range(tree.depth - 1, -1, -1):
        z_levels[k], coeff_levels[k], zeta_levels[k] = backward_step(
            steps[k], tree.dt, z_levels[k + 1], coeffs.a2_levels[k])

    return BackwardSolution(
        z=AdaptedField(tree, mesh, z_levels),
        zeta=AdaptedField(tree, mesh, zeta_levels),
        Z=AdaptedField(tree, mesh, coeff_levels),
    )


def duality_residual(forward: ForwardSolution, backward: BackwardSolution,
                     controls: ControlPair | None, tree: ScenarioTree,
                     mesh: Mesh) -> tuple[float, float]:
    """Absolute residual of the telescoped pairing identity, plus its scale."""
    lhs_T = tree_inner(tree, mesh, tree.depth, forward.terminal, backward.zT)
    lhs_0 = tree_inner(tree, mesh, 0, forward.states.levels[0], backward.z.levels[0])
    rhs_u = rhs_v = 0.0
    if controls is not None:
        rhs_u = time_pairing(tree, mesh, controls.u, backward.zeta,
                             weight=controls.region.indicator)
        rhs_v = time_pairing(tree, mesh, controls.v, backward.Z)
    residual = (lhs_T - lhs_0) - (rhs_u + rhs_v)
    scale = max(abs(lhs_T), abs(lhs_0), abs(rhs_u), abs(rhs_v), 1e-300)
    return float(abs(residual)), float(scale)
