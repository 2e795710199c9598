"""Penalized control synthesis via the terminal-data normal equations.

The operator Lambda maps leaf data to a terminal state: backward sweep,
then a forward sweep from zero initial state driven by the induced
controls.  Duality makes Lambda symmetric positive semidefinite in the
probability-weighted terminal inner product, so plain conjugate gradient
on (Lambda + eps*I) z = y_free(T) finds the minimizer of the quadratic
cost functional, and the synthesized controls steer the state to exactly
eps times the minimizer (up to the linear-solve residual).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backward_solver import BackwardSolution, solve_backward
from .errors import ConfigurationError, ConvergenceError
from .forward_solver import Coefficients, ControlPair, OmegaRegion, solve_forward
from .mesh import Mesh
from .noise_tree import AdaptedField, ScenarioTree, time_pairing, tree_inner


def epsilon_from_mesh(c_eps: float, h: float) -> float:
    """Penalty level exp(-c_eps/h) tied to the mesh size."""
    if c_eps <= 0 or h <= 0:
        raise ConfigurationError("c_eps and h must be positive")
    return float(np.exp(-c_eps / h))


@dataclass
class HumProblem:
    y0: np.ndarray
    coeffs: Coefficients
    region: OmegaRegion
    tree: ScenarioTree
    mesh: Mesh
    epsilon: float
    cg_tol: float = 1e-10
    cg_maxiter: int = 500

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigurationError(f"penalty must be positive, got {self.epsilon}")
        self.y0 = np.asarray(self.y0, dtype=float).reshape(self.mesh.N)
        self.coeffs.validate_dominance()


@dataclass
class HumSolution:
    zT_star: np.ndarray
    backward: BackwardSolution
    controls: ControlPair
    terminal: np.ndarray
    free_terminal: np.ndarray
    functional_value: float
    cg_residuals: list[float] = field(default_factory=list)
    closure_error: float = 0.0
    closure_bound: float = 0.0

    @property
    def cg_iterations(self) -> int:
        return len(self.cg_residuals)


def _controls_from_backward(bwd: BackwardSolution, region: OmegaRegion,
                            sign: float) -> ControlPair:
    v = AdaptedField(bwd.Z.tree, bwd.Z.mesh, [sign * arr for arr in bwd.Z.levels])
    return ControlPair.windowed(bwd.zeta, v, region, sign)


def gramian_apply(zT: np.ndarray, problem: HumProblem) -> np.ndarray:
    """Terminal state reached from rest under the controls induced by zT."""
    bwd = solve_backward(zT, problem.coeffs, problem.tree, problem.mesh)
    controls = _controls_from_backward(bwd, problem.region, +1.0)
    fwd = solve_forward(np.zeros(problem.mesh.N), controls, problem.coeffs,
                        problem.tree, problem.mesh)
    return fwd.terminal


def leaf_norm(problem: HumProblem, a: np.ndarray) -> float:
    return float(np.sqrt(tree_inner(problem.tree, problem.mesh, problem.tree.depth, a, a)))


def conjugate_gradient(apply_op, b: np.ndarray, tol: float, maxiter: int):
    """Plain CG on a symmetric positive definite operator.

    Works in the Euclidean inner product, which equals the weighted one up
    to a constant factor and therefore produces identical iterates.
    Returns (solution, relative-residual history).  Raises ConvergenceError
    with the history when the operator shows a nonpositive curvature
    p.Ap <= 0, or a step or residual is not finite, instead of continuing
    with a meaningless step.  Raises ValueError when maxiter < 1.
    """
    if maxiter < 1:
        raise ValueError(f"conjugate gradient needs maxiter >= 1, got {maxiter}")
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, []
    p = r.copy()
    rs = float(r.ravel() @ r.ravel())
    residuals = []
    for _ in range(maxiter):
        ap = apply_op(p)
        curvature = float(p.ravel() @ ap.ravel())
        alpha = rs / curvature if curvature > 0 else np.nan
        if not np.isfinite(alpha):
            raise ConvergenceError(
                f"conjugate gradient broke down at iteration {len(residuals) + 1}: "
                f"p.Ap = {curvature:.3e} (operator not positive definite or not finite)",
                residuals,
            )
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r.ravel() @ r.ravel())
        rel = float(np.sqrt(rs_new) / b_norm)
        residuals.append(rel)
        if not np.isfinite(rel):
            raise ConvergenceError(
                f"conjugate gradient produced a non-finite residual at iteration "
                f"{len(residuals)}", residuals)
        if rel <= tol:
            return x, residuals
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise ConvergenceError(
        f"conjugate gradient stalled at relative residual {residuals[-1]:.3e} "
        f"after {maxiter} iterations (tol {tol:.3e})",
        residuals,
    )


def free_terminal_state(problem: HumProblem) -> np.ndarray:
    fwd = solve_forward(problem.y0, None, problem.coeffs, problem.tree, problem.mesh)
    return fwd.terminal


def evaluate_functional(problem: HumProblem, zT: np.ndarray) -> float:
    """Quadratic cost of a candidate terminal datum."""
    tree, mesh = problem.tree, problem.mesh
    bwd = solve_backward(zT, problem.coeffs, tree, mesh)
    quad = (time_pairing(tree, mesh, bwd.Z, bwd.Z)
            + time_pairing(tree, mesh, bwd.zeta, bwd.zeta, problem.region.indicator))
    penalty = problem.epsilon * tree_inner(tree, mesh, tree.depth, zT, zT)
    linear = tree_inner(tree, mesh, 0, problem.y0, bwd.z0)
    return float(0.5 * quad + 0.5 * penalty - linear)


def functional_gradient(problem: HumProblem, zT: np.ndarray,
                        b: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the cost in the weighted leaf inner product."""
    if b is None:
        b = free_terminal_state(problem)
    return gramian_apply(zT, problem) + problem.epsilon * zT - b


def solve_hum(problem: HumProblem) -> HumSolution:
    """Minimize the penalized cost and synthesize the control pair."""
    b = free_terminal_state(problem)

    def apply_op(z):
        return gramian_apply(z, problem) + problem.epsilon * z

    zT_star, residuals = conjugate_gradient(apply_op, b, problem.cg_tol, problem.cg_maxiter)

    bwd = solve_backward(zT_star, problem.coeffs, problem.tree, problem.mesh)
    controls = _controls_from_backward(bwd, problem.region, -1.0)
    fwd = solve_forward(problem.y0, controls, problem.coeffs, problem.tree, problem.mesh)
    terminal = fwd.terminal

    closure = leaf_norm(problem, terminal - problem.epsilon * zT_star)
    rel = residuals[-1] if residuals else 0.0
    bound = 10.0 * rel * max(leaf_norm(problem, b), 1e-300)

    return HumSolution(
        zT_star=zT_star,
        backward=bwd,
        controls=controls,
        terminal=terminal,
        free_terminal=b,
        functional_value=evaluate_functional(problem, zT_star),
        cg_residuals=residuals,
        closure_error=closure,
        closure_bound=bound,
    )


@dataclass(frozen=True)
class CostReport:
    control_cost: float
    initial_energy: float
    cost_ratio: float
    terminal_energy: float
    terminal_ratio: float
    terminal_to_penalty_ratio: float


def report_bounds(sol: HumSolution, problem: HumProblem) -> CostReport:
    """Control cost and terminal decay relative to the initial energy.

    Ratios are reported as 0 when the initial state vanishes.
    """
    tree, mesh = problem.tree, problem.mesh
    controls = sol.controls
    cost = (time_pairing(tree, mesh, controls.v, controls.v)
            + time_pairing(tree, mesh, controls.u, controls.u, problem.region.indicator))
    e0 = tree_inner(tree, mesh, 0, problem.y0, problem.y0)
    eT = tree_inner(tree, mesh, tree.depth, sol.terminal, sol.terminal)
    if e0 == 0.0:
        return CostReport(cost, 0.0, 0.0, eT, 0.0, 0.0)
    return CostReport(
        control_cost=cost,
        initial_energy=e0,
        cost_ratio=cost / e0,
        terminal_energy=eT,
        terminal_ratio=eT / e0,
        terminal_to_penalty_ratio=eT / (problem.epsilon * e0),
    )
