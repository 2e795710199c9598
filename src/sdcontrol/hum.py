"""Penalized control synthesis via the terminal-data normal equations.

The operator Lambda maps leaf data to a terminal state: backward sweep,
then a forward sweep from zero initial state driven by the induced
controls.  Duality makes Lambda symmetric positive semidefinite in the
probability-weighted terminal inner product, so conjugate gradient on
(Lambda + eps*I) z = y_free(T) finds the minimizer of the quadratic cost
functional, and the synthesized controls steer the state to exactly eps
times the minimizer (up to the linear-solve residual).

Plain CG needs about sqrt(lambda_max/eps) iterations, which grows like
exp(c_eps/(2h)) when eps is tied to the mesh.  ``solve_hum`` therefore
preconditions CG with ``riccati_preconditioner``: (Lambda + eps*I) w = r
is the optimality system of tracking r at the leaves with the least
control energy, whose dynamic programme on the tree is a Riccati
recursion of N x N matrices per level (the tree form of the stochastic
LQ Riccati equation with control-dependent noise; Ait Rami & Zhou, IEEE
TAC 45, 2000): ``riccati_levels``, whose P_0 also gives the optimum J* =
-(h/2) y0^T P_0 y0 (the mean path's on adapted coefficients; no solve
reads P_0, which a huge level-0 a2 can overflow).  It inverts (Lambda +
eps*I) exactly when the coefficients are shared by the nodes of each
level and inverts the mean-path problem on adapted levels.  Its error
grows like u/eps^2 in float64 (u = 1.1e-16): max|W (Lambda + eps*I) - I|
for the computed map W is about 5e-15 at eps = 1e-2, 3e-10 at 1e-6 and
2e-2 at 1e-10 (N = 7, depth 8).  Below about eps = 1e-10 it is no longer
a near-inverse: the default sweep's h = 1/28 row (eps = 6.9e-13) takes
tens of PCG iterations, a count set by roundoff, and at h = 1/32 (eps =
1.3e-14) it is no longer positive definite, which the breakdown guard of
``conjugate_gradient`` reports as a ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backward_solver import BackwardSolution, backward_step, solve_backward
from .errors import ConfigurationError, ConvergenceError
from .forward_solver import Coefficients, ControlPair, OmegaRegion, forward_step, solve_forward
from .mesh import Mesh
from .noise_tree import ScenarioTree, time_pairing, tree_inner


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
    controls: ControlPair
    terminal: np.ndarray
    free_terminal: np.ndarray
    functional_value: float
    cg_residuals: list[float] = field(default_factory=list)
    closure_error: float = 0.0
    closure_bound: float = 0.0
    true_rel_residual: float = 0.0

    @property
    def cg_iterations(self) -> int:
        return len(self.cg_residuals)


def gramian_apply(zT: np.ndarray, problem: HumProblem) -> np.ndarray:
    """Terminal state reached from rest under the controls induced by zT."""
    bwd = solve_backward(zT, problem.coeffs, problem.tree, problem.mesh)
    controls = ControlPair(bwd.zeta, bwd.Z, problem.region)
    return solve_forward(np.zeros(problem.mesh.N), controls, problem.coeffs,
                         problem.tree, problem.mesh)[-1]


def leaf_norm(problem: HumProblem, a: np.ndarray) -> float:
    return float(np.sqrt(tree_inner(problem.tree, problem.mesh, problem.tree.depth, a, a)))


def conjugate_gradient(apply_op, b: np.ndarray, tol: float, maxiter: int, precondition=None):
    """Conjugate gradient on a symmetric positive definite operator,
    preconditioned by the SPD map ``precondition`` when given.

    Works in the Euclidean inner product, which equals the weighted one up
    to a constant factor and therefore produces identical iterates.  Stops
    when the unpreconditioned relative residual ||r|| / ||b|| reaches
    ``tol``; with a preconditioner that is checked on the true residual
    b - Ax once the recursive one gets there (one more operator apply).
    Returns (solution, relative-residual history).  Raises
    ConvergenceError with the history when the operator shows a
    nonpositive curvature p.Ap <= 0, the preconditioner a nonpositive
    r.Mr <= 0, or a step or residual is not finite, instead of continuing
    with a meaningless step.  Raises ValueError when maxiter < 1.
    """
    if maxiter < 1:
        raise ValueError(f"conjugate gradient needs maxiter >= 1, got {maxiter}")
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    b_max = float(np.abs(b).max(initial=0.0))
    if b_max == 0.0:
        return x, []
    # Iterate on b / 2^e with max|b| ~ 2^e: power-of-two scaling is exact, so
    # the iterates are those of b, and r.Mr ~ |r|^2/eps cannot overflow.
    e = int(np.frexp(b_max)[1])
    b_scaled = np.ldexp(b, -e)
    r = b_scaled.copy()
    b_norm = float(np.linalg.norm(r))
    residuals = []

    def preconditioned(r, rr):
        if precondition is None:
            return r, rr
        z = np.asarray(precondition(r), dtype=float)
        rz = float(r.ravel() @ z.ravel())
        if not (rz > 0 and np.isfinite(rz)):
            raise ConvergenceError(
                f"preconditioned conjugate gradient broke down at iteration "
                f"{len(residuals) + 1}: r.Mr = {rz:.3e} (preconditioner not positive "
                f"definite or not finite)", residuals)
        return z, rz

    z, rz = preconditioned(r, float(r.ravel() @ r.ravel()))
    p = z.copy()
    for _ in range(maxiter):
        ap = apply_op(p)
        curvature = float(p.ravel() @ ap.ravel())
        alpha = rz / curvature if curvature > 0 else np.nan
        if not np.isfinite(alpha):
            raise ConvergenceError(
                f"conjugate gradient broke down at iteration {len(residuals) + 1}: "
                f"p.Ap = {curvature:.3e} (operator not positive definite or not finite)",
                residuals,
            )
        x += alpha * p
        r -= alpha * ap
        rr = float(r.ravel() @ r.ravel())
        rel = float(np.sqrt(rr) / b_norm)
        if rel <= tol and precondition is not None:
            # A near-exact preconditioner can cut the recursive residual far
            # below the roundoff floor of the true one in a single step, so
            # convergence is confirmed on the true residual b - Ax, which
            # replaces the recursive one (van der Vorst & Ye, SISC 22, 2000).
            r = b_scaled - apply_op(x)
            rr = float(r.ravel() @ r.ravel())
            rel = float(np.sqrt(rr) / b_norm)
        residuals.append(rel)
        if not np.isfinite(rel):
            raise ConvergenceError(
                f"conjugate gradient produced a non-finite residual at iteration "
                f"{len(residuals)}", residuals)
        if rel <= tol:
            return np.ldexp(x, e), residuals
        z, rz_new = preconditioned(r, rr)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"conjugate gradient stalled at relative residual {residuals[-1]:.3e} "
        f"after {maxiter} iterations (tol {tol:.3e})",
        residuals,
    )


def riccati_levels(coeffs: Coefficients, region: OmegaRegion, epsilon: float):
    """Riccati recursion of (Lambda + eps*I) as the LQ problem min 1/2 sum_k
    dt E(|chi*u_k|^2 + |v_k|^2) + 1/(2 eps) E|y_D - r|^2 (the mesh weight h
    is common to every term and dropped), backward from P_D = I/eps with the
    symmetric M = (I - dt*(D2 + a1))^-1 and E = diag(indicator):

        Q = M P M,  K_u = E (I + dt E Q E)^-1 E,  K_v = (I + Q)^-1,
        P <- Q - dt Q K_u Q + dt a2 Q K_v a2.

    Returns ``(levels, P_0)`` with ``levels[k] = (step, Q, K_u, K_v, a2)``;
    the optimal cost from y_0 at r = 0 is J* = -(h/2) y_0^T P_0 y_0.  Runs
    on ``coeffs`` and their cached step operators when every level is
    shared by its nodes, else on one ``Coefficients`` of the node means
    (P_0 is then the mean path's).  A level-0 a2 that overflows P_0 leaves
    it non-finite and the levels intact.  Costs O(depth N^3).
    """
    tree, mesh = coeffs.tree, coeffs.mesh
    if any(a.shape[0] > 1 for a in coeffs.a1_levels + coeffs.a2_levels):
        coeffs = Coefficients(tree, mesh, [a.mean(axis=0, keepdims=True) for a in coeffs.a1_levels],
                              [a.mean(axis=0, keepdims=True) for a in coeffs.a2_levels])
    dt, eye, steps = tree.dt, np.eye(mesh.N), coeffs.step_operators()
    window = np.outer(region.indicator, region.indicator)
    levels, P = [None] * tree.depth, eye / epsilon
    for k in range(tree.depth - 1, -1, -1):
        step, a2 = steps[k], coeffs.a2_levels[k]
        M = step.solve(eye)
        Q = M @ P @ M
        K_u = window * np.linalg.inv(eye + dt * window * Q)
        K_v = np.linalg.inv(eye + Q)
        levels[k] = (step, Q, K_u, K_v, a2)
        P = Q - dt * (Q @ K_u @ Q) + dt * a2.T * (Q @ K_v) * a2
        P = 0.5 * (P + P.T)
    return levels, P


def riccati_preconditioner(problem: HumProblem):
    """Map r -> w solving (Lambda + eps*I) w = r, exactly when every level's
    coefficients are shared by its nodes: w = (r - y_D)/eps for the state y
    of the tracking problem of ``riccati_levels`` from y_0 = 0.

    Each application steps the linear term back from q_D = r/eps with
    ``backward_step`` (zeta and Z of the children's q), q = zeta - dt Q K_u
    zeta + dt a2 K_v Z, then ``forward_step`` from y = 0 with the optimal
    controls u = K_u (zeta - Q y) and v = K_v (Z - Q a2 y).  On adapted
    levels it inverts the mean-path problem, an SPD approximation of
    (Lambda + eps*I)^-1.  Costs about one sweep per direction to apply.
    """
    tree, n, eps, dt = problem.tree, problem.mesh.N, problem.epsilon, problem.tree.dt
    levels, _ = riccati_levels(problem.coeffs, problem.region, eps)

    # Row form: node vectors and a2 are rows, and Q, K_u, K_v are symmetric.
    def apply(r):
        r = np.asarray(r, dtype=float)
        q = r.reshape(-1, n) / eps
        zeta, Z = [None] * tree.depth, [None] * tree.depth
        for k in range(tree.depth - 1, -1, -1):
            step, Q, K_u, K_v, a2 = levels[k]
            _, Z[k], zeta[k] = backward_step(step, dt, q, a2)
            q = zeta[k] - dt * (zeta[k] @ K_u) @ Q + dt * a2 * (Z[k] @ K_v)
        y = np.zeros((1, n))
        for k, (step, Q, K_u, K_v, a2) in enumerate(levels):
            u = (zeta[k] - y @ Q) @ K_u
            v = (Z[k] - (a2 * y) @ Q) @ K_v
            y = forward_step(step, dt, y, u, v, a2)
        return (r - y.reshape(r.shape)) / eps

    return apply


def free_terminal_state(problem: HumProblem) -> np.ndarray:
    return solve_forward(problem.y0, None, problem.coeffs, problem.tree,
                         problem.mesh)[-1]


def evaluate_functional(problem: HumProblem, zT: np.ndarray,
                        bwd: BackwardSolution | None = None) -> float:
    """Quadratic cost of a candidate terminal datum, from its backward sweep ``bwd`` if given."""
    tree, mesh = problem.tree, problem.mesh
    if bwd is None:
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

    zT_star, residuals = conjugate_gradient(apply_op, b, problem.cg_tol, problem.cg_maxiter,
                                            riccati_preconditioner(problem))

    bwd = solve_backward(zT_star, problem.coeffs, problem.tree, problem.mesh)
    controls = ControlPair([-a for a in bwd.zeta], [-a for a in bwd.Z], problem.region)
    terminal = solve_forward(problem.y0, controls, problem.coeffs, problem.tree,
                             problem.mesh)[-1]

    # terminal - eps*z* = b - (Lambda + eps*I) z*, so the closure error is
    # the true residual of the normal equations in the leaf norm.
    closure = leaf_norm(problem, terminal - problem.epsilon * zT_star)
    rel = residuals[-1] if residuals else 0.0
    b_norm = leaf_norm(problem, b)
    bound = 10.0 * rel * max(b_norm, 1e-300)

    return HumSolution(
        zT_star=zT_star,
        controls=controls,
        terminal=terminal,
        free_terminal=b,
        functional_value=evaluate_functional(problem, zT_star, bwd),
        cg_residuals=residuals,
        closure_error=closure,
        closure_bound=bound,
        true_rel_residual=closure / b_norm if b_norm > 0 else 0.0,
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
