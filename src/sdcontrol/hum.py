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
reads P_0, which a huge level-0 a2 can overflow).  The recursion also
folds each level's part of the solve into two fixed matrices, so one
application is three matmuls per level.  It inverts (Lambda + eps*I)
exactly when the coefficients are shared by the nodes of each level and
inverts the mean-path problem on adapted levels.  Its error grows like
u/eps^2 in float64 (u = 1.1e-16): max|W (Lambda + eps*I) - I| for the
computed map W is about 1.6e-15 at eps = 1e-2, 1.4e-10 at 1e-6, 3e-4 at
1e-10 and 0.9 at 1e-12 (N = 7, depth 8, a1 = a2 = 0.5).  Below about
eps = 1e-10 it is no longer a near-inverse: the default sweep's h = 1/28
row (eps = 6.9e-13) takes 12 PCG iterations, a count set by roundoff,
and at h = 1/32 (eps = 1.3e-14) it is no longer positive definite, which
the breakdown guard of ``conjugate_gradient`` reports as a
ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backward_solver import BackwardSolution, solve_backward
from .discrete_calc import drift_implicit_bands, symmetric_inverse
from .errors import ConfigurationError, ConvergenceError
from .forward_solver import Coefficients, ControlPair, OmegaRegion, solve_forward
from .mesh import Mesh
from .noise_tree import ScenarioTree, time_pairing, tree_inner


def epsilon_from_mesh(c_eps: float, h: float) -> float:
    """Penalty level exp(-c_eps/h) tied to the mesh size."""
    if c_eps <= 0 or h <= 0:
        raise ConfigurationError("c_eps and h must be positive")
    return float(np.exp(-c_eps / h))


@dataclass(frozen=True)
class HumProblem:
    """One penalized control problem, validated once here: the sweeps read
    the grid of ``coeffs``, so it must be ``tree`` and ``mesh``, and the
    window must be built on ``mesh``.  Frozen, so no field can change after
    the checks; ``dataclasses.replace`` builds a checked variant."""

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
        self.coeffs.check_grid(self.tree, self.mesh)
        self.region.check_mesh(self.mesh)
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float).reshape(self.mesh.N))
        self.coeffs.validate_dominance()


@dataclass
class HumSolution:
    """Minimizer, controlled and free leaf states, and ``control_cost``, the
    energy sum_k dt E(|chi*u_k|^2 + |v_k|^2) of the controls (u, v) =
    -(zeta, Z) of ``solve_backward(zT_star, coeffs)``, which are not kept."""

    zT_star: np.ndarray
    control_cost: float
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


def _drain(levels: list):
    """Iterator that pops each of ``levels`` off the list as it hands it
    over and keeps no reference, so the taker's release frees it."""
    while levels:
        yield levels.pop(0)


def gramian_apply(zT: np.ndarray, problem: HumProblem) -> np.ndarray:
    """Leaf states reached from rest under the controls (zeta, Z) of zT's
    backward sweep.  The forward sweep releases each backward level once it
    has stepped it, so besides zT and the result at most the sweep's zeta
    and Z and a few level temporaries are live.  A batch (..., 2^depth, N)
    of leaf data gives a batch of leaf states."""
    bwd = solve_backward(zT, problem.coeffs)
    controls = ControlPair(_drain(bwd.zeta), _drain(bwd.Z), problem.region)
    return solve_forward(np.zeros(problem.mesh.N), controls, problem.coeffs)


def leaf_norm(problem: HumProblem, a: np.ndarray) -> float:
    return float(np.sqrt(tree_inner(problem.tree, problem.mesh, problem.tree.depth, a, a)))


def conjugate_gradient(apply_op, b: np.ndarray, tol: float, maxiter: int, precondition):
    """Conjugate gradient on a symmetric positive definite operator,
    preconditioned by the SPD map ``precondition`` (``np.copy`` gives the
    plain CG iterates).

    Works in the Euclidean inner product, which equals the weighted one up
    to a constant factor and therefore produces identical iterates.  Stops
    one way: once the recursive relative residual ||r|| / ||b|| reaches
    ``tol``, the true residual b - Ax is computed (one more operator apply)
    and replaces it, and the solve ends when that one is at ``tol`` too.
    Returns (solution, relative-residual history).  Raises
    ConvergenceError with the history when the operator shows a
    nonpositive curvature p.Ap <= 0, the preconditioner a nonpositive
    r.Mr <= 0, or a step or residual is not finite, instead of continuing
    with a meaningless step.  Raises ValueError when maxiter < 1.

    Updates its vectors in place to hold few leaf-sized arrays: it never
    writes to ``b``, but it overwrites the arrays that ``apply_op`` and
    ``precondition`` return (unless one shares memory with the argument),
    so both must return arrays they do not keep.
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
    r = np.ldexp(b, -e)
    b_norm = float(np.linalg.norm(r))
    residuals = []

    def preconditioned(r):
        z = np.asarray(precondition(r), dtype=float)
        rz = float(r.ravel() @ z.ravel())
        if not (rz > 0 and np.isfinite(rz)):
            raise ConvergenceError(
                f"preconditioned conjugate gradient broke down at iteration "
                f"{len(residuals) + 1}: r.Mr = {rz:.3e} (preconditioner not positive "
                f"definite or not finite)", residuals)
        return z, rz

    z, rz = preconditioned(r)
    p = z.copy() if np.may_share_memory(z, r) else z
    del z
    for _ in range(maxiter):
        ap = np.asarray(apply_op(p), dtype=float)
        if np.may_share_memory(ap, p):
            ap = ap.copy()
        curvature = float(p.ravel() @ ap.ravel())
        alpha = rz / curvature if curvature > 0 else np.nan
        if not np.isfinite(alpha):
            raise ConvergenceError(
                f"conjugate gradient broke down at iteration {len(residuals) + 1}: "
                f"p.Ap = {curvature:.3e} (operator not positive definite or not finite)",
                residuals,
            )
        ap *= alpha
        r -= ap
        x += np.multiply(p, alpha, out=ap)
        del ap
        rr = float(r.ravel() @ r.ravel())
        rel = float(np.sqrt(rr) / b_norm)
        if rel <= tol:
            # A near-exact preconditioner can cut the recursive residual far
            # below the roundoff floor of the true one in a single step, so
            # convergence is confirmed on the true residual b - Ax, which
            # replaces the recursive one (van der Vorst & Ye, SISC 22, 2000).
            r = np.ldexp(b, -e)
            r -= apply_op(x)
            rr = float(r.ravel() @ r.ravel())
            rel = float(np.sqrt(rr) / b_norm)
        residuals.append(rel)
        if not np.isfinite(rel):
            raise ConvergenceError(
                f"conjugate gradient produced a non-finite residual at iteration "
                f"{len(residuals)}", residuals)
        if rel <= tol:
            return np.ldexp(x, e, out=x), residuals
        z, rz_new = preconditioned(r)
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
    best = int(np.argmin(residuals))
    raise ConvergenceError(
        f"conjugate gradient stalled at relative residual {residuals[-1]:.3e} "
        f"after {maxiter} iterations (tol {tol:.3e}); the best was "
        f"{residuals[best]:.3e} at iteration {best + 1}",
        residuals,
    )


def riccati_levels(coeffs: Coefficients, region: OmegaRegion, epsilon: float):
    """Riccati recursion of (Lambda + eps*I) as the LQ problem min 1/2 sum_k
    dt E(|chi*u_k|^2 + |v_k|^2) + 1/(2 eps) E|y_D - r|^2 (the mesh weight h
    is common to every term and dropped), backward from P_D = I/eps with the
    symmetric M = (I - dt*(D2 + a1))^-1 and E = diag(indicator):

        Q = M P M,  K_u = E (I + dt E Q E)^-1 E,  K_v = (I + Q)^-1,
        P <- Q - dt Q K_u Q + dt a2 (I - K_v) a2      (Q K_v = I - K_v).

    Returns ``(levels, P_0)``; the optimal cost from y_0 at r = 0 is J* =
    -(h/2) y_0^T P_0 y_0.  ``levels[k] = (Bq, Be)`` are the level's maps
    for ``riccati_preconditioner``, in row form with s = sqrt(dt), A2 =
    diag(a2) and a node's child rows [c_- | c_+] in ``EDGE_SIGNS`` order:

        Bq (2N x N):  [c_- | c_+] -> the parent's linear term
                      q = zeta (I - dt K_u Q) + dt Z K_v A2, for zeta and Z
                      of the solved children (see ``backward_solver``);
        Be (2N x 2N): [c_- | c_+] -> 2^-(k+1) times the children's control
                      part dt zeta K_u M -+ s Z K_v M.

    The state part of the forward step, y -> y (I - dt Q K_u) M -+
    s y A2 K_v M, is 2 Bq^T (M, Q and K_u are symmetric), so the state
    weighted by its node probability, 2^-k y, steps by Bq^T and Be alone.

    Every level takes the node means of its coefficients (P_0 is then the
    mean path's); M is the ``symmetric_inverse`` of the mean a1's
    ``drift_implicit_bands``, once per run of equal means.  Raises
    ConfigurationError when dt*max|a1| >= 1.
    K_u is nonzero only on the window, an interval of grid points, so only
    its window block is inverted.  A level-0 a2 that overflows P_0 leaves
    it non-finite and the levels intact.  Costs O(depth N^3) and keeps
    6 N^2 values per level.
    """
    coeffs.validate_dominance()
    tree, mesh = coeffs.tree, coeffs.mesh
    n, dt, s = mesh.N, tree.dt, np.sqrt(tree.dt)
    eye = np.eye(n)
    # K_u's window block is (I + dt Q_ww)^-1, so K_u Q is K_w Q_w on rows w.
    inside = np.flatnonzero(region.mask)
    w = slice(inside[0], inside[-1] + 1)
    eye_w = np.eye(len(inside))
    levels, P, M_a1 = [None] * tree.depth, eye / epsilon, None
    for k in range(tree.depth - 1, -1, -1):
        a1, a2 = coeffs.a1_levels[k].mean(axis=0), coeffs.a2_levels[k].mean(axis=0)
        if not np.array_equal(a1, M_a1):
            M, M_a1 = symmetric_inverse(*drift_implicit_bands(mesh, dt, a1)), a1
        Q = M @ P @ M
        K_w = np.linalg.inv(eye_w + dt * Q[w, w])
        K_v = np.linalg.inv(eye + Q)
        KwQ, MKv = K_w @ Q[w], M @ K_v
        # Child-pair rows split into zeta = (c_- + c_+) M/2 and
        # Z = (c_+ - c_-) M/(2s), so each map is a sum and a difference.
        half = 0.5 * M - (0.5 * dt) * (M[:, w] @ KwQ)
        noise = (0.5 * s) * MKv * a2
        weight = 0.5 ** (k + 1)
        G = (0.5 * dt * weight) * ((M[:, w] @ K_w) @ M[w])
        H = (0.5 * weight) * (MKv @ M)
        Bq, Be = np.empty((2 * n, n)), np.empty((2 * n, 2 * n))
        np.subtract(half, noise, out=Bq[:n])
        np.add(half, noise, out=Bq[n:])
        np.add(G, H, out=Be[:n, :n])
        np.subtract(G, H, out=Be[:n, n:])
        Be[n:, :n], Be[n:, n:] = Be[:n, n:], Be[:n, :n]
        levels[k] = (Bq, Be)
        P = Q - dt * (Q[:, w] @ KwQ) + dt * a2[:, np.newaxis] * (eye - K_v) * a2
        P = 0.5 * (P + P.T)
    return levels, P


def riccati_preconditioner(problem: HumProblem):
    """Map r -> w solving (Lambda + eps*I) w = r, exactly when every level's
    coefficients are shared by its nodes: w = (r - y_D)/eps for the state y
    of the tracking problem of ``riccati_levels`` from y_0 = 0.

    Each application steps the linear term back from q_D = r/eps, one
    matmul pair per level on the child-pair rows of q: ``Bq`` gives the
    parents' q and ``Be`` the children's part of the optimal controls u =
    K_u (zeta - Q y) and v = K_v (Z - Q a2 y).  It then steps the
    probability-weighted optimal state 2^-k y forward from 0, one matmul
    by Bq^T and one add per level.  That is 8 N^2 multiply-adds per parent
    node, and no solve.  On adapted levels it inverts the mean-path
    problem, an SPD approximation of (Lambda + eps*I)^-1.
    """
    n, eps, depth = problem.mesh.N, problem.epsilon, problem.tree.depth
    levels, _ = riccati_levels(problem.coeffs, problem.region, eps)

    def apply(r):
        r = np.asarray(r, dtype=float)
        pairs = r.reshape(-1, 2 * n) / eps
        e = [None] * depth
        for k in range(depth - 1, -1, -1):
            Bq, Be = levels[k]
            e[k] = pairs @ Be
            if k:
                pairs = (pairs @ Bq).reshape(-1, 2 * n)
        # e is released as a whole on return: freeing each e[k] once it is
        # added lowered one solve's peak by 2 % and doubled its page faults
        # (N = 63, depth 10), since the Gramian apply sets most of the peak.
        y = e[0]  # 2^-1 y_1: y_0 = 0 adds no state part
        for k in range(1, depth):
            y = y.reshape(-1, n) @ levels[k][0].T
            y += e[k]
        y = np.ldexp(y, depth, out=y).reshape(r.shape)
        np.subtract(r, y, out=y)
        y /= eps
        return y

    return apply


def _costs(problem: HumProblem, zT: np.ndarray, bwd: BackwardSolution) -> tuple[float, float]:
    """Energy of the controls -(zeta, Z) of the sweep ``bwd`` from zT (exact
    from zeta and Z, as (-a)*(-a) = a*a), and the quadratic cost of zT."""
    tree, mesh = problem.tree, problem.mesh
    quad = (time_pairing(tree, mesh, bwd.Z, bwd.Z)
            + time_pairing(tree, mesh, bwd.zeta, bwd.zeta, problem.region.indicator))
    penalty = problem.epsilon * tree_inner(tree, mesh, tree.depth, zT, zT)
    linear = tree_inner(tree, mesh, 0, problem.y0, bwd.z0)
    return quad, float(0.5 * quad + 0.5 * penalty - linear)


def evaluate_functional(problem: HumProblem, zT: np.ndarray) -> float:
    """Quadratic cost of a candidate terminal datum."""
    return _costs(problem, zT, solve_backward(zT, problem.coeffs))[1]


def solve_hum(problem: HumProblem) -> HumSolution:
    """Minimize the penalized cost and synthesize the control pair, (u, v) =
    -(zeta, Z) of the minimizer's sweep, negated in place after pricing."""
    b = solve_forward(problem.y0, None, problem.coeffs)

    def apply_op(z):
        out = gramian_apply(z, problem)
        out += problem.epsilon * z
        return out

    zT_star, residuals = conjugate_gradient(apply_op, b, problem.cg_tol, problem.cg_maxiter,
                                            riccati_preconditioner(problem))

    bwd = solve_backward(zT_star, problem.coeffs)
    cost, value = _costs(problem, zT_star, bwd)
    for a in bwd.zeta + bwd.Z:
        np.negative(a, out=a)
    terminal = solve_forward(problem.y0, ControlPair(_drain(bwd.zeta), _drain(bwd.Z),
                                                     problem.region), problem.coeffs)

    # terminal - eps*z* = b - (Lambda + eps*I) z*, so the closure error is
    # the true residual of the normal equations in the leaf norm.
    closure = leaf_norm(problem, terminal - problem.epsilon * zT_star)
    rel = residuals[-1] if residuals else 0.0
    b_norm = leaf_norm(problem, b)
    bound = 10.0 * rel * max(b_norm, 1e-300)

    return HumSolution(
        zT_star=zT_star,
        control_cost=cost,
        terminal=terminal,
        free_terminal=b,
        functional_value=value,
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
    cost = sol.control_cost
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
