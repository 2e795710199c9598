"""Numeric evaluation of the weighted energy estimate and the observability
inequality, with empirical constant fitting.

Both estimates sample admissible solutions and evaluate each side.  The
observability fit takes its constant as the max ratio over a training
half and checks it on a holdout half; the Carleman study returns every
sample's ratio.  All integrands carry the decaying weight linearly, so
one common normalizing factor exp(-2*max exponent) is applied to every
term; it cancels in all ratios and keeps the arithmetic inside double
range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import hum as hum_mod
from .backward_solver import backward_step
from .errors import ConfigurationError, ConvergenceError, RegimeError
from .forward_solver import Coefficients, OmegaRegion, forward_step
from .mesh import Mesh, build_mesh
from .noise_tree import ScenarioTree, build_tree, random_levels, tree_inner
from .discrete_calc import StepOperator
from .weights import CarlemanWeights, WeightParams, build_weights, validate_regime

# The estimators sweep their samples in batches of at most this many leaf
# values (samples * 2^depth * N), and at least one sample.  Memory sets the
# cap: one batch for a whole 400-sample fit nearly doubled peak memory; this
# cap is about 12 % faster than 2^14 for 2 MiB more peak memory, and 2^16
# is 4-9 % faster on a fit alone for twice the batch memory (measurements
# in README.md, "Sample batching").
_BATCH_LEAF_VALUES = 1 << 15


def _batches(total: int, tree: ScenarioTree, mesh: Mesh) -> list[tuple[int, int]]:
    """Consecutive sample ranges [start, stop) of at most _BATCH_LEAF_VALUES leaf values."""
    size = max(1, _BATCH_LEAF_VALUES // (tree.num_nodes(tree.depth) * mesh.N))
    return [(start, min(start + size, total)) for start in range(0, total, size)]


@dataclass
class SourcePair:
    """Drift and diffusion sources driving the weighted-estimate solutions,
    tree fields over levels 0..depth-1.

    Both fields may carry leading sample axes (a batch of source pairs).
    """

    f: list[np.ndarray]
    g: list[np.ndarray]

    @classmethod
    def random(cls, tree: ScenarioTree, mesh: Mesh, rng: np.random.Generator,
               modes: int = 3, shape: tuple[int, ...] = ()) -> "SourcePair":
        """Adapted low-mode random sources, comparable across mesh refinements.

        A nonempty ``shape`` gives that many samples from one draw, the same
        as one call per sample: per sample, f before g.
        """
        levels = random_levels(mesh, rng, tuple(shape) + (2,), tree.depth, modes)
        return cls(f=[lv[..., 0, :, :] for lv in levels], g=[lv[..., 1, :, :] for lv in levels])


def solve_w_equation(sources: SourcePair, tree: ScenarioTree, mesh: Mesh) -> list[np.ndarray]:
    """Integrate dw = -(second difference of w) dt + f dt + g dB on the tree, from w = 0.

    Each level's node rows go through one ``forward_step`` to their
    children, with drift source f as u, diffusion source g as v, a2 = 0
    and the anti-diffusive matrix I + dt*D2, factored once per call.
    That matrix is indefinite, so factoring it can raise
    SingularSystemError for unlucky dt/h combinations.  Sources with
    leading sample axes give a solution with the same leading axes.
    """
    N, h, dt = mesh.N, mesh.h, tree.dt
    off = np.full(N - 1, dt / h**2)
    step = StepOperator(off, np.full(N, 1.0 - 2.0 * dt / h**2))

    levels = [np.zeros(sources.f[0].shape[:-2] + (1, N))]
    for k in range(tree.depth):
        levels.append(forward_step(step, dt, levels[k], sources.f[k], sources.g[k], 0.0))
    return levels


@dataclass(frozen=True)
class CarlemanTerms:
    """Each side of the weighted estimate, term by term.

    All terms share the normalizing factor exp(-2*log_shift); ratios are
    unaffected.  For a batch of samples every term is an array over the
    samples.
    """

    lhs_state: float | np.ndarray
    lhs_gradient: float | np.ndarray
    rhs_window: float | np.ndarray
    rhs_diffusion: float | np.ndarray
    rhs_drift: float | np.ndarray
    rhs_initial: float | np.ndarray
    rhs_terminal: float | np.ndarray
    log_shift: float
    regime_ratio: float

    @property
    def lhs_total(self) -> float | np.ndarray:
        return self.lhs_state + self.lhs_gradient

    @property
    def rhs_total(self) -> float | np.ndarray:
        return (self.rhs_window + self.rhs_diffusion + self.rhs_drift
                + self.rhs_initial + self.rhs_terminal)

    @property
    def ratio(self) -> float | np.ndarray:
        """lhs/rhs; 0 where both sides vanish, inf where only the rhs does."""
        lhs, rhs = np.asarray(self.lhs_total), np.asarray(self.rhs_total)
        zero = rhs == 0.0
        ratio = np.where(zero, np.where(lhs == 0.0, 0.0, np.inf), lhs / np.where(zero, 1.0, rhs))
        return float(ratio) if ratio.ndim == 0 else ratio


def _contract(table: np.ndarray, weight: np.ndarray):
    """Sum of table (..., depth, M) times weight (depth, M) over levels and points."""
    total = np.einsum("...kj,kj->...", table, weight)
    return float(total) if total.ndim == 0 else total


def carleman_terms(w: list[np.ndarray], sources: SourcePair, weights: CarlemanWeights,
                   tree: ScenarioTree, mesh: Mesh, region: OmegaRegion) -> CarlemanTerms:
    """Tree-weighted left-endpoint quadrature of every term in the estimate.

    The squares of w, g, f and of w's neighbour differences (the gradient
    at the N+1 star points, Dirichlet ends) are summed over each level's
    nodes into per-point tables (..., depth, points), and each term is one
    contraction of a table with its weight table.  ``w`` and ``sources``
    may carry leading sample axes; the terms are then arrays over the
    samples.  Raises ConfigurationError unless the tree and the weights
    share the horizon T.
    """
    region.check_mesh(mesh)
    if tree.T != weights.params.T:
        raise ConfigurationError(
            f"tree horizon T={tree.T:g} differs from the weights' T={weights.params.T:g}")
    ok, ratio = validate_regime(weights, mesh.h)
    if not ok:
        raise RegimeError(ratio, weights.params.eps0)

    depth, N, h = tree.depth, mesh.N, mesh.h
    times = np.arange(depth) * tree.dt
    phi_int = weights.phi(mesh.interior)
    phi_star = weights.phi(mesh.star)
    s_quad = weights.s(times)
    s_ends = np.array([weights.s(0.0), weights.s(weights.params.T)])
    exp_int = np.outer(s_quad, phi_int)
    exp_star = np.outer(s_quad, phi_star)
    exp_ends = np.outer(s_ends, phi_int)
    log_shift = max(float(exp_int.max()), float(exp_star.max()), float(exp_ends.max()))

    # one row per level: the level weight dt*h/2^k times the squared
    # weight, times each term's power of s
    w2_int = np.exp(2.0 * (exp_int - log_shift))
    w2_star = np.exp(2.0 * (exp_star - log_shift))
    w2_t0, w2_tT = np.exp(2.0 * (exp_ends - log_shift))
    s = s_quad[:, np.newaxis]
    level = (tree.dt * h / 2.0 ** np.arange(depth))[:, np.newaxis]
    state = level * s**3 * w2_int
    gradient = level * s * w2_star / h**2

    lead = np.shape(w[0])[:-2]
    w_sq, g_sq, f_sq = (np.empty(lead + (depth, N)) for _ in range(3))
    step_sq = np.empty(lead + (depth, N + 1))
    per_point = "...nj,...nj->...j"
    for k in range(depth):
        step = w[k][..., 1:] - w[k][..., :-1]
        np.einsum(per_point, w[k], w[k], out=w_sq[..., k, :])
        np.einsum(per_point, step, step, out=step_sq[..., k, 1:N])
        np.einsum(per_point, sources.g[k], sources.g[k], out=g_sq[..., k, :])
        np.einsum(per_point, sources.f[k], sources.f[k], out=f_sq[..., k, :])
    step_sq[..., 0] = w_sq[..., 0]  # the Dirichlet ends: +-w at the end points
    step_sq[..., N] = w_sq[..., N - 1]

    leaves = w[depth]
    return CarlemanTerms(
        lhs_state=_contract(w_sq, state),
        lhs_gradient=_contract(step_sq, gradient),
        rhs_window=_contract(w_sq, state * region.indicator),
        rhs_diffusion=_contract(g_sq, level * s**2 * w2_int),
        rhs_drift=_contract(f_sq, level * w2_int),
        rhs_initial=tree_inner(tree, mesh, 0, w[0], w[0], w2_t0) / h**2,
        rhs_terminal=tree_inner(tree, mesh, depth, leaves, leaves, w2_tT) / h**2,
        log_shift=float(log_shift),
        regime_ratio=float(ratio),
    )


def carleman_ratio_study(weights: CarlemanWeights, tree: ScenarioTree, mesh: Mesh,
                         region: OmegaRegion, rng: np.random.Generator,
                         samples: int, modes: int = 3) -> np.ndarray:
    """Ratios lhs/rhs over seeded random source pairs.

    The samples are drawn, solved and evaluated in batches; the draws are
    the same as for ``SourcePair.random`` called once per sample.
    """
    ratios = np.empty(samples)
    for start, stop in _batches(samples, tree, mesh):
        sources = SourcePair.random(tree, mesh, rng, modes, shape=(stop - start,))
        w = solve_w_equation(sources, tree, mesh)
        ratios[start:stop] = carleman_terms(w, sources, weights, tree, mesh, region).ratio
    return ratios


@dataclass
class FittedConstant:
    """Empirical constant of a uniform inequality, fitted by max ratio.

    ``fitted_C`` is the sampled max over the training half, far below the
    sharp constant (ROADMAP item 2); the holdout check uses
    ``safety * fitted_C`` because a fresh sample's max is equally likely
    to land above the sampled training max.
    """

    samples: int
    excluded: int
    fitted_C: float
    safety: float
    holdout_violations: int
    holdout_max_ratio: float
    train_ratios: np.ndarray = field(repr=False)
    holdout_ratios: np.ndarray = field(repr=False)
    lhs: np.ndarray = field(repr=False)
    rhs_terms: dict[str, np.ndarray] = field(repr=False)

    @property
    def bound_C(self) -> float:
        return self.safety * self.fitted_C


def _adjoint_maps(steps: list[StepOperator], a2_levels, dt: float) -> list:
    """Per level, the matrices (diff, adj) of ``_shared_step``, or None where
    a matrix or a2 row per node leaves the level to ``backward_step``.

    adj = mean + diff*(dt*a2) folds the adjoint's noise term into the
    operator's ``split`` (diff, mean): a child-pair row times it is
    z = zeta + dt*a2*Z.  A run of equal levels shares one pair."""
    maps = []
    for k, (step, a2) in enumerate(zip(steps, a2_levels)):
        if step.split is None or a2.shape[0] != 1:
            maps.append(None)
        elif k and step is steps[k - 1] and np.array_equal(a2, a2_levels[k - 1]):
            maps.append(maps[-1])
        else:
            diff, mean = step.split
            maps.append((diff, mean + diff * (dt * a2)))
    return maps


def _shared_step(children: np.ndarray, diff: np.ndarray, adj: np.ndarray):
    """Z and z at the parents of children (S, 2B, N): two matmuls on the rows
    [child 2n | child 2n+1].  A lone row is multiplied as a stride-0 batch
    of two, as in ``backward_step``."""
    samples, nodes, n = children.shape
    rows = children.reshape(-1, 2 * n)
    count = len(rows)
    if count == 1:
        rows = np.broadcast_to(rows, (2, 2 * n))
    parents = (samples, nodes // 2, n)
    return (rows @ diff)[:count].reshape(parents), (rows @ adj)[:count].reshape(parents)


def observability_sample(coeffs: Coefficients, weights: CarlemanWeights,
                         tree: ScenarioTree, mesh: Mesh, region: OmegaRegion,
                         rng: np.random.Generator, train: int, holdout: int,
                         c_eps: float, safety: float = 2.0,
                         terminal_h_scaling: bool = False) -> FittedConstant:
    """Fit the observability constant on leafwise Gaussian terminal data from ``rng``.

    LHS is the expected initial energy of the backward solution; the RHS
    groups are the diffusion-component energy, the windowed state energy,
    and exp(-c_eps/h) times the terminal energy (times h^-2 when
    ``terminal_h_scaling`` is set, matching the sharper variant).  The
    first ``train`` samples fit the constant and the next ``holdout`` check
    it; all-zero samples are excluded (they satisfy the inequality for
    every constant).  Samples are swept in batches; the draws are the same
    as one sample at a time.  ``rng`` is used only through
    ``standard_normal(out=...)``.

    Each batch steps from the leaves down, holding one level at a time,
    and writes each level's unweighted squares Z.Z and windowed z.z (the
    window is the contiguous slice of ``region.mask``) into per-sample
    tables; the level weights dt*h/2^k are applied once, at the end.  A
    shared level with one a2 row (constant, zero and sinusoid
    coefficients) steps with ``_shared_step``, any other with
    ``backward_step``.

    The batches are drawn in line, in order, into one reused buffer the
    size of the first (largest) batch, so the draws, the values and the
    generator's final state are those of one plain call per batch.
    """
    if train < 1 or holdout < 0:
        raise ValueError(f"need train >= 1 and holdout >= 0, got {train} and {holdout}")
    total = train + holdout
    coeffs.check_grid(tree, mesh)
    region.check_mesh(mesh)
    ok, ratio = validate_regime(weights, mesh.h)
    if not ok:
        raise RegimeError(ratio, weights.params.eps0)

    eps_factor = hum_mod.epsilon_from_mesh(c_eps, mesh.h)
    if terminal_h_scaling:
        eps_factor /= mesh.h**2

    depth, dt = tree.depth, tree.dt
    steps = coeffs.step_operators()
    maps = _adjoint_maps(steps, coeffs.a2_levels, dt)
    inside = np.flatnonzero(region.mask)
    window = slice(inside[0], inside[-1] + 1)  # the mask of an interval is contiguous
    lhs = np.empty(total)
    rhs_terminal = np.empty(total)
    squares = np.empty((2, depth, total))  # Z.Z and windowed z.z per level and sample
    batches = _batches(total, tree, mesh)
    buf = np.empty((batches[0][1], tree.num_nodes(depth), mesh.N))
    for start, stop in batches:
        zT = buf[:stop - start]
        rng.standard_normal(out=zT)
        z = zT
        for k in range(depth - 1, -1, -1):
            if maps[k] is None:
                z, Z, _ = backward_step(steps[k], dt, z, coeffs.a2_levels[k])
            else:
                Z, z = _shared_step(z, *maps[k])
            # Einsum adds a lone sample of more than 8192 contiguous values
            # in blocks, a sample of a batch in one pass.  Under the 2^15
            # cap a level that large comes only in batches of one sample,
            # all of them, so a sample's sums do not depend on its batch.
            np.einsum("...ij,...ij->...", Z, Z, out=squares[0, k, start:stop])
            zw = z[..., window]
            np.einsum("...ij,...ij->...", zw, zw, out=squares[1, k, start:stop])
        lhs[start:stop] = tree_inner(tree, mesh, 0, z, z)
        rhs_terminal[start:stop] = eps_factor * tree_inner(tree, mesh, depth, zT, zT)

    level_weights = dt * mesh.h / 2.0 ** np.arange(depth)
    rhs_diffusion, rhs_window = (sum(w * sq for w, sq in zip(level_weights, table))
                                 for table in squares)
    rhs = rhs_diffusion + rhs_window + rhs_terminal
    keep = rhs != 0.0  # all-zero samples only: an overflowed one must fit as NaN
    ratios = np.where(keep, lhs / np.where(keep, rhs, 1.0), 0.0)
    ratios[np.isinf(rhs)] = np.nan  # lhs/inf would read 0
    train_keep = keep[:train]
    train_ratios = ratios[:train][train_keep]
    holdout_keep = keep[train:]
    holdout_ratios = ratios[train:][holdout_keep]

    fitted = float(train_ratios.max()) if train_ratios.size else 0.0
    violations = int((holdout_ratios > safety * fitted).sum())
    return FittedConstant(
        samples=total,
        excluded=int(total - keep.sum()),
        fitted_C=fitted,
        safety=safety,
        holdout_violations=violations,
        holdout_max_ratio=float(holdout_ratios.max()) if holdout_ratios.size else 0.0,
        train_ratios=np.asarray(train_ratios),
        holdout_ratios=np.asarray(holdout_ratios),
        lhs=lhs,
        rhs_terms={
            "diffusion": rhs_diffusion,
            "window": rhs_window,
            "terminal": rhs_terminal,
        },
    )


@dataclass
class SweepSettings:
    """Everything one mesh-size sweep needs, with factories for the pieces
    that depend on the mesh and tree.  ``weights`` is the weight family at
    the coarsest scheduled mesh (its ``delta`` is delta0); each row takes it
    ``at_mesh``."""

    h_values: list[float]
    depth: int
    weights: WeightParams
    c_eps: float
    coeff_factory: Callable[[ScenarioTree, Mesh, np.random.Generator], Coefficients]
    y0_factory: Callable[[Mesh], np.ndarray]
    seed: int = 0
    cg_tol: float = 1e-10
    cg_maxiter: int = 500
    obs_train: int = 64


@dataclass
class SweepRow:
    """One CSV row.  None (not computed) and NaN (not finite, blanked) are
    written empty; a row whose CG fails keeps the iterations it ran in ``cg_iters``."""

    h: float
    delta: float | None = None
    lam: float = np.nan
    mu: float = np.nan
    N: int | None = None
    depth: int = 0
    eps: float | None = None
    obs_C: float | None = None
    term_ratio: float | None = None
    cost_ratio: float | None = None
    cg_iters: int | None = None
    closure_err: float | None = None
    skipped: bool = False
    reason: str = ""


def mesh_size_from_h(h: float) -> int:
    """Interior point count whose spacing matches h; h must be 1/(N+1)."""
    N = round(1.0 / h) - 1
    if N < 2 or abs(1.0 / (N + 1) - h) > 1e-12:
        raise ConfigurationError(f"h={h} is not 1/(N+1) for any interior count N >= 2")
    return N


_COMPUTED_FIELDS = ("delta", "eps", "obs_C", "term_ratio", "cost_ratio", "closure_err")


def _blank_non_finite(row: SweepRow) -> None:
    """Blank computed NaN/Inf values (written as empty CSV fields) and skip
    the row, naming the fields after any reason it already has."""
    bad = [name for name in _COMPUTED_FIELDS
           if getattr(row, name) is not None and not np.isfinite(getattr(row, name))]
    for name in bad:
        setattr(row, name, np.nan)
    if bad:
        row.skipped = True
        row.reason = "; ".join(filter(None, (row.reason, f"non-finite values in {', '.join(bad)}")))


def h_sweep(settings: SweepSettings) -> list[SweepRow]:
    """One row per mesh size: scheduled margin, observability fit, control run.

    Rows that fail validation, whose linear solve fails, or whose computed
    values are not finite are emitted as skipped with the reason rather
    than aborting the sweep; a non-finite value is never written as a
    number.
    """
    rows = []
    family = settings.weights
    seed_seq = np.random.SeedSequence(settings.seed)
    row_seeds = seed_seq.spawn(len(settings.h_values))

    for h, row_seed in zip(settings.h_values, row_seeds):
        row = SweepRow(h=h, lam=family.lam, mu=family.mu, depth=settings.depth)
        try:
            N = mesh_size_from_h(h)
            row.N = N
            mesh = build_mesh(N)
            params = family.at_mesh(h)
            row.delta = params.delta
            weights = build_weights(params)
            tree = build_tree(settings.depth, params.T)
            region = OmegaRegion(mesh, params.omega)
            rng_obs, rng_coeff = [np.random.default_rng(s) for s in row_seed.spawn(2)]
            coeffs = settings.coeff_factory(tree, mesh, rng_coeff)

            row.obs_C = observability_sample(coeffs, weights, tree, mesh, region, rng_obs,
                                             settings.obs_train, 0, settings.c_eps).fitted_C

            eps = hum_mod.epsilon_from_mesh(settings.c_eps, h)
            row.eps = eps
            problem = hum_mod.HumProblem(
                y0=settings.y0_factory(mesh), coeffs=coeffs, region=region,
                tree=tree, mesh=mesh, epsilon=eps,
                cg_tol=settings.cg_tol, cg_maxiter=settings.cg_maxiter,
            )
            sol = hum_mod.solve_hum(problem)
            report = hum_mod.report_bounds(sol, problem)
            row.term_ratio = report.terminal_ratio
            row.cost_ratio = report.cost_ratio
            row.cg_iters = sol.cg_iterations
            row.closure_err = sol.closure_error
        except (ConfigurationError, ValueError) as exc:
            row.skipped = True
            row.reason = str(exc)
        except ConvergenceError as exc:
            row.skipped = True
            row.cg_iters = len(exc.residuals)
            row.reason = f"linear solve did not converge: {exc}"
        _blank_non_finite(row)
        rows.append(row)
    return rows
