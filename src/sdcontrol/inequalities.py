"""Numeric evaluation of the weighted energy estimate and the observability
inequality, with empirical constant fitting.

Both estimates are checked the same way: sample admissible solutions,
evaluate each side, and fit the constant as the max ratio over a training
half.  All integrands carry the decaying weight linearly, so one common
normalizing factor exp(-2*max exponent) is applied to every term; it
cancels in all ratios and keeps the arithmetic inside double range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .backward_solver import solve_backward
from .errors import ConfigurationError, ConvergenceError, RegimeError
from .forward_solver import _EDGE_SIGNS, Coefficients, OmegaRegion, forward_step
from .mesh import Mesh, build_mesh
from .noise_tree import (AdaptedField, ScenarioTree, build_tree, random_levels, time_pairing,
                         tree_inner)
from .discrete_calc import StepOperator
from .weights import CarlemanWeights, WeightParams, build_weights, validate_regime

# The estimators sweep their samples in batches of at most this many leaf
# values (samples * 2^depth * N), and at least one sample.  Memory sets the
# cap: one batch for a whole 400-sample fit nearly doubled peak memory,
# larger caps bought little time for more memory, half this cap lost a third
# of the speed (measurements in README.md, "Sample batching").
_BATCH_LEAF_VALUES = 1 << 14


def _batches(total: int, tree: ScenarioTree, mesh: Mesh) -> list[tuple[int, int]]:
    """Consecutive sample ranges [start, stop) of at most _BATCH_LEAF_VALUES leaf values."""
    size = max(1, _BATCH_LEAF_VALUES // (tree.num_nodes(tree.depth) * mesh.N))
    return [(start, min(start + size, total)) for start in range(0, total, size)]


@dataclass
class SourcePair:
    """Drift and diffusion sources driving the weighted-estimate solutions.

    Both fields may carry leading sample axes (a batch of source pairs).
    """

    f: AdaptedField
    g: AdaptedField

    @classmethod
    def random(cls, tree: ScenarioTree, mesh: Mesh, rng: np.random.Generator,
               modes: int = 3, scale: float = 1.0,
               shape: tuple[int, ...] = ()) -> "SourcePair":
        """Adapted low-mode random sources, comparable across mesh refinements.

        A nonempty ``shape`` gives that many samples from one draw, the same
        as one call per sample: per sample, f before g.
        """
        levels = random_levels(mesh, rng, tuple(shape) + (2,), tree.depth, modes, scale)
        return cls(f=AdaptedField(tree, mesh, [lv[..., 0, :, :] for lv in levels]),
                   g=AdaptedField(tree, mesh, [lv[..., 1, :, :] for lv in levels]))


def solve_w_equation(sources: SourcePair, tree: ScenarioTree, mesh: Mesh,
                     w0: np.ndarray | None = None) -> AdaptedField:
    """Integrate dw = -(second difference of w) dt + f dt + g dB on the tree.

    Each level is one ``forward_step`` with drift source f, diffusion
    source g and the anti-diffusive matrix I + dt*D2, factored once per
    call.  That matrix is indefinite, so factoring it can raise
    SingularSystemError for unlucky dt/h combinations.  Sources with
    leading sample axes give a solution with the same leading axes, all
    samples starting from ``w0``.
    """
    N, h, dt = mesh.N, mesh.h, tree.dt
    off = np.full(N - 1, dt / h**2)
    step = StepOperator(off, np.full(N, 1.0 - 2.0 * dt / h**2), off)

    if w0 is None:
        w0 = np.zeros(N)
    batch = sources.f.levels[0].shape[:-2]
    levels = [np.broadcast_to(np.asarray(w0, dtype=float).reshape(1, N), batch + (1, N)).copy()]
    for k in range(tree.depth):
        children = forward_step(step, dt, levels[k][..., np.newaxis, :],
                                sources.f.levels[k][..., np.newaxis, :],
                                sources.g.levels[k][..., np.newaxis, :], 0.0, 1.0, _EDGE_SIGNS)
        levels.append(children.reshape(batch + (2 << k, N)))
    return AdaptedField(tree, mesh, levels)


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

    def all_terms(self) -> dict[str, float | np.ndarray]:
        return {
            "lhs_state": self.lhs_state,
            "lhs_gradient": self.lhs_gradient,
            "rhs_window": self.rhs_window,
            "rhs_diffusion": self.rhs_diffusion,
            "rhs_drift": self.rhs_drift,
            "rhs_initial": self.rhs_initial,
            "rhs_terminal": self.rhs_terminal,
        }


def _gradient(level_values: np.ndarray, h: float) -> np.ndarray:
    """Staggered differences with Dirichlet padding, per node (star points)."""
    padded = np.pad(level_values, [(0, 0)] * (level_values.ndim - 1) + [(1, 1)])
    return np.diff(padded, axis=-1) / h


def carleman_terms(w: AdaptedField, sources: SourcePair, weights: CarlemanWeights,
                   tree: ScenarioTree, mesh: Mesh, region: OmegaRegion) -> CarlemanTerms:
    """Tree-weighted left-endpoint quadrature of every term in the estimate.

    ``w`` and ``sources`` may carry leading sample axes; the terms are then
    arrays over the samples.
    """
    ok, ratio = validate_regime(weights, mesh.h)
    if not ok:
        raise RegimeError(ratio, weights.params.eps0)

    times = np.arange(tree.depth) * tree.dt
    phi_int = weights.phi(mesh.interior)
    phi_star = weights.phi(mesh.star)
    s_quad = weights.s(times)
    s_ends = np.array([weights.s(0.0), weights.s(weights.params.T)])
    exp_int = np.outer(s_quad, phi_int)
    exp_star = np.outer(s_quad, phi_star)
    exp_ends = np.outer(s_ends, phi_int)
    log_shift = max(float(exp_int.max()), float(exp_star.max()), float(exp_ends.max()))

    # one row per level: the squared weight, times each term's power of s
    w2_int = np.exp(2.0 * (exp_int - log_shift))
    w2_star = np.exp(2.0 * (exp_star - log_shift))
    w2_t0, w2_tT = np.exp(2.0 * (exp_ends - log_shift))
    s = s_quad[:, np.newaxis]
    state, gradient, diffusion = s**3 * w2_int, s * w2_star, s**2 * w2_int
    window = s**3 * region.indicator * w2_int

    grads = [_gradient(wk, mesh.h) for wk in w.levels[:tree.depth]]
    leaves = w.levels[tree.depth]
    return CarlemanTerms(
        lhs_state=time_pairing(tree, mesh, w, w, state),
        lhs_gradient=time_pairing(tree, mesh, grads, grads, gradient),
        rhs_window=time_pairing(tree, mesh, w, w, window),
        rhs_diffusion=time_pairing(tree, mesh, sources.g, sources.g, diffusion),
        rhs_drift=time_pairing(tree, mesh, sources.f, sources.f, w2_int),
        rhs_initial=tree_inner(tree, mesh, 0, w.levels[0], w.levels[0], w2_t0) / mesh.h**2,
        rhs_terminal=tree_inner(tree, mesh, tree.depth, leaves, leaves, w2_tT) / mesh.h**2,
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

    ``fitted_C`` is the sharp max over the training half; the holdout check
    uses ``safety * fitted_C`` because a fresh sample's max is equally
    likely to land above the sharp training max.
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


def observability_sample(coeffs: Coefficients, weights: CarlemanWeights,
                         tree: ScenarioTree, mesh: Mesh, region: OmegaRegion,
                         rng: np.random.Generator, train: int, holdout: int,
                         c_eps: float, safety: float = 2.0,
                         terminal_h_scaling: bool = False,
                         terminal_data: list[np.ndarray] | None = None) -> FittedConstant:
    """Fit the observability constant on a family of terminal data.

    LHS is the expected initial energy of the backward solution; the RHS
    groups are the diffusion-component energy, the windowed state energy,
    and exp(-c_eps/h) times the terminal energy (times h^-2 when
    ``terminal_h_scaling`` is set, matching the sharper variant).  The
    family defaults to seeded leafwise Gaussian data; all-zero samples are
    excluded (they satisfy the inequality for every constant).  Samples
    are swept in batches; the draws are the same as one sample at a time.
    """
    total = train + holdout
    if total < 2:
        raise ValueError("need at least 2 samples to fit and hold out")
    if terminal_data is not None and len(terminal_data) != total:
        raise ValueError(f"terminal_data must supply {total} samples, got {len(terminal_data)}")
    ok, ratio = validate_regime(weights, mesh.h)
    if not ok:
        raise RegimeError(ratio, weights.params.eps0)

    eps_factor = np.exp(-c_eps / mesh.h)
    if terminal_h_scaling:
        eps_factor /= mesh.h**2

    lhs = np.empty(total)
    rhs_diffusion = np.empty(total)
    rhs_window = np.empty(total)
    rhs_terminal = np.empty(total)
    mask = region.indicator
    leaves = (tree.num_nodes(tree.depth), mesh.N)
    for start, stop in _batches(total, tree, mesh):
        if terminal_data is None:
            zT = rng.standard_normal((stop - start,) + leaves)
        else:
            zT = np.stack([np.asarray(data, dtype=float).reshape(leaves)
                           for data in terminal_data[start:stop]])
        sol = solve_backward(zT, coeffs, tree, mesh)
        z0 = sol.z.levels[0]
        lhs[start:stop] = tree_inner(tree, mesh, 0, z0, z0)
        rhs_diffusion[start:stop] = time_pairing(tree, mesh, sol.Z, sol.Z)
        rhs_window[start:stop] = time_pairing(tree, mesh, sol.z, sol.z, mask)
        rhs_terminal[start:stop] = eps_factor * tree_inner(tree, mesh, tree.depth, zT, zT)

    rhs = rhs_diffusion + rhs_window + rhs_terminal
    keep = rhs > 0
    ratios = np.where(keep, lhs / np.where(keep, rhs, 1.0), 0.0)
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
    obs_holdout: int = 64
    obs_safety: float = 2.0


@dataclass
class SweepRow:
    h: float
    delta: float = np.nan
    lam: float = np.nan
    mu: float = np.nan
    N: int = 0
    depth: int = 0
    eps: float = np.nan
    obs_C: float = np.nan
    term_ratio: float = np.nan
    cost_ratio: float = np.nan
    cg_iters: int = 0
    closure_err: float = np.nan
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
    """Blank NaN/Inf values (written as empty CSV fields); a row that was not
    already skipped becomes skipped, naming the fields."""
    bad = [name for name in _COMPUTED_FIELDS if not np.isfinite(getattr(row, name))]
    for name in bad:
        setattr(row, name, np.nan)
    if bad and not row.skipped:
        row.skipped = True
        row.reason = f"non-finite values in {', '.join(bad)}"


def h_sweep(settings: SweepSettings) -> list[SweepRow]:
    """One row per mesh size: scheduled margin, observability fit, control run.

    Rows that fail validation, whose linear solve fails, or whose computed
    values are not finite are emitted as skipped with the reason rather
    than aborting the sweep; a non-finite value is never written as a
    number.
    """
    from . import hum as hum_mod

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

            fit = observability_sample(
                coeffs, weights, tree, mesh, region, rng_obs,
                settings.obs_train, settings.obs_holdout, settings.c_eps,
                safety=settings.obs_safety,
            )
            row.obs_C = fit.fitted_C

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
            row.reason = f"linear solve did not converge: {exc}"
        _blank_non_finite(row)
        rows.append(row)
    return rows
