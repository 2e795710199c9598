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
from .forward_solver import Coefficients, OmegaRegion
from .mesh import Mesh, build_mesh
from .noise_tree import AdaptedField, ScenarioTree, build_tree, time_pairing, tree_inner
from .discrete_calc import StepOperator
from .weights import (CarlemanWeights, WeightParams, build_weights, delta_schedule,
                      schedule_h1, validate_regime)


@dataclass
class SourcePair:
    """Drift and diffusion sources driving the weighted-estimate solutions."""

    f: AdaptedField
    g: AdaptedField

    @classmethod
    def random(cls, tree: ScenarioTree, mesh: Mesh, rng: np.random.Generator,
               modes: int = 3, scale: float = 1.0) -> "SourcePair":
        """Adapted low-mode random sources, comparable across mesh refinements."""
        return cls(
            f=AdaptedField.random(tree, mesh, rng, tree.depth, modes=modes, scale=scale),
            g=AdaptedField.random(tree, mesh, rng, tree.depth, modes=modes, scale=scale),
        )


def solve_w_equation(sources: SourcePair, tree: ScenarioTree, mesh: Mesh,
                     w0: np.ndarray | None = None) -> AdaptedField:
    """Integrate dw = -(second difference of w) dt + f dt + g dB on the tree.

    The drift is handled implicitly with one StepOperator for every level;
    the matrix I + dt*D2 is indefinite (this is the anti-diffusive
    direction), so factoring it can raise SingularSystemError for unlucky
    dt/h combinations.
    """
    N, h, dt = mesh.N, mesh.h, tree.dt
    off = np.full(N - 1, dt / h**2)
    step = StepOperator(off, np.full(N, 1.0 - 2.0 * dt / h**2), off)
    edges = np.array([[-1.0], [1.0]]) * np.sqrt(dt)

    if w0 is None:
        w0 = np.zeros(N)
    levels = [np.asarray(w0, dtype=float).reshape(1, N).copy()]
    for k in range(tree.depth):
        drift = levels[k] + dt * sources.f.levels[k]
        # Children of node n are 2n (minus edge) and 2n+1 (plus edge).
        children = drift[:, np.newaxis] + sources.g.levels[k][:, np.newaxis] * edges
        levels.append(step.solve(children).reshape(2 << k, N))
    return AdaptedField(tree, mesh, levels)


@dataclass(frozen=True)
class CarlemanTerms:
    """Each side of the weighted estimate, term by term.

    All terms share the normalizing factor exp(-2*log_shift); ratios are
    unaffected.
    """

    lhs_state: float
    lhs_gradient: float
    rhs_window: float
    rhs_diffusion: float
    rhs_drift: float
    rhs_initial: float
    rhs_terminal: float
    log_shift: float
    regime_ratio: float

    @property
    def lhs_total(self) -> float:
        return self.lhs_state + self.lhs_gradient

    @property
    def rhs_total(self) -> float:
        return (self.rhs_window + self.rhs_diffusion + self.rhs_drift
                + self.rhs_initial + self.rhs_terminal)

    @property
    def ratio(self) -> float:
        if self.rhs_total == 0.0:
            return 0.0 if self.lhs_total == 0.0 else np.inf
        return self.lhs_total / self.rhs_total

    def all_terms(self) -> dict[str, float]:
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
    padded = np.pad(level_values, ((0, 0), (1, 1)))
    return np.diff(padded, axis=1) / h


def carleman_terms(w: AdaptedField, sources: SourcePair, weights: CarlemanWeights,
                   tree: ScenarioTree, mesh: Mesh, region: OmegaRegion) -> CarlemanTerms:
    """Tree-weighted left-endpoint quadrature of every term in the estimate."""
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

    # one row per level: the squared weight, times each term's power of s below
    w2_int = np.exp(2.0 * (exp_int - log_shift))
    w2_star = np.exp(2.0 * (exp_star - log_shift))
    s = s_quad[:, np.newaxis]
    grads = [_gradient(wk, mesh.h) for wk in w.levels[:tree.depth]]
    lhs_state = time_pairing(tree, mesh, w, w, s**3 * w2_int)
    lhs_grad = time_pairing(tree, mesh, grads, grads, s * w2_star)
    rhs_window = time_pairing(tree, mesh, w, w, s**3 * region.indicator * w2_int)
    rhs_diff = time_pairing(tree, mesh, sources.g, sources.g, s**2 * w2_int)
    rhs_drift = time_pairing(tree, mesh, sources.f, sources.f, w2_int)

    w2_t0, w2_tT = np.exp(2.0 * (exp_ends - log_shift))
    leaves = w.levels[tree.depth]
    rhs_t0 = tree_inner(tree, mesh, 0, w.levels[0], w.levels[0], w2_t0) / mesh.h**2
    rhs_tT = tree_inner(tree, mesh, tree.depth, leaves, leaves, w2_tT) / mesh.h**2

    return CarlemanTerms(
        lhs_state=float(lhs_state),
        lhs_gradient=float(lhs_grad),
        rhs_window=float(rhs_window),
        rhs_diffusion=float(rhs_diff),
        rhs_drift=float(rhs_drift),
        rhs_initial=float(rhs_t0),
        rhs_terminal=float(rhs_tT),
        log_shift=float(log_shift),
        regime_ratio=float(ratio),
    )


def carleman_ratio_study(weights: CarlemanWeights, tree: ScenarioTree, mesh: Mesh,
                         region: OmegaRegion, rng: np.random.Generator,
                         samples: int, modes: int = 3) -> np.ndarray:
    """Ratios lhs/rhs over seeded random source pairs."""
    ratios = np.empty(samples)
    for i in range(samples):
        sources = SourcePair.random(tree, mesh, rng, modes=modes)
        w = solve_w_equation(sources, tree, mesh)
        ratios[i] = carleman_terms(w, sources, weights, tree, mesh, region).ratio
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
    excluded (they satisfy the inequality for every constant).
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
    leaves = tree.num_nodes(tree.depth)
    for i in range(total):
        if terminal_data is None:
            zT = rng.standard_normal((leaves, mesh.N))
        else:
            zT = np.asarray(terminal_data[i], dtype=float).reshape(leaves, mesh.N)
        sol = solve_backward(zT, coeffs, tree, mesh)
        lhs[i] = tree_inner(tree, mesh, 0, sol.z0, sol.z0)
        rhs_diffusion[i] = time_pairing(tree, mesh, sol.Z, sol.Z)
        rhs_window[i] = time_pairing(tree, mesh, sol.z, sol.z, mask)
        rhs_terminal[i] = eps_factor * tree_inner(tree, mesh, tree.depth, zT, zT)

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
    that depend on the mesh and tree."""

    h_values: list[float]
    depth: int
    T: float
    lam: float
    mu: float
    delta0: float
    eps0: float
    x0: float
    K: float
    omega: tuple[float, float]
    omega0: tuple[float, float]
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
    h1 = schedule_h1(settings.lam, settings.eps0, settings.delta0, settings.T)
    seed_seq = np.random.SeedSequence(settings.seed)
    row_seeds = seed_seq.spawn(len(settings.h_values))

    for h, row_seed in zip(settings.h_values, row_seeds):
        row = SweepRow(h=h, lam=settings.lam, mu=settings.mu, depth=settings.depth)
        try:
            N = mesh_size_from_h(h)
            row.N = N
            mesh = build_mesh(N)
            delta = delta_schedule(h, h1, settings.delta0)
            row.delta = delta
            weights = build_weights(WeightParams(
                T=settings.T, lam=settings.lam, mu=settings.mu, delta=delta,
                x0=settings.x0, K=settings.K, eps0=settings.eps0,
                omega0=settings.omega0, omega=settings.omega,
            ))
            ok, ratio = validate_regime(weights, h)
            if not ok:
                raise RegimeError(ratio, settings.eps0)

            tree = build_tree(settings.depth, settings.T)
            region = OmegaRegion(mesh, settings.omega)
            rng_obs, rng_coeff = [np.random.default_rng(s) for s in row_seed.spawn(2)]
            coeffs = settings.coeff_factory(tree, mesh, rng_coeff)

            fit = observability_sample(
                coeffs, weights, tree, mesh, region, rng_obs,
                settings.obs_train, settings.obs_holdout, settings.c_eps,
                safety=settings.obs_safety,
            )
            row.obs_C = fit.fitted_C

            eps = float(np.exp(-settings.c_eps / h))
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
