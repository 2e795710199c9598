import threading

import numpy as np
import pytest

from sdcontrol import inequalities
from sdcontrol.backward_solver import solve_backward
from sdcontrol.errors import ConfigurationError, RegimeError, SingularSystemError
from sdcontrol.forward_solver import Coefficients, OmegaRegion, sampled_levels, uniform_levels
from sdcontrol.harness import emit_csv
from sdcontrol.hum import HumProblem
from sdcontrol.inequalities import (SourcePair, SweepSettings, _batches, carleman_ratio_study,
                                    carleman_terms, h_sweep, mesh_size_from_h,
                                    observability_sample, solve_w_equation)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree, time_pairing, tree_inner
from sdcontrol.weights import WeightParams, build_weights

from oracles import carleman_quadrature, scheduled_weights

# The seven integrals of the weighted estimate, as CarlemanTerms fields.
TERM_NAMES = ("lhs_state", "lhs_gradient", "rhs_window", "rhs_diffusion", "rhs_drift",
              "rhs_initial", "rhs_terminal")


class FixedSamples:
    """Generator stand-in for the observability fit: ``standard_normal(out=...)``
    copies the given samples into ``out`` in order, so a fit of chosen
    terminal data takes the same path as a seeded one."""

    def __init__(self, samples):
        self.samples, self.taken = list(samples), 0

    def standard_normal(self, out):
        stop = self.taken + len(out)
        assert stop <= len(self.samples), "the fit drew more samples than were given"
        out[...] = self.samples[self.taken:stop]
        self.taken = stop
        return out


def zero_sources(tree, mesh):
    levels = [np.zeros((1 << k, mesh.N)) for k in range(tree.depth)]
    return SourcePair(f=levels, g=levels)


def mild_weights(**overrides):
    # small factors keep raw exp(2*s*phi) representable for the hand oracle
    kwargs = dict(T=1.0, lam=1.1, mu=1.01, delta=0.45, x0=0.5, K=0.5)
    kwargs.update(overrides)
    return build_weights(WeightParams(**kwargs))


class TestSourceSolve:
    def test_zero_sources_zero_solution(self):
        mesh = build_mesh(5)
        tree = build_tree(4, 1.0)
        sources = zero_sources(tree, mesh)
        w = solve_w_equation(sources, tree, mesh)
        for arr in w:
            np.testing.assert_array_equal(arr, 0.0)

    @pytest.mark.parametrize("N, depth", [(2, 9), (3, 16)])
    def test_vanishing_pivot_raises_before_stepping(self, N, depth):
        # At T=1 the factorization of I + dt*D2 meets an exactly vanishing
        # pivot for these (N, depth); it fails when the operator is built,
        # before any source is read.
        mesh = build_mesh(N)
        tree = build_tree(depth, 1.0)
        sources = SourcePair(f=None, g=None)
        with pytest.raises(SingularSystemError):
            solve_w_equation(sources, tree, mesh)

    def test_exactly_singular_step_raises(self):
        # N=2, T=1, depth 9: dt equals the reciprocal of the lowest
        # second-difference eigenvalue, so I + dt*D2 is singular
        mesh = build_mesh(2)
        tree = build_tree(9, 1.0)
        sources = zero_sources(tree, mesh)
        with pytest.raises(SingularSystemError):
            solve_w_equation(sources, tree, mesh)

    def test_one_step_oracle(self):
        mesh = build_mesh(3)
        tree = build_tree(1, 0.5)
        rng = np.random.default_rng(0)
        f0 = rng.standard_normal((1, mesh.N))
        g0 = rng.standard_normal((1, mesh.N))
        sources = SourcePair(f=[f0], g=[g0])
        w = solve_w_equation(sources, tree, mesh)
        lap = (np.diag(np.full(mesh.N - 1, 1.0), -1) - 2 * np.eye(mesh.N)
               + np.diag(np.full(mesh.N - 1, 1.0), 1)) / mesh.h**2
        mat = np.eye(mesh.N) + tree.dt * lap
        root = np.sqrt(tree.dt)
        np.testing.assert_allclose(
            w[1][0], np.linalg.solve(mat, (tree.dt * f0 - root * g0)[0]), rtol=1e-12)
        np.testing.assert_allclose(
            w[1][1], np.linalg.solve(mat, (tree.dt * f0 + root * g0)[0]), rtol=1e-12)


class TestCarlemanTerms:
    def _zero_case(self):
        mesh = build_mesh(4)
        tree = build_tree(2, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        sources = zero_sources(tree, mesh)
        w = solve_w_equation(sources, tree, mesh)
        return w, sources, mild_weights(), tree, mesh, region

    def test_zero_solution_zero_terms(self):
        terms = carleman_terms(*self._zero_case())
        assert terms.lhs_total == 0.0
        assert terms.rhs_total == 0.0
        assert terms.ratio == 0.0

    def test_regime_rejection_carries_ratio(self):
        mesh = build_mesh(2)
        tree = build_tree(2, 1.0)
        region = OmegaRegion(mesh, (0.2, 0.8))
        weights = build_weights(WeightParams(T=1.0, lam=4.0, mu=1.2, delta=0.25, x0=0.5))
        sources = zero_sources(tree, mesh)
        w = solve_w_equation(sources, tree, mesh)
        with pytest.raises(RegimeError) as err:
            carleman_terms(w, sources, weights, tree, mesh, region)
        assert err.value.ratio == pytest.approx(4.0 / 3 / 0.25, rel=1e-12)

    def test_quadratic_homogeneity(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        weights = mild_weights()
        rng = np.random.default_rng(1)
        sources = SourcePair.random(tree, mesh, rng)
        w = solve_w_equation(sources, tree, mesh)
        terms = carleman_terms(w, sources, weights, tree, mesh, region)

        doubled_sources = SourcePair(f=[2 * a for a in sources.f], g=[2 * a for a in sources.g])
        w2 = [2 * a for a in w]
        terms2 = carleman_terms(w2, doubled_sources, weights, tree, mesh, region)
        for name in TERM_NAMES:
            assert getattr(terms2, name) == pytest.approx(4 * getattr(terms, name), rel=1e-12)
        assert terms2.ratio == pytest.approx(terms.ratio, rel=1e-12)

    def test_nonnegativity_of_every_term(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        weights = mild_weights()
        rng = np.random.default_rng(2)
        for _ in range(10):
            sources = SourcePair.random(tree, mesh, rng)
            w = solve_w_equation(sources, tree, mesh)
            terms = carleman_terms(w, sources, weights, tree, mesh, region)
            for name in TERM_NAMES:
                assert getattr(terms, name) >= 0.0, name

    def test_stationary_hand_quadrature(self):
        # time-constant state on two points and one step, with the drift
        # source that holds it: every integral is a short explicit sum,
        # evaluated here independently with raw weights
        mesh = build_mesh(2)
        tree = build_tree(1, 1.0)
        region = OmegaRegion(mesh, (0.25, 0.75))
        weights = mild_weights()

        w_vec = np.array([1.0, -0.5])
        lap = (np.array([[-2.0, 1.0], [1.0, -2.0]]) / mesh.h**2)
        f_vec = lap @ w_vec
        sources = SourcePair(f=[f_vec[np.newaxis, :]], g=[np.zeros((1, mesh.N))])
        w = [w_vec[np.newaxis, :], np.vstack([w_vec, w_vec])]

        terms = carleman_terms(w, sources, weights, tree, mesh, region)
        shift = np.exp(-2.0 * terms.log_shift)

        x_int = mesh.interior
        x_star = np.array([1 / 6, 1 / 2, 5 / 6])
        s0, sT = weights.s(0.0), weights.s(1.0)
        grad = np.diff(np.concatenate([[0.0], w_vec, [0.0]])) / mesh.h

        lhs_state = 1.0 * s0**3 * mesh.h * (np.exp(2 * s0 * weights.phi(x_int)) * w_vec**2).sum()
        lhs_grad = 1.0 * s0 * mesh.h * (np.exp(2 * s0 * weights.phi(x_star)) * grad**2).sum()
        rhs_window = 1.0 * s0**3 * mesh.h * (
            region.indicator * np.exp(2 * s0 * weights.phi(x_int)) * w_vec**2).sum()
        rhs_drift = 1.0 * mesh.h * (np.exp(2 * s0 * weights.phi(x_int)) * f_vec**2).sum()
        rhs_t0 = mesh.h * (np.exp(2 * s0 * weights.phi(x_int)) * w_vec**2).sum() / mesh.h**2
        rhs_tT = mesh.h * (np.exp(2 * sT * weights.phi(x_int)) * w_vec**2).sum() / mesh.h**2

        assert terms.lhs_state == pytest.approx(shift * lhs_state, rel=1e-12)
        assert terms.lhs_gradient == pytest.approx(shift * lhs_grad, rel=1e-12)
        assert terms.rhs_window == pytest.approx(shift * rhs_window, rel=1e-12)
        assert terms.rhs_drift == pytest.approx(shift * rhs_drift, rel=1e-12)
        assert terms.rhs_diffusion == 0.0
        assert terms.rhs_initial == pytest.approx(shift * rhs_t0, rel=1e-12)
        assert terms.rhs_terminal == pytest.approx(shift * rhs_tT, rel=1e-12)
        assert np.isfinite(terms.ratio)

    def test_ratio_study_finite_and_stable(self):
        rng = np.random.default_rng(3)
        maxima = []
        for N in (8, 17):
            mesh = build_mesh(N)
            tree = build_tree(6, 1.0)
            region = OmegaRegion(mesh, (0.3, 0.7))
            weights = scheduled_weights(mesh)
            ratios = carleman_ratio_study(weights, tree, mesh, region, rng, 20)
            assert np.isfinite(ratios).all()
            maxima.append(ratios.max())
        assert max(maxima) <= 5.0 * min(maxima)


    @pytest.mark.parametrize("N, samples", [(8, 1), (8, 32), (8, 33), (17, 16)])
    def test_batched_study_equals_per_sample_loop(self, N, samples):
        # depth 6: 32 samples fill one batch at N=8, 15 at N=17
        mesh = build_mesh(N)
        tree = build_tree(6, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        weights = scheduled_weights(mesh)
        ratios = carleman_ratio_study(weights, tree, mesh, region,
                                      np.random.default_rng(21), samples)
        rng = np.random.default_rng(21)
        ref = []
        for _ in range(samples):
            sources = SourcePair.random(tree, mesh, rng)
            w = solve_w_equation(sources, tree, mesh)
            ref.append(carleman_terms(w, sources, weights, tree, mesh, region).ratio)
        np.testing.assert_allclose(ratios, ref, rtol=1e-12)

    @pytest.mark.parametrize("N", [8, 17])
    def test_terms_match_the_level_by_level_quadrature(self, N):
        mesh = build_mesh(N)
        tree = build_tree(6, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        weights = scheduled_weights(mesh)
        sources = SourcePair.random(tree, mesh, np.random.default_rng(13), shape=(5,))
        w = solve_w_equation(sources, tree, mesh)
        terms = carleman_terms(w, sources, weights, tree, mesh, region)
        oracle = carleman_quadrature(w, sources, weights, tree, mesh, region)
        for name in TERM_NAMES:
            assert getattr(terms, name).shape == (5,), name
            np.testing.assert_allclose(getattr(terms, name), oracle[name], rtol=1e-12,
                                       err_msg=name)

    def test_batched_terms_match_single_terms(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        weights = mild_weights()
        rng = np.random.default_rng(8)
        singles = [SourcePair.random(tree, mesh, rng) for _ in range(3)]
        batch = SourcePair(f=[np.stack(lv) for lv in zip(*(p.f for p in singles))],
                           g=[np.stack(lv) for lv in zip(*(p.g for p in singles))])
        terms = carleman_terms(solve_w_equation(batch, tree, mesh), batch, weights, tree, mesh,
                               region)
        for i, sources in enumerate(singles):
            single = carleman_terms(solve_w_equation(sources, tree, mesh), sources, weights,
                                    tree, mesh, region)
            for name in TERM_NAMES:
                assert getattr(terms, name)[i] == pytest.approx(getattr(single, name),
                                                                rel=1e-12), name
            assert terms.ratio[i] == pytest.approx(single.ratio, rel=1e-12)


def fit_coefficients(kind, tree, mesh, a2=0.5):
    """Constant coefficients, or the other kinds the fit steps differently:
    time-dependent sinusoids (a shared operator and a2 row per level),
    adapted a2 on constant a1 (shared operators, a2 per node) and adapted
    a1 and a2 (an operator per node)."""
    if kind == "constant":
        return Coefficients.constant(tree, mesh, 0.5, a2)
    if kind == "sinusoid":
        return Coefficients(
            tree, mesh, sampled_levels(tree, mesh, lambda x, t: 0.5 * np.sin(np.pi * x + t)),
            sampled_levels(tree, mesh, lambda x, t: a2 * np.cos(2 * np.pi * x - t)))
    rng = np.random.default_rng(17)
    if kind == "adapted_a2":
        return Coefficients(tree, mesh, [np.full((1, mesh.N), 0.5)] * tree.depth,
                            uniform_levels(tree, mesh, rng, a2))
    return Coefficients.adapted_random(tree, mesh, rng, 0.5, a2)


class TestObservability:
    def _setup(self, N=8, depth=5, omega=(0.3, 0.7), a2=0.5, seed=0, kind="constant"):
        mesh = build_mesh(N)
        tree = build_tree(depth, 1.0)
        region = OmegaRegion(mesh, omega)
        coeffs = fit_coefficients(kind, tree, mesh, a2)
        weights = scheduled_weights(mesh)
        rng = np.random.default_rng(seed)
        return mesh, tree, region, coeffs, weights, rng

    def test_zero_sample_excluded(self):
        mesh, tree, region, coeffs, weights, rng = self._setup()
        leaves = tree.num_nodes(tree.depth)
        data = [np.zeros((leaves, mesh.N))] + [rng.standard_normal((leaves, mesh.N))
                                               for _ in range(3)]
        fit = observability_sample(coeffs, weights, tree, mesh, region, FixedSamples(data),
                                   2, 2, 1.0)
        assert fit.excluded == 1
        assert fit.samples == 4

    @pytest.mark.parametrize("a2, terminal_scale", [(1e200, 1.0), (0.5, 1.5e153)])
    def test_overflowed_sample_makes_the_fit_non_finite(self, a2, terminal_scale):
        # A huge a2 turns every term NaN; smooth leaf data this large
        # overflows the terminal term alone, while lhs and the other terms
        # stay finite.  Neither sample is an all-zero exclusion.
        mesh, tree, region, coeffs, weights, rng = self._setup(a2=a2)
        leaves = tree.num_nodes(tree.depth)
        data = [np.tile(terminal_scale * np.sin(np.pi * mesh.interior), (leaves, 1)),
                rng.standard_normal((leaves, mesh.N))]
        with np.errstate(over="ignore", invalid="ignore"):
            fit = observability_sample(coeffs, weights, tree, mesh, region,
                                       FixedSamples(data), 2, 0, 1.0)
        assert fit.excluded == 0
        assert not np.isfinite(fit.fitted_C)

    def test_ratio_invariant_under_scaling(self):
        mesh, tree, region, coeffs, weights, rng = self._setup()
        leaves = tree.num_nodes(tree.depth)
        zT = rng.standard_normal((leaves, mesh.N))
        fit = observability_sample(coeffs, weights, tree, mesh, region,
                                   FixedSamples([zT, 7.0 * zT]), 1, 1, 1.0)
        ratio_a = fit.train_ratios[0]
        ratio_b = fit.holdout_ratios[0]
        assert abs(ratio_a - ratio_b) <= 1e-13 * max(ratio_a, 1e-30)

    def test_deterministic_suboracle_full_window(self):
        # deterministic terminal data with no diffusion coupling: the
        # martingale component vanishes and the bound reduces to a
        # deterministic observability check with a finite constant
        mesh, tree, region, coeffs, weights, rng = self._setup(
            omega=(0.0, 1.0), a2=0.0)
        leaves = tree.num_nodes(tree.depth)
        zT = np.tile(np.sin(np.pi * mesh.interior), (leaves, 1))
        fit = observability_sample(coeffs, weights, tree, mesh, region,
                                   FixedSamples([zT, 2.0 * zT]), 1, 1, 1.0)
        assert fit.rhs_terms["diffusion"][0] <= 1e-20
        assert np.isfinite(fit.fitted_C) and fit.fitted_C > 0

    def test_holdout_no_violations_small_sample(self):
        mesh, tree, region, coeffs, weights, rng = self._setup(seed=4)
        fit = observability_sample(coeffs, weights, tree, mesh, region, rng, 50, 50, 1.0)
        assert fit.holdout_violations == 0
        assert fit.fitted_C > 0
        assert fit.bound_C == pytest.approx(2.0 * fit.fitted_C)

    def test_h_scaled_variant_scales_terminal_group(self):
        mesh, tree, region, coeffs, weights, rng = self._setup(seed=5)
        leaves = tree.num_nodes(tree.depth)
        data = [rng.standard_normal((leaves, mesh.N)) for _ in range(2)]
        plain = observability_sample(coeffs, weights, tree, mesh, region,
                                     FixedSamples(data), 1, 1, 1.0)
        scaled = observability_sample(coeffs, weights, tree, mesh, region,
                                      FixedSamples(data), 1, 1, 1.0, terminal_h_scaling=True)
        np.testing.assert_allclose(scaled.rhs_terms["terminal"],
                                   plain.rhs_terms["terminal"] / mesh.h**2, rtol=1e-12)

    @pytest.mark.parametrize("depth, train, holdout", [
        (5, 1, 1),     # two samples, one batch
        (5, 32, 32),   # exactly one batch of 64 at N=8, depth 5
        (5, 32, 33),   # one batch and one sample
        (11, 2, 1),    # one sample fills a batch at N=8, depth 11
    ])
    def test_batched_fit_equals_per_sample_loop(self, depth, train, holdout):
        self._check_fit_against_per_sample_loop(depth, train, holdout, "constant")

    @pytest.mark.parametrize("kind", ["sinusoid", "adapted_a2", "adapted"])
    @pytest.mark.parametrize("depth, train, holdout", [(5, 1, 1), (5, 32, 33), (11, 2, 1)])
    def test_fit_on_other_coefficients_equals_per_sample_loop(self, depth, train, holdout,
                                                              kind):
        self._check_fit_against_per_sample_loop(depth, train, holdout, kind)

    def _check_fit_against_per_sample_loop(self, depth, train, holdout, kind):
        mesh, tree, region, coeffs, weights, _ = self._setup(depth=depth, kind=kind)
        total = train + holdout
        fit = observability_sample(coeffs, weights, tree, mesh, region,
                                   np.random.default_rng(6), train, holdout, 1.0)
        rng = np.random.default_rng(6)
        data = [rng.standard_normal((tree.num_nodes(depth), mesh.N)) for _ in range(total)]
        lhs, diffusion, window, terminal = (np.empty(total) for _ in range(4))
        eps_factor = np.exp(-1.0 / mesh.h)
        for i, zT in enumerate(data):
            sol = solve_backward(zT, coeffs)
            lhs[i] = tree_inner(tree, mesh, 0, sol.z0, sol.z0)
            diffusion[i] = time_pairing(tree, mesh, sol.Z, sol.Z)
            z = [zeta + tree.dt * a2 * Z for zeta, a2, Z in zip(sol.zeta, coeffs.a2_levels, sol.Z)]
            window[i] = time_pairing(tree, mesh, z, z, region.indicator)
            terminal[i] = eps_factor * tree_inner(tree, mesh, depth, zT, zT)
        ratios = lhs / (diffusion + window + terminal)
        fitted = ratios[:train].max()

        np.testing.assert_allclose(fit.lhs, lhs, rtol=1e-12)
        for name, ref in (("diffusion", diffusion), ("window", window), ("terminal", terminal)):
            np.testing.assert_allclose(fit.rhs_terms[name], ref, rtol=1e-12)
        assert fit.fitted_C == pytest.approx(fitted, rel=1e-12)
        assert fit.holdout_violations == int((ratios[train:] > 2.0 * fitted).sum())
        from_data = observability_sample(coeffs, weights, tree, mesh, region,
                                         FixedSamples(data), train, holdout, 1.0)
        np.testing.assert_array_equal(from_data.lhs, fit.lhs)
        assert from_data.fitted_C == fit.fitted_C
        assert from_data.holdout_violations == fit.holdout_violations

    @pytest.mark.parametrize("depth, train, holdout", [(5, 8, 8), (5, 40, 33), (11, 2, 1)])
    def test_no_holdout_fits_the_same_training_samples(self, depth, train, holdout):
        mesh, tree, region, coeffs, weights, _ = self._setup(depth=depth)
        alone, held = (observability_sample(coeffs, weights, tree, mesh, region,
                                            np.random.default_rng(3), train, extra, 1.0)
                       for extra in (0, holdout))
        assert alone.fitted_C == held.fitted_C
        np.testing.assert_array_equal(alone.train_ratios, held.train_ratios)
        assert alone.samples == train and alone.holdout_ratios.size == 0
        assert alone.holdout_violations == 0 and alone.holdout_max_ratio == 0.0

    @pytest.mark.parametrize("train, holdout", [
        (3, 2),     # one batch
        (100, 60),  # a batch of 128 at N=8, depth 5, then a short one of 32
    ])
    def test_fit_leaves_the_generator_as_plain_draws(self, train, holdout):
        mesh, tree, region, coeffs, weights, _ = self._setup()
        rng = np.random.default_rng(11)
        observability_sample(coeffs, weights, tree, mesh, region, rng, train, holdout, 1.0)
        plain = np.random.default_rng(11)
        for start, stop in _batches(train + holdout, tree, mesh):
            plain.standard_normal((stop - start, tree.num_nodes(tree.depth), mesh.N))
        assert rng.bit_generator.state == plain.bit_generator.state

    def test_every_draw_runs_on_the_calling_thread(self):
        # four batches of 16 at N=8, depth 8
        mesh, tree, region, coeffs, weights, _ = self._setup(depth=8)

        class RecordingGenerator:
            def __init__(self):
                self.rng, self.threads = np.random.default_rng(0), []

            def standard_normal(self, out):
                self.threads.append(threading.current_thread())
                return self.rng.standard_normal(out=out)

        rng = RecordingGenerator()
        observability_sample(coeffs, weights, tree, mesh, region, rng, 40, 24, 1.0)
        assert rng.threads == [threading.current_thread()] * 4

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_failed_draw_is_raised_by_the_fit(self, failing):
        # four batches of 16 at N=8, depth 8
        mesh, tree, region, coeffs, weights, _ = self._setup(depth=8)

        class DrawFailed(Exception):
            pass

        class FailingGenerator:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(0), 0

            def standard_normal(self, out):
                self.calls += 1
                if self.calls > failing:
                    raise DrawFailed(self.calls)
                return self.rng.standard_normal(out=out)

        with pytest.raises(DrawFailed):
            observability_sample(coeffs, weights, tree, mesh, region, FailingGenerator(),
                                 40, 24, 1.0)

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_failed_sweep_stops_the_draws(self, failing, monkeypatch):
        # the first backward step of batch `failing` of four raises; no batch
        # after it is drawn.  Constant coefficients step every level with
        # the fit's shared-level step.
        mesh, tree, region, coeffs, weights, _ = self._setup(depth=8)
        calls = []
        shared_step = inequalities._shared_step

        def failing_step(*args):
            calls.append(None)
            if len(calls) > failing * tree.depth:
                raise FloatingPointError(len(calls))
            return shared_step(*args)

        class CountingGenerator:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(0), 0

            def standard_normal(self, out):
                self.calls += 1
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(inequalities, "_shared_step", failing_step)
        rng = CountingGenerator()
        with pytest.raises(FloatingPointError):
            observability_sample(coeffs, weights, tree, mesh, region, rng, 40, 24, 1.0)
        assert rng.calls == failing + 1
        assert len(calls) == failing * tree.depth + 1

    @pytest.mark.parametrize("train, holdout", [(0, 5), (5, -1)])
    def test_sample_counts_out_of_range_rejected(self, train, holdout):
        mesh, tree, region, coeffs, weights, rng = self._setup()
        with pytest.raises(ValueError, match="train >= 1 and holdout >= 0"):
            observability_sample(coeffs, weights, tree, mesh, region, rng, train, holdout, 1.0)

    def test_batches_respect_the_leaf_value_cap(self):
        assert _batches(5, build_tree(12, 1.0), build_mesh(8)) == [(i, i + 1) for i in range(5)]
        assert _batches(129, build_tree(5, 1.0), build_mesh(8)) == [(0, 128), (128, 129)]
        assert _batches(0, build_tree(5, 1.0), build_mesh(8)) == []

    def test_regime_must_hold(self):
        mesh = build_mesh(2)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.2, 0.8))
        coeffs = Coefficients.constant(tree, mesh, 0.0, 0.0)
        weights = build_weights(WeightParams(T=1.0, lam=4.0, mu=1.2, delta=0.25, x0=0.5))
        with pytest.raises(RegimeError):
            observability_sample(coeffs, weights, tree, mesh, region,
                                 np.random.default_rng(0), 2, 2, 1.0)


class TestGridChecks:
    """The sweeps take their grid from the coefficients; an entry point
    handed a grid as well checks it, and its window's mesh, before any sweep."""

    @pytest.mark.parametrize("entry", ["hum", "observability"])
    @pytest.mark.parametrize("tree_args,N", [((4, 1.0), 5), ((4, 2.0), 6)])
    def test_another_grid_rejected(self, entry, tree_args, N):
        # Built for dt = 1/4 on N = 6; the entry point is handed dt = 1/2 or N = 5.
        coeffs = Coefficients.constant(build_tree(4, 1.0), build_mesh(6), 0.5, 0.5)
        tree, mesh = build_tree(*tree_args), build_mesh(N)
        region = OmegaRegion(mesh, (0.3, 0.7))
        with pytest.raises(ConfigurationError, match="cannot drive a sweep"):
            if entry == "hum":
                HumProblem(y0=np.ones(N), coeffs=coeffs, region=region, tree=tree, mesh=mesh,
                           epsilon=1e-3)
            else:
                observability_sample(coeffs, mild_weights(), tree, mesh, region,
                                     np.random.default_rng(0), 2, 2, 1.0)

    @pytest.mark.parametrize("entry", ["hum", "observability", "carleman"])
    def test_window_of_another_mesh_rejected(self, entry):
        tree, mesh = build_tree(3, 1.0), build_mesh(8)
        coeffs = Coefficients.constant(tree, mesh, 0.5, 0.5)
        region = OmegaRegion(build_mesh(9), (0.3, 0.7))
        sources = zero_sources(tree, mesh)
        calls = {
            "hum": lambda: HumProblem(y0=np.ones(mesh.N), coeffs=coeffs, region=region,
                                      tree=tree, mesh=mesh, epsilon=1e-3),
            "observability": lambda: observability_sample(
                coeffs, mild_weights(), tree, mesh, region, np.random.default_rng(0),
                2, 2, 1.0),
            "carleman": lambda: carleman_terms(solve_w_equation(sources, tree, mesh), sources,
                                               mild_weights(), tree, mesh, region),
        }
        with pytest.raises(ConfigurationError, match="N=9 cannot act on a mesh with N=8"):
            calls[entry]()

    @pytest.mark.parametrize("T", [0.5, 2.0])
    def test_carleman_tree_of_another_horizon_rejected(self, T):
        # the weights have T = 1: a shorter tree would read them early, a longer one past T
        tree, mesh = build_tree(4, T), build_mesh(8)
        sources = SourcePair.random(tree, mesh, np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match=f"tree horizon T={T:g} differs"):
            carleman_terms(solve_w_equation(sources, tree, mesh), sources, mild_weights(),
                           tree, mesh, OmegaRegion(mesh, (0.3, 0.7)))


class TestSweep:
    def _settings(self, h_values):
        return SweepSettings(
            h_values=h_values, depth=4,
            weights=WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5, K=2.0,
                                 eps0=1.0, omega0=(0.4, 0.6), omega=(0.3, 0.7)),
            c_eps=1.0,
            coeff_factory=lambda tree, mesh, rng: Coefficients.constant(tree, mesh, 0.5, 0.5),
            y0_factory=lambda mesh: np.sin(np.pi * mesh.interior),
            seed=7, cg_maxiter=4000, obs_train=8,
        )

    def test_single_h_single_row(self):
        rows = h_sweep(self._settings([1 / 8]))
        assert len(rows) == 1
        assert not rows[0].skipped
        assert rows[0].N == 7
        assert rows[0].delta == pytest.approx(0.25)

    def test_three_point_sweep_monotone(self):
        rows = h_sweep(self._settings([1 / 8, 1 / 10, 1 / 12]))
        ratios = [r.term_ratio for r in rows]
        assert all(not r.skipped for r in rows)
        assert all(ratios[i + 1] <= ratios[i] for i in range(len(ratios) - 1))
        inv_h = np.array([1 / r.h for r in rows])
        slope = np.polyfit(inv_h, np.log(ratios), 1)[0]
        assert slope < 0

    def test_out_of_schedule_h_is_skipped_with_reason(self):
        rows = h_sweep(self._settings([0.25, 1 / 8]))
        assert rows[0].skipped and "h1" in rows[0].reason
        assert not rows[1].skipped

    def test_non_mesh_h_skipped(self):
        rows = h_sweep(self._settings([0.11]))
        assert rows[0].skipped

    def test_row_skipped_before_its_mesh_writes_no_point_count(self, tmp_path):
        # h = 0.11 has no N; h = 0.25 has N = 3 but lies outside the schedule
        rows = h_sweep(self._settings([0.11, 0.25]))
        assert all(row.skipped for row in rows)
        assert rows[0].N is None and rows[1].N == 3
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path))
        lines = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert [line[4] for line in lines] == ["", "3"]

    def test_non_finite_row_is_skipped_and_blank(self, tmp_path):
        # A huge noise coefficient at the first level makes the control cost
        # overflow while every solve stays finite.
        def coeff_factory(tree, mesh, rng):
            a1 = [np.full((1, mesh.N), 0.5) for _ in range(tree.depth)]
            return Coefficients(tree, mesh, a1, [np.full((1, mesh.N), 1e155)] + a1[1:])
        settings = self._settings([1 / 8])
        settings.coeff_factory = coeff_factory
        settings.cg_maxiter = 500
        with np.errstate(over="ignore", invalid="ignore"):
            row = h_sweep(settings)[0]
        assert row.skipped
        assert row.reason == "non-finite values in cost_ratio"
        assert np.isnan(row.cost_ratio)
        path = tmp_path / "rows.csv"
        emit_csv([row], str(path))
        line = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert "inf" not in line and "nan" not in line
        assert line[9] == "" and line[12] == "true"

    def test_overflowed_observability_fit_writes_obs_C_empty(self, tmp_path):
        settings = self._settings([1 / 8])
        settings.coeff_factory = (
            lambda tree, mesh, rng: Coefficients.constant(tree, mesh, 0.5, 1e150))
        settings.cg_maxiter = 4
        with np.errstate(over="ignore", invalid="ignore"):
            row = h_sweep(settings)[0]
        assert row.skipped and np.isnan(row.obs_C)
        path = tmp_path / "rows.csv"
        emit_csv([row], str(path))
        line = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert line[7] == "" and line[12] == "true"

    def test_skipped_row_also_names_the_fields_it_blanked(self):
        # The observability fit overflows and CG then breaks down: the
        # reason keeps the breakdown and adds the blanked obs_C, and names
        # none of the values the row never computed.
        settings = self._settings([1 / 8])
        settings.coeff_factory = (
            lambda tree, mesh, rng: Coefficients.constant(tree, mesh, 0.5, 1e150))
        with np.errstate(over="ignore", invalid="ignore"):
            row = h_sweep(settings)[0]
        assert row.skipped
        assert row.reason.startswith("linear solve did not converge: ")
        assert row.reason.endswith("; non-finite values in obs_C")
        assert row.reason.count("non-finite") == 1

    def test_skipped_row_writes_the_iterations_cg_ran(self, tmp_path):
        # A stalled CG row keeps its iteration count; a row skipped before
        # CG has none, written empty like its other blank values.
        settings = self._settings([0.25, 1 / 16])
        settings.cg_maxiter = 1
        early, stalled = h_sweep(settings)
        assert early.skipped and early.cg_iters is None
        assert stalled.skipped and "stalled" in stalled.reason
        assert stalled.cg_iters == 1
        path = tmp_path / "rows.csv"
        emit_csv([early, stalled], str(path))
        lines = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert [line[10] for line in lines] == ["", "1"]

    def test_nan_coefficient_row_is_skipped_naming_it(self):
        def coeff_factory(tree, mesh, rng):
            a1 = [np.full((1, mesh.N), np.nan) for _ in range(tree.depth)]
            a2 = [np.zeros((1, mesh.N)) for _ in range(tree.depth)]
            return Coefficients(tree, mesh, a1, a2)
        settings = self._settings([1 / 8])
        settings.coeff_factory = coeff_factory
        row = h_sweep(settings)[0]
        assert row.skipped
        assert row.reason == "coefficient a1 at level 0 is not finite"

    def test_mesh_size_from_h(self):
        assert mesh_size_from_h(1 / 8) == 7
        assert mesh_size_from_h(1 / 20) == 19
        with pytest.raises(Exception):
            mesh_size_from_h(0.11)
