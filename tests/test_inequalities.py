import numpy as np
import pytest

from sdcontrol.backward_solver import solve_backward
from sdcontrol.errors import RegimeError, SingularSystemError
from sdcontrol.forward_solver import Coefficients, OmegaRegion
from sdcontrol.harness import emit_csv
from sdcontrol.inequalities import (SourcePair, SweepSettings, _batches, carleman_ratio_study,
                                    carleman_terms, h_sweep, mesh_size_from_h,
                                    observability_sample, solve_w_equation)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import AdaptedField, build_tree, time_pairing, tree_inner
from sdcontrol.weights import WeightParams, build_weights


def mild_weights(**overrides):
    # small factors keep raw exp(2*s*phi) representable for the hand oracle
    kwargs = dict(T=1.0, lam=1.1, mu=1.01, delta=0.45, x0=0.5, K=0.5)
    kwargs.update(overrides)
    return build_weights(WeightParams(**kwargs))


def scheduled_weights(mesh, lam=2.0, mu=1.2, delta0=0.25, eps0=1.0, T=1.0):
    return build_weights(WeightParams(T=T, lam=lam, mu=mu, delta=delta0, x0=0.5,
                                      eps0=eps0).at_mesh(mesh.h))


class TestSourceSolve:
    def test_zero_sources_zero_solution(self):
        mesh = build_mesh(5)
        tree = build_tree(4, 1.0)
        sources = SourcePair(f=AdaptedField.zeros(tree, mesh, tree.depth),
                             g=AdaptedField.zeros(tree, mesh, tree.depth))
        w = solve_w_equation(sources, tree, mesh)
        for arr in w.levels:
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
        sources = SourcePair(f=AdaptedField.zeros(tree, mesh, tree.depth),
                             g=AdaptedField.zeros(tree, mesh, tree.depth))
        with pytest.raises(SingularSystemError):
            solve_w_equation(sources, tree, mesh, w0=np.ones(mesh.N))

    def test_one_step_oracle(self):
        mesh = build_mesh(3)
        tree = build_tree(1, 0.5)
        rng = np.random.default_rng(0)
        f0 = rng.standard_normal((1, mesh.N))
        g0 = rng.standard_normal((1, mesh.N))
        sources = SourcePair(f=AdaptedField(tree, mesh, [f0]),
                             g=AdaptedField(tree, mesh, [g0]))
        w = solve_w_equation(sources, tree, mesh)
        lap = (np.diag(np.full(mesh.N - 1, 1.0), -1) - 2 * np.eye(mesh.N)
               + np.diag(np.full(mesh.N - 1, 1.0), 1)) / mesh.h**2
        mat = np.eye(mesh.N) + tree.dt * lap
        root = np.sqrt(tree.dt)
        np.testing.assert_allclose(
            w.levels[1][0], np.linalg.solve(mat, (tree.dt * f0 - root * g0)[0]), rtol=1e-12)
        np.testing.assert_allclose(
            w.levels[1][1], np.linalg.solve(mat, (tree.dt * f0 + root * g0)[0]), rtol=1e-12)


class TestCarlemanTerms:
    def _zero_case(self):
        mesh = build_mesh(4)
        tree = build_tree(2, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        sources = SourcePair(f=AdaptedField.zeros(tree, mesh, tree.depth),
                             g=AdaptedField.zeros(tree, mesh, tree.depth))
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
        sources = SourcePair(f=AdaptedField.zeros(tree, mesh, tree.depth),
                             g=AdaptedField.zeros(tree, mesh, tree.depth))
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

        doubled_sources = SourcePair(
            f=AdaptedField(tree, mesh, [2 * a for a in sources.f.levels]),
            g=AdaptedField(tree, mesh, [2 * a for a in sources.g.levels]))
        w2 = AdaptedField(tree, mesh, [2 * a for a in w.levels])
        terms2 = carleman_terms(w2, doubled_sources, weights, tree, mesh, region)
        for name, value in terms.all_terms().items():
            assert terms2.all_terms()[name] == pytest.approx(4 * value, rel=1e-12)
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
            for name, value in terms.all_terms().items():
                assert value >= 0.0, name

    def test_stationary_hand_quadrature(self):
        # time-constant state on two points and one step: every integral is
        # a short explicit sum, evaluated here independently with raw weights
        mesh = build_mesh(2)
        tree = build_tree(1, 1.0)
        region = OmegaRegion(mesh, (0.25, 0.75))
        weights = mild_weights()

        w_vec = np.array([1.0, -0.5])
        lap = (np.array([[-2.0, 1.0], [1.0, -2.0]]) / mesh.h**2)
        f_vec = lap @ w_vec
        sources = SourcePair(f=AdaptedField(tree, mesh, [f_vec[np.newaxis, :]]),
                             g=AdaptedField(tree, mesh, [np.zeros((1, mesh.N))]))
        w = solve_w_equation(sources, tree, mesh, w0=w_vec)
        np.testing.assert_allclose(w.levels[1], np.vstack([w_vec, w_vec]), rtol=1e-12)

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

    def test_batched_terms_match_single_terms(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        weights = mild_weights()
        rng = np.random.default_rng(8)
        singles = [SourcePair.random(tree, mesh, rng) for _ in range(3)]
        batch = SourcePair(
            f=AdaptedField(tree, mesh, [np.stack(lv) for lv in zip(*(p.f.levels for p in singles))]),
            g=AdaptedField(tree, mesh, [np.stack(lv) for lv in zip(*(p.g.levels for p in singles))]))
        terms = carleman_terms(solve_w_equation(batch, tree, mesh), batch, weights, tree, mesh,
                               region)
        for i, sources in enumerate(singles):
            single = carleman_terms(solve_w_equation(sources, tree, mesh), sources, weights,
                                    tree, mesh, region)
            for name, value in single.all_terms().items():
                assert terms.all_terms()[name][i] == pytest.approx(value, rel=1e-12), name
            assert terms.ratio[i] == pytest.approx(single.ratio, rel=1e-12)


class TestObservability:
    def _setup(self, N=8, depth=5, omega=(0.3, 0.7), a2=0.5, seed=0):
        mesh = build_mesh(N)
        tree = build_tree(depth, 1.0)
        region = OmegaRegion(mesh, omega)
        coeffs = Coefficients.constant(tree, mesh, 0.5, a2)
        weights = scheduled_weights(mesh)
        rng = np.random.default_rng(seed)
        return mesh, tree, region, coeffs, weights, rng

    def test_zero_sample_excluded(self):
        mesh, tree, region, coeffs, weights, rng = self._setup()
        leaves = tree.num_nodes(tree.depth)
        data = [np.zeros((leaves, mesh.N))] + [rng.standard_normal((leaves, mesh.N))
                                               for _ in range(3)]
        fit = observability_sample(coeffs, weights, tree, mesh, region, rng,
                                   2, 2, 1.0, terminal_data=data)
        assert fit.excluded == 1
        assert fit.samples == 4

    def test_ratio_invariant_under_scaling(self):
        mesh, tree, region, coeffs, weights, rng = self._setup()
        leaves = tree.num_nodes(tree.depth)
        zT = rng.standard_normal((leaves, mesh.N))
        fit = observability_sample(coeffs, weights, tree, mesh, region, rng,
                                   1, 1, 1.0, terminal_data=[zT, 7.0 * zT])
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
        fit = observability_sample(coeffs, weights, tree, mesh, region, rng,
                                   1, 1, 1.0, terminal_data=[zT, 2.0 * zT])
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
                                     np.random.default_rng(0), 1, 1, 1.0,
                                     terminal_data=data)
        scaled = observability_sample(coeffs, weights, tree, mesh, region,
                                      np.random.default_rng(0), 1, 1, 1.0,
                                      terminal_data=data, terminal_h_scaling=True)
        np.testing.assert_allclose(scaled.rhs_terms["terminal"],
                                   plain.rhs_terms["terminal"] / mesh.h**2, rtol=1e-12)

    @pytest.mark.parametrize("depth, train, holdout", [
        (5, 1, 1),     # two samples, one batch
        (5, 32, 32),   # exactly one batch of 64 at N=8, depth 5
        (5, 32, 33),   # one batch and one sample
        (11, 2, 1),    # one sample fills a batch at N=8, depth 11
    ])
    def test_batched_fit_equals_per_sample_loop(self, depth, train, holdout):
        mesh, tree, region, coeffs, weights, _ = self._setup(depth=depth)
        total = train + holdout
        fit = observability_sample(coeffs, weights, tree, mesh, region,
                                   np.random.default_rng(6), train, holdout, 1.0)
        rng = np.random.default_rng(6)
        data = [rng.standard_normal((tree.num_nodes(depth), mesh.N)) for _ in range(total)]
        lhs, diffusion, window, terminal = (np.empty(total) for _ in range(4))
        eps_factor = np.exp(-1.0 / mesh.h)
        for i, zT in enumerate(data):
            sol = solve_backward(zT, coeffs, tree, mesh)
            lhs[i] = tree_inner(tree, mesh, 0, sol.z0, sol.z0)
            diffusion[i] = time_pairing(tree, mesh, sol.Z, sol.Z)
            window[i] = time_pairing(tree, mesh, sol.z, sol.z, region.indicator)
            terminal[i] = eps_factor * tree_inner(tree, mesh, depth, zT, zT)
        ratios = lhs / (diffusion + window + terminal)
        fitted = ratios[:train].max()

        np.testing.assert_allclose(fit.lhs, lhs, rtol=1e-12)
        for name, ref in (("diffusion", diffusion), ("window", window), ("terminal", terminal)):
            np.testing.assert_allclose(fit.rhs_terms[name], ref, rtol=1e-12)
        assert fit.fitted_C == pytest.approx(fitted, rel=1e-12)
        assert fit.holdout_violations == int((ratios[train:] > 2.0 * fitted).sum())
        from_data = observability_sample(coeffs, weights, tree, mesh, region, None, train,
                                         holdout, 1.0, terminal_data=data)
        np.testing.assert_array_equal(from_data.lhs, fit.lhs)
        assert from_data.fitted_C == fit.fitted_C
        assert from_data.holdout_violations == fit.holdout_violations

    def test_batches_respect_the_leaf_value_cap(self):
        assert _batches(5, build_tree(11, 1.0), build_mesh(8)) == [(i, i + 1) for i in range(5)]
        assert _batches(65, build_tree(5, 1.0), build_mesh(8)) == [(0, 64), (64, 65)]
        assert _batches(0, build_tree(5, 1.0), build_mesh(8)) == []

    def test_regime_must_hold(self):
        mesh = build_mesh(2)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.2, 0.8))
        coeffs = Coefficients.zero(tree, mesh)
        weights = build_weights(WeightParams(T=1.0, lam=4.0, mu=1.2, delta=0.25, x0=0.5))
        with pytest.raises(RegimeError):
            observability_sample(coeffs, weights, tree, mesh, region,
                                 np.random.default_rng(0), 2, 2, 1.0)


class TestSweep:
    def _settings(self, h_values):
        return SweepSettings(
            h_values=h_values, depth=4,
            weights=WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5, K=2.0,
                                 eps0=1.0, omega0=(0.4, 0.6), omega=(0.3, 0.7)),
            c_eps=1.0,
            coeff_factory=lambda tree, mesh, rng: Coefficients.constant(tree, mesh, 0.5, 0.5),
            y0_factory=lambda mesh: np.sin(np.pi * mesh.interior),
            seed=7, cg_maxiter=4000, obs_train=8, obs_holdout=8,
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

    def test_non_finite_row_is_skipped_and_blank(self, tmp_path):
        # A huge noise coefficient at the first level makes the control cost
        # overflow while every solve stays finite.
        def coeff_factory(tree, mesh, rng):
            coeffs = Coefficients.constant(tree, mesh, 0.5, 0.5)
            coeffs.a2_levels[0] = np.full((1, mesh.N), 1e155)
            return coeffs
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
