import dataclasses
import tracemalloc

import numpy as np
import pytest

from sdcontrol.discrete_calc import StepOperator
from sdcontrol.errors import ConfigurationError, ConvergenceError
from sdcontrol.backward_solver import solve_backward
from sdcontrol.forward_solver import Coefficients, OmegaRegion, sampled_levels, solve_forward
from sdcontrol.hum import (HumProblem, conjugate_gradient, epsilon_from_mesh,
                           evaluate_functional, gramian_apply, report_bounds,
                           riccati_levels, riccati_preconditioner, solve_hum)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree, time_pairing, tree_inner


def small_problem(N=4, depth=4, eps=1e-3, seed=0, coeff_mag=(0.5, 0.5), **kwargs):
    mesh = build_mesh(N)
    tree = build_tree(depth, 1.0)
    rng = np.random.default_rng(seed)
    coeffs = Coefficients.adapted_random(tree, mesh, rng, *coeff_mag)
    region = OmegaRegion(mesh, (0.3, 0.7))
    y0 = rng.standard_normal(mesh.N)
    return HumProblem(y0=y0, coeffs=coeffs, region=region, tree=tree, mesh=mesh,
                      epsilon=eps, **kwargs), rng


def dense_gramian(problem):
    dim = problem.tree.num_nodes(problem.tree.depth) * problem.mesh.N
    mat = np.empty((dim, dim))
    shape = (problem.tree.num_nodes(problem.tree.depth), problem.mesh.N)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        mat[:, j] = gramian_apply(e.reshape(shape), problem).ravel()
    return mat


def preconditioner_matrix(problem):
    """The Riccati preconditioner applied to every unit leaf vector."""
    shape = (problem.tree.num_nodes(problem.tree.depth), problem.mesh.N)
    precondition = riccati_preconditioner(problem)
    return np.column_stack([precondition(e.reshape(shape)).ravel()
                            for e in np.eye(shape[0] * shape[1])])


class TestGramian:
    def test_zero_maps_to_zero(self):
        problem, _ = small_problem()
        z = np.zeros((16, 4))
        np.testing.assert_array_equal(gramian_apply(z, problem), 0.0)

    def test_symmetry_random_pairs(self):
        problem, rng = small_problem(N=6, depth=4, seed=1)
        shape = (16, 6)
        for _ in range(5):
            a, b = rng.standard_normal(shape), rng.standard_normal(shape)
            lab = tree_inner(problem.tree, problem.mesh, 4, gramian_apply(a, problem), b)
            lba = tree_inner(problem.tree, problem.mesh, 4, a, gramian_apply(b, problem))
            assert abs(lab - lba) <= 1e-10 * max(abs(lab), abs(lba), 1e-30)

    def test_dense_assembly_symmetric_psd_and_matches_matrix_free(self):
        problem, rng = small_problem(seed=2)
        mat = dense_gramian(problem)
        scale = np.abs(mat).max()
        assert np.abs(mat - mat.T).max() <= 1e-10 * max(scale, 1e-30)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigs.min() >= -1e-10

        z = rng.standard_normal(64)
        applied = gramian_apply(z.reshape(16, 4), problem).ravel()
        np.testing.assert_allclose(applied, mat @ z, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(mat @ z).max()))

    def test_quadratic_form_equals_control_energies(self):
        problem, rng = small_problem(N=5, depth=3, seed=3)
        z = rng.standard_normal((8, 5))
        lam_zz = tree_inner(problem.tree, problem.mesh, 3, gramian_apply(z, problem), z)
        bwd = solve_backward(z, problem.coeffs)
        acc = 0.0
        for k in range(3):
            n = problem.tree.num_nodes(k)
            acc += problem.tree.dt * problem.mesh.h * (bwd.Z[k] ** 2).sum() / n
            acc += problem.tree.dt * problem.mesh.h * (
                problem.region.indicator * bwd.zeta[k] ** 2).sum() / n
        assert lam_zz == pytest.approx(acc, rel=1e-10)


    @pytest.mark.parametrize("adapted", [False, True])
    def test_batch_from_rest_equals_per_sample(self, adapted):
        # The forward sweep starts from np.zeros(N) and its controls carry
        # the batch's sample axis, which the state lacks at first.
        problem, rng = small_problem(N=9, depth=5, seed=5)
        if not adapted:
            problem = dataclasses.replace(
                problem, coeffs=Coefficients.constant(problem.tree, problem.mesh, 0.5, 0.5))
        z = rng.standard_normal((3, 32, 9))
        batch = gramian_apply(z, problem)
        assert batch.shape == z.shape
        for s in range(3):
            np.testing.assert_array_equal(batch[s], gramian_apply(z[s], problem))


def dense_shift_operator(problem):
    shape = (problem.tree.num_nodes(problem.tree.depth), problem.mesh.N)
    return lambda z: (gramian_apply(z.reshape(shape), problem).ravel()
                      + problem.epsilon * z)


class TestConjugateGradient:
    def test_matches_dense_solve(self):
        problem, rng = small_problem(seed=4)
        mat = dense_gramian(problem) + problem.epsilon * np.eye(64)
        b = rng.standard_normal(64)
        x_dense = np.linalg.solve(mat, b)
        x_cg, res = conjugate_gradient(dense_shift_operator(problem), b, 1e-12, 500, np.copy)
        assert np.linalg.norm(x_cg - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
        assert res[-1] <= 1e-12

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_dense_operator_matches_dense_oracle(self, preconditioned):
        # The vectors are updated in place; b and the operator's matrices
        # must come out untouched and the solve must match the dense one.
        problem, rng = small_problem(seed=6)
        mat = dense_gramian(problem) + problem.epsilon * np.eye(64)
        pre = preconditioner_matrix(problem)
        b = rng.standard_normal(64)
        kept = b.copy(), mat.copy(), pre.copy()
        x_cg, res = conjugate_gradient(lambda z: mat @ z, b, 1e-12, 500,
                                       (lambda r: pre @ r) if preconditioned else np.copy)
        x_dense = np.linalg.solve(mat, b)
        assert res[-1] <= 1e-12
        assert np.linalg.norm(x_cg - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
        for a, k in zip((b, mat, pre), kept):
            assert np.array_equal(a, k)

    def test_operator_returning_its_argument(self):
        # the identity may hand back the direction itself, which the in-place
        # updates must not scale
        b = np.array([1.0, -2.0, 3.0])
        for precondition in (np.copy, lambda r: r):
            x, res = conjugate_gradient(lambda z: z, b, 1e-12, 5, precondition)
            np.testing.assert_array_equal(x, b)
            assert res == [0.0]

    def test_tiny_rhs_is_solved_not_taken_for_zero(self):
        # ||b||^2 underflows to 0 here; the solve must still scale with b.
        diag = np.linspace(1.0, 10.0, 20)
        b = np.full(20, 1e-200)
        x, res = conjugate_gradient(lambda z: diag * z, b, 1e-12, 50, np.copy)
        assert res and res[-1] <= 1e-12
        np.testing.assert_allclose(x, b / diag, rtol=1e-12)

    @pytest.mark.parametrize("precondition, shown", [
        (lambda r: -r, r"r\.Mr = -"),
        (lambda r: np.full_like(r, np.nan), r"r\.Mr = nan"),
    ])
    def test_non_spd_preconditioner_raises(self, precondition, shown):
        with pytest.raises(ConvergenceError, match=shown) as err:
            conjugate_gradient(lambda z: 2.0 * z, np.ones(5), 1e-12, 50, precondition)
        assert err.value.residuals == []

    def test_zero_rhs_short_circuits(self):
        x, res = conjugate_gradient(lambda z: z, np.zeros(10), 1e-10, 5, np.copy)
        np.testing.assert_array_equal(x, 0.0)
        assert res == []

    @pytest.mark.parametrize("maxiter", [0, -1])
    def test_maxiter_below_one_rejected(self, maxiter):
        with pytest.raises(ValueError, match="maxiter"):
            conjugate_gradient(lambda z: z, np.ones(5), 1e-10, maxiter, np.copy)

    def test_maxiter_exhaustion_raises_with_history(self):
        rng = np.random.default_rng(5)
        diag = rng.uniform(1, 100, 50)
        b = rng.standard_normal(50)
        with pytest.raises(ConvergenceError) as err:
            conjugate_gradient(lambda z: diag * z, b, 1e-14, 3, np.copy)
        assert len(err.value.residuals) == 3

    def test_stall_names_the_best_residual(self):
        # the CG residual is not monotone: this history's last entry is not its smallest
        diag = np.logspace(0, 4, 20)
        b = np.random.default_rng(4).standard_normal(20)
        with pytest.raises(ConvergenceError) as err:
            conjugate_gradient(lambda z: diag * z, b, 1e-14, 4, np.copy)
        residuals = err.value.residuals
        best = int(np.argmin(residuals))
        assert residuals[best] < residuals[-1]
        assert f"the best was {residuals[best]:.3e} at iteration {best + 1}" in str(err.value)

    def test_indefinite_operator_raises_with_history(self):
        diag = np.array([1.0, 2.0, 3.0, 4.0, -1.0])
        with pytest.raises(ConvergenceError, match=r"iteration 2: p\.Ap = -") as err:
            conjugate_gradient(lambda z: diag * z, np.ones(5), 1e-12, 50, np.copy)
        assert len(err.value.residuals) == 1

    def test_non_finite_operator_raises(self):
        with pytest.raises(ConvergenceError, match="p.Ap = nan") as err:
            conjugate_gradient(lambda z: np.full_like(z, np.nan), np.ones(5), 1e-12, 50, np.copy)
        assert err.value.residuals == []


class TestRiccatiPreconditioner:
    @pytest.mark.parametrize("a1", [0.0, 0.5])
    @pytest.mark.parametrize("a2", [0.0, 0.5])
    def test_inverts_shared_coefficients(self, a1, a2):
        mesh, tree = build_mesh(5), build_tree(3, 1.0)
        problem = HumProblem(y0=np.ones(5), coeffs=Coefficients.constant(tree, mesh, a1, a2),
                             region=OmegaRegion(mesh, (0.3, 0.7)), tree=tree, mesh=mesh,
                             epsilon=1e-2)
        inverse = np.linalg.inv(dense_gramian(problem) + problem.epsilon * np.eye(40))
        applied = preconditioner_matrix(problem)
        assert np.abs(applied - inverse).max() <= 1e-12 * np.abs(inverse).max()

    @pytest.mark.parametrize("interval", [(0.3, 0.7), (0.0, 0.4), (0.0, 1.0)])
    def test_inverts_time_varying_shared_coefficients(self, interval):
        # every level has its own a1, a2 and step inverse, so a map built
        # from another level's factors cannot pass; the windows take the
        # middle, the first and all of the grid points
        mesh, tree = build_mesh(5), build_tree(3, 1.0)
        coeffs = Coefficients(tree, mesh,
                              sampled_levels(tree, mesh, lambda x, t: np.cos(3 * t) - x),
                              sampled_levels(tree, mesh, lambda x, t: 0.5 + t * np.sin(4 * x)))
        problem = HumProblem(y0=np.ones(5), coeffs=coeffs, region=OmegaRegion(mesh, interval),
                             tree=tree, mesh=mesh, epsilon=1e-2)
        inverse = np.linalg.inv(dense_gramian(problem) + problem.epsilon * np.eye(40))
        applied = preconditioner_matrix(problem)
        assert np.abs(applied - inverse).max() <= 1e-12 * np.abs(inverse).max()

    def test_adapted_coefficients_invert_the_node_mean_problem(self):
        problem, _ = small_problem(N=5, depth=3, eps=1e-2, seed=7)
        coeffs = problem.coeffs
        means = Coefficients(problem.tree, problem.mesh,
                             [a.mean(axis=0, keepdims=True) for a in coeffs.a1_levels],
                             [a.mean(axis=0, keepdims=True) for a in coeffs.a2_levels])
        mean_problem = HumProblem(y0=problem.y0, coeffs=means, region=problem.region,
                                  tree=problem.tree, mesh=problem.mesh, epsilon=problem.epsilon)
        inverse = np.linalg.inv(dense_gramian(mean_problem) + problem.epsilon * np.eye(40))
        applied = preconditioner_matrix(problem)
        assert np.abs(applied - inverse).max() <= 1e-12 * np.abs(inverse).max()

    @pytest.mark.parametrize("a1_adapted, a2_adapted", [(False, False), (True, True),
                                                         (False, True)])
    def test_factors_only_the_mean_path_operators(self, a1_adapted, a2_adapted, monkeypatch):
        # levels with one shared step matrix reuse the sweeps' own cached
        # operators; a level with one per node needs a mean-path operator,
        # which level 0 (one node) never has
        mesh, tree = build_mesh(5), build_tree(4, 1.0)
        adapted = Coefficients.adapted_random(tree, mesh, np.random.default_rng(3), 0.5, 0.5)
        constant = Coefficients.constant(tree, mesh, 0.5, 0.5)
        coeffs = Coefficients(tree, mesh, (adapted if a1_adapted else constant).a1_levels,
                              (adapted if a2_adapted else constant).a2_levels)
        problem = HumProblem(y0=np.ones(5), coeffs=coeffs, region=OmegaRegion(mesh, (0.3, 0.7)),
                             tree=tree, mesh=mesh, epsilon=1e-2)
        coeffs.step_operators()
        built = []
        original = StepOperator.__init__

        def counted(self, *args):
            built.append(self)
            original(self, *args)
        monkeypatch.setattr(StepOperator, "__init__", counted)
        riccati_preconditioner(problem)
        assert len(built) == (tree.depth - 1 if a1_adapted else 0)

    def test_adapted_coefficients_pcg_beats_plain_cg(self):
        # criterion 8's problem: the mean-path preconditioner takes fewer
        # iterations than plain CG (criterion 8 checks the PCG solution
        # against the dense oracle)
        problem, rng = small_problem(seed=108, eps=2e-4)
        b = solve_forward(problem.y0, None, problem.coeffs).ravel()
        precondition = riccati_preconditioner(problem)
        _, res = conjugate_gradient(dense_shift_operator(problem), b, 1e-12, 1000,
                                    lambda r: precondition(r.reshape(16, 4)).ravel())
        _, res_cg = conjugate_gradient(dense_shift_operator(problem), b, 1e-12, 1000, np.copy)
        assert len(res) < len(res_cg)


class TestRiccatiLevels:
    def _shared(self, depth, N, a1, a2):
        mesh, tree = build_mesh(N), build_tree(depth, 1.0)
        coeffs = Coefficients.constant(tree, mesh, a1, a2)
        region = OmegaRegion(mesh, (0.3, 0.7))
        return coeffs, region, epsilon_from_mesh(1.0, mesh.h)

    @pytest.mark.parametrize("depth, N, a1, a2", [
        (4, 5, 0.5, 0.5), (4, 11, 0.0, 0.0), (8, 7, 0.3, -0.7), (8, 11, 0.0, 0.0),
    ])
    def test_optimal_cost_from_P0_matches_solve_hum(self, depth, N, a1, a2):
        coeffs, region, eps = self._shared(depth, N, a1, a2)
        y0 = np.random.default_rng(depth * N).standard_normal(N)
        _, P0 = riccati_levels(coeffs, region, eps)
        problem = HumProblem(y0=y0, coeffs=coeffs, region=region, tree=coeffs.tree,
                             mesh=coeffs.mesh, epsilon=eps)
        sol = solve_hum(problem)
        optimum = coeffs.mesh.h * y0 @ P0 @ y0
        np.testing.assert_allclose(-0.5 * optimum, sol.functional_value, rtol=1e-9)
        # strong duality: the priced controls plus the penalised terminal
        # state of the controlled forward sweep reach the same optimum
        report = report_bounds(sol, problem)
        np.testing.assert_allclose(sol.control_cost + report.terminal_energy / eps, optimum,
                                   rtol=1e-9)

    @pytest.mark.parametrize("depth, N", [(4, 7), (8, 11)])
    def test_P0_symmetric_positive_semidefinite(self, depth, N):
        # semidefinite to roundoff: at depth 8 the smallest eigenvalue is ~ -1e-20
        _, P0 = riccati_levels(*self._shared(depth, N, 0.5, 0.5))
        np.testing.assert_array_equal(P0, P0.T)
        eigs = np.linalg.eigvalsh(P0)
        assert eigs.min() >= -1e-12 * eigs.max()


class TestSolveHum:
    def test_zero_initial_state(self):
        problem, _ = small_problem(seed=6)
        problem = dataclasses.replace(problem, y0=np.zeros(problem.mesh.N))
        sol = solve_hum(problem)
        np.testing.assert_array_equal(sol.zT_star, 0.0)
        np.testing.assert_array_equal(sol.terminal, 0.0)
        assert sol.control_cost == 0.0
        report = report_bounds(sol, problem)
        assert (report.cost_ratio, report.terminal_ratio,
                report.terminal_to_penalty_ratio) == (0.0, 0.0, 0.0)

    def test_minimizer_matches_dense_normal_equations(self):
        problem, _ = small_problem(seed=7, cg_tol=1e-12)
        sol = solve_hum(problem)
        mat = dense_gramian(problem) + problem.epsilon * np.eye(64)
        b = solve_forward(problem.y0, None, problem.coeffs).ravel()
        z_dense = np.linalg.solve(mat, b)
        assert np.linalg.norm(sol.zT_star.ravel() - z_dense) <= 1e-8 * np.linalg.norm(z_dense)

    def test_closure_within_residual_bound(self):
        rng = np.random.default_rng(8)
        for seed in range(4):
            eps = 10.0 ** rng.uniform(-6, -2)
            problem, _ = small_problem(N=6, depth=5, eps=eps, seed=seed)
            sol = solve_hum(problem)
            assert sol.closure_error <= max(sol.closure_bound, 1e-13)
            z, b = sol.zT_star, sol.free_terminal
            true = np.linalg.norm(gramian_apply(z, problem) + eps * z - b) / np.linalg.norm(b)
            assert sol.true_rel_residual == pytest.approx(true, rel=1e-2)
            assert sol.true_rel_residual <= problem.cg_tol

    def test_closure_bound_holds_when_the_last_step_overshoots(self):
        # The default sweep's h = 1/16 row: the second PCG step cuts the
        # recursive residual to ~1e-16, far below the true residual's
        # roundoff floor; the reported history must still bound the closure.
        mesh, tree = build_mesh(15), build_tree(8, 1.0)
        problem = HumProblem(y0=np.sin(np.pi * mesh.interior),
                             coeffs=Coefficients.constant(tree, mesh, 0.5, 0.5),
                             region=OmegaRegion(mesh, (0.3, 0.7)), tree=tree, mesh=mesh,
                             epsilon=epsilon_from_mesh(1.0, 1 / 16))
        sol = solve_hum(problem)
        assert sol.closure_error <= sol.closure_bound
        assert sol.true_rel_residual <= problem.cg_tol

    def test_functional_value_reuses_the_synthesis_sweep(self, monkeypatch):
        import sdcontrol.hum as hum
        calls = {"solve_backward": 0, "gramian_apply": 0}

        def counted(name):
            original = getattr(hum, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper
        for name in calls:
            monkeypatch.setattr(hum, name, counted(name))
        problem, _ = small_problem(seed=12)
        sol = solve_hum(problem)
        # every Gramian apply sweeps once, the synthesis once, nothing else
        assert calls["solve_backward"] == calls["gramian_apply"] + 1
        assert sol.functional_value == evaluate_functional(problem, sol.zT_star)

    @pytest.mark.parametrize("adapted", [False, True])
    def test_control_cost_is_the_cost_of_the_negated_pairings(self, adapted):
        # The synthesis keeps no controls: its cost must be, bit for bit,
        # that of the controls (-zeta, -Z) of the sweep from the minimizer.
        problem, _ = small_problem(N=7, depth=6, seed=13)
        if not adapted:
            problem = dataclasses.replace(
                problem, coeffs=Coefficients.constant(problem.tree, problem.mesh, 0.5, 0.5))
        sol = solve_hum(problem)
        bwd = solve_backward(sol.zT_star, problem.coeffs)
        u, v = [-a for a in bwd.zeta], [-a for a in bwd.Z]
        tree, mesh = problem.tree, problem.mesh
        cost = (time_pairing(tree, mesh, v, v)
                + time_pairing(tree, mesh, u, u, problem.region.indicator))
        assert cost > 0.0
        assert sol.control_cost == cost
        assert report_bounds(sol, problem).control_cost == cost

    def test_terminal_energy_identity_at_closure(self):
        problem, _ = small_problem(seed=9, eps=1e-3, cg_tol=1e-13)
        sol = solve_hum(problem)
        tree, mesh = problem.tree, problem.mesh
        eT = tree_inner(tree, mesh, tree.depth, sol.terminal, sol.terminal)
        ez = tree_inner(tree, mesh, tree.depth, sol.zT_star, sol.zT_star)
        assert eT == pytest.approx(problem.epsilon**2 * ez, rel=1e-6)

    def test_cost_ratio_stable_across_seeds(self):
        ratios = []
        for seed in range(5):
            problem, _ = small_problem(N=6, depth=5, eps=1e-4, seed=seed)
            problem = dataclasses.replace(problem, y0=np.sin(np.pi * problem.mesh.interior))
            sol = solve_hum(problem)
            ratios.append(report_bounds(sol, problem).cost_ratio)
        assert max(ratios) <= 10.0 * min(ratios)

    def test_coefficients_of_another_tree_rejected(self):
        # Coefficients built for dt = 1/4 driving a problem on a tree with dt = 1/2.
        mesh = build_mesh(4)
        coeffs = Coefficients.constant(build_tree(4, 1.0), mesh, 0.5, 0.5)
        with pytest.raises(ConfigurationError, match="cannot drive a sweep"):
            HumProblem(y0=np.ones(mesh.N), coeffs=coeffs, region=OmegaRegion(mesh, (0.3, 0.7)),
                       tree=build_tree(4, 2.0), mesh=mesh, epsilon=1e-3)

    def test_fields_fixed_after_the_checks(self):
        # The grid is checked only when the problem is built.
        problem, _ = small_problem()
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.tree = build_tree(4, 2.0)
        with pytest.raises(ConfigurationError, match="cannot drive a sweep"):
            dataclasses.replace(problem, tree=build_tree(4, 2.0))

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            small_problem(eps=0.0)


class TestFunctional:
    def test_gradient_matches_central_differences(self):
        problem, rng = small_problem(seed=10)
        z = rng.standard_normal((16, 4))
        b = solve_forward(problem.y0, None, problem.coeffs)
        grad = gramian_apply(z, problem) + problem.epsilon * z - b
        tree, mesh = problem.tree, problem.mesh
        step = 1e-3
        for _ in range(20):
            d = rng.standard_normal((16, 4))
            fd = (evaluate_functional(problem, z + step * d)
                  - evaluate_functional(problem, z - step * d)) / (2 * step)
            analytic = tree_inner(tree, mesh, tree.depth, grad, d)
            assert fd == pytest.approx(analytic, rel=1e-6)

    def test_coercivity_floor(self):
        problem, _ = small_problem(seed=11, eps=2e-3)
        mat = dense_gramian(problem) + problem.epsilon * np.eye(64)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigs.min() >= problem.epsilon - 1e-10

    def test_epsilon_from_mesh(self):
        assert epsilon_from_mesh(1.0, 0.125) == pytest.approx(np.exp(-8.0))
        with pytest.raises(ConfigurationError):
            epsilon_from_mesh(-1.0, 0.1)


def traced_peak_in_fields(problem, fn):
    """tracemalloc peak of fn() above what is allocated when it starts, in
    fields of 2^(depth+1)*N doubles (all levels of one tree field)."""
    field = 2 ** (problem.tree.depth + 1) * problem.mesh.N * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / field
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peaks at N = 15, depth 10 with a matrix per node.  The Gramian apply
    measures 2.0 fields (3.3 when it kept every backward level through
    the forward sweep) and solve_hum 4.5 (7.3 with a copy of b and
    allocating CG updates); the bounds leave about 25 % margin."""

    @pytest.fixture(scope="class")
    def problem(self):
        problem, _ = small_problem(N=15, depth=10, eps=1e-4, seed=7)
        problem.coeffs.step_operators()
        return problem

    def test_gramian_apply_peak(self, problem):
        z = np.random.default_rng(7).standard_normal((1 << 10, 15))
        assert traced_peak_in_fields(problem, lambda: gramian_apply(z, problem)) <= 2.5

    def test_solve_hum_peak(self, problem):
        assert traced_peak_in_fields(problem, lambda: solve_hum(problem)) <= 5.6
