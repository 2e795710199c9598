import numpy as np
import pytest

from sdcontrol.errors import ConfigurationError, ConvergenceError
from sdcontrol.forward_solver import Coefficients, OmegaRegion
from sdcontrol.hum import (HumProblem, conjugate_gradient, epsilon_from_mesh,
                           evaluate_functional, free_terminal_state,
                           functional_gradient, gramian_apply, report_bounds,
                           solve_hum)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree, tree_inner


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
        from sdcontrol.backward_solver import solve_backward
        z = rng.standard_normal((8, 5))
        lam_zz = tree_inner(problem.tree, problem.mesh, 3, gramian_apply(z, problem), z)
        bwd = solve_backward(z, problem.coeffs, problem.tree, problem.mesh)
        acc = 0.0
        for k in range(3):
            n = problem.tree.num_nodes(k)
            acc += problem.tree.dt * problem.mesh.h * (bwd.Z.levels[k] ** 2).sum() / n
            acc += problem.tree.dt * problem.mesh.h * (
                problem.region.indicator * bwd.zeta.levels[k] ** 2).sum() / n
        assert lam_zz == pytest.approx(acc, rel=1e-10)


class TestConjugateGradient:
    def test_matches_dense_solve(self):
        problem, rng = small_problem(seed=4)
        mat = dense_gramian(problem) + problem.epsilon * np.eye(64)
        b = rng.standard_normal(64)
        x_dense = np.linalg.solve(mat, b)
        x_cg, res = conjugate_gradient(
            lambda z: gramian_apply(z.reshape(16, 4), problem).ravel()
            + problem.epsilon * z, b, 1e-12, 500)
        assert np.linalg.norm(x_cg - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
        assert res[-1] <= 1e-12

    def test_zero_rhs_short_circuits(self):
        x, res = conjugate_gradient(lambda z: z, np.zeros(10), 1e-10, 5)
        np.testing.assert_array_equal(x, 0.0)
        assert res == []

    @pytest.mark.parametrize("maxiter", [0, -1])
    def test_maxiter_below_one_rejected(self, maxiter):
        with pytest.raises(ValueError, match="maxiter"):
            conjugate_gradient(lambda z: z, np.ones(5), 1e-10, maxiter)

    def test_maxiter_exhaustion_raises_with_history(self):
        rng = np.random.default_rng(5)
        diag = rng.uniform(1, 100, 50)
        b = rng.standard_normal(50)
        with pytest.raises(ConvergenceError) as err:
            conjugate_gradient(lambda z: diag * z, b, 1e-14, 3)
        assert len(err.value.residuals) == 3

    def test_indefinite_operator_raises_with_history(self):
        diag = np.array([1.0, 2.0, 3.0, 4.0, -1.0])
        with pytest.raises(ConvergenceError, match=r"iteration 2: p\.Ap = -") as err:
            conjugate_gradient(lambda z: diag * z, np.ones(5), 1e-12, 50)
        assert len(err.value.residuals) == 1

    def test_non_finite_operator_raises(self):
        with pytest.raises(ConvergenceError, match="p.Ap = nan") as err:
            conjugate_gradient(lambda z: np.full_like(z, np.nan), np.ones(5), 1e-12, 50)
        assert err.value.residuals == []


class TestSolveHum:
    def test_zero_initial_state(self):
        problem, _ = small_problem(seed=6)
        problem.y0 = np.zeros(problem.mesh.N)
        sol = solve_hum(problem)
        np.testing.assert_array_equal(sol.zT_star, 0.0)
        np.testing.assert_array_equal(sol.terminal, 0.0)
        for arr in sol.controls.u.levels + sol.controls.v.levels:
            np.testing.assert_array_equal(arr, 0.0)
        report = report_bounds(sol, problem)
        assert (report.cost_ratio, report.terminal_ratio,
                report.terminal_to_penalty_ratio) == (0.0, 0.0, 0.0)

    def test_minimizer_matches_dense_normal_equations(self):
        problem, _ = small_problem(seed=7, cg_tol=1e-12)
        sol = solve_hum(problem)
        mat = dense_gramian(problem) + problem.epsilon * np.eye(64)
        b = free_terminal_state(problem).ravel()
        z_dense = np.linalg.solve(mat, b)
        assert np.linalg.norm(sol.zT_star.ravel() - z_dense) <= 1e-8 * np.linalg.norm(z_dense)

    def test_closure_within_residual_bound(self):
        rng = np.random.default_rng(8)
        for seed in range(4):
            eps = 10.0 ** rng.uniform(-6, -2)
            problem, _ = small_problem(N=6, depth=5, eps=eps, seed=seed)
            sol = solve_hum(problem)
            assert sol.closure_error <= max(sol.closure_bound, 1e-13)

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
            problem.y0 = np.sin(np.pi * problem.mesh.interior)
            sol = solve_hum(problem)
            ratios.append(report_bounds(sol, problem).cost_ratio)
        assert max(ratios) <= 10.0 * min(ratios)

    def test_coefficients_of_another_tree_rejected(self):
        # Coefficients built for dt = 1/4 driving a problem on a tree with dt = 1/2.
        mesh = build_mesh(4)
        coeffs = Coefficients.constant(build_tree(4, 1.0), mesh, 0.5, 0.5)
        problem = HumProblem(y0=np.ones(mesh.N), coeffs=coeffs,
                             region=OmegaRegion(mesh, (0.3, 0.7)), tree=build_tree(4, 2.0),
                             mesh=mesh, epsilon=1e-3)
        with pytest.raises(ConfigurationError, match="cannot drive a sweep"):
            solve_hum(problem)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            small_problem(eps=0.0)


class TestFunctional:
    def test_gradient_matches_central_differences(self):
        problem, rng = small_problem(seed=10)
        z = rng.standard_normal((16, 4))
        b = free_terminal_state(problem)
        grad = functional_gradient(problem, z, b)
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
