import numpy as np
import pytest

from sdcontrol.backward_solver import (backward_step, duality_residual,
                                       solve_backward)
from sdcontrol.discrete_calc import StepOperator
from sdcontrol.errors import ConfigurationError
from sdcontrol.forward_solver import (Coefficients, ControlPair, OmegaRegion,
                                      solve_forward)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import AdaptedField, build_tree


def dense_step(mesh, dt, a1):
    """I - dt*(second difference + a1) as a dense matrix on the interior."""
    ones = np.ones(mesh.N - 1)
    lap = (np.diag(ones, -1) - 2 * np.eye(mesh.N) + np.diag(ones, 1)) / mesh.h**2
    return np.eye(mesh.N) - dt * (lap + np.diag(a1))


def random_controls(tree, mesh, region, rng):
    u = AdaptedField(tree, mesh, [region.indicator * a for a in
                                  AdaptedField.random(tree, mesh, rng, tree.depth).levels])
    v = AdaptedField.random(tree, mesh, rng, tree.depth)
    return ControlPair(u=u, v=v, region=region)


class TestBackwardStep:
    def test_zero_terminal_data(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        coeffs = Coefficients.zero(tree, mesh)
        sol = solve_backward(np.zeros((8, mesh.N)), coeffs, tree, mesh)
        for arr in sol.z.levels + sol.Z.levels + sol.zeta.levels:
            np.testing.assert_array_equal(arr, 0.0)

    def test_equal_constant_children(self):
        mesh = build_mesh(4)
        dt = 0.1
        c = 2.0
        children = np.full((2, mesh.N), c)
        step = StepOperator.drift_implicit(mesh, dt, np.zeros((1, mesh.N)))
        z, coeff, zeta = backward_step(step, dt, children, np.zeros((1, mesh.N)))
        np.testing.assert_array_equal(coeff, 0.0)
        np.testing.assert_array_equal(z, zeta)
        oracle = np.linalg.solve(dense_step(mesh, dt, np.zeros(mesh.N)).T, np.full(mesh.N, c))
        np.testing.assert_allclose(z[0], oracle, rtol=1e-14)

    def test_hand_duality_one_level(self):
        # N=2, one step, no reaction: everything is a 2x2 dense computation
        mesh = build_mesh(2)
        tree = build_tree(1, 1.0)
        h2 = mesh.h**2
        M = np.array([[1 + 2 / h2, -1 / h2], [-1 / h2, 1 + 2 / h2]])
        Minv = np.linalg.inv(M)

        rng = np.random.default_rng(0)
        y0 = rng.standard_normal(2)
        u0 = np.array([0.0, 0.6])  # supported at x_2 = 2/3 in (0.5, 0.9)
        v0 = rng.standard_normal(2)
        zp, zm = rng.standard_normal(2), rng.standard_normal(2)

        y_plus = Minv @ (y0 + 1.0 * u0 * np.array([0.0, 1.0]) + v0)
        y_minus = Minv @ (y0 + 1.0 * u0 * np.array([0.0, 1.0]) - v0)
        zhat_p, zhat_m = Minv.T @ zp, Minv.T @ zm
        zeta = 0.5 * (zhat_p + zhat_m)
        coeff = 0.5 * (zhat_p - zhat_m)
        lhs = 0.5 * mesh.h * (y_plus @ zp + y_minus @ zm) - mesh.h * (y0 @ zeta)
        rhs = 1.0 * mesh.h * ((u0 * np.array([0.0, 1.0])) @ zeta) + 1.0 * mesh.h * (v0 @ coeff)
        assert lhs == pytest.approx(rhs, rel=1e-12)

        # the solver reproduces the same pieces
        region = OmegaRegion(mesh, (0.5, 0.9))
        coeffs = Coefficients.zero(tree, mesh)
        controls = ControlPair(
            u=AdaptedField(tree, mesh, [u0[np.newaxis, :]]),
            v=AdaptedField(tree, mesh, [v0[np.newaxis, :]]),
            region=region,
        )
        fwd = solve_forward(y0, controls, coeffs, tree, mesh)
        np.testing.assert_allclose(fwd.terminal, np.vstack([y_minus, y_plus]), rtol=1e-13)
        bwd = solve_backward(np.vstack([zm, zp]), coeffs, tree, mesh)
        np.testing.assert_allclose(bwd.zeta.levels[0][0], zeta, rtol=1e-13)
        np.testing.assert_allclose(bwd.Z.levels[0][0], coeff, rtol=1e-13)


class TestSolveBackward:
    def test_linear_in_terminal_data(self):
        mesh = build_mesh(6)
        tree = build_tree(4, 1.0)
        rng = np.random.default_rng(1)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.6, 0.8)
        a = rng.standard_normal((16, mesh.N))
        b = rng.standard_normal((16, mesh.N))
        sab = solve_backward(2.0 * a - 3.0 * b, coeffs, tree, mesh)
        sa = solve_backward(a, coeffs, tree, mesh)
        sb = solve_backward(b, coeffs, tree, mesh)
        for k in range(tree.depth + 1):
            combined = 2.0 * sa.z.levels[k] - 3.0 * sb.z.levels[k]
            scale = max(1.0, np.abs(combined).max())
            assert np.abs(sab.z.levels[k] - combined).max() <= 1e-12 * scale

    @pytest.mark.parametrize("adapted", [False, True])
    def test_sample_batch_equals_separate_solves(self, adapted):
        mesh = build_mesh(7)
        tree = build_tree(5, 1.0)
        rng = np.random.default_rng(11)
        coeffs = (Coefficients.adapted_random(tree, mesh, rng, 0.6, 0.8) if adapted
                  else Coefficients.constant(tree, mesh, 0.5, 0.7))
        zT = rng.standard_normal((3, tree.num_nodes(tree.depth), mesh.N))
        batch = solve_backward(zT, coeffs, tree, mesh)
        for s in range(zT.shape[0]):
            single = solve_backward(zT[s], coeffs, tree, mesh)
            for name in ("z", "zeta", "Z"):
                got, ref = getattr(batch, name).levels, getattr(single, name).levels
                assert len(got) == len(ref)
                for k, (g, r) in enumerate(zip(got, ref)):
                    assert g.shape == (3,) + r.shape, (name, k)
                    np.testing.assert_allclose(g[s], r, rtol=1e-13, atol=1e-13 * np.abs(r).max())
            np.testing.assert_allclose(batch.z0[s], single.z0, rtol=1e-13)

    def test_deterministic_terminal_data_gives_zero_diffusion_component(self):
        mesh = build_mesh(7)
        tree = build_tree(4, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.5, 0.0)
        zT_single = np.sin(np.pi * mesh.interior)
        zT = np.tile(zT_single, (16, 1))
        sol = solve_backward(zT, coeffs, tree, mesh)
        for arr in sol.Z.levels:
            np.testing.assert_allclose(arr, 0.0, atol=1e-13)
        # matches the transposed deterministic scheme
        det = zT_single.copy()
        for k in range(tree.depth - 1, -1, -1):
            a1, _ = coeffs.at(k)
            det = np.linalg.solve(dense_step(mesh, tree.dt, a1[0]).T, det)
        np.testing.assert_allclose(sol.z0, det, rtol=1e-12)

    @pytest.mark.parametrize("tree_args,N", [((4, 1.0), 5), ((4, 2.0), 6)])
    def test_coefficients_of_another_grid_rejected(self, tree_args, N):
        # Built for dt = 1/4 on N = 6; the sweep runs with dt = 1/2 or on N = 5.
        mesh = build_mesh(6)
        coeffs = Coefficients.constant(build_tree(4, 1.0), mesh, 0.5, 0.5)
        with pytest.raises(ConfigurationError, match="cannot drive a sweep"):
            solve_backward(np.ones((16, N)), coeffs, build_tree(*tree_args), build_mesh(N))

    def test_root_value_is_deterministic_scalar_node(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        rng = np.random.default_rng(2)
        coeffs = Coefficients.zero(tree, mesh)
        sol = solve_backward(rng.standard_normal((8, mesh.N)), coeffs, tree, mesh)
        assert sol.z.levels[0].shape == (1, mesh.N)
        np.testing.assert_array_equal(sol.z0, sol.z.levels[0][0])

    def test_martingale_reconstruction_of_transposed_children(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        rng = np.random.default_rng(3)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.5, 0.5)
        sol = solve_backward(rng.standard_normal((8, mesh.N)), coeffs, tree, mesh)
        root_dt = np.sqrt(tree.dt)
        for k in range(tree.depth):
            a1, _ = coeffs.at(k)
            a1_child = np.repeat(a1, (2 << k) // a1.shape[0], axis=0)
            zhat = np.array([np.linalg.solve(dense_step(mesh, tree.dt, a).T, z)
                             for a, z in zip(a1_child, sol.z.levels[k + 1])])
            recon_plus = sol.zeta.levels[k] + sol.Z.levels[k] * root_dt
            recon_minus = sol.zeta.levels[k] - sol.Z.levels[k] * root_dt
            np.testing.assert_allclose(zhat[1::2], recon_plus, rtol=0, atol=1e-13)
            np.testing.assert_allclose(zhat[0::2], recon_minus, rtol=0, atol=1e-13)


class TestDuality:
    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            N = int(rng.integers(3, 12))
            depth = int(rng.integers(1, 7))
            mesh = build_mesh(N)
            tree = build_tree(depth, float(rng.uniform(0.5, 2.0)))
            mag = min(0.9, 0.8 / tree.dt)
            coeffs = Coefficients.adapted_random(tree, mesh, rng, mag, 1.2)
            region = OmegaRegion(mesh, (0.25, 0.75))
            controls = random_controls(tree, mesh, region, rng)
            y0 = rng.standard_normal(N)
            zT = rng.standard_normal((tree.num_nodes(depth), N))
            fwd = solve_forward(y0, controls, coeffs, tree, mesh)
            bwd = solve_backward(zT, coeffs, tree, mesh)
            res, scale = duality_residual(fwd, bwd, controls, tree, mesh)
            assert res <= 1e-10 * scale

    def test_duality_without_controls(self):
        mesh = build_mesh(8)
        tree = build_tree(5, 1.0)
        rng = np.random.default_rng(5)
        coeffs = Coefficients.constant(tree, mesh, 0.7, 0.9)
        y0 = rng.standard_normal(mesh.N)
        zT = rng.standard_normal((32, mesh.N))
        fwd = solve_forward(y0, None, coeffs, tree, mesh)
        bwd = solve_backward(zT, coeffs, tree, mesh)
        res, scale = duality_residual(fwd, bwd, None, tree, mesh)
        assert res <= 1e-12 * scale


class TestTimeConsistency:
    def test_first_order_in_dt_against_matrix_exponential(self):
        # constant drift coefficient, no diffusion coupling: the adjoint is a
        # linear ODE solvable by eigen-decomposition.  A short horizon keeps
        # the step error in its asymptotic regime at tree-scale step counts.
        mesh = build_mesh(4)
        a1_const = 0.4
        T = 0.2
        zT_single = np.sin(np.pi * mesh.interior) + 0.3 * np.sin(2 * np.pi * mesh.interior)

        lap = (np.diag(np.full(mesh.N - 1, 1.0), -1) - 2 * np.eye(mesh.N)
               + np.diag(np.full(mesh.N - 1, 1.0), 1)) / mesh.h**2
        generator = lap + a1_const * np.eye(mesh.N)
        evals, evecs = np.linalg.eigh(generator)
        exact = evecs @ (np.exp(T * evals) * (evecs.T @ zT_single))

        errors = []
        for depth in (4, 8):
            tree = build_tree(depth, T)
            coeffs = Coefficients.constant(tree, mesh, a1_const, 0.0)
            zT = np.tile(zT_single, (tree.num_nodes(depth), 1))
            sol = solve_backward(zT, coeffs, tree, mesh)
            errors.append(np.abs(sol.z0 - exact).max())
        ratio = errors[0] / errors[1]
        # halving dt should roughly halve the error
        assert 1.5 <= ratio <= 2.6
