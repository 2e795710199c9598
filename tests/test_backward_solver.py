import numpy as np
import pytest

from sdcontrol.backward_solver import (backward_step, duality_residual,
                                       solve_backward)
from sdcontrol.discrete_calc import StepOperator
from sdcontrol.forward_solver import (Coefficients, ControlPair, OmegaRegion,
                                      solve_forward)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree

from oracles import dense_step, random_controls


def adjoint_levels(sol, coeffs):
    """The adjoint z at levels 0..depth, rebuilt from the sweep's pairings
    as ``backward_step`` forms it, with the leaf datum on top."""
    dt = coeffs.tree.dt
    return [zeta + dt * a2 * Z
            for zeta, a2, Z in zip(sol.zeta, coeffs.a2_levels, sol.Z)] + [sol.zT]


def solution_fields(sol, coeffs):
    """The rebuilt adjoint and both pairings of a sweep, by name."""
    return {"z": adjoint_levels(sol, coeffs), "zeta": sol.zeta, "Z": sol.Z}


class TestBackwardStep:
    def test_zero_terminal_data(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.0, 0.0)
        sol = solve_backward(np.zeros((8, mesh.N)), coeffs)
        for arr in adjoint_levels(sol, coeffs) + [sol.z0] + sol.Z + sol.zeta:
            np.testing.assert_array_equal(arr, 0.0)

    def test_equal_constant_children(self):
        # The shared kernel sums 2N products that cancel in pairs, so Z is
        # roundoff, bounded by N eps max(|M| |c|) / sqrt(dt), and so is
        # z - zeta = dt a2 Z (|dt a2| < 1), for one pair row alone and
        # for pair rows inside a sample batch.
        dt, c = 0.1, 2.0
        for N in (4, 8, 63):
            mesh = build_mesh(N)
            dense = dense_step(mesh, dt, np.zeros(N))
            oracle = np.linalg.solve(dense.T, np.full(N, c))
            bound = N * np.finfo(float).eps * (np.abs(np.linalg.inv(dense)) @ np.full(N, c)).max()
            bound /= np.sqrt(dt)
            step = StepOperator.drift_implicit(mesh, dt, np.zeros((1, N)))
            for shape in ((2, N), (3, 2, N)):
                z, coeff, zeta = backward_step(step, dt, np.full(shape, c), np.full((1, N), 0.7))
                assert np.abs(coeff).max() <= bound, (N, shape)
                assert np.abs(z - zeta).max() <= bound, (N, shape)
                np.testing.assert_allclose(zeta, np.broadcast_to(oracle, zeta.shape), rtol=1e-13)

    @pytest.mark.parametrize("nodes", [1, 4])
    def test_matches_dense_transposed_step(self, nodes):
        # One level with 4 parents and a leading sample axis, the step
        # shared (nodes=1, inverse) or per parent (nodes=4, prefix form).
        mesh = build_mesh(7)
        dt = 0.05
        rng = np.random.default_rng(13)
        a1 = rng.uniform(-1, 1, (nodes, mesh.N))
        a2 = rng.uniform(-1, 1, (4, mesh.N))
        children = rng.standard_normal((3, 8, mesh.N))
        got = backward_step(StepOperator.drift_implicit(mesh, dt, a1), dt, children, a2)
        zhat = np.stack([np.linalg.solve(dense_step(mesh, dt, a).T, children[:, c].T).T
                         for c, a in enumerate(np.repeat(a1, 8 // nodes, axis=0))], axis=1)
        zeta = 0.5 * (zhat[:, 1::2] + zhat[:, 0::2])
        coeff = (zhat[:, 1::2] - zhat[:, 0::2]) / (2 * np.sqrt(dt))
        for value, ref in zip(got, (zeta + dt * a2 * coeff, coeff, zeta)):
            np.testing.assert_allclose(value, ref, rtol=0, atol=1e-12)

    def test_operator_without_split_solves_then_splits(self):
        # A plain shared StepOperator(off, diag) has no split; its solve and
        # split agree with the fused path of the same drift-implicit matrix.
        mesh = build_mesh(15)
        dt = 0.05
        rng = np.random.default_rng(21)
        a1 = rng.uniform(-1, 1, (1, mesh.N))
        a2 = rng.uniform(-1, 1, (4, mesh.N))
        children = rng.standard_normal((3, 8, mesh.N))
        fused = StepOperator.drift_implicit(mesh, dt, a1)
        r = dt / mesh.h**2
        plain = StepOperator(np.full(mesh.N - 1, -r), 1.0 + 2.0 * r - dt * a1)
        assert fused.split is not None and plain.split is None
        for got, ref in zip(backward_step(plain, dt, children, a2),
                            backward_step(fused, dt, children, a2)):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("nodes", [1, 4])
    def test_rejects_rows_that_are_not_child_pairs(self, nodes):
        mesh = build_mesh(5)
        step = StepOperator.drift_implicit(mesh, 0.1, np.zeros((nodes, mesh.N)))
        a2 = np.zeros((4, mesh.N))
        for shape in [(8, 6), (2, 8, 4), (7, 5), (5,)]:
            with pytest.raises(ValueError):
                backward_step(step, 0.1, np.ones(shape), a2)

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
        coeffs = Coefficients.constant(tree, mesh, 0.0, 0.0)
        controls = ControlPair(u=[u0[np.newaxis, :]], v=[v0[np.newaxis, :]], region=region)
        yT = solve_forward(y0, controls, coeffs)
        np.testing.assert_allclose(yT, np.vstack([y_minus, y_plus]), rtol=1e-13)
        bwd = solve_backward(np.vstack([zm, zp]), coeffs)
        np.testing.assert_allclose(bwd.zeta[0][0], zeta, rtol=1e-13)
        np.testing.assert_allclose(bwd.Z[0][0], coeff, rtol=1e-13)


class TestSolveBackward:
    @pytest.mark.parametrize("N, T, a2, adapted, prefix", [
        (9, 0.9, 0.7, False, [False] * 4),                # shared: the split matmuls
        (9, 0.9, 0.7, True, [False, True, True, True]),   # per node, prefix form
        (63, 1e-6, 1e3, True, [False] * 4),               # per node, row-by-row substitution
    ])
    @pytest.mark.parametrize("samples", [(), (3,)])
    def test_pairings_rebuild_every_stepped_adjoint(self, N, T, a2, adapted, prefix, samples):
        # The solution stores no adjoint level; zeta + dt a2 Z must give the
        # z that backward_step returns, bit for bit, on every kind of level.
        # dt is no power of two and dt a2 Z is not small beside zeta, so
        # the rebuild must also multiply in backward_step's order.
        mesh, tree = build_mesh(N), build_tree(4, T)
        rng = np.random.default_rng(N)
        coeffs = (Coefficients.adapted_random(tree, mesh, rng, 0.5, a2) if adapted
                  else Coefficients.constant(tree, mesh, 0.5, a2))
        steps = coeffs.step_operators()
        assert [op.prefix_form for op in steps] == prefix
        assert [op.nodes for op in steps] == ([1, 2, 4, 8] if adapted else [1] * 4)
        zT = rng.standard_normal(samples + (tree.num_nodes(tree.depth), N))
        bwd = solve_backward(zT, coeffs)
        assert np.shares_memory(bwd.zT, zT)
        rebuilt, z = adjoint_levels(bwd, coeffs), zT
        for k in range(tree.depth - 1, -1, -1):
            z, _, _ = backward_step(steps[k], tree.dt, z, coeffs.a2_levels[k])
            assert np.array_equal(rebuilt[k], z), k
        assert np.array_equal(bwd.z0, z[..., 0, :])

    def test_linear_in_terminal_data(self):
        mesh = build_mesh(6)
        tree = build_tree(4, 1.0)
        rng = np.random.default_rng(1)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.6, 0.8)
        a = rng.standard_normal((16, mesh.N))
        b = rng.standard_normal((16, mesh.N))
        sab = solve_backward(2.0 * a - 3.0 * b, coeffs)
        sa = solve_backward(a, coeffs)
        sb = solve_backward(b, coeffs)
        zab, za, zb = (adjoint_levels(sol, coeffs) for sol in (sab, sa, sb))
        for k in range(tree.depth + 1):
            combined = 2.0 * za[k] - 3.0 * zb[k]
            scale = max(1.0, np.abs(combined).max())
            assert np.abs(zab[k] - combined).max() <= 1e-12 * scale

    @pytest.mark.parametrize("adapted", [False, True])
    def test_sample_batch_equals_separate_solves(self, adapted):
        mesh = build_mesh(7)
        tree = build_tree(5, 1.0)
        rng = np.random.default_rng(11)
        coeffs = (Coefficients.adapted_random(tree, mesh, rng, 0.6, 0.8) if adapted
                  else Coefficients.constant(tree, mesh, 0.5, 0.7))
        zT = rng.standard_normal((3, tree.num_nodes(tree.depth), mesh.N))
        batch = solve_backward(zT, coeffs)
        for s in range(zT.shape[0]):
            single = solve_backward(zT[s], coeffs)
            fields = solution_fields(single, coeffs)
            for name, got in solution_fields(batch, coeffs).items():
                ref = fields[name]
                assert len(got) == len(ref)
                for k, (g, r) in enumerate(zip(got, ref)):
                    assert g.shape == (3,) + r.shape, (name, k)
                    np.testing.assert_allclose(g[s], r, rtol=1e-13, atol=1e-13 * np.abs(r).max())
            np.testing.assert_allclose(batch.z0[s], single.z0, rtol=1e-13)

    @pytest.mark.parametrize("N, depth", [(7, 8), (8, 8), (15, 8), (8, 11)])
    def test_a_sample_sweeps_the_same_in_any_batch(self, N, depth):
        # Level 0 of a batch of one sample is one pair row; it must round
        # like the same row inside a larger batch, or a sample's adjoint
        # would move with the batch boundaries of the observability fit.
        # This holds only at widths where BLAS rounds a row of a product
        # alike for any row count, which N = 9 to 12 are not (README,
        # Determinism).
        mesh, tree = build_mesh(N), build_tree(depth, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.5, 0.7)
        zT = np.random.default_rng(N).standard_normal((3, tree.num_nodes(tree.depth), N))
        alone, *batches = [solve_backward(zT[:size], coeffs) for size in (1, 2, 3)]
        for batch in batches:
            assert np.array_equal(batch.z0[:1], alone.z0), len(batch.zT)
            fields = solution_fields(alone, coeffs)
            for name, got in solution_fields(batch, coeffs).items():
                for k, (g, r) in enumerate(zip(got, fields[name])):
                    assert np.array_equal(g[:1], r), (name, k, len(batch.zT))

    @pytest.mark.parametrize("N", [4, 7, 8, 11, 15, 31, 63])
    @pytest.mark.parametrize("depth", [3, 6, 8])
    def test_a_sweep_is_the_same_with_or_without_a_sample_axis(self, N, depth):
        # Level 0 of an unbatched sweep is one pair row, and so is level 0
        # of a batch of one sample: both must round alike.  Every product
        # has the same shapes either way, so this holds at any width, also
        # at the default sweep's N = 11, where a batch of two or more
        # samples can round differently.
        mesh, tree = build_mesh(N), build_tree(depth, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.5, 0.7)
        zT = np.random.default_rng(N + depth).standard_normal((tree.num_nodes(depth), N))
        plain, batched = solve_backward(zT, coeffs), solve_backward(zT[None], coeffs)
        assert np.array_equal(batched.z0[0], plain.z0)
        fields = solution_fields(plain, coeffs)
        for name, got in solution_fields(batched, coeffs).items():
            for k, (g, r) in enumerate(zip(got, fields[name])):
                assert np.array_equal(g[0], r), (name, k)

    @pytest.mark.parametrize("adapted_a2", [False, True])
    def test_shared_levels_match_their_per_node_copies(self, adapted_a2):
        # The same levels once as shared matrices (the split matmuls) and
        # once repeated to one matrix per node (solve + martingale_coeff).
        mesh = build_mesh(9)
        tree = build_tree(6, 1.0)
        rng = np.random.default_rng(19)
        shared = Coefficients.constant(tree, mesh, 0.5, 0.7)
        if adapted_a2:
            shared = Coefficients(tree, mesh, shared.a1_levels,
                                  Coefficients.adapted_random(tree, mesh, rng, 0.6, 0.8).a2_levels)
        repeat = [[np.repeat(a, (1 << k) // a.shape[0], axis=0) for k, a in enumerate(levels)]
                  for levels in (shared.a1_levels, shared.a2_levels)]
        per_node = Coefficients(tree, mesh, *repeat)
        assert [op.nodes for op in shared.step_operators()] == [1] * tree.depth
        assert [op.prefix_form for op in per_node.step_operators()] == [False] + [True] * 5
        zT = rng.standard_normal((3, tree.num_nodes(tree.depth), mesh.N))
        got, ref = solve_backward(zT, shared), solve_backward(zT, per_node)
        fields = solution_fields(ref, per_node)
        for name, got_levels in solution_fields(got, shared).items():
            for k, (g, r) in enumerate(zip(got_levels, fields[name])):
                assert g.shape == r.shape, (name, k)
                assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max(), (name, k)

    def test_deterministic_terminal_data_gives_zero_diffusion_component(self):
        mesh = build_mesh(7)
        tree = build_tree(4, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.5, 0.0)
        zT_single = np.sin(np.pi * mesh.interior)
        zT = np.tile(zT_single, (16, 1))
        sol = solve_backward(zT, coeffs)
        for arr in sol.Z:
            np.testing.assert_allclose(arr, 0.0, atol=1e-13)
        # matches the transposed deterministic scheme
        det = zT_single.copy()
        for k in range(tree.depth - 1, -1, -1):
            det = np.linalg.solve(dense_step(mesh, tree.dt, coeffs.a1_levels[k][0]).T, det)
        np.testing.assert_allclose(sol.z0, det, rtol=1e-12)

    def test_root_value_is_deterministic_scalar_node(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        rng = np.random.default_rng(2)
        coeffs = Coefficients.constant(tree, mesh, 0.0, 0.0)
        sol = solve_backward(rng.standard_normal((8, mesh.N)), coeffs)
        root = adjoint_levels(sol, coeffs)[0]
        assert root.shape == (1, mesh.N) and sol.z0.shape == (mesh.N,)
        np.testing.assert_array_equal(sol.z0, root[0])

    def test_martingale_reconstruction_of_transposed_children(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        rng = np.random.default_rng(3)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.5, 0.5)
        sol = solve_backward(rng.standard_normal((8, mesh.N)), coeffs)
        levels = adjoint_levels(sol, coeffs)
        root_dt = np.sqrt(tree.dt)
        for k in range(tree.depth):
            a1 = coeffs.a1_levels[k]
            a1_child = np.repeat(a1, (2 << k) // a1.shape[0], axis=0)
            zhat = np.array([np.linalg.solve(dense_step(mesh, tree.dt, a).T, z)
                             for a, z in zip(a1_child, levels[k + 1])])
            recon_plus = sol.zeta[k] + sol.Z[k] * root_dt
            recon_minus = sol.zeta[k] - sol.Z[k] * root_dt
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
            yT = solve_forward(y0, controls, coeffs)
            bwd = solve_backward(zT, coeffs)
            res, scale = duality_residual(y0, yT, bwd, controls, tree, mesh)
            assert res <= 1e-10 * scale

    def test_duality_without_controls(self):
        mesh = build_mesh(8)
        tree = build_tree(5, 1.0)
        rng = np.random.default_rng(5)
        coeffs = Coefficients.constant(tree, mesh, 0.7, 0.9)
        y0 = rng.standard_normal(mesh.N)
        zT = rng.standard_normal((32, mesh.N))
        yT = solve_forward(y0, None, coeffs)
        bwd = solve_backward(zT, coeffs)
        res, scale = duality_residual(y0, yT, bwd, None, tree, mesh)
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
            sol = solve_backward(zT, coeffs)
            errors.append(np.abs(sol.z0 - exact).max())
        ratio = errors[0] / errors[1]
        # halving dt should roughly halve the error
        assert 1.5 <= ratio <= 2.6
