import numpy as np
import pytest

from sdcontrol.discrete_calc import StepOperator
from sdcontrol.errors import ConfigurationError
from sdcontrol.forward_solver import (_EDGE_SIGNS, Coefficients, ControlPair, OmegaRegion,
                                      energy_growth_rate, forward_step, solve_forward)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import AdaptedField, build_tree, tree_inner


def region_controls(tree, mesh, region, rng):
    u = AdaptedField(tree, mesh, [region.indicator * a for a in
                                  AdaptedField.random(tree, mesh, rng, tree.depth).levels])
    v = AdaptedField.random(tree, mesh, rng, tree.depth)
    return ControlPair(u=u, v=v, region=region)


def first_mode(mesh):
    return np.sin(np.pi * mesh.interior)


def first_eigenvalue(h):
    return (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2


def dense_step(mesh, dt, a1):
    """I - dt*(second difference + a1) as a dense matrix on the interior."""
    ones = np.ones(mesh.N - 1)
    lap = (np.diag(ones, -1) - 2 * np.eye(mesh.N) + np.diag(ones, 1)) / mesh.h**2
    return np.eye(mesh.N) - dt * (lap + np.diag(a1))


def heat_step(mesh, dt):
    return StepOperator.drift_implicit(mesh, dt, np.zeros(mesh.N))


class TestOmegaRegion:
    def test_mask(self):
        mesh = build_mesh(9)
        region = OmegaRegion(mesh, (0.3, 0.7))
        np.testing.assert_array_equal(region.mask, (mesh.interior > 0.3) & (mesh.interior < 0.7))

    def test_mask_computed_once_and_read_only(self):
        region = OmegaRegion(build_mesh(10), (0.3, 0.7))
        assert region.mask is region.mask
        assert region.indicator is region.indicator
        with pytest.raises(ValueError):
            region.indicator[0] = 1.0
        with pytest.raises(ValueError):
            region.mask[0] = True

    def test_empty_window_rejected(self):
        mesh = build_mesh(2)
        with pytest.raises(ConfigurationError):
            OmegaRegion(mesh, (0.4, 0.6))

    def test_bad_interval(self):
        mesh = build_mesh(5)
        with pytest.raises(ConfigurationError):
            OmegaRegion(mesh, (0.7, 0.3))


class TestForwardStep:
    def test_zero_state_stays_zero(self):
        mesh = build_mesh(6)
        z = np.zeros(mesh.N)
        out = forward_step(heat_step(mesh, 0.1), 0.1, z, z, z, z, np.ones(mesh.N), 1.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_pure_heat_step_is_contraction(self):
        mesh = build_mesh(8)
        rng = np.random.default_rng(0)
        z = np.zeros(mesh.N)
        step = heat_step(mesh, 0.05)
        for _ in range(20):
            y = rng.standard_normal(mesh.N)
            out = forward_step(step, 0.05, y, z, z, z, np.ones(mesh.N), 1.0)
            assert np.sqrt(mesh.h) * np.linalg.norm(out) <= np.sqrt(mesh.h) * np.linalg.norm(y) + 1e-15

    def test_single_noise_source(self):
        mesh = build_mesh(5)
        dt = 0.2
        c, j = 1.7, 2
        e_j = np.zeros(mesh.N)
        e_j[j] = c
        zeros = np.zeros(mesh.N)
        out = forward_step(heat_step(mesh, dt), dt, zeros, zeros, e_j, zeros, np.ones(mesh.N), 1.0)
        # oracle: dense solve of (I - dt*D2) x = c*sqrt(dt)*e_j
        oracle = np.linalg.solve(dense_step(mesh, dt, zeros), np.sqrt(dt) * e_j)
        np.testing.assert_allclose(out, oracle, rtol=1e-12)

    @pytest.mark.parametrize("nodes", [1, 4])
    def test_sample_batch_equals_per_sample_steps(self, nodes):
        # nodes == 1: one shared matrix (matmul); nodes == 4: one matrix per
        # node (prefix form).  The edge axis steps both children at once.
        mesh = build_mesh(7)
        dt = 0.1
        rng = np.random.default_rng(13)
        step = StepOperator.drift_implicit(mesh, dt, rng.uniform(-1, 1, (nodes, mesh.N)))
        region = OmegaRegion(mesh, (0.3, 0.7))
        y, u, v = (rng.standard_normal((3, 4, 1, mesh.N)) for _ in range(3))
        a2 = rng.uniform(-1, 1, (4, 1, mesh.N))
        batch = forward_step(step, dt, y, u, v, a2, region.indicator, _EDGE_SIGNS)
        assert batch.shape == (3, 4, 2, mesh.N)
        for s in range(3):
            single = forward_step(step, dt, y[s], u[s], v[s], a2, region.indicator, _EDGE_SIGNS)
            np.testing.assert_array_equal(batch[s], single)


class TestSolveForward:
    def test_superposition(self):
        mesh = build_mesh(7)
        tree = build_tree(4, 1.0)
        rng = np.random.default_rng(1)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.7, 0.9)
        region = OmegaRegion(mesh, (0.3, 0.7))
        controls = region_controls(tree, mesh, region, rng)
        y0 = rng.standard_normal(mesh.N)

        full = solve_forward(y0, controls, coeffs, tree, mesh)
        free = solve_forward(y0, None, coeffs, tree, mesh)
        forced = solve_forward(np.zeros(mesh.N), controls, coeffs, tree, mesh)
        for k in range(tree.depth + 1):
            combined = free.states.levels[k] + forced.states.levels[k]
            scale = max(1.0, np.abs(full.states.levels[k]).max())
            assert np.abs(full.states.levels[k] - combined).max() <= 1e-12 * scale

    def test_sine_mode_decay_single_step(self):
        mesh = build_mesh(9)
        tree = build_tree(1, 0.5)
        coeffs = Coefficients.zero(tree, mesh)
        y0 = first_mode(mesh)
        sol = solve_forward(y0, None, coeffs, tree, mesh)
        factor = 1.0 / (1.0 + tree.dt * first_eigenvalue(mesh.h))
        for leaf in sol.terminal:
            np.testing.assert_allclose(leaf, factor * y0, rtol=1e-12)

    def test_sine_mode_decay_multi_step(self):
        mesh = build_mesh(9)
        tree = build_tree(5, 1.0)
        coeffs = Coefficients.zero(tree, mesh)
        y0 = first_mode(mesh)
        sol = solve_forward(y0, None, coeffs, tree, mesh)
        factor = (1.0 + tree.dt * first_eigenvalue(mesh.h)) ** (-tree.depth)
        np.testing.assert_allclose(sol.terminal[0], factor * y0, rtol=1e-11)

    def test_noise_creates_leaf_variance(self):
        mesh = build_mesh(6)
        tree = build_tree(2, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.0, 2.0)
        y0 = first_mode(mesh)
        sol = solve_forward(y0, None, coeffs, tree, mesh)
        leaves = sol.terminal
        assert leaves.var(axis=0).max() > 1e-4

    def test_mean_matches_deterministic_trajectory(self):
        # with zero diffusion coupling the noise enters with zero mean
        mesh = build_mesh(8)
        tree = build_tree(6, 1.0)
        rng = np.random.default_rng(2)
        coeffs = Coefficients.from_functions(tree, mesh,
                                             lambda x, t: 0.5 * np.sin(np.pi * x),
                                             lambda x, t: np.zeros_like(x))
        region = OmegaRegion(mesh, (0.3, 0.7))
        v = AdaptedField.random(tree, mesh, rng, tree.depth)
        controls = ControlPair(u=AdaptedField.zeros(tree, mesh, tree.depth), v=v, region=region)
        sol = solve_forward(first_mode(mesh), controls, coeffs, tree, mesh)

        det = first_mode(mesh)
        for k in range(tree.depth):
            a1, _ = coeffs.at(k)
            det = np.linalg.solve(dense_step(mesh, tree.dt, a1[0]), det)
            # each child pair cancels its increment, so only the drift
            # survives in the mean
            leaf_mean = sol.states.levels[k + 1].mean(axis=0)
            scale = max(1.0, np.abs(det).max())
            assert np.abs(leaf_mean - det).max() <= 1e-12 * scale * (k + 1)

    def test_adaptedness_late_controls_do_not_touch_early_states(self):
        mesh = build_mesh(6)
        tree = build_tree(4, 1.0)
        rng = np.random.default_rng(3)
        coeffs = Coefficients.constant(tree, mesh, 0.4, 0.6)
        region = OmegaRegion(mesh, (0.3, 0.7))
        controls = region_controls(tree, mesh, region, rng)
        base = solve_forward(first_mode(mesh), controls, coeffs, tree, mesh)

        perturbed = ControlPair(u=controls.u.copy(), v=controls.v.copy(), region=region)
        perturbed.v.levels[3][:] += 5.0
        late = solve_forward(first_mode(mesh), perturbed, coeffs, tree, mesh)
        for k in range(4):
            np.testing.assert_array_equal(base.states.levels[k], late.states.levels[k])
        assert np.abs(base.states.levels[4] - late.states.levels[4]).max() > 1e-8

    def test_dominance_violation_rejected_before_stepping(self):
        mesh = build_mesh(5)
        tree = build_tree(2, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 2.5, 0.0)
        with pytest.raises(ConfigurationError):
            solve_forward(first_mode(mesh), None, coeffs, tree, mesh)

    @pytest.mark.parametrize("tree_args,N", [((4, 1.0), 5), ((4, 2.0), 6)])
    def test_coefficients_of_another_grid_rejected(self, tree_args, N):
        # Built for dt = 1/4 on N = 6; the sweep runs with dt = 1/2 or on N = 5.
        mesh = build_mesh(6)
        coeffs = Coefficients.constant(build_tree(4, 1.0), mesh, 0.5, 0.5)
        other = build_mesh(N)
        with pytest.raises(ConfigurationError, match="cannot drive a sweep"):
            solve_forward(first_mode(other), None, coeffs, build_tree(*tree_args), other)

    @pytest.mark.parametrize("name,value", [("a1", np.nan), ("a2", np.inf)])
    def test_non_finite_coefficient_names_level(self, name, value):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        levels = {"a1": [np.zeros((1, mesh.N)) for _ in range(3)],
                  "a2": [np.zeros((1, mesh.N)) for _ in range(3)]}
        levels[name][2][0, 1] = value
        with pytest.raises(ConfigurationError, match=f"coefficient {name} at level 2 is not finite"):
            Coefficients(tree, mesh, levels["a1"], levels["a2"])

    def test_control_support_validated(self):
        mesh = build_mesh(6)
        tree = build_tree(2, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        u = AdaptedField.zeros(tree, mesh, tree.depth)
        u.levels[0][0, 0] = 1.0  # x_1 lies outside (0.3, 0.7)
        with pytest.raises(ConfigurationError):
            ControlPair(u=u, v=AdaptedField.zeros(tree, mesh, tree.depth), region=region)


    def test_windowed_pair_masks_the_drift_control(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        rng = np.random.default_rng(12)
        drift = AdaptedField.random(tree, mesh, rng, tree.depth)
        v = AdaptedField.random(tree, mesh, rng, tree.depth)
        pair = ControlPair.windowed(drift, v, region, sign=-1.0)
        checked = ControlPair(
            u=AdaptedField(tree, mesh, [-region.indicator * a for a in drift.levels]),
            v=v, region=region)
        for got, ref in zip(pair.u.levels, checked.u.levels):
            np.testing.assert_array_equal(got, ref)
        assert pair.v is v and pair.region is region


class TestEnergyGrowth:
    def test_measured_rate_bounded_on_family(self):
        mesh = build_mesh(8)
        tree = build_tree(6, 1.0)
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.8, 0.8)
            sol = solve_forward(rng.standard_normal(mesh.N), None, coeffs, tree, mesh)
            worst = max(worst, energy_growth_rate(sol, coeffs))
        # growth constant stays desk-scale small; reported, not asserted sharp
        assert worst < 5.0

    def test_zero_initial_energy(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        coeffs = Coefficients.zero(tree, mesh)
        sol = solve_forward(np.zeros(mesh.N), None, coeffs, tree, mesh)
        assert energy_growth_rate(sol, coeffs) == 0.0
        assert tree_inner(tree, mesh, tree.depth, sol.terminal, sol.terminal) == 0.0
