import numpy as np
import pytest

from sdcontrol.discrete_calc import StepOperator
from sdcontrol.errors import ConfigurationError
from sdcontrol.forward_solver import (Coefficients, ControlPair, OmegaRegion, forward_step,
                                      sampled_levels, solve_forward)
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import build_tree, random_levels, tree_inner

from oracles import dense_step, random_controls


def zero_field(tree, mesh):
    return [np.zeros((1 << k, mesh.N)) for k in range(tree.depth)]


def first_mode(mesh):
    return np.sin(np.pi * mesh.interior)


def first_eigenvalue(h):
    return (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2


def state_levels(y0, controls, coeffs):
    """The state at levels 0..depth, stepped with ``forward_step`` as
    ``solve_forward`` steps it; the mirror of the backward tests'
    ``adjoint_levels``, for the tests that read inner levels."""
    tree, steps = coeffs.tree, coeffs.step_operators()
    levels = [np.asarray(y0, dtype=float).reshape(1, coeffs.mesh.N)]
    for k in range(tree.depth):
        u = v = 0.0
        if controls is not None:
            u, v = controls.region.indicator * controls.u[k], controls.v[k]
        levels.append(forward_step(steps[k], tree.dt, levels[k], u, v, coeffs.a2_levels[k]))
    return levels


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
        z = np.zeros((1, mesh.N))
        out = forward_step(heat_step(mesh, 0.1), 0.1, z, z, z, z)
        assert out.shape == (2, mesh.N)
        np.testing.assert_array_equal(out, 0.0)

    def test_pure_heat_step_is_contraction(self):
        mesh = build_mesh(8)
        rng = np.random.default_rng(0)
        z = np.zeros((1, mesh.N))
        step = heat_step(mesh, 0.05)
        for _ in range(20):
            y = rng.standard_normal((1, mesh.N))
            out = forward_step(step, 0.05, y, z, z, z)
            norms = np.sqrt(mesh.h) * np.linalg.norm(out, axis=-1)
            assert (norms <= np.sqrt(mesh.h) * np.linalg.norm(y) + 1e-15).all()

    def test_single_noise_source(self):
        mesh = build_mesh(5)
        dt = 0.2
        c, j = 1.7, 2
        e_j = np.zeros((1, mesh.N))
        e_j[0, j] = c
        zeros = np.zeros((1, mesh.N))
        out = forward_step(heat_step(mesh, dt), dt, zeros, zeros, e_j, zeros)
        # oracle: dense solve of (I - dt*D2) x = c*sqrt(dt)*e_j, times the
        # sign of each child's increment on a one-step tree with this dt
        oracle = np.linalg.solve(dense_step(mesh, dt, zeros[0]), np.sqrt(dt) * e_j[0])
        for child, sign in enumerate(build_tree(1, dt).edge_signs(1)):
            np.testing.assert_allclose(out[child], sign * oracle, rtol=1e-12)

    @pytest.mark.parametrize("nodes", [1, 4])
    def test_sample_batch_equals_per_sample_steps(self, nodes):
        # nodes == 1: one shared matrix (matmul); nodes == 4: one matrix per
        # node (prefix form).  Both children of every node step at once.
        mesh = build_mesh(7)
        dt = 0.1
        rng = np.random.default_rng(13)
        step = StepOperator.drift_implicit(mesh, dt, rng.uniform(-1, 1, (nodes, mesh.N)))
        region = OmegaRegion(mesh, (0.3, 0.7))
        y, u, v = (rng.standard_normal((3, 4, mesh.N)) for _ in range(3))
        u *= region.indicator
        a2 = rng.uniform(-1, 1, (4, mesh.N))
        batch = forward_step(step, dt, y, u, v, a2)
        assert batch.shape == (3, 8, mesh.N)
        for s in range(3):
            single = forward_step(step, dt, y[s], u[s], v[s], a2)
            np.testing.assert_array_equal(batch[s], single)

    @pytest.mark.parametrize("nodes", [1, 4])
    @pytest.mark.parametrize("batched", ["controls", "a2"])
    def test_sample_axis_that_the_state_lacks(self, nodes, batched):
        # The children take the broadcast shape of all operands, not the
        # state's: a state from np.zeros(N) (a sweep from rest) stepped by
        # batched controls, or one node level stepped with a batch of a2.
        mesh = build_mesh(7)
        dt = 0.1
        rng = np.random.default_rng(17)
        step = StepOperator.drift_implicit(mesh, dt, rng.uniform(-1, 1, (nodes, mesh.N)))
        rows = 4 if nodes == 4 or batched == "a2" else 1
        if batched == "controls":
            y = np.zeros(mesh.N) if rows == 1 else np.zeros((rows, mesh.N))
            u, v = (rng.standard_normal((3, rows, mesh.N)) for _ in range(2))
            a2 = rng.uniform(-1, 1, (rows, mesh.N))
            per_sample = [(u[s], v[s], a2) for s in range(3)]
        else:
            y, u, v = (rng.standard_normal((rows, mesh.N)) for _ in range(3))
            a2 = rng.uniform(-1, 1, (3, rows, mesh.N))
            per_sample = [(u, v, a2[s]) for s in range(3)]
        operands = [y, u, v, a2]
        kept = [a.copy() for a in operands]
        batch = forward_step(step, dt, y, u, v, a2)
        assert batch.shape == (3, 2 * rows, mesh.N)
        for a, b in zip(operands, kept):
            assert np.array_equal(a, b)
        for s, (us, vs, a2s) in enumerate(per_sample):
            np.testing.assert_array_equal(batch[s], forward_step(step, dt, y, us, vs, a2s))


class TestSolveForward:
    @pytest.mark.parametrize("N, T, a2, adapted, prefix", [
        (9, 0.9, 0.7, False, [False] * 4),                # shared: one inverse per level
        (9, 0.9, 0.7, True, [False, True, True, True]),   # per node, prefix form
        (63, 1e-6, 1e3, True, [False] * 4),               # per node, row-by-row substitution
    ])
    @pytest.mark.parametrize("controlled", [False, True])
    def test_returns_the_stepped_leaves(self, N, T, a2, adapted, prefix, controlled):
        # The sweep keeps one level; its leaves must be those of stepping
        # every level with forward_step, bit for bit, and y0 stays untouched.
        mesh, tree = build_mesh(N), build_tree(4, T)
        rng = np.random.default_rng(N)
        coeffs = (Coefficients.adapted_random(tree, mesh, rng, 0.5, a2) if adapted
                  else Coefficients.constant(tree, mesh, 0.5, a2))
        steps = coeffs.step_operators()
        assert [op.prefix_form for op in steps] == prefix
        assert [op.nodes for op in steps] == ([1, 2, 4, 8] if adapted else [1] * 4)
        controls = (random_controls(tree, mesh, OmegaRegion(mesh, (0.3, 0.7)), rng)
                    if controlled else None)
        y0 = rng.standard_normal(N)
        kept = y0.copy()
        leaves = solve_forward(y0, controls, coeffs)
        assert leaves.shape == (tree.num_nodes(tree.depth), N)
        assert np.array_equal(y0, kept)
        assert np.array_equal(leaves, state_levels(kept, controls, coeffs)[-1])

    @pytest.mark.parametrize("adapted", [False, True])
    def test_caller_controls_unchanged_and_iterators_accepted(self, adapted):
        # The sweep releases each control level after its step but must not
        # empty or write to a caller's lists; iterators over the same levels
        # (read once, in order) give the same leaves.
        mesh, tree = build_mesh(9), build_tree(5, 1.0)
        rng = np.random.default_rng(23)
        coeffs = (Coefficients.adapted_random(tree, mesh, rng, 0.5, 0.5) if adapted
                  else Coefficients.constant(tree, mesh, 0.5, 0.5))
        controls = random_controls(tree, mesh, OmegaRegion(mesh, (0.3, 0.7)), rng)
        u_list, v_list = controls.u, controls.v
        kept_u, kept_v = [a.copy() for a in u_list], [a.copy() for a in v_list]
        y0 = rng.standard_normal(mesh.N)
        leaves = solve_forward(y0, controls, coeffs)
        assert controls.u is u_list and controls.v is v_list
        assert len(u_list) == len(v_list) == tree.depth
        for a, b in zip(u_list + v_list, kept_u + kept_v):
            assert np.array_equal(a, b)
        streamed = ControlPair(iter(u_list), (a for a in v_list), controls.region)
        np.testing.assert_array_equal(solve_forward(y0, streamed, coeffs), leaves)

    def test_too_few_control_levels_rejected(self):
        mesh, tree = build_mesh(5), build_tree(3, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.5, 0.5)
        region = OmegaRegion(mesh, (0.3, 0.7))
        short = ControlPair(zero_field(tree, mesh)[:2], zero_field(tree, mesh), region)
        with pytest.raises(ValueError, match="controls must provide 3 levels, got 2"):
            solve_forward(np.ones(mesh.N), short, coeffs)

    def test_superposition(self):
        mesh = build_mesh(7)
        tree = build_tree(4, 1.0)
        rng = np.random.default_rng(1)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.7, 0.9)
        region = OmegaRegion(mesh, (0.3, 0.7))
        controls = random_controls(tree, mesh, region, rng)
        y0 = rng.standard_normal(mesh.N)

        full = state_levels(y0, controls, coeffs)
        free = state_levels(y0, None, coeffs)
        forced = state_levels(np.zeros(mesh.N), controls, coeffs)
        for k in range(tree.depth + 1):
            combined = free[k] + forced[k]
            scale = max(1.0, np.abs(full[k]).max())
            assert np.abs(full[k] - combined).max() <= 1e-12 * scale

    def test_sine_mode_decay_single_step(self):
        mesh = build_mesh(9)
        tree = build_tree(1, 0.5)
        coeffs = Coefficients.constant(tree, mesh, 0.0, 0.0)
        y0 = first_mode(mesh)
        leaves = solve_forward(y0, None, coeffs)
        factor = 1.0 / (1.0 + tree.dt * first_eigenvalue(mesh.h))
        for leaf in leaves:
            np.testing.assert_allclose(leaf, factor * y0, rtol=1e-12)

    def test_sine_mode_decay_multi_step(self):
        mesh = build_mesh(9)
        tree = build_tree(5, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.0, 0.0)
        y0 = first_mode(mesh)
        leaves = solve_forward(y0, None, coeffs)
        factor = (1.0 + tree.dt * first_eigenvalue(mesh.h)) ** (-tree.depth)
        np.testing.assert_allclose(leaves[0], factor * y0, rtol=1e-11)

    def test_noise_creates_leaf_variance(self):
        mesh = build_mesh(6)
        tree = build_tree(2, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.0, 2.0)
        y0 = first_mode(mesh)
        leaves = solve_forward(y0, None, coeffs)
        assert leaves.var(axis=0).max() > 1e-4

    def test_mean_matches_deterministic_trajectory(self):
        # with zero diffusion coupling the noise enters with zero mean
        mesh = build_mesh(8)
        tree = build_tree(6, 1.0)
        rng = np.random.default_rng(2)
        coeffs = Coefficients(tree, mesh,
                              sampled_levels(tree, mesh, lambda x, t: 0.5 * np.sin(np.pi * x)),
                              sampled_levels(tree, mesh, lambda x, t: np.zeros_like(x)))
        region = OmegaRegion(mesh, (0.3, 0.7))
        v = random_levels(mesh, rng, (), tree.depth)
        controls = ControlPair(u=zero_field(tree, mesh), v=v, region=region)
        sol = state_levels(first_mode(mesh), controls, coeffs)

        det = first_mode(mesh)
        for k in range(tree.depth):
            det = np.linalg.solve(dense_step(mesh, tree.dt, coeffs.a1_levels[k][0]), det)
            # each child pair cancels its increment, so only the drift
            # survives in the mean
            leaf_mean = sol[k + 1].mean(axis=0)
            scale = max(1.0, np.abs(det).max())
            assert np.abs(leaf_mean - det).max() <= 1e-12 * scale * (k + 1)

    def test_adaptedness_late_controls_do_not_touch_early_states(self):
        mesh = build_mesh(6)
        tree = build_tree(4, 1.0)
        rng = np.random.default_rng(3)
        coeffs = Coefficients.constant(tree, mesh, 0.4, 0.6)
        region = OmegaRegion(mesh, (0.3, 0.7))
        controls = random_controls(tree, mesh, region, rng)
        base = state_levels(first_mode(mesh), controls, coeffs)

        late_v = [a.copy() for a in controls.v]
        late_v[3][:] += 5.0
        perturbed = ControlPair(u=controls.u, v=late_v, region=region)
        late = state_levels(first_mode(mesh), perturbed, coeffs)
        for k in range(4):
            np.testing.assert_array_equal(base[k], late[k])
        assert np.abs(base[4] - late[4]).max() > 1e-8

    def test_dominance_violation_rejected_before_stepping(self):
        mesh = build_mesh(5)
        tree = build_tree(2, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 2.5, 0.0)
        with pytest.raises(ConfigurationError):
            solve_forward(first_mode(mesh), None, coeffs)

    def test_levels_are_read_only_copies(self):
        # The step operators are factored from the levels once, so neither
        # an in-place write nor a replaced level may reach them.
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        a1 = [np.full((1, mesh.N), 0.5) for _ in range(tree.depth)]
        coeffs = Coefficients(tree, mesh, a1, a1)
        solve_forward(first_mode(mesh), None, coeffs)
        with pytest.raises(ValueError, match="read-only"):
            coeffs.a1_levels[0][:] = -3.0
        with pytest.raises(TypeError):
            coeffs.a1_levels[0] = np.full((1, mesh.N), 1.0 / tree.dt)
        a1[0][:] = -3.0
        np.testing.assert_array_equal(coeffs.a1_levels[0], 0.5)

    def test_equal_consecutive_levels_share_one_operator(self):
        mesh = build_mesh(5)
        tree = build_tree(5, 1.0)
        shared = Coefficients.constant(tree, mesh, 0.5, 0.5).step_operators()
        assert all(op is shared[0] for op in shared)
        # a1 changes at every level: one operator each
        sinusoidal = Coefficients(tree, mesh,
                                  sampled_levels(tree, mesh, lambda x, t: np.sin(3 * t) + x),
                                  sampled_levels(tree, mesh, lambda x, t: 0 * x)).step_operators()
        assert len({id(op) for op in sinusoidal}) == tree.depth
        adapted = Coefficients.adapted_random(tree, mesh, np.random.default_rng(4),
                                              0.5, 0.5).step_operators()
        assert len({id(op) for op in adapted}) == tree.depth
        # runs of equal levels: an operator is shared within a run only
        a1 = [np.full((1, mesh.N), c) for c in (0.5, 0.5, 0.25, 0.25, 0.5)]
        runs = Coefficients(tree, mesh, a1, a1).step_operators()
        assert runs[0] is runs[1] and runs[2] is runs[3]
        assert len({id(op) for op in runs}) == 3
        for op, level in zip(runs, a1):
            ref = StepOperator.drift_implicit(mesh, tree.dt, level)
            np.testing.assert_array_equal(op.solve(np.eye(mesh.N)), ref.solve(np.eye(mesh.N)))

    @pytest.mark.parametrize("name,value", [("a1", np.nan), ("a2", np.inf)])
    def test_non_finite_coefficient_names_level(self, name, value):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        levels = {"a1": [np.zeros((1, mesh.N)) for _ in range(3)],
                  "a2": [np.zeros((1, mesh.N)) for _ in range(3)]}
        levels[name][2][0, 1] = value
        with pytest.raises(ConfigurationError, match=f"coefficient {name} at level 2 is not finite"):
            Coefficients(tree, mesh, levels["a1"], levels["a2"])

    def test_drift_control_acts_only_through_the_window(self):
        # The drift term is chi*u, so values of u outside the window never
        # reach a state.
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        region = OmegaRegion(mesh, (0.3, 0.7))
        rng = np.random.default_rng(12)
        coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.5, 0.5)
        u = random_levels(mesh, rng, (), tree.depth)
        v = random_levels(mesh, rng, (), tree.depth)
        assert all(a[:, ~region.mask].any() for a in u)
        raw = state_levels(first_mode(mesh), ControlPair(u, v, region), coeffs)
        masked = ControlPair([region.indicator * a for a in u], v, region)
        windowed = state_levels(first_mode(mesh), masked, coeffs)
        for got, ref in zip(raw, windowed):
            np.testing.assert_array_equal(got, ref)


def energy_growth_rate(states, coeffs):
    """Measured constant c with E||y(t_k)||^2 <= e^(c*(1+A)*t_k) * E||y0||^2,
    A = |a1|_inf + |a2|_inf; 0 when the initial energy is zero or nothing grows."""
    tree, mesh = coeffs.tree, coeffs.mesh
    energies = [tree_inner(tree, mesh, k, y, y) for k, y in enumerate(states)]
    if energies[0] == 0.0:
        return 0.0
    a_norm = sum(max(np.abs(a).max() for a in levels)
                 for levels in (coeffs.a1_levels, coeffs.a2_levels))
    rates = [np.log(e / energies[0]) / ((1.0 + a_norm) * k * tree.dt)
             for k, e in enumerate(energies) if k and e > energies[0]]
    return max(rates, default=0.0)


class TestEnergyGrowth:
    def test_measured_rate_bounded_on_family(self):
        mesh = build_mesh(8)
        tree = build_tree(6, 1.0)
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            coeffs = Coefficients.adapted_random(tree, mesh, rng, 0.8, 0.8)
            states = state_levels(rng.standard_normal(mesh.N), None, coeffs)
            worst = max(worst, energy_growth_rate(states, coeffs))
        # growth constant stays desk-scale small; reported, not asserted sharp
        assert worst < 5.0

    def test_zero_initial_energy(self):
        mesh = build_mesh(5)
        tree = build_tree(3, 1.0)
        coeffs = Coefficients.constant(tree, mesh, 0.0, 0.0)
        states = state_levels(np.zeros(mesh.N), None, coeffs)
        assert energy_growth_rate(states, coeffs) == 0.0
        assert tree_inner(tree, mesh, tree.depth, states[-1], states[-1]) == 0.0
