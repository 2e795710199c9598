import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcontrol.errors import ResourceLimitError
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import (AdaptedField, build_tree, expectation,
                                  martingale_coeff, time_pairing, tree_inner)


class TestTreeConstruction:
    def test_single_step(self):
        tree = build_tree(1, 0.81)
        assert tree.num_nodes(1) == 2
        assert tree.node_probability(1) == 0.5
        signs = tree.edge_signs(1)
        np.testing.assert_array_equal(signs, [-1.0, 1.0])
        assert tree.increment == pytest.approx(0.9)

    def test_depth_three(self):
        tree = build_tree(3, 1.0)
        assert tree.num_nodes(3) == 8
        assert tree.node_probability(3) == 0.125
        assert tree.dt == pytest.approx(1 / 3)

    def test_depth_cap(self):
        with pytest.raises(ResourceLimitError):
            build_tree(17, 1.0)
        # explicit cap override is allowed
        assert build_tree(5, 1.0, depth_cap=5).depth == 5


class TestExactness:
    @pytest.mark.parametrize("depth", range(1, 11))
    def test_probability_and_increment_moments(self, depth):
        tree = build_tree(depth, 1.0)
        for k in range(depth + 1):
            total = tree.num_nodes(k) * tree.node_probability(k)
            assert total == 1.0
        for k in range(1, depth + 1):
            db = tree.edge_signs(k) * tree.increment
            assert abs(db.mean()) == 0.0
            np.testing.assert_allclose(db**2, tree.dt, rtol=0, atol=1e-14)

    def test_tower_property(self):
        rng = np.random.default_rng(0)
        for depth in range(1, 11):
            tree = build_tree(depth, 2.0)
            vals = rng.standard_normal(tree.num_nodes(depth))
            mean, _ = martingale_coeff(vals[1::2], vals[0::2], tree.dt)
            lhs = expectation(tree, depth - 1, mean)
            rhs = expectation(tree, depth, vals)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


class TestExpectation:
    def test_constant(self):
        tree = build_tree(4, 1.0)
        assert expectation(tree, 4, np.full(16, 3.25)) == 3.25

    def test_single_step_average(self):
        tree = build_tree(1, 1.0)
        assert expectation(tree, 1, np.array([0.0, 1.0])) == 0.5

    def test_linearity(self):
        tree = build_tree(5, 1.0)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        lhs = expectation(tree, 5, 2.0 * a + 3.0 * b)
        rhs = 2.0 * expectation(tree, 5, a) + 3.0 * expectation(tree, 5, b)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))

    def test_wrong_count(self):
        tree = build_tree(2, 1.0)
        with pytest.raises(ValueError):
            expectation(tree, 2, np.ones(3))


class TestMartingaleCoeff:
    def test_hand_values(self):
        mean, coeff = martingale_coeff(1.0, 0.0, 0.25)
        assert mean == 0.5
        assert coeff == 1.0

    def test_deterministic_next_value(self):
        mean, coeff = martingale_coeff(2.0, 2.0, 0.1)
        assert coeff == 0.0
        assert mean == 2.0

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(1e-6, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_exact(self, zp, zm, dt):
        mean, coeff = martingale_coeff(zp, zm, dt)
        root = np.sqrt(dt)
        assert mean + coeff * root == pytest.approx(zp, abs=1e-9 * max(1, abs(zp)))
        assert mean - coeff * root == pytest.approx(zm, abs=1e-9 * max(1, abs(zm)))


class TestAdaptedField:
    def test_shape_validation(self):
        mesh = build_mesh(3)
        tree = build_tree(2, 1.0)
        with pytest.raises(ValueError):
            AdaptedField(tree, mesh, [np.zeros((2, mesh.N))])

    def test_random_smooth_modes_reproducible(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        f1 = AdaptedField.random(tree, mesh, np.random.default_rng(9), modes=3)
        f2 = AdaptedField.random(tree, mesh, np.random.default_rng(9), modes=3)
        for a, b in zip(f1.levels, f2.levels):
            np.testing.assert_array_equal(a, b)

    def test_random_draws_level_by_level(self):
        # One draw for all levels consumes the generator like per-level draws.
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        basis = np.sin(np.outer(np.arange(1, 4) * np.pi, mesh.interior))
        field = AdaptedField.random(tree, mesh, np.random.default_rng(9), modes=3, scale=2.0)
        rng = np.random.default_rng(9)
        for k, arr in enumerate(field.levels):
            np.testing.assert_allclose(arr, 2.0 * rng.standard_normal((1 << k, 3)) @ basis,
                                       rtol=1e-14, atol=1e-14)
        plain = AdaptedField.random(tree, mesh, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for k, arr in enumerate(plain.levels):
            np.testing.assert_array_equal(arr, rng.standard_normal((1 << k, mesh.N)))

    def test_tree_inner_weighting(self):
        mesh = build_mesh(4)
        tree = build_tree(2, 1.0)
        ones = np.ones((4, mesh.N))
        assert tree_inner(tree, mesh, 2, ones, ones) == pytest.approx(mesh.h * mesh.N)


class TestQuadrature:
    """The tree-time helpers against sums written out on a depth-2 tree."""

    def setup_method(self):
        self.mesh = build_mesh(3)
        self.tree = build_tree(2, 0.5)
        rng = np.random.default_rng(4)
        self.a = AdaptedField.random(self.tree, self.mesh, rng)
        self.b = AdaptedField.random(self.tree, self.mesh, rng)
        self.w = rng.uniform(0.5, 2.0, size=(2, self.mesh.N))

    def test_tree_inner_with_weight(self):
        a, b, w = self.a.levels[2], self.b.levels[2], self.w[0]
        by_hand = self.mesh.h * sum(w[i] * a[n, i] * b[n, i]
                                    for n in range(4) for i in range(3)) / 4
        got = tree_inner(self.tree, self.mesh, 2, a, b, w)
        assert got == pytest.approx(by_hand, rel=1e-14)

    def test_time_pairing_single_mask(self):
        mask = np.array([0.0, 1.0, 1.0])
        a, b, h, dt = self.a.levels, self.b.levels, self.mesh.h, self.tree.dt
        by_hand = (dt * h * (a[0][0, 1] * b[0][0, 1] + a[0][0, 2] * b[0][0, 2])
                   + dt * h * sum(a[1][n, i] * b[1][n, i]
                                  for n in range(2) for i in (1, 2)) / 2)
        got = time_pairing(self.tree, self.mesh, self.a, self.b, mask)
        assert got == pytest.approx(by_hand, rel=1e-14)

    def test_time_pairing_per_level_weight_on_level_lists(self):
        a, b, w, h, dt = self.a.levels, self.b.levels, self.w, self.mesh.h, self.tree.dt
        by_hand = sum(dt * h * w[k, i] * a[k][n, i] * b[k][n, i] / 2**k
                      for k in range(2) for n in range(2**k) for i in range(3))
        got = time_pairing(self.tree, self.mesh, list(a), list(b), w)
        assert got == pytest.approx(by_hand, rel=1e-14)
        # the leaf level lies beyond the left-endpoint sum
        assert time_pairing(self.tree, self.mesh, a[:2], b[:2], w) == got

    def test_sample_axes_give_one_value_per_sample(self):
        rng = np.random.default_rng(5)
        a = [rng.standard_normal((2, 3, 1 << k, self.mesh.N)) for k in range(3)]
        b = [rng.standard_normal((2, 3, 1 << k, self.mesh.N)) for k in range(3)]
        paired = time_pairing(self.tree, self.mesh, a, b, self.w)
        inner = tree_inner(self.tree, self.mesh, 2, a[2], b[2], self.w[1])
        assert paired.shape == inner.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert paired[i, j] == pytest.approx(time_pairing(
                    self.tree, self.mesh, [x[i, j] for x in a], [x[i, j] for x in b], self.w),
                    rel=1e-14)
                assert inner[i, j] == pytest.approx(tree_inner(
                    self.tree, self.mesh, 2, a[2][i, j], b[2][i, j], self.w[1]), rel=1e-14)
        with pytest.raises(ValueError):
            tree_inner(self.tree, self.mesh, 2, a[1], b[1])
