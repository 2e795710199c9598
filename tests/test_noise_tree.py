import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcontrol.errors import ResourceLimitError
from sdcontrol.mesh import build_mesh
from sdcontrol.noise_tree import (build_tree, martingale_coeff, random_levels, time_pairing,
                                  tree_inner)


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
        assert build_tree(16, 1.0).depth == 16
        with pytest.raises(ResourceLimitError, match="depth 17 exceeds cap 16"):
            build_tree(17, 1.0)


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
            vals = rng.standard_normal((tree.num_nodes(depth), 1))
            mean, _ = martingale_coeff(vals, tree.dt)
            lhs, rhs = mean.mean(), vals.mean()
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


class TestMartingaleCoeff:
    def test_hand_values(self):
        # rows 2n and 2n+1 are node n's -sqrt(dt) and +sqrt(dt) children
        mean, coeff = martingale_coeff([[0.0], [1.0]], 0.25)
        assert mean.shape == coeff.shape == (1, 1)
        assert mean[0, 0] == 0.5
        assert coeff[0, 0] == 1.0

    def test_deterministic_next_value(self):
        mean, coeff = martingale_coeff([[2.0], [2.0]], 0.1)
        assert coeff[0, 0] == 0.0
        assert mean[0, 0] == 2.0

    def test_odd_child_count_rejected(self):
        with pytest.raises(ValueError, match="children must be rows"):
            martingale_coeff(np.ones((3, 2)), 0.1)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.floats(1e-6, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_exact(self, zp, zm, dt):
        mean, coeff = martingale_coeff([[zm], [zp]], dt)
        mean, coeff = mean[0, 0], coeff[0, 0]
        root = np.sqrt(dt)
        assert mean + coeff * root == pytest.approx(zp, abs=1e-9 * max(1, abs(zp)))
        assert mean - coeff * root == pytest.approx(zm, abs=1e-9 * max(1, abs(zm)))


class TestAdaptedField:
    """A tree field is a list of level arrays, drawn by ``random_levels``."""

    def test_random_smooth_modes_reproducible(self):
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        f1 = random_levels(mesh, np.random.default_rng(9), (), tree.depth + 1, modes=3)
        f2 = random_levels(mesh, np.random.default_rng(9), (), tree.depth + 1, modes=3)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)

    def test_random_draws_level_by_level(self):
        # One draw for all levels consumes the generator like per-level draws.
        mesh = build_mesh(6)
        tree = build_tree(3, 1.0)
        basis = np.sin(np.outer(np.arange(1, 4) * np.pi, mesh.interior))
        levels = random_levels(mesh, np.random.default_rng(9), (), tree.depth + 1, modes=3)
        rng = np.random.default_rng(9)
        for k, arr in enumerate(levels):
            np.testing.assert_allclose(arr, rng.standard_normal((1 << k, 3)) @ basis,
                                       rtol=1e-14, atol=1e-14)
        plain = random_levels(mesh, np.random.default_rng(9), (), tree.depth + 1)
        rng = np.random.default_rng(9)
        for k, arr in enumerate(plain):
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
        self.a = random_levels(self.mesh, rng, (), self.tree.depth + 1)
        self.b = random_levels(self.mesh, rng, (), self.tree.depth + 1)
        self.w = rng.uniform(0.5, 2.0, size=(2, self.mesh.N))

    def test_tree_inner_with_weight(self):
        a, b, w = self.a[2], self.b[2], self.w[0]
        by_hand = self.mesh.h * sum(w[i] * a[n, i] * b[n, i]
                                    for n in range(4) for i in range(3)) / 4
        got = tree_inner(self.tree, self.mesh, 2, a, b, w)
        assert got == pytest.approx(by_hand, rel=1e-14)

    def test_time_pairing_single_mask(self):
        mask = np.array([0.0, 1.0, 1.0])
        a, b, h, dt = self.a, self.b, self.mesh.h, self.tree.dt
        by_hand = (dt * h * (a[0][0, 1] * b[0][0, 1] + a[0][0, 2] * b[0][0, 2])
                   + dt * h * sum(a[1][n, i] * b[1][n, i]
                                  for n in range(2) for i in (1, 2)) / 2)
        got = time_pairing(self.tree, self.mesh, self.a, self.b, mask)
        assert got == pytest.approx(by_hand, rel=1e-14)

    def test_time_pairing_rejects_missing_levels(self):
        # Fewer levels than the depth would leave out late terms of the sum.
        tree = build_tree(6, 1.0)
        rng = np.random.default_rng(6)
        field = random_levels(self.mesh, rng, (), tree.depth + 1)
        assert time_pairing(tree, self.mesh, field, field) > 0.0
        for a, b in ((field[:2], field), (field, field[:5])):
            with pytest.raises(ValueError, match="needs 6 levels"):
                time_pairing(tree, self.mesh, a, b)

    def test_sample_axes_give_one_value_per_sample(self):
        rng = np.random.default_rng(5)
        a = [rng.standard_normal((2, 3, 1 << k, self.mesh.N)) for k in range(3)]
        b = [rng.standard_normal((2, 3, 1 << k, self.mesh.N)) for k in range(3)]
        paired = time_pairing(self.tree, self.mesh, a, b, self.w[0])
        inner = tree_inner(self.tree, self.mesh, 2, a[2], b[2], self.w[1])
        assert paired.shape == inner.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert paired[i, j] == pytest.approx(time_pairing(
                    self.tree, self.mesh, [x[i, j] for x in a], [x[i, j] for x in b], self.w[0]),
                    rel=1e-14)
                assert inner[i, j] == pytest.approx(tree_inner(
                    self.tree, self.mesh, 2, a[2][i, j], b[2][i, j], self.w[1]), rel=1e-14)
        with pytest.raises(ValueError):
            tree_inner(self.tree, self.mesh, 2, a[1], b[1])


def _naive_level(a, b, w):
    return (w * a * b).sum(axis=(-2, -1))


class TestLevelKernel:
    """``tree_inner`` and ``time_pairing`` against the sums they stand for."""

    @given(depth=st.integers(1, 4), N=st.integers(2, 6), staggered=st.booleans(),
           lead=st.sampled_from([(), (3,), (2, 3)]),
           weight_kind=st.sampled_from(["none", "scalar", "pointwise"]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_naive_sums(self, depth, N, staggered, lead, weight_kind, seed):
        mesh, tree = build_mesh(N), build_tree(depth, 0.7)
        M = N + 1 if staggered else N
        rng = np.random.default_rng(seed)
        # positive operands: no cancellation, so rtol bounds the reordering alone
        a = [rng.uniform(0.5, 2.0, lead + (1 << k, M)) for k in range(depth + 1)]
        b = [rng.uniform(0.5, 2.0, lead + (1 << k, M)) for k in range(depth + 1)]
        weight = {"none": None, "scalar": 1.5, "pointwise": rng.uniform(0.5, 2.0, M)}[weight_kind]
        w = 1.0 if weight is None else weight
        naive = sum(tree.dt * mesh.h * 2.0**-k * _naive_level(a[k], b[k], w)
                    for k in range(depth))
        got = time_pairing(tree, mesh, a, b, weight)
        assert np.shape(got) == lead
        np.testing.assert_allclose(got, naive, rtol=1e-13)
        if staggered:
            return
        for k in range(depth + 1):
            inner = tree_inner(tree, mesh, k, a[k], b[k], weight)
            np.testing.assert_allclose(inner, mesh.h * 2.0**-k * _naive_level(a[k], b[k], w),
                                       rtol=1e-13)
        if lead == ():
            # a level-0 vector stands for its one node row
            flat = tree_inner(tree, mesh, 0, a[0][0], b[0][0], weight)
            assert flat == tree_inner(tree, mesh, 0, a[0], b[0], weight)

    def test_shape_errors(self):
        mesh, tree = build_mesh(4), build_tree(3, 1.0)
        with pytest.raises(ValueError, match=r"level 2 values must have shape \(4, 4\)"):
            tree_inner(tree, mesh, 2, np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError, match=r"level 0 values must have shape \(1, 4\)"):
            tree_inner(tree, mesh, 0, np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match="needs 3 levels"):
            time_pairing(tree, mesh, [np.ones((1, 4))] * 2, [np.ones((1, 4))] * 3)

    @pytest.mark.parametrize("nodes", [4, 2048])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_a_sample_sums_the_same_in_any_batch(self, nodes, weighted):
        # 2048 x 8 values exceed the block in which einsum reduces a lone sample
        mesh, tree = build_mesh(8), build_tree(11, 1.0)
        level = nodes.bit_length() - 1
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, nodes, mesh.N))
        w = rng.uniform(0.5, 2.0, mesh.N) if weighted else None
        batch = tree_inner(tree, mesh, level, x, x, w)
        for s in range(5):
            assert tree_inner(tree, mesh, level, x[s], x[s], w) == batch[s]
            for stop in (s + 1, s + 2):
                np.testing.assert_array_equal(tree_inner(tree, mesh, level, x[s:stop], x[s:stop], w),
                                              batch[s:stop])
