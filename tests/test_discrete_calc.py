import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcontrol.discrete_calc import (DualGridFunction, GridFunction, StepOperator,
                                     apply_Ah, apply_Dh, apply_Dh_dual,
                                     apply_Dh2, consistency_orders,
                                     ibp_residuals, leibniz_residuals,
                                     solve_drift_implicit, solve_tridiagonal)
from sdcontrol.errors import SingularSystemError
from sdcontrol.mesh import build_mesh, integrate
from sdcontrol.noise_tree import ScenarioTree


def grid(mesh, f):
    return GridFunction(mesh, f(mesh.closure))


class TestDifferenceOperator:
    def test_exact_on_affine(self):
        mesh = build_mesh(3)
        d = apply_Dh(grid(mesh, lambda x: x))
        np.testing.assert_allclose(d.values, np.ones(4), rtol=0, atol=1e-14)

    def test_quadratic_hand_value(self):
        mesh = build_mesh(3)
        d = apply_Dh(grid(mesh, lambda x: x**2))
        # (0.25 - 0.0625) / 0.25 at the half-point 0.375
        assert d.values[1] == pytest.approx(0.75, abs=1e-15)

    def test_kills_constants(self):
        mesh = build_mesh(5)
        d = apply_Dh(grid(mesh, lambda x: np.full_like(x, 3.7)))
        np.testing.assert_allclose(d.values, 0.0, atol=1e-14)


class TestAverageOperator:
    def test_preserves_constants(self):
        mesh = build_mesh(4)
        a = apply_Ah(grid(mesh, lambda x: np.full_like(x, 2.5)))
        np.testing.assert_allclose(a.values, 2.5, rtol=1e-15)

    def test_exact_on_affine(self):
        mesh = build_mesh(4)
        a = apply_Ah(grid(mesh, lambda x: x))
        star = 0.5 * (mesh.closure[1:] + mesh.closure[:-1])
        np.testing.assert_allclose(a.values, star, rtol=0, atol=1e-15)

    def test_quadratic_hand_value(self):
        mesh = build_mesh(3)
        a = apply_Ah(grid(mesh, lambda x: x**2))
        # (0.0625 + 0.25) / 2 = 0.375^2 + h^2/4
        assert a.values[1] == pytest.approx(0.15625, abs=1e-15)
        assert a.values[1] == pytest.approx(0.375**2 + mesh.h**2 / 4, abs=1e-15)


class TestSecondDifference:
    def test_exact_on_quadratics(self):
        mesh = build_mesh(7)
        np.testing.assert_allclose(apply_Dh2(grid(mesh, lambda x: x**2)), 2.0, rtol=1e-12)

    def test_affine_kernel(self):
        mesh = build_mesh(7)
        np.testing.assert_allclose(apply_Dh2(grid(mesh, lambda x: 2 * x - 1)), 0.0, atol=1e-12)

    def test_hat_function_stencil(self):
        mesh = build_mesh(5)
        j = 3
        vals = np.zeros(mesh.N + 2)
        vals[j] = 1.0
        row = apply_Dh2(GridFunction(mesh, vals))
        expected = np.zeros(mesh.N)
        expected[j - 2 : j + 1] = np.array([1.0, -2.0, 1.0]) / mesh.h**2
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    def test_equals_difference_applied_twice(self):
        mesh = build_mesh(9)
        rng = np.random.default_rng(3)
        u = GridFunction(mesh, rng.standard_normal(mesh.N + 2))
        np.testing.assert_allclose(apply_Dh2(u), apply_Dh_dual(apply_Dh(u)), rtol=1e-13)

    def test_symmetry_with_dirichlet_data(self):
        mesh = build_mesh(12)
        rng = np.random.default_rng(4)
        u = GridFunction(mesh, np.pad(rng.standard_normal(mesh.N), 1))
        w = GridFunction(mesh, np.pad(rng.standard_normal(mesh.N), 1))
        lhs = integrate(mesh, apply_Dh2(u) * w.interior)
        rhs = integrate(mesh, u.interior * apply_Dh2(w))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


def _identity_scale(u, v, h):
    return max(1.0, np.abs(u).max()) * max(1.0, np.abs(v).max()) / h


class TestProductIdentities:
    def test_affine_pair(self):
        mesh = build_mesh(6)
        u = grid(mesh, lambda x: x)
        res = leibniz_residuals(u, u)
        assert max(res) <= 1e-13 * _identity_scale(u.values, u.values, mesh.h)

    def test_annihilation(self):
        mesh = build_mesh(6)
        z = grid(mesh, lambda x: np.zeros_like(x))
        u = grid(mesh, np.cos)
        assert leibniz_residuals(u, z) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("N", [3, 8, 16, 64])
    def test_seeded_random_pairs(self, N):
        mesh = build_mesh(N)
        rng = np.random.default_rng(1000 + N)
        for _ in range(25):
            u = GridFunction(mesh, rng.standard_normal(N + 2))
            v = GridFunction(mesh, rng.standard_normal(N + 2))
            res = leibniz_residuals(u, v)
            assert max(res) <= 1e-12 * _identity_scale(u.values, v.values, mesh.h)


class TestSummationByParts:
    def test_zero_boundary_drops_boundary_term(self):
        mesh = build_mesh(10)
        rng = np.random.default_rng(5)
        u = GridFunction(mesh, np.pad(rng.standard_normal(mesh.N), 1))
        v = DualGridFunction(mesh, rng.standard_normal(mesh.N + 1))
        lhs = integrate(mesh, u.interior * apply_Dh_dual(v))
        rhs = -integrate(mesh, apply_Dh(u).values * v.values, "star")
        assert abs(lhs - rhs) <= 1e-12 * _identity_scale(u.values, v.values, mesh.h)

    def test_constant_pair_hand_value(self):
        mesh = build_mesh(4)
        u = grid(mesh, lambda x: np.ones_like(x))
        v = DualGridFunction(mesh, np.ones(mesh.N + 1))
        res = ibp_residuals(u, v)
        assert res == (0.0, 0.0)

    def test_zero_function(self):
        mesh = build_mesh(4)
        u = grid(mesh, lambda x: np.zeros_like(x))
        v = DualGridFunction(mesh, np.arange(5.0))
        assert ibp_residuals(u, v) == (0.0, 0.0)

    @pytest.mark.parametrize("N", [3, 8, 16, 64])
    def test_seeded_random_pairs_nonzero_boundary(self, N):
        mesh = build_mesh(N)
        rng = np.random.default_rng(2000 + N)
        for _ in range(25):
            u = GridFunction(mesh, rng.standard_normal(N + 2))
            v = DualGridFunction(mesh, rng.standard_normal(N + 1))
            res = ibp_residuals(u, v)
            assert max(res) <= 1e-12 * _identity_scale(u.values, v.values, mesh.h)


def test_consistency_orders_second_order():
    orders = consistency_orders()
    assert set(orders) == {"first_difference", "second_difference",
                           "averaged_difference", "double_average"}
    for name, order in orders.items():
        assert abs(order - 2.0) <= 0.15, f"{name}: observed order {order}"


class TestDriftImplicitSolve:
    def test_round_trip_oracle(self):
        mesh = build_mesh(9)
        rng = np.random.default_rng(6)
        a1 = rng.uniform(-1, 1, mesh.N)
        w = rng.standard_normal(mesh.N)
        dt = 0.01
        # apply M = I - dt*(D2 + a1) explicitly, then solve back
        lap = np.zeros(mesh.N)
        lap[:-1] += w[1:]
        lap[1:] += w[:-1]
        lap -= 2 * w
        rhs = w - dt * (lap / mesh.h**2 + a1 * w)
        out = solve_drift_implicit(mesh, dt, a1, rhs)
        np.testing.assert_allclose(out, w, rtol=1e-12)

    def test_nonpositive_dt_rejected(self):
        # at dt = 0 the shared operator's split would divide by sqrt(0)
        mesh = build_mesh(5)
        for dt in (0.0, -0.01):
            with pytest.raises(ValueError, match="dt must be positive"):
                solve_drift_implicit(mesh, dt, np.zeros(5), np.arange(5.0))

    def test_batched_rhs(self):
        # one shared a1 for every row, then one a1 per row (one matrix per node)
        mesh = build_mesh(6)
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal((4, mesh.N))
        for a1 in (np.zeros(mesh.N), rng.uniform(-1, 1, (4, mesh.N))):
            batched = solve_drift_implicit(mesh, 0.02, a1, rhs)
            for i in range(4):
                row = solve_drift_implicit(mesh, 0.02, a1[i] if a1.ndim > 1 else a1, rhs[i])
                np.testing.assert_allclose(batched[i], row)


class TestTridiagonal:
    def test_vanishing_pivot_raises(self):
        # second pivot is 1 - 1*1/1 = 0
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(9)
        n = 6
        off, diag = rng.standard_normal(n - 1), rng.uniform(3, 4, n)
        rhs = rng.standard_normal(n)
        np.testing.assert_allclose(solve_tridiagonal(off, diag, rhs),
                                   np.linalg.solve(_dense(off, diag), rhs), rtol=1e-12)


def _dominant_bands(rng, nodes, n):
    """Strictly diagonally dominant symmetric bands, one matrix per node."""
    off = rng.uniform(-1, 1, (nodes, n - 1))
    diag = rng.uniform(2.5, 4.0, (nodes, n)) * rng.choice([-1.0, 1.0], (nodes, 1))
    return off, diag


def _bands_with_zero_entry(rng, nodes, n):
    """Dominant bands with one off-diagonal entry exactly zero: a reducible matrix."""
    off, diag = _dominant_bands(rng, nodes, n)
    off[rng.integers(nodes), rng.integers(n - 1)] = 0.0
    return off, diag


def _indefinite_bands(rng, nodes, n):
    """Dominant bands whose diagonal changes sign along each node: indefinite
    matrices, whose pivots take both signs."""
    off, diag = _dominant_bands(rng, nodes, n)
    return off, np.abs(diag) * rng.choice([-1.0, 1.0], (nodes, n))


def _tiny_multiplier_bands(rng, nodes, n):
    """Dominant bands whose multipliers are near 1e-20, so prefix products underflow."""
    off, diag = _dominant_bands(rng, nodes, n)
    return 1e-20 * off, diag


def _dense(off, diag):
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


def _assert_matches_dense(got, rhs, bands):
    """Each node's rows of ``got`` (..., P*C, n) against np.linalg.solve at rtol 1e-12."""
    off, diag = bands
    nodes = len(diag)
    grouped_got = got.reshape(-1, nodes, got.shape[-2] // nodes, got.shape[-1])
    grouped_rhs = rhs.reshape(grouped_got.shape)
    for p in range(nodes):
        rows = grouped_rhs[:, p].reshape(-1, rhs.shape[-1])
        ref = np.linalg.solve(_dense(off[p], diag[p]), rows.T).T
        np.testing.assert_allclose(grouped_got[:, p].reshape(ref.shape), ref,
                                   rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# (smallest n, band builder, whether per-node operators take the two-row form)
_BAND_KINDS = {
    "dominant": (2, _dominant_bands, True),
    "indefinite": (2, _indefinite_bands, True),
    "zero_entry": (2, _bands_with_zero_entry, False),
    "tiny_multipliers": (16, _tiny_multiplier_bands, False),
}


class TestStepOperator:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(sorted(_BAND_KINDS)), extra=st.integers(0, 10),
           nodes=st.integers(1, 5), per_node=st.integers(1, 3), samples=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_solve(self, kind, extra, nodes, per_node, samples, seed):
        # nodes == 1 is the shared matrix (inverse + matmul); nodes > 1 the
        # per-node factors, two rows or Thomas substitution by the band
        # kind, applied to rows grouped by node, for every sample along the
        # leading axis.
        n_min, build, prefix = _BAND_KINDS[kind]
        n = n_min + extra
        rng = np.random.default_rng(seed)
        off, diag = build(rng, nodes, n)
        rhs = rng.standard_normal((samples, nodes * per_node, n))
        op = StepOperator(off, diag)
        assert op.prefix_form == (prefix and nodes > 1)
        got = op.solve(rhs)
        assert got.shape == rhs.shape
        _assert_matches_dense(got, rhs, (off, diag))

    def test_pivot_threshold_is_per_node(self):
        # A well-conditioned node at scale 1e-14 batched with an O(1) node
        # factors as it would on its own.
        rng = np.random.default_rng(11)
        scale = np.array([[1e-14], [1.0]])
        bands = tuple(band * scale for band in _dominant_bands(rng, 2, 6))
        op = StepOperator(*bands)
        rhs = rng.standard_normal((3, 4, 6))
        _assert_matches_dense(op.solve(rhs), rhs, bands)

    def test_rejects_misgrouped_rhs(self):
        rng = np.random.default_rng(12)
        per_node = StepOperator(*_dominant_bands(rng, 2, 4))
        for shape in [(2, 3, 4), (3, 4), (4,), (2, 5), (2, 2, 3)]:
            with pytest.raises(ValueError, match=r"rhs"):
                per_node.solve(np.ones(shape))
        shared = StepOperator(*(band[0] for band in _dominant_bands(rng, 1, 4)))
        assert shared.solve(np.ones((3, 4))).shape == (3, 4)
        with pytest.raises(ValueError, match=r"last axis"):
            shared.solve(np.ones((2, 6)))

    @pytest.mark.parametrize("N", [2, 15, 63, 255])
    def test_drift_implicit_takes_prefix_form(self, N):
        mesh = build_mesh(N)
        rng = np.random.default_rng(N)
        for T in (0.01, 1.0, 10.0):
            for depth in (1, 10, 20):
                dt = ScenarioTree(depth, T).dt
                # dt*a1 at both ends of the dominance range, and mixed.
                dt_a1 = np.stack([np.full(N, 0.99), np.full(N, -0.99), rng.uniform(-0.99, 0.99, N)])
                op = StepOperator.drift_implicit(mesh, dt, dt_a1 / dt)
                assert op.prefix_form, (N, T, depth)
                bands = (np.full((3, N - 1), -dt / mesh.h**2), 1.0 + 2.0 * dt / mesh.h**2 - dt_a1)
                rhs = rng.standard_normal((2, 6, N))
                _assert_matches_dense(op.solve(rhs), rhs, bands)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_shared_bands_keep_batch_shape(self, n, seed):
        rng = np.random.default_rng(seed)
        off, diag = (band[0] for band in _dominant_bands(rng, 1, n))
        rhs = rng.standard_normal((2, 3, n))
        got = StepOperator(off, diag).solve(rhs)
        assert got.shape == rhs.shape
        _assert_matches_dense(got, rhs, (off[np.newaxis], diag[np.newaxis]))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_shared_inverse_equals_its_transpose(self, n, seed):
        # Both sweep directions apply this one array (the backward step as
        # its stacked copies in ``split``), so they stay exact transposes of
        # each other.
        off, diag = (band[0] for band in _dominant_bands(np.random.default_rng(seed), 1, n))
        inverse = StepOperator(off, diag).solve(np.eye(n))
        assert np.array_equal(inverse, inverse.T)

    def test_split_stacks_the_shared_inverse(self):
        mesh = build_mesh(5)
        dt = 0.1
        rng = np.random.default_rng(14)
        shared = StepOperator.drift_implicit(mesh, dt, rng.uniform(-1, 1, (1, mesh.N)))
        inverse = shared.solve(np.eye(mesh.N))
        diff, mean = shared.split
        np.testing.assert_array_equal(diff, np.vstack([-inverse, inverse]) / (2.0 * np.sqrt(dt)))
        np.testing.assert_array_equal(mean, np.vstack([inverse, inverse]) / 2.0)
        assert all(m.flags.c_contiguous for m in (diff, mean))
        assert StepOperator.drift_implicit(mesh, dt, rng.uniform(-1, 1, (2, mesh.N))).split is None

    def test_drift_implicit_matches_one_off_solve(self):
        mesh = build_mesh(11)
        rng = np.random.default_rng(10)
        dt = 0.05
        ones = np.ones(mesh.N - 1)
        lap = (np.diag(ones, -1) - 2 * np.eye(mesh.N) + np.diag(ones, 1)) / mesh.h**2
        for a1 in (rng.uniform(-1, 1, (1, mesh.N)), rng.uniform(-1, 1, (4, mesh.N))):
            op = StepOperator.drift_implicit(mesh, dt, a1)
            rhs = rng.standard_normal((8, mesh.N))
            got = op.solve(rhs)
            # row r of the right-hand side uses node r // (8 / nodes)
            for row, a in enumerate(np.repeat(a1, 8 // a1.shape[0], axis=0)):
                mat = np.eye(mesh.N) - dt * (lap + np.diag(a))
                np.testing.assert_allclose(got[row], np.linalg.solve(mat, rhs[row]), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_singular_shared_matrix_raises_at_build(self, n, data, seed):
        # Prescribe the pivots with pivot k exactly zero and derive the diagonal.
        k = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        piv = rng.uniform(1, 2, n) * rng.choice([-1.0, 1.0], n)
        piv[k] = 0.0
        off = rng.uniform(0.5, 1, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        diag = piv.copy()
        diag[1:k + 1] += off[:k] ** 2 / piv[:k]
        with pytest.raises(SingularSystemError, match=f"vanishing pivot at row {k}"):
            StepOperator(off, diag)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_shared_matrix_reports_the_pivot_of_its_per_node_copies(self, n, data, seed):
        # One shared matrix runs the pivot recurrence on plain floats, per-node
        # matrices run it on arrays; both must name the same row and scale,
        # a NaN pivot (here from the off-diagonal entry above row k) counting
        # as vanishing.
        k = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        piv = rng.uniform(1, 2, n) * rng.choice([-1.0, 1.0], n)
        piv[k] = 0.0
        off = rng.uniform(0.5, 1, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        diag = piv.copy()
        diag[1:k + 1] += off[:k] ** 2 / piv[:k]
        if k and data.draw(st.booleans()):
            off[k - 1] = np.nan
        messages = []
        for d in (diag, np.stack([diag, diag])):
            with pytest.raises(SingularSystemError, match=f"vanishing pivot at row {k} ") as info:
                StepOperator(off, d)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_singular_drift_matrix_names_the_step(self):
        # N=2: the matrix is [[d, -c], [-c, d]] with c = dt/h^2, singular when d = c.
        mesh = build_mesh(2)
        dt = 0.1
        c = dt / mesh.h**2
        with pytest.raises(SingularSystemError, match=r"dt=0\.1, h=0\.333333, max\|a1\|=19"):
            StepOperator.drift_implicit(mesh, dt, np.full((1, 2), (1 + c) / dt))

    def test_a_per_node_operator_keeps_two_values_per_node_and_row(self):
        mesh = build_mesh(63)
        nodes = 512
        a1 = np.random.default_rng(22).uniform(-1, 1, (nodes, mesh.N))
        rows = 2 * nodes * mesh.N * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op = StepOperator.drift_implicit(mesh, 0.01, a1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.prefix_form
        # the two rows and the object itself; the rows are built in place
        # from the pivots, and the diagonal and its one temporary are the
        # build's only other arrays of that size
        assert rows <= kept - before <= rows + 4096
        assert peak - before <= 2 * rows
