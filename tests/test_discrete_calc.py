import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcontrol.discrete_calc import (DualGridFunction, GridFunction, StepOperator,
                                     apply_Ah, apply_Dh, apply_Dh_dual,
                                     apply_Dh2, consistency_orders, drift_implicit_bands,
                                     ibp_residuals, leibniz_residuals,
                                     solve_drift_implicit, solve_tridiagonal)
from sdcontrol.errors import SingularSystemError
from sdcontrol.mesh import build_mesh, integrate
from sdcontrol.noise_tree import ScenarioTree


def grid(mesh, f):
    return GridFunction.from_callable(mesh, f)


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
        u = GridFunction.from_interior(mesh, rng.standard_normal(mesh.N))
        w = GridFunction.from_interior(mesh, rng.standard_normal(mesh.N))
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
        u = GridFunction.from_interior(mesh, rng.standard_normal(mesh.N))
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

    def test_zero_dt_is_identity(self):
        mesh = build_mesh(5)
        rhs = np.arange(5.0)
        np.testing.assert_allclose(solve_drift_implicit(mesh, 0.0, np.zeros(5), rhs), rhs)

    def test_transpose_matches_plain_for_symmetric_matrix(self):
        mesh = build_mesh(7)
        rng = np.random.default_rng(7)
        a1 = rng.uniform(-0.5, 0.5, mesh.N)
        rhs = rng.standard_normal(mesh.N)
        plain = solve_drift_implicit(mesh, 0.05, a1, rhs)
        trans = solve_drift_implicit(mesh, 0.05, a1, rhs, transpose=True)
        np.testing.assert_allclose(plain, trans, rtol=1e-14)

    def test_batched_rhs(self):
        mesh = build_mesh(6)
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal((4, mesh.N))
        a1 = np.zeros(mesh.N)
        batched = solve_drift_implicit(mesh, 0.02, a1, rhs)
        for i in range(4):
            np.testing.assert_allclose(batched[i], solve_drift_implicit(mesh, 0.02, a1, rhs[i]))


class TestTridiagonal:
    def test_vanishing_pivot_raises(self):
        # second pivot is 1 - 1*1/1 = 0
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(np.array([1.0]), np.array([1.0, 1.0]),
                              np.array([1.0]), np.array([1.0, 1.0]))

    def test_transpose_flag(self):
        rng = np.random.default_rng(9)
        n = 6
        sub, diag, sup = rng.standard_normal(n - 1), rng.uniform(3, 4, n), rng.standard_normal(n - 1)
        rhs = rng.standard_normal(n)
        mat = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        np.testing.assert_allclose(solve_tridiagonal(sub, diag, sup, rhs), np.linalg.solve(mat, rhs), rtol=1e-12)
        np.testing.assert_allclose(solve_tridiagonal(sub, diag, sup, rhs, transpose=True),
                                   np.linalg.solve(mat.T, rhs), rtol=1e-12)


def _dominant_bands(rng, nodes, n):
    """Strictly diagonally dominant bands (rows and columns), one matrix per node."""
    sub = rng.uniform(-1, 1, (nodes, n - 1))
    sup = rng.uniform(-1, 1, (nodes, n - 1))
    diag = rng.uniform(2.5, 4.0, (nodes, n)) * rng.choice([-1.0, 1.0], (nodes, 1))
    return sub, diag, sup


def _bands_with_zero_entry(rng, nodes, n):
    """Dominant bands with one off-diagonal entry exactly zero: a reducible matrix."""
    sub, diag, sup = _dominant_bands(rng, nodes, n)
    band = sub if rng.random() < 0.5 else sup
    band[rng.integers(nodes), rng.integers(n - 1)] = 0.0
    return sub, diag, sup


def _tiny_multiplier_bands(rng, nodes, n):
    """Dominant bands whose multipliers are near 1e-20, so prefix products underflow."""
    sub, diag, sup = _dominant_bands(rng, nodes, n)
    return 1e-20 * sub, diag, 1e-20 * sup


def _dense(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def _assert_matches_dense(got, rhs, bands, transpose):
    """Each node's rows of ``got`` (..., P*C, n) against np.linalg.solve at rtol 1e-12."""
    sub, diag, sup = bands
    nodes = len(diag)
    grouped_got = got.reshape(-1, nodes, got.shape[-2] // nodes, got.shape[-1])
    grouped_rhs = rhs.reshape(grouped_got.shape)
    for p in range(nodes):
        mat = _dense(sub[p], diag[p], sup[p])
        rows = grouped_rhs[:, p].reshape(-1, rhs.shape[-1])
        ref = np.linalg.solve(mat.T if transpose else mat, rows.T).T
        np.testing.assert_allclose(grouped_got[:, p].reshape(ref.shape), ref,
                                   rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# (smallest n, band builder, whether per-node operators take the prefix form)
_BAND_KINDS = {
    "dominant": (2, _dominant_bands, True),
    "zero_entry": (2, _bands_with_zero_entry, False),
    "tiny_multipliers": (16, _tiny_multiplier_bands, False),
}


class TestStepOperator:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(sorted(_BAND_KINDS)), extra=st.integers(0, 10),
           nodes=st.integers(1, 5), per_node=st.integers(1, 3), samples=st.integers(1, 3),
           transpose=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_solve(self, kind, extra, nodes, per_node, samples, transpose, seed):
        # nodes == 1 is the shared matrix (inverse + matmul); nodes > 1 the
        # per-node factors, prefix form or Thomas substitution by the band
        # kind, applied to rows grouped by node, for every sample along the
        # leading axis.
        n_min, build, prefix = _BAND_KINDS[kind]
        n = n_min + extra
        rng = np.random.default_rng(seed)
        sub, diag, sup = build(rng, nodes, n)
        rhs = rng.standard_normal((samples, nodes * per_node, n))
        op = StepOperator(sub, diag, sup)
        assert op.prefix_form == (prefix and nodes > 1)
        got = op.solve(rhs, transpose=transpose)
        assert got.shape == rhs.shape
        _assert_matches_dense(got, rhs, (sub, diag, sup), transpose)

    def test_pivot_threshold_is_per_node(self):
        # A well-conditioned node at scale 1e-14 batched with an O(1) node
        # factors as it would on its own.
        rng = np.random.default_rng(11)
        scale = np.array([[1e-14], [1.0]])
        bands = tuple(band * scale for band in _dominant_bands(rng, 2, 6))
        op = StepOperator(*bands)
        rhs = rng.standard_normal((3, 4, 6))
        for transpose in (False, True):
            _assert_matches_dense(op.solve(rhs, transpose=transpose), rhs, bands, transpose)

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
                bands = tuple(np.broadcast_to(b, (3, len(b) if b.ndim == 1 else N))
                              for b in drift_implicit_bands(mesh, dt, dt_a1 / dt))
                rhs = rng.standard_normal((2, 6, N))
                for transpose in (False, True):
                    _assert_matches_dense(op.solve(rhs, transpose=transpose), rhs, bands, transpose)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 10), transpose=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_shared_bands_keep_batch_shape(self, n, transpose, seed):
        rng = np.random.default_rng(seed)
        sub, diag, sup = (band[0] for band in _dominant_bands(rng, 1, n))
        rhs = rng.standard_normal((2, 3, n))
        got = StepOperator(sub, diag, sup).solve(rhs, transpose=transpose)
        assert got.shape == rhs.shape
        _assert_matches_dense(got, rhs, tuple(band[np.newaxis] for band in (sub, diag, sup)),
                              transpose)

    def test_drift_implicit_matches_one_off_solve(self):
        mesh = build_mesh(11)
        rng = np.random.default_rng(10)
        dt = 0.05
        ones = np.ones(mesh.N - 1)
        lap = (np.diag(ones, -1) - 2 * np.eye(mesh.N) + np.diag(ones, 1)) / mesh.h**2
        for a1 in (rng.uniform(-1, 1, (1, mesh.N)), rng.uniform(-1, 1, (4, mesh.N))):
            op = StepOperator.drift_implicit(mesh, dt, a1)
            rhs = rng.standard_normal((8, mesh.N))
            for transpose in (False, True):
                got = op.solve(rhs, transpose=transpose)
                # row r of the right-hand side uses node r // (8 / nodes)
                for row, a in enumerate(np.repeat(a1, 8 // a1.shape[0], axis=0)):
                    mat = np.eye(mesh.N) - dt * (lap + np.diag(a))
                    ref = np.linalg.solve(mat.T if transpose else mat, rhs[row])
                    np.testing.assert_allclose(got[row], ref, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_singular_shared_matrix_raises_at_build(self, n, data, seed):
        # Prescribe the pivots with pivot k exactly zero and derive the diagonal.
        k = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        piv = rng.uniform(1, 2, n) * rng.choice([-1.0, 1.0], n)
        piv[k] = 0.0
        sub = rng.uniform(0.5, 1, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        sup = rng.uniform(0.5, 1, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        diag = piv.copy()
        diag[1:k + 1] += sub[:k] * sup[:k] / piv[:k]
        with pytest.raises(SingularSystemError, match=f"vanishing pivot at row {k}"):
            StepOperator(sub, diag, sup)

    def test_singular_drift_matrix_names_the_step(self):
        # N=2: the matrix is [[d, -c], [-c, d]] with c = dt/h^2, singular when d = c.
        mesh = build_mesh(2)
        dt = 0.1
        c = dt / mesh.h**2
        with pytest.raises(SingularSystemError, match=r"dt=0\.1, h=0\.333333, max\|a1\|=19"):
            StepOperator.drift_implicit(mesh, dt, np.full((1, 2), (1 + c) / dt))
