import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcontrol.mesh import build_mesh, integrate


def test_build_mesh_n3():
    mesh = build_mesh(3)
    assert mesh.h == 0.25
    np.testing.assert_allclose(mesh.interior, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(mesh.closure, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_build_mesh_n2():
    mesh = build_mesh(2)
    assert mesh.h == pytest.approx(1 / 3, rel=1e-15)
    np.testing.assert_allclose(mesh.interior, [1 / 3, 2 / 3])


def test_build_mesh_rejects_small_n():
    with pytest.raises(ValueError):
        build_mesh(1)


def test_dual_of_n3():
    dual = build_mesh(3)
    np.testing.assert_allclose(dual.star, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(dual.prime, [0.375, 0.625])


def test_dual_of_n2():
    dual = build_mesh(2)
    np.testing.assert_allclose(dual.star, [1 / 6, 1 / 2, 5 / 6])
    np.testing.assert_allclose(dual.prime, [0.5])


@given(st.integers(min_value=2, max_value=80))
@settings(max_examples=30, deadline=None)
def test_dual_cardinalities_and_containment(N):
    mesh = build_mesh(N)
    assert mesh.star.shape == (N + 1,)
    assert mesh.prime.shape == (N - 1,)
    # prime points are the star points strictly inside (0, 1), bit for bit
    np.testing.assert_array_equal(mesh.prime, mesh.star[1:-1])


def test_star_points_are_midpoints_of_closure_neighbors():
    mesh = build_mesh(5)
    star = mesh.star
    mids = 0.5 * (mesh.closure[:-1] + mesh.closure[1:])
    np.testing.assert_allclose(star, mids, rtol=0, atol=1e-15)


def test_integrate_constant_interior():
    mesh = build_mesh(3)
    assert integrate(mesh, np.ones(3)) == pytest.approx(0.75, abs=1e-15)


def test_integrate_zero():
    mesh = build_mesh(8)
    assert integrate(mesh, np.zeros(8)) == 0.0


def test_integrate_boundary_has_no_h_factor():
    mesh = build_mesh(3)
    assert integrate(mesh, np.array([2.0, 3.0]), "boundary") == 5.0


def test_integrate_length_mismatch():
    mesh = build_mesh(3)
    with pytest.raises(ValueError):
        integrate(mesh, np.ones(4), "interior")
    with pytest.raises(ValueError):
        integrate(mesh, np.ones(3), "star")


def test_integrate_linearity():
    rng = np.random.default_rng(0)
    for N in (3, 8, 16):
        mesh = build_mesh(N)
        u, v = rng.standard_normal(N), rng.standard_normal(N)
        lhs = integrate(mesh, 2.5 * u - 1.25 * v)
        rhs = 2.5 * integrate(mesh, u) - 1.25 * integrate(mesh, v)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-14 * scale

