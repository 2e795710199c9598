from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcontrol.errors import WeightConfigError
from sdcontrol.mesh import build_mesh
from sdcontrol.weights import (WeightParams, build_weights, delta_schedule, schedule_h1,
                               theta_bound_margins, validate_regime, weight_problems)


def default_weights(**overrides):
    kwargs = dict(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5, K=2.0)
    kwargs.update(overrides)
    return build_weights(WeightParams(**kwargs))


class TestProfileValidation:
    def test_centered_profile_accepted(self):
        w = default_weights()
        # K - (x - x0)^2 with K=2, x0=0.5
        assert w.psi(0.0) == pytest.approx(1.75)

    @pytest.mark.parametrize("x0", [0.45, 0.5])
    def test_sup_is_the_peak_value(self, x0):
        # the profile is positive on the extended interval, so its sup-norm
        # is psi(x0) = K exactly, also for a peak between grid points
        w = default_weights(x0=x0, K=1.7)
        mu = w.params.mu
        assert w.psi(x0) == 1.7
        assert w.phi(x0) == np.exp(mu * 1.7) - np.exp(2.0 * mu * 1.7)

    def test_peak_at_zero_rejected(self):
        # the slope at x=0 would vanish with the peak on the boundary, which
        # needs a window reaching outside [0, 1]
        with pytest.raises(WeightConfigError, match=r"omega must lie in \[0, 1\]"):
            WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25,
                         x0=0.0, omega0=(-0.05, 0.05), omega=(-0.1, 0.1))

    def test_degenerate_peak_rejected_by_param_check(self):
        with pytest.raises(WeightConfigError):
            WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.0)

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(WeightConfigError, match="profile must stay positive"):
            WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5, K=0.2)

    @pytest.mark.parametrize("bad", [
        dict(lam=1.0), dict(mu=0.9), dict(delta=0.5), dict(delta=0.0),
        dict(eps0=0.0), dict(eps0=1.5), dict(x0=0.35),
        dict(omega0=(0.2, 0.8)), dict(omega=(-0.5, 1.5)),
    ])
    def test_invalid_params(self, bad):
        kwargs = dict(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5)
        kwargs.update(bad)
        with pytest.raises(WeightConfigError):
            WeightParams(**kwargs)


def _grid_rejects(x0, K):
    """The profile-positivity check as once made on a 2001-point grid."""
    return (K - (np.linspace(-0.1, 1.1, 2001) - x0) ** 2).min() <= 0


def _flags_positivity(x0, K):
    problems = weight_problems(1.0, 2.0, 1.2, 0.25, x0, K, 1.0, (0.4, 0.6), (0.3, 0.7))
    return any("profile must stay positive" in p for p in problems)


def _near_boundary(x0, steps):
    """The boundary value of K, the larger (end - x0)^2, moved ``steps`` ulps up."""
    lo, hi = -0.1 - x0, 1.1 - x0
    K = max(lo * lo, hi * hi)
    for _ in range(abs(steps)):
        K = np.nextafter(K, np.inf if steps > 0 else -np.inf)
    return float(K)


class TestProfileClosedForm:
    @pytest.mark.parametrize("x0", [0.4 + 1e-12, 0.41, 0.45, 0.5, 0.5 + 2**-40, 0.55,
                                    0.59, 0.6 - 1e-12])
    @pytest.mark.parametrize("steps", [-1, 0, 1])
    def test_matches_grid_minimum_at_the_boundary(self, x0, steps):
        K = _near_boundary(x0, steps)
        assert _flags_positivity(x0, K) == _grid_rejects(x0, K) == (steps <= 0)

    @given(st.floats(0.4, 0.6, exclude_min=True, exclude_max=True),
           st.integers(-3, 3) | st.floats(0.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_grid_minimum(self, x0, k):
        K = _near_boundary(x0, k) if isinstance(k, int) else k
        assert _flags_positivity(x0, K) == _grid_rejects(x0, K)


class TestEvaluators:
    def test_inverse_pair(self):
        # sampled away from the time endpoints, where exp(+-s*phi) stays
        # inside double range; the estimators work on exponents directly
        w = default_weights()
        x = np.linspace(0, 1, 41)
        for t in np.linspace(0.25, 0.75, 9):
            assert np.abs(w.log_r(t, x)).max() < 700
            np.testing.assert_allclose(w.r(t, x) * w.rho(t, x), 1.0, rtol=0, atol=1e-14)

    def test_weight_below_one(self):
        w = default_weights()
        x = np.linspace(0, 1, 41)
        assert (w.phi(x) < 0).all()
        assert (w.r(0.3, x) < 1).all()
        assert (w.rho(0.3, x) > 1).all()

    def test_monotone_in_profile(self):
        # larger profile values give larger decaying weight at fixed time
        w = default_weights()
        x = np.linspace(0, 1, 101)
        psi = w.psi(x)
        r = w.r(0.4, x)
        order = np.argsort(psi)
        assert (np.diff(r[order]) >= 0).all()


class TestTimeFactor:
    def test_hand_value_at_zero(self):
        w = default_weights()
        assert w.theta(0.0) == pytest.approx(3.2, abs=1e-14)

    def test_symmetry(self):
        w = default_weights()
        assert w.theta(0.0) == pytest.approx(w.theta(1.0), abs=1e-15)

    def test_midpoint_minimum(self):
        w = default_weights()
        mid = w.theta(0.5)
        assert mid == pytest.approx(1 / 0.5625, abs=1e-12)
        t = np.linspace(0, 1, 101)
        assert np.min(w.theta(t)) == pytest.approx(mid, abs=1e-12)

    def test_domain_check(self):
        w = default_weights()
        with pytest.raises(ValueError):
            w.theta(-0.1)
        with pytest.raises(ValueError):
            w.theta(1.5)

    def test_bound_margins(self):
        margins = theta_bound_margins(default_weights())
        assert margins["floor"] >= -1e-12
        assert margins["mid_ceiling"] >= -1e-12
        assert margins["endpoint_floor"] >= -1e-12
        assert margins["symmetry"] <= 1e-14


class TestRegime:
    def test_accept_example(self):
        w = default_weights(lam=10.0)
        ok, ratio = validate_regime(w, 0.01)
        assert ok and ratio == pytest.approx(0.4, abs=1e-14)

    def test_boundary_equality_accepts(self):
        w = default_weights(lam=2.0, delta=0.25, eps0=1.0)
        ok, ratio = validate_regime(w, 0.125)
        assert ratio == pytest.approx(1.0, abs=1e-15)
        assert ok

    def test_scheduled_families_accepted_despite_roundoff(self):
        # at_mesh puts the ratio at eps0 exactly in exact arithmetic, and
        # roundoff lands it a few ulps above for about 3 in 10 families
        rng = np.random.default_rng(11)
        for _ in range(500):
            lam, delta0, eps0, T = (rng.uniform(1.01, 50.0), rng.uniform(0.01, 0.49),
                                    rng.uniform(0.01, 1.0), rng.uniform(0.1, 5.0))
            family = WeightParams(T=T, lam=lam, mu=1.2, delta=delta0, x0=0.5, eps0=eps0)
            h1 = schedule_h1(lam, eps0, delta0, T)
            N = int(np.ceil(1.0 / h1)) - 1 + int(rng.integers(0, 50))
            h = 1.0 / (N + 1)
            ok, ratio = validate_regime(default_weights(**vars(family.at_mesh(h))), h)
            assert ok, (lam, delta0, eps0, T, N, ratio)

    def test_above_the_roundoff_slack_rejected(self):
        eps0, delta, T, lam = 0.7, 0.25, 0.7, 2.0
        w = default_weights(lam=lam, delta=delta, eps0=eps0, T=T)
        ok, ratio = validate_regime(w, eps0 * (1 + 1e-12) * delta * T * T / lam)
        assert ratio > eps0 and not ok

    def test_reject_example(self):
        w = default_weights(lam=100.0)
        ok, ratio = validate_regime(w, 0.05)
        assert not ok and ratio == pytest.approx(20.0, abs=1e-12)


class TestSchedule:
    def test_endpoint(self):
        assert delta_schedule(0.1, 0.1, 0.25) == 0.25

    def test_proportionality(self):
        assert delta_schedule(0.05, 0.1, 0.25) == pytest.approx(0.125)

    def test_equality_ratio(self):
        h1 = schedule_h1(8.0, 1.0, 0.25, 1.0)
        assert h1 == pytest.approx(1 / 32)
        d = delta_schedule(1 / 64, h1, 0.25)
        assert d == pytest.approx(1 / 8)
        assert 8.0 * (1 / 64) / (d * 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_mesh_rescales_the_family_at_h1(self):
        family = default_weights(lam=8.0).params
        h1 = schedule_h1(8.0, 1.0, 0.25, 1.0)
        assert family.at_mesh(h1) == family
        half = family.at_mesh(h1 / 2)
        assert half.delta == delta_schedule(h1 / 2, h1, 0.25)
        assert replace(half, delta=0.25) == family
        with pytest.raises(ValueError, match="h1"):
            family.at_mesh(2 * h1)

    def test_h_above_h1_rejected(self):
        with pytest.raises(ValueError):
            delta_schedule(0.2, 0.1, 0.25)
        with pytest.raises(ValueError):
            delta_schedule(0.05, 0.1, 0.6)


def weighted_stencil_product(w, t, x, terms):
    """Sum of c * exp(-s*(phi(x+a) + phi(x+b) - 2*phi(x))) over (c, a, b) terms.

    Evaluates stencil products of the form r^2 * (shifted rho)(shifted rho)
    without ever forming the factors separately, which keeps the exponents
    O(s*h) instead of O(s).
    """
    x = np.asarray(x, dtype=float)
    s = w.s(t)
    base = w.phi(x)
    out = np.zeros_like(base)
    for c, a, b in terms:
        expo = -s * (w.phi(x + a) + w.phi(x + b) - 2.0 * base)
        out = out + c * np.exp(expo)
    return out


def probe_second_difference(w, t, x, h):
    """r * (second difference of rho), exponent-factored; expected O(s^2)."""
    s = w.s(t)
    base = w.phi(np.asarray(x, dtype=float))
    up = np.exp(-s * (w.phi(x + h) - base))
    down = np.exp(-s * (w.phi(x - h) - base))
    return (up - 2.0 + down) / h**2


def probe_gradient_coupling(w, t, x, h):
    """r^2 * (double average of rho) * (averaged difference of rho); expected O(s)."""
    avg = [(0.25, -h), (0.5, 0.0), (0.25, h)]
    dif = [(-0.5 / h, -h), (0.5 / h, h)]
    terms = [(ca * cd, a, d) for ca, a in avg for cd, d in dif]
    return weighted_stencil_product(w, t, x, terms)


class TestScalingProbes:
    """The exponent-factored stencil quantities keep their stated growth
    along the scheduled refinement."""

    def _probe_max(self, weights, mesh, probe, power):
        times = np.linspace(0.0, weights.params.T, 9)
        worst = 0.0
        for t in times:
            s = weights.s(t)
            vals = np.abs(probe(weights, t, mesh.interior, mesh.h))
            worst = max(worst, vals.max() / s**power)
        return worst

    def test_stable_across_refinement(self):
        lam, delta0, eps0 = 2.0, 0.25, 1.0
        h1 = schedule_h1(lam, eps0, delta0, 1.0)
        pairs = []
        for N in (8, 17):
            mesh = build_mesh(N)
            d = delta_schedule(mesh.h, h1, delta0)
            w = default_weights(lam=lam, delta=d)
            ok, ratio = validate_regime(w, mesh.h)
            assert ok
            # the probes assume s*h <= 1, which the regime bound supplies
            assert w.s(0.0) * mesh.h <= ratio <= 1.0
            pairs.append((
                self._probe_max(w, mesh, probe_second_difference, 2),
                self._probe_max(w, mesh, probe_gradient_coupling, 1),
            ))
        (c_coarse, g_coarse), (c_fine, g_fine) = pairs
        assert c_fine <= 10.0 * c_coarse
        assert g_fine <= 10.0 * g_coarse
