from dataclasses import replace

import numpy as np
import pytest

from sdcontrol.errors import WeightConfigError
from sdcontrol.mesh import build_mesh
from sdcontrol.weights import (WeightParams, build_weights,
                               delta_schedule, probe_gradient_coupling,
                               probe_second_difference, schedule_h1, theta,
                               theta_bound_margins, validate_regime)


def default_weights(**overrides):
    kwargs = dict(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5, K=2.0)
    kwargs.update(overrides)
    return build_weights(WeightParams(**kwargs))


class TestProfileValidation:
    def test_centered_profile_accepted(self):
        w = default_weights()
        # K - (x - x0)^2 with K=2, x0=0.5
        assert w.psi(0.0) == pytest.approx(1.75)
        assert w.psi_prime(0.0) == pytest.approx(1.0)
        assert w.psi_prime(1.0) == pytest.approx(-1.0)

    def test_peak_at_zero_rejected(self):
        # slope at x=0 vanishes when the peak sits on the boundary
        with pytest.raises(WeightConfigError):
            build_weights(WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25,
                                       x0=0.0, omega0=(-0.05, 0.05), omega=(-0.1, 0.1)))

    def test_degenerate_peak_rejected_by_param_check(self):
        with pytest.raises(WeightConfigError):
            WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.0)

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(WeightConfigError):
            build_weights(WeightParams(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5, K=0.2))

    @pytest.mark.parametrize("bad", [
        dict(lam=1.0), dict(mu=0.9), dict(delta=0.5), dict(delta=0.0),
        dict(eps0=0.0), dict(eps0=1.5), dict(x0=0.35),
        dict(omega0=(0.2, 0.8)),
    ])
    def test_invalid_params(self, bad):
        kwargs = dict(T=1.0, lam=2.0, mu=1.2, delta=0.25, x0=0.5)
        kwargs.update(bad)
        with pytest.raises(WeightConfigError):
            WeightParams(**kwargs)


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
        assert theta(w, 0.0) == pytest.approx(3.2, abs=1e-14)

    def test_symmetry(self):
        w = default_weights()
        assert theta(w, 0.0) == pytest.approx(theta(w, 1.0), abs=1e-15)

    def test_midpoint_minimum(self):
        w = default_weights()
        mid = theta(w, 0.5)
        assert mid == pytest.approx(1 / 0.5625, abs=1e-12)
        t = np.linspace(0, 1, 101)
        assert np.min(theta(w, t)) == pytest.approx(mid, abs=1e-12)

    def test_domain_check(self):
        w = default_weights()
        with pytest.raises(ValueError):
            theta(w, -0.1)
        with pytest.raises(ValueError):
            theta(w, 1.5)

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
