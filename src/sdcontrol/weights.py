"""Carleman weight family and its parameter-regime guards.

The profile is the explicit quadratic psi(x) = K - (x - x0)^2 with its peak
inside the inner observation window.  Its four admissibility conditions
(positivity on the extended interval, nonvanishing slope away from the
window, inward-pointing slopes at both endpoints) follow from the rules of
``weight_problems``: positivity is one of them, and the slope -2(x - x0)
vanishes only at x0, which lies inside omega0 inside omega inside [0, 1].
The time factor blows up at both endpoints of [0, T], so products such as
exp(s*phi) routinely leave the double range; callers combine exponents
before exponentiating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import WeightConfigError

EXTENDED_LO = -0.1
EXTENDED_HI = 1.1


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the weight family.

    ``omega0`` must sit strictly inside ``omega``, itself inside [0, 1];
    ``x0`` is the profile peak and must lie in ``omega0``, and ``K`` must
    keep the profile positive on the extended interval.  ``eps0`` is the
    regime threshold for lambda*h/(delta*T^2).
    """

    T: float
    lam: float
    mu: float
    delta: float
    x0: float
    K: float = 2.0
    eps0: float = 1.0
    omega0: tuple[float, float] = (0.4, 0.6)
    omega: tuple[float, float] = (0.3, 0.7)

    def __post_init__(self):
        problems = weight_problems(self.T, self.lam, self.mu, self.delta, self.x0,
                                   self.K, self.eps0, self.omega0, self.omega)
        if problems:
            raise WeightConfigError(problems[0])

    def at_mesh(self, h: float) -> "WeightParams":
        """The family at mesh size h, reading ``delta`` as delta0: the margin
        at the coarsest scheduled mesh h1, where the regime ratio is eps0.

        Raises ValueError when h > h1.
        """
        h1 = schedule_h1(self.lam, self.eps0, self.delta, self.T)
        return replace(self, delta=delta_schedule(h, h1, self.delta))


def weight_problems(T: float, lam: float, mu: float, delta: float, x0: float,
                    K: float, eps0: float, omega0: tuple[float, float],
                    omega: tuple[float, float]) -> list[str]:
    """Violated constraints of the weight parameters (empty when admissible).

    These are all the weight rules; the profile's slope conditions follow
    from them.  The profile is least at an end of the extended interval.
    """
    problems = []
    if T <= 0:
        problems.append(f"T must be positive, got {T}")
    if lam <= 1:
        problems.append(f"lam must exceed 1, got {lam}")
    if mu <= 1:
        problems.append(f"mu must exceed 1, got {mu}")
    if not 0 < delta < 0.5:
        problems.append(f"delta must lie in (0, 1/2), got {delta}")
    if not 0 < eps0 <= 1:
        problems.append(f"eps0 must lie in (0, 1], got {eps0}")
    a0, b0 = omega0
    a, b = omega
    if not (0 <= a and b <= 1):
        problems.append(f"omega must lie in [0, 1], got {omega}")
    if not (a < a0 < b0 < b):
        problems.append(f"omega0={tuple(omega0)} must be strictly inside omega={tuple(omega)}")
    if not a0 < x0 < b0:
        problems.append(f"x0={x0} must lie inside omega0={tuple(omega0)}")
    # squared as products: a float's ** 2 goes through libm pow, which can
    # round one ulp above the correctly rounded d * d
    lo, hi = EXTENDED_LO - x0, EXTENDED_HI - x0
    psi_min = K - max(lo * lo, hi * hi)
    if psi_min <= 0:
        problems.append(f"profile must stay positive on ({EXTENDED_LO}, {EXTENDED_HI}); "
                        f"min={psi_min:.6g} (raise K or move x0)")
    return problems


@dataclass(frozen=True)
class CarlemanWeights:
    """Evaluators for the space profile and time factor of the weight."""

    params: WeightParams

    def psi(self, x):
        p = self.params
        return p.K - (np.asarray(x, dtype=float) - p.x0) ** 2

    def varphi(self, x):
        return np.exp(self.params.mu * self.psi(x))

    def phi(self, x):
        # K is the profile's sup-norm on the extended interval: the profile
        # is positive there (a rule of ``weight_problems``), so it is its
        # peak psi(x0) = K
        return self.varphi(x) - np.exp(2.0 * self.params.mu * self.params.K)

    def theta(self, t) -> float | np.ndarray:
        """Time factor 1/((t + delta*T)(T + delta*T - t)) on [0, T]."""
        p = self.params
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0) or np.any(tt > p.T):
            raise ValueError(f"time must lie in [0, {p.T}]")
        out = 1.0 / ((tt + p.delta * p.T) * (p.T + p.delta * p.T - tt))
        return float(out) if out.ndim == 0 else out

    def s(self, t):
        return self.params.lam * self.theta(t)

    def log_r(self, t, x):
        """Exponent s(t)*phi(x) of the decaying weight (always negative)."""
        tt = np.asarray(t, dtype=float)
        xx = np.asarray(x, dtype=float)
        return self.s(tt) * self.phi(xx)

    def r(self, t, x):
        return np.exp(self.log_r(t, x))

    def rho(self, t, x):
        return np.exp(-self.log_r(t, x))


def build_weights(params: WeightParams) -> CarlemanWeights:
    """The evaluators of an admissible family (``WeightParams`` checked it)."""
    return CarlemanWeights(params=params)


def validate_regime(w: CarlemanWeights, h: float) -> tuple[bool, float]:
    """Check lambda*h/(delta*T^2) <= eps0; returns (accepted, ratio).

    The scheduled margin puts the ratio at eps0 exactly in exact arithmetic,
    and roundoff can land it a few ulps above; 8 ulps of slack accepts that.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    p = w.params
    ratio = p.lam * h / (p.delta * p.T * p.T)
    return ratio <= p.eps0 * (1.0 + 8.0 * np.finfo(float).eps), ratio


def delta_schedule(h: float, h1: float, delta0: float) -> float:
    """Time-margin schedule proportional to the mesh size: (h/h1)*delta0."""
    if not 0 < delta0 < 0.5:
        raise ValueError(f"delta0 must lie in (0, 1/2), got {delta0}")
    if h <= 0 or h1 <= 0:
        raise ValueError("h and h1 must be positive")
    if h > h1:
        raise ValueError(f"schedule needs h <= h1 (got h={h} > h1={h1})")
    return (h / h1) * delta0


def schedule_h1(lam: float, eps0: float, delta0: float, T: float) -> float:
    """Coarsest mesh size for which the scheduled regime ratio equals eps0."""
    return eps0 * delta0 * T * T / lam


def theta_bound_margins(w: CarlemanWeights) -> dict[str, float]:
    """Margins of the time-factor bounds used downstream (all should be >= 0),
    on 512 equispaced times in [0, T]."""
    p = w.params
    t = np.linspace(0.0, p.T, 512)
    th = w.theta(t)
    mid = (t >= p.T / 4) & (t <= 3 * p.T / 4)
    return {
        "floor": float(th.min() - 1.0 / p.T**2),
        "mid_ceiling": float(16.0 / (3.0 * p.T**2) - th[mid].max()),
        "endpoint_floor": float(w.theta(0.0) - (2.0 / 3.0) / (p.delta * p.T**2)),
        "symmetry": float(np.abs(th - th[::-1]).max()),
    }
