"""Carleman weight family and its parameter-regime guards.

The profile is the explicit quadratic psi(x) = K - (x - x0)^2 with its peak
inside the inner observation window, so all four admissibility conditions
(positivity on the extended interval, nonvanishing slope away from the
window, inward-pointing slopes at both endpoints) hold by construction and
are still checked numerically.  The time factor blows up at both endpoints
of [0, T]; products such as exp(s*phi) routinely leave the double range, so
the probe helpers below combine exponents before exponentiating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import WeightConfigError

EXTENDED_LO = -0.1
EXTENDED_HI = 1.1
_PSI_SAMPLES = 2001


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the weight family.

    ``omega0`` must sit strictly inside ``omega``; ``x0`` is the profile
    peak and must lie in ``omega0``.  ``eps0`` is the regime threshold for
    lambda*h/(delta*T^2).
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
                                   self.eps0, self.omega0, self.omega)
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
                    eps0: float, omega0: tuple[float, float],
                    omega: tuple[float, float]) -> list[str]:
    """Violated constraints of the weight parameters (empty when admissible)."""
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
    if not (a < a0 < b0 < b):
        problems.append(f"omega0={tuple(omega0)} must be strictly inside omega={tuple(omega)}")
    if not a0 < x0 < b0:
        problems.append(f"x0={x0} must lie inside omega0={tuple(omega0)}")
    return problems


@dataclass(frozen=True)
class CarlemanWeights:
    """Evaluators for the space profile and time factor of the weight."""

    params: WeightParams
    psi_sup: float

    def psi(self, x):
        p = self.params
        return p.K - (np.asarray(x, dtype=float) - p.x0) ** 2

    def psi_prime(self, x):
        return -2.0 * (np.asarray(x, dtype=float) - self.params.x0)

    def varphi(self, x):
        return np.exp(self.params.mu * self.psi(x))

    def phi(self, x):
        return self.varphi(x) - np.exp(2.0 * self.params.mu * self.psi_sup)

    def theta(self, t):
        return theta(self, t)

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
    """Validate the profile conditions numerically and build the evaluators."""
    grid = np.linspace(EXTENDED_LO, EXTENDED_HI, _PSI_SAMPLES)
    psi = params.K - (grid - params.x0) ** 2
    if psi.min() <= 0:
        raise WeightConfigError(
            f"profile must stay positive on ({EXTENDED_LO}, {EXTENDED_HI}); "
            f"min={psi.min():.6g} (raise K or move x0)"
        )
    slope = -2.0 * (grid - params.x0)
    a0, b0 = params.omega0
    outside = (grid <= a0) | (grid >= b0)
    if np.abs(slope[outside]).min() <= 0:
        raise WeightConfigError("profile slope vanishes outside the inner window")
    if -2.0 * (0.0 - params.x0) <= 0:
        raise WeightConfigError(f"profile slope at x=0 must be positive (x0={params.x0})")
    if -2.0 * (1.0 - params.x0) >= 0:
        raise WeightConfigError(f"profile slope at x=1 must be negative (x0={params.x0})")
    return CarlemanWeights(params=params, psi_sup=float(np.abs(psi).max()))


def theta(w: CarlemanWeights, t) -> float | np.ndarray:
    """Time factor 1/((t + delta*T)(T + delta*T - t)) on [0, T]."""
    p = w.params
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0) or np.any(tt > p.T):
        raise ValueError(f"time must lie in [0, {p.T}]")
    out = 1.0 / ((tt + p.delta * p.T) * (p.T + p.delta * p.T - tt))
    return float(out) if out.ndim == 0 else out


def regime_ratio(lam: float, h: float, delta: float, T: float) -> float:
    return lam * h / (delta * T * T)


def validate_regime(w: CarlemanWeights, h: float) -> tuple[bool, float]:
    """Check lambda*h/(delta*T^2) <= eps0; returns (accepted, ratio)."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    p = w.params
    ratio = regime_ratio(p.lam, h, p.delta, p.T)
    return ratio <= p.eps0, ratio


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


def weighted_stencil_product(w: CarlemanWeights, t: float, x: np.ndarray,
                             terms: Iterable[tuple[float, float, float]]) -> np.ndarray:
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


def probe_second_difference(w: CarlemanWeights, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """r * (second difference of rho), exponent-factored; expected O(s^2)."""
    s = w.s(t)
    base = w.phi(np.asarray(x, dtype=float))
    up = np.exp(-s * (w.phi(x + h) - base))
    down = np.exp(-s * (w.phi(x - h) - base))
    return (up - 2.0 + down) / h**2


def probe_gradient_coupling(w: CarlemanWeights, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """r^2 * (double average of rho) * (averaged difference of rho); expected O(s)."""
    avg = [(0.25, -h), (0.5, 0.0), (0.25, h)]
    dif = [(-0.5 / h, -h), (0.5 / h, h)]
    terms = [(ca * cd, a, d) for ca, a in avg for cd, d in dif]
    return weighted_stencil_product(w, t, x, terms)


def theta_bound_margins(w: CarlemanWeights, samples: int = 512) -> dict[str, float]:
    """Margins of the time-factor bounds used downstream (all should be >= 0)."""
    p = w.params
    t = np.linspace(0.0, p.T, samples)
    th = theta(w, t)
    mid = (t >= p.T / 4) & (t <= 3 * p.T / 4)
    return {
        "floor": float(th.min() - 1.0 / p.T**2),
        "mid_ceiling": float(16.0 / (3.0 * p.T**2) - th[mid].max()),
        "endpoint_floor": float(theta(w, 0.0) - (2.0 / 3.0) / (p.delta * p.T**2)),
        "symmetry": float(np.abs(th - th[::-1]).max()),
    }
