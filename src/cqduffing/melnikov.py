"""Melnikov functions along the two separatrix families of the driven
oscillator, with closed-form damping integrals and cubic/quadratic
Chebyshev surrogates for the oscillatory forcing integrals.

Along an orbit of either family, the pulse (sech) or the kink (tanh),

    M(t0) = gamma * W * osc(omega t0) - delta * I,

with osc = sin and a sech envelope in W for the pulse, osc = cos and a
csch envelope for the kink.  One function, `melnikov`, assembles both:
the orbit names its family, and that family's row supplies the surrogate
fit, the envelope, the bracket of W, the damping integral I and osc.
Simple zeros exist, signalling transverse separatrix intersection,
exactly when gamma/delta exceeds I/|W| (the threshold ratio).  Each
damping integral has one closed form on the whole range lam > -1 of a
regular orbit, with its Taylor series near lam = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OscillatorParams
from .elliptic import _reciprocal
from .exact import HomoclinicOrbit

__all__ = [
    "ChebyshevFit",
    "MelnikovResult",
    "chebyshev_fit_sech",
    "chebyshev_fit_tanh",
    "melnikov",
    "chaos_threshold",
    "damping_integral_sech",
    "damping_integral_tanh",
]

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_FIT_SAMPLES = 4096


@dataclass(frozen=True)
class ChebyshevFit:
    """Low-order surrogate of a separatrix integrand factor.

    kind "sech": x/(1+lam x^2)^{3/2} ~ r x + s x^3 on [-1, 1], x = sech.
    kind "tanh": (1-x)/(1+lam x)^{3/2} ~ q + r x + s x^2 on [0, 1],
    x = tanh^2.  The constant q has no transform at omega > 0, so only
    (r, s) enter M(t0); q is used only to measure max_error.
    max_error is measured by direct sampling, never assumed.
    """

    kind: str
    coefficients: tuple[float, float]
    lam: float
    max_error: float


def chebyshev_fit_sech(lam: float) -> ChebyshevFit:
    """Odd cubic surrogate r x + s x^3 of x/(1 + lam x^2)^{3/2}."""
    d1 = 4.0 - (_SQ2 - 2.0) * lam
    d2 = (2.0 + _SQ2) * lam + 4.0
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError(
            f"surrogate coefficients undefined: need 4-(sqrt2-2)lam > 0 and "
            f"(2+sqrt2)lam+4 > 0, got {d1}, {d2} at lam={lam}"
        )
    s8 = math.sin(math.pi / 8.0)
    c8 = math.cos(math.pi / 8.0)
    q1 = math.sqrt(lam * s8 * s8 + 1.0)
    q2 = math.sqrt(lam * c8 * c8 + 1.0)
    den = d1 ** 1.5 * d2 ** 1.5
    r = 64.0 * _SQ2 * (-s8 * s8 * q1 - lam * s8 ** 4 * q1 + c8 * c8 * q2 + lam * c8 ** 4 * q2) / den
    s = 64.0 * _SQ2 * (lam * s8 * s8 * q1 + q1 - lam * c8 * c8 * q2 - q2) / den
    xs = np.linspace(-1.0, 1.0, _FIT_SAMPLES)
    err = float(np.abs(xs / (1.0 + lam * xs * xs) ** 1.5 - (r * xs + s * xs ** 3)).max())
    return ChebyshevFit("sech", (r, s), lam, err)


def chebyshev_fit_tanh(lam: float) -> ChebyshevFit:
    """Quadratic surrogate q + r x + s x^2 of (1 - x)/(1 + lam x)^{3/2},
    interpolated at the Chebyshev nodes (2 -+ sqrt3)/4, 1/2 of [0, 1]: the
    kink velocity is A sqrt(k) times this target at x = tanh^2(sqrt(k) t)."""
    if 1.0 + lam * (2.0 + _SQ3) / 4.0 <= 0.0:
        raise ValueError(
            f"surrogate coefficients undefined: need 1 + lam (2+sqrt3)/4 > 0, "
            f"i.e. lam > -4/(2+sqrt3), got lam={lam}"
        )
    h = _SQ3 / 4.0  # node spacing
    g0, g1, g2 = ((1.0 - x) / (1.0 + lam * x) ** 1.5 for x in (0.5 - h, 0.5, 0.5 + h))
    s = (g0 - 2.0 * g1 + g2) / (2.0 * h * h)
    r = (g2 - g0) / (2.0 * h) - s
    q = g1 - r / 2.0 - s / 4.0
    if lam <= -1.0:
        err = math.inf  # target singular at x = -1/lam inside [0, 1]
    else:
        xs = np.linspace(0.0, 1.0, _FIT_SAMPLES)
        err = float(np.abs((1.0 - xs) / (1.0 + lam * xs) ** 1.5 - (q + r * xs + s * xs * xs)).max())
    return ChebyshevFit("tanh", (r, s), lam, err)


@dataclass(frozen=True)
class MelnikovResult:
    """Assembled distance function M(t0) = wave_coeff * osc(omega t0) - damp_coeff.

    wave_coeff carries gamma, damp_coeff carries delta; threshold_ratio =
    (damp_coeff/delta) / |wave_coeff/gamma| is the critical gamma/delta.
    """

    wave_coeff: float
    damp_coeff: float
    threshold_ratio: float
    orbit: HomoclinicOrbit
    omega: float
    oscillation: str  # "sin" | "cos"
    fit: ChebyshevFit

    def evaluate(self, t0: float) -> float:
        return self.wave_coeff * getattr(math, self.oscillation)(self.omega * t0) - self.damp_coeff

    @property
    def has_simple_zeros(self) -> bool:
        return abs(self.wave_coeff) > abs(self.damp_coeff)


# Taylor coefficients in lam of the two damping integrals over A^2 sqrt(k),
# used for |lam| < 1e-3: there the closed forms cancel terms of size 1/lam,
# and the first term left out is below 2e-15 of the sum.
_PULSE_SERIES = (2.0 / 3.0, -4.0 / 5.0, 32.0 / 35.0, -64.0 / 63.0, 256.0 / 231.0)
_KINK_SERIES = (4.0 / 3.0, -4.0 / 5.0, 24.0 / 35.0, -40.0 / 63.0, 20.0 / 33.0)


def _damping(orbit: HomoclinicOrbit, series: tuple[float, ...], closed) -> float:
    """A^2 sqrt(k) times closed(lam), or times the series near lam = 0."""
    lam = orbit.lam
    if not lam > -1.0:
        raise ValueError(f"damping integral needs lam > -1 (the integrand is singular "
                         f"on the orbit otherwise), got lam={lam}")
    val = closed(lam) if abs(lam) >= 1e-3 else sum(c * lam ** n for n, c in enumerate(series))
    return float(orbit.A * orbit.A * math.sqrt(orbit.k) * val)


def damping_integral_sech(orbit: HomoclinicOrbit) -> float:
    """integral of (dx/dt)^2 over the pulse orbit, for lam > -1:
    A^2 sqrt(k) [(2 lam + 1)/g - sign(lam) F(sqrt(|lam|/(lam+1))) / |g|^{3/2}] / 4,
    g = lam(lam+1), F = atanh for lam > 0 and its continuation atan for lam < 0."""
    def closed(lam: float) -> float:
        g = lam * (lam + 1.0)
        arg = math.sqrt(abs(lam) / (lam + 1.0))
        f = math.atanh(arg) if lam > 0.0 else -math.atan(arg)
        return ((2.0 * lam + 1.0) / g - f / abs(g) ** 1.5) / 4.0
    return _damping(orbit, _PULSE_SERIES, closed)


def damping_integral_tanh(orbit: HomoclinicOrbit) -> float:
    """integral of (dx/dt)^2 over the kink orbit, for lam > -1:
    A^2 sqrt(k) [(3 lam + 1)/(lam (lam+1))
                 + (3 lam - 1) F(sqrt|lam|) / (sign(lam) |lam|^{3/2})] / 4,
    F = atan for lam > 0 and its continuation atanh for lam < 0."""
    def closed(lam: float) -> float:
        r = math.sqrt(abs(lam))
        f = math.atan(r) if lam > 0.0 else -math.atanh(r)
        return ((3.0 * lam + 1.0) / (lam * (lam + 1.0)) + (3.0 * lam - 1.0) * f / r ** 3) / 4.0
    return _damping(orbit, _KINK_SERIES, closed)


# Per family: the surrogate fit, the growing function whose reciprocal is
# the envelope (sech or csch), the bracket of the wave coefficient in
# (r, s, k, w), the damping integral and the oscillation in t0.
_FAMILIES = {
    "sech": (chebyshev_fit_sech, math.cosh,
             lambda r, s, k, w: (r * w * math.pi / k
                                 + s * w * math.pi * (k + w * w) / (6.0 * k * k)),
             damping_integral_sech, "sin"),
    "tanh": (chebyshev_fit_tanh, math.sinh,
             lambda r, s, k, w: (-r * w * math.pi / k
                                 + s * w * math.pi * (w * w - 8.0 * k) / (6.0 * k * k)),
             damping_integral_tanh, "cos"),
}


def melnikov(orbit: HomoclinicOrbit, p: OscillatorParams) -> MelnikovResult:
    """M(t0) = gamma W osc(w t0) - delta I along the orbit's own family,
    with (r, s) the coefficients of that family's surrogate fit:
    pulse: W = A sqrt(k) [r w pi/k + s w pi (k+w^2)/(6k^2)] sech(w pi/(2 sqrt k)),
           osc = sin, I = I2 (damping_integral_sech);
    kink:  W = A sqrt(k) [-r w pi/k + s w pi (w^2-8k)/(6k^2)] csch(w pi/(2 sqrt k)),
           osc = cos, I = J2 (damping_integral_tanh)."""
    if p.omega <= 0.0:
        raise ValueError("melnikov evaluation needs omega > 0")
    fit_fn, grow, bracket, damping, oscillation = _FAMILIES[orbit.kind]
    fit = fit_fn(orbit.lam)
    r, s = fit.coefficients
    k, w = orbit.k, p.omega
    rk = math.sqrt(k)
    envelope = _reciprocal(grow, w * math.pi / (2.0 * rk))
    wave_base = orbit.A * rk * bracket(r, s, k, w) * envelope
    damp = damping(orbit)
    ratio = math.inf if wave_base == 0.0 else abs(damp / wave_base)
    return MelnikovResult(p.gamma * wave_base, p.delta * damp, ratio, orbit, w, oscillation, fit)


def chaos_threshold(orbit: HomoclinicOrbit, p: OscillatorParams) -> float:
    """Critical forcing amplitude delta * I/|W|: below it M(t0) keeps one
    sign (no transverse intersection), above it M has simple zeros."""
    res = melnikov(orbit, p)
    if not math.isfinite(res.threshold_ratio):
        raise ValueError("oscillatory coefficient vanishes; threshold criterion inconclusive")
    return abs(p.delta) * res.threshold_ratio
