"""Melnikov functions along the two separatrix families of the driven
oscillator, with closed-form damping integrals and cubic/quadratic
Chebyshev surrogates for the oscillatory forcing integrals.

For the pulse (sech) family

    M(t0) = gamma * W * sin(omega t0) - delta * I2,

and for the kink (tanh) family the oscillatory factor is cos(omega t0)
with a csch envelope.  Simple zeros exist, signalling transverse
separatrix intersection, exactly when gamma/delta exceeds I2/|W| (the
threshold ratio).  Where a closed form leaves its validity range
(lam(lam+1) <= 0 for the pulse damping integral, lam <= 0 for the kink
one), adaptive quadrature of the defining integral is used instead and
the result is flagged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import OscillatorParams
from .exact import HomoclinicOrbit

__all__ = [
    "ChebyshevFit",
    "MelnikovResult",
    "chebyshev_fit_sech",
    "chebyshev_fit_tanh",
    "melnikov_sech",
    "melnikov_tanh",
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
    damping_by_quadrature: bool

    def evaluate(self, t0: float) -> float:
        osc = math.sin(self.omega * t0) if self.oscillation == "sin" else math.cos(self.omega * t0)
        return self.wave_coeff * osc - self.damp_coeff

    @property
    def has_simple_zeros(self) -> bool:
        return abs(self.wave_coeff) > abs(self.damp_coeff)


def damping_integral_sech(orbit: HomoclinicOrbit) -> tuple[float, bool]:
    """integral of (dx/dt)^2 over the pulse orbit; (value, used_quadrature).

    Closed form (valid for lam(lam+1) > 0):
    A^2 sqrt(k) (2 sqrt(lam+1) lam^{3/2} + sqrt(lam(lam+1)) - atanh(sqrt(lam/(lam+1))))
    / (4 (lam(lam+1))^{3/2}).
    """
    A, k, lam = orbit.A, orbit.k, orbit.lam
    if lam == 0.0:
        return 2.0 / 3.0 * A * A * math.sqrt(k), False
    if lam * (lam + 1.0) > 0.0 and lam > 0.0:
        g = lam * (lam + 1.0)
        val = A * A * math.sqrt(k) * (
            2.0 * math.sqrt(lam + 1.0) * lam ** 1.5 + math.sqrt(g)
            - math.atanh(math.sqrt(lam / (lam + 1.0)))
        ) / (4.0 * g ** 1.5)
        return val, False
    rk = math.sqrt(k)

    def f(t: float) -> float:
        ch = math.cosh(2.0 * rk * t)
        return 2.0 * A * A * k * math.sinh(2.0 * rk * t) ** 2 / (ch + 2.0 * lam + 1.0) ** 3

    val, _ = quad(f, -40.0 / rk, 40.0 / rk, limit=400)
    return val, True


def damping_integral_tanh(orbit: HomoclinicOrbit) -> tuple[float, bool]:
    """integral of (dx/dt)^2 over the kink orbit; (value, used_quadrature).

    Closed form (valid for lam > 0):
    A^2 sqrt(k) (sqrt(lam)(3lam+1) + (lam+1)(3lam-1) atan(sqrt(lam)))
    / (4 lam^{3/2} (lam+1)).
    """
    A, k, lam = orbit.A, orbit.k, orbit.lam
    if lam > 0.0:
        val = A * A * math.sqrt(k) * (
            math.sqrt(lam) * (3.0 * lam + 1.0)
            + (lam + 1.0) * (3.0 * lam - 1.0) * math.atan(math.sqrt(lam))
        ) / (4.0 * lam ** 1.5 * (lam + 1.0))
        return val, False
    if lam == 0.0:
        return 4.0 / 3.0 * A * A * math.sqrt(k), False
    rk = math.sqrt(k)

    def f(t: float) -> float:
        u = math.tanh(rk * t)
        return A * A * k * (1.0 - u * u) ** 2 / (1.0 + lam * u * u) ** 3

    val, _ = quad(f, -40.0 / rk, 40.0 / rk, limit=400)
    return val, True


def _reciprocal(fn, arg: float) -> float:
    """1 / fn(arg) for the growing cosh or sinh: 0.0, its limit, where fn
    overflows."""
    try:
        return 1.0 / fn(arg)
    except OverflowError:
        return 0.0


def melnikov_sech(orbit: HomoclinicOrbit, p: OscillatorParams) -> MelnikovResult:
    """Distance function for the pulse orbit:
    M(t0) = gamma A sqrt(k) [r w pi/k + s w pi (k+w^2)/(6k^2)] sech(w pi/(2 sqrt k)) sin(w t0)
            - delta * I2."""
    if orbit.kind != "sech":
        raise ValueError(f"expected a sech orbit, got kind={orbit.kind!r}")
    if p.omega <= 0.0:
        raise ValueError("melnikov evaluation needs omega > 0")
    fit = chebyshev_fit_sech(orbit.lam)
    r, s = fit.coefficients
    k, w = orbit.k, p.omega
    rk = math.sqrt(k)
    envelope = _reciprocal(math.cosh, w * math.pi / (2.0 * rk))
    wave_base = orbit.A * rk * (r * w * math.pi / k
                                + s * w * math.pi * (k + w * w) / (6.0 * k * k)) * envelope
    i2, by_quad = damping_integral_sech(orbit)
    ratio = math.inf if wave_base == 0.0 else abs(i2 / wave_base)
    return MelnikovResult(
        wave_coeff=p.gamma * wave_base,
        damp_coeff=p.delta * i2,
        threshold_ratio=ratio,
        orbit=orbit,
        omega=w,
        oscillation="sin",
        fit=fit,
        damping_by_quadrature=by_quad,
    )


def melnikov_tanh(orbit: HomoclinicOrbit, p: OscillatorParams) -> MelnikovResult:
    """Distance function for the kink orbit:
    M(t0) = gamma A sqrt(k) [-r w pi/k + s w pi (w^2-8k)/(6k^2)] csch(w pi/(2 sqrt k)) cos(w t0)
            - delta * J2."""
    if orbit.kind != "tanh":
        raise ValueError(f"expected a tanh orbit, got kind={orbit.kind!r}")
    if p.omega <= 0.0:
        raise ValueError("melnikov evaluation needs omega > 0")
    fit = chebyshev_fit_tanh(orbit.lam)
    r, s = fit.coefficients
    k, w = orbit.k, p.omega
    rk = math.sqrt(k)
    envelope = _reciprocal(math.sinh, w * math.pi / (2.0 * rk))
    wave_base = orbit.A * rk * (-r * w * math.pi / k
                                + s * w * math.pi * (w * w - 8.0 * k) / (6.0 * k * k)) * envelope
    j2, by_quad = damping_integral_tanh(orbit)
    ratio = math.inf if wave_base == 0.0 else abs(j2 / wave_base)
    return MelnikovResult(
        wave_coeff=p.gamma * wave_base,
        damp_coeff=p.delta * j2,
        threshold_ratio=ratio,
        orbit=orbit,
        omega=w,
        oscillation="cos",
        fit=fit,
        damping_by_quadrature=by_quad,
    )


def chaos_threshold(orbit: HomoclinicOrbit, p: OscillatorParams) -> float:
    """Critical forcing amplitude delta * I/|W|: below it M(t0) keeps one
    sign (no transverse intersection), above it M has simple zeros."""
    res = melnikov_sech(orbit, p) if orbit.kind == "sech" else melnikov_tanh(orbit, p)
    if not math.isfinite(res.threshold_ratio):
        raise ValueError("oscillatory coefficient vanishes; threshold criterion inconclusive")
    return abs(p.delta) * res.threshold_ratio
