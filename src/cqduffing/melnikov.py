"""Melnikov functions along the two separatrix families of the driven
oscillator, with closed-form damping integrals and cubic/quadratic
Chebyshev surrogates for the oscillatory forcing integrals.

Along an orbit of either family, the pulse (sech) or the kink (tanh),

    M(t0) = gamma * W * osc(omega t0) - delta * I,

with osc = sin and a sech envelope in W for the pulse, osc = cos and a
csch envelope for the kink.  Each family is one row of `_FAMILIES`, read
by one function of each kind: `melnikov` assembles M(t0), `chebyshev_fit`
interpolates the family's surrogate target at its Chebyshev nodes (its
max_error is inf once 1 + lam <= 0, where the target is singular), and
`damping_integral` evaluates I.  Simple zeros exist, signalling
transverse separatrix intersection, exactly when gamma/delta exceeds
I/|W| (the threshold ratio).  Each damping integral has one closed form
on the whole range lam > -1 of a regular orbit, with its Taylor series
near lam = 0.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import OscillatorParams
from .elliptic import _reciprocal
from .exact import HomoclinicOrbit

__all__ = [
    "ChebyshevFit",
    "MelnikovResult",
    "chebyshev_fit",
    "melnikov",
    "chaos_threshold",
    "damping_integral",
]

_FIT_SAMPLES = 4096


@dataclass(frozen=True)
class ChebyshevFit:
    """Low-order surrogate of a separatrix integrand factor, interpolated at
    the Chebyshev nodes of its range.

    kind "sech": x/(1+lam x^2)^{3/2} ~ r x + s x^3 on [-1, 1], x = sech,
    at the nodes +-sin(pi/8), +-cos(pi/8).
    kind "tanh": (1-x)/(1+lam x)^{3/2} ~ q + r x + s x^2 on [0, 1],
    x = tanh^2, at the nodes (2 -+ sqrt3)/4, 1/2.  The constant q has no
    transform at omega > 0, so only (r, s) enter M(t0); q is used only to
    measure max_error.
    max_error is measured by direct sampling, never assumed; it is inf
    once 1 + lam <= 0, where the target is singular inside the range.
    """

    coefficients: tuple[float, float]
    max_error: float


@dataclass(frozen=True)
class MelnikovResult:
    """Assembled distance function M(t0) = wave_coeff * osc(omega t0) - damp_coeff.

    wave_coeff carries gamma, damp_coeff carries delta; threshold_ratio =
    (damp_coeff/delta) / |wave_coeff/gamma| is the critical gamma/delta.
    """

    wave_coeff: float
    damp_coeff: float
    threshold_ratio: float
    omega: float
    oscillation: str  # "sin" | "cos"
    fit: ChebyshevFit

    def evaluate(self, t0: float) -> float:
        return self.wave_coeff * getattr(math, self.oscillation)(self.omega * t0) - self.damp_coeff

    @property
    def has_simple_zeros(self) -> bool:
        return abs(self.wave_coeff) > abs(self.damp_coeff)


def _pulse_damping(lam: float) -> float:
    """The pulse's damping integral over A^2 sqrt(k), for lam > -1:
    [(2 lam + 1)/g - sign(lam) F(sqrt(|lam|/(lam+1))) / |g|^{3/2}] / 4,
    g = lam(lam+1), F = atanh for lam > 0 and its continuation atan for lam < 0."""
    g = lam * (lam + 1.0)
    arg = math.sqrt(abs(lam) / (lam + 1.0))
    f = math.atanh(arg) if lam > 0.0 else -math.atan(arg)
    return ((2.0 * lam + 1.0) / g - f / abs(g) ** 1.5) / 4.0


def _kink_damping(lam: float) -> float:
    """The kink's damping integral over A^2 sqrt(k), for lam > -1:
    [(3 lam + 1)/(lam (lam+1)) + (3 lam - 1) F(sqrt|lam|) / (sign(lam) |lam|^{3/2})] / 4,
    F = atan for lam > 0 and its continuation atanh for lam < 0."""
    r = math.sqrt(abs(lam))
    f = math.atan(r) if lam > 0.0 else -math.atanh(r)
    return ((3.0 * lam + 1.0) / (lam * (lam + 1.0)) + (3.0 * lam - 1.0) * f / r ** 3) / 4.0


# One row per separatrix family.  The surrogate's target factor is
# numerator(x) / (1 + lam x^power)^{3/2} on [start, 1], interpolated by the
# monomials x^n, n in monomials, at nodes (for the odd pulse target, the
# positive half of the Chebyshev nodes); its last two coefficients are
# (r, s).  The orbit velocity is A sqrt(k) times this factor, at x = sech
# (times -tanh) for the pulse and at x = tanh^2 for the kink.  The damping
# integral over A^2 sqrt(k) is closed(lam), or its Taylor series in lam for
# |lam| < 1e-3, where the closed forms cancel terms of size 1/lam and the
# first term left out is below 2e-15 of the sum.  1/grow is the envelope of
# W, bracket(r, s, k, w) its bracket, and oscillation the function of omega t0.
_Family = namedtuple("_Family", "numerator power nodes monomials start closed series "
                                "grow bracket oscillation")
_FAMILIES = {
    "sech": _Family(
        lambda x: x, 2, (math.sin(math.pi / 8.0), math.cos(math.pi / 8.0)), (1, 3), -1.0,
        _pulse_damping, (2.0 / 3.0, -4.0 / 5.0, 32.0 / 35.0, -64.0 / 63.0, 256.0 / 231.0),
        math.cosh,
        lambda r, s, k, w: r * w * math.pi / k + s * w * math.pi * (k + w * w) / (6.0 * k * k),
        "sin"),
    "tanh": _Family(
        lambda x: 1.0 - x, 1, ((2.0 - math.sqrt(3.0)) / 4.0, 0.5, (2.0 + math.sqrt(3.0)) / 4.0),
        (0, 1, 2), 0.0,
        _kink_damping, (4.0 / 3.0, -4.0 / 5.0, 24.0 / 35.0, -40.0 / 63.0, 20.0 / 33.0),
        math.sinh,
        lambda r, s, k, w: -r * w * math.pi / k + s * w * math.pi * (w * w - 8.0 * k) / (6.0 * k * k),
        "cos"),
}


def chebyshev_fit(kind: str, lam: float) -> ChebyshevFit:
    """The family's surrogate: its target factor interpolated at its nodes."""
    if kind not in _FAMILIES:
        raise ValueError(f"kind must be 'sech' or 'tanh', got {kind!r}")
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    fam = _FAMILIES[kind]
    if 1.0 + lam * fam.nodes[-1] ** fam.power <= 0.0:
        raise ValueError(f"surrogate coefficients undefined: need 1 + lam x^{fam.power} > 0 "
                         f"at the largest node x = {fam.nodes[-1]}, got lam={lam}")

    def target(x):
        return fam.numerator(x) / (1.0 + lam * x ** fam.power) ** 1.5

    nodes, powers = np.array(fam.nodes), np.array(fam.monomials)
    coeffs = np.linalg.solve(nodes[:, None] ** powers, target(nodes))
    if 1.0 + lam <= 0.0:
        err = math.inf  # target singular at x^power = -1/lam inside the range
    else:
        xs = np.linspace(fam.start, 1.0, _FIT_SAMPLES)
        err = float(np.abs(target(xs) - (xs[:, None] ** powers) @ coeffs).max())
    return ChebyshevFit((float(coeffs[-2]), float(coeffs[-1])), err)


def damping_integral(orbit: HomoclinicOrbit) -> float:
    """integral of (dx/dt)^2 over the orbit, for lam > -1: A^2 sqrt(k) times
    its family's closed form, or times the family's series near lam = 0."""
    fam, lam = _FAMILIES[orbit.kind], orbit.lam
    if not lam > -1.0:
        raise ValueError(f"damping integral needs lam > -1 (the integrand is singular "
                         f"on the orbit otherwise), got lam={lam}")
    val = fam.closed(lam) if abs(lam) >= 1e-3 else sum(c * lam ** n for n, c in enumerate(fam.series))
    return float(orbit.A * orbit.A * math.sqrt(orbit.k) * val)


def melnikov(orbit: HomoclinicOrbit, p: OscillatorParams) -> MelnikovResult:
    """M(t0) = gamma W osc(w t0) - delta I along the orbit's own family,
    with (r, s) the coefficients of that family's surrogate fit and I its
    damping_integral:
    pulse: W = A sqrt(k) [r w pi/k + s w pi (k+w^2)/(6k^2)] sech(w pi/(2 sqrt k)),
           osc = sin;
    kink:  W = A sqrt(k) [-r w pi/k + s w pi (w^2-8k)/(6k^2)] csch(w pi/(2 sqrt k)),
           osc = cos."""
    if p.omega <= 0.0:
        raise ValueError("melnikov evaluation needs omega > 0")
    fam = _FAMILIES[orbit.kind]
    fit = chebyshev_fit(orbit.kind, orbit.lam)
    r, s = fit.coefficients
    k, w = orbit.k, p.omega
    rk = math.sqrt(k)
    envelope = _reciprocal(fam.grow, w * math.pi / (2.0 * rk))
    wave_base = orbit.A * rk * fam.bracket(r, s, k, w) * envelope
    damp = damping_integral(orbit)
    ratio = math.inf if wave_base == 0.0 else abs(damp / wave_base)
    return MelnikovResult(p.gamma * wave_base, p.delta * damp, ratio, w, fam.oscillation, fit)


def chaos_threshold(res: MelnikovResult, delta: float) -> float:
    """Critical forcing amplitude delta * I/|W| of an assembled distance
    function at damping delta: below it M(t0) keeps one sign (no
    transverse intersection), above it M has simple zeros."""
    if not math.isfinite(res.threshold_ratio):
        raise ValueError("oscillatory coefficient vanishes; threshold criterion inconclusive")
    return abs(delta) * res.threshold_ratio
