import dataclasses
import math
import warnings
from itertools import product

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from cqduffing import OscillatorParams, State
from cqduffing.chaos import lyapunov_max
from cqduffing.elliptic import _reciprocal
from cqduffing.exact import HomoclinicOrbit, homoclinic_orbit
from cqduffing.melnikov import (
    MelnikovResult,
    chaos_threshold,
    chebyshev_fit,
    damping_integral,
    melnikov,
)

# sup errors of the surrogate fits, measured once on 4096 points and frozen
SECH_FIT_ERRORS = {0.0: 0.0, 0.25: 0.008796, 0.5: 0.022326, 1.0: 0.043909}
TANH_FIT_ERRORS = {0.0: 0.0, 0.25: 0.003181, 0.5: 0.011168, 1.0: 0.035383}

PULSE_DAMPING_111 = 0.2970968449824712  # A=k=lam=1, quadrature oracle
KINK_DAMPING_111 = (4 + math.pi) / 8    # A=k=lam=1, analytic


def quad_pulse_damping(A, k, lam):
    rk = math.sqrt(k)
    f = lambda t: 2 * A * A * k * math.sinh(2 * rk * t) ** 2 / (math.cosh(2 * rk * t) + 2 * lam + 1) ** 3
    return quad(f, -40 / rk, 40 / rk, limit=400)[0]


def quad_kink_damping(A, k, lam):
    rk = math.sqrt(k)
    f = lambda t: A * A * k / math.cosh(rk * t) ** 4 / (1 + lam * math.tanh(rk * t) ** 2) ** 3
    return quad(f, -40 / rk, 40 / rk, limit=400)[0]


def quad_pulse_forcing(A, k, lam, w, t0):
    rk = math.sqrt(k)

    def f(t):
        s = 1 / math.cosh(rk * t)
        return math.tanh(rk * t) * s / (1 + lam * s * s) ** 1.5 * math.cos(w * (t + t0))

    return -A * rk * quad(f, -60 / rk, 60 / rk, limit=800)[0]


def quad_kink_forcing(A, k, lam, w, t0):
    rk = math.sqrt(k)

    def f(t):
        u = math.tanh(rk * t)
        return (1 - u * u) / (1 + lam * u * u) ** 1.5 * math.cos(w * (t + t0))

    return A * rk * quad(f, -60 / rk, 60 / rk, limit=800)[0]


class TestChebyshevFits:
    def test_pulse_identity_limit(self):
        fit = chebyshev_fit("sech", 0.0)
        r, s = fit.coefficients
        assert r == pytest.approx(1.0, abs=1e-12)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert fit.max_error < 1e-12

    def test_pulse_measured_errors_frozen(self):
        for lam, want in SECH_FIT_ERRORS.items():
            fit = chebyshev_fit("sech", lam)
            assert fit.max_error == pytest.approx(want, abs=1e-3)
            assert fit.max_error < 0.05

    def test_pulse_negative_shape(self):
        fit = chebyshev_fit("sech", -0.30132)
        assert all(map(math.isfinite, fit.coefficients))
        assert fit.max_error < 0.05

    def test_pulse_guard(self):
        with pytest.raises(ValueError, match="surrogate"):
            chebyshev_fit("sech", -1.5)

    def test_kink_identity_limit(self):
        fit = chebyshev_fit("tanh", 0.0)
        r, s = fit.coefficients
        assert r == pytest.approx(-1.0, abs=1e-12)
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_kink_measured_errors_frozen(self):
        # the kink surrogate interpolates on [0, 1], the range of
        # x = tanh^2 along the orbit, where its target is smooth for every
        # lam > -1; the measured sup errors are frozen as regressions
        for lam, want in TANH_FIT_ERRORS.items():
            fit = chebyshev_fit("tanh", lam)
            assert fit.max_error == pytest.approx(want, abs=1e-3)

    def test_kink_guard_boundary(self):
        # the largest node (2+sqrt3)/4 must stay clear of the pole x = -1/lam
        with pytest.raises(ValueError, match="surrogate"):
            chebyshev_fit("tanh", -4 / (2 + math.sqrt(3)) - 1e-9)
        for lam in (2 / math.sqrt(3) + 1e-9, 2.0):
            fit = chebyshev_fit("tanh", lam)
            assert all(map(math.isfinite, fit.coefficients))
            assert math.isfinite(fit.max_error)

    def test_singular_target_error_is_inf(self):
        # once 1 + lam <= 0 the target is singular inside the range, which
        # the nodes may still avoid: both kinds report inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, lam in (("sech", -1.1), ("sech", -1.0), ("tanh", -1.0)):
                assert chebyshev_fit(kind, lam).max_error == math.inf
            for kind, lam in (("sech", -1.5), ("tanh", -1.1)):
                with pytest.raises(ValueError, match="surrogate"):
                    chebyshev_fit(kind, lam)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be"):
            chebyshev_fit("cn", 0.0)


class TestDampingIntegrals:
    def test_pulse_closed_form_reference(self):
        orb = HomoclinicOrbit(A=1.0, k=1.0, lam=1.0, kind="sech")
        val = damping_integral(orb)
        assert val == pytest.approx(PULSE_DAMPING_111, abs=1e-10)
        assert val == pytest.approx(quad_pulse_damping(1, 1, 1), abs=1e-10)

    def test_kink_closed_form_reference(self):
        orb = HomoclinicOrbit(A=1.0, k=1.0, lam=1.0, kind="tanh")
        val = damping_integral(orb)
        assert val == pytest.approx(KINK_DAMPING_111, rel=1e-12)
        assert val == pytest.approx(quad_kink_damping(1, 1, 1), abs=1e-10)

    def test_pulse_matches_quadrature_randomly(self, rng):
        for _ in range(50):
            A = rng.uniform(0.3, 2.0)
            k = rng.uniform(0.2, 3.0)
            lam = rng.uniform(0.05, 3.0)
            orb = HomoclinicOrbit(A=A, k=k, lam=lam, kind="sech")
            val = damping_integral(orb)
            assert val == pytest.approx(quad_pulse_damping(A, k, lam), abs=1e-6)

    def test_kink_matches_quadrature_randomly(self, rng):
        for _ in range(50):
            A = rng.uniform(0.3, 2.0)
            k = rng.uniform(0.2, 3.0)
            lam = rng.uniform(0.05, 3.0)
            orb = HomoclinicOrbit(A=A, k=k, lam=lam, kind="tanh")
            val = damping_integral(orb)
            assert val == pytest.approx(quad_kink_damping(A, k, lam), abs=1e-6)

    def test_negative_shape_uses_the_closed_form(self):
        orb = homoclinic_orbit(1, 1, 1, "sech", +1)
        assert orb.lam < 0
        val = damping_integral(orb)
        assert val == pytest.approx(quad_pulse_damping(orb.A, orb.k, orb.lam), abs=1e-8)
        assert val > 0

    # Every branch of both integrals: the series near 0 and both sides of
    # its cutoff, the continued forms for lam < 0 up to the singular end,
    # the paper's quintic pulse (fig9, fig10) and the kink of
    # a = -1, b = -3, c = 1, sign -1 (lam = 0.11388).
    @pytest.mark.parametrize("lam", [
        -0.9999, -0.999, -0.5, -0.15219582817987357, 1.001e-3, -1.001e-3, 0.999e-3,
        -0.999e-3, 1e-6, -1e-6, 1e-12, -1e-12, 0.0, 0.11388, 1.0, 10.0, 100.0,
    ])
    def test_both_integrals_match_a_40_digit_oracle(self, lam):
        mp_lam = mpmath.mpf(lam)  # exact: a float fits the default 53 bits
        with mpmath.workdps(40):
            # u = tanh(sqrt(k) t) maps both integrals onto [-1, 1], over A^2 sqrt(k)
            pulse = mpmath.quad(lambda u: u * u / (1 + mp_lam * (1 - u * u)) ** 3, [-1, 0, 1])
            kink = mpmath.quad(lambda u: (1 - u * u) / (1 + mp_lam * u * u) ** 3, [-1, 0, 1])
        A, k = 1.3, 0.7
        scale = A * A * math.sqrt(k)
        for kind, exact in (("sech", pulse), ("tanh", kink)):
            val = damping_integral(HomoclinicOrbit(A=A, k=k, lam=lam, kind=kind))
            assert type(val) is float
            assert abs(val / scale - exact) / exact <= 1e-12

    @pytest.mark.parametrize("lam", [-1.0, -1.5])
    def test_singular_shape_raises(self, lam):
        for kind in ("sech", "tanh"):
            with pytest.raises(ValueError, match="lam > -1"):
                damping_integral(HomoclinicOrbit(A=1.0, k=1.0, lam=lam, kind=kind))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_surrogate_of_a_non_finite_shape_raises(lam):
    for kind in ("sech", "tanh"):
        with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
            chebyshev_fit(kind, lam)


class TestMelnikovAssembly:
    def params(self, gamma=0.35, delta=0.1, omega=1.4):
        return OscillatorParams(1, 1, 0.2, delta=delta, gamma=gamma, omega=omega, epsilon=1)

    def test_pure_damping_has_no_zeros(self):
        orb = HomoclinicOrbit(A=1, k=1, lam=1, kind="sech")
        res = melnikov(orb, OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.0,
                                             omega=1.4, epsilon=1))
        assert res.wave_coeff == 0.0
        assert res.damp_coeff > 0
        assert not res.has_simple_zeros
        assert all(res.evaluate(t0) < 0 for t0 in np.linspace(0, 10, 50))

    def test_pure_forcing_zeros_on_the_lattice(self):
        orb = HomoclinicOrbit(A=1, k=1, lam=1, kind="sech")
        res = melnikov(orb, self.params(delta=0.0))
        assert res.has_simple_zeros
        w = res.omega
        for n in range(4):
            assert res.evaluate(n * math.pi / w) == pytest.approx(0.0, abs=1e-12)

    def test_periodicity_in_release_time(self):
        orb = HomoclinicOrbit(A=1, k=1, lam=0.5, kind="sech")
        res = melnikov(orb, self.params())
        T0 = 2 * math.pi / res.omega
        for t0 in np.linspace(0, 5, 23):
            assert res.evaluate(t0 + T0) == pytest.approx(res.evaluate(t0), abs=1e-12)

    def test_pulse_forcing_term_vs_quadrature(self):
        # |assembled - direct quadrature| stays within 3 x (fit sup error)
        # x A sqrt(k); the observed ratio is ~0.4, the 3x is margin
        for A, k, lam, w in [(0.8915, 1.0, -0.30132, 1.4), (1.0, 1.0, 1.0, 1.0),
                             (0.9, 2.0, 0.5, 0.8)]:
            orb = HomoclinicOrbit(A=A, k=k, lam=lam, kind="sech")
            res = melnikov(orb, OscillatorParams(1, 1, 0.2, delta=0.0, gamma=1.0,
                                                 omega=w, epsilon=1))
            for t0 in (0.0, 0.4, 1.3):
                approx = res.evaluate(t0)
                exact = quad_pulse_forcing(A, k, lam, w, t0)
                assert abs(approx - exact) <= 3.0 * res.fit.max_error * A * math.sqrt(k)

    def test_kink_forcing_term_vs_quadrature(self):
        # the last row is where a fit over [-1, 1] flips the coefficient's sign
        for A, k, lam, w in [(0.65228, 0.42705, 0.11388, 1.4), (1.0, 1.0, 0.3, 1.0),
                             (1.0, 1.0, 1.0, 1.4)]:
            orb = HomoclinicOrbit(A=A, k=k, lam=lam, kind="tanh")
            res = melnikov(orb, OscillatorParams(1, 1, 0.2, delta=0.0, gamma=1.0,
                                                 omega=w, epsilon=1))
            assert math.isfinite(res.fit.max_error)
            for t0 in (0.0, 0.4, 1.3):
                approx = res.evaluate(t0)
                exact = quad_kink_forcing(A, k, lam, w, t0)
                assert abs(approx - exact) <= 3.0 * res.fit.max_error * A * math.sqrt(k)

    def test_kink_high_frequency_suppression(self):
        orb = HomoclinicOrbit(A=1, k=1, lam=0.5, kind="tanh")
        lo = melnikov(orb, OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.3,
                                            omega=2.0, epsilon=1))
        hi = melnikov(orb, OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.3,
                                            omega=20.0, epsilon=1))
        assert hi.threshold_ratio > 100 * lo.threshold_ratio


class TestChaosThreshold:
    def test_zero_damping_zero_threshold(self):
        orb = homoclinic_orbit(1, 1, 0.2, "sech", +1)
        p = OscillatorParams(1, 1, 0.2, delta=0.0, gamma=0.3, omega=1.4, epsilon=1)
        assert chaos_threshold(orb, p) == 0.0

    def test_linear_in_damping(self):
        orb = homoclinic_orbit(1, 1, 0.2, "sech", +1)
        p1 = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.3, omega=1.4, epsilon=1)
        p2 = OscillatorParams(1, 1, 0.2, delta=0.2, gamma=0.3, omega=1.4, epsilon=1)
        assert chaos_threshold(orb, p2) == pytest.approx(2 * chaos_threshold(orb, p1), rel=1e-12)

    def test_order_of_magnitude_vs_observed_onset(self):
        # the empirically chaotic amplitude at these parameters is 0.35;
        # the separatrix criterion is a lower bound of the same magnitude
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1)
        T = 2 * math.pi / p.omega
        le = lyapunov_max(p, State(0, 0, 0), 500 * T, T)
        assert le > 0.01
        orb = homoclinic_orbit(1, 1, 0.2, "sech", +1)
        crit = chaos_threshold(orb, p)
        assert 0.0 < crit < 0.35
        assert 0.35 / crit < 5.0


# The two per-family assemblies that `melnikov` replaced, verbatim: the
# differential test below holds every field of the one assembly to them.
def melnikov_sech(orbit: HomoclinicOrbit, p: OscillatorParams) -> MelnikovResult:
    """Distance function for the pulse orbit:
    M(t0) = gamma A sqrt(k) [r w pi/k + s w pi (k+w^2)/(6k^2)] sech(w pi/(2 sqrt k)) sin(w t0)
            - delta * I2."""
    if orbit.kind != "sech":
        raise ValueError(f"expected a sech orbit, got kind={orbit.kind!r}")
    if p.omega <= 0.0:
        raise ValueError("melnikov evaluation needs omega > 0")
    fit = chebyshev_fit("sech", orbit.lam)
    r, s = fit.coefficients
    k, w = orbit.k, p.omega
    rk = math.sqrt(k)
    envelope = _reciprocal(math.cosh, w * math.pi / (2.0 * rk))
    wave_base = orbit.A * rk * (r * w * math.pi / k
                                + s * w * math.pi * (k + w * w) / (6.0 * k * k)) * envelope
    i2 = damping_integral(orbit)
    ratio = math.inf if wave_base == 0.0 else abs(i2 / wave_base)
    return MelnikovResult(
        wave_coeff=p.gamma * wave_base,
        damp_coeff=p.delta * i2,
        threshold_ratio=ratio,
        orbit=orbit,
        omega=w,
        oscillation="sin",
        fit=fit,
    )


def melnikov_tanh(orbit: HomoclinicOrbit, p: OscillatorParams) -> MelnikovResult:
    """Distance function for the kink orbit:
    M(t0) = gamma A sqrt(k) [-r w pi/k + s w pi (w^2-8k)/(6k^2)] csch(w pi/(2 sqrt k)) cos(w t0)
            - delta * J2."""
    if orbit.kind != "tanh":
        raise ValueError(f"expected a tanh orbit, got kind={orbit.kind!r}")
    if p.omega <= 0.0:
        raise ValueError("melnikov evaluation needs omega > 0")
    fit = chebyshev_fit("tanh", orbit.lam)
    r, s = fit.coefficients
    k, w = orbit.k, p.omega
    rk = math.sqrt(k)
    envelope = _reciprocal(math.sinh, w * math.pi / (2.0 * rk))
    wave_base = orbit.A * rk * (-r * w * math.pi / k
                                + s * w * math.pi * (w * w - 8.0 * k) / (6.0 * k * k)) * envelope
    j2 = damping_integral(orbit)
    ratio = math.inf if wave_base == 0.0 else abs(j2 / wave_base)
    return MelnikovResult(
        wave_coeff=p.gamma * wave_base,
        damp_coeff=p.delta * j2,
        threshold_ratio=ratio,
        orbit=orbit,
        omega=w,
        oscillation="cos",
        fit=fit,
    )


def per_family_threshold(orbit: HomoclinicOrbit, p: OscillatorParams) -> float:
    res = melnikov_sech(orbit, p) if orbit.kind == "sech" else melnikov_tanh(orbit, p)
    if not math.isfinite(res.threshold_ratio):
        raise ValueError("oscillatory coefficient vanishes; threshold criterion inconclusive")
    return abs(p.delta) * res.threshold_ratio


def outcome(fn, *args):
    """fn's value with every float in float hex, or its error's type and text."""
    def hexed(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(map(hexed, value))
        return value

    try:
        value = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return hexed(dataclasses.astuple(value) if dataclasses.is_dataclass(value) else value)


class TestOneAssemblyMatchesThePerFamilyPair:
    # Orbits from a lattice of (a, b, c) in both kinds and both signs, plus
    # direct orbits on both sides of the damping series' cutoff |lam| < 1e-3,
    # the CLI's two overflowing envelopes and a nonpositive omega.
    LATTICE = (-2.0, -1.0, -0.5, 0.0, 0.2, 0.5, 1.0, 2.5)
    OMEGAS = (-1.4, 0.0, 0.05, 1.4, 3.0, 1000.0)

    def orbits(self):
        for a, b, c in product(self.LATTICE, repeat=3):
            for kind, sign in product(("sech", "tanh"), (1, -1)):
                try:
                    yield homoclinic_orbit(a, b, c, kind, sign)
                except ValueError:
                    pass
        for kind, lam in product(("sech", "tanh"), (0.0, 5e-4, -5e-4, 1e-3, -0.999e-3)):
            yield HomoclinicOrbit(A=1.3, k=0.7, lam=lam, kind=kind)
        yield homoclinic_orbit(2.220446049250313e-16, 1, 1, "sech", 1)
        yield homoclinic_orbit(-1, -3, 1, "tanh", -1)

    def test_every_field_and_threshold_bit_for_bit(self):
        seen = {"sech": 0, "tanh": 0, "series": 0, "inf_ratio": 0, "omega_error": 0}
        for orbit in self.orbits():
            per_family = melnikov_sech if orbit.kind == "sech" else melnikov_tanh
            for w in self.OMEGAS:
                # forcing needs omega > 0, so the omega <= 0 rows are unforced
                p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35 if w > 0 else 0.0, omega=w)
                want = outcome(per_family, orbit, p)
                assert outcome(melnikov, orbit, p) == want, (orbit, w)
                assert outcome(chaos_threshold, orbit, p) == outcome(per_family_threshold, orbit, p)
                seen[orbit.kind] += 1
                seen["series"] += abs(orbit.lam) < 1e-3
                seen["inf_ratio"] += want[2:3] == (math.inf.hex(),)
                seen["omega_error"] += want[1:] == ("melnikov evaluation needs omega > 0",)
        assert all(seen.values()), seen
