import math

import numpy as np
import pytest

from cqduffing import IntegrationError, OscillatorParams, State, StepControl, integrate
from cqduffing.core import acceleration
from cqduffing.kbm import (
    KbmCoefficients,
    amplitude_phase_odes,
    assemble_solution,
    build_coefficients,
    initial_conditions_map,
    integrate_amplitude_phase,
    kbm_solve,
)

# softening reference problem: x'' + x + 0.025 x' + 2 x^3 + x^5 = 0.01 cos(0.1 t)
SOFT = OscillatorParams(a=-1, b=2, c=1, delta=0.025, gamma=0.01, omega=0.1, epsilon=1.0)

# published second-order solution of that problem, for cross-checking the
# slow flow: amp = 0.23913 e^{-0.0125 t},
# psi = t - 0.0204369 e^{-0.05 t} - 1.71549 e^{-0.025 t} + 1.72421
REF_AMP0 = 0.23913
REF_PSI = (1.72421, -0.0204369, -1.71549)


def reference_solution(p, x0, v0, t_end, tol=1e-12):
    return integrate(lambda t, x, v: acceleration(p, t, x, v), State(0.0, x0, v0),
                     t_end, StepControl(abs_tol=tol, rel_tol=tol))


class TestBuildCoefficients:
    def test_softening_normalization(self):
        k = build_coefficients(SOFT, 0.25)
        assert k.omega0 == 1.0
        assert (k.B, k.C, k.D, k.E, k.eta) == (0.0, 2.0, 0.0, 1.0, 0.0)
        assert k.epsilon_eff == pytest.approx(0.025)
        assert k.phi_amplitude == pytest.approx(0.01)
        assert k.phi_omega == 0.1

    def test_hardening_shift(self):
        p = OscillatorParams(1, 1, 1)
        k = build_coefficients(p, 0.9)
        assert k.eta == pytest.approx(math.sqrt((math.sqrt(5) - 1) / 2), rel=1e-12)
        assert k.eta == pytest.approx(0.78615, abs=1e-5)
        assert k.omega0 ** 2 == pytest.approx(5 - math.sqrt(5), rel=1e-12)
        assert k.omega0 ** 2 == pytest.approx(2.764, abs=1e-3)

    def test_pure_quintic_shift(self):
        k = build_coefficients(OscillatorParams(1, 0, 1), 1.1)
        assert k.eta == pytest.approx(1.0, rel=1e-12)
        assert k.omega0 == pytest.approx(2.0, rel=1e-12)

    def test_nearest_center_is_chosen(self):
        k = build_coefficients(OscillatorParams(1, 1, 1), -0.9)
        assert k.eta < 0

    def test_no_center_raises(self):
        with pytest.raises(ValueError, match="center"):
            build_coefficients(OscillatorParams(1, 0, -1), 1.0)


class TestSlowFlow:
    def test_conservative_amplitude_is_frozen(self):
        k = build_coefficients(OscillatorParams(-1, 2, 1, epsilon=0), 0.25)
        da, _ = amplitude_phase_odes(k, 0.3, 0.0)
        assert da == 0.0

    def test_linear_damping_rate(self):
        k = KbmCoefficients(omega0=1.0, B=0.0, C=0.0, D=0.0, E=0.0, eta=0.0,
                            epsilon_eff=0.2, phi_amplitude=0.0, phi_omega=0.0)
        da, _ = amplitude_phase_odes(k, 0.5, 0.0)
        assert da == pytest.approx(-0.2 * 0.5 / 2, rel=1e-14)

    def test_slow_flow_matches_published_exponentials(self):
        # first-order flow from the published starting point reproduces the
        # printed amplitude/phase laws within 1e-3 over [0, 50]
        k = build_coefficients(SOFT, 0.25)
        psi0 = REF_PSI[0] + REF_PSI[1] + REF_PSI[2]
        traj = integrate_amplitude_phase(k, (REF_AMP0, psi0), 50.0, order=1)
        for t, amp, psi in traj[:: len(traj) // 25]:
            amp_ref = REF_AMP0 * math.exp(-0.0125 * t)
            psi_ref = (t + REF_PSI[0] + REF_PSI[1] * math.exp(-0.05 * t)
                       + REF_PSI[2] * math.exp(-0.025 * t))
            assert amp == pytest.approx(amp_ref, abs=1e-3)
            assert psi == pytest.approx(psi_ref, abs=1e-3)


class TestAssembly:
    def test_harmonic_limit(self):
        p = OscillatorParams(-1, 0, 0, epsilon=0)
        sol = kbm_solve(p, 0.4, 0.0, 20.0)
        for t in np.linspace(0, 20, 41):
            assert sol.eval(float(t)) == pytest.approx(0.4 * math.cos(t), abs=1e-9)

    def test_softening_initial_value(self):
        sol = kbm_solve(SOFT, 0.25, 0.0, 1.0)
        assert sol.eval(0.0) == pytest.approx(0.25, abs=5e-3)
        assert sol.eval(0.0) == pytest.approx(0.25, abs=1e-9)  # fit is exact here

    def test_softening_tracks_reference(self):
        sol = kbm_solve(SOFT, 0.25, 0.0, 30.0)
        ref = reference_solution(SOFT, 0.25, 0.0, 30.0)
        errs = [abs(sol.eval(float(t)) - ref.eval_x(float(t)))
                for t in np.linspace(0, 30, 600)]
        assert max(errs) < 0.02

    def test_hardening_tracks_reference(self):
        p = OscillatorParams(1, 1, 1, delta=0.02, gamma=0.0, omega=0.0, epsilon=1.0)
        sol = kbm_solve(p, 0.9, 0.0, 30.0)
        ref = reference_solution(p, 0.9, 0.0, 30.0)
        errs = [abs(sol.eval(float(t)) - ref.eval_x(float(t)))
                for t in np.linspace(0, 30, 600)]
        assert max(errs) < 0.01

    def test_general_assembly_reduces_to_origin_form(self):
        # independent transcription of the origin-centered (B = D = 0)
        # second-order assembly, compared symbol-for-symbol
        k = build_coefficients(SOFT, 0.25)
        w0, b, c, eps = k.omega0, k.C, k.E, k.epsilon_eff

        def origin_form(a, psi, t):
            phi = k.phi_amplitude * math.cos(k.phi_omega * t)
            u1 = (a**5 * c * (15 * math.cos(3 * psi) + math.cos(5 * psi))
                  + 12 * a**3 * b * math.cos(3 * psi) + 384 * phi) / (384 * w0**2)
            u2 = a**2 / (294912 * w0**4) * (
                a**7 * c**2 * (-5280 * math.cos(3 * psi) + 160 * math.cos(5 * psi)
                               + 95 * math.cos(7 * psi) + 3 * math.cos(9 * psi))
                + 72 * a**5 * b * c * (-164 * math.cos(3 * psi) + 4 * math.cos(5 * psi)
                                       + math.cos(7 * psi))
                + 32 * a**3 * (9 * b**2 * (math.cos(5 * psi) - 21 * math.cos(3 * psi))
                               + 20 * c * w0 * eps * (27 * math.sin(3 * psi)
                                                      + math.sin(5 * psi)))
                + 12288 * a**2 * c * phi * (20 * math.cos(2 * psi) + math.cos(4 * psi) - 45)
                + 6912 * a * b * w0 * eps * math.sin(3 * psi)
                + 147456 * b * phi * (math.cos(2 * psi) - 3)
            )
            return a * math.cos(psi) + u1 + u2

        traj = np.array([[0.0, 0.24, -0.01], [1.0, 0.239, 0.99]])
        for t, amp, psi in [(0.0, 0.24, -0.01), (0.7, 0.2395, 0.69), (1.0, 0.239, 0.99)]:
            one_point = np.array([[t, amp, psi], [t + 1.0, amp, psi]])
            got = assemble_solution(k, one_point, t)
            assert got == pytest.approx(origin_form(amp, psi, t), abs=1e-14)

    def test_no_secular_growth(self):
        p = OscillatorParams(-1, 2, 1, epsilon=0)
        k = build_coefficients(p, 0.25)
        ic = initial_conditions_map(k, 0.25, 0.0)
        horizon = 1e4 * 2 * math.pi / k.omega0
        traj = integrate_amplitude_phase(k, ic, horizon, dt=2 * math.pi / (4 * k.omega0))
        xs = [assemble_solution(k, traj, t) for t in np.linspace(0, horizon, 500)]
        early = [assemble_solution(k, traj, t) for t in np.linspace(0, 10.0, 200)]
        assert max(abs(x) for x in xs) <= 1.2 * max(abs(x) for x in early)


class TestInitialConditions:
    def test_rest_at_shift_gives_zero_amplitude(self):
        k = build_coefficients(OscillatorParams(1, 1, 1), 0.9)
        amp, _ = initial_conditions_map(k, k.eta, 0.0)
        assert abs(amp) < 1e-9

    def test_small_corrections_linear_seed(self):
        p = OscillatorParams(-1, 1e-6, 0.0, epsilon=0)
        k = build_coefficients(p, 0.3)
        amp, psi = initial_conditions_map(k, 0.3, 0.0)
        assert amp == pytest.approx(0.3, abs=1e-6)
        assert psi == pytest.approx(0.0, abs=1e-6)

    def test_reference_leading_amplitude(self):
        k = build_coefficients(SOFT, 0.25)
        amp, _ = initial_conditions_map(k, 0.25, 0.0)
        assert amp == pytest.approx(REF_AMP0, abs=2e-3)


class TestOrderProperty:
    def test_halving_the_perturbation_bracket(self):
        # the expansion's small parameter multiplies the whole bracket
        # [eps*delta x' + b x^3 + c x^5 - eps*gamma cos], so halving it means
        # halving b, c, and epsilon together
        def err(scale):
            p = OscillatorParams(a=-1, b=2 * scale, c=1 * scale, delta=0.025,
                                 gamma=0.01, omega=0.1, epsilon=scale)
            sol = kbm_solve(p, 0.25, 0.0, 30.0)
            ref = reference_solution(p, 0.25, 0.0, 30.0)
            return max(abs(sol.eval(float(t)) - ref.eval_x(float(t)))
                       for t in np.linspace(0, 30, 400))

        e_full, e_half = err(1.0), err(0.5)
        assert e_full / e_half >= 3.0


class TestStepBound:
    def test_horizon_past_max_steps_raises_before_the_knots_exist(self):
        k = build_coefficients(SOFT, 0.25)
        with pytest.raises(IntegrationError, match=f"max_steps={StepControl.max_steps} exceeded"):
            integrate_amplitude_phase(k, (0.25, 0.0), 1e300)

    def test_bound_counts_the_steps(self, monkeypatch):
        monkeypatch.setattr(StepControl, "max_steps", 10)
        k = build_coefficients(SOFT, 0.25)
        ic = (0.25, 0.0)
        assert integrate_amplitude_phase(k, ic, 1.0, dt=0.1).shape == (11, 3)
        with pytest.raises(IntegrationError, match="max_steps=10 exceeded"):
            integrate_amplitude_phase(k, ic, 1.05, dt=0.1)


_SPAN = np.array([[0.0, 0.25, 0.0], [1.0, 0.24, 1.0]])


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: assemble_solution(build_coefficients(SOFT, 0.25), _SPAN, -0.5),
                 "outside the amplitude/phase trajectory span", id="before-span"),
    pytest.param(lambda: assemble_solution(build_coefficients(SOFT, 0.25), _SPAN, 1.5),
                 "outside the amplitude/phase trajectory span", id="after-span"),
])
def test_invalid_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()
