"""Second-order amplitude-phase approximation of the damped driven
oscillator, built around a slowly varying ansatz

    x(t) = eta + amp(t) cos(psi(t)) + u1(amp, psi, t) + u2(amp, psi, t),

where eta is a rest point (zero when the origin is a center) and u1, u2
are the first and second correction harmonics of the shifted polynomial
equation u'' + w0^2 u + B u^2 + C u^3 + D u^4 + E u^5 = forcing - damping.
The amplitude and phase obey two slow ODEs that absorb would-be secular
terms; both are integrated numerically (RK4) rather than in closed form,
so the damping contributions of the cubic and quintic terms are kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import odeint
from .core import OscillatorParams, _is_count, _stiffness, equilibria

__all__ = [
    "KbmCoefficients",
    "KbmSolution",
    "build_coefficients",
    "amplitude_phase_odes",
    "integrate_amplitude_phase",
    "initial_conditions_map",
    "kbm_solve",
]


@dataclass(frozen=True)
class KbmCoefficients:
    """Shifted-equation coefficients plus damping/forcing scales.

    For a < 0 the expansion is around the origin: omega0 = sqrt(-a),
    B = D = 0, C = b, E = c, eta = 0.  For a > 0 it is around a nonzero
    center eta, with omega0^2 = -a + 3 b eta^2 + 5 c eta^4.
    """

    omega0: float
    B: float
    C: float
    D: float
    E: float
    eta: float
    epsilon_eff: float   # eps * delta, the slow damping scale
    phi_amplitude: float  # eps * gamma
    phi_omega: float
    order: int = 2        # of the slow flow they drive: 1 or 2

    def __post_init__(self) -> None:
        if not (_is_count(self.order, 1) and self.order <= 2):
            raise ValueError(f"order must be 1 or 2, got {self.order!r}")

    def phi(self, t: float) -> float:
        """Forcing term eps*gamma*cos(omega t) entering the corrections."""
        if self.phi_amplitude == 0.0:
            return 0.0
        return self.phi_amplitude * math.cos(self.phi_omega * t)


def build_coefficients(p: OscillatorParams, x0: float, order: int = 2) -> KbmCoefficients:
    """Expansion coefficients for the orbit started at x0.

    With a > 0 the shift eta is the center equilibrium nearest x0; an
    error is raised when no nonzero center exists.
    """
    if p.a < 0.0:
        eta = 0.0
    else:
        centers = [e.x for e in equilibria(p) if e.kind == "center" and e.x != 0.0]
        if not centers:
            raise ValueError(
                f"a={p.a} >= 0 requires a nonzero center equilibrium to expand around; none exists"
            )
        eta = min(centers, key=lambda e: abs(e - x0))
    eta2 = eta * eta
    # a center has stiffness < 0 (and -a > 0 at eta = 0), so the root is real
    return KbmCoefficients(
        omega0=math.sqrt(-_stiffness(p, eta)),
        B=3.0 * p.b * eta + 10.0 * p.c * eta * eta2,
        C=p.b + 10.0 * p.c * eta2,
        D=5.0 * p.c * eta,
        E=p.c,
        eta=eta,
        epsilon_eff=p.epsilon * p.delta,
        phi_amplitude=p.epsilon * p.gamma,
        phi_omega=p.omega,
        order=order,
    )


def amplitude_phase_odes(k: KbmCoefficients, a: float, t: float) -> tuple[float, float]:
    """(d amp/dt, d psi/dt) of the slow flow at amplitude a, to k's order."""
    w0 = k.omega0
    eps = k.epsilon_eff
    a2 = a * a
    a3 = a2 * a
    a4 = a2 * a2
    da = -0.5 * a * eps
    dpsi = w0 + (5.0 * a4 * k.E + 6.0 * a2 * k.C) / (16.0 * w0)
    if k.order == 2:
        da += (5.0 * a4 * a * k.E * eps + 3.0 * a3 * k.C * eps) / (16.0 * w0 * w0)
        a6 = a4 * a2
        a8 = a4 * a4
        dpsi += (-275.0 * a8 * k.E ** 2 - 1200.0 * a6 * k.C * k.E - 6048.0 * a6 * k.D ** 2
                 - 13440.0 * a4 * k.B * k.D - 900.0 * a4 * k.C ** 2 - 6400.0 * a2 * k.B ** 2
                 + 23040.0 * a2 * k.D * k.phi(t) + 15360.0 * k.B * k.phi(t)
                 - 1920.0 * w0 * w0 * eps * eps) / (15360.0 * w0 ** 3)
    return da, dpsi


def _corrections(k: KbmCoefficients, a: float, psi: float, t: float) -> float:
    """u1 + u2: the first and second harmonic corrections."""
    w0 = k.omega0
    B, C, D, E = k.B, k.C, k.D, k.E
    eps = k.epsilon_eff
    phi = k.phi(t)
    c2, c3 = math.cos(2 * psi), math.cos(3 * psi)
    c4, c5 = math.cos(4 * psi), math.cos(5 * psi)
    a2 = a * a
    a3 = a2 * a
    a4 = a2 * a2
    a5 = a4 * a
    u1 = (5 * a5 * E * (15 * c3 + c5) + 16 * a4 * D * (20 * c2 + c4 - 45)
          + 60 * a3 * C * c3 + 320 * a2 * B * (c2 - 3) + 1920 * phi) / (1920 * w0 * w0)
    c6, c7 = math.cos(6 * psi), math.cos(7 * psi)
    c8, c9 = math.cos(8 * psi), math.cos(9 * psi)
    s2, s3 = math.sin(2 * psi), math.sin(3 * psi)
    s4, s5 = math.sin(4 * psi), math.sin(5 * psi)
    a6, a7 = a4 * a2, a4 * a3
    u2 = a2 * (
        175 * a7 * E * E * (-5280 * c3 + 160 * c5 + 95 * c7 + 3 * c9)
        + 640 * a6 * D * E * (-24710 * c2 - 168 * c4 + 198 * c6 + 5 * c8 + 38115)
        - 280 * a5 * (36 * c3 * (205 * C * E + 72 * D * D)
                      - 4 * c5 * (45 * C * E + 184 * D * D)
                      - c7 * (45 * C * E + 16 * D * D))
        + 1792 * a4 * (-5 * c2 * (2425 * B * E + 1458 * C * D)
                       + 6 * c4 * (27 * C * D - 20 * B * E)
                       + 9 * c6 * (5 * B * E + 2 * C * D)
                       + 150 * (140 * B * E + 81 * C * D))
        + 1120 * a3 * (-27 * c3 * (16 * B * D + 35 * C * C)
                       + c5 * (176 * B * D + 45 * C * C)
                       + 100 * E * w0 * eps * (27 * s3 + s5))
        + 21504 * a2 * (-775 * B * C * c2 + 25 * B * C * c4 + 1500 * B * C
                        + 800 * D * w0 * eps * s2 + 16 * D * w0 * eps * s4
                        + 100 * E * phi * (20 * c2 + c4 - 45))
        + 134400 * a * (8 * B * B * c3 + 9 * C * w0 * eps * s3 + 48 * D * phi * c3)
        + 2867200 * (2 * B * w0 * eps * s2 + 9 * C * phi * (c2 - 3))
    ) / (51609600 * w0 ** 4)
    return u1 + u2


def _assemble_point(k: KbmCoefficients, a: float, psi: float, t: float) -> float:
    return k.eta + a * math.cos(psi) + _corrections(k, a, psi, t)


def integrate_amplitude_phase(
    k: KbmCoefficients, ic: tuple[float, float], t_end: float,
    dt: float | None = None,
) -> np.ndarray:
    """RK4 integration of the slow flow from t = 0 and ic = (amp, psi).

    Returns knots of shape (n, 3) with columns (t, amp, psi); the default
    step is a two-hundredth of the base period.  Raises IntegrationError
    when the run needs more than odeint._MAX_STEPS steps.
    """
    if not (t_end > 0.0 and (dt is None or 0.0 < dt < math.inf)):
        raise ValueError(f"t_end={t_end} must be > 0 and dt={dt} positive and finite")
    if dt is None:
        dt = (2.0 * math.pi / k.omega0) / 200.0
    steps = t_end / dt - 1e-12
    if steps > odeint._MAX_STEPS:  # before the knots are allocated
        raise odeint.IntegrationError(f"max_steps={odeint._MAX_STEPS} exceeded at "
                                      f"t={odeint._MAX_STEPS * dt}", 0.0)
    n = max(int(math.ceil(steps)), 1)
    out = np.empty((n + 1, 3))
    a, psi = ic
    out[0] = (0.0, a, psi)
    for i in range(n):
        t = i * dt
        h = min(dt, t_end - t) if i < n - 1 else t_end - t
        k1 = amplitude_phase_odes(k, a, t)
        k2 = amplitude_phase_odes(k, a + 0.5 * h * k1[0], t + 0.5 * h)
        k3 = amplitude_phase_odes(k, a + 0.5 * h * k2[0], t + 0.5 * h)
        k4 = amplitude_phase_odes(k, a + h * k3[0], t + h)
        a += h / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        psi += h / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        out[i + 1] = (t + h, a, psi)
    return out


def initial_conditions_map(k: KbmCoefficients, x0: float, v0: float) -> tuple[float, float, bool]:
    """(amp, psi, converged) at t = 0 such that the assembled solution
    meets x(0) = x0, x'(0) = v0, found by a two-dimensional Newton
    iteration; where the fit misses its tolerance, the linear seed with
    converged False."""
    w0 = k.omega0
    u = x0 - k.eta
    amp = math.hypot(u, v0 / w0)
    psi = math.atan2(-v0 / w0, u) if amp > 0 else 0.0
    seed = (amp, psi)

    def value_and_slope(a: float, ps: float) -> tuple[float, float]:
        x = _assemble_point(k, a, ps, 0.0)
        da, dpsi = amplitude_phase_odes(k, a, 0.0)
        h = 1e-6
        dxa = (_assemble_point(k, a + h, ps, 0.0) - _assemble_point(k, a - h, ps, 0.0)) / (2 * h)
        dxp = (_assemble_point(k, a, ps + h, 0.0) - _assemble_point(k, a, ps - h, 0.0)) / (2 * h)
        dxt = (_assemble_point(k, a, ps, h) - _assemble_point(k, a, ps, -h)) / (2 * h)
        return x, dxa * da + dxp * dpsi + dxt

    if amp == 0.0:
        # x and x' do not depend on psi at amp = 0, where the Jacobian is
        # singular: seed from the residual that the corrections leave there
        x, v = value_and_slope(0.0, 0.0)
        u, w = x0 - x, (v - v0) / w0
        if u or w:
            amp, psi = math.hypot(u, w), math.atan2(w, u)
    for _ in range(50):
        x, v = value_and_slope(amp, psi)
        fx, fv = x - x0, v - v0
        if abs(fx) < 1e-13 and abs(fv) < 1e-13 * max(1.0, w0):
            return amp, psi, True
        h_a = 1e-7 * max(1.0, abs(amp))
        h_p = 1e-7
        xa, va = value_and_slope(amp + h_a, psi)
        xp, vp = value_and_slope(amp, psi + h_p)
        j11, j12 = (xa - x) / h_a, (xp - x) / h_p
        j21, j22 = (va - v) / h_a, (vp - v) / h_p
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        d_amp = (-fx * j22 + fv * j12) / det
        d_psi = (-fv * j11 + fx * j21) / det
        if not (math.isfinite(d_amp) and math.isfinite(d_psi)) or abs(d_amp) > 10 * (1 + abs(amp)):
            break
        amp += d_amp
        psi += d_psi
    else:
        x, v = value_and_slope(amp, psi)
        if abs(x - x0) < 1e-9 and abs(v - v0) < 1e-9 * max(1.0, w0):
            return amp, psi, True
    return *seed, False


@dataclass(frozen=True)
class KbmSolution:
    """Assembled approximate solution over [0, t_end]; fit_converged is
    False where the initial fit fell back to its linear seed."""

    coeffs: KbmCoefficients
    traj: np.ndarray
    fit_converged: bool

    def eval(self, t: float) -> float:
        """x(t) = eta + amp cos(psi) + corrections, with (amp, psi) read from
        the slow-flow knots by linear interpolation (they vary slowly);
        ValueError outside the knots' span."""
        ts = self.traj[:, 0]
        slack = 1e-9 * max(1.0, abs(ts[-1]))
        if not (ts[0] - slack <= t <= ts[-1] + slack):
            raise ValueError(f"t={t} outside the amplitude/phase trajectory span")
        a = float(np.interp(t, ts, self.traj[:, 1]))
        psi = float(np.interp(t, ts, self.traj[:, 2]))
        return _assemble_point(self.coeffs, a, psi, t)


def kbm_solve(p: OscillatorParams, x0: float, v0: float, t_end: float,
              order: int = 2) -> KbmSolution:
    """Convenience driver: coefficients, initial fit, slow-flow integration."""
    if not (math.isfinite(x0) and math.isfinite(v0)):
        raise ValueError(f"x0={x0} and v0={v0} must be finite")
    coeffs = build_coefficients(p, x0, order)
    amp, psi, converged = initial_conditions_map(coeffs, x0, v0)
    traj = integrate_amplitude_phase(coeffs, (amp, psi), t_end)
    return KbmSolution(coeffs, traj, converged)
