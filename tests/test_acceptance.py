"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to stream them).

Criterion 3 checks each separatrix orbit against the energy level of
its own saddle (nonzero for kinks), criterion 5 fits the kink surrogate
on [0, 1], the range of tanh^2 along the orbit, and criterion 8 checks
what delayed feedback promises: a forcing-period orbit at the published
gain/delay pair, non-invasive control at tau = T, and a grid ranking
led by the delay nearest T.
"""
import math
import time

import numpy as np
from scipy.integrate import quad

from cqduffing import (
    IntegrationError,
    OscillatorParams,
    State,
    StepControl,
    energy,
    integrate,
    integrate_delayed,
)
from cqduffing.chaos import gamma_scan, lyapunov_max
from cqduffing.core import acceleration
from cqduffing.exact import (
    HomoclinicOrbit,
    cn_ansatz_residuals,
    eval_cn_solution,
    eval_homoclinic,
    homoclinic_orbit,
    solve_cn_coefficients,
)
from cqduffing.kbm import kbm_solve
from cqduffing.melnikov import (
    chebyshev_fit,
    damping_integral,
    melnikov,
)
from cqduffing.pyragas import ControllerConfig, run_controlled, search_mu_tau
from cqduffing.sde import SdeConfig, ensemble_stats, euler_maruyama, path_increments
from conftest import ode_residual_fd


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def reference_run(p, x0, v0, t_end, tol=1e-12):
    return integrate(lambda t, x, v: acceleration(p, t, x, v), State(0.0, x0, v0),
                     t_end, StepControl(abs_tol=tol, rel_tol=tol))


def test_criterion_01_exact_softening_reproduction():
    t_start = time.time()
    sol = solve_cn_coefficients(-1.0, 2.0, 3.0, 1.0)
    want = (4 - 3 * math.sqrt(2), 12 * math.sqrt(2) - 17, 3 * math.sqrt(2),
            (3 - 2 * math.sqrt(2)) / 6)
    got = (sol.lam, sol.mu, sol.omega_cn, sol.m)
    par_err = max(abs(g - w) for g, w in zip(got, want))
    p = OscillatorParams(-1, 2, 3, epsilon=0)
    ref = reference_run(p, 1.0, 0.0, 2 * sol.period)
    traj_err = max(abs(eval_cn_solution(sol, t) - ref.eval(t)[0])
                   for t in np.linspace(0.0, 2 * sol.period, 400))
    wall = time.time() - t_start
    ok = par_err < 1e-8 and traj_err < 1e-6 and wall < 5.0
    report(1, ok, f"parameter error {par_err:.2e} (tol 1e-8), trajectory error "
                  f"{traj_err:.2e} (tol 1e-6), runtime {wall:.2f}s (< 5s)")
    assert par_err < 1e-8
    assert traj_err < 1e-6
    assert wall < 5.0


def test_criterion_02_hardening_audit():
    sol = solve_cn_coefficients(1.0, 1.0, 1.0, 1.0)
    resid = float(np.abs(cn_ansatz_residuals(1, 1, 1, 1, sol.lam, sol.mu,
                                             sol.omega_cn, sol.m)).max())
    p = OscillatorParams(1, 1, 1, epsilon=0)
    ref = reference_run(p, 1.0, 0.0, 2 * sol.period)
    traj_err = max(abs(eval_cn_solution(sol, t) - ref.eval(t)[0])
                   for t in np.linspace(0.0, 2 * sol.period, 400))
    # the published parameter set for this problem starts from
    # sqrt(lam_p) cn / sqrt(1 + lam_p cn^2), lam_p = (3+sqrt3)/6, whose
    # initial value is sqrt(lam_p/(1+lam_p)) != 1: a documented discrepancy
    lam_p = (3 + math.sqrt(3)) / 6
    printed_x0 = math.sqrt(lam_p / (1 + lam_p))
    printed_fails = abs(printed_x0 - 1.0) > 0.3
    ok = resid < 1e-10 and traj_err < 1e-6 and printed_fails
    report(2, ok, f"coefficient residual {resid:.2e} (tol 1e-10), trajectory error "
                  f"{traj_err:.2e} (tol 1e-6), published-set x(0) = {printed_x0:.4f} "
                  f"(fails the x(0)=1 check as documented)")
    assert resid < 1e-10
    assert traj_err < 1e-6
    assert printed_fails


def _random_orbits(kind, n_wanted, rng):
    """Admissible random triples, conditioned so the second-difference
    oracle's own roundoff (about 4 eps x0 / h^2 = 1e-5 x0 at h = 1e-5)
    stays below the 1e-5 bound: x0 <= 0.7, k in [0.05, 2.5], lam away from
    the denominator collapse at -1."""
    out = []
    while len(out) < n_wanted:
        a, b, c = rng.uniform(-2, 2, 3)
        for sign in (1, -1):
            try:
                orb = homoclinic_orbit(a, b, c, kind, sign)
            except ValueError:
                continue
            if orb.x0 > 0.7 or not 0.05 <= orb.k <= 2.5 or orb.lam < -0.75:
                continue
            out.append((a, b, c, orb))
            break
    return out


def test_criterion_03_homoclinic_residual_and_energy_level():
    """Each orbit solves the ODE and lies on the energy level of its own
    saddle x_s: the origin for pulses, the end point x0 = A/sqrt(1+lam)
    for kinks (whose level E(x0, 0) is nonzero)."""
    rng = np.random.default_rng(31)
    worst_resid = {"sech": 0.0, "tanh": 0.0}
    worst_energy = {"sech": 0.0, "tanh": 0.0}
    worst_rest = {"sech": 0.0, "tanh": 0.0}
    for kind in ("sech", "tanh"):
        for a, b, c, orb in _random_orbits(kind, 10, rng):
            ts = np.linspace(-4, 4, 200) / max(math.sqrt(orb.k), 0.3)
            resid = ode_residual_fd(a, b, c, lambda t: eval_homoclinic(orb, t)[0], ts)
            p = OscillatorParams(a, b, c)
            x_s = 0.0 if kind == "sech" else orb.x0
            level = energy(p, x_s, 0.0)
            e_max = max(abs(energy(p, *eval_homoclinic(orb, t)) - level) for t in ts)
            worst_resid[kind] = max(worst_resid[kind], resid)
            worst_energy[kind] = max(worst_energy[kind], e_max)
            worst_rest[kind] = max(worst_rest[kind], abs(a * x_s - b * x_s ** 3 - c * x_s ** 5))
    ok = (max(worst_resid.values()) < 1e-5 and max(worst_energy.values()) < 1e-10
          and max(worst_rest.values()) < 1e-12)
    report(3, ok,
           f"ODE residual: sech {worst_resid['sech']:.2e}, tanh {worst_resid['tanh']:.2e} "
           f"(tol 1e-5); |E - E(x_s, 0)|: sech {worst_energy['sech']:.2e}, tanh "
           f"{worst_energy['tanh']:.2e} (tol 1e-10); saddle force: sech "
           f"{worst_rest['sech']:.2e}, tanh {worst_rest['tanh']:.2e} (tol 1e-12)")
    assert worst_resid["sech"] < 1e-5
    assert worst_resid["tanh"] < 1e-5
    assert worst_energy["sech"] < 1e-10
    assert worst_energy["tanh"] < 1e-10
    assert worst_rest["sech"] < 1e-12
    assert worst_rest["tanh"] < 1e-12


def test_criterion_04_melnikov_closed_forms():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(50):
        A = rng.uniform(0.3, 2.0)
        k = rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.05, 3.0)
        rk = math.sqrt(k)
        i2 = damping_integral(HomoclinicOrbit(A, k, lam, "sech"))
        f = lambda t: 2 * A * A * k * math.sinh(2 * rk * t) ** 2 \
            / (math.cosh(2 * rk * t) + 2 * lam + 1) ** 3
        i2_q = quad(f, -40 / rk, 40 / rk, limit=400)[0]
        g = lambda t: A * A * k / math.cosh(rk * t) ** 4 \
            / (1 + lam * math.tanh(rk * t) ** 2) ** 3
        j2 = damping_integral(HomoclinicOrbit(A, k, lam, "tanh"))
        j2_q = quad(g, -40 / rk, 40 / rk, limit=400)[0]
        worst = max(worst, abs(i2 - i2_q), abs(j2 - j2_q))
    orb = HomoclinicOrbit(A=1.0, k=1.0, lam=0.5, kind="sech")
    res = melnikov(orb, OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.3,
                                         omega=1.4, epsilon=1))
    T0 = 2 * math.pi / res.omega
    per_err = max(abs(res.evaluate(t0 + T0) - res.evaluate(t0))
                  for t0 in np.linspace(0, 7, 40))
    ok = worst < 1e-6 and per_err < 1e-12
    report(4, ok, f"closed form vs quadrature worst {worst:.2e} (tol 1e-6) over 50 "
                  f"triples, release-time periodicity error {per_err:.2e} (tol 1e-12)")
    assert worst < 1e-6
    assert per_err < 1e-12


def test_criterion_05_chebyshev_fit_errors():
    lams = (0.0, 0.25, 0.5, 1.0)
    sech_errs = {lam: chebyshev_fit("sech", lam).max_error for lam in lams}
    tanh_errs = {lam: chebyshev_fit("tanh", lam).max_error for lam in lams}
    ok = all(e < 0.05 for e in sech_errs.values()) and \
        all(e < 0.05 for e in tanh_errs.values())
    fmt = lambda d: ", ".join(f"{k}: {v:.4f}" for k, v in d.items())
    report(5, ok, f"pulse-fit sup errors on [-1, 1] {{{fmt(sech_errs)}}}, kink-fit sup "
                  f"errors on [0, 1] {{{fmt(tanh_errs)}}} (all < 0.05)")
    for lam in lams:
        assert sech_errs[lam] < 0.05, f"pulse fit at lam={lam}"
    for lam in lams:
        assert tanh_errs[lam] < 0.05, f"kink fit at lam={lam}"


T14 = 2 * math.pi / 1.4


def test_criterion_06_chaos_onset():
    t_start = time.time()
    row = gamma_scan(1, 1, 0, 0.1, 1.4, (0.05, 0.60), 0.005)
    le_hi = lyapunov_max(OscillatorParams(1, 1, 0, delta=0.1, gamma=0.35, omega=1.4),
                         State(0, 0, 0), 500 * T14, T14)
    le_lo = lyapunov_max(OscillatorParams(1, 1, 0, delta=0.1, gamma=0.10, omega=1.4),
                         State(0, 0, 0), 500 * T14, T14)
    wall = time.time() - t_start
    ok = (not math.isnan(row.gamma_c) and 0.31 <= row.gamma_c <= 0.37
          and le_hi > 0.01 and le_lo <= 0.0 and wall < 180.0)
    report(6, ok, f"gamma_c = {row.gamma_c:.4f} (window [0.31, 0.37]), "
                  f"exponent(0.35) = {le_hi:.3f} (> 0.01), exponent(0.10) = {le_lo:.3f} "
                  f"(<= 0), runtime {wall:.0f}s (< 180s)")
    assert not math.isnan(row.gamma_c), "no onset found at omega=1.4"
    assert 0.31 <= row.gamma_c <= 0.37
    assert le_hi > 0.01
    assert le_lo <= 0.0
    assert wall < 180.0


def test_criterion_07_frequency_table_spot_checks():
    targets = {1.1: 0.173, 1.4: 0.340, 2.0: 0.684}
    ranges = {1.1: (0.05, 0.45), 1.4: (0.05, 0.60), 2.0: (0.30, 0.90)}
    results = {}
    for omega, want in targets.items():
        row = gamma_scan(1, 1, 0, 0.1, omega, ranges[omega], 0.005)
        assert not math.isnan(row.gamma_c), f"no onset found at omega={omega}"
        results[omega] = row.gamma_c
    devs = {w: abs(results[w] - targets[w]) for w in targets}
    ok = all(d <= 0.06 for d in devs.values())
    report(7, ok, "; ".join(
        f"omega={w}: gamma_c={results[w]:.3f} vs {targets[w]:.3f} (|d|={devs[w]:.3f})"
        for w in targets) + " -- tolerance 0.06")
    for w in targets:
        assert devs[w] <= 0.06, f"omega={w}"


def _period_residual(traj, period, window):
    """sup |x(t + period) - x(t)| over the final `window` of the run."""
    t1 = traj.t[-1]
    return max(abs(traj.eval(t + period)[0] - traj.eval(t)[0])
               for t in np.linspace(t1 - window, t1 - period, 400))


def test_criterion_08_delayed_feedback_suppression():
    """Delayed feedback mu [x'(t - tau) - x'(t)] suppresses the chaos onto
    an orbit locked to the forcing period T = 2 pi / 1.4, and vanishes on
    it only when tau = T; the published delay 3.73093 is incommensurate
    with T, so its feedback stays finite."""
    p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1.0)
    T = 2 * math.pi / 1.4
    # (a) the published pair settles onto a T-periodic orbit; without
    # feedback the response is not periodic
    traj, rep = run_controlled(p, ControllerConfig(mu=2.25311, tau=3.73093),
                               State(0, 0, 0), 500.0)
    res_pub = _period_residual(traj, T, 5 * T)
    traj0, _ = run_controlled(p, ControllerConfig(mu=0.0, tau=3.73093), State(0, 0, 0), 500.0)
    res_free = _period_residual(traj0, T, 5 * T)
    # (b) with tau = T the control is non-invasive
    _, rep_T = run_controlled(p, ControllerConfig(mu=2.25311, tau=T), State(0, 0, 0), 500.0)
    # (c) the prescribed grid ranks first the tau node nearest T
    t_start = time.time()
    cells = search_mu_tau(p, (0.5, 3.0), (2.0, 6.0), (20, 20))
    best = cells[0]
    wall = time.time() - t_start
    taus = np.linspace(2.0, 6.0, 20)
    tau_near = float(taus[np.argmin(np.abs(taus - T))])
    ok = (res_pub < 1e-2 <= res_free and rep_T.controller_norm < 1e-3
          and rep_T.residual < 1e-2 and best[1] == tau_near)
    report(8, ok,
           f"(a) published pair: T-residual {res_pub:.2e} (< 1e-2, uncontrolled "
           f"{res_free:.2f}), T = {T:.5f}; its controller norm {rep.controller_norm:.3f} "
           f"stays finite since tau = 3.73093 != T; (b) tau = T: controller norm "
           f"{rep_T.controller_norm:.1e} (< 1e-3), tau-residual {rep_T.residual:.1e} "
           f"(< 1e-2); (c) grid best (mu={best[0]:.3f}, tau={best[1]:.3f}, norm "
           f"{best[2]:.3e}), nearest tau node to T {tau_near:.3f}; grid runtime {wall:.0f}s")
    assert res_pub < 1e-2
    assert res_free >= 1e-2
    assert rep_T.controller_norm < 1e-3
    assert rep_T.residual < 1e-2
    assert best[1] == tau_near


def test_criterion_09_amplitude_phase_accuracy():
    """Error bound on the slowly-varying approximation plus its order: the
    expansion's small parameter multiplies the whole perturbation bracket
    [eps*delta x' + b x^3 + c x^5 - eps*gamma cos], so 'halving the
    eps-scale terms' halves b, c and epsilon together."""
    def max_err(scale):
        p = OscillatorParams(a=-1, b=2 * scale, c=1 * scale, delta=0.025,
                             gamma=0.01, omega=0.1, epsilon=scale)
        sol = kbm_solve(p, 0.25, 0.0, 30.0)
        ref = reference_run(p, 0.25, 0.0, 30.0)
        return max(abs(sol.eval(float(t)) - ref.eval(float(t))[0])
                   for t in np.linspace(0, 30, 600))

    e_full = max_err(1.0)
    e_half = max_err(0.5)
    ratio = e_full / e_half
    ok = e_full < 0.02 and ratio >= 3.0
    report(9, ok, f"max error {e_full:.2e} over [0, 30] (tol 0.02); halving the "
                  f"perturbation bracket shrinks it to {e_half:.2e}, ratio {ratio:.2f} "
                  f"(>= 3 required)")
    assert e_full < 0.02
    assert ratio >= 3.0


def test_criterion_10_integrator_properties():
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        tr = integrate(lambda t, x, v: -x, State(0, 1, 0), 2 * math.pi,
                       StepControl(dt=dt, method="rk4"))
        errs.append(math.hypot(tr.x[-1] - 1.0, tr.v[-1]))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
    slope_ok = bool(np.all(np.abs(slopes - 4.0) < 0.2))

    p = OscillatorParams(1, 1, 1, epsilon=0)
    tr = integrate(lambda t, x, v: acceleration(p, t, x, v), State(0, 0.5, 0),
                   100.0, StepControl(abs_tol=1e-10, rel_tol=1e-10))
    E = energy(p, tr.x, tr.v)
    drift = float(np.abs(E - E[0]).max())

    dde = integrate_delayed(lambda t, x, v, vd: -vd, State(0, 0.0, 1.0),
                            lambda t: 1.0, 1.0, 2.0,
                            StepControl(abs_tol=1e-10, rel_tol=1e-10))
    dde_err = abs(dde.v[-1] + 0.5)

    ok = slope_ok and drift < 1e-8 and dde_err < 1e-6
    report(10, ok, f"RK4 order slopes {np.round(slopes, 3).tolist()} (4 +- 0.2), "
                   f"energy drift {drift:.2e} (< 1e-8), delayed test error "
                   f"{dde_err:.2e} (< 1e-6)")
    assert slope_ok
    assert drift < 1e-8
    assert dde_err < 1e-6


def test_criterion_11_stochastic_properties():
    # zero-noise path is bitwise explicit Euler
    p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.3, omega=1.4, epsilon=1.0)
    cfg0 = SdeConfig(dt=0.01, n_steps=300, seed=7, sigma=0.0, ensemble=1)
    path = euler_maruyama(p, cfg0, State(0.0, 0.1, 0.0))[0]
    q = p.epsilon * p.gamma
    ts = 0.0 + cfg0.dt * np.arange(cfg0.n_steps + 1)
    x, v = 0.1, 0.0
    for i in range(cfg0.n_steps):
        x2 = x * x
        drift_v = p.a * x - p.b * x * x2 - p.c * x * x2 * x2 - q * v \
            + q * math.cos(p.omega * ts[i])
        x, v = x + v * cfg0.dt, v + drift_v * cfg0.dt + 0.0
    bitwise_ok = (x == path.x[-1]) and (v == path.v[-1])

    # relaxation-to-noise reduction: a=b=c=0, theta = eps*gamma
    theta, sigma = 1.0, 0.1
    ou = OscillatorParams(a=0, b=0, c=0, gamma=theta, omega=1.0, epsilon=1.0)
    cfg = SdeConfig(dt=0.005, n_steps=200, seed=11, sigma=sigma, ensemble=10_000)
    paths = euler_maruyama(ou, cfg, State(0, 0, 0))
    st = ensemble_stats(paths, 1.0)
    var_want = sigma**2 * (1 - math.exp(-2 * theta)) / (2 * theta)
    se = var_want * math.sqrt(2.0 / (cfg.ensemble - 1))
    var_ok = abs(st.var_v - var_want) < 3 * se

    # order independence: rebuild every path alone from its keyed stream
    cfg_s = SdeConfig(dt=0.02, n_steps=40, seed=5, sigma=0.3, ensemble=8)
    ens = euler_maruyama(ou, cfg_s, State(0.0, 0.0, 1.0))
    parallel_ok = True
    for j in reversed(range(cfg_s.ensemble)):
        dW = path_increments(cfg_s, j)
        xx, vv = 0.0, 1.0
        for i in range(cfg_s.n_steps):
            t = i * cfg_s.dt
            drift_v = -theta * vv + theta * math.cos(ou.omega * t)
            xx, vv = xx + vv * cfg_s.dt, vv + drift_v * cfg_s.dt + cfg_s.sigma * dW[i]
        parallel_ok &= (vv == ens[j].v[-1]) and (xx == ens[j].x[-1])

    ok = bitwise_ok and var_ok and parallel_ok
    report(11, ok, f"zero-noise bitwise: {bitwise_ok}; ensemble variance "
                   f"{st.var_v:.6f} vs {var_want:.6f} (band 3SE = {3 * se:.2e}); "
                   f"per-path streams order-independent: {parallel_ok}")
    assert bitwise_ok
    assert var_ok
    assert parallel_ok
