import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqduffing import IntegrationError, OscillatorParams, State, StepControl, Trajectory, pyragas
from cqduffing.core import acceleration
from cqduffing.pyragas import (
    ControllerConfig,
    chebyshev_fit_orbit,
    controlled_rhs,
    run_controlled,
    search_cell,
    search_mu_tau,
)

# chaotic reference oscillator and the published gain/delay pair
CHAOTIC = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1.0)
MU_REF, TAU_REF = 2.25311, 3.73093
T_FORCING = 2 * math.pi / 1.4

# published fit of the stabilized window, for shape comparison only
REF_POLY = np.array([0.0, -14 / 4985, 514 / 2927, -517 / 4498, 8 / 337, -3 / 2038])


class TestControlledRhs:
    def test_zero_gain_matches_plain(self):
        cfg = ControllerConfig(mu=0.0, tau=1.0)
        s = State(0.3, 0.7, -0.2)
        assert controlled_rhs(CHAOTIC, cfg.mu, s.t, s.x, s.v, 5.0) == acceleration(CHAOTIC, s.t, s.x, s.v)

    def test_matched_velocity_cancels(self):
        cfg = ControllerConfig(mu=2.0, tau=1.0)
        s = State(0.3, 0.7, -0.2)
        assert controlled_rhs(CHAOTIC, cfg.mu, s.t, s.x, s.v, -0.2) == acceleration(CHAOTIC, s.t, s.x, s.v)

    def test_reference_start(self):
        cfg = ControllerConfig(mu=MU_REF, tau=TAU_REF)
        assert controlled_rhs(CHAOTIC, cfg.mu, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.35)

    def test_lane_arrays_equal_the_float_calls_bitwise(self):
        rng = np.random.default_rng(17)
        mu, x, v, vd = rng.uniform(-3.0, 3.0, (4, 64))
        t = 1.7
        got = controlled_rhs(CHAOTIC, mu, t, x, v, vd)
        want = [controlled_rhs(CHAOTIC, float(m), t, float(xj), float(vj), float(dj))
                for m, xj, vj, dj in zip(mu, x, v, vd)]
        assert all(isinstance(w, float) for w in want)
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tau"):
            ControllerConfig(mu=1.0, tau=0.0)
        for mu, tau in [(math.nan, 2.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="tau"):
                ControllerConfig(mu=mu, tau=tau)
        with pytest.raises(ValueError, match="history"):
            ControllerConfig(mu=1.0, tau=1.0, history_policy="mirror")


class TestRunControlled:
    def test_uncontrolled_chaos_is_not_periodic(self):
        cfg = ControllerConfig(mu=0.0, tau=TAU_REF)
        _, rep = run_controlled(CHAOTIC, cfg, State(0, 0, 0), 260.0)
        assert not rep.is_periodic
        assert rep.residual > 0.1

    def test_published_pair_suppresses_chaos_onto_forcing_period(self):
        """The published (mu, tau) tames the chaos, but onto an orbit locked
        to the forcing period, not to tau: an exactly tau-periodic response
        of a cos(omega t)-driven equation would need a tau-periodic
        right-hand side, and tau is incommensurate with 2 pi / omega.  The
        controller therefore keeps a finite residual output."""
        cfg = ControllerConfig(mu=MU_REF, tau=TAU_REF)
        traj, rep = run_controlled(CHAOTIC, cfg, State(0, 0, 0), 500.0)
        assert not rep.is_periodic            # against period tau
        assert rep.residual == pytest.approx(0.105, abs=0.02)
        assert rep.controller_norm == pytest.approx(0.143, abs=0.02)
        # forcing-period residual on the same final window is tiny
        t1 = traj.t[-1]
        ts = np.linspace(t1 - 5 * cfg.tau, t1 - T_FORCING, 300)
        res_T = max(abs(traj.eval(t + T_FORCING)[0] - traj.eval(t)[0]) for t in ts)
        assert res_T < 1e-2

    def test_delay_at_forcing_period_vanishing_control(self):
        cfg = ControllerConfig(mu=MU_REF, tau=T_FORCING)
        _, rep = run_controlled(CHAOTIC, cfg, State(0, 0, 0), 500.0)
        assert rep.is_periodic
        assert rep.controller_norm < 1e-3
        assert rep.residual < 1e-4

    def test_quiet_system_trivially_periodic(self):
        p = OscillatorParams(1, 1, 1, delta=0.3, gamma=0.0, omega=1.4, epsilon=1.0)
        cfg = ControllerConfig(mu=0.2, tau=2.0)
        x_e = math.sqrt((math.sqrt(5) - 1) / 2)
        traj, rep = run_controlled(p, cfg, State(0.0, x_e + 0.1, 0.0), 200.0)
        assert rep.is_periodic
        assert rep.residual < 1e-6
        assert abs(traj.x[-1] - x_e) < 1e-6

    def test_stable_orbit_left_unchanged_when_delay_matches_period(self):
        # settle the uncontrolled flow onto its forcing-periodic orbit, then
        # switch the controller on with tau = period and the orbit's own
        # history: the feedback stays silent and the orbit continues
        from cqduffing.odeint import integrate, integrate_delayed

        p = OscillatorParams(1, 1, 0, delta=0.1, gamma=0.20, omega=1.4, epsilon=1.0)
        ctrl = StepControl(dt=T_FORCING / 200, method="rk4")
        f_plain = lambda t, x, v: acceleration(p, t, x, v)
        settle = integrate(f_plain, State(0, 0, 0), 400.0, ctrl)
        s_on = State(float(settle.t[-1]), float(settle.x[-1]), float(settle.v[-1]))
        free = integrate(f_plain, s_on, s_on.t + 30.0, ctrl)
        mu = 1.5
        f_ctl = lambda t, x, v, vd: acceleration(p, t, x, v) + mu * (vd - v)
        fed = integrate_delayed(f_ctl, s_on, lambda t: settle.eval(t)[1], T_FORCING,
                                s_on.t + 30.0, ctrl)
        for t in np.linspace(s_on.t + 1.0, s_on.t + 29.0, 57):
            assert fed.eval(t)[0] == pytest.approx(free.eval(t)[0], abs=1e-6)

    def test_report_reads_the_history_at_the_start_time(self):
        # one report sample reads the delay at exactly t0 = 0, where
        # integrate_delayed takes the history (zero), not the start velocity
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4)
        cfg = ControllerConfig(mu=0.5, tau=2.380952380952381)
        traj, rep = run_controlled(p, cfg, State(0, 0, 0.8), 2.5)
        ts = np.linspace(0.0, 2.5, 400)
        td = ts - cfg.tau
        assert traj.t[-1] == 2.5 and np.count_nonzero(td == 0.0) == 1
        vd = [traj.eval(float(t))[1] if t > 0.0 else 0.0 for t in td]
        assert rep.controller_norm == float(np.abs(np.array(vd) - traj.eval(ts)[1]).max())
        assert rep.controller_norm == pytest.approx(1.3541344055099256, rel=1e-12)

    def test_vanishing_control_power_on_periodic_orbit(self):
        cfg = ControllerConfig(mu=MU_REF, tau=T_FORCING)
        traj, rep = run_controlled(CHAOTIC, cfg, State(0, 0, 0), 500.0)
        assert rep.is_periodic
        t1 = traj.t[-1]
        ts = np.linspace(t1 - cfg.tau, t1, 500)
        vals = [cfg.mu * (traj.eval(t - cfg.tau)[1] - traj.eval(t)[1]) for t in ts]
        integral = float(np.trapezoid(vals, ts))
        assert abs(integral) < 10 * rep.residual + 1e-12


class TestSearch:
    def test_published_cell_leads_containing_grid(self):
        cells = search_mu_tau(CHAOTIC, (0.75311, 2.25311), (1.73093, 5.73093), (4, 5))
        best = cells[0]
        assert best[0] == pytest.approx(MU_REF, abs=1e-9)
        assert best[1] == pytest.approx(TAU_REF, abs=1e-9)
        # lowest decile of 20 cells = rank 1
        assert len(cells) == 20

    def test_zero_gain_never_periodic_on_chaotic_params(self):
        cells = search_mu_tau(CHAOTIC, (0.0, 0.0), (2.0, 5.0), (1, 4))
        assert all(not periodic for *_, periodic in cells)

    def test_quiet_system_passes_everywhere(self):
        p = OscillatorParams(1, 1, 1, delta=0.4, gamma=0.0, omega=1.4, epsilon=1.0)
        cells = search_mu_tau(p, (0.1, 0.5), (1.0, 3.0), (2, 3),
                              s0=State(0.0, 0.6, 0.0))
        assert all(periodic for *_, periodic in cells)

    def test_order_invariance(self):
        grid = ((0.5, 2.5), (2.0, 5.0), (2, 2))
        forward = search_mu_tau(CHAOTIC, *grid)
        reordered = search_mu_tau(CHAOTIC, *grid,
                                  map_fn=lambda f, jobs: reversed([f(j) for j in jobs]))
        assert forward == reordered


def reversed_map(f, jobs):
    return reversed([f(j) for j in jobs])


def cells_bits(cells):
    return [(mu.hex(), tau.hex(), norm.hex(), periodic) for mu, tau, norm, periodic in cells]


class TestLockstepSearch:
    # Cells start at s0.t, a few time units before the earliest settle
    # time from t = 0, and settle until that time from t = 0 (the settle
    # time is patched in both paths), so that each example is short; the
    # delays are
    #   "chaos":  around the published 3.73 (dt = T/200 is shared),
    #   "period": exactly T (forced; delayed reads land on knots),
    #   "short":  below T/200 (forced; dt = tau, and RK4's last read of a
    #             step lands on the newest knot or within rounding of it).
    # Unforced cells (omega = 0) take T = tau, so each delay has its own dt
    # and the delays are "chaos" ones.
    # Blocks of any size run in lockstep, and a budget of 1 byte puts every
    # lane in its own block.
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(forced=st.booleans(), delays=st.sampled_from(["chaos", "period", "short"]),
           n_mu=st.integers(1, 3), n_tau=st.integers(1, 3), mu_lo=st.floats(0.0, 3.0),
           spread=st.floats(0.0, 0.05), before=st.floats(0.5, 8.0), x0=st.floats(-1.0, 1.0),
           v0=st.floats(-1.0, 1.0), a=st.one_of(st.just(1.0), st.floats(-1.0, 1.5)),
           b=st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
           delta=st.one_of(st.just(0.1), st.floats(0.0, 0.3)),
           epsilon=st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
           budget=st.sampled_from([1, 120_000, 32 << 20]))
    @example(forced=True, delays="short", n_mu=2, n_tau=2, mu_lo=1.0, spread=0.05,
             before=5.0, x0=0.2, v0=0.1, a=1.0, b=1.0, delta=0.1, epsilon=1.0,
             budget=32 << 20)
    @example(forced=True, delays="chaos", n_mu=1, n_tau=2, mu_lo=1.0, spread=0.05,
             before=0.01, x0=0.5, v0=0.0, a=1.0, b=1.0, delta=0.1, epsilon=1.0,
             budget=32 << 20)  # tau = 3.73093: no full step
    @example(forced=True, delays="period", n_mu=2, n_tau=1, mu_lo=2.25311, spread=0.0,
             before=8.0, x0=0.0, v0=-0.3, a=1.0, b=1.0, delta=0.1, epsilon=1.0, budget=1)
    @example(forced=False, delays="chaos", n_mu=2, n_tau=3, mu_lo=0.5, spread=0.05,
             before=8.0, x0=0.3, v0=0.2, a=1.0, b=1.0, delta=0.1, epsilon=1.0, budget=120_000)
    @example(forced=True, delays="chaos", n_mu=3, n_tau=3, mu_lo=0.5, spread=0.05,
             before=T_FORCING / 2, x0=0.0, v0=0.0, a=1.0, b=1.0, delta=0.1, epsilon=1.0,
             budget=1)  # tau = 3.73093: no short step,
    # and the report windows reach back before s0.t
    @example(forced=True, delays="chaos", n_mu=2, n_tau=3, mu_lo=1.0, spread=1e-4,
             before=5.0, x0=0.1, v0=0.0, a=1.0, b=1.0, delta=0.1, epsilon=1.0,
             budget=32 << 20)  # three end times after the same
    # 222 full steps: three short final steps in one block
    def test_equals_search_cell_per_cell_bitwise(self, forced, delays, n_mu, n_tau, mu_lo,
                                                  spread, before, x0, v0, a, b, delta, epsilon,
                                                  budget):
        p = OscillatorParams(a, b, 0.2, delta=delta, gamma=0.35 if forced else 0.0,
                             omega=1.4 if forced else 0.0, epsilon=epsilon)
        if not forced:  # T = tau: every delay is a period and above T/200
            delays = "chaos"
        tau_lo = {"chaos": 3.73093, "period": T_FORCING, "short": 0.012}[delays]
        tau_hi = tau_lo * (1.0 + spread) if delays != "period" else tau_lo
        settle = pyragas._settle_time
        s0 = State(settle(p, tau_lo, 0.0) - before, x0, v0)
        mus, taus = np.linspace(mu_lo, mu_lo + 1.5, n_mu), np.linspace(tau_lo, tau_hi, n_tau)
        with mock.patch.object(pyragas, "_settle_time", lambda p, tau, t0: settle(p, tau, 0.0)):
            ref = sorted((search_cell((p, float(mu), float(tau), s0, 1e-2))
                          for mu in mus for tau in taus), key=lambda c: (c[2], c[0], c[1]))
            with mock.patch.object(pyragas, "_RING_BUDGET", budget), \
                    mock.patch.object(pyragas, "_LOCKSTEP_MIN", 1):
                got = search_mu_tau(p, (mu_lo, mu_lo + 1.5), (tau_lo, tau_hi), (n_mu, n_tau), s0,
                                    map_fn=reversed_map)
        assert cells_bits(got) == cells_bits(ref)

    def test_settle_time_counts_from_the_start(self):
        # a start after the settle time from t = 0 (about 234) still settles
        # for 50 forcing periods and 5 delays
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4)
        s0 = State(300.0, 0, 0)
        assert pyragas._settle_time(p, 2.0, 300.0) - 300.0 == pytest.approx(
            pyragas._settle_time(p, 2.0, 0.0), rel=1e-15)
        ref = sorted((search_cell((p, mu, tau, s0, 1e-2)) for mu in (1.0, 2.0)
                      for tau in (2.0, 3.0)), key=lambda c: (c[2], c[0], c[1]))
        assert cells_bits(search_mu_tau(p, (1, 2), (2, 3), (2, 2), s0)) == cells_bits(ref)
        with mock.patch.object(pyragas, "_LOCKSTEP_MIN", 1):  # the lanes too
            assert cells_bits(search_mu_tau(p, (1, 2), (2, 3), (2, 2), s0)) == cells_bits(ref)

    def test_max_steps_raises_before_any_lane_runs(self, monkeypatch):
        # tau = 5000 settles at t = 125 000, 5.6 million steps of T/200
        with pytest.raises(IntegrationError) as want:
            search_cell((CHAOTIC, 1.0, 5000.0, State(0, 0, 0), 1e-2))
        monkeypatch.setattr(pyragas, "_run_lanes", None)
        with pytest.raises(IntegrationError) as got:
            search_mu_tau(CHAOTIC, (1.0, 2.0), (2.0, 5000.0), (2, 2))
        assert str(got.value) == str(want.value) and got.value.t == want.value.t

    @pytest.mark.parametrize("lockstep_min, grid", [(1, (2, 2)), (pyragas._LOCKSTEP_MIN, (3, 3))],
                             ids=["min1-2x2", "3x3"])
    def test_knot_times_that_do_not_advance_raise(self, lockstep_min, grid):
        # at t = 1e17 a step of T/200 rounds away (t + dt == t): one cell
        # raises from HistoryBuffer.append, and the lanes (search_cell is
        # patched out) from their per-chunk check of the knot times
        s0 = State(1e17, 0, 0)
        with pytest.raises(ValueError) as want:
            search_cell((CHAOTIC, 1.0, 2.0, s0, 1e-2))
        assert str(want.value) == "history knots must advance in time"
        with mock.patch.object(pyragas, "_LOCKSTEP_MIN", lockstep_min), \
                mock.patch.object(pyragas, "search_cell", None), \
                pytest.raises(ValueError) as got:
            search_mu_tau(CHAOTIC, (1.0, 2.0), (2.0, 3.0), grid, s0)
        assert str(got.value) == str(want.value)

    def test_overflowing_delayed_read_names_the_time_and_cell(self):
        # a rest at 0, unforced, so dt = tau / 200 near 5e297: the first read
        # past the start interpolates knots whose h * h overflows; six
        # blocks of six lanes run (search_cell is patched out)
        p = OscillatorParams(1, 1, 0, delta=0.1)
        with mock.patch.object(pyragas, "search_cell", None), pytest.raises(ValueError) as got:
            search_mu_tau(p, (0.0, 1.0), (1e300, 2e300), (6, 6))
        mu, tau = re.search(r" in the cell mu=(\S+), tau=(\S+)$", str(got.value)).groups()
        with pytest.raises(ValueError, match=r"^non-finite delayed read at t=\S+$") as want:
            search_cell((p, float(mu), float(tau), State(0, 0, 0), 1e-2))
        assert str(got.value) == f"{want.value} in the cell mu={mu}, tau={tau}"

    def test_diverging_cell_raises(self):
        # a softening quintic well: the start x0 = 2 escapes and overflows
        p = OscillatorParams(1, 0, -1, delta=0.1, gamma=0.35, omega=1.4, epsilon=1.0)
        with pytest.raises(IntegrationError, match="non-finite state"):
            search_cell((p, 1.0, 2.0, State(0, 2, 0), 1e-2))
        with pytest.raises(IntegrationError,
                           match=r"non-finite state .* at t=\S+ in the cell mu=\S+, tau=\S+"):
            search_mu_tau(p, (1.0, 2.0), (2.0, 3.0), (3, 3), State(0, 2, 0))


class TestChebyshevFitOrbit:
    @staticmethod
    def _traj_from(fn, dfn, ddfn, t0, t1, n=800):
        ts = np.linspace(t0, t1, n)
        return Trajectory(ts, fn(ts), dfn(ts), ddfn(ts))

    def test_constant_orbit(self):
        tr = self._traj_from(lambda t: np.full_like(t, 0.7), lambda t: np.zeros_like(t),
                             lambda t: np.zeros_like(t), 0.0, 2.0)
        coeffs, resid = chebyshev_fit_orbit(tr, (0.0, 2.0), 1)
        assert resid < 1e-12
        assert coeffs[0] == pytest.approx(0.7, abs=1e-12)
        assert abs(coeffs[1]) < 1e-12

    def test_sine_window(self):
        tr = self._traj_from(np.sin, np.cos, lambda t: -np.sin(t), 0.0, math.pi)
        coeffs, resid = chebyshev_fit_orbit(tr, (0.0, math.pi), 5)
        assert resid < 1e-3
        dense = np.linspace(0, math.pi, 200)
        fitted = sum(c * dense**i for i, c in enumerate(coeffs))
        assert np.abs(fitted - np.sin(dense)).max() < 1e-3

    def test_degenerate_window_rejected(self):
        tr = self._traj_from(np.sin, np.cos, lambda t: -np.sin(t), 0.0, math.pi)
        with pytest.raises(ValueError, match="window"):
            chebyshev_fit_orbit(tr, (1.0, 0.5), 3)

    def test_stabilized_window_fit_reported(self, capsys):
        cfg = ControllerConfig(mu=MU_REF, tau=TAU_REF)
        traj, _ = run_controlled(CHAOTIC, cfg, State(0, 0, 0), 320.0)
        w1 = traj.t[-1]
        coeffs, resid = chebyshev_fit_orbit(traj, (w1 - TAU_REF, w1), 5)
        assert resid < 0.05
        # shape comparison against the published window polynomial (whose
        # window starts at its own phase); reported, not asserted
        ts = np.linspace(0, TAU_REF, 100)
        ref = sum(c * ts**i for i, c in enumerate(REF_POLY))
        fit = sum(c * ts**i for i, c in enumerate(coeffs))
        print(f"stabilized-orbit fit vs published shape: span_fit="
              f"[{fit.min():.3f},{fit.max():.3f}] span_ref=[{ref.min():.3f},{ref.max():.3f}]")

    def test_late_window_fit_holds_at_high_degree(self):
        # powers of t - w0 stay well conditioned where powers of t ~ 320 do not
        cfg = ControllerConfig(mu=MU_REF, tau=TAU_REF)
        traj, _ = run_controlled(CHAOTIC, cfg, State(0, 0, 0), 320.0)
        w1 = traj.t[-1]
        _, resid = chebyshev_fit_orbit(traj, (w1 - TAU_REF, w1), 10)
        assert resid < 1e-4

    def test_fit_takes_the_bound_degree(self):
        coeffs, resid = chebyshev_fit_orbit(_line_trajectory(), (0.0, 2.0), 30)
        assert len(coeffs) == 31 and resid < 1e-9


def _line_trajectory():
    # x = t on [0, 2]: constant velocity, no acceleration
    t = np.array([0.0, 1.0, 2.0])
    return Trajectory(t, t.copy(), np.ones(3), np.zeros(3))


def _run_with_tolerance(tol):
    return run_controlled(CHAOTIC, ControllerConfig(1.0, 2.0), State(0, 0, 0), 10.0, periodicity_tol=tol)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: search_mu_tau(CHAOTIC, (0.5, 3.0), (2.0, 6.0), (0, 3)),
                 "at least one cell per axis", id="search-no-mu"),
    pytest.param(lambda: search_mu_tau(CHAOTIC, (0.5, 3.0), (2.0, 6.0), (3, 0)),
                 "at least one cell per axis", id="search-no-tau"),
    pytest.param(lambda: search_mu_tau(CHAOTIC, (1.0, 2.0), (math.nan, 3.0), (2, 2)),
                 "ranges need finite ends and widths", id="search-nan-tau"),
    pytest.param(lambda: search_mu_tau(CHAOTIC, (1.0, 2.0), (2.0, math.inf), (2, 2)),
                 "ranges need finite ends and widths", id="search-inf-tau"),
    pytest.param(lambda: search_mu_tau(CHAOTIC, (math.nan, 2.0), (2.0, 3.0), (2, 2)),
                 "ranges need finite ends and widths", id="search-nan-mu"),
    pytest.param(lambda: search_mu_tau(CHAOTIC, (-1.7e308, 1.7e308), (2.0, 3.0), (2, 2)),
                 "ranges need finite ends and widths", id="search-overflowing-mu-width"),
    pytest.param(lambda: chebyshev_fit_orbit(_line_trajectory(), (0.0, 2.0), 0),
                 "degree must be >= 1", id="fit-degree"),
    pytest.param(lambda: chebyshev_fit_orbit(_line_trajectory(), (0.0, 2.0), 2.5),
                 "degree must be >= 1 and an integer, got 2.5", id="fit-degree-fraction"),
    pytest.param(lambda: chebyshev_fit_orbit(_line_trajectory(), (0.0, 2.0), 31),
                 "degree must be at most 30, got 31", id="fit-degree-above-bound"),
    # 4e12 nodes would raise MemoryError: the bound refuses before any array
    pytest.param(lambda: chebyshev_fit_orbit(_line_trajectory(), (0.0, 2.0), 10**12),
                 "degree must be at most 30, got 1000000000000$", id="fit-degree-huge"),
    pytest.param(lambda: search_mu_tau(CHAOTIC, (1.0, 2.0), (2.0, 3.0), (2.5, 2)),
                 r"at least one cell per axis, as integers, got \(2\.5, 2\)",
                 id="search-mu-fraction"),
    pytest.param(lambda: search_mu_tau(CHAOTIC, (1.0, 2.0), (2.0, 3.0), (math.nan, 2)),
                 "at least one cell per axis, as integers", id="search-mu-nan"),
    pytest.param(lambda: run_controlled(CHAOTIC, ControllerConfig(1.0, 2.0), State(0, 0, 0),
                                        math.nan),
                 "t_end=nan must be finite and exceed the initial time 0", id="run-horizon-nan"),
    pytest.param(lambda: _run_with_tolerance(math.nan),
                 "periodicity_tol=nan must be positive and finite", id="run-tolerance-nan"),
    pytest.param(lambda: _run_with_tolerance(0.0),
                 r"periodicity_tol=0\.0 must be positive and finite", id="run-tolerance-zero"),
    pytest.param(lambda: _run_with_tolerance(-1.0),
                 r"periodicity_tol=-1\.0 must be positive and finite", id="run-tolerance-negative"),
    pytest.param(lambda: _run_with_tolerance(math.inf),
                 "periodicity_tol=inf must be positive and finite", id="run-tolerance-inf"),
    pytest.param(lambda: search_cell((CHAOTIC, 1.0, 2.0, State(0, 0, 0), math.nan)),
                 "periodicity_tol=nan must be positive and finite", id="cell-tolerance-nan"),
])
def test_invalid_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()
