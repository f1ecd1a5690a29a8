import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqduffing import (IntegrationError, OscillatorParams, State, StepControl, chaos, integrate,
                       integrate_delayed, odeint)
from cqduffing.chaos import bifurcation_data, gamma_scan, lyapunov_max, poincare_map
from cqduffing.core import acceleration, energy
from cqduffing.kbm import kbm_solve
from cqduffing.odeint import (HistoryBuffer, _check_finite, _check_lanes, _drive, _forcing_rows,
                              _rk4_core_lanes, _rk4_step)
from cqduffing.pyragas import controlled_rhs, search_mu_tau

T14 = 2 * math.pi / 1.4
SWEEP_PARAMS = OscillatorParams(1, 1, 0, delta=0.1, gamma=0.3, omega=1.4)


def harmonic(t, x, v):
    return -x


class TestAdaptive:
    def test_harmonic_round_trip(self):
        tr = integrate(harmonic, State(0, 1, 0), 2 * math.pi,
                       StepControl(abs_tol=1e-10, rel_tol=1e-10))
        assert abs(tr.x[-1] - 1.0) < 1e-8 and abs(tr.v[-1]) < 1e-8

    def test_energy_drift(self):
        p = OscillatorParams(1, 1, 1, epsilon=0)
        tr = integrate(lambda t, x, v: acceleration(p, t, x, v), State(0, 0.5, 0),
                       100.0, StepControl(abs_tol=1e-10, rel_tol=1e-10))
        E = energy(p, tr.x, tr.v)
        assert np.abs(E - E[0]).max() < 1e-8

    def test_dense_output_matches_direct_landing(self):
        ctrl = StepControl(abs_tol=1e-9, rel_tol=1e-9)
        long = integrate(harmonic, State(0, 1, 0), 3.0, ctrl)
        for tq in (0.7137, 1.9533, 2.718):
            short = integrate(harmonic, State(0, 1, 0), tq, ctrl)
            xd, vd = long.eval(tq)
            assert abs(xd - short.x[-1]) < 1e-8
            assert abs(vd - short.v[-1]) < 1e-8

    def test_eval_outside_span_raises(self):
        tr = integrate(harmonic, State(0, 1, 0), 1.0, StepControl())
        with pytest.raises(ValueError, match="outside"):
            tr.eval(2.0)

    def test_max_steps_names_time(self, monkeypatch):
        monkeypatch.setattr(odeint, "_MAX_STEPS", 10)
        with pytest.raises(IntegrationError, match="max_steps"):
            integrate(harmonic, State(0, 1, 0), 100.0, StepControl())

    def test_blowup_names_time(self):
        with pytest.raises(IntegrationError) as err:
            integrate(lambda t, x, v: x**3, State(0, 2.0, 1.0), 10.0,
                      StepControl(abs_tol=1e-6, rel_tol=1e-6))
        assert math.isfinite(err.value.t) or err.value.t > 0

    def test_requires_forward_time(self):
        with pytest.raises(ValueError, match="exceed"):
            integrate(harmonic, State(1.0, 1, 0), 0.5, StepControl())


class TestStepBudget:
    def test_step_control_has_no_per_call_budget(self):
        with pytest.raises(TypeError):
            StepControl(max_steps=1)

    def test_a_step_count_that_overflows_is_over_the_budget(self):
        # 2e308 / dt is inf, which int() cannot take: the budget check comes first
        with pytest.raises(IntegrationError, match="max_steps=5000000 exceeded") as err:
            integrate(harmonic, State(-1e308, 1, 0), 1e308, StepControl(dt=1.0, method="rk4"))
        assert err.value.t == -1e308

    @pytest.mark.parametrize("run", [
        pytest.param(lambda: integrate(harmonic, State(0, 1, 0), 100.0,
                                       StepControl(dt=0.1, method="rk4")), id="rk4"),
        pytest.param(lambda: integrate(harmonic, State(0, 1, 0), 100.0), id="dp54"),
        pytest.param(lambda: integrate_delayed(lambda t, x, v, vd: -x + 0.1 * vd, State(0, 1, 0),
                                               lambda t: 0.0, 0.5, 100.0), id="delayed"),
        pytest.param(lambda: poincare_map(SWEEP_PARAMS, State(0, 0, 0), 2, 1), id="section"),
        pytest.param(lambda: bifurcation_data(SWEEP_PARAMS, np.linspace(0.2, 0.35, 20), 2, 1),
                     id="sweep-lanes"),
        pytest.param(lambda: search_mu_tau(SWEEP_PARAMS, (1.0, 2.0), (2.0, 3.0), (2, 2)),
                     id="search"),
        pytest.param(lambda: kbm_solve(OscillatorParams(-1, 2, 1, delta=0.025, gamma=0.01,
                                                        omega=0.1), 0.25, 0.0, 30.0), id="kbm"),
        pytest.param(lambda: lyapunov_max(SWEEP_PARAMS, State(0, 0, 0), 3 * T14, T14,
                                          t_transient=0.0), id="lyapunov"),
        pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.0, 0.3), 0.01), id="scan-lanes"),
    ])
    def test_one_constant_bounds_every_run(self, monkeypatch, run):
        monkeypatch.setattr(odeint, "_MAX_STEPS", 10)
        with pytest.raises(IntegrationError, match="max_steps=10 exceeded"):
            run()


class TestRk4:
    def test_convergence_order(self):
        dts = [0.1, 0.05, 0.025, 0.0125]
        errs = []
        for dt in dts:
            tr = integrate(harmonic, State(0, 1, 0), 2 * math.pi,
                           StepControl(dt=dt, method="rk4"))
            errs.append(math.hypot(tr.x[-1] - 1.0, tr.v[-1]))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
        assert np.all(np.abs(slopes - 4.0) < 0.2), slopes

    def test_partial_final_step_lands_exactly(self):
        tr = integrate(harmonic, State(0, 1, 0), 1.05, StepControl(dt=0.1, method="rk4"))
        assert tr.t[-1] == pytest.approx(1.05, abs=1e-14)

    def test_fixed_step_requires_dt(self):
        with pytest.raises(ValueError, match="rk4"):
            StepControl(method="rk4")


class TestFiniteCheck:
    def test_float_state(self):
        _check_finite(1.5, 1.0, -2.0)
        with pytest.raises(IntegrationError, match=r"state \(x=inf, v=0.0\) at t=1.5") as err:
            _check_finite(1.5, math.inf, 0.0)
        assert err.value.t == 1.5

    def test_lane_state_names_first_bad_index(self):
        # the lanes' (2, N) states, x above v: by index, or by the search cell
        _check_lanes(2.0, np.array([np.zeros(3), np.ones(3)]))
        with pytest.raises(IntegrationError, match=r"at index 2 \(x=nan, v=0.0\) at t=2.0") as err:
            _check_lanes(2.0, np.array([[0.0, 1.0, np.nan, 3.0], [0.0, 0.0, 0.0, np.inf]]))
        assert err.value.t == 2.0
        with pytest.raises(IntegrationError, match=r"^non-finite state \(x=3.0, v=inf\) at t=2.5 "
                                                   r"in the cell mu=1.5, tau=4.0$") as err:
            _check_lanes(2.5, np.array([[0.0, 3.0], [0.0, np.inf]]),
                         lambda j: f"mu={[1.0, 1.5][j]}, tau=4.0")
        assert err.value.t == 2.5


# Starts in a softening cubic well whose x x overflows: at c = 0 the c term,
# 0 * inf = NaN where x x is inf, made every such force NaN, and the step
# takes no c term.  Lane 0 overflows x x in its last stage only, so its new
# velocity is inf where it was NaN; lane 2 overflows from the start.
OVERFLOW_LANES = [(0.3, 6.846063698953922e28, 1.410761288677002e64), (0.35, 0.5, -0.5),
                  (0.4, -1e200, 0.0)]


def overflow_row(c, eps, feedback):
    """An explicit example of TestCoreLanes's bitwise test: one step of
    OVERFLOW_LANES."""
    return example(coeffs=(-1.0, -1.0, c, 0.1, eps), omega=1.4, lanes=OVERFLOW_LANES,
                   feedback=feedback, t=0.0, dt=0.02244, n_steps=1, short=0.0, data=None)


class TestCoreLanes:
    """_rk4_core_lanes steps every lane bitwise as _rk4_step steps its floats
    with core.acceleration, or with pyragas.controlled_rhs when the lanes
    carry gains mu and delayed velocities: full steps of dt, then perhaps a
    short final step, from starts that may overflow."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(coeffs=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0),
                            st.floats(0.0, 0.5), st.floats(0.0, 2.0)),
           omega=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
           lanes=st.lists(st.tuples(st.floats(0.0, 0.6),
                                    st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e60, -1e200])),
                                    st.floats(-2.0, 2.0)), min_size=1, max_size=6),
           feedback=st.booleans(), t=st.floats(-10.0, 10.0), dt=st.floats(1e-3, 0.2),
           n_steps=st.integers(1, 4), short=st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
           data=st.data())
    @example(coeffs=(1.0, 1.0, 0.2, 0.1, 1.0), omega=1.4,
             lanes=[(0.3, 0.0, 0.0), (0.35, 1e60, 0.0), (0.4, 0.5, -0.5)], feedback=True, t=0.0,
             dt=0.02244, n_steps=3, short=0.5, data=None)  # one lane overflows
    @example(coeffs=(-1.0, -2.5, 1.0, 0.0, 0.5), omega=0.0, lanes=[(0.0, 0.7, 0.1)],
             feedback=False, t=3.0, dt=0.1, n_steps=2, short=0.0, data=None)  # unforced kink
    @overflow_row(0.0, 1.0, False)  # the cubic case: no c term, and at eps = 1 no eps product
    @overflow_row(0.0, 1.0, True)
    @overflow_row(0.0, 0.5, False)
    @overflow_row(0.0, 0.5, True)
    @overflow_row(-0.0, 1.0, False)
    @overflow_row(-0.0, 1.0, True)
    @overflow_row(-0.0, 0.5, False)
    @overflow_row(-0.0, 0.5, True)
    def test_each_lane_equals_the_float_step_bitwise(self, coeffs, omega, lanes, feedback, t, dt,
                                                     n_steps, short, data):
        a, b, c, delta, eps = coeffs
        gammas, xs, vs = map(list, zip(*lanes))
        n = len(lanes)
        hs = [dt] * n_steps + ([short * dt] if short else [])
        rng = np.random.default_rng(n_steps)  # the explicit examples' gains and delays
        if not feedback:
            mu, vds = None, [None] * len(hs)
        elif data is None:
            mu, vds = rng.uniform(0.0, 3.0, n), list(rng.uniform(-2.0, 2.0, (len(hs), 2, n)))
        else:
            floats = st.lists(st.floats(-2.0, 3.0), min_size=n, max_size=n)
            mu = np.array(data.draw(floats))
            vds = [np.array([data.draw(floats), data.draw(floats)]) for _ in hs]
        floats_p = [SimpleNamespace(a=a, b=b, c=c, delta=delta, epsilon=eps, gamma=g, omega=omega)
                    for g in gammas]
        acc0 = [acceleration(q, t, x, v) for q, x, v in zip(floats_p, xs, vs)]
        p = SimpleNamespace(a=a, b=b, c=c, delta=delta, epsilon=eps, gamma=np.array(gammas),
                            omega=omega)
        with np.errstate(over="ignore", invalid="ignore"):
            knot, step = _rk4_core_lanes(p, np.array([xs, vs, acc0]), dt, mu)
            g_half, g_end = _forcing_rows(p, n, [t + i * dt for i in range(n_steps)], dt)
            for i in range(n_steps):
                step(g_half[i], g_end[i], vds[i])
            if short:
                knot, step = _rk4_core_lanes(p, knot, hs[-1], mu)
                (g_half,), (g_end,) = _forcing_rows(p, n, [t + n_steps * dt], hs[-1])
                step(g_half, g_end, vds[-1])
        for j, q in enumerate(floats_p):
            x, v, acc = xs[j], vs[j], acc0[j]
            for i, h in enumerate(hs):
                t_i = t + i * dt
                if feedback:  # the delayed velocity by time, as the search reads it
                    vd = {t_i + 0.5 * h: float(vds[i][0, j]), t_i + h: float(vds[i][1, j])}
                    m = float(mu[j])
                    x, v, acc = _rk4_step(lambda s, x, v: controlled_rhs(q, m, s, x, v, vd[s]),
                                          t_i, x, v, h, acc)
                else:
                    x, v, acc = _rk4_step(lambda s, x, v: acceleration(q, s, x, v),
                                          t_i, x, v, h, acc)
            assert [float(z).hex() for z in knot[:, j]] == [z.hex() for z in (x, v, acc)]


def counting_numpy(monkeypatch) -> Counter:
    """Swap every function and ufunc of the numpy namespace for a wrapper
    that counts its calls by name, and return the counts."""
    calls: Counter = Counter()

    class Counting:
        def __init__(self, name, fn):
            self.name, self.fn = name, fn

        def __call__(self, *args, **kwargs):
            calls[self.name] += 1
            return self.fn(*args, **kwargs)

        def __getattr__(self, attr):  # np.multiply.outer and the like
            return getattr(self.fn, attr)

    for name, obj in list(vars(np).items()):
        if callable(obj) and not isinstance(obj, type) and not name.startswith("_"):
            monkeypatch.setattr(np, name, Counting(name, obj))
    return calls


def core_lanes_step(c, eps, feedback):
    """One step of _rk4_core_lanes on three lanes at (c, eps), with or without
    the feedback."""
    p = SimpleNamespace(a=1.0, b=1.0, c=c, delta=0.1, epsilon=eps, omega=1.4)
    g, vd = np.full(3, 0.3), (np.zeros((2, 3)) if feedback else None)
    _, step = _rk4_core_lanes(p, np.full((3, 3), 0.5), 0.01, np.ones(3) if feedback else None)
    return lambda: step(g, g, vd)


def benettin_lanes_step(c, monkeypatch):
    """One step of the chaos._rk4_lanes kernel that a two-lane scan pass at c
    builds."""
    built, kernel = [], chaos._rk4_lanes
    monkeypatch.setattr(chaos, "_rk4_lanes", lambda *args: built.append(kernel(*args)) or built[0])
    p = OscillatorParams(1.0, 1.0, c, delta=0.1, omega=1.4)
    chaos._lyapunov_lanes([(p, 0.3), (p, 0.35)], State(0.0, 0.1, 0.0), steps_per_period=2,
                          transient_periods=0, measure_periods=2)
    (_, step), = built
    f = np.full(4, 0.3)
    return lambda: step(f, f, f)


# (kernel, c, eps, feedback, ufunc calls per step): the core-law step makes
# 60 calls, 16 fewer where c is 0 (no c term), 4 fewer where epsilon is 1
# (no product by epsilon) and 12 more with the feedback; the Benettin step
# 40, 36 where c is 0 (x ** 3 alone, against b alone).
LANE_STEP_CALLS = [("core", c, eps, feedback, 60 - 16 * (c == 0.0) - 4 * (eps == 1.0) + 12 * feedback)
                   for c in (0.0, -0.0, 0.2) for eps in (1.0, 0.5) for feedback in (False, True)]
LANE_STEP_CALLS += [("benettin", c, 1.0, False, 36 if c == 0.0 else 40) for c in (0.0, -0.0, 0.2)]


@pytest.mark.parametrize("kernel, c, eps, feedback, expected", LANE_STEP_CALLS)
def test_lane_step_call_counts(monkeypatch, kernel, c, eps, feedback, expected):
    """One lane step makes the ufunc calls its docstring states, and no other
    call into the numpy namespace, such as np.copyto."""
    calls = counting_numpy(monkeypatch)  # before the kernel binds its ufuncs
    with np.errstate(over="ignore", invalid="ignore"):
        step = (core_lanes_step(c, eps, feedback) if kernel == "core"
                else benettin_lanes_step(c, monkeypatch))
        calls.clear()
        step()
    assert set(calls) <= {"multiply", "add", "subtract", "float_power"}, calls
    assert sum(calls.values()) == expected, calls
    assert ("float_power" in calls) == (kernel == "benettin")


class TestDelayed:
    def test_zero_gain_matches_undelayed_bitwise(self):
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1)

        def f_plain(t, x, v):
            return acceleration(p, t, x, v)

        def f_delayed(t, x, v, vd):
            return acceleration(p, t, x, v) + 0.0 * (vd - v)

        ctrl = StepControl(dt=0.02, method="rk4")
        tr1 = integrate(f_plain, State(0, 0.1, 0.0), 8.0, ctrl)
        tr2 = integrate_delayed(f_delayed, State(0, 0.1, 0.0), lambda t: 0.0, 1.0, 8.0, ctrl)
        assert np.array_equal(tr1.x, tr2.x) and np.array_equal(tr1.v, tr2.v)

    def test_linear_dde_analytic_value(self):
        # v'(t) = -v(t-1), v = 1 on [-1, 0]; piecewise-polynomial steps give
        # v(t) = 1 - t on [0,1] and v(2) = -1/2 exactly.
        tr = integrate_delayed(lambda t, x, v, vd: -vd, State(0, 0.0, 1.0),
                               lambda t: 1.0, 1.0, 2.0,
                               StepControl(abs_tol=1e-10, rel_tol=1e-10))
        assert abs(tr.eval(1.0)[1] - 0.0) < 1e-6
        assert abs(tr.v[-1] + 0.5) < 1e-6

    def test_long_delay_consults_policy(self):
        calls = []

        def history(t):
            calls.append(t)
            return 0.0

        tr = integrate_delayed(lambda t, x, v, vd: -x + vd, State(0, 1.0, 0.0),
                               history, 50.0, 5.0, StepControl(dt=0.05, method="rk4"))
        assert calls and all(t <= 0.0 for t in calls)
        assert np.all(np.isfinite(tr.x))

    def test_chaotic_feedback_run_reaches_horizon(self):
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1)
        mu, tau = 2.25311, 3.73093

        def f(t, x, v, vd):
            return acceleration(p, t, x, v) + mu * (vd - v)

        ctrl = StepControl(dt=(2 * math.pi / 1.4) / 100, method="rk4")
        tr = integrate_delayed(f, State(0, 0, 0), lambda t: 0.0, tau, 500.0, ctrl)
        assert tr.t[-1] == pytest.approx(500.0, abs=1e-9)
        assert np.all(np.isfinite(tr.x))

    @staticmethod
    def unmemoised(rhs_with_delay, s0, history_v, tau, t_end, ctrl):
        """integrate_delayed before it kept its latest delayed read, verbatim."""
        buf = HistoryBuffer(history_v)
        t0 = s0.t

        def f(t, x, v):
            td = t - tau
            vd = buf.velocity(td) if td > t0 else float(history_v(td))
            return rhs_with_delay(t, x, v, vd)

        meta = {"integrator": f"{ctrl.method}+delay", "dense": "hermite5", "tau": tau}
        return buf.trajectory(_drive(f, s0, t_end, ctrl, buf.append, meta, dt_cap=tau))

    @pytest.mark.parametrize("ctrl", [StepControl(dt=(2 * math.pi / 1.4) / 200, method="rk4"),
                                      StepControl(abs_tol=1e-9, rel_tol=1e-9)])
    def test_one_read_per_delayed_time_bitwise(self, ctrl, monkeypatch):
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1)
        mu, tau = 2.25311, 3.73093

        def f(t, x, v, vd):
            return acceleration(p, t, x, v) + mu * (vd - v)

        reads = []
        velocity = HistoryBuffer.velocity
        monkeypatch.setattr(HistoryBuffer, "velocity",
                            lambda buf, t: reads.append(t) or velocity(buf, t))
        s0 = State(0.5, 0.1, -0.2)
        ref = self.unmemoised(f, s0, lambda t: 0.0, tau, 40.0, ctrl)
        ref_reads, reads[:] = reads[:], []
        tr = integrate_delayed(f, s0, lambda t: 0.0, tau, 40.0, ctrl)
        assert [a.tobytes() for a in (tr.t, tr.x, tr.v, tr.accel)] == \
            [a.tobytes() for a in (ref.t, ref.x, ref.v, ref.accel)]
        assert tr.metadata == ref.metadata
        if ctrl.method == "rk4":  # each time is read twice in a row without the memo
            assert ref_reads[::2] == ref_reads[1::2] == reads
            assert len(set(reads)) == len(reads) > 1000

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError, match="tau"):
            integrate_delayed(lambda t, x, v, vd: -x, State(0, 1, 0), lambda t: 0.0,
                              0.0, 1.0, StepControl())


class TestHistoryBuffer:
    def test_fallback_then_interpolation(self):
        buf = HistoryBuffer(lambda t: -7.0)
        assert buf.velocity(-3.0) == -7.0
        buf.append(0.0, 0.0, 1.0, 0.0)
        buf.append(1.0, 1.0, 1.0, 0.0)
        assert buf.velocity(0.5) == pytest.approx(1.0, abs=1e-12)
        assert buf.velocity(-0.1) == -7.0

    def test_rejects_rewinding(self):
        buf = HistoryBuffer(lambda t: 0.0)
        buf.append(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="advance"):
            buf.append(0.0, 1.0, 1.0, 0.0)

    def test_far_future_read_rejected(self):
        buf = HistoryBuffer(lambda t: 0.0)
        buf.append(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="beyond"):
            buf.velocity(1.0)


class TestMetadata:
    def test_integrate_rk4(self):
        tr = integrate(harmonic, State(0, 1, 0), 1.0, StepControl(dt=0.1, method="rk4"))
        assert tr.metadata == {"integrator": "rk4", "dense": "hermite5", "dt": 0.1}
        assert list(tr.metadata) == ["integrator", "dense", "dt"]

    def test_integrate_dp54(self):
        tr = integrate(harmonic, State(0, 1, 0), 1.0, StepControl(abs_tol=1e-8, rel_tol=1e-7))
        meta = tr.metadata
        assert list(meta) == ["integrator", "dense", "abs_tol", "rel_tol", "n_accepted", "n_rejected"]
        assert (meta["integrator"], meta["dense"], meta["abs_tol"], meta["rel_tol"]) == \
            ("dp54", "hermite5", 1e-8, 1e-7)
        assert meta["n_accepted"] == len(tr) - 1
        assert isinstance(meta["n_rejected"], int) and meta["n_rejected"] >= 0

    def test_delayed_rk4_caps_dt_at_tau(self):
        tr = integrate_delayed(lambda t, x, v, vd: -x + 0.1 * vd, State(0, 1, 0),
                               lambda t: 0.0, 0.05, 1.0, StepControl(dt=0.2, method="rk4"))
        assert tr.metadata == {"integrator": "rk4+delay", "dense": "hermite5",
                               "tau": 0.05, "dt": 0.05}
        assert list(tr.metadata) == ["integrator", "dense", "tau", "dt"]

    def test_delayed_dp54(self):
        tr = integrate_delayed(lambda t, x, v, vd: -x + 0.1 * vd, State(0, 1, 0),
                               lambda t: 0.0, 0.5, 3.0, StepControl(abs_tol=1e-9, rel_tol=1e-9))
        meta = tr.metadata
        assert list(meta) == ["integrator", "dense", "tau", "abs_tol", "rel_tol",
                              "n_accepted", "n_rejected"]
        assert (meta["integrator"], meta["dense"], meta["tau"], meta["abs_tol"], meta["rel_tol"]) == \
            ("dp54+delay", "hermite5", 0.5, 1e-9, 1e-9)
        assert meta["n_accepted"] == len(tr) - 1
        assert np.all(np.diff(tr.t) <= 0.5 + 1e-15)


class TestKnotRecorder:
    def test_records_without_history_function(self):
        buf = HistoryBuffer()
        buf.append(0.0, 1.0, 0.0, -1.0)
        buf.append(0.5, 0.9, -0.5, -0.9)
        tr = buf.trajectory({"k": 1})
        assert np.array_equal(tr.x, [1.0, 0.9]) and tr.metadata == {"k": 1}
        with pytest.raises(ValueError, match="history"):
            buf.velocity(-0.1)


def _two_knot_buffer():
    buf = HistoryBuffer(lambda t: 0.0)
    buf.append(0.0, 1.0, 0.0, -1.0)
    buf.append(0.5, 0.9, -0.5, -0.9)
    return buf


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: StepControl(method="euler"), "unknown method", id="method"),
    pytest.param(lambda: StepControl(dt=-0.1), "dt must be positive", id="dp54-dt"),
    pytest.param(lambda: StepControl(abs_tol=0.0), "tolerances must be positive", id="abs-tol"),
    pytest.param(lambda: StepControl(rel_tol=-1e-9), "tolerances must be positive", id="rel-tol"),
    pytest.param(lambda: StepControl(abs_tol=math.nan), "tolerances must be positive",
                 id="abs-tol-nan"),
    pytest.param(lambda: StepControl(rel_tol=math.nan), "tolerances must be positive",
                 id="rel-tol-nan"),
    pytest.param(lambda: StepControl(abs_tol=math.inf), "tolerances must be positive",
                 id="abs-tol-inf"),
    pytest.param(lambda: StepControl(rel_tol=math.inf), "tolerances must be positive",
                 id="rel-tol-inf"),
    pytest.param(lambda: StepControl(dt=math.nan, method="rk4"), "dt must be positive",
                 id="rk4-dt-nan"),
    pytest.param(lambda: StepControl(dt=math.inf, method="rk4"), "dt must be positive",
                 id="rk4-dt-inf"),
    pytest.param(lambda: StepControl(method="rk4"), "rk4 needs a positive fixed step dt",
                 id="rk4-no-dt"),
    pytest.param(lambda: StepControl(dt=math.nan), "dt must be positive", id="dp54-dt-nan"),
    pytest.param(lambda: integrate_delayed(lambda t, x, v, vd: -x, State(0, 1, 0), lambda t: 0.0,
                                           math.nan, 1.0), "delay tau must be positive", id="tau-nan"),
    pytest.param(lambda: integrate_delayed(lambda t, x, v, vd: -x, State(0, 1, 0), lambda t: 0.0,
                                           math.inf, 1.0), "delay tau must be positive", id="tau-inf"),
    pytest.param(lambda: integrate(lambda t, x, v: -x, State(0.0, math.nan, 0.0), 1.0),
                 "non-finite initial state", id="start-state"),
    pytest.param(lambda: integrate(harmonic, State(0, 1, 0), math.inf),
                 "t_end=inf must be finite and exceed the initial time 0", id="dp54-horizon-inf"),
    pytest.param(lambda: integrate(harmonic, State(0, 1, 0), math.nan),
                 "t_end=nan must be finite and exceed the initial time 0", id="dp54-horizon-nan"),
    pytest.param(lambda: integrate(harmonic, State(0, 1, 0), math.nan,
                                   StepControl(dt=0.1, method="rk4")),
                 "t_end=nan must be finite and exceed", id="rk4-horizon-nan"),
    pytest.param(lambda: integrate(harmonic, State(0, 1, 0), math.inf,
                                   StepControl(dt=0.1, method="rk4")),
                 "t_end=inf must be finite and exceed", id="rk4-horizon-inf"),
    pytest.param(lambda: integrate_delayed(lambda t, x, v, vd: -x, State(0, 1, 0), lambda t: 0.0,
                                           0.5, math.nan),
                 "t_end=nan must be finite and exceed", id="delayed-horizon-nan"),
    pytest.param(lambda: _two_knot_buffer().velocity(math.nan), "delayed read at t=nan",
                 id="history-read-nan"),
])
def test_invalid_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()
