import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqduffing import IntegrationError, OscillatorParams, State, StepControl, chaos, integrate, odeint
from cqduffing.chaos import (
    ChaosScanRow,
    bifurcation_data,
    cluster_count,
    gamma_scan,
    lyapunov_max,
    poincare_map,
)
from cqduffing.core import acceleration

TABLE_PARAMS = dict(a=1.0, b=1.0, c=0.0, delta=0.1)
T14 = 2 * math.pi / 1.4
SHORT_SCAN = dict(steps_per_period=50, transient_periods=5, measure_periods=10)
# a bifurcation sweep's parameters: two amplitudes as lanes
LANES = SimpleNamespace(a=1.0, b=1.0, c=0.0, delta=0.1, gamma=np.array([0.3, 0.35]), omega=1.4,
                        epsilon=1.0)


def params(gamma, omega=1.4):
    return OscillatorParams(1, 1, 0, delta=0.1, gamma=gamma, omega=omega, epsilon=1.0)


class TestPoincareMap:
    def test_fixed_point_at_equilibrium(self):
        # damped unforced flow started at a center sinks onto it
        p = OscillatorParams(1, 1, 1, delta=0.3, gamma=0.0, omega=1.4, epsilon=1.0)
        x_e = math.sqrt((math.sqrt(5) - 1) / 2)
        series = poincare_map(p, State(0.0, x_e + 0.05, 0.0), 40, 60)
        assert np.all(np.abs(series[:, 0] - x_e) < 1e-6)
        assert np.all(np.abs(series[:, 1]) < 1e-6)

    def test_pre_onset_cycle(self):
        series = poincare_map(params(0.30), State(0, 0, 0), 500, 100)
        assert cluster_count(series) <= 8

    def test_chaotic_scatter(self):
        series = poincare_map(params(0.35), State(0, 0, 0), 500, 100)
        assert cluster_count(series) > 100

    def test_restart_equivalence(self):
        # re-posing the i.v.p. at every period boundary equals strobing one
        # continued trajectory
        p = params(0.35)
        n = 12
        series = poincare_map(p, State(0, 0, 0), n, 0)
        ctrl = StepControl(dt=T14 / 200, method="rk4")
        state = State(0.0, 0.0, 0.0)
        restarts = []
        for _ in range(n):
            tr = integrate(lambda t, x, v: acceleration(p, t, x, v), state, state.t + T14, ctrl)
            state = State(float(tr.t[-1]), float(tr.x[-1]), float(tr.v[-1]))
            restarts.append((state.x, state.v))
        assert np.allclose(series, restarts, atol=1e-8)

    def test_strobes_are_kernel_dense_output_bitwise(self):
        # the section integrates core.acceleration and strobes the dense
        # output; the point-wise loop is the reference
        p = params(0.30)
        series = poincare_map(p, State(0, 0, 0), 6, 3)
        tr = integrate(lambda t, x, v: acceleration(p, t, x, v), State(0, 0, 0), 9 * T14,
                       StepControl(dt=T14 / 200, method="rk4"))
        expected = [tr.eval(min((3 + j) * T14, tr.t[-1])) for j in range(1, 7)]
        assert np.array_equal(series, expected)

    def test_requires_forcing_frequency(self):
        p = OscillatorParams(1, 1, 0, delta=0.1, gamma=0.0, omega=0.0, epsilon=1.0)
        with pytest.raises(ValueError, match="omega"):
            poincare_map(p, State(0, 0, 0), 10, 0)

    def test_no_points_gives_empty_sections(self, monkeypatch):
        assert poincare_map(params(0.3), State(0, 0, 0), 0, 1).shape == (0, 2)
        assert poincare_map(params(0.3), State(0, 0, 0), 0, 0).shape == (0, 2)
        for lockstep_min in (24, 1):
            monkeypatch.setattr(chaos, "_LOCKSTEP_MIN", lockstep_min)
            data = bifurcation_data(params(0.3), [0.2, 0.3], n_points=0, n_transient=1)
            assert [(g, xs.shape) for g, xs in data] == [(0.2, (0,)), (0.3, (0,))]
            data = bifurcation_data(params(0.3), [0.2, 0.3], n_points=0, n_transient=0)
            assert [(g, xs.shape) for g, xs in data] == [(0.2, (0,)), (0.3, (0,))]

    @pytest.mark.parametrize("run", [
        pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), 10**12, 0), id="points"),
        pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), 2, 10**306),
                     id="transient"),
        pytest.param(lambda: bifurcation_data(params(0.3), [0.3] * 20, 2, 10**306),
                     id="sweep-lanes-transient"),
    ])
    def test_a_section_past_the_budget_raises_before_its_strobe_times(self, run):
        # 10**12 strobe times would not fit in memory, and 10**306 periods of
        # T/200 are more steps than a float holds: neither is built or counted
        with pytest.raises(IntegrationError, match="max_steps=5000000 exceeded") as err:
            run()
        assert err.value.t == 0.0

    def test_max_steps_names_time(self, monkeypatch):
        monkeypatch.setattr(odeint, "_MAX_STEPS", 500)
        ctrl = StepControl(dt=T14 / 200, method="rk4")
        with pytest.raises(IntegrationError, match="max_steps=500") as err:
            poincare_map(params(0.3), State(0, 0, 0), 2, 1, ctrl)
        assert err.value.t == 0.0


class TestLyapunov:
    def test_contraction_at_equilibrium(self):
        p = OscillatorParams(1, 1, 1, delta=0.3, gamma=0.0, omega=1.0, epsilon=1.0)
        x_e = math.sqrt((math.sqrt(5) - 1) / 2)
        le = lyapunov_max(p, State(0, x_e, 0.0), 300 * 2 * math.pi, 2 * math.pi,
                          t_transient=50 * 2 * math.pi)
        assert le < 0

    def test_chaotic_amplitude(self):
        le = lyapunov_max(params(0.35), State(0, 0, 0), 500 * T14, T14)
        assert le > 0.01

    def test_regular_amplitude(self):
        le = lyapunov_max(params(0.10), State(0, 0, 0), 500 * T14, T14)
        assert le <= 0

    def test_invariance_under_renorm_interval(self):
        base = lyapunov_max(params(0.35), State(0, 0, 0), 500 * T14, T14)
        half = lyapunov_max(params(0.35), State(0, 0, 0), 500 * T14, T14 / 2)
        assert half == pytest.approx(base, rel=0.2)

    def test_invariance_under_offset(self):
        le6 = lyapunov_max(params(0.35), State(0, 0, 0), 500 * T14, T14, d0=1e-6)
        le10 = lyapunov_max(params(0.35), State(0, 0, 0), 500 * T14, T14, d0=1e-10)
        assert le6 == pytest.approx(le10, rel=0.2)


    @pytest.mark.parametrize("run", [
        pytest.param(lambda: lyapunov_max(params(0.3), State(0, 0, 0), 1.5e308, 1e308,
                                          t_transient=0.0), id="interval-steps-overflow"),
        pytest.param(lambda: lyapunov_max(params(0.3), State(0, 0, 0), 3 * T14, T14,
                                          t_transient=0.0, steps_per_period=10**300),
                     id="steps-per-period"),
        pytest.param(lambda: lyapunov_max(params(0.3), State(0, 0, 0), 3 * T14, 1e-300,
                                          t_transient=0.0), id="intervals"),
        pytest.param(lambda: lyapunov_max(params(0.3), State(0, 0, 0), 1e300, T14,
                                          t_transient=0.0), id="horizon"),
        pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.3, 0.32), 0.01, steps_per_period=20,
                                        transient_periods=1, measure_periods=1e300), id="scan"),
    ])
    def test_a_schedule_past_the_budget_raises_before_a_step(self, run):
        with pytest.raises(IntegrationError, match=r"^max_steps=5000000 exceeded at t=0\.0$") as err:
            run()
        assert err.value.t == 0.0

    def test_overflow_reports_divergence_time(self):
        # x ** 3 overflows in the first period, before the interval's
        # finiteness check sees a non-finite state
        p = OscillatorParams(1, 1, -1, delta=0.1, gamma=0.3, omega=1.2, epsilon=1.0)
        T = 2 * math.pi / 1.2
        with pytest.raises(ValueError, match=r"trajectory diverged near t=0\.0$"):
            lyapunov_max(p, State(0.0, 0.0, 0.0), 10 * T, T, t_transient=T)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
           omega=st.one_of(st.just(0.0), st.floats(0.5, 2.5)), c=st.floats(0.0, 0.5),
           t0=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
           x0=st.floats(-1.5, 1.5), v0=st.floats(-1.5, 1.5),
           per_period=st.sampled_from([1, 2, 3]), d0=st.floats(1e-10, 1e-6),
           steps=st.integers(2, 200), transient=st.integers(0, 3), measured=st.floats(1.01, 6.0))
    @example(gamma=0.35, omega=1.4, c=0.0, t0=0.0, x0=0.0, v0=0.0, per_period=1, d0=1e-8,
             steps=200, transient=10, measured=30.0)  # chaotic
    @example(gamma=0.3, omega=1.2, c=-1.0, t0=0.0, x0=0.0, v0=0.0, per_period=2, d0=1e-8,
             steps=200, transient=1, measured=4.0)  # overflows
    @example(gamma=0.35, omega=1.4, c=-0.0, t0=0.0, x0=0.0, v0=0.0, per_period=1, d0=1e-8,
             steps=200, transient=10, measured=30.0)  # chaotic, c = -0.0: no x ** 5 either
    @example(gamma=0.0, omega=1.4, c=0.0, t0=0.0, x0=-0.0, v0=-0.0, per_period=2, d0=1e-8,
             steps=100, transient=1, measured=5.0)  # signed-zero start, unforced
    @example(gamma=0.0, omega=1.4, c=-0.0, t0=0.0, x0=-0.0, v0=-0.0, per_period=1, d0=1e-8,
             steps=100, transient=1, measured=5.0)
    def test_equals_two_trajectory_loop_bitwise(self, gamma, omega, c, t0, x0, v0, per_period,
                                                d0, steps, transient, measured):
        if omega == 0.0:
            gamma = 0.0
        p = OscillatorParams(1.0, 1.0, c, delta=0.1, gamma=gamma, omega=omega, epsilon=1.0)
        T = 2 * math.pi / omega if omega > 0.0 else 2 * math.pi
        interval = T / per_period
        args = (p, State(t0, x0, v0), (transient + measured) * T, interval)
        kw = dict(d0=d0, steps_per_period=steps, t_transient=transient * T)
        try:
            expected = reference_lyapunov_max(*args, **kw)
        except (OverflowError, ValueError):
            with pytest.raises(ValueError, match="trajectory diverged near t="):
                lyapunov_max(*args, **kw)
        else:
            assert lyapunov_max(*args, **kw).hex() == expected.hex()

    @pytest.mark.parametrize("a, b, c, gamma, x0, v0", [
        (1.0, 1.0, 0.0, 0.35, -0.0, -0.0),  # chaotic
        (1.0, -1.0, 0.0, 0.0, -0.0, -0.0),  # b < 0 from a signed-zero start, unforced
        (1.0, -1.0, -0.0, 0.0, -0.0, -0.0),
        (-1.0, -1.0, 0.0, 0.0, -0.0, -0.0),
        (-1.0, -1.0, -0.0, 0.0, -0.0, 0.0),
        (-1.0, -1.0, -0.0, 0.1, -0.0, -0.0),
    ])
    def test_cubic_step_equals_two_trajectory_loop_bitwise(self, a, b, c, gamma, x0, v0):
        # c = +-0 takes no x ** 5; the loop's c * x ** 5 is +-0, which can move
        # only the sign of a zero, and no separation or log reads that sign
        p = OscillatorParams(a, b, c, delta=0.1, gamma=gamma, omega=1.4, epsilon=1.0)
        args = (p, State(0.0, x0, v0), 40 * T14, T14)
        kw = dict(steps_per_period=200, t_transient=10 * T14)
        expected = reference_lyapunov_max(*args, **kw)
        assert math.isfinite(expected)
        assert lyapunov_max(*args, **kw).hex() == expected.hex()


def reference_lyapunov_max(p, s0, t_total, renorm_interval=None, *, d0=1e-8,
                           steps_per_period=200, t_transient=None):
    """lyapunov_max as it was before its step function: both trajectories
    advanced by one inlined RK4 body under a two-way selector (verbatim)."""
    T = 2.0 * math.pi / p.omega if p.omega > 0.0 else 2.0 * math.pi
    if renorm_interval is None:
        renorm_interval = T
    if t_transient is None:
        t_transient = 100 * T
    if t_total <= t_transient + renorm_interval:
        raise ValueError("t_total must exceed the transient plus one interval")
    n_steps = max(2, int(round(steps_per_period * renorm_interval / T)))
    dt = renorm_interval / n_steps
    a_, b_, c_ = p.a, p.b, p.c
    g_ = p.epsilon * p.gamma
    d_ = p.epsilon * p.delta
    w_ = p.omega
    cos = math.cos
    log = math.log
    sqrt = math.sqrt

    x1, v1 = s0.x, s0.v
    x2, v2 = s0.x + d0, s0.v
    t_base = s0.t
    n_int = int(math.ceil(t_total / renorm_interval))
    total = 0.0
    t_measured = 0.0
    for interval in range(n_int):
        for i in range(n_steps):
            t = t_base + i * dt
            cos0 = cos(w_ * t) if g_ != 0.0 else 0.0
            cosh_ = cos(w_ * (t + 0.5 * dt)) if g_ != 0.0 else 0.0
            cos1 = cos(w_ * (t + dt)) if g_ != 0.0 else 0.0
            h2 = 0.5 * dt
            # advance both trajectories with shared forcing samples
            for sel in (0, 1):
                x, v = (x1, v1) if sel == 0 else (x2, v2)
                a1 = a_ * x - b_ * x ** 3 - c_ * x ** 5 + g_ * cos0 - d_ * v
                xb, vb = x + h2 * v, v + h2 * a1
                a2 = a_ * xb - b_ * xb ** 3 - c_ * xb ** 5 + g_ * cosh_ - d_ * vb
                xc, vc = x + h2 * vb, v + h2 * a2
                a3 = a_ * xc - b_ * xc ** 3 - c_ * xc ** 5 + g_ * cosh_ - d_ * vc
                xd, vd = x + dt * vc, v + dt * a3
                a4 = a_ * xd - b_ * xd ** 3 - c_ * xd ** 5 + g_ * cos1 - d_ * vd
                x_new = x + dt / 6.0 * (v + 2.0 * (vb + vc) + vd)
                v_new = v + dt / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
                if sel == 0:
                    x1, v1 = x_new, v_new
                else:
                    x2, v2 = x_new, v_new
        if not (math.isfinite(x1) and math.isfinite(v1) and math.isfinite(x2) and math.isfinite(v2)):
            raise ValueError(f"trajectory diverged near t={t_base}")
        t_base += renorm_interval
        dx, dv = x2 - x1, v2 - v1
        d = sqrt(dx * dx + dv * dv)
        if d == 0.0:
            d = 1e-300
        if t_base - s0.t > t_transient:
            total += log(d / d0)
            t_measured += renorm_interval
        scale = d0 / d
        x2, v2 = x1 + dx * scale, v1 + dv * scale
    return total / t_measured


def test_float_power_rounds_as_python_pow():
    # the lane kernel's bitwise equality with lyapunov_max rests on this:
    # np.float_power runs libm pow per element, as Python's float ** does
    x = np.random.default_rng(20260).normal(0.0, 2.0, 200_000)
    for n in (3, 5):
        differ = np.flatnonzero(np.float_power(x, float(n)) != [v ** n for v in x.tolist()])
        assert differ.size == 0, (f"np.float_power(x, {n}.0) rounds unlike Python x ** {n} "
                                  f"on {differ.size} of {x.size} draws, e.g. x = {x[differ[0]]!r}")


class TestLyapunovLanes:
    # A lane is (omega, c, gamma); the k-th distinct (omega, c) of a draw takes
    # coeffs[k % len(coeffs)] as its (a, b, delta, epsilon), so the rows of one
    # pass differ in every coefficient the kernel stacks or scales.
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(lanes=st.lists(st.tuples(
               st.one_of(st.sampled_from([0.05, 0.1, 1.2, 1.4]), st.floats(0.5, 2.5)),
               st.one_of(st.sampled_from([0.0, 0.2, -1.0, 1.0]), st.floats(0.0, 0.5)),
               st.one_of(st.just(0.0), st.floats(0.0, 0.6))), min_size=1, max_size=9),
           coeffs=st.lists(st.tuples(
               st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.5, 1.5)),
               st.one_of(st.sampled_from([1.0, -2.5, -1.0]), st.floats(-1.0, 2.0)),
               st.one_of(st.sampled_from([0.1, 0.0]), st.floats(0.0, 0.5)),
               st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.1, 2.0))),
               min_size=1, max_size=3),
           t0=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
           x0=st.floats(-1.5, 1.5), v0=st.floats(-1.5, 1.5),
           steps=st.integers(20, 200), transient=st.integers(0, 2), measure=st.integers(2, 4))
    @example(lanes=[(0.05, 0.0, 0.0), (0.05, 0.0, 0.387), (0.1, 0.2, 0.41), (0.1, 0.2, 0.45),
                    (1.2, -1.0, 0.3), (1.4, 0.0, 0.35)], coeffs=[(1.0, 1.0, 0.1, 1.0)],
             t0=0.0, x0=0.0, v0=0.0, steps=200, transient=1, measure=9)  # c = -1 overflows
    @example(lanes=[(0.1, 0.0, 0.402), (1.4, 0.2, 0.0), (1.4, 0.2, 0.35), (1.2, -1.0, 0.3)],
             coeffs=[(1.0, 1.0, 0.1, 1.0)], t0=-3.5, x0=0.4, v0=-0.3, steps=200, transient=2,
             measure=3)
    @example(lanes=[(1.4, 0.0, 0.3), (1.4, 0.0, 0.32), (1.4, 0.0, 0.35), (1.1, 0.2, 0.2),
                    (1.1, 0.2, 0.25), (1.1, 0.2, 0.3)], coeffs=[(1.0, 1.0, 0.1, 1.0)],
             t0=0.0, x0=0.0, v0=0.0, steps=20, transient=0, measure=100)  # 600 logs
    @example(lanes=[(1.4, 0.0, 0.35), (1.1, 0.2, 0.3), (1.4, 0.0, 0.3), (1.4, 0.0, 0.35)],
             coeffs=[(1.0, 1.0, 0.1, 1.0)],
             t0=0.0, x0=0.0, v0=0.0, steps=50, transient=1, measure=3)  # a row split, a lane twice
    @example(lanes=[(1.4, 1.0, 0.1), (1.4, 1.0, 0.4), (2.0, 1.0, 0.3)],
             coeffs=[(-1.0, -2.5, 0.1, 1.0), (-1.0, -2.5, 0.25, 0.6)],
             t0=0.0, x0=0.5, v0=0.0, steps=100, transient=1, measure=3)  # the kink (-1, -2.5, 1)
    @example(lanes=[(1.4, 0.0, 0.0), (1.4, 0.0, 0.3), (1.2, 0.2, 0.3), (1.1, 0.0, 0.2)],
             coeffs=[(1.0, -1.0, 0.1, 1.0), (1.0, 1.0, 0.1, 1.0), (1.0, -1.0, 0.0, 0.5)],
             t0=0.0, x0=0.1, v0=0.0, steps=50, transient=1, measure=3)  # softening cubic diverges
    @example(lanes=[(1.4, 0.0, 0.35), (1.4, 0.0, 0.3), (1.1, 0.2, 0.3), (0.9, 0.1, 0.2),
                    (0.9, 0.1, 0.5)],
             coeffs=[(1.0, 1.0, 0.1, 0.5), (0.5, 2.0, 0.3, 1.7), (-1.0, 0.5, 0.05, 1.3)],
             t0=0.0, x0=0.2, v0=-0.1, steps=60, transient=1, measure=3)  # epsilon != 1
    @example(lanes=[(1.4, 0.0, 0.3), (1.4, 0.0, 0.35), (1.1, -0.0, 0.0), (1.1, -0.0, 0.78),
                    (2.0, 0.0, 0.5)],
             coeffs=[(1.0, 1.0, 0.1, 1.0), (-1.0, -1.0, 0.1, 1.0), (0.5, -1.0, 0.05, 0.7)],
             t0=0.0, x0=-0.0, v0=-0.0, steps=50, transient=1,
             measure=3)  # c = 0 rows only: one pow per stage; the softening cubic diverges
    @example(lanes=[(1.4, 0.0, 0.3), (1.4, 0.0, 0.35), (1.4, 0.2, 0.3), (1.1, -0.0, 0.78),
                    (1.1, -1.0, 0.3)],
             coeffs=[(1.0, 1.0, 0.1, 1.0), (1.0, 1.0, 0.1, 1.0), (-1.0, -1.0, 0.1, 1.0)],
             t0=0.0, x0=0.0, v0=0.0, steps=50, transient=1,
             measure=3)  # c = 0 and c != 0 rows mixed: both powers on every lane
    @example(lanes=[(1.0, 0.0, 0.0), (1.0, 0.0, 0.1)], coeffs=[(-14400.0, 0.0, 240.0, 1.0)],
             t0=0.0, x0=1.0, v0=0.0, steps=2000, transient=1,
             measure=3)  # overdamped: the separation underflows to 0 each period
    def test_each_lane_equals_lyapunov_max_bitwise(self, lanes, coeffs, t0, x0, v0, steps,
                                                   transient, measure):
        rows = list(dict.fromkeys((omega, c) for omega, c, _ in lanes))

        def params_of(omega, c):
            a, b, delta, epsilon = coeffs[rows.index((omega, c)) % len(coeffs)]
            return OscillatorParams(a, b, c, delta=delta, omega=omega, epsilon=epsilon)

        lanes = [(params_of(omega, c), gamma) for omega, c, gamma in lanes]
        s0 = State(t0, x0, v0)
        periods = dict(steps_per_period=steps, transient_periods=transient,
                       measure_periods=measure)
        exps = chaos._lyapunov_lanes(lanes, s0, **periods)
        expected = []
        for p, gamma in lanes:
            T = 2 * math.pi / p.omega
            try:
                expected.append(lyapunov_max(replace(p, gamma=gamma), s0,
                                             (transient + measure) * T, T,
                                             steps_per_period=steps,
                                             t_transient=transient * T).hex())
            except ValueError as err:
                expected.append(str(err))
        assert [str(e) if isinstance(e, ValueError) else e.hex() for e in exps] == expected

    def test_each_lane_logs_as_math_log(self):
        # np.log rounds unlike math.log on about 0.5% of arguments in (0.5, 2),
        # and a one-ulp log is mostly lost in a long sum.  Periods under 0.5
        # stretch the separation by such factors, and 2000 exponents of two
        # logs each show a lane kernel that takes np.log.
        lanes = [(OscillatorParams(1.0, 1.0, c, delta=0.1, omega=omega, epsilon=1.0), gamma)
                 for omega, c in ((13.0, 0.0), (15.0, 0.2), (17.0, 0.0), (20.0, 0.2),
                                  (22.0, 0.1), (25.0, 0.0), (28.0, 0.1), (30.0, 0.0))
                 for gamma in np.linspace(0.01, 0.6, 250).tolist()]
        s0 = State(0.0, 0.2, 0.0)
        exps = chaos._lyapunov_lanes(lanes, s0, steps_per_period=20, transient_periods=0,
                                     measure_periods=2)
        expected = [lyapunov_max(replace(p, gamma=gamma), s0, 2 * (2 * math.pi / p.omega),
                                 2 * math.pi / p.omega, steps_per_period=20,
                                 t_transient=0.0).hex()
                    for p, gamma in lanes]
        assert [e.hex() for e in exps] == expected


class TestGammaScan:
    def test_onset_window(self):
        row = gamma_scan(**TABLE_PARAMS, omega=1.4, gamma_range=(0.25, 0.45),
                         resolution=0.005)
        assert isinstance(row, ChaosScanRow)
        assert 0.31 <= row.gamma_c <= 0.37
        assert row.lyapunov > 0.01

    def test_deterministic(self):
        kw = dict(**TABLE_PARAMS, omega=1.4, gamma_range=(0.30, 0.40), resolution=0.01,
                  coarse_step=0.02)
        assert gamma_scan(**kw) == gamma_scan(**kw)

    def test_overdamped_no_onset(self):
        out = gamma_scan(a=1, b=1, c=0, delta=2.0, omega=1.4, gamma_range=(0.1, 0.5),
                         resolution=0.1, coarse_step=0.1)
        assert math.isnan(out.gamma_c)
        assert out.lyapunov <= 0.01

    def test_range_validation(self):
        with pytest.raises(ValueError, match="gamma_range"):
            gamma_scan(1, 1, 0, 0.1, 1.4, (0.5, 0.1), 0.01)

    @pytest.mark.parametrize("delta, window, resolution, coarse_step, coarse_needed", [
        (0.1, (0.05, 0.35), 0.01, 0.02, 11),  # onset pair at coarse indices 9 and 10 of 16
        (0.1, (0.20, 0.50), 0.01, 0.02, 2),   # onset pair at the window's start
        (2.0, (0.10, 0.50), 0.10, 0.10, 5),   # no onset: the whole grid
    ])
    def test_lazy_coarse_grid_matches_eager_scan(self, monkeypatch, delta, window, resolution,
                                                 coarse_step, coarse_needed):
        args = (1.0, 1.0, 0.0, delta, 1.4, window, resolution)
        eager, eager_calls = eager_gamma_scan(*args, coarse_step=coarse_step)
        gammas = []

        def counting(p, *a, **kw):
            gammas.append(p.gamma)
            return lyapunov_max(p, *a, **kw)

        monkeypatch.setattr(chaos, "lyapunov_max", counting)
        assert gamma_scan(*args, coarse_step=coarse_step, **SHORT_SCAN) == eager
        n_bisect = len(eager_calls) - len(_coarse_grid(window, coarse_step))
        assert len(gammas) == coarse_needed + n_bisect
        assert gammas == eager_calls[:coarse_needed] + eager_calls[len(eager_calls) - n_bisect:]

    @pytest.mark.parametrize("c, delta, window, resolution, coarse_step", [
        (0.0, 0.1, (0.25, 0.45), 0.005, None),   # test_onset_window's window
        (0.0, 0.1, (0.30, 0.40), 0.01, 0.02),
        (0.0, 2.0, (0.10, 0.50), 0.10, 0.10),    # no onset
        (0.0, 0.1, (0.05, 0.35), 0.01, 0.02),
        (0.0, 0.1, (0.20, 0.50), 0.01, 0.02),
        (0.0, 0.1, (0.0, 0.30), 0.01, 0.05),     # a gamma = 0 grid point
        (-0.1, 0.1, (0.2, 2.8), 0.05, 0.2),      # lanes from 1.2 on diverge past the onset
    ])
    def test_lanes_equal_the_lazy_scan(self, monkeypatch, c, delta, window, resolution,
                                       coarse_step):
        args = (1.0, 1.0, c, delta, 1.4, window, resolution)
        kw = dict(coarse_step=coarse_step, **SHORT_SCAN)
        monkeypatch.setattr(chaos, "_SCAN_LANES_MIN", math.inf)
        lazy = gamma_scan(*args, **kw)
        monkeypatch.setattr(chaos, "_SCAN_LANES_MIN", 1)
        assert _hex(gamma_scan(*args, **kw)) == _hex(lazy)

    def test_a_read_lane_that_diverged_raises_the_lazy_message(self, monkeypatch):
        # c = -0.1 softens the quintic; the trajectory at gamma = 1.2 escapes
        args = (1.0, 1.0, -0.1, 0.1, 1.4, (1.0, 2.8), 0.05)
        kw = dict(coarse_step=0.2, **SHORT_SCAN)
        monkeypatch.setattr(chaos, "_SCAN_LANES_MIN", math.inf)
        with pytest.raises(ValueError, match="trajectory diverged near t=") as lazy:
            gamma_scan(*args, **kw)
        monkeypatch.setattr(chaos, "_SCAN_LANES_MIN", 1)
        with pytest.raises(ValueError) as lanes:
            gamma_scan(*args, **kw)
        assert str(lanes.value) == str(lazy.value)

    def test_a_diverging_cubic_lane_names_the_lazy_time(self, monkeypatch):
        # the softening cubic escapes at gamma = 0.78 in its first forcing
        # period, ending it at x = -1.3e86: past 1.6e61, where x ** 5 overflowed
        # and named t=0.0 while the step took it at c = 0, but below where
        # x ** 3 overflows, so both paths name the next interval, t = T
        args = (-1.0, -1.0, 0.0, 0.1, 1.1, (0.78, 1.0), 0.01)
        kw = dict(coarse_step=0.02, **SHORT_SCAN)
        for lanes_min in (math.inf, 1):  # the lazy walk, then the lanes
            monkeypatch.setattr(chaos, "_SCAN_LANES_MIN", lanes_min)
            with pytest.raises(ValueError) as err:
                gamma_scan(*args, **kw)
            assert str(err.value) == f"trajectory diverged near t={2 * math.pi / 1.1}"

    def test_rows_share_one_lane_pass(self, monkeypatch):
        windows = [(1.4, (0.25, 0.45)), (1.1, (0.10, 0.30)), (2.0, (0.55, 0.75))]
        kw = dict(coarse_step=0.02, **SHORT_SCAN)
        lazy = [gamma_scan(1.0, 1.0, 0.0, 0.1, omega, window, 0.01, **kw)
                for omega, window in windows]
        passes = []

        def counting(lanes, *a, **k):
            passes.append(len(lanes))
            return kernel(lanes, *a, **k)

        kernel = chaos._lyapunov_lanes
        monkeypatch.setattr(chaos, "_lyapunov_lanes", counting)
        rows = chaos.gamma_scan_rows(1.0, 1.0, 0.0, 0.1, windows, 0.01, **kw)
        assert passes == [33]
        assert list(map(_hex, rows)) == list(map(_hex, lazy))

    def test_windows_of_one_omega_share_one_row(self, monkeypatch):
        # equal params make one row of the pass: one interval start and
        # transient test for the lanes of both windows
        windows = [(1.4, (0.25, 0.35)), (1.4, (0.30, 0.45))]
        kw = dict(coarse_step=0.02, **SHORT_SCAN)
        lazy = [gamma_scan(1.0, 1.0, 0.0, 0.1, omega, window, 0.01, **kw)
                for omega, window in windows]
        passes = []

        def counting(lanes, *a, **k):
            passes.append((len(lanes), len(dict.fromkeys(p for p, _ in lanes))))
            return kernel(lanes, *a, **k)

        kernel = chaos._lyapunov_lanes
        monkeypatch.setattr(chaos, "_lyapunov_lanes", counting)
        monkeypatch.setattr(chaos, "_SCAN_LANES_MIN", 1)
        rows = chaos.gamma_scan_rows(1.0, 1.0, 0.0, 0.1, windows, 0.01, **kw)
        assert passes == [(15, 1)]
        assert list(map(_hex, rows)) == list(map(_hex, lazy))

    def test_lane_passes_fit_the_budget(self, monkeypatch):
        # a budget of 5 lanes cuts the 33 lanes of three windows into 7 passes
        windows = [(1.4, (0.25, 0.45)), (1.1, (0.10, 0.30)), (2.0, (0.55, 0.75))]
        kw = dict(coarse_step=0.02, **SHORT_SCAN)
        one_pass = chaos.gamma_scan_rows(1.0, 1.0, 0.0, 0.1, windows, 0.01, **kw)
        passes = []

        def counting(lanes, *a, **k):
            passes.append(len(lanes))
            return kernel(lanes, *a, **k)

        kernel = chaos._lyapunov_lanes
        monkeypatch.setattr(chaos, "_lyapunov_lanes", counting)
        monkeypatch.setattr(chaos, "_SCAN_LANES_BUDGET", 5 * 48 * SHORT_SCAN["steps_per_period"])
        rows = chaos.gamma_scan_rows(1.0, 1.0, 0.0, 0.1, windows, 0.01, **kw)
        assert passes == [5, 5, 5, 5, 5, 5, 3]
        assert list(map(_hex, rows)) == list(map(_hex, one_pass))

    def test_bisection_stops_at_a_one_ulp_bracket(self, monkeypatch):
        # a resolution below one ulp: the mid of two adjacent floats is one of
        # them, and the bisection must stop there rather than repeat it
        calls = []

        def counting(p, gamma, *a, **kw):
            if len(calls) == 200:
                raise AssertionError("the bisection does not stop")
            calls.append((gamma, exponent(p, gamma, *a, **kw)))
            return calls[-1][1]

        exponent = chaos._scan_exponent
        monkeypatch.setattr(chaos, "_scan_exponent", counting)
        row = gamma_scan(1, 1, 0, 0.1, 1.4, (0.05, 0.35), 1e-300, coarse_step=0.02, **SHORT_SCAN)
        mids = [gamma for gamma, _ in calls[11:]]  # the onset pair is at coarse indices 9 and 10
        assert len(mids) == len(set(mids)) == 49
        g_lo = max(gamma for gamma, e in calls if gamma < row.gamma_c and e <= 0.01)
        assert math.nextafter(g_lo, math.inf) == row.gamma_c
        assert row.lyapunov == dict(calls)[row.gamma_c] > 0.01


def _hex(row):
    return [float(v).hex() for v in (row.omega, row.gamma_c, row.lyapunov)]


def _coarse_grid(window, coarse_step):
    lo, hi = window
    grid = [lo + i * coarse_step for i in range(int(math.floor((hi - lo) / coarse_step)) + 1)]
    return grid + [hi] if grid[-1] < hi - 1e-12 else grid


def eager_gamma_scan(a, b, c, delta, omega, window, resolution, coarse_step, threshold=0.01):
    """gamma_scan with every coarse exponent computed before the onset search
    (the window must be positive); returns the row and the gammas it measured."""
    T = 2 * math.pi / omega
    steps, transient, measure = (SHORT_SCAN[k] for k in ("steps_per_period", "transient_periods",
                                                         "measure_periods"))
    gammas = []

    def exponent(gamma):
        gammas.append(gamma)
        p = OscillatorParams(a, b, c, delta=delta, gamma=gamma, omega=omega, epsilon=1.0)
        return lyapunov_max(p, State(0.0, 0.0, 0.0), (transient + measure) * T, T,
                            steps_per_period=steps, t_transient=transient * T)

    grid = _coarse_grid(window, coarse_step)
    exps = [exponent(g) for g in grid]
    pairs = [i for i in range(len(grid) - 1) if min(exps[i], exps[i + 1]) > threshold]
    if not pairs:
        return ChaosScanRow(omega, math.nan, max(exps)), gammas
    i = pairs[0]
    g_lo, g_hi, e_hi = (grid[i - 1] if i > 0 else window[0]), grid[i], exps[i]
    while g_hi - g_lo > resolution:
        mid = 0.5 * (g_lo + g_hi)
        e_mid = exponent(mid)
        if e_mid > threshold:
            g_hi, e_hi = mid, e_mid
        else:
            g_lo = mid
    return ChaosScanRow(omega=omega, gamma_c=g_hi, lyapunov=e_hi), gammas


class TestBifurcationData:
    def test_zero_forcing_single_cluster(self):
        p = OscillatorParams(1, 1, 0, delta=0.2, gamma=0.0, omega=1.4, epsilon=1.0)
        data = bifurcation_data(p, [0.0], n_points=40, n_transient=80,
                                s0=State(0.0, 0.5, 0.0))
        gam, xs = data[0]
        assert gam == 0.0
        assert cluster_count(xs.reshape(-1, 1)) == 1
        assert abs(xs[-1] - 1.0) < 1e-5  # the cubic-limit center

    def test_sweep_with_one_diverging_gamma_raises(self, monkeypatch):
        # a softening quintic well (a < 0, c < 0): the strong drive escapes it
        p = OscillatorParams(-1, 0, -1, delta=0.1, gamma=0.0, omega=1.4, epsilon=1.0)
        monkeypatch.setattr(chaos, "_LOCKSTEP_MIN", 1)
        with pytest.raises(IntegrationError, match="at index 1 ") as swept:
            bifurcation_data(p, [0.1, 5.0, 0.2], n_points=2, n_transient=2)
        with pytest.raises(IntegrationError) as alone:
            poincare_map(replace(p, gamma=5.0), State(0, 0, 0), 2, 2)
        assert swept.value.t == alone.value.t
        assert f"t={alone.value.t}" in str(swept.value)
        for gamma in (0.1, 0.2):
            section = poincare_map(replace(p, gamma=gamma), State(0, 0, 0), 2, 2)
            assert np.all(np.isfinite(section))

    def test_sweep_names_the_first_lane_to_fail_not_the_lowest(self, monkeypatch):
        # the three lanes go non-finite at steps 99, 55 and 72, all in one chunk:
        # the error names the lane and time of step 55, as the float run of 5.0 does
        p = OscillatorParams(-1, 0, -1, delta=0.1, gamma=0.0, omega=1.4, epsilon=1.0)
        monkeypatch.setattr(chaos, "_LOCKSTEP_MIN", 1)
        with pytest.raises(IntegrationError, match=r"at index 1 \(x=nan, v=nan\)") as swept:
            bifurcation_data(p, [2.0, 5.0, 3.0], n_points=2, n_transient=2)
        with pytest.raises(IntegrationError) as alone:
            poincare_map(replace(p, gamma=5.0), State(0, 0, 0), 2, 2)
        assert swept.value.t == alone.value.t == 1.2341971139102759

    @pytest.mark.parametrize("c", [0.0, -0.0])
    def test_diverging_cubic_sweep_names_the_float_runs_lane_and_time(self, c, monkeypatch):
        # a softening cubic well (a < 0, b < 0, c = 0): the drive of 2.0 escapes
        # first, with x x overflowing in the last stage of its last step.  Both
        # read (x=5.5311048732085994e+243, v=inf); before the force took no c
        # term at c = 0, both read (x=5.5311048732085994e+243, v=nan), 0 * inf
        p = OscillatorParams(-1, -1, c, delta=0.1, gamma=0.0, omega=1.4, epsilon=1.0)
        monkeypatch.setattr(chaos, "_LOCKSTEP_MIN", 1)
        with pytest.raises(IntegrationError, match="at index 2 ") as swept:
            bifurcation_data(p, [0.5, 1.0, 2.0], n_points=2, n_transient=2)
        with pytest.raises(IntegrationError) as alone:
            poincare_map(replace(p, gamma=2.0), State(0, 0, 0), 2, 2)
        assert swept.value.t == alone.value.t == 3.074272811012869
        assert str(swept.value) == str(alone.value).replace("state", "state at index 2")
        assert "(x=5.5311048732085994e+243, v=inf)" in str(alone.value)

    def test_displacements_alone_are_points_on_a_line(self):
        # bifurcation_data's 1-D strobes: n scalar points, not one point in n dimensions
        assert cluster_count(np.array([0.1, 0.2, 0.3])) == 3
        assert cluster_count(np.array([0.1, 0.1 + 5e-4, 0.3])) == 2
        assert cluster_count([]) == 0
        xs = poincare_map(params(0.30), State(0, 0, 0), 60, 20)[:, 0]
        assert cluster_count(xs) == cluster_count(xs.reshape(-1, 1))

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_requires_forcing_frequency(self, gamma):
        p = OscillatorParams(1, 1, 0, delta=0.1, gamma=0.0, omega=0.0, epsilon=1.0)
        with pytest.raises(ValueError, match="omega"):
            bifurcation_data(p, [0.0, gamma], n_points=2, n_transient=1)

    def test_period_doubling_appears(self):
        p = params(0.2)
        sweep = [0.20, 0.24, 0.27, 0.29, 0.31, 0.32, 0.33]
        data = bifurcation_data(p, sweep, n_points=120, n_transient=150)
        counts = [cluster_count(xs.reshape(-1, 1)) for _, xs in data]
        assert counts[0] == 1
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
        assert any(c2 >= 2 * c1 for c1, c2 in zip(counts, counts[1:]))


def reference_strobes(p, s0, n_points, n_transient, ctrl=None):
    """The section from the whole trajectory: integrate, then evaluate its
    dense output at the strobe times (clipped to the last knot)."""
    T = 2 * math.pi / p.omega
    ctrl = ctrl or StepControl(dt=T / 200, method="rk4")
    tr = integrate(lambda t, x, v: acceleration(p, t, x, v), s0,
                   s0.t + (n_transient + n_points) * T, ctrl)
    tn = s0.t + (n_transient + np.arange(1, n_points + 1)) * T
    return np.column_stack(tr.eval(np.minimum(tn, tr.t[-1])))


class TestLockstepSweep:
    """bifurcation_data strobes a long sweep in one lockstep pass (forced here
    for short ones too); each row must equal its own poincare_map and the
    integrate + Trajectory.eval reference bitwise, whatever the step leaves as
    a tail or lands on."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(omega=st.floats(0.5, 2.5), a=st.one_of(st.just(1.0), st.floats(-1.0, 1.5)),
           b=st.one_of(st.just(1.0), st.floats(0.5, 1.5)), c=st.sampled_from([0.0, 0.2]),
           delta=st.one_of(st.just(0.1), st.floats(0.0, 0.3)),
           epsilon=st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
           gammas=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=7),
           t0=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
           x0=st.floats(-1.0, 1.0), v0=st.floats(-1.0, 1.0),
           n_points=st.integers(1, 5), n_transient=st.integers(0, 2),
           steps=st.one_of(st.just(200.0), st.floats(20.0, 300.0)))
    @example(omega=1.4, a=1.0, b=1.0, c=0.0, delta=0.1, epsilon=1.0, gammas=[0.3, 0.35], t0=0.0,
             x0=0.0, v0=0.0, n_points=5, n_transient=2, steps=200.0)  # strobes on knots
    @example(omega=1.4, a=1.0, b=1.0, c=0.2, delta=0.1, epsilon=1.0, gammas=[0.35], t0=0.0,
             x0=0.1, v0=0.0, n_points=3, n_transient=1, steps=37.3)  # a short tail step ends the run
    @example(omega=1.2, a=-0.5, b=1.3, c=0.2, delta=0.0, epsilon=0.7, gammas=[0.5, 0.1, 0.25],
             t0=-3.0, x0=0.6, v0=-0.4, n_points=4, n_transient=1, steps=55.5)  # no well, no damping
    def test_sweep_equals_per_gamma_sections_and_reference(self, omega, a, b, c, delta, epsilon,
                                                           gammas, t0, x0, v0, n_points,
                                                           n_transient, steps):
        p = OscillatorParams(a, b, c, delta=delta, gamma=0.0, omega=omega, epsilon=epsilon)
        s0 = State(t0, x0, v0)
        ctrl = StepControl(dt=2 * math.pi / omega / steps, method="rk4")
        with mock.patch.object(chaos, "_LOCKSTEP_MIN", 1):
            lockstep = bifurcation_data(p, gammas, n_points, n_transient, s0)
        per_gamma = bifurcation_data(p, gammas, n_points, n_transient, s0)
        assert [g for g, _ in lockstep] == [g for g, _ in per_gamma] == gammas
        # the lanes strobed with ctrl too: a fractional steps per period ends in a short step
        sweep = SimpleNamespace(**{**vars(p), "gamma": np.array([float(g) for g in gammas])})
        lanes = poincare_map(sweep, s0, n_points, n_transient, ctrl)
        for k, (gamma, (_, xs), (_, xs_alone)) in enumerate(zip(gammas, lockstep, per_gamma)):
            pg = replace(p, gamma=gamma)
            section = poincare_map(pg, s0, n_points, n_transient)
            assert np.array_equal(xs, section[:, 0]) and np.array_equal(xs_alone, section[:, 0])
            assert np.array_equal(section, reference_strobes(pg, s0, n_points, n_transient))
            strobed = poincare_map(pg, s0, n_points, n_transient, ctrl)
            assert np.array_equal(strobed, reference_strobes(pg, s0, n_points, n_transient, ctrl))
            assert np.array_equal(lanes[:, :, k], strobed)

    def test_dp54_section_equals_reference(self):
        p = params(0.3)
        ctrl = StepControl(abs_tol=1e-8, rel_tol=1e-8)
        assert np.array_equal(poincare_map(p, State(0, 0, 0), 4, 2, ctrl),
                              reference_strobes(p, State(0, 0, 0), 4, 2, ctrl))


def benettin(**kw):
    """A ten-period exponent with a one-period transient, its keywords replaced by kw."""
    return lyapunov_max(params(0.3), State(0, 0, 0),
                        **{"t_total": 10 * T14, "renorm_interval": T14, "t_transient": T14, **kw})


SCHEDULE = r"renorm_interval=.* must be > 0 and t_transient=.* >= 0, both finite"
HORIZON = "t_total must exceed the transient plus one interval and be finite"


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: lyapunov_max(params(0.3), State(0, 0, 0), 100 * T14, T14),
                 "t_total must exceed", id="lyapunov-horizon"),
    pytest.param(lambda: benettin(d0=0.0), "d0 must be positive and finite", id="lyapunov-d0-zero"),
    pytest.param(lambda: benettin(d0=-1e-8), "d0 must be positive and finite",
                 id="lyapunov-d0-negative"),
    pytest.param(lambda: benettin(d0=math.nan), "d0 must be positive and finite",
                 id="lyapunov-d0-nan"),
    pytest.param(lambda: benettin(d0=math.inf), "d0 must be positive and finite",
                 id="lyapunov-d0-inf"),
    pytest.param(lambda: benettin(renorm_interval=math.nan), SCHEDULE, id="lyapunov-interval-nan"),
    pytest.param(lambda: benettin(renorm_interval=0.0), SCHEDULE, id="lyapunov-interval-zero"),
    pytest.param(lambda: benettin(renorm_interval=-T14), SCHEDULE,
                 id="lyapunov-interval-negative"),
    pytest.param(lambda: benettin(renorm_interval=math.inf), SCHEDULE, id="lyapunov-interval-inf"),
    pytest.param(lambda: benettin(t_transient=math.nan), SCHEDULE, id="lyapunov-transient-nan"),
    pytest.param(lambda: benettin(t_transient=-T14), SCHEDULE, id="lyapunov-transient-negative"),
    pytest.param(lambda: benettin(t_transient=math.inf), SCHEDULE, id="lyapunov-transient-inf"),
    pytest.param(lambda: benettin(t_total=math.nan), HORIZON, id="lyapunov-total-nan"),
    pytest.param(lambda: benettin(t_total=math.inf), HORIZON, id="lyapunov-total-inf"),
    pytest.param(lambda: benettin(steps_per_period=0), "steps_per_period must be >= 1",
                 id="lyapunov-steps-zero"),
    pytest.param(lambda: benettin(steps_per_period=-5), "steps_per_period must be >= 1",
                 id="lyapunov-steps-negative"),
    pytest.param(lambda: benettin(steps_per_period=math.nan), "steps_per_period must be >= 1",
                 id="lyapunov-steps-nan"),
    pytest.param(lambda: benettin(steps_per_period=2.5),
                 "steps_per_period must be >= 1 and an integer, got 2.5", id="lyapunov-steps-fraction"),
    pytest.param(lambda: benettin(steps_per_period=math.inf),
                 "steps_per_period must be >= 1 and an integer, got inf", id="lyapunov-steps-inf"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.0, 0.3), 0.01, steps_per_period=2.5),
                 "steps_per_period must be >= 1 and an integer", id="scan-lanes-steps-fraction"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 0.0, (0.3, 0.32), 0.01),
                 "omega must be positive and finite, got 0.0", id="scan-omega-zero"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, math.nan, (0.3, 0.32), 0.01),
                 "omega must be positive and finite, got nan", id="scan-omega-nan"),
    pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), 2.5, 3),
                 "n_points=2.5 and n_transient=3 must be finite >= 0 integers",
                 id="section-points-fraction"),
    pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), 2, 2.5),
                 "n_transient=2.5 must be finite >= 0 integers", id="section-transient-fraction"),
    pytest.param(lambda: bifurcation_data(params(0.3), [0.3], n_points=2.5, n_transient=2),
                 "n_points=2.5 and", id="sweep-points-fraction"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.3, 0.4), 0.01, lyap_threshold=math.nan),
                 "lyap_threshold must be finite", id="scan-threshold-nan"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.3, 0.4), 0.01, lyap_threshold=math.inf),
                 "lyap_threshold must be finite", id="scan-threshold-inf"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.3, 0.4), 0.01, transient_periods=-5),
                 SCHEDULE, id="scan-transient-negative"),
    # 30 positive amplitudes: the lane pass checks its schedule too
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.0, 0.3), 0.01, steps_per_period=0),
                 "steps_per_period must be >= 1", id="scan-lanes-steps-zero"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.0, 0.3), 0.01, transient_periods=-5),
                 SCHEDULE, id="scan-lanes-transient-negative"),
    pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), 5, -3),
                 "n_transient=-3 must be finite >= 0", id="section-transient-negative"),
    pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), 5, -1),
                 "n_transient=-1 must be finite >= 0", id="section-transient-minus-one"),
    pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), -1, 2),
                 "n_points=-1 and", id="section-points-negative"),
    pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), math.nan, 2),
                 "n_points=nan and", id="section-points-nan"),
    pytest.param(lambda: poincare_map(params(0.3), State(0, 0, 0), 5, math.inf),
                 "n_transient=inf must be finite >= 0", id="section-transient-inf"),
    pytest.param(lambda: poincare_map(LANES, State(0, 0, 0), -1, 2,
                                      StepControl(dt=0.05, method="rk4")),
                 "n_points=-1 and", id="lanes-points-negative"),
    pytest.param(lambda: bifurcation_data(params(0.3), [0.3] * 20, 4, -1),
                 "n_transient=-1 must be finite >= 0", id="sweep-transient-negative"),
    pytest.param(lambda: poincare_map(LANES, State(0, 0, 0), 2, 1, StepControl(dt=0.05)),
                 "an array gamma steps by rk4, not 'dp54'", id="lanes-dp54-dt"),
    pytest.param(lambda: poincare_map(LANES, State(0, 0, 0), 2, 1, StepControl()),
                 "an array gamma steps by rk4, not 'dp54'", id="lanes-dp54"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), 0.0),
                 "resolution must be positive", id="scan-resolution-zero"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), -0.01),
                 "resolution must be positive", id="scan-resolution-negative"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), math.nan),
                 "resolution must be positive and finite", id="scan-resolution-nan"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), math.inf),
                 "resolution must be positive and finite", id="scan-resolution-inf"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), 0.01, coarse_step=0.0),
                 "coarse_step must be positive and finite", id="scan-coarse-step-zero"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), 0.01, coarse_step=-0.01),
                 "coarse_step must be positive and finite", id="scan-coarse-step-negative"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), 0.01, coarse_step=math.nan),
                 "coarse_step must be positive and finite", id="scan-coarse-step-nan"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), 0.01, coarse_step=math.inf),
                 "coarse_step must be positive and finite", id="scan-coarse-step-inf"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), 0.01, coarse_step=1e-320),
                 r"coarse_step 1e-320 cuts \[0\.1, 0\.5\] into more than 100000 steps",
                 id="scan-coarse-step-subnormal"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, 0.5), 0.01, coarse_step=1e-9),
                 "coarse_step 1e-09 cuts", id="scan-coarse-step-tiny"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.0, 1e300), 0.01),
                 "coarse_step 0.01 cuts", id="scan-gamma-window-huge"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, math.inf), 0.01),
                 "gamma_range must be finite", id="scan-gamma-max-inf"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (0.1, math.nan), 0.01),
                 "gamma_range must be finite", id="scan-gamma-max-nan"),
    pytest.param(lambda: gamma_scan(1, 1, 0, 0.1, 1.4, (math.nan, 0.5), 0.01),
                 "gamma_range must be finite", id="scan-gamma-min-nan"),
])
def test_invalid_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()
