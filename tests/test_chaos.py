import math

import numpy as np
import pytest

from cqduffing import OscillatorParams, State, StepControl, integrate
from cqduffing.chaos import (
    ChaosScanRow,
    NoOnset,
    bifurcation_data,
    cluster_count,
    gamma_scan,
    lyapunov_max,
    poincare_map,
)
from cqduffing.core import acceleration

TABLE_PARAMS = dict(a=1.0, b=1.0, c=0.0, delta=0.1)
T14 = 2 * math.pi / 1.4


def params(gamma, omega=1.4):
    return OscillatorParams(1, 1, 0, delta=0.1, gamma=gamma, omega=omega, epsilon=1.0)


class TestPoincareMap:
    def test_fixed_point_at_equilibrium(self):
        # damped unforced flow started at a center sinks onto it
        p = OscillatorParams(1, 1, 1, delta=0.3, gamma=0.0, omega=1.4, epsilon=1.0)
        x_e = math.sqrt((math.sqrt(5) - 1) / 2)
        series = poincare_map(p, State(0.0, x_e + 0.05, 0.0), 40, 60)
        assert np.all(np.abs(series.points[:, 0] - x_e) < 1e-6)
        assert np.all(np.abs(series.points[:, 1]) < 1e-6)

    def test_pre_onset_cycle(self):
        series = poincare_map(params(0.30), State(0, 0, 0), 500, 100)
        assert cluster_count(series.points) <= 8

    def test_chaotic_scatter(self):
        series = poincare_map(params(0.35), State(0, 0, 0), 500, 100)
        assert cluster_count(series.points) > 100

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
            state = tr.final_state()
            restarts.append((state.x, state.v))
        assert np.allclose(series.points, restarts, atol=1e-8)

    def test_strobes_are_kernel_dense_output_bitwise(self):
        # the section integrates core.acceleration and strobes the dense
        # output; the point-wise loop is the reference
        p = params(0.30)
        series = poincare_map(p, State(0, 0, 0), 6, 3)
        tr = integrate(lambda t, x, v: acceleration(p, t, x, v), State(0, 0, 0), 9 * T14,
                       StepControl(dt=T14 / 200, method="rk4"))
        expected = [tr.eval(min((3 + j) * T14, tr.t[-1])) for j in range(1, 7)]
        assert np.array_equal(series.points, expected)

    def test_requires_forcing_frequency(self):
        p = OscillatorParams(1, 1, 0, delta=0.1, gamma=0.0, omega=0.0, epsilon=1.0)
        with pytest.raises(ValueError, match="omega"):
            poincare_map(p, State(0, 0, 0), 10, 0)


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
        assert isinstance(out, NoOnset)
        assert out.max_lyapunov <= 0.01

    def test_range_validation(self):
        with pytest.raises(ValueError, match="gamma_range"):
            gamma_scan(1, 1, 0, 0.1, 1.4, (0.5, 0.1), 0.01)


class TestBifurcationData:
    def test_zero_forcing_single_cluster(self):
        p = OscillatorParams(1, 1, 0, delta=0.2, gamma=0.0, omega=1.4, epsilon=1.0)
        data = bifurcation_data(p, [0.0], n_points=40, n_transient=80,
                                s0=State(0.0, 0.5, 0.0))
        gam, xs = data[0]
        assert gam == 0.0
        assert cluster_count(xs.reshape(-1, 1)) == 1
        assert abs(xs[-1] - 1.0) < 1e-5  # the cubic-limit center

    def test_period_doubling_appears(self):
        p = params(0.2)
        sweep = [0.20, 0.24, 0.27, 0.29, 0.31, 0.32, 0.33]
        data = bifurcation_data(p, sweep, n_points=120, n_transient=150)
        counts = [cluster_count(xs.reshape(-1, 1)) for _, xs in data]
        assert counts[0] == 1
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
        assert any(c2 >= 2 * c1 for c1, c2 in zip(counts, counts[1:]))
