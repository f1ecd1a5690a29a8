import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqduffing import (
    OscillatorParams,
    State,
    StepControl,
    Trajectory,
    energy,
    equilibria,
    integrate,
)
from cqduffing.core import _restoring, acceleration


def bisect_root(f, lo, hi, tol=1e-14):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestRhs:
    def test_origin_is_equilibrium(self):
        p = OscillatorParams(1, 1, 1, epsilon=0)
        assert acceleration(p, 0, 0, 0) == 0.0

    def test_unit_displacement(self):
        p = OscillatorParams(1, 1, 1, epsilon=0)
        assert acceleration(p, 0, 1, 0) == pytest.approx(-1.0, abs=0)

    def test_forced_at_origin(self):
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1)
        assert acceleration(p, 0, 0, 0) == pytest.approx(0.35, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            State(0, math.nan, 0)

    def test_forcing_requires_omega(self):
        with pytest.raises(ValueError, match="omega"):
            OscillatorParams(1, 1, 1, gamma=0.3, omega=0.0, epsilon=1.0)


class TestEquilibria:
    def test_standard_triple(self):
        eqs = equilibria(OscillatorParams(1, 1, 1))
        xs = [e.x for e in eqs]
        # independent root of x^5 + x^3 - x via bisection
        root = bisect_root(lambda x: x**5 + x**3 - x, 0.5, 1.0)
        assert xs == pytest.approx([-root, 0.0, root], abs=1e-12)
        kinds = {e.x: e.kind for e in eqs}
        assert kinds[0.0] == "saddle"
        assert kinds[xs[0]] == "center" and kinds[xs[2]] == "center"
        assert root == pytest.approx(0.78615, abs=1e-5)

    def test_pure_quintic(self):
        eqs = equilibria(OscillatorParams(1, 0, 1))
        assert [e.x for e in eqs] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)
        assert [e.kind for e in eqs] == ["center", "saddle", "center"]

    def test_only_origin_when_complex_roots(self):
        eqs = equilibria(OscillatorParams(-1, 2, 3))
        assert len(eqs) == 1
        assert eqs[0].x == 0.0 and eqs[0].kind == "center"

    def test_cubic_reduction(self):
        eqs = equilibria(OscillatorParams(1, 1, 0))
        assert [e.x for e in eqs] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)

    @given(st.floats(-3, 3), st.floats(-3, 3),
           st.floats(0.05, 3) | st.floats(-3, -0.05) | st.just(0.0))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, a, b, c):
        # |c| bounded away from 0 (or exactly 0) keeps the roots O(1), the
        # scale on which the absolute residual bound is meaningful
        if c == 0.0 and 0.0 < abs(b) < 0.05:
            b = 0.0
        p = OscillatorParams(a, b, c)
        for e in equilibria(p):
            x = e.x
            assert abs(-a * x + b * x**3 + c * x**5) < 1e-12


class TestEnergy:
    def test_zero_at_origin(self):
        assert energy(OscillatorParams(1, 1, 1), 0.0, 0.0) == 0.0

    def test_unit_displacement(self):
        assert energy(OscillatorParams(1, 1, 1), 1.0, 0.0) == pytest.approx(-1 / 12, abs=1e-15)

    def test_kinetic_only(self):
        assert energy(OscillatorParams(-2, 0.3, 5), 0.0, 2.0) == pytest.approx(2.0, abs=0)

    def test_conserved_along_unforced_run(self):
        p = OscillatorParams(1, 1, 1, epsilon=0)
        tr = integrate(lambda t, x, v: acceleration(p, t, x, v), State(0, 0.5, 0.0),
                       50.0, StepControl(abs_tol=1e-10, rel_tol=1e-10))
        E = energy(p, tr.x, tr.v)
        assert np.abs(E - E[0]).max() < 1e-8

    def test_damped_energy_nonincreasing(self):
        p = OscillatorParams(1, 1, 1, delta=0.2, gamma=0.0, epsilon=1.0)
        tr = integrate(lambda t, x, v: acceleration(p, t, x, v), State(0, 0.9, 0.0),
                       40.0, StepControl(abs_tol=1e-10, rel_tol=1e-10))
        E = energy(p, tr.x, tr.v)
        assert np.all(np.diff(E) <= 1e-10)


class TestTrajectory:
    def test_rejects_decreasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(np.array([0.0, 1.0]), np.array([0.0, math.inf]), np.zeros(2))

    def test_overflowing_interpolant_raises_naming_the_time(self):
        # finite knots 1e300 apart: h * h overflows, and 0 * inf would read NaN
        traj = Trajectory(np.array([0.0, 1e300]), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match=r"^non-finite interpolated state at t=0\.0$"):
            traj.eval(0.0)
        with pytest.raises(ValueError, match=r"^non-finite interpolated state at t=5e\+299$"):
            traj.eval(np.array([5e299, 1e300]))


def quintic_restoring(p, x):
    """core._restoring before it took no c term where c is 0, verbatim."""
    x2 = x * x
    return p.a * x - p.b * x * x2 - p.c * x * x2 * x2


class TestRestoring:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3), c=st.sampled_from([0.0, -0.0]),
           xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @example(a=-1.0, b=0.0, c=-0.0, xs=[-0.0, 0.0, 1e-200, -1e200])
    def test_cubic_case_equals_the_quintic_body_bitwise(self, a, b, c, xs):
        # ((c x) x^2) x^2 is +-0 where x^2 is finite: it can move only the sign of a zero
        p = OscillatorParams(a, b, c)
        with np.errstate(all="ignore"):
            for x in [*xs, np.array(xs)]:
                got, want = np.asarray(_restoring(p, x)), np.asarray(quintic_restoring(p, x))
                finite = np.isfinite(want)
                assert np.array_equal(got[finite], want[finite])
                keep = finite & (want != 0.0)
                assert [z.hex() for z in got[keep]] == [z.hex() for z in want[keep]]

    def test_cubic_case_overflows_to_inf_not_nan(self):
        # x x overflows: the c term was 0 * inf = NaN, and the cubic force is inf
        p = OscillatorParams(1.0, 1.0, 0.0)
        assert math.isnan(quintic_restoring(p, -1e200))
        assert _restoring(p, -1e200) == math.inf
        with np.errstate(over="ignore"):
            assert np.array_equal(_restoring(p, np.array([-1e200, 2.0])), [math.inf, -6.0])


class TestAccelerationKernel:
    @pytest.mark.parametrize("params", [
        OscillatorParams(1.0, 1.0, 0.2, delta=0.1, gamma=0.35, omega=1.4),
        OscillatorParams(-1.3, 0.4, -0.7, delta=0.5, gamma=0.0, omega=0.0, epsilon=0.3),
        OscillatorParams(1.0, 1.0, 1.0, epsilon=0.0),
    ])
    def test_arrays_match_float_calls_bitwise(self, params, rng):
        x = rng.uniform(-2.0, 2.0, 257)
        v = rng.uniform(-2.0, 2.0, 257)
        t = 3.7
        expected = [acceleration(params, t, float(xi), float(vi)) for xi, vi in zip(x, v)]
        assert np.array_equal(acceleration(params, t, x, v), np.array(expected))


class TestDenseOutput:
    @staticmethod
    def _duffing_traj():
        p = OscillatorParams(1.0, 1.0, 0.2, delta=0.1, gamma=0.35, omega=1.4)
        return integrate(lambda t, x, v: acceleration(p, t, x, v), State(0.0, 0.1, 0.0), 20.0,
                         StepControl(abs_tol=1e-8, rel_tol=1e-8))

    def test_array_eval_matches_scalar_bitwise(self, rng):
        tr = self._duffing_traj()
        lo, hi = float(tr.t[0]), float(tr.t[-1])
        ts = np.concatenate([[lo, hi, lo - 5e-13, hi + 5e-13], tr.t[1:-1:7],
                             rng.uniform(lo, hi, 500)])
        xs, vs = tr.eval(ts)
        pairs = [tr.eval(float(t)) for t in ts]
        assert all(type(x) is float and type(v) is float for x, v in pairs)
        assert np.array_equal(xs, [x for x, _ in pairs])
        assert np.array_equal(vs, [v for _, v in pairs])
        assert np.array_equal(tr.eval(ts)[0], xs) and np.array_equal(tr.eval(ts)[1], vs)
        grid = ts[:12].reshape(3, 4)
        assert tr.eval(grid)[0].shape == (3, 4)
        for t, pair in zip(ts[:20], pairs):
            scalar = tr.eval(np.float64(t))  # a numpy scalar reads as a float
            assert all(type(z) is float for z in scalar) and scalar == pair
            zero_d = tr.eval(np.array(t))  # a 0-d array keeps numpy's shape ()
            assert all(type(z) is not float and np.shape(z) == () for z in zero_d)
            assert tuple(map(float, zero_d)) == pair

    def test_single_knot_trajectory(self):
        tr = Trajectory(np.array([2.0]), np.array([0.5]), np.array([-1.5]), np.array([0.25]))
        assert tr.eval(2.0) == (0.5, -1.5)
        xs, vs = tr.eval(np.array([2.0, 2.0]))
        assert np.array_equal(xs, [0.5, 0.5]) and np.array_equal(vs, [-1.5, -1.5])

    @pytest.mark.parametrize("t", [
        math.nan, -1e-9, 20.0 + 1e-9,
        np.array([1.0, math.nan]), np.array([-1.0, 1.0]), np.array([1.0, 21.0]),
    ])
    def test_nan_and_out_of_span_raise(self, t):
        tr = self._duffing_traj()
        with pytest.raises(ValueError, match="outside"):
            tr.eval(t)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: OscillatorParams(1.0, math.inf, 0.0), "non-finite oscillator parameter",
                 id="params-inf"),
    pytest.param(lambda: OscillatorParams(1.0, 1.0, 0.0, delta=math.nan),
                 "non-finite oscillator parameter", id="params-nan"),
    pytest.param(lambda: Trajectory(np.zeros(3), np.zeros(2), np.zeros(3)),
                 "equal-length 1-d arrays", id="trajectory-lengths"),
    pytest.param(lambda: Trajectory(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))),
                 "equal-length 1-d arrays", id="trajectory-2d"),
    pytest.param(lambda: Trajectory(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2)).eval(0.5),
                 "no acceleration knots", id="eval-without-accelerations"),
    *[pytest.param(lambda f=field, b=bad: State(**{"t": 0.0, "x": 0.0, "v": 0.0, f: b}),
                   "non-finite initial state", id=f"state-{field}-{name}")
      for field in ("t", "x", "v")
      for name, bad in (("nan", math.nan), ("inf", math.inf), ("neg-inf", -math.inf))],
])
def test_invalid_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("t, x, v", [
    (-0.0, 5e-324, -5e-324), (1.7e308, -1.7e308, -0.0), (5e-324, -0.0, 1.7e308),
])
def test_state_keeps_finite_extremes(t, x, v):
    s = State(t, x, v)
    assert [math.copysign(1.0, f) for f in (s.t, s.x, s.v)] == [math.copysign(1.0, f) for f in (t, x, v)]
    assert (s.t, s.x, s.v) == (t, x, v)
