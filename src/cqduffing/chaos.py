"""Stroboscopic Poincare maps, largest-Lyapunov-exponent estimation, the
chaos-onset forcing scan, and bifurcation-diagram data.  Sections keep only
the two knots around each strobe time and build no trajectory; a long
bifurcation sweep steps its amplitudes as lanes of one array, in chunks
from strobe to strobe with one finiteness test each.  Where c is 0 the
force of a section and of a sweep's lanes takes no c term.

The Benettin exponent steps a reference trajectory and its companion
through one RK4 step function, on forcing samples shared per step.  The
scan's numpy lanes take an in-place copy of that step, which makes the same
operations in the same order with no temporaries.  Where c is 0 both take
x ** 3 alone, one libm pow per stage; a run diverges where a power
overflows or the state is not finite at an interval's end.  The chaos
classifier is fixed and reproducible: a forcing amplitude is called
chaotic when that exponent exceeds a threshold (default 0.01) at two
consecutive grid amplitudes, and the onset is then refined by bisection
from the first such pair, down to the resolution or to a bracket one ulp
wide.  A scan whose rows' coarse grids hold _SCAN_LANES_MIN (24) or more
positive amplitudes computes all their exponents as flat (params, gamma)
lanes, bitwise equal to one lyapunov_max call each, in passes that are
slices of that list of at most _SCAN_LANES_BUDGET (32 MB) of forcing table,
about 3500 amplitudes at 200 steps per period.  A smaller scan computes a
row's coarse exponents in order only up to its first chaotic pair.  Scans
are deterministic functions of the grid, the start state, and the step
policy, and each (omega, gamma) cell is independent, so callers may
evaluate cells in parallel and merge by index without changing results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from types import MethodType, SimpleNamespace

import numpy as np

from . import odeint
from .core import OscillatorParams, State, _hermite5, _is_count, acceleration
from .odeint import (StepControl, _check_lanes, _drive, _forcing_rows, _rk4_core_lanes,
                     _rk4_schedule)

__all__ = [
    "ChaosScanRow",
    "poincare_map",
    "lyapunov_max",
    "gamma_scan",
    "gamma_scan_rows",
    "bifurcation_data",
    "cluster_count",
]

_STEPS_PER_PERIOD = 200
_TRANSIENT_PERIODS = 100
_MEASURE_PERIODS = 400
_D0 = 1e-8  # the companion's start offset
_CLUSTER_RADIUS = 1e-3  # cluster_count's: strobes this close are one cluster
# At c = 0 an in-place lane pass costs ~9 float sections: the fig7 sweep
# took 0.70-0.77 s as lanes and 0.078-0.092 s per amplitude as floats
# (process-time medians at 6 to 14 amplitudes, 2-vCPU Xeon).  Where c is
# not 0 the lanes take 4 calls per force more, and it was ~11-12.
_LOCKSTEP_MIN = 10
# Steps per chunk of a sweep at most: its two forcing tables hold 2 KB per
# lane.  A strobe also ends a chunk.
_SWEEP_CHUNK = 128
# A scan's lane pass of 8-42 amplitudes costs as much as 9-15 lazy exponents
# (2-vCPU Xeon); the lazy walk reads about half a window whose onset may lie
# anywhere in it, so the lanes pay from about 24 amplitudes.
_SCAN_LANES_MIN = 24
# Bytes of forcing table one lane pass may hold: 48 per amplitude and step
# (3 samples for a reference and a companion lane, float64), 9.6 kB per
# amplitude at 200 steps per period.  table1's 1827 amplitudes take 17.5 MB;
# a larger scan runs in several passes.
_SCAN_LANES_BUDGET = 32 << 20
# The most coarse steps one scan window may take.  Its grid is a list of
# floats and its lanes a list of (params, gamma) pairs, about 100 bytes per
# amplitude, so 10 MB at the bound; at the full table's 45 ms per lane
# amplitude (2-vCPU Xeon) such a window is over an hour of exponents.
# table1's widest window takes 20 steps.
_GRID_MAX = 10**5


@dataclass(frozen=True)
class ChaosScanRow:
    """One scan result: onset amplitude gamma_c and the exponent there.  A
    window with no onset has gamma_c = NaN and its largest coarse exponent."""

    omega: float
    gamma_c: float
    lyapunov: float


class _Strobes:
    """Integrator sink that keeps, for each strobe time, only the two knots
    Trajectory.eval would interpolate between, and interpolates there."""

    def __init__(self, times):
        self.times = chain(times, [math.inf])
        self.next = next(self.times)
        self.points: list = []
        self.knots = (None, None)

    def append(self, t: float, x, v, acc) -> None:
        self.knots = (self.knots[1], (t, x, v, acc))
        while t > self.next:
            self._read(self.next)

    def _read(self, t: float) -> None:
        (t0, x0, v0, a0), (t1, x1, v1, a1) = self.knots
        self.points.append(_hermite5((t - t0) / (t1 - t0), t1 - t0, x0, v0, a0, x1, v1, a1))
        self.next = next(self.times)

    def finish(self) -> np.ndarray:
        while self.next < math.inf:  # at or past the last knot: the final interval
            self._read(min(self.next, self.knots[1][0]))
        return np.array(self.points)


def poincare_map(
    p: OscillatorParams,
    s0: State,
    n_points: int,
    n_transient: int = _TRANSIENT_PERIODS,
    ctrl: StepControl | None = None,
) -> np.ndarray:
    """Strobe one trajectory once per forcing period after n_transient discarded
    periods: the (n_points, 2) array of displacement and velocity.

    Continuing a single trajectory is equivalent to the restart
    construction (re-posing the i.v.p. from each period's end state) by
    uniqueness of solutions; dense output supplies the exact strobe times.
    An array p.gamma of k amplitudes (see bifurcation_data) steps them as
    lanes, by RK4 only, and gives (n_points, 2, k).  A strobe that is not
    finite raises ValueError naming its time, and for lanes its index.
    """
    if p.omega <= 0.0:
        raise ValueError("poincare_map needs omega > 0")
    if not (_is_count(n_points) and _is_count(n_transient)):
        raise ValueError(f"n_points={n_points} and n_transient={n_transient} must be finite >= 0 "
                         "integers")
    if not n_points:  # the empty section, before any step
        return np.empty((0, 2) + np.shape(p.gamma))
    T = 2.0 * math.pi / p.omega
    ctrl = ctrl or StepControl(dt=T / _STEPS_PER_PERIOD, method="rk4")
    t_end = s0.t + (n_transient + n_points) * T
    strobes = _Strobes(s0.t + (n_transient + k) * T for k in range(1, n_points + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # the step and strobe checks report it
        if np.ndim(p.gamma):
            _sweep(p, s0, t_end, ctrl, strobes)
        else:
            # acceleration bound to p as a method, not a functools.partial: CPython
            # calls a bound Python function inline, about 13% faster per call.
            _drive(MethodType(acceleration, p), s0, t_end, ctrl, strobes.append, {})
        points = strobes.finish().reshape((n_points, 2) + np.shape(p.gamma))
    bad = ~np.isfinite(points).all(axis=1)  # finite knots whose interpolant overflows
    if bad.any():
        k, *lane = np.argwhere(bad)[0].tolist()
        where = f" at index {lane[0]}" if lane else ""
        raise ValueError(f"non-finite strobe{where} at t={s0.t + (n_transient + k + 1) * T}")
    return points


def _sweep(p, s0: State, t_end: float, ctrl: StepControl, strobes: _Strobes) -> None:
    """poincare_map's RK4 run for an array p.gamma, on lanes of odeint's
    in-place core-law step: each amplitude bitwise its own float run.  Full
    steps go in chunks, on the chunk's forcing rows, that end at the step a
    strobe falls in or after _SWEEP_CHUNK steps.  The step overwrites its
    knot, which strobes would keep by reference, so strobes gets copies of
    the two knots of a step a strobe falls in, and of the last step, which
    strobes.finish reads.  A chunk tests finiteness at its end (a state that
    is not finite stays so); a failed test replays it from a copy of its
    start, checking each step, to name the first failure."""
    if ctrl.method != "rk4":
        raise ValueError(f"an array gamma steps by rk4, not {ctrl.method!r}")
    t0, dt = s0.t, ctrl.dt
    n_full, h_last = _rk4_schedule(t0, t_end, dt)
    start = np.array(np.broadcast_arrays(s0.x, s0.v, acceleration(p, t0, s0.x, s0.v)))
    strobes.append(t0, *start)
    n = start.shape[1]
    knot, step = _rk4_core_lanes(p, start, dt)
    i = 0  # the full steps taken
    while i < n_full:
        j, cap = i + 1, min(n_full, i + _SWEEP_CHUNK)  # steps i + 1 to j
        while j < cap and t0 + j * dt < strobes.next:
            j += 1
        due = t0 + j * dt >= strobes.next or j == n_full and not h_last
        g_half, g_end = _forcing_rows(p, n, [t0 + k * dt for k in range(i, j)], dt)
        begin = knot.copy()
        for k in range(j - i - 1):
            step(g_half[k], g_end[k])
        if due:
            strobes.append(t0 + (j - 1) * dt, *knot.copy())
        step(g_half[-1], g_end[-1])
        if not np.isfinite(knot[:2]).all():
            knot[:] = begin
            for k in range(j - i):
                step(g_half[k], g_end[k])
                _check_lanes(t0 + (i + k + 1) * dt, knot[:2])
        if due:
            strobes.append(t0 + j * dt, *knot.copy())
        i = j
    if h_last:  # the short step goes on a copy of the last knot, which stays as it is
        t = t0 + n_full * dt
        strobes.append(t, *knot)
        knot, step = _rk4_core_lanes(p, knot, h_last)
        (g_half,), (g_end,) = _forcing_rows(p, n, [t], h_last)
        step(g_half, g_end)
        _check_lanes(t_end, knot[:2])
        strobes.append(t_end, *knot)


def _diverged(t_base: float) -> ValueError:
    return ValueError(f"trajectory diverged near t={float(t_base)}")


def _benettin_intervals(p, t0, t_total, renorm_interval, t_transient, steps_per_period):
    """(renorm_interval, t_transient, steps per interval, interval count) of
    lyapunov_max from t0, with its default transient filled in; raises
    IntegrationError at t0 when the run's steps are not below odeint._MAX_STEPS."""
    T = 2.0 * math.pi / p.omega if p.omega > 0.0 else 2.0 * math.pi
    if t_transient is None:
        t_transient = _TRANSIENT_PERIODS * T
    if not (0.0 < renorm_interval < math.inf and 0.0 <= t_transient < math.inf):
        raise ValueError(f"renorm_interval={renorm_interval} must be > 0 and t_transient="
                         f"{t_transient} >= 0, both finite")
    if not _is_count(steps_per_period, 1):
        raise ValueError(f"steps_per_period must be >= 1 and an integer, got {steps_per_period}")
    if not t_transient + renorm_interval < t_total < math.inf:
        raise ValueError(f"t_total must exceed the transient plus one interval and be finite, "
                         f"got {t_total}")
    per_interval = steps_per_period * renorm_interval / T
    if not max(2, per_interval) * (t_total / renorm_interval) < odeint._MAX_STEPS:
        raise odeint.IntegrationError(
            f"max_steps={odeint._MAX_STEPS} exceeded at t={float(t0)}", t0)
    n_steps = max(2, int(round(per_interval)))
    return renorm_interval, t_transient, n_steps, int(math.ceil(t_total / renorm_interval))


def _cos_samples(w: float, t_base: float, dt: float, n_steps: int) -> list[list[float]]:
    """cos(w t) at the start, middle and end of each step of one interval."""
    h2, cos = 0.5 * dt, math.cos
    ts = [t_base + i * dt for i in range(n_steps)]
    return [[cos(w * t) for t in ts], [cos(w * (t + h2)) for t in ts],
            [cos(w * (t + dt)) for t in ts]]


def _rk4_step(a_, b_, c_, d_, dt):
    """One RK4 step of x'' = a x - b x^3 - c x^5 + f - d x' on floats, on the
    forcing samples f0, fh, f1 at its start, middle and end, in that force
    law's x ** 3, x ** 5 order.  Where c is 0 (-0.0 too) the step is cubic,
    with no x ** 5: c x ** 5 is +-0 there, which can move only the sign of a
    zero, so every finite result keeps its bits, and the step overflows only
    where x ** 3 does.  _rk4_lanes takes the same operations, in this order,
    on the scan's lanes."""
    h2, h6 = 0.5 * dt, dt / 6.0

    def step(x, v, f0, fh, f1):
        a1 = a_ * x - b_ * x ** 3.0 - c_ * x ** 5.0 + f0 - d_ * v
        xb, vb = x + h2 * v, v + h2 * a1
        a2 = a_ * xb - b_ * xb ** 3.0 - c_ * xb ** 5.0 + fh - d_ * vb
        xc, vc = x + h2 * vb, v + h2 * a2
        a3 = a_ * xc - b_ * xc ** 3.0 - c_ * xc ** 5.0 + fh - d_ * vc
        xd, vd = x + dt * vc, v + dt * a3
        a4 = a_ * xd - b_ * xd ** 3.0 - c_ * xd ** 5.0 + f1 - d_ * vd
        return (x + h6 * (v + 2.0 * (vb + vc) + vd),
                v + h6 * (a1 + 2.0 * (a2 + a3) + a4))

    def cubic(x, v, f0, fh, f1):
        a1 = a_ * x - b_ * x ** 3.0 + f0 - d_ * v
        xb, vb = x + h2 * v, v + h2 * a1
        a2 = a_ * xb - b_ * xb ** 3.0 + fh - d_ * vb
        xc, vc = x + h2 * vb, v + h2 * a2
        a3 = a_ * xc - b_ * xc ** 3.0 + fh - d_ * vc
        xd, vd = x + dt * vc, v + dt * a3
        a4 = a_ * xd - b_ * xd ** 3.0 + f1 - d_ * vd
        return (x + h6 * (v + 2.0 * (vb + vc) + vd),
                v + h6 * (a1 + 2.0 * (a2 + a3) + a4))

    return step if c_ else cubic


def _rk4_lanes(a_, b_, c_, d_, dt):
    """_rk4_step in place on lanes, for the float coefficients a_, b_, c_, d_
    and the (N,) steps dt: the (2, N) state (x, v) it returns goes one step
    per step(f0, fh, f1) call, element by element bitwise the float step, in
    its order of operations (2.0 * y as the exact y + y).  x ** 3 and x ** 5
    come from one np.float_power call, which runs libm pow per element and
    so rounds as Python's float ** does (np.power does not); where c is 0
    (-0.0 too), x ** 3 alone.  Stage k's (x, v, acc) is row k of one
    (4, 3, N) buffer, so its (x, v) and its derivative (v, acc) are
    overlapping (2, N) views, and one multiply and one add advance both;
    (a, d) and (b, c) multiply as stacked pairs.  A step is 40 ufunc calls
    (36 where c is 0) into buffers made here once, passed as the last
    positional argument, which costs less than out=; it allocates nothing.
    """
    n, quintic = len(dt), c_ != 0.0  # -0.0 counts as 0
    ad, bc = np.full((2, 2, n), [[[a_], [d_]], [[b_], [c_]]], dtype=float)
    expo, bc = (np.full((2, n), [[3.0], [5.0]]), bc) if quintic else (3.0, bc[0])
    buf, pows, work = np.empty((4, 3, n)), np.empty(bc.shape), np.empty((2, n))
    bx3, cx5 = pows if quintic else (pows, None)
    ax, dv = work
    state = buf[0, :2]
    # the step sizes as (2, N) rows: a broadcast (N,) operand costs numpy more
    h2, h1, h6 = (np.tile(h, (2, 1)) for h in (0.5 * dt, dt, dt / 6.0))
    # stage k: its x, its (x, v), its acc, its (v, acc), the next stage's
    # (x, v) and the step to it from the start state (None after the last)
    nexts, hs = (buf[1, :2], buf[2, :2], buf[3, :2], None), (h2, h2, h1, None)
    stages = [(buf[k, 0], buf[k, :2], buf[k, 2], buf[k, 1:], nexts[k], hs[k]) for k in range(4)]
    d1, d2, d3, d4 = buf[:, 1:]
    power, mul, add, sub = np.float_power, np.multiply, np.add, np.subtract

    def step(f0, fh, f1):
        for (x, xv, acc, deriv, nxt, h), f in zip(stages, (f0, fh, fh, f1)):
            power(x, expo, pows)  # x ** 3, and x ** 5 below it where c is not 0
            mul(bc, pows, pows)
            mul(ad, xv, work)  # (a x, d v)
            sub(ax, bx3, acc)
            if quintic:
                sub(acc, cx5, acc)
            add(acc, f, acc)
            sub(acc, dv, acc)
            if h is not None:
                mul(deriv, h, work)
                add(state, work, nxt)
        add(d2, d3, work)  # the weights 1, 2, 2, 1 on the stages' (v, acc)
        add(work, work, work)
        add(d1, work, work)
        add(work, d4, work)
        mul(h6, work, work)
        add(state, work, state)

    return state, step


def lyapunov_max(
    p: OscillatorParams,
    s0: State,
    t_total: float,
    renorm_interval: float,
    *,
    d0: float = _D0,
    steps_per_period: int = _STEPS_PER_PERIOD,
    t_transient: float | None = None,
) -> float:
    """Largest Lyapunov exponent by the Benettin two-trajectory method.

    A companion trajectory starts offset d0 in displacement; both are
    advanced by one RK4 step function on shared forcing samples, the
    separation is renormalized to d0 after every interval, and the exponent
    is the mean log stretch per unit time after the transient discard.  A
    run that overflows a power (x ** 5, or x ** 3 where c is 0 and the step
    takes no x ** 5) or ends an interval with a state that is not finite
    raises ValueError naming that interval's start time.
    """
    interval, t_transient, n_steps, n_intervals = _benettin_intervals(
        p, s0.t, t_total, renorm_interval, t_transient, steps_per_period)
    if not 0.0 < d0 < math.inf:
        raise ValueError(f"d0 must be positive and finite, got {d0}")
    dt = interval / n_steps
    step = _rk4_step(p.a, p.b, p.c, p.epsilon * p.delta, dt)
    g_ = p.epsilon * p.gamma
    x1, v1 = s0.x, s0.v
    x2, v2 = s0.x + d0, s0.v
    t_base = s0.t
    total = 0.0
    t_measured = 0.0
    for _ in range(n_intervals):
        try:
            for c0, ch, c1 in zip(*_cos_samples(p.omega, t_base, dt, n_steps)):
                f0, fh, f1 = g_ * c0, g_ * ch, g_ * c1
                x1, v1 = step(x1, v1, f0, fh, f1)
                x2, v2 = step(x2, v2, f0, fh, f1)
        except OverflowError:  # x ** 3 raises where x * x * x would give inf
            x1 = math.inf
        if not all(map(math.isfinite, (x1, v1, x2, v2))):
            raise _diverged(t_base)
        t_base += interval
        dx, dv = x2 - x1, v2 - v1
        d = math.sqrt(dx * dx + dv * dv)
        if d == 0.0:
            d = 1e-300
        if t_base - s0.t > t_transient:
            total += math.log(d / d0)
            t_measured += interval
        scale = d0 / d
        x2, v2 = x1 + dx * scale, v1 + dv * scale
    return total / t_measured


def _lyapunov_lanes(lanes, s0: State, steps_per_period: int, transient_periods: int,
                    measure_periods: int) -> list:
    """The exponents of gamma_scan's (p, gamma) lanes in one pass of numpy lanes.

    The lane (p, gamma) is bitwise _scan_exponent(p, gamma, s0, ...), or the
    ValueError that call raises.  Every p has one force law (a, b, c, epsilon
    delta), and lanes with equal p share a row, which keeps its own interval
    count, interval start and transient test; its forcing comes from
    math.cos once per sample and interval and is scaled per lane, and
    math.log is taken per lane, since np.log rounds differently.  The rows
    of _rk4_lanes's state hold the reference lanes and then the companion
    lanes: a flat row of 2 L costs numpy less than a (2, L) block.
    """
    rows = {p: r for r, p in enumerate(dict.fromkeys(p for p, _ in lanes))}
    interval, t_transient, steps, n_intervals = map(np.array, zip(*(
        _benettin_intervals(p, s0.t, *_scan_times(p, transient_periods, measure_periods),
                            steps_per_period) for p in rows)))
    n_steps = int(steps[0])  # renorm_interval = T: every row has max(2, steps_per_period)
    dt = interval / n_steps
    row = np.array([rows[p] for p, _ in lanes])
    n = len(row)
    lane = np.tile(row, 2)  # the row of each reference and each companion lane
    (coeffs,) = {(p.a, p.b, p.c, p.epsilon * p.delta) for p in rows}  # one force law
    (x, v), step = _rk4_lanes(*coeffs, dt[lane])
    g = np.tile([p.epsilon * gamma for p, gamma in lanes], 2)
    x[:n], x[n:], v[:] = s0.x, s0.x + _D0, s0.v
    t_base = np.full(len(rows), float(s0.t))
    t_measured = np.zeros(len(rows))
    total = np.zeros(n)
    out: list = [None] * n
    live = np.ones(n, dtype=bool)  # lanes not yet finished or diverged
    forcing = np.empty((3, n_steps, 2 * n))  # one interval's samples, refilled per interval
    with np.errstate(over="ignore", invalid="ignore"):  # the interval check reports overflow
        for k in range(n_intervals.max()):
            cosines = np.array([_cos_samples(p.omega, t, h, n_steps)
                                for p, t, h in zip(rows, t_base.tolist(), dt.tolist())])
            # mode="clip" fills out directly; the default "raise" buffers a copy of it
            np.take(cosines.transpose(1, 2, 0), lane, axis=2, out=forcing, mode="clip")
            forcing *= g
            for f0, fh, f1 in zip(*forcing):
                step(f0, fh, f1)
            bad = live & ~(np.isfinite(x) & np.isfinite(v)).reshape(2, n).all(axis=0)
            for j in np.flatnonzero(bad):
                out[j] = _diverged(t_base[row[j]])
            live &= ~bad
            t_base += interval
            measured = t_base - s0.t > t_transient
            t_measured[measured] += interval[measured]
            x1, v1, x2, v2 = x[:n], v[:n], x[n:], v[n:]
            dx, dv = x2 - x1, v2 - v1
            d = np.sqrt(dx * dx + dv * dv)
            d[d == 0.0] = 1e-300
            logged = live & measured[row]
            total[logged] += [math.log(q) for q in (d[logged] / _D0).tolist()]
            scale = _D0 / d
            x2[:], v2[:] = x1 + dx * scale, v1 + dv * scale
            done = live & (n_intervals == k + 1)[row]
            for j in np.flatnonzero(done):
                out[j] = float(total[j]) / float(t_measured[row[j]])
            live &= ~done
            if not live.any():
                break
    return out


def _grid_steps(lo: float, hi: float, coarse_step: float) -> int:
    """The whole coarse steps in [lo, hi], or a ValueError naming coarse_step
    when they are more than _GRID_MAX or not finite."""
    steps = (hi - lo) / coarse_step
    if not steps <= _GRID_MAX:
        raise ValueError(f"coarse_step {coarse_step!r} cuts [{lo!r}, {hi!r}] into more than "
                         f"{_GRID_MAX} steps")
    return int(math.floor(steps))


def _coarse_grid(lo: float, hi: float, coarse_step: float) -> list[float]:
    grid = [lo + i * coarse_step for i in range(_grid_steps(lo, hi, coarse_step) + 1)]
    if grid[-1] < hi - 1e-12:
        grid.append(hi)
    return grid


def gamma_scan(
    a: float,
    b: float,
    c: float,
    delta: float,
    omega: float,
    gamma_range: tuple[float, float],
    resolution: float,
    *,
    coarse_step: float | None = None,
    lyap_threshold: float = 0.01,
    s0: State = State(0.0, 0.0, 0.0),
    steps_per_period: int = _STEPS_PER_PERIOD,
    transient_periods: int = _TRANSIENT_PERIODS,
    measure_periods: int = _MEASURE_PERIODS,
) -> ChaosScanRow:
    """Smallest forcing amplitude classified chaotic at this omega.

    Grid search at coarse_step (chaotic = exponent above threshold at two
    consecutive amplitudes), then bisection down to `resolution` inside
    the bracketing interval.  Deterministic for fixed inputs.  With no
    onset in range, gamma_c is NaN and the exponent the largest coarse one.
    The one-row call of gamma_scan_rows.
    """
    return gamma_scan_rows(a, b, c, delta, [(omega, gamma_range)], resolution,
                           coarse_step=coarse_step, lyap_threshold=lyap_threshold, s0=s0,
                           steps_per_period=steps_per_period, transient_periods=transient_periods,
                           measure_periods=measure_periods)[0]


def gamma_scan_rows(
    a: float,
    b: float,
    c: float,
    delta: float,
    windows,
    resolution: float,
    *,
    coarse_step: float | None = None,
    lyap_threshold: float = 0.01,
    s0: State = State(0.0, 0.0, 0.0),
    steps_per_period: int = _STEPS_PER_PERIOD,
    transient_periods: int = _TRANSIENT_PERIODS,
    measure_periods: int = _MEASURE_PERIODS,
) -> list[ChaosScanRow]:
    """gamma_scan for each (omega, gamma_range) window, in order.

    When the windows' coarse grids hold _SCAN_LANES_MIN or more positive
    amplitudes, their exponents come from passes of flat (p, gamma) lanes
    (_lyapunov_lanes), bitwise the lyapunov_max calls they replace; the
    onset walk then reads them in grid order, and a diverged lane raises
    only when read.
    Smaller scans compute a row's coarse exponents in order only up to its
    first chaotic pair.  Bisection calls lyapunov_max either way.
    """
    for omega, gamma_range in windows:
        lo, hi = gamma_range
        if not 0.0 <= lo < hi < math.inf:
            raise ValueError(
                f"gamma_range must be finite, ordered and nonnegative, got {gamma_range}")
        if not 0.0 < omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {omega}")
    if coarse_step is None:
        coarse_step = max(resolution, 0.01)
    for name, step in (("resolution", resolution), ("coarse_step", coarse_step)):
        if not 0.0 < step < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {step}")
    if not math.isfinite(lyap_threshold):
        raise ValueError(f"lyap_threshold must be finite, got {lyap_threshold}")
    periods = dict(steps_per_period=steps_per_period, transient_periods=transient_periods,
                   measure_periods=measure_periods)
    rows = [(OscillatorParams(a=a, b=b, c=c, delta=delta, omega=omega, epsilon=1.0),
             _coarse_grid(*gamma_range, coarse_step)) for omega, gamma_range in windows]
    for p, _ in rows:  # every row's Benettin schedule, before any exponent
        _benettin_intervals(p, s0.t, *_scan_times(p, transient_periods, measure_periods),
                            steps_per_period)
    lanes = [(p, g) for p, grid in rows for g in grid if g > 0.0]
    known: dict = {}  # the lane passes' exponents by (p, gamma)
    if len(lanes) >= _SCAN_LANES_MIN:
        # passes of at most _SCAN_LANES_BUDGET bytes of forcing table, 48 per
        # lane and step; lanes do not interact, so each equals its one-pass value
        per_pass = max(1, _SCAN_LANES_BUDGET // (48 * max(2, steps_per_period)))
        for k in range(0, len(lanes), per_pass):
            known.update(zip(lanes[k:k + per_pass],
                             _lyapunov_lanes(lanes[k:k + per_pass], s0, **periods)))
    out = []
    for p, grid in rows:
        exps: list[float] = []
        onset_i = None
        for i, g in enumerate(grid):
            e = -math.inf if g <= 0.0 else (
                known[p, g] if known else _scan_exponent(p, g, s0, **periods))
            if isinstance(e, ValueError):
                raise e
            exps.append(e)
            if i > 0 and exps[i - 1] > lyap_threshold and e > lyap_threshold:
                onset_i = i - 1
                break
        if onset_i is None:
            out.append(ChaosScanRow(omega=p.omega, gamma_c=math.nan, lyapunov=float(max(exps))))
            continue
        g_hi = grid[onset_i]
        e_hi = exps[onset_i]
        g_lo = grid[max(onset_i - 1, 0)]
        while g_hi - g_lo > resolution:
            mid = 0.5 * (g_lo + g_hi)
            if not g_lo < mid < g_hi:  # a bracket one ulp wide has no mid
                break
            e_mid = _scan_exponent(p, mid, s0, **periods)
            if e_mid > lyap_threshold:
                g_hi, e_hi = mid, e_mid
            else:
                g_lo = mid
        out.append(ChaosScanRow(omega=p.omega, gamma_c=g_hi, lyapunov=e_hi))
    return out


def _scan_times(p: OscillatorParams, transient_periods: int, measure_periods: int) -> tuple:
    """(t_total, renorm_interval, t_transient) of a scan exponent, which
    renormalizes once per forcing period."""
    T = 2.0 * math.pi / p.omega
    return (transient_periods + measure_periods) * T, T, transient_periods * T


def _scan_exponent(p: OscillatorParams, gamma: float, s0: State, steps_per_period: int,
                   transient_periods: int, measure_periods: int) -> float:
    t_total, T, t_transient = _scan_times(p, transient_periods, measure_periods)
    return lyapunov_max(replace(p, gamma=gamma), s0, t_total, T,
                        steps_per_period=steps_per_period, t_transient=t_transient)


def bifurcation_data(
    p: OscillatorParams,
    gamma_sweep,
    n_points: int = 120,
    n_transient: int = _TRANSIENT_PERIODS,
    s0: State = State(0.0, 0.0, 0.0),
) -> list[tuple[float, np.ndarray]]:
    """Post-transient strobe displacements for each forcing amplitude.  A sweep
    of _LOCKSTEP_MIN or more is one poincare_map on an array of gamma, whose
    amplitudes step as lanes of odeint's in-place RK4 step, each bitwise its
    own section."""
    checked = [replace(p, gamma=float(g)) for g in gamma_sweep]
    if len(checked) < _LOCKSTEP_MIN:
        return [(q.gamma, poincare_map(q, s0, n_points, n_transient)[:, 0].copy())
                for q in checked]
    sweep = SimpleNamespace(**{**vars(p), "gamma": np.array([q.gamma for q in checked])})
    points = poincare_map(sweep, s0, n_points, n_transient)
    return [(q.gamma, points[:, 0, k].copy()) for k, q in enumerate(checked)]


def cluster_count(points: np.ndarray) -> int:
    """Greedy count of distinct clusters of radius _CLUSTER_RADIUS (diagnostic
    for period-k orbits versus scattered chaotic sections)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim > 2 or pts.ndim == 2 and pts.shape[1] not in (1, 2):
        raise ValueError(f"points must be 1-D or of shape (n, 1) or (n, 2), got shape {pts.shape}")
    if pts.ndim < 2 or pts.shape[1] == 1:  # displacements alone, as bifurcation_data gives
        pts = np.column_stack([pts.ravel(), np.zeros(pts.size)])
    centers: list[np.ndarray] = []
    for q in pts:
        if not any(np.hypot(*(q - c)) <= _CLUSTER_RADIUS for c in centers):
            centers.append(q)
    return len(centers)
