"""Stroboscopic Poincare maps, largest-Lyapunov-exponent estimation, the
chaos-onset forcing scan, and bifurcation-diagram data.  Sections keep only
the two knots around each strobe time and build no trajectory; a long
bifurcation sweep strobes its amplitudes as one array.

The Benettin exponent steps a reference trajectory and its companion
through one RK4 step function, on forcing samples shared per step.  The
chaos classifier is fixed and reproducible: a forcing amplitude is called
chaotic when that exponent exceeds a threshold (default 0.01) at two
consecutive grid amplitudes, the first such pair ends the coarse grid, and
the onset is then refined by bisection.  Scans are deterministic functions
of the grid, the start state, and the step policy, and each (omega, gamma)
cell is independent, so callers may evaluate cells in parallel and merge by
index without changing results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MethodType, SimpleNamespace

import numpy as np

from .core import OscillatorParams, State, _hermite5, acceleration
from .odeint import StepControl, _drive

__all__ = [
    "PoincareSeries",
    "ChaosScanRow",
    "poincare_map",
    "lyapunov_max",
    "gamma_scan",
    "bifurcation_data",
    "cluster_count",
]

_STEPS_PER_PERIOD = 200
_TRANSIENT_PERIODS = 100
_MEASURE_PERIODS = 400
_LOCKSTEP_MIN = 24  # an array step costs ~23 float steps (34 vs 1.5 us, 2-vCPU Xeon)


@dataclass(frozen=True)
class PoincareSeries:
    """Stroboscopic samples (P_n, Q_n) at t = n 2pi/omega, n starting
    after the discarded transient prefix."""

    points: np.ndarray  # shape (n, 2): displacement, velocity
    omega: float
    n_transient: int
    metadata: dict | None = None


@dataclass(frozen=True)
class ChaosScanRow:
    """One scan result: onset amplitude gamma_c and the exponent there.  A
    window with no onset has gamma_c = NaN and its largest coarse exponent."""

    omega: float
    gamma_c: float
    lyapunov: float


def _strobe_ctrl(omega: float, steps_per_period: int = _STEPS_PER_PERIOD) -> StepControl:
    return StepControl(dt=(2.0 * math.pi / omega) / steps_per_period, method="rk4")


class _Strobes:
    """Integrator sink that keeps, for each strobe time, only the two knots
    Trajectory.eval would interpolate between, and interpolates there."""

    def __init__(self, times: list[float]):
        self.times = iter(times + [math.inf])
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
) -> PoincareSeries:
    """Strobe one trajectory at integer multiples of the forcing period.

    Continuing a single trajectory is equivalent to the restart
    construction (re-posing the i.v.p. from each period's end state) by
    uniqueness of solutions; dense output supplies the exact strobe times.
    An array p.gamma (see bifurcation_data) gives points of shape (n, 2, k).
    """
    if p.omega <= 0.0:
        raise ValueError("poincare_map needs omega > 0")
    T = 2.0 * math.pi / p.omega
    ctrl = ctrl or _strobe_ctrl(p.omega)
    t_end = s0.t + (n_transient + n_points) * T
    strobes = _Strobes((s0.t + (n_transient + np.arange(1, n_points + 1)) * T).tolist())
    # acceleration bound to p as a method, not a functools.partial: CPython
    # calls a bound Python function inline, about 13% faster per call.
    with np.errstate(over="ignore", invalid="ignore"):  # the step check reports overflow
        _drive(MethodType(acceleration, p), s0, t_end, ctrl, strobes.append, {})
    points = strobes.finish().reshape((n_points, 2) + np.shape(p.gamma))
    return PoincareSeries(points=points, omega=p.omega, n_transient=n_transient,
                          metadata={"params": p, "ctrl": ctrl, "s0": s0})


def lyapunov_max(
    p: OscillatorParams,
    s0: State,
    t_total: float,
    renorm_interval: float | None = None,
    *,
    d0: float = 1e-8,
    steps_per_period: int = _STEPS_PER_PERIOD,
    t_transient: float | None = None,
) -> float:
    """Largest Lyapunov exponent by the Benettin two-trajectory method.

    A companion trajectory starts offset d0 in displacement; both are
    advanced by one RK4 step function on shared forcing samples, the
    separation is renormalized to d0 after every interval, and the exponent
    is the mean log stretch per unit time after the transient discard.
    """
    T = 2.0 * math.pi / p.omega if p.omega > 0.0 else 2.0 * math.pi
    if renorm_interval is None:
        renorm_interval = T
    if t_transient is None:
        t_transient = _TRANSIENT_PERIODS * T
    if t_total <= t_transient + renorm_interval:
        raise ValueError("t_total must exceed the transient plus one interval")
    n_steps = max(2, int(round(steps_per_period * renorm_interval / T)))
    dt = renorm_interval / n_steps
    h2, h6 = 0.5 * dt, dt / 6.0
    a_, b_, c_ = p.a, p.b, p.c
    g_ = p.epsilon * p.gamma
    d_ = p.epsilon * p.delta
    w_ = p.omega
    cos = math.cos

    def step(x, v, f0, fh, f1):
        # the force law in its x ** 3, x ** 5 order; f0, fh, f1 the forcing
        a1 = a_ * x - b_ * x ** 3 - c_ * x ** 5 + f0 - d_ * v
        xb, vb = x + h2 * v, v + h2 * a1
        a2 = a_ * xb - b_ * xb ** 3 - c_ * xb ** 5 + fh - d_ * vb
        xc, vc = x + h2 * vb, v + h2 * a2
        a3 = a_ * xc - b_ * xc ** 3 - c_ * xc ** 5 + fh - d_ * vc
        xd, vd = x + dt * vc, v + dt * a3
        a4 = a_ * xd - b_ * xd ** 3 - c_ * xd ** 5 + f1 - d_ * vd
        return (x + h6 * (v + 2.0 * (vb + vc) + vd),
                v + h6 * (a1 + 2.0 * (a2 + a3) + a4))

    x1, v1 = s0.x, s0.v
    x2, v2 = s0.x + d0, s0.v
    t_base = s0.t
    total = 0.0
    t_measured = 0.0
    for _ in range(int(math.ceil(t_total / renorm_interval))):
        try:
            for i in range(n_steps):
                t = t_base + i * dt
                f0, fh, f1 = g_ * cos(w_ * t), g_ * cos(w_ * (t + h2)), g_ * cos(w_ * (t + dt))
                x1, v1 = step(x1, v1, f0, fh, f1)
                x2, v2 = step(x2, v2, f0, fh, f1)
        except OverflowError:  # x ** 3 raises where x * x * x would give inf
            x1 = math.inf
        if not all(map(math.isfinite, (x1, v1, x2, v2))):
            raise ValueError(f"trajectory diverged near t={t_base}")
        t_base += renorm_interval
        dx, dv = x2 - x1, v2 - v1
        d = math.sqrt(dx * dx + dv * dv)
        if d == 0.0:
            d = 1e-300
        if t_base - s0.t > t_transient:
            total += math.log(d / d0)
            t_measured += renorm_interval
        scale = d0 / d
        x2, v2 = x1 + dx * scale, v1 + dv * scale
    return total / t_measured


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
    """
    lo, hi = gamma_range
    if not (0.0 <= lo < hi):
        raise ValueError(f"gamma_range must be ordered and nonnegative, got {gamma_range}")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if coarse_step is None:
        coarse_step = max(resolution, 0.01)
    T = 2.0 * math.pi / omega
    t_total = (transient_periods + measure_periods) * T
    t_transient = transient_periods * T

    def exponent(gamma: float) -> float:
        p = OscillatorParams(a=a, b=b, c=c, delta=delta, gamma=gamma, omega=omega, epsilon=1.0)
        return lyapunov_max(p, s0, t_total, T, steps_per_period=steps_per_period,
                            t_transient=t_transient)

    grid = [lo + i * coarse_step for i in range(int(math.floor((hi - lo) / coarse_step)) + 1)]
    if grid[-1] < hi - 1e-12:
        grid.append(hi)
    exps: list[float] = []  # lazy: only a window with no onset reads every coarse exponent
    onset_i = None
    for i, g in enumerate(grid):
        exps.append(exponent(g) if g > 0.0 else -math.inf)
        if i > 0 and exps[i - 1] > lyap_threshold and exps[i] > lyap_threshold:
            onset_i = i - 1
            break
    if onset_i is None:
        return ChaosScanRow(omega=omega, gamma_c=math.nan, lyapunov=float(max(exps)))
    g_hi = grid[onset_i]
    e_hi = exps[onset_i]
    g_lo = grid[onset_i - 1] if onset_i > 0 else max(lo, 0.0)
    while g_hi - g_lo > resolution:
        mid = 0.5 * (g_lo + g_hi)
        e_mid = exponent(mid)
        if e_mid > lyap_threshold:
            g_hi, e_hi = mid, e_mid
        else:
            g_lo = mid
    return ChaosScanRow(omega=omega, gamma_c=g_hi, lyapunov=e_hi)


def bifurcation_data(
    p: OscillatorParams,
    gamma_sweep,
    n_points: int = 120,
    n_transient: int = _TRANSIENT_PERIODS,
    s0: State = State(0.0, 0.0, 0.0),
) -> list[tuple[float, np.ndarray]]:
    """Post-transient strobe displacements for each forcing amplitude.  A sweep
    of _LOCKSTEP_MIN or more is one poincare_map on arrays of gamma and state,
    which the force law's *, + and - round elementwise as floats, bitwise."""
    checked = [replace(p, gamma=float(g)) for g in gamma_sweep]
    if len(checked) < _LOCKSTEP_MIN:
        return [(q.gamma, poincare_map(q, s0, n_points, n_transient).points[:, 0].copy())
                for q in checked]
    sweep = SimpleNamespace(**{**vars(p), "gamma": np.array([q.gamma for q in checked])})
    points = poincare_map(sweep, s0, n_points, n_transient).points
    return [(q.gamma, points[:, 0, k].copy()) for k, q in enumerate(checked)]


def cluster_count(points: np.ndarray, radius: float = 1e-3) -> int:
    """Greedy count of distinct clusters at the given radius (diagnostic
    for period-k orbits versus scattered chaotic sections)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
    centers: list[np.ndarray] = []
    for q in pts:
        if not any(np.hypot(*(q - c)) <= radius for c in centers):
            centers.append(q)
    return len(centers)
