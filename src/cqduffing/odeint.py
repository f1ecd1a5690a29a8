"""Time integration for second-order oscillators in first-order form
(x', v') = (v, f(t, x, v)).

Two engines share one trajectory format: a fixed-step classical RK4 and an
adaptive Dormand-Prince 5(4) pair with PI step control.  Both record
accelerations at every knot, so trajectories support dense output through
quintic Hermite interpolation.  A method-of-steps variant integrates
delay equations whose right-hand side reads the velocity at t - tau.

Every run goes through one private helper that hands its knots to a sink,
such as a :class:`HistoryBuffer`, which also answers the delayed reads.
It steps floats.  Numpy lanes of the driven equation under one force law,
a bifurcation sweep's amplitudes or a delayed-feedback search's cells, take
an in-place copy of its RK4 step, bitwise the float step per lane: 60
numpy calls per step (72 with the feedback), 40 in the cubic case c = 0 at
epsilon = 1, on forcing rows gamma cos(omega t) that one helper builds for
a run of steps at a time.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import State, Trajectory, _hermite5_coeffs, _hermite5_velocity

__all__ = ["StepControl", "HistoryBuffer", "IntegrationError", "integrate", "integrate_delayed"]

Rhs = Callable[[float, float, float], float]
DelayedRhs = Callable[[float, float, float, float], float]

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
# The most steps one run may take: RK4's full steps, DP54's tries, the
# amplitude-phase slow flow's steps and a Benettin exponent's steps.
_MAX_STEPS = 5_000_000

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


class IntegrationError(RuntimeError):
    """Integration could not continue; carries the failure time."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class StepControl:
    """Step policy: fixed step dt for method="rk4", tolerances for "dp54"."""

    dt: float | None = None
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    method: str = "dp54"  # "dp54" | "rk4"

    def __post_init__(self) -> None:
        if self.method not in ("dp54", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rk4" and self.dt is None:
            raise ValueError("rk4 needs a positive fixed step dt")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 < self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


class HistoryBuffer:
    """Growing record of (t, x, v, accel) knots with interpolated reads.

    Records the knots of both integrators and builds their trajectory.
    Backs the delayed-velocity lookups of :func:`integrate_delayed`; reads
    before the first knot fall back to the history function, which a
    buffer that is only recorded into may omit.
    """

    def __init__(self, history_v: Callable[[float], float] | None = None):
        self._history_v = history_v
        self.ts: list[float] = []
        self.xs: list[float] = []
        self.vs: list[float] = []
        self.accs: list[float] = []

    def append(self, t: float, x: float, v: float, acc: float) -> None:
        if self.ts and t <= self.ts[-1]:
            raise ValueError("history knots must advance in time")
        self.ts.append(t)
        self.xs.append(x)
        self.vs.append(v)
        self.accs.append(acc)

    def velocity(self, t: float) -> float:
        if not self.ts or t < self.ts[0]:
            if self._history_v is None:
                raise ValueError(f"read at t={t} before the first knot and no history function")
            return float(self._history_v(t))
        if not t < self.ts[-1]:  # NaN too: it fails every comparison
            if t <= self.ts[-1] + 1e-12:
                return self.vs[-1]
            raise ValueError(f"delayed read at t={t} beyond recorded history t={self.ts[-1]}")
        i = bisect_right(self.ts, t) - 1
        h = self.ts[i + 1] - self.ts[i]
        v0, a0 = self.vs[i], self.accs[i]
        vd = _hermite5_velocity((t - self.ts[i]) / h, h, v0, a0, *_hermite5_coeffs(
            h, self.xs[i], v0, a0, self.xs[i + 1], self.vs[i + 1], self.accs[i + 1]))
        if not math.isfinite(vd):  # h * h overflows for knots about 1e154 apart
            raise ValueError(f"non-finite delayed read at t={t}")
        return vd

    def trajectory(self, metadata: dict) -> Trajectory:
        return Trajectory(np.array(self.ts), np.array(self.xs), np.array(self.vs),
                          np.array(self.accs), metadata)


def _check_start(t0: float, t_end: float) -> None:
    if not t0 < t_end < math.inf:
        raise ValueError(f"t_end={t_end} must be finite and exceed the initial time {t0}")


def _check_finite(t: float, x: float, v: float) -> None:
    if not (math.isfinite(x) and math.isfinite(v)):
        raise IntegrationError(f"non-finite state (x={x}, v={v}) at t={t}", t)


def _check_lanes(t: float, xv: np.ndarray, cell=None) -> None:
    """_check_finite on the (2, N) lane states xv: name the first lane whose
    (x, v) is not finite by its index, or by the search cell that cell(i)
    names."""
    if not np.isfinite(xv).all():
        i = int(np.argmin(np.isfinite(xv).all(axis=0)))
        state = f"(x={xv[0, i]}, v={xv[1, i]}) at t={t}"
        raise IntegrationError(f"non-finite state at index {i} {state}" if cell is None
                               else f"non-finite state {state} in the cell {cell(i)}", t)


def _rk4_schedule(t0: float, t_end: float, dt: float) -> tuple[int, float]:
    """The full steps of a fixed-step run from t0 to t_end and the length of
    its final short step (0.0 when the full steps land on t_end); raises
    IntegrationError when the full steps exceed _MAX_STEPS or overflow."""
    _check_start(t0, t_end)
    steps = (t_end - t0) / dt + 1e-9
    if not steps < _MAX_STEPS + 1:  # floor(steps) > _MAX_STEPS, or inf
        raise IntegrationError(f"max_steps={_MAX_STEPS} exceeded at t={t0 + _MAX_STEPS * dt}", t0)
    n_full = int(math.floor(steps))
    t = t0 + n_full * dt
    return n_full, (t_end - t if t_end - t > 1e-12 * max(1.0, abs(t_end)) else 0.0)


def _run_rk4(f: Rhs, t0: float, x: float, v: float, t_end: float, dt: float, sink) -> None:
    """Classical RK4 with a fixed step; a shorter final step lands on t_end."""
    n_full, h_last = _rk4_schedule(t0, t_end, dt)
    acc = f(t0, x, v)
    sink(t0, x, v, acc)
    for i in range(1, n_full + 1):
        t = t0 + (i - 1) * dt
        x, v, acc = _rk4_step(f, t, x, v, dt, acc)
        t = t0 + i * dt
        _check_finite(t, x, v)
        sink(t, x, v, acc)
    if h_last:
        x, v, acc = _rk4_step(f, t0 + n_full * dt, x, v, h_last, acc)
        _check_finite(t_end, x, v)
        sink(t_end, x, v, acc)


def _rk4_step(f: Rhs, t: float, x: float, v: float, dt: float,
              a1: float) -> tuple[float, float, float]:
    """One RK4 step from a known accel a1 = f(t, x, v); returns the new
    (x, v) and the accel at the new point (reusable as the next a1)."""
    h2 = 0.5 * dt
    v2 = v + h2 * a1
    a2 = f(t + h2, x + h2 * v, v2)
    v3 = v + h2 * a2
    a3 = f(t + h2, x + h2 * v2, v3)
    v4 = v + dt * a3
    a4 = f(t + dt, x + dt * v3, v4)
    x_new = x + dt / 6.0 * (v + 2.0 * (v2 + v3) + v4)
    v_new = v + dt / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
    return x_new, v_new, f(t + dt, x_new, v_new)


def _forcing_rows(p, n: int, ts, h: float) -> tuple[np.ndarray, np.ndarray]:
    """gamma cos(omega t) at the middle and the end of RK4 steps of length h
    from the times ts, on n lanes: the (len(ts), n) tables g_half and g_end.
    p.gamma is a float or (n,) lanes; each element is core.acceleration's
    product, since IEEE multiplication commutes."""
    gamma, w, cos = np.broadcast_to(p.gamma, n), p.omega, math.cos
    return (np.multiply.outer([cos(w * (t + 0.5 * h)) for t in ts], gamma),
            np.multiply.outer([cos(w * (t + h)) for t in ts], gamma))


def _rk4_core_lanes(p, knot: np.ndarray, h: float, mu=None):
    """_rk4_step of core.acceleration in place on numpy lanes, element by
    element bitwise the float step: returns a copy of the (3, N) knot (x, v,
    acc) and a step(g_half, g_end, vd=None) that takes it from t to t + h on
    the (N,) forcing rows g_half, g_end of _forcing_rows at t + h/2, t + h.
    p's a, b, c, delta and epsilon are floats, one force law for every lane.
    With the (N,) lane gains mu the force is pyragas.controlled_rhs's, which
    adds mu (vd - v), vd holding the delayed velocities at t + h/2 and t + h
    as two rows.

    Each force takes _restoring's and acceleration's operations in their
    order, with (a, delta) (x, v) as one stacked product, no c term where c
    is 0 (-0.0 too) and no product by epsilon where it is 1 (1.0 y == y).
    Stage k's (x, v, acc) is row k of one (4, 3, N) buffer, so one multiply
    and one add advance its (x, v) from the start by h (v, acc), and the
    weights take 6 calls (2.0 * y as the exact y + y).  A step makes 60 ufunc
    calls, 16 fewer where c is 0, 4 fewer where epsilon is 1 and 12 more with
    the feedback, into buffers made here once, passed as the last positional
    argument; it allocates nothing.
    """
    n = knot.shape[1]
    ad = np.full((2, n), [[p.a], [p.delta]], dtype=float)
    b, c, eps = np.full((3, n), [[p.b], [p.c], [p.epsilon]], dtype=float)
    quintic, unit = p.c != 0.0, p.epsilon == 1.0  # -0.0 counts as 0
    buf, (xx, bx, cx, fb), ad_xv, work = (
        np.empty((4, 3, n)), np.empty((4, n)), np.empty((2, n)), np.empty((2, n)))
    buf[0] = knot
    ax, dv = ad_xv
    # the step sizes as (2, N) rows: a float operand costs numpy more
    h2, h1, h6 = (np.full((2, n), s) for s in (0.5 * h, h, h / 6.0))
    (x1, v1, a1), (x2, v2, a2), (x3, v3, a3), (x4, v4, a4) = buf
    xv1, xv2, xv3, xv4 = buf[:, :2]
    d1, d2, d3, d4 = buf[:, 1:]  # stage k's (v, acc)
    mul, add, sub = np.multiply, np.add, np.subtract

    def force(x, v, xv, acc, g, vd):
        mul(x, x, xx)  # _restoring: (a x - (b x) xx) - ((c x) xx) xx, xx = x x
        mul(b, x, bx)
        mul(bx, xx, bx)
        mul(ad, xv, ad_xv)  # (a x, delta v)
        sub(ax, bx, acc)
        if quintic:
            mul(c, x, cx)
            mul(cx, xx, cx)
            mul(cx, xx, cx)
            sub(acc, cx, acc)
        sub(g, dv, dv)  # + eps (gamma cos(omega t) - delta v)
        if not unit:
            mul(eps, dv, dv)
        add(acc, dv, acc)
        if vd is not None:  # + mu (vd - v)
            sub(vd, v, fb)
            mul(mu, fb, fb)
            add(acc, fb, acc)

    def step(g_half, g_end, vd=None) -> None:
        vd_half, vd_end = (None, None) if vd is None else vd
        mul(d1, h2, work)  # stage k + 1 starts at the state + hk (v, acc) of stage k
        add(xv1, work, xv2)
        force(x2, v2, xv2, a2, g_half, vd_half)
        mul(d2, h2, work)
        add(xv1, work, xv3)
        force(x3, v3, xv3, a3, g_half, vd_half)
        mul(d3, h1, work)
        add(xv1, work, xv4)
        force(x4, v4, xv4, a4, g_end, vd_end)
        add(d2, d3, work)  # the weights 1, 2, 2, 1 on the stages' (v, acc)
        add(work, work, work)
        add(d1, work, work)
        add(work, d4, work)
        mul(h6, work, work)
        add(xv1, work, xv1)
        force(x1, v1, xv1, a1, g_end, vd_end)

    return buf[0], step


def _initial_dt(f: Rhs, t0: float, x: float, v: float, t_end: float, ctrl: StepControl) -> float:
    if ctrl.dt is not None:
        return min(ctrl.dt, t_end - t0)
    a0 = f(t0, x, v)
    scale = max(abs(v), abs(a0), 1e-8)
    guess = (ctrl.abs_tol + ctrl.rel_tol * max(abs(x), abs(v))) ** 0.2 / scale ** 0.5
    return min(max(guess, 1e-8), (t_end - t0) / 10.0, 0.1)


def _run_dp54(f: Rhs, t0: float, x: float, v: float, t_end: float, ctrl: StepControl,
              sink, dt_cap: float = math.inf) -> tuple[int, int]:
    """Adaptive Dormand-Prince 5(4) with PI step-size control (FSAL)."""
    _check_start(t0, t_end)
    t = t0
    kx = [0.0] * 7
    kv = [0.0] * 7
    acc = f(t, x, v)
    sink(t, x, v, acc)
    kx[0], kv[0] = v, acc
    dt = min(_initial_dt(f, t0, x, v, t_end, ctrl), dt_cap)
    err_prev = 1.0
    n_accept = n_reject = 0
    steps = 0
    while t < t_end - 1e-13 * max(1.0, abs(t_end)):
        if steps >= _MAX_STEPS:
            raise IntegrationError(f"max_steps={_MAX_STEPS} exceeded at t={t}", t)
        steps += 1
        dt = min(dt, t_end - t, dt_cap)
        for i in range(1, 7):
            xi = x
            vi = v
            row = _A[i]
            for j, aij in enumerate(row):
                xi += dt * aij * kx[j]
                vi += dt * aij * kv[j]
            ti = t + _C[i] * dt
            kx[i] = vi
            kv[i] = f(ti, xi, vi)
        # 5th-order solution is stage 7's state (FSAL)
        x_new, v_new = xi, vi
        a_new = kv[6]
        ex = dt * sum(e * k for e, k in zip(_E, kx))
        ev = dt * sum(e * k for e, k in zip(_E, kv))
        sx = ctrl.abs_tol + ctrl.rel_tol * max(abs(x), abs(x_new))
        sv = ctrl.abs_tol + ctrl.rel_tol * max(abs(v), abs(v_new))
        err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ev / sv) ** 2))
        if err <= 1.0:
            t = t + dt
            x, v = x_new, v_new
            _check_finite(t, x, v)
            sink(t, x, v, a_new)
            kx[0], kv[0] = kx[6], kv[6]
            fac = _SAFETY * (err + 1e-16) ** (-_PI_ALPHA) * (err_prev + 1e-16) ** _PI_BETA
            err_prev = max(err, 1e-16)
            n_accept += 1
        else:
            fac = max(_FAC_MIN, _SAFETY * err ** (-0.2))
            n_reject += 1
        dt *= min(_FAC_MAX, max(_FAC_MIN, fac))
        if dt <= 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow (dt={dt}) at t={t}", t)
    return n_accept, n_reject


def _drive(f: Rhs, s0: State, t_end: float, ctrl: StepControl, sink, meta: dict,
           dt_cap: float = math.inf) -> dict:
    """Run the engine that ctrl names with steps no longer than dt_cap into
    sink(t, x, v, acc), return meta."""
    if ctrl.method == "rk4":
        meta["dt"] = min(ctrl.dt, dt_cap)
        _run_rk4(f, s0.t, s0.x, s0.v, t_end, meta["dt"], sink)
    else:
        n_acc, n_rej = _run_dp54(f, s0.t, s0.x, s0.v, t_end, ctrl, sink, dt_cap)
        meta.update(abs_tol=ctrl.abs_tol, rel_tol=ctrl.rel_tol,
                    n_accepted=n_acc, n_rejected=n_rej)
    return meta


def integrate(rhs: Rhs, s0: State, t_end: float, ctrl: StepControl | None = None) -> Trajectory:
    """Integrate (x', v') = (v, rhs(t, x, v)) from s0 up to t_end.

    Returns a densely evaluable trajectory; raises IntegrationError naming
    the failure time when the state blows up or _MAX_STEPS is hit.
    """
    ctrl = ctrl or StepControl()
    buf = HistoryBuffer()
    return buf.trajectory(_drive(rhs, s0, t_end, ctrl, buf.append,
                                 {"integrator": ctrl.method, "dense": "hermite5"}))


def integrate_delayed(
    rhs_with_delay: DelayedRhs,
    s0: State,
    history_v: Callable[[float], float],
    tau: float,
    t_end: float,
    ctrl: StepControl | None = None,
) -> Trajectory:
    """Method-of-steps integration of x'' = rhs(t, x, v, v(t - tau)).

    The delayed velocity is read from the accumulated knots by Hermite
    interpolation; at or before s0.t the history function supplies it.
    Steps never exceed tau, so every delayed read is already recorded.
    Both engines evaluate the right-hand side twice in a row at one time
    (RK4 at t + dt/2 and t + dt, DP54 at t + dt), so the delayed velocity
    is read once per distinct time; read times only advance across new
    knots, so a repeated time always sees the same knots.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"delay tau must be positive and finite, got {tau}")
    ctrl = ctrl or StepControl()
    buf = HistoryBuffer(history_v)
    t0 = s0.t
    last = [math.nan, 0.0]  # the latest (td, vd)

    def f(t: float, x: float, v: float) -> float:
        td = t - tau
        if td != last[0]:
            last[0] = td
            last[1] = buf.velocity(td) if td > t0 else float(history_v(td))
        return rhs_with_delay(t, x, v, last[1])

    meta = {"integrator": f"{ctrl.method}+delay", "dense": "hermite5", "tau": tau}
    return buf.trajectory(_drive(f, s0, t_end, ctrl, buf.append, meta, dt_cap=tau))
