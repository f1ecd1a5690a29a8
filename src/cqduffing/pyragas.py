"""Delayed-velocity-feedback chaos suppression: the controller
mu [x'(t - tau) - x'(t)] added to the driven oscillator, periodicity
diagnostics against the target period tau, a deterministic (mu, tau) grid
search ranked by residual control power, and Chebyshev polynomial fitting
of a stabilized orbit window.

A feedback of this form vanishes identically on any tau-periodic orbit,
so a stabilized orbit carries vanishing control power; the controller
norm (sup |x'(t-tau) - x'(t)| over the final window) is the figure of
merit throughout.

The grid search advances its cells in lockstep, bitwise equal to one
`search_cell` per cell.  Cells that share the RK4 step dt = min(T/200,
tau) share their knot times t0 + k dt and forcing samples, so each such
group (split into blocks that fit a ring budget) runs as arrays of lanes,
one per cell, through odeint's in-place RK4 lane step for the core force
law (`odeint._rk4_core_lanes`), which adds the feedback term as
`controlled_rhs` does; a block of fewer than _LOCKSTEP_MIN lanes runs
`search_cell` per cell instead.  A lane keeps a ring of its last 6 tau of
knots, for the periodicity report and the delayed reads, and each delayed
time is read once, from the two knots of its interval.  The block's one loop steps its unfinished lanes
and, as each end time comes, finishes the lanes that share it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (OscillatorParams, State, Trajectory, _hermite5_coeffs, _hermite5_velocity,
                   _is_count, acceleration)
from .odeint import (StepControl, _check_lanes, _forcing_rows, _rk4_core_lanes, _rk4_schedule,
                     integrate_delayed)

__all__ = [
    "ControllerConfig",
    "PeriodicityReport",
    "controlled_rhs",
    "run_controlled",
    "search_mu_tau",
    "chebyshev_fit_orbit",
]

_DEFAULT_PERIODICITY_TOL = 1e-2
# Bytes of knot ring one lane block of the search may hold; a group of
# cells with one step splits into blocks that fit.
_RING_BUDGET = 32 << 20
# Steps per chunk of the lockstep search at most: this bounds the arrays of
# a chunk's delayed reads (chunk x lanes each).
_CHUNK = 32
# Lanes a block needs to run in lockstep; a smaller block runs search_cell
# per cell, since numpy's cost per operation outweighs a few lanes (a block
# of 6 lanes took 0.87 of the time of its 6 scalar cells, one of 5 1.12).
_LOCKSTEP_MIN = 6
# The highest orbit-fit degree: the fig10 window's fit holds to 1.5e-7 at
# degree 30 and is lost at 40 (sup residual 24), even in powers of t - w0.
_FIT_DEGREE_MAX = 30


@dataclass(frozen=True)
class ControllerConfig:
    """Feedback gain, delay, and the pre-start velocity history."""

    mu: float
    tau: float
    history_policy: str = "zero"  # "zero" | "constant"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and 0.0 < self.tau < math.inf):
            raise ValueError(f"mu must be finite and 0 < tau < inf, got mu={self.mu}, tau={self.tau}")
        if self.history_policy not in ("zero", "constant"):
            raise ValueError(f"unknown history policy {self.history_policy!r}")


@dataclass(frozen=True)
class PeriodicityReport:
    """Outcome of the tau-periodicity test on the final window."""

    is_periodic: bool
    period: float
    residual: float         # sup |x(t + period) - x(t)| over the window
    controller_norm: float  # sup |x'(t - tau) - x'(t)| over the window
    tolerance: float


def controlled_rhs(p: OscillatorParams, mu, t, x, v, vd):
    """The delayed-feedback force law: the driven-oscillator acceleration
    plus mu (vd - v), where vd = v(t - tau); on floats or on lane arrays."""
    return acceleration(p, t, x, v) + mu * (vd - v)


def _history_fn(cfg: ControllerConfig, s0: State):
    """Pre-start velocity; constant in t, so it also serves an array of times."""
    v0 = s0.v if cfg.history_policy == "constant" else 0.0
    return lambda t: v0


def run_controlled(
    p: OscillatorParams,
    cfg: ControllerConfig,
    s0: State,
    t_end: float,
    periodicity_tol: float = _DEFAULT_PERIODICITY_TOL,
) -> tuple[Trajectory, PeriodicityReport]:
    """Integrate the controlled equation by RK4 at T/200 (T the forcing
    period, or tau when unforced) and test for a tau-periodic orbit.

    The report is computed on the final 5 tau window: the residual
    compares x(t) with x(t + tau), and the controller norm is the largest
    velocity mismatch the feedback still sees there.
    """
    if not 0.0 < periodicity_tol < math.inf:
        raise ValueError(f"periodicity_tol={periodicity_tol} must be positive and finite")
    tau = cfg.tau
    history = _history_fn(cfg, s0)
    traj = integrate_delayed(partial(controlled_rhs, p, cfg.mu), s0, history, tau, t_end,
                             _default_ctrl(p, tau))
    return traj, _periodicity_report(traj, traj.t[0], tau, history, periodicity_tol)


def _periodicity_report(traj: Trajectory, t0: float, tau: float, history,
                        periodicity_tol: float = _DEFAULT_PERIODICITY_TOL) -> PeriodicityReport:
    """The report on the final 5 tau of traj, a run from t0 that may keep only
    its last 6 tau of knots; delayed reads at or before t0 come from history,
    as in integrate_delayed."""
    t1 = traj.t[-1]
    w_lo = max(t0, t1 - 5.0 * tau)
    ts = np.linspace(w_lo, t1, 400)
    td = ts - tau
    vd = np.where(td > t0, traj.eval(np.maximum(td, t0))[1], history(td))
    controller_norm = float(np.abs(vd - traj.eval(ts)[1]).max())
    residual = math.inf
    if t1 - tau > w_lo:
        ts = np.linspace(w_lo, t1 - tau, 400)
        residual = float(np.abs(traj.eval(ts + tau)[0] - traj.eval(ts)[0]).max())
    return PeriodicityReport(
        is_periodic=bool(residual < periodicity_tol),
        period=tau,
        residual=residual,
        controller_norm=controller_norm,
        tolerance=periodicity_tol,
    )


def _forcing_period(p: OscillatorParams, tau: float) -> float:
    return 2.0 * math.pi / p.omega if p.omega > 0.0 else tau


def _default_ctrl(p: OscillatorParams, tau: float) -> StepControl:
    return StepControl(dt=_forcing_period(p, tau) / 200.0, method="rk4")


def _settle_time(p: OscillatorParams, tau: float, t0: float) -> float:
    return t0 + max(50.0 * _forcing_period(p, tau), 20.0 * tau) + 5.0 * tau


def search_cell(args) -> tuple[float, float, float, bool]:
    """One (mu, tau) search cell: the path of blocks under _LOCKSTEP_MIN lanes,
    which the lanes match bit for bit.  Returns (mu, tau, controller_norm, is_periodic)."""
    p, mu, tau, s0, periodicity_tol = args
    cfg = ControllerConfig(mu=mu, tau=tau)
    _, rep = run_controlled(p, cfg, s0, _settle_time(p, tau, s0.t), periodicity_tol=periodicity_tol)
    return mu, tau, rep.controller_norm, rep.is_periodic


def search_mu_tau(
    p: OscillatorParams,
    mu_range: tuple[float, float],
    tau_range: tuple[float, float],
    grid: tuple[int, int] = (20, 20),
    s0: State = State(0.0, 0.0, 0.0),
    map_fn=map,
) -> list[tuple[float, float, float, bool]]:
    """Evaluate the controller over a (mu, tau) grid, ranked by ascending
    controller norm.  map_fn can be a parallel map; results are merged by
    grid index so the ranking never depends on evaluation order."""
    n_mu, n_tau = grid
    if not (_is_count(n_mu, 1) and _is_count(n_tau, 1)):
        raise ValueError(f"grid must have at least one cell per axis, as integers, got {grid}")
    if not (math.isfinite(mu_range[1] - mu_range[0]) and math.isfinite(tau_range[1] - tau_range[0])):
        raise ValueError(f"mu and tau ranges need finite ends and widths, got {mu_range}, {tau_range}")
    mus = np.linspace(mu_range[0], mu_range[1], n_mu)
    taus = np.linspace(tau_range[0], tau_range[1], n_tau)
    cells = [(float(mu), float(tau)) for mu in mus for tau in taus]
    blocks = _lane_blocks(p, s0, cells)
    out = [None] * len(cells)
    for done in map_fn(_run_lanes, [(p, s0, dt, lanes) for dt, lanes in blocks]):
        for i, cell in done:
            out[i] = cell
    return sorted(out, key=lambda c: (c[2], c[0], c[1]))


def _lane_blocks(p: OscillatorParams, s0: State, cells: list[tuple[float, float]]):
    """The search's lane blocks, as (dt, lanes): cells grouped by their step
    dt, sorted by delay (so by end time) and split to fit _RING_BUDGET.  A
    lane is (grid index, mu, tau, t_end, full steps, final short step).

    Raises search_cell's errors for the first failing cell, before any work.
    """
    groups: dict[float, list] = {}
    for i, (mu, tau) in enumerate(cells):
        ControllerConfig(mu=mu, tau=tau)
        dt, t_end = min(_default_ctrl(p, tau).dt, tau), _settle_time(p, tau, s0.t)
        groups.setdefault(dt, []).append((i, mu, tau, t_end, *_rk4_schedule(s0.t, t_end, dt)))
    blocks = []
    for dt, lanes in groups.items():
        lanes.sort(key=lambda lane: (lane[2], lane[0]))
        block = []
        for lane in lanes:
            lane_bytes = 24 * _ring_knots(dt, lane[2], lane[4])  # x, v, accel in float64
            if block and (len(block) + 1) * lane_bytes > _RING_BUDGET:
                blocks.append((dt, block))
                block = []
            block.append(lane)
        blocks.append((dt, block))
    return blocks


def _ring_knots(dt: float, tau: float, n_end: int) -> int:
    """Knots a lane keeps: its last 6 tau (the report's window and the delay
    before it, which covers the delayed reads), with a few steps to spare,
    at most the whole run."""
    return min(int(6.0 * tau / dt) + 8, n_end + 1)


def _run_lanes(job) -> list[tuple[int, tuple[float, float, float, bool]]]:
    """One lane block of the search in lockstep (per cell below
    _LOCKSTEP_MIN lanes): each cell of search_cell, bitwise, with its grid
    index.  Module-level so worker processes can import it.

    The lanes share the knot times t0 + k dt and are sorted by delay, so
    finished lanes form a prefix.  Once the full steps reach a lane's last
    one, the main loop finishes its end-time group, the lanes with its t_end,
    one group at a time: their final short step, their ring windows and their
    reports.  The other steps run in chunks of at most
    _CHUNK steps and fewer than tau / dt (one step when tau < 2 dt), so a
    chunk's delayed reads reach only knots written before it, and they are
    evaluated together, before its steps.  A read finds its interval by
    arithmetic on the knot times, corrected by one compare to the interval
    that HistoryBuffer's bisect_right picks, and sets up the interval's
    quintic from its two knots.  Each step is one call of
    odeint._rk4_core_lanes's step on the chunk's forcing rows from
    odeint._forcing_rows, which adds mu (vd - v) with the chunk's delayed
    velocities, two rows per step, and its knot goes into the ring in one
    assignment.  A group's final short step is a step made for its lanes,
    on its own forcing rows, and the lanes left continue on a step made for
    them.
    """
    p, s0, dt, lanes = job
    if len(lanes) < _LOCKSTEP_MIN:
        return [(i, search_cell((p, mu, tau, s0, _DEFAULT_PERIODICITY_TOL)))
                for i, mu, tau, *_ in lanes]
    index, mus, taus, t_ends, n_fulls, h_lasts = zip(*lanes)
    n_lanes = len(lanes)
    mu, tau = np.array(mus), np.array(taus)
    t0 = s0.t
    history = _history_fn(ControllerConfig(mu=mus[0], tau=taus[0]), s0)
    n_knots = _ring_knots(dt, taus[-1], n_fulls[-1])
    knots = np.empty((3, n_knots, n_lanes))  # x, v, accel of knot k in row k % n_knots
    lane = np.arange(n_lanes)
    n = 0  # the newest knot

    def delayed(a: int, b: int, times) -> np.ndarray:
        """The delayed velocities of lanes [a, b) at the given times, one row
        per time, read once each, from the knots up to n."""
        times = np.asarray(times)
        td = times[:, None] - tau[a:b]
        t_n, hi = t0 + n * dt, td.max()
        vd = 0.0
        if n:
            k = ((td - t0) / dt - 0.5).astype(np.intp)
            k += t0 + (k + 1) * dt <= td
            tk = t0 + k * dt
            h = t0 + (k + 1) * dt - tk
            # knot k of lane j is column k % n_knots * n_lanes + j of flat:
            # np.take gathers there about twice as fast as knots[:, rows, j]
            j, flat = lane[a:b], knots.reshape(3, -1)
            left = np.take(flat, k % n_knots * n_lanes + j, axis=1)
            right = np.take(flat, (k + 1) % n_knots * n_lanes + j, axis=1)
            vd = _hermite5_velocity((td - tk) / h, h, *left[1:],
                                    *_hermite5_coeffs(h, *left, *right))
        if hi >= t_n:  # at the newest knot: its velocity
            if hi > t_n + 1e-12:
                raise ValueError(f"delayed read at t={hi} beyond recorded history t={t_n}")
            vd = np.where(td >= t_n, knots[1, n % n_knots, a:b], vd)
        if td.min() <= t0:
            vd = np.where(td > t0, vd, history(td))
        if not np.isfinite(vd).all():  # as HistoryBuffer.velocity: the earliest read, then lane
            i, j = np.argwhere(~np.isfinite(vd))[0]
            raise ValueError(f"non-finite delayed read at t={td[i, j]} in the cell {cell(a)(j)}")
        return vd

    def cell(a: int):
        """Names lane j of a step of lanes [a, ...) for _check_lanes."""
        return lambda j: f"mu={mu[a + j]}, tau={tau[a + j]}"

    done = []
    a = 0  # lanes [0, a) are finished
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, v = np.full(n_lanes, s0.x), np.full(n_lanes, s0.v)
        knots[:, 0] = x, v, controlled_rhs(p, mu, t0, x, v, delayed(0, n_lanes, [t0])[0])
        knot, step = _rk4_core_lanes(p, knots[:, 0], dt, mu)
        while a < n_lanes:
            if n_fulls[a] == n:  # lanes [a, c) end at t1: their final short step and reports
                c = next((j for j in range(a, n_lanes) if t_ends[j] != t_ends[a]), n_lanes)
                t1, h = t_ends[a], h_lasts[a]
                ks = np.arange(max(0, n - n_knots + 1), n + 1)
                ts, rows = t0 + ks * dt, ks % n_knots  # the ring window, oldest knot first
                if h:
                    t_n = t0 + n * dt
                    last, step_last = _rk4_core_lanes(p, knot[:, :c - a], h, mu[a:c])
                    (g_half,), (g_end,) = _forcing_rows(p, c - a, [t_n], h)
                    step_last(g_half, g_end, delayed(a, c, [t_n + 0.5 * h, t_n + h]))
                    _check_lanes(t1, last[:2], cell(a))
                    ts = np.append(ts, t1)
                for j in range(a, c):
                    win = knots[:, rows, j]
                    if h:
                        win = np.column_stack([win, last[:, j - a]])
                    rep = _periodicity_report(Trajectory(ts, *win), t0, taus[j], history)
                    done.append((index[j], (mus[j], taus[j], rep.controller_norm, rep.is_periodic)))
                knot, step = _rk4_core_lanes(p, knot[:, c - a:], dt, mu[c:])
                a = c
                continue
            m = min(max(1, int(taus[a] / dt) - 1), _CHUNK, n_fulls[a] - n)
            kt = t0 + np.arange(n, n + m + 1) * dt
            if not (kt[1:] > kt[:-1]).all():
                raise ValueError("history knots must advance in time")
            vd = delayed(a, n_lanes, np.column_stack([kt[:-1] + 0.5 * dt, kt[:-1] + dt]).ravel())
            g_half, g_end = _forcing_rows(p, n_lanes - a, kt[:-1].tolist(), dt)
            for i, gh, ge, vd_i in zip(range(n + 1, n + m + 1), g_half, g_end,
                                       vd.reshape(m, 2, -1)):
                step(gh, ge, vd_i)
                knots[:, i % n_knots, a:] = knot
            if not np.isfinite(knot[:2]).all():
                # a state that is not finite stays so: find where it first was
                for i in range(n + 1, n + m + 1):
                    _check_lanes(t0 + i * dt, knots[:2, i % n_knots, a:], cell(a))
            n += m
    return done


def chebyshev_fit_orbit(traj: Trajectory, window: tuple[float, float],
                        degree: int) -> tuple[np.ndarray, float]:
    """Least-squares polynomial fit of x(t) on the window [w0, w1] at
    Chebyshev nodes; returns monomial coefficients (ascending powers of
    t - w0) and the measured sup residual."""
    w0, w1 = window
    t0, t1 = float(traj.t[0]), float(traj.t[-1])
    if not (t0 - 1e-12 <= w0 < w1 <= t1 + 1e-12):
        raise ValueError(f"window {window} not inside trajectory span {t0, t1}")
    if not _is_count(degree, 1):
        raise ValueError(f"degree must be >= 1 and an integer, got {degree!r}")
    if degree > _FIT_DEGREE_MAX:  # before its nodes are allocated
        raise ValueError(f"degree must be at most {_FIT_DEGREE_MAX}, got {degree!r}")
    n_nodes = max(4 * (degree + 1), 64)
    j = np.arange(n_nodes)
    nodes = np.cos((2 * j + 1) * math.pi / (2 * n_nodes))  # Chebyshev points in (-1, 1)
    ts = 0.5 * (w0 + w1) + 0.5 * (w1 - w0) * nodes
    xs = traj.eval(ts)[0]
    cheb = np.polynomial.chebyshev.Chebyshev.fit(ts - w0, xs, degree, domain=[0.0, w1 - w0])
    poly = cheb.convert(kind=np.polynomial.Polynomial)
    dense = np.linspace(w0, w1, 1024)
    resid = float(np.abs(poly(dense - w0) - traj.eval(dense)[0]).max())
    return np.asarray(poly.coef, dtype=float), resid
