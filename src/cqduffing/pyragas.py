"""Delayed-velocity-feedback chaos suppression: the controller
mu [x'(t - tau) - x'(t)] added to the driven oscillator, periodicity
diagnostics against the target period tau, a deterministic (mu, tau) grid
search ranked by residual control power, and Chebyshev polynomial fitting
of a stabilized orbit window.

A feedback of this form vanishes identically on any tau-periodic orbit,
so a stabilized orbit carries vanishing control power; the controller
norm (sup |x'(t-tau) - x'(t)| over the final window) is the figure of
merit throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OscillatorParams, State, Trajectory, acceleration
from .odeint import StepControl, integrate_delayed

__all__ = [
    "ControllerConfig",
    "PeriodicityReport",
    "controlled_rhs",
    "run_controlled",
    "search_mu_tau",
    "chebyshev_fit_orbit",
]

_DEFAULT_PERIODICITY_TOL = 1e-2


@dataclass(frozen=True)
class ControllerConfig:
    """Feedback gain, delay, and the pre-start velocity history."""

    mu: float
    tau: float
    history_policy: str = "zero"  # "zero" | "constant"

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise ValueError(f"delay tau must be positive, got {self.tau}")
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


def controlled_rhs(p: OscillatorParams, cfg: ControllerConfig, s: State,
                   delayed_velocity: float) -> float:
    """Driven-oscillator acceleration plus mu (v(t - tau) - v(t))."""
    return acceleration(p, s.t, s.x, s.v) + cfg.mu * (delayed_velocity - s.v)


def _history_fn(cfg: ControllerConfig, s0: State):
    """Pre-start velocity; constant in t, so it also serves an array of times."""
    if cfg.history_policy == "zero":
        return lambda t: 0.0
    v0 = s0.v
    return lambda t: v0


def run_controlled(
    p: OscillatorParams,
    cfg: ControllerConfig,
    s0: State,
    t_end: float,
    ctrl: StepControl | None = None,
    periodicity_tol: float = _DEFAULT_PERIODICITY_TOL,
) -> tuple[Trajectory, PeriodicityReport]:
    """Integrate the controlled equation and test for a tau-periodic orbit.

    The report is computed on the final 5 tau window: the residual
    compares x(t) with x(t + tau), and the controller norm is the largest
    velocity mismatch the feedback still sees there.
    """
    mu, tau = cfg.mu, cfg.tau
    if ctrl is None:
        T = 2.0 * math.pi / p.omega if p.omega > 0.0 else tau
        ctrl = StepControl(dt=T / 200.0, method="rk4")
    history = _history_fn(cfg, s0)
    traj = integrate_delayed(lambda t, x, v, vd: acceleration(p, t, x, v) + mu * (vd - v),
                             s0, history, tau, t_end, ctrl)
    t0, t1 = traj.t[0], traj.t[-1]
    w_lo = max(t0, t1 - 5.0 * tau)
    ts = np.linspace(w_lo, t1, 400)
    td = ts - tau
    vd = np.where(td >= t0, traj.eval_v(np.maximum(td, t0)), history(td))
    controller_norm = float(np.abs(vd - traj.eval_v(ts)).max())
    residual = math.inf
    if t1 - tau > w_lo:
        ts = np.linspace(w_lo, t1 - tau, 400)
        residual = float(np.abs(traj.eval_x(ts + tau) - traj.eval_x(ts)).max())
    report = PeriodicityReport(
        is_periodic=bool(residual < periodicity_tol),
        period=tau,
        residual=residual,
        controller_norm=controller_norm,
        tolerance=periodicity_tol,
    )
    return traj, report


def _settle_time(p: OscillatorParams, tau: float) -> float:
    T = 2.0 * math.pi / p.omega if p.omega > 0.0 else tau
    return max(50.0 * T, 20.0 * tau) + 5.0 * tau


def search_cell(args) -> tuple[float, float, float, bool]:
    """One grid cell of the (mu, tau) search; module-level so worker
    processes can import it.  Returns (mu, tau, controller_norm, is_periodic)."""
    p, mu, tau, s0, periodicity_tol = args
    cfg = ControllerConfig(mu=mu, tau=tau)
    _, rep = run_controlled(p, cfg, s0, _settle_time(p, tau), periodicity_tol=periodicity_tol)
    return mu, tau, rep.controller_norm, rep.is_periodic


def search_mu_tau(
    p: OscillatorParams,
    mu_range: tuple[float, float],
    tau_range: tuple[float, float],
    grid: tuple[int, int] = (20, 20),
    s0: State = State(0.0, 0.0, 0.0),
    periodicity_tol: float = _DEFAULT_PERIODICITY_TOL,
    map_fn=map,
) -> list[tuple[float, float, float, bool]]:
    """Evaluate the controller over a (mu, tau) grid, ranked by ascending
    controller norm.  map_fn can be a parallel map; results are merged by
    grid index so the ranking never depends on evaluation order."""
    n_mu, n_tau = grid
    if n_mu < 1 or n_tau < 1:
        raise ValueError("grid must have at least one cell per axis")
    mus = np.linspace(mu_range[0], mu_range[1], n_mu)
    taus = np.linspace(tau_range[0], tau_range[1], n_tau)
    jobs = [(p, float(mu), float(tau), s0, periodicity_tol) for mu in mus for tau in taus]
    cells = list(map_fn(search_cell, jobs))
    return sorted(cells, key=lambda c: (c[2], c[0], c[1]))


def chebyshev_fit_orbit(traj: Trajectory, window: tuple[float, float],
                        degree: int) -> tuple[np.ndarray, float]:
    """Least-squares polynomial fit of x(t) on the window at Chebyshev
    nodes; returns monomial coefficients (ascending powers of t, in the
    window's own time variable) and the measured sup residual."""
    w0, w1 = window
    if not (traj.t[0] - 1e-12 <= w0 < w1 <= traj.t[-1] + 1e-12):
        raise ValueError(f"window {window} not inside trajectory span {traj.t_span}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n_nodes = max(4 * (degree + 1), 64)
    j = np.arange(n_nodes)
    nodes = np.cos((2 * j + 1) * math.pi / (2 * n_nodes))  # Chebyshev points in (-1, 1)
    ts = 0.5 * (w0 + w1) + 0.5 * (w1 - w0) * nodes
    xs = traj.eval_x(ts)
    cheb = np.polynomial.chebyshev.Chebyshev.fit(ts, xs, degree, domain=[w0, w1])
    poly = cheb.convert(kind=np.polynomial.Polynomial)
    dense = np.linspace(w0, w1, 1024)
    resid = float(np.abs(poly(dense) - traj.eval_x(dense)).max())
    return np.asarray(poly.coef, dtype=float), resid
