"""Euler-Maruyama integration of the stochastic oscillator and ensemble
moment bookkeeping.

The stochastic form couples damping and forcing through one modulation
product q = epsilon * gamma:

    dx = v dt
    dv = (a x - b x^3 - c x^5 - q v + q cos(omega t)) dt + sigma dW,

with dW Gaussian of variance dt.  (delta plays no role here; the
modulation factor gamma multiplies both the velocity drag and the
harmonic drive.)  Every path draws its increments from its own Philox
counter stream keyed by (seed, path index), so ensembles are reproducible
and independent of evaluation order: parallel generation gives the same
paths as serial.

`euler_maruyama` steps the whole ensemble in one time-major pass: the
scaled increments and the states x and v are (step, path) arrays, about
3 * 8 bytes * (n_steps + 1) * ensemble in all, so each step reads and
writes contiguous rows.  The loop does not track divergence; afterwards
each path is cut before its first row where x or v is not finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OscillatorParams, State, Trajectory

__all__ = ["SdeConfig", "EnsembleStats", "euler_maruyama", "ensemble_stats", "path_increments"]

_RNG_NAME = "philox-4x64"


@dataclass(frozen=True)
class SdeConfig:
    """Step, horizon, noise scale, and ensemble bookkeeping."""

    dt: float
    n_steps: int
    seed: int
    sigma: float = 0.1
    ensemble: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.ensemble < 1:
            raise ValueError(f"ensemble must be >= 1, got {self.ensemble}")


def _rng_for_path(seed: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, path_index))))


def path_increments(cfg: SdeConfig, path_index: int) -> np.ndarray:
    """The Wiener increments (variance dt) of one path's own substream."""
    rng = _rng_for_path(cfg.seed, path_index)
    return rng.normal(0.0, math.sqrt(cfg.dt), cfg.n_steps)


def euler_maruyama(p: OscillatorParams, cfg: SdeConfig, s0: State) -> list[Trajectory]:
    """Ensemble of Euler-Maruyama paths from s0.

    A path that leaves the finite range is truncated before its first
    non-finite state and flagged in metadata ("truncated": True).
    """
    if not s0.is_finite():
        raise ValueError(f"non-finite initial state {s0}")
    n = cfg.n_steps
    dt = cfg.dt
    q = p.epsilon * p.gamma
    noise = np.empty((n, cfg.ensemble))
    for j in range(cfg.ensemble):
        noise[:, j] = path_increments(cfg, j)
    noise *= cfg.sigma
    ts = s0.t + dt * np.arange(n + 1)
    X = np.empty((n + 1, cfg.ensemble))
    V = np.empty((n + 1, cfg.ensemble))
    X[0] = s0.x
    V[0] = s0.v
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            x = X[i]
            v = V[i]
            x2 = x * x
            drift_v = (p.a * x - p.b * x * x2 - p.c * x * x2 * x2 - q * v
                       + q * math.cos(p.omega * ts[i]))
            X[i + 1] = x + v * dt
            V[i + 1] = v + drift_v * dt + noise[i]
    bad = ~(np.isfinite(X) & np.isfinite(V))
    cut = np.where(bad.any(axis=0), bad.argmax(axis=0), n + 1)
    meta = {
        "integrator": "euler-maruyama",
        "rng": _RNG_NAME,
        "seed": cfg.seed,
        "sigma": cfg.sigma,
        "dt": dt,
    }
    return [Trajectory(ts[:k], X[:k, j], V[:k, j], None,
                       dict(meta, path_index=j, truncated=bool(k <= n)))
            for j, k in enumerate(cut)]


@dataclass(frozen=True)
class EnsembleStats:
    """Cross-path sample moments at one knot time."""

    t: float
    n: int
    mean_x: float
    var_x: float
    mean_v: float
    var_v: float


def ensemble_stats(paths: list[Trajectory], t: float) -> EnsembleStats:
    """Sample mean/variance across paths at the knot nearest to t.

    Needs at least two paths (sample variance) and every path to cover t.
    """
    if not paths:
        raise ValueError("empty ensemble")
    if len(paths) < 2:
        raise ValueError("variance undefined for a single path")
    xs = np.empty(len(paths))
    vs = np.empty(len(paths))
    for j, tr in enumerate(paths):
        if t > tr.t[-1] + 1e-12 or t < tr.t[0] - 1e-12:
            raise ValueError(f"path {j} does not cover t={t} (span {tr.t_span})")
        i = int(np.argmin(np.abs(tr.t - t)))
        xs[j] = tr.x[i]
        vs[j] = tr.v[i]
    return EnsembleStats(
        t=float(t),
        n=len(paths),
        mean_x=float(xs.mean()),
        var_x=float(xs.var(ddof=1)),
        mean_v=float(vs.mean()),
        var_v=float(vs.var(ddof=1)),
    )
