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

One pass steps the ensemble in blocks of `_BLOCK` paths and, within a
block, in chunks of `_CHUNK` steps.  For each chunk it draws every path's
next `_CHUNK` increments from the path's own stream, then advances
time-major (step, path) buffers of x, v and scaled increments, so each
step reads and writes contiguous rows.  The pass holds four such buffers,
about 4 * 8 bytes * (`_CHUNK` + 1) * `_BLOCK` (4 MB), whatever the
ensemble size and the horizon.  The loop does not track divergence: after
each chunk, a path is cut before its first row where x or v is not
finite.  The pass keeps each path's cut index and last finite state, and
the full rows only of the paths asked for: `euler_maruyama` keeps every
path, `run_ensemble` only those it returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OscillatorParams, State, Trajectory, _restoring

__all__ = ["SdeConfig", "EnsembleStats", "euler_maruyama", "run_ensemble", "ensemble_stats",
           "path_increments"]

_RNG_NAME = "philox-4x64"
# Paths per block and steps per chunk of the pass (see the module docstring).
_BLOCK = 1024
_CHUNK = 128


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


def _cos(wt: float) -> float:
    """cos(wt), NaN where wt is not finite (a knot time that overflowed)."""
    return math.cos(wt) if math.isfinite(wt) else math.nan


def _em_pass(p: OscillatorParams, cfg: SdeConfig, s0: State, keep: int):
    """Step every path of the ensemble from s0; keep the rows of the first
    `keep` paths.

    Returns the knot times, each path's cut index (its first row where x
    or v is not finite, n_steps + 1 if none), each path's last finite x
    and v, and the (n_steps + 1, keep) x and v rows of the kept paths.
    """
    if not s0.is_finite():
        raise ValueError(f"non-finite initial state {s0}")
    n, dt = cfg.n_steps, cfg.dt
    q = p.epsilon * p.gamma
    scale = math.sqrt(dt)
    cut = np.full(cfg.ensemble, n + 1)
    last_x = np.empty(cfg.ensemble)
    last_v = np.empty(cfg.ensemble)
    keep_x = np.empty((n + 1, keep))
    keep_v = np.empty((n + 1, keep))
    keep_x[0] = s0.x
    keep_v[0] = s0.v
    width, depth = min(_BLOCK, cfg.ensemble), min(_CHUNK, n)
    X = np.empty((depth + 1, width))
    V = np.empty((depth + 1, width))
    noise = np.empty((depth, width))
    draws = np.empty((width, depth))  # path by path, as each stream is drawn
    with np.errstate(over="ignore", invalid="ignore"):
        ts = s0.t + dt * np.arange(n + 1)
        for b0 in range(0, cfg.ensemble, width):
            w = min(width, cfg.ensemble - b0)
            rngs = [_rng_for_path(cfg.seed, j) for j in range(b0, b0 + w)]
            cols = np.arange(w)
            Xb, Vb, Nb = X[:, :w], V[:, :w], noise[:, :w]
            Xb[0] = s0.x
            Vb[0] = s0.v
            for c0 in range(0, n, depth):
                m = min(depth, n - c0)
                for jj, rng in enumerate(rngs):
                    draws[jj, :m] = rng.normal(0.0, scale, m)
                np.multiply(draws[:w, :m].T, cfg.sigma, out=Nb[:m])
                for i in range(m):
                    x, v = Xb[i], Vb[i]
                    Xb[i + 1] = x + v * dt
                    f = _restoring(p, x) - q * v + q * _cos(p.omega * ts[c0 + i])
                    Vb[i + 1] = v + f * dt + Nb[i]
                bad = ~(np.isfinite(Xb[1:m + 1]) & np.isfinite(Vb[1:m + 1]))
                first = bad.argmax(axis=0)
                alive = cut[b0:b0 + w] > n
                hit = alive & bad[first, cols]
                cut[b0:b0 + w][hit] = c0 + 1 + first[hit]
                row = np.where(hit, first, m)
                last_x[b0:b0 + w][alive] = Xb[row, cols][alive]
                last_v[b0:b0 + w][alive] = Vb[row, cols][alive]
                if b0 < keep:
                    k = min(w, keep - b0)
                    keep_x[c0 + 1:c0 + m + 1, b0:b0 + k] = Xb[1:m + 1, :k]
                    keep_v[c0 + 1:c0 + m + 1, b0:b0 + k] = Vb[1:m + 1, :k]
                Xb[0] = Xb[m]
                Vb[0] = Vb[m]
    return ts, cut, last_x, last_v, keep_x, keep_v


def _trajectories(cfg: SdeConfig, ts, cut, X, V) -> list[Trajectory]:
    """The kept paths, each before its cut index."""
    meta = {
        "integrator": "euler-maruyama",
        "rng": _RNG_NAME,
        "seed": cfg.seed,
        "sigma": cfg.sigma,
        "dt": cfg.dt,
    }
    return [Trajectory(ts[:k], X[:k, j], V[:k, j], None,
                       dict(meta, path_index=j, truncated=bool(k <= cfg.n_steps)))
            for j, k in enumerate(cut[:X.shape[1]])]


def euler_maruyama(p: OscillatorParams, cfg: SdeConfig, s0: State) -> list[Trajectory]:
    """Ensemble of Euler-Maruyama paths from s0.

    A path that leaves the finite range is truncated before its first
    non-finite state and flagged in metadata ("truncated": True).
    """
    ts, cut, _, _, X, V = _em_pass(p, cfg, s0, cfg.ensemble)
    return _trajectories(cfg, ts, cut, X, V)


@dataclass(frozen=True)
class EnsembleStats:
    """Cross-path sample moments at one knot time."""

    t: float
    n: int
    mean_x: float
    var_x: float
    mean_v: float
    var_v: float


def _moments(t: float, xs: np.ndarray, vs: np.ndarray) -> EnsembleStats:
    return EnsembleStats(
        t=float(t),
        n=len(xs),
        mean_x=float(xs.mean()),
        var_x=float(xs.var(ddof=1)),
        mean_v=float(vs.mean()),
        var_v=float(vs.var(ddof=1)),
    )


def _check_coverage(t: float, first: np.ndarray, last: np.ndarray) -> None:
    """Raise for the first path whose knot span [first, last] misses t by
    more than rounding: 4 ulps of the nearer end."""
    short = (t > last + 4 * np.spacing(np.abs(last))) | (t < first - 4 * np.spacing(np.abs(first)))
    if short.any():
        j = int(short.argmax())
        raise ValueError(f"path {j} does not cover t={t} (span {float(first[j]), float(last[j])})")


def run_ensemble(p: OscillatorParams, cfg: SdeConfig, s0: State,
                 save_paths: int) -> tuple[list[Trajectory], int, EnsembleStats | None]:
    """The first `save_paths` paths of `euler_maruyama`, the number of
    truncated paths, and `ensemble_stats` at the horizon
    s0.t + n_steps * dt (None for a single path), without keeping the
    other paths' knots.

    Raises the errors of `euler_maruyama` and then `ensemble_stats`.
    """
    ts, cut, last_x, last_v, X, V = _em_pass(p, cfg, s0, min(save_paths, cfg.ensemble))
    # Every path's Trajectory checks its knot times; the longest path's
    # times fail those checks whenever any path's do, with the same error.
    k = int(cut.max())
    Trajectory(ts[:k], np.zeros(k), np.zeros(k))
    stats = None
    if cfg.ensemble >= 2:
        t = s0.t + cfg.n_steps * cfg.dt
        # a path's last finite knot is its knot nearest to the horizon
        _check_coverage(t, np.full(cfg.ensemble, ts[0]), ts[cut - 1])
        stats = _moments(t, last_x, last_v)
    return _trajectories(cfg, ts, cut, X, V), int((cut <= cfg.n_steps).sum()), stats


def ensemble_stats(paths: list[Trajectory], t: float) -> EnsembleStats:
    """Sample mean/variance across paths at the knot nearest to t.

    Needs at least two paths (sample variance) and every path to cover t.
    """
    if not paths:
        raise ValueError("empty ensemble")
    if len(paths) < 2:
        raise ValueError("variance undefined for a single path")
    _check_coverage(t, np.array([tr.t[0] for tr in paths]), np.array([tr.t[-1] for tr in paths]))
    xs = np.empty(len(paths))
    vs = np.empty(len(paths))
    for j, tr in enumerate(paths):
        i = int(np.argmin(np.abs(tr.t - t)))
        xs[j] = tr.x[i]
        vs[j] = tr.v[i]
    return _moments(t, xs, vs)
