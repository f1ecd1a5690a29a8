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
next `_CHUNK` increments from the path's own stream and scales them into a
time-major (step, path) buffer, so each step reads one contiguous row.  A
block's state is one (x, v) pair of rows, which each step updates in
place.  The pass holds two buffers of draws and increments, about 2 * 8
bytes * `_CHUNK` * `_BLOCK` (4 MB), whatever the ensemble size and the
horizon.  The loop does not track divergence.  Under the Euler-Maruyama
update with dt > 0 a non-finite x or v stays non-finite, so each chunk
tests its paths once, at its end, and replays only those that failed in
it, from the chunk's start state, to find the row before which each is
cut.  The pass keeps each path's cut index and last finite state, and the
full rows only of the paths asked for: `euler_maruyama` keeps every path,
`run_ensemble` only those it returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OscillatorParams, State, Trajectory, _is_count, _restoring

__all__ = ["SdeConfig", "EnsembleStats", "euler_maruyama", "run_ensemble", "ensemble_stats",
           "path_increments"]

_RNG_NAME = "philox-4x64"
# Paths per block and steps per chunk of the pass (see the module docstring).
_BLOCK = 1024
_CHUNK = 256


@dataclass(frozen=True)
class SdeConfig:
    """Step, horizon, noise scale, and ensemble bookkeeping."""

    dt: float
    n_steps: int
    seed: int
    sigma: float = 0.1
    ensemble: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        for name, n, least in (("n_steps", self.n_steps, 1), ("ensemble", self.ensemble, 1),
                               ("seed", self.seed, 0)):
            if not _is_count(n, least):
                raise ValueError(f"{name} must be >= {least} and an integer, got {n!r}")


def _rng_for_path(seed: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, path_index))))


def path_increments(cfg: SdeConfig, path_index: int) -> np.ndarray:
    """The Wiener increments (variance dt) of one path's own substream."""
    rng = _rng_for_path(cfg.seed, path_index)
    return rng.normal(0.0, math.sqrt(cfg.dt), cfg.n_steps)


def _cos(wt: float) -> float:
    """cos(wt), NaN where wt is not finite (a knot time that overflowed)."""
    return math.cos(wt) if math.isfinite(wt) else math.nan


def _draw(rngs, draws: np.ndarray, noise: np.ndarray, dt: float, sigma: float) -> None:
    """Fill noise, (m, w), with the next m increments sigma dW of each of
    the w paths' streams, drawn row by row into draws, (w, m), by the
    operations of sigma * path_increments: (0.0 + sqrt(dt) z) sigma."""
    for rng, row in zip(rngs, draws):
        rng.standard_normal(out=row)
    np.multiply(draws.T, math.sqrt(dt), noise)
    np.add(noise, 0.0, noise)  # Generator.normal's loc
    np.multiply(noise, sigma, noise)


def _em_step(p: OscillatorParams, q: float, dt: float, x: np.ndarray, v: np.ndarray,
             drive: float, dw: np.ndarray) -> None:
    """One Euler-Maruyama step of the rows x, v in place: x + v dt and
    (v + f dt) + dw, with f = _restoring(p, x) - q v + drive."""
    f = _restoring(p, x) - q * v + drive
    x += v * dt
    v += f * dt
    v += dw


def _em_pass(p: OscillatorParams, cfg: SdeConfig, s0: State, keep: int):
    """Step every path of the ensemble from s0; keep the rows of the first
    `keep` paths.

    Returns the knot times, each path's cut index (its first row where x
    or v is not finite, n_steps + 1 if none), each path's last finite
    (x, v) as a (2, ensemble) array, and the (n_steps + 1, 2, keep) (x, v)
    rows of the kept paths.
    """
    n, dt = cfg.n_steps, cfg.dt
    q = p.epsilon * p.gamma
    cut = np.full(cfg.ensemble, n + 1)
    last = np.empty((2, cfg.ensemble))
    kept = np.empty((n + 1, 2, keep))
    kept[0, 0], kept[0, 1] = s0.x, s0.v
    width, depth = min(_BLOCK, cfg.ensemble), min(_CHUNK, n)
    noise = np.empty((depth, width))
    draws = np.empty((width, depth))  # path by path, as each stream is drawn
    with np.errstate(over="ignore", invalid="ignore"):
        ts = s0.t + dt * np.arange(n + 1)
        for b0 in range(0, cfg.ensemble, width):
            w = min(width, cfg.ensemble - b0)
            k = max(0, min(w, keep - b0))
            rngs = [_rng_for_path(cfg.seed, j) for j in range(b0, b0 + w)]
            xv = np.empty((2, w))
            xv[0], xv[1] = s0.x, s0.v
            x, v = xv
            for c0 in range(0, n, depth):
                m = min(depth, n - c0)
                dws = noise[:m, :w]
                _draw(rngs, draws[:w, :m], dws, dt, cfg.sigma)
                start = xv.copy()
                drives = [q * _cos(p.omega * t) for t in ts[c0:c0 + m].tolist()]
                for i, (drive, dw) in enumerate(zip(drives, dws), c0 + 1):
                    _em_step(p, q, dt, x, v, drive, dw)
                    if k:
                        kept[i, :, b0:b0 + k] = xv[:, :k]
                # a non-finite x or v stays so: replay the paths that are
                # finite at the chunk's start and not at its end
                failed = np.flatnonzero(~np.isfinite(xv).all(axis=0) & (cut[b0:b0 + w] > n))
                if failed.size:
                    rxv = start[:, failed]
                    replay = np.empty((m + 1, 2, failed.size))
                    replay[0] = rxv
                    for drive, dw, row in zip(drives, dws[:, failed], replay[1:]):
                        _em_step(p, q, dt, *rxv, drive, dw)
                        row[...] = rxv
                    first = (~np.isfinite(replay).all(axis=1)).argmax(axis=0)
                    cut[b0 + failed] = c0 + first
                    last[:, b0 + failed] = replay[first - 1, :, np.arange(failed.size)].T
            np.copyto(last[:, b0:b0 + w], xv, where=cut[b0:b0 + w] > n)
    return ts, cut, last, kept


def _trajectories(cfg: SdeConfig, ts, cut, kept) -> list[Trajectory]:
    """The kept paths, each before its cut index."""
    meta = {
        "integrator": "euler-maruyama",
        "rng": _RNG_NAME,
        "seed": cfg.seed,
        "sigma": cfg.sigma,
        "dt": cfg.dt,
    }
    return [Trajectory(ts[:k], kept[:k, 0, j], kept[:k, 1, j], None,
                       dict(meta, path_index=j, truncated=bool(k <= cfg.n_steps)))
            for j, k in enumerate(cut[:kept.shape[2]])]


def euler_maruyama(p: OscillatorParams, cfg: SdeConfig, s0: State) -> list[Trajectory]:
    """Ensemble of Euler-Maruyama paths from s0.

    A path that leaves the finite range is truncated before its first
    non-finite state and flagged in metadata ("truncated": True).
    """
    ts, cut, _, kept = _em_pass(p, cfg, s0, cfg.ensemble)
    return _trajectories(cfg, ts, cut, kept)


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
    more than rounding: 4 ulps of the nearer end.  A NaN t misses every span."""
    short = ~((t <= last + 4 * np.spacing(np.abs(last))) & (t >= first - 4 * np.spacing(np.abs(first))))
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
    if not _is_count(save_paths):
        raise ValueError(f"save_paths must be >= 0 and an integer, got {save_paths!r}")
    ts, cut, last, kept = _em_pass(p, cfg, s0, min(save_paths, cfg.ensemble))
    # Every path's Trajectory checks its knot times; the longest path's
    # times fail those checks whenever any path's do, with the same error.
    k = int(cut.max())
    Trajectory(ts[:k], np.zeros(k), np.zeros(k))
    stats = None
    if cfg.ensemble >= 2:
        t = s0.t + cfg.n_steps * cfg.dt
        # a path's last finite knot is its knot nearest to the horizon
        _check_coverage(t, np.full(cfg.ensemble, ts[0]), ts[cut - 1])
        stats = _moments(t, *last)
    return _trajectories(cfg, ts, cut, kept), int((cut <= cfg.n_steps).sum()), stats


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
