import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqduffing import OscillatorParams, State, Trajectory, sde
from cqduffing.sde import (SdeConfig, ensemble_stats, euler_maruyama, path_increments,
                           run_ensemble)

# relaxation-to-noise reduction: with a = b = c = 0 the velocity decouples,
# dv = (-theta v + theta cos(omega t)) dt + sigma dW with theta = eps*gamma,
# so Var v(t) = sigma^2 (1 - e^{-2 theta t}) / (2 theta) exactly (the
# deterministic drive shifts the mean only)
THETA = 1.0
OU = OscillatorParams(a=0.0, b=0.0, c=0.0, gamma=THETA, omega=1.0, epsilon=1.0)


def ou_mean_v(t, theta=THETA, omega=1.0):
    # solves m' = -theta m + theta cos(omega t), m(0) = 0
    return theta * ((theta * math.cos(omega * t) + omega * math.sin(omega * t))
                    - theta * math.exp(-theta * t)) / (theta**2 + omega**2)


def ou_var_v(t, sigma, theta=THETA):
    return sigma**2 * (1 - math.exp(-2 * theta * t)) / (2 * theta)


class TestEulerMaruyama:
    def test_zero_noise_equals_explicit_euler_bitwise(self):
        p = OscillatorParams(1, 1, 0.2, delta=0.1, gamma=0.3, omega=1.4, epsilon=1.0)
        cfg = SdeConfig(dt=0.01, n_steps=400, seed=7, sigma=0.0, ensemble=1)
        path = euler_maruyama(p, cfg, State(0.0, 0.1, 0.0))[0]
        q = p.epsilon * p.gamma
        dt = cfg.dt
        ts = 0.0 + dt * np.arange(cfg.n_steps + 1)
        x, v = 0.1, 0.0
        for i in range(cfg.n_steps):
            x2 = x * x
            drift_v = p.a * x - p.b * x * x2 - p.c * x * x2 * x2 - q * v \
                + q * math.cos(p.omega * ts[i])
            x, v = x + v * dt, v + drift_v * dt + 0.0
        assert x == path.x[-1] and v == path.v[-1]

    def test_same_seed_same_paths(self):
        cfg = SdeConfig(dt=0.01, n_steps=50, seed=42, sigma=0.1, ensemble=4)
        a = euler_maruyama(OU, cfg, State(0, 0, 0))
        b = euler_maruyama(OU, cfg, State(0, 0, 0))
        assert all(np.array_equal(p.v, q.v) and np.array_equal(p.x, q.x)
                   for p, q in zip(a, b))

    def test_path_streams_are_index_keyed(self):
        # ensemble generation must equal an out-of-order per-path rebuild,
        # which is what makes parallel generation equivalent to serial
        cfg = SdeConfig(dt=0.02, n_steps=60, seed=5, sigma=0.3, ensemble=6)
        paths = euler_maruyama(OU, cfg, State(0.0, 0.0, 1.0))
        q = OU.epsilon * OU.gamma
        for j in reversed(range(cfg.ensemble)):
            dW = path_increments(cfg, j)
            x, v = 0.0, 1.0
            for i in range(cfg.n_steps):
                t = i * cfg.dt
                drift_v = -q * v + q * math.cos(OU.omega * t)
                x, v = x + v * cfg.dt, v + drift_v * cfg.dt + cfg.sigma * dW[i]
            assert v == pytest.approx(paths[j].v[-1], abs=0)

    def test_ou_variance_within_monte_carlo_band(self):
        sigma = 0.1
        cfg = SdeConfig(dt=0.005, n_steps=200, seed=11, sigma=sigma, ensemble=10_000)
        paths = euler_maruyama(OU, cfg, State(0, 0, 0))
        st = ensemble_stats(paths, 1.0)
        want = ou_var_v(1.0, sigma)
        se = want * math.sqrt(2.0 / (cfg.ensemble - 1))
        assert abs(st.var_v - want) < 3 * se

    def test_weak_convergence_order_one(self):
        sigma = 0.05
        errs, dts = [], [0.1, 0.05, 0.025]
        for i, dt in enumerate(dts):
            cfg = SdeConfig(dt=dt, n_steps=int(round(1.0 / dt)), seed=100 + i,
                            sigma=sigma, ensemble=10_000)
            paths = euler_maruyama(OU, cfg, State(0, 0, 0))
            st = ensemble_stats(paths, 1.0)
            errs.append(abs(st.mean_v - ou_mean_v(1.0)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
        assert np.all(np.abs(slopes - 1.0) < 0.3), (errs, slopes)

    def test_increment_variance_sanity(self):
        cfg = SdeConfig(dt=0.002, n_steps=1_000_000, seed=3, sigma=1.0, ensemble=1)
        dW = path_increments(cfg, 0)
        assert dW.var() == pytest.approx(cfg.dt, rel=0.05)

    def test_blowup_truncates_with_flag(self):
        p = OscillatorParams(a=3.0, b=0.0, c=-2.0, gamma=0.0, omega=0.0, epsilon=1.0)
        cfg = SdeConfig(dt=0.05, n_steps=400, seed=2, sigma=0.5, ensemble=3)
        paths = euler_maruyama(p, cfg, State(0.0, 1.5, 0.0))
        assert any(tr.metadata["truncated"] for tr in paths)
        for tr in paths:
            assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.v))

    # 201 steps: one path's first non-finite state is the last one
    @pytest.mark.parametrize("n_steps", [400, 201])
    def test_truncation_matches_scalar_euler_bitwise(self, n_steps):
        # a forced softening well: about half of these paths escape and
        # overflow; each must end just before its first non-finite step of
        # the scalar scheme on Python floats, and be flagged iff it ends early
        p = OscillatorParams(a=1.0, b=1.0, c=-0.02, gamma=0.2, omega=1.4, epsilon=1.0)
        cfg = SdeConfig(dt=0.05, n_steps=n_steps, seed=0, sigma=2.0, ensemble=40)
        paths = euler_maruyama(p, cfg, State(0.0, 2.0, 0.0))
        q = p.epsilon * p.gamma
        ts = 0.0 + cfg.dt * np.arange(cfg.n_steps + 1)
        lengths = []
        for j, tr in enumerate(paths):
            noise = (cfg.sigma * path_increments(cfg, j)).tolist()
            x, v = 2.0, 0.0
            xs, vs = [x], [v]
            for i in range(cfg.n_steps):
                x2 = x * x
                drift_v = p.a * x - p.b * x * x2 - p.c * x * x2 * x2 - q * v \
                    + q * math.cos(p.omega * ts[i])
                x, v = x + v * cfg.dt, v + drift_v * cfg.dt + noise[i]
                if not (math.isfinite(x) and math.isfinite(v)):
                    break
                xs.append(x)
                vs.append(v)
            lengths.append(len(xs))
            assert len(tr) == len(xs)
            assert tr.metadata["truncated"] is (len(xs) <= cfg.n_steps)
            assert tr.t.tobytes() == ts[: len(xs)].tobytes()
            assert tr.x.tobytes() == np.array(xs).tobytes()
            assert tr.v.tobytes() == np.array(vs).tobytes()
        assert 0 < sum(n <= cfg.n_steps for n in lengths) < cfg.ensemble

    @pytest.mark.parametrize("s0", [(0.0, math.nan, 0.0), (0.0, 0.0, math.inf),
                                    (math.nan, 0.0, 0.0)])
    def test_non_finite_start_rejected_before_noise(self, s0, monkeypatch):
        def no_draw(*args):
            raise AssertionError("noise drawn for a non-finite start")

        monkeypatch.setattr(sde, "_rng_for_path", no_draw)
        cfg = SdeConfig(dt=0.01, n_steps=10, seed=1, sigma=0.1, ensemble=3)
        with pytest.raises(ValueError, match="non-finite initial state"):
            euler_maruyama(OU, cfg, State(*s0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SdeConfig(dt=0.0, n_steps=10, seed=1)
        with pytest.raises(ValueError):
            SdeConfig(dt=0.1, n_steps=0, seed=1)
        with pytest.raises(ValueError):
            SdeConfig(dt=0.1, n_steps=10, seed=1, sigma=-0.5)


class TestEnsembleStats:
    def test_deterministic_ensemble_zero_variance(self):
        cfg = SdeConfig(dt=0.01, n_steps=30, seed=9, sigma=0.0, ensemble=5)
        paths = euler_maruyama(OU, cfg, State(0, 0.2, 0.1))
        st = ensemble_stats(paths, 0.3)
        assert st.var_x == 0.0 and st.var_v == 0.0
        assert st.n == 5

    def test_single_path_rejected(self):
        cfg = SdeConfig(dt=0.01, n_steps=30, seed=9, sigma=0.1, ensemble=1)
        paths = euler_maruyama(OU, cfg, State(0, 0, 0))
        with pytest.raises(ValueError, match="single path"):
            ensemble_stats(paths, 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble_stats([], 0.0)

    def test_uncovered_time_rejected(self):
        cfg = SdeConfig(dt=0.01, n_steps=30, seed=9, sigma=0.1, ensemble=2)
        paths = euler_maruyama(OU, cfg, State(0, 0, 0))
        with pytest.raises(ValueError, match="cover"):
            ensemble_stats(paths, 5.0)

    def test_coverage_is_checked_to_rounding(self):
        # the last knot 30 * 0.1 is 3.0000000000000004: a horizon within a
        # few ulps of it is covered, one 16 ulps beyond it is not
        cfg = SdeConfig(dt=0.1, n_steps=30, seed=9, sigma=0.1, ensemble=2)
        paths = euler_maruyama(OU, cfg, State(0, 0, 0))
        last = paths[0].t[-1]
        assert ensemble_stats(paths, 3.0).t == 3.0
        assert ensemble_stats(paths, float(np.nextafter(last, 4.0))).n == 2
        with pytest.raises(ValueError, match="path 0 does not cover"):
            ensemble_stats(paths, last + 16 * np.spacing(last))

    @pytest.mark.parametrize("run", [
        lambda p, cfg, s0: ensemble_stats(euler_maruyama(p, cfg, s0), cfg.n_steps * cfg.dt),
        lambda p, cfg, s0: run_ensemble(p, cfg, s0, 0)])
    def test_tiny_step_truncation_is_not_covered(self, run):
        # x**5 overflows at the first step: both paths end at t = 0, which
        # lies 3e-300 short of the horizon
        p = OscillatorParams(a=1.0, b=1.0, c=0.2, epsilon=0.0)
        cfg = SdeConfig(dt=1e-300, n_steps=3, seed=0, sigma=0.0, ensemble=2)
        with pytest.raises(ValueError, match=r"path 0 does not cover t=3e-300 \(span \(0.0, 0.0\)\)"):
            run(p, cfg, State(0.0, 1e62, 0.0))


def reference_euler_maruyama(p, cfg, s0):
    """The one time-major Euler-Maruyama loop over full (step, path) arrays
    that the streaming pass replaced, verbatim but for the forcing at a
    knot time that overflowed, which is NaN instead of math.cos's
    ValueError."""
    n = cfg.n_steps
    dt = cfg.dt
    q = p.epsilon * p.gamma
    noise = np.empty((n, cfg.ensemble))
    for j in range(cfg.ensemble):
        noise[:, j] = path_increments(cfg, j)
    noise *= cfg.sigma
    X = np.empty((n + 1, cfg.ensemble))
    V = np.empty((n + 1, cfg.ensemble))
    X[0] = s0.x
    V[0] = s0.v
    with np.errstate(over="ignore", invalid="ignore"):
        ts = s0.t + dt * np.arange(n + 1)  # knot times overflow at dt = 1e308
        for i in range(n):
            x = X[i]
            v = V[i]
            x2 = x * x
            drift_v = (p.a * x - p.b * x * x2 - p.c * x * x2 * x2 - q * v
                       + q * (math.cos(p.omega * ts[i]) if math.isfinite(p.omega * ts[i])
                              else math.nan))
            X[i + 1] = x + v * dt
            V[i + 1] = v + drift_v * dt + noise[i]
    bad = ~(np.isfinite(X) & np.isfinite(V))
    cut = np.where(bad.any(axis=0), bad.argmax(axis=0), n + 1)
    meta = {"integrator": "euler-maruyama", "rng": "philox-4x64", "seed": cfg.seed,
            "sigma": cfg.sigma, "dt": dt}
    return [Trajectory(ts[:k], X[:k, j], V[:k, j], None,
                       dict(meta, path_index=j, truncated=bool(k <= n)))
            for j, k in enumerate(cut)]


def reference_ensemble_stats(paths, t):
    """`ensemble_stats` before its moments moved to a shared helper, verbatim
    but for its coverage test, which allows 4 ulps of the span's end in
    place of an absolute 1e-12."""
    xs = np.empty(len(paths))
    vs = np.empty(len(paths))
    for j, tr in enumerate(paths):
        if (t > tr.t[-1] + 4 * np.spacing(abs(tr.t[-1]))
                or t < tr.t[0] - 4 * np.spacing(abs(tr.t[0]))):
            raise ValueError(f"path {j} does not cover t={t} (span {float(tr.t[0]), float(tr.t[-1])})")
        i = int(np.argmin(np.abs(tr.t - t)))
        xs[j] = tr.x[i]
        vs[j] = tr.v[i]
    return sde.EnsembleStats(t=float(t), n=len(paths), mean_x=float(xs.mean()),
                             var_x=float(xs.var(ddof=1)), mean_v=float(vs.mean()),
                             var_v=float(vs.var(ddof=1)))


def knots(tr):
    return tr.t.tobytes(), tr.x.tobytes(), tr.v.tobytes(), tr.metadata


def moments(st):
    return st.t.hex(), st.n, st.mean_x.hex(), st.var_x.hex(), st.mean_v.hex(), st.var_v.hex()


class TestStreamingPass:
    # A forced softening well (c < 0): from x0 = 2 with sigma = 2 about half
    # of the paths escape and overflow, at different steps; c = 0.2 keeps
    # every path. Blocks and chunks are patched small, so that an example
    # crosses several of each, and n_steps is rarely a multiple of a chunk.
    # With dt = 1e-14 every path is cut at row 1, far short of the horizon
    # 20 dt on the scale of its rounding: no statistics are taken.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ensemble=st.integers(1, 40), n_steps=st.integers(1, 300),
           save=st.sampled_from(["0", "1", "all", "more"]),
           c=st.sampled_from([-0.02, 0.2]), x0=st.floats(1.5, 2.5), sigma=st.floats(0.0, 3.0),
           gamma=st.sampled_from([0.0, 0.2]), t0=st.sampled_from([0.0, 1.5]),
           dt=st.sampled_from([0.05, 0.02]), seed=st.integers(0, 3),
           block=st.sampled_from([1, 3, 7, 64]),
           chunk=st.sampled_from([7, 13, 64]))
    @example(ensemble=40, n_steps=400, save="all", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=7, chunk=64)
    @example(ensemble=40, n_steps=201, save="more", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=3, chunk=1)
    @example(ensemble=40, n_steps=257, save="1", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=40, chunk=250)
    @example(ensemble=1, n_steps=300, save="1", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=1, chunk=64)  # path 0 is cut at row 256
    @example(ensemble=33, n_steps=300, save="0", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=11, chunk=64)  # path 32 is cut at row 257 = 4 * 64 + 1
    @example(ensemble=14, n_steps=300, save="1", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=14, chunk=64)  # kept path 0 at row 256, path 13 at 249
    @example(ensemble=8, n_steps=300, save="all", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=2, chunk=64)  # the block of paths 6, 7: rows 231, 222
    @example(ensemble=1, n_steps=256, save="1", c=-0.02, x0=2.0, sigma=2.0, gamma=0.2,
             t0=0.0, dt=0.05, seed=0, block=1, chunk=255)  # cut at row 256, the last chunk's one row
    @example(ensemble=5, n_steps=20, save="1", c=-0.02, x0=1e62, sigma=1.0, gamma=0.0, t0=0.0,
             dt=1e-14, seed=0, block=3, chunk=7)  # x**5 overflows: every path is cut at row 1
    @example(ensemble=3, n_steps=2, save="0", c=0.2, x0=1e62, sigma=1.0, gamma=0.0, t0=1.5,
             dt=4e-16, seed=0, block=2, chunk=7)  # cut at row 1, yet within 4 ulps of the horizon
    @example(ensemble=2, n_steps=3, save="0", c=0.2, x0=0.0, sigma=0.0, gamma=0.0, t0=0.0,
             dt=1e308, seed=0, block=1, chunk=7)  # the knot time 2e308 overflows to inf
    @example(ensemble=1, n_steps=20, save="0", c=0.2, x0=2.0, sigma=0.5, gamma=0.2, t0=1e20,
             dt=1e-10, seed=0, block=2, chunk=7)  # t0 + dt rounds to t0: the times do not increase
    def test_equals_full_array_loop_bitwise(self, ensemble, n_steps, save, c, x0, sigma, gamma,
                                            t0, dt, seed, block, chunk):
        p = OscillatorParams(a=1.0, b=1.0, c=c, gamma=gamma, omega=1.4, epsilon=1.0)
        cfg = SdeConfig(dt=dt, n_steps=n_steps, seed=seed, sigma=sigma, ensemble=ensemble)
        s0 = State(t0, x0, 0.0)
        save_paths = {"0": 0, "1": 1, "all": ensemble, "more": ensemble + 3}[save]
        ref, ref_stats, ref_error = None, None, None
        try:
            ref = reference_euler_maruyama(p, cfg, s0)
            if ensemble >= 2:
                ref_stats = reference_ensemble_stats(ref, t0 + n_steps * dt)
        except ValueError as exc:
            ref_error = str(exc)
        with mock.patch.object(sde, "_BLOCK", block), mock.patch.object(sde, "_CHUNK", chunk):
            if ref is None:
                with pytest.raises(ValueError) as exc:
                    euler_maruyama(p, cfg, s0)
                assert str(exc.value) == ref_error
            else:
                full = euler_maruyama(p, cfg, s0)
                assert [knots(tr) for tr in full] == [knots(tr) for tr in ref]
            if ref_error is not None:
                with pytest.raises(ValueError) as exc:
                    run_ensemble(p, cfg, s0, save_paths)
                assert str(exc.value) == ref_error
                return
            saved, truncated, stats = run_ensemble(p, cfg, s0, save_paths)
        assert [knots(tr) for tr in saved] == [knots(tr) for tr in ref[:save_paths]]
        assert truncated == sum(tr.metadata["truncated"] for tr in ref)
        assert (stats is None) is (ref_stats is None)
        if stats is not None:
            assert moments(stats) == moments(ref_stats)

    @pytest.mark.parametrize("run", [euler_maruyama, lambda p, cfg, s0: run_ensemble(p, cfg, s0, 0)])
    def test_overflowing_knot_time_is_named_when_forced(self, run):
        # omega != 0: the forcing at the knot time inf is NaN, not math.cos's ValueError
        p = OscillatorParams(a=1, b=1, c=0.2, gamma=0, omega=1.4, epsilon=1)
        cfg = SdeConfig(dt=1e308, n_steps=3, seed=0, sigma=0, ensemble=2)
        with pytest.raises(ValueError, match="non-finite values in trajectory array 't'"):
            run(p, cfg, State(0, 0, 0))

    @pytest.mark.parametrize("sizes", [[1] * 9, [128, 128, 44], [5, 64, 231], [300]])
    def test_chunked_draws_equal_one_draw_bitwise(self, sizes):
        for dt, sigma in [(0.01, 1.0), (0.01, 0.0), (1e-300, 2.5)]:
            cfg = SdeConfig(dt=dt, n_steps=sum(sizes), seed=6, sigma=sigma, ensemble=3)
            rng = sde._rng_for_path(cfg.seed, 2)
            chunks = [rng.normal(0.0, math.sqrt(cfg.dt), m) for m in sizes]
            assert np.concatenate(chunks).tobytes() == path_increments(cfg, 2).tobytes()
            # the pass's own form: every path's chunk through one draw buffer
            rngs = [sde._rng_for_path(cfg.seed, j) for j in range(cfg.ensemble)]
            draws = np.empty((cfg.ensemble, max(sizes)))
            noise = np.empty((max(sizes), cfg.ensemble))
            chunks = []
            for m in sizes:
                sde._draw(rngs, draws[:, :m], noise[:m], cfg.dt, cfg.sigma)
                chunks.append(noise[:m].copy())
            got = np.concatenate(chunks)
            for j in range(cfg.ensemble):
                assert got[:, j].tobytes() == (cfg.sigma * path_increments(cfg, j)).tobytes()

    def test_memory_does_not_grow_with_the_ensemble(self):
        # 2000 paths of 2000 steps: one full (n_steps + 1, ensemble) float64
        # array is 32 MB, and the pass holds two buffers of block x chunk
        cfg = SdeConfig(dt=0.01, n_steps=2000, seed=0, sigma=0.1, ensemble=2000)
        p = OscillatorParams(a=1.0, b=1.0, c=0.2, gamma=0.2, omega=1.4, epsilon=1.0)
        tracemalloc.start()
        try:
            run_ensemble(p, cfg, State(0.0, 0.0, 0.0), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (cfg.n_steps + 1) * cfg.ensemble / 4


def _config(**kw):
    return SdeConfig(**{"dt": 0.01, "n_steps": 10, "seed": 0, **kw})


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: _config(ensemble=0), "ensemble must be >= 1", id="ensemble-zero"),
    pytest.param(lambda: _config(ensemble=-3), "ensemble must be >= 1", id="ensemble-negative"),
    pytest.param(lambda: _config(ensemble=math.nan), "ensemble must be >= 1", id="ensemble-nan"),
    pytest.param(lambda: _config(ensemble=2.0), "ensemble must be >= 1 and an integer", id="ensemble-float"),
    pytest.param(lambda: _config(n_steps=0), "n_steps must be >= 1", id="n-steps-zero"),
    pytest.param(lambda: _config(n_steps=math.nan), "n_steps must be >= 1", id="n-steps-nan"),
    pytest.param(lambda: _config(n_steps=math.inf), "n_steps must be >= 1", id="n-steps-inf"),
    pytest.param(lambda: _config(n_steps=2.5), "n_steps must be >= 1 and an integer", id="n-steps-fraction"),
    pytest.param(lambda: _config(dt=math.nan), "dt must be positive and finite", id="dt-nan"),
    pytest.param(lambda: _config(dt=math.inf), "dt must be positive and finite", id="dt-inf"),
    pytest.param(lambda: _config(sigma=math.nan), "sigma must be nonnegative and finite", id="sigma-nan"),
    pytest.param(lambda: _config(sigma=math.inf), "sigma must be nonnegative and finite", id="sigma-inf"),
    pytest.param(lambda: _config(seed=math.nan), "seed must be >= 0 and an integer, got nan", id="seed-nan"),
    pytest.param(lambda: _config(seed=-1), "seed must be >= 0 and an integer, got -1", id="seed-negative"),
    pytest.param(lambda: _config(seed=2.5), "seed must be >= 0 and an integer, got 2.5", id="seed-fraction"),
    pytest.param(lambda: ensemble_stats(euler_maruyama(OscillatorParams(1, 1, 0.2), _config(ensemble=4),
                                                       State(0, 0.1, 0)), math.nan),
                 "path 0 does not cover t=nan", id="stats-time-nan"),
])
def test_invalid_input_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("save_paths", [-1, 2.5])
def test_save_paths_must_be_a_count(save_paths):
    cfg = SdeConfig(dt=0.01, n_steps=5, seed=0, ensemble=3)
    with pytest.raises(ValueError, match=f"save_paths must be >= 0 and an integer, got {save_paths}"):
        run_ensemble(OscillatorParams(1, 1, 0.2), cfg, State(0, 0, 0), save_paths)
