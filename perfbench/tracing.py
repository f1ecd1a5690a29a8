"""Span tracing of cqduffing's public functions, from outside the package.

Run as a script, in a fresh process, in one of two modes:

    python3 perfbench/tracing.py workload TRACE_ID RESULT.json SPANS.npz -- <cqduffing argv>
        runs the CLI command in-process with every function in WRAPPED
        traced, then writes the spans and the layer totals derived from
        them.
    python3 perfbench/tracing.py layers RESULT.json
        times single operations by amortised calls to the public functions
        (untraced), then runs a small fixed probe of every wrapped function
        with tracing on, so that each layer has totals on every workload.

A span is (name, trace, start, end, parent), in seconds of thread CPU time.
Spans are kept in flat arrays in memory and written out once at the end. A
layer's self time is the duration of its spans minus the part covered by
their child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import os
import statistics
import sys
import time
from array import array

# (module, attribute) of every traced function; "Class.method" traces a method.
WRAPPED = [
    ("cli", "main"), ("cli", "_write_csv"), ("cli", "_write_json"),
    ("core", "acceleration"), ("core", "Trajectory.__init__"), ("core", "Trajectory.eval"),
    ("odeint", "integrate"), ("odeint", "integrate_delayed"), ("odeint", "HistoryBuffer.velocity"),
    ("chaos", "gamma_scan"), ("chaos", "lyapunov_max"), ("chaos", "poincare_map"),
    ("pyragas", "search_cell"), ("pyragas", "run_controlled"),
    ("sde", "euler_maruyama"), ("sde", "path_increments"), ("sde", "ensemble_stats"),
]
LAYERS = ["cli", "core", "odeint", "chaos", "pyragas", "sde"]

# Counts taken from the wrapped calls; every one must repeat exactly.
COUNT_KEYS = ["knots", "dp54_accepted", "dp54_rejected", "path_steps", "output_bytes",
              "exponents_coarse", "exponents_bisect", "exponents_useful"]


class Tracer:
    """Spans of one process, in flat arrays, plus counts from call results."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.trace = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.trace_ids: list[str] = []
        self.current_trace = -1
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.lyapunov: list[tuple[int, float, float]] = []  # (parent span, gamma, exponent)
        self.scans: dict[int, tuple] = {}                     # span -> (lo, hi, step, threshold)

    def begin_trace(self, trace_id: str) -> None:
        self.trace_ids.append(trace_id)
        self.current_trace = len(self.trace_ids) - 1

    def wrap(self, qualname: str, fn, after=None):
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        nid = self._name_ids[qualname]
        name, trace, parent, start, end, stack = (
            self.name, self.trace, self.parent, self.start, self.end, self._stack)
        # CPU time of this thread: a calibration loop shares the CPU (see calibrate.py)
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            trace.append(self.current_trace)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        return traced

    def clear(self) -> None:
        """Forget every span and count, keeping the installed wrappers."""
        for arr in (self.name, self.trace, self.parent, self.start, self.end):
            del arr[:]
        self.trace_ids.clear()
        self.current_trace = -1
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.lyapunov.clear()
        self.scans.clear()

    def __len__(self) -> int:
        return len(self.start)


# ---------------------------------------------------------------- counts from call results

def _after_integrate(tr, idx, args, kwargs, traj):
    tr.counts["knots"] += len(traj)
    tr.counts["dp54_accepted"] += traj.metadata.get("n_accepted", 0)
    tr.counts["dp54_rejected"] += traj.metadata.get("n_rejected", 0)


def _after_lyapunov(tr, idx, args, kwargs, exponent):
    tr.lyapunov.append((tr.parent[idx], args[0].gamma, exponent))


def _scan_binder(fn):
    sig = inspect.signature(fn)

    def after(tr, idx, args, kwargs, row):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        lo, hi = b.arguments["gamma_range"]
        step = b.arguments["coarse_step"]
        if step is None:
            step = max(b.arguments["resolution"], 0.01)
        tr.scans[idx] = (lo, hi, step, b.arguments["lyap_threshold"])

    return after


def _after_euler_maruyama(tr, idx, args, kwargs, paths):
    cfg = args[1]
    tr.counts["path_steps"] += cfg.ensemble * cfg.n_steps


def _after_write(tr, idx, args, kwargs, result):
    tr.counts["output_bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Replace every function in WRAPPED by a traced wrapper, in every
    cqduffing module that holds a reference to it."""
    modules = {m: importlib.import_module(f"cqduffing.{m}") for m in LAYERS}
    every_module = [m for k, m in sys.modules.items() if k == "cqduffing" or k.startswith("cqduffing.")]
    hooks = {"odeint.integrate": _after_integrate, "odeint.integrate_delayed": _after_integrate,
             "chaos.lyapunov_max": _after_lyapunov,
             "chaos.gamma_scan": _scan_binder(modules["chaos"].gamma_scan),
             "sde.euler_maruyama": _after_euler_maruyama,
             "cli._write_csv": _after_write, "cli._write_json": _after_write}
    for mod_name, attr in WRAPPED:
        owner = modules[mod_name]
        *cls, fn_name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        orig = getattr(owner, fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{attr}", orig, hooks.get(f"{mod_name}.{attr}"))
        setattr(owner, fn_name, wrapped)
        if not cls:
            for mod in every_module:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


# ---------------------------------------------------------------- span analysis

def _exponent_counts(tr: Tracer) -> None:
    """Split the exponents each gamma_scan computed into coarse-grid and
    bisection ones, and count those that decided the onset: the coarse
    ones up to the first chaotic pair, plus every bisection one."""
    by_scan: dict[int, list[tuple[float, float]]] = {}
    for parent, gamma, exponent in tr.lyapunov:
        if parent in tr.scans:
            by_scan.setdefault(parent, []).append((gamma, exponent))
    for idx, (lo, hi, step, threshold) in tr.scans.items():
        coarse, bisect = [], []
        for gamma, exponent in by_scan.get(idx, []):
            k = (gamma - lo) / step
            on_grid = abs(k - round(k)) < 1e-9 or abs(gamma - hi) < 1e-12
            (coarse if on_grid else bisect).append((gamma, exponent))
        coarse.sort()
        useful = len(coarse)
        for i in range(len(coarse) - 1):
            if coarse[i][1] > threshold and coarse[i + 1][1] > threshold:
                useful = i + 2
                break
        tr.counts["exponents_coarse"] += len(coarse)
        tr.counts["exponents_bisect"] += len(bisect)
        tr.counts["exponents_useful"] += useful + len(bisect)


def summarize(tr: Tracer) -> dict:
    """Per traced function: calls, total and self seconds; per layer: self
    seconds; and the counts."""
    import numpy as np

    name = np.array(tr.name, dtype=np.int32)
    parent = np.array(tr.parent, dtype=np.int64)
    dur = np.array(tr.end) - np.array(tr.start)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    funcs = {}
    for nid, qualname in enumerate(tr.names):
        sel = name == nid
        funcs[qualname] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                           "self_s": float(self_time[sel].sum())}
    # run_controlled time outside integrate_delayed: the periodicity report
    report_s = 0.0
    if "pyragas.run_controlled" in tr.names and "odeint.integrate_delayed" in tr.names:
        rc = np.flatnonzero(name == tr.names.index("pyragas.run_controlled"))
        idl = np.flatnonzero(name == tr.names.index("odeint.integrate_delayed"))
        idl = idl[parent[idl] >= 0]
        inner = np.zeros(len(dur))
        np.add.at(inner, parent[idl], dur[idl])
        report_s = float((dur[rc] - inner[rc]).sum())
    _exponent_counts(tr)
    layers = {layer: sum(f["self_s"] for q, f in funcs.items() if q.split(".")[0] == layer)
              for layer in LAYERS}
    return {"functions": funcs, "layer_self_s": layers, "report_s": report_s,
            "counts": dict(tr.counts), "spans": len(tr)}


def dump_spans(tr: Tracer, path: str) -> None:
    import numpy as np

    np.savez(path, names=np.array(tr.names), trace_ids=np.array(tr.trace_ids),
             name=np.array(tr.name, dtype=np.int32), trace=np.array(tr.trace, dtype=np.int8),
             parent=np.array(tr.parent, dtype=np.int64), start=np.array(tr.start), end=np.array(tr.end))


# ---------------------------------------------------------------- modes

def run_workload(trace_id: str, result_path: str, spans_path: str, argv: list[str]) -> int:
    from cqduffing import cli

    tracer = Tracer()
    install(tracer)
    tracer.begin_trace(trace_id)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    t_done = time.process_time()
    result = summarize(tracer)
    result.update(exit=code, stdout=captured.getvalue())
    dump_spans(tracer, spans_path)
    with open(result_path, "w") as fh:
        result["post_s"] = time.process_time() - t_done
        json.dump(result, fh)
    return 0


_BATCHES = 100  # per single-operation timing: median and p90 (10 batches beyond it)


def _batch_times(fn) -> list[float]:
    fn()
    out = []
    for _ in range(_BATCHES):
        t0 = time.thread_time()
        fn()
        out.append(time.thread_time() - t0)
    return out


def _per_op(times: list[float], ops: int) -> dict:
    """Median and p90 of the per-operation time of each batch, in µs."""
    per = [t / ops * 1e6 for t in times]
    return {"median": statistics.median(per), "p90": statistics.quantiles(per, n=10)[-1],
            "samples": len(per)}


def single_operations() -> dict:
    """Amortised single-operation latencies of the public functions, in µs."""
    import numpy as np
    from cqduffing import chaos
    from cqduffing.core import OscillatorParams, State, acceleration
    from cqduffing.odeint import HistoryBuffer, StepControl, integrate

    p = OscillatorParams(a=1.0, b=1.0, c=0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1.0)
    T = 2.0 * math.pi / p.omega
    dt = T / 200.0
    s0 = State(0.0, 0.1, 0.0)

    def f(t, x, v):
        return acceleration(p, t, x, v)

    traj = integrate(f, s0, 10.0 * T, StepControl(dt=dt, method="rk4"))
    reads = [float(t) for t in np.linspace(T, 9.0 * T, 500)]
    buf = HistoryBuffer(lambda t: 0.0)
    for t, x, v, a in zip(traj.t, traj.x, traj.v, traj.accel):
        buf.append(float(t), float(x), float(v), float(a))
    args = [(t, 0.1 + 1e-3 * i, -0.2) for i, t in enumerate(reads)]
    rk4 = StepControl(dt=dt, method="rk4")
    dp54 = StepControl()
    steps = integrate(f, s0, 20.0, dp54).metadata
    n_dp54 = steps["n_accepted"] + steps["n_rejected"]
    return {
        "core.acceleration": _per_op(_batch_times(lambda: [acceleration(p, *a) for a in args]), 500),
        "core.hermite_eval": _per_op(_batch_times(lambda: [traj.eval(t) for t in reads]), 500),
        "odeint.rk4_step": _per_op(_batch_times(lambda: integrate(f, s0, 200 * dt, rk4)), 200),
        "odeint.dp54_step": _per_op(_batch_times(lambda: integrate(f, s0, 20.0, dp54)), n_dp54),
        "odeint.history_read": _per_op(_batch_times(lambda: [buf.velocity(t) for t in reads]), 500),
        # four renormalisation intervals of one period each, the first one transient
        "chaos.benettin_period": _per_op(_batch_times(
            lambda: chaos.lyapunov_max(p, s0, 4.0 * T, T, t_transient=T)), 4),
    }


def probe() -> None:
    """One small call of every wrapped function, so that every layer has a
    nonzero total in every traced run."""
    from cqduffing import chaos, pyragas, sde
    from cqduffing.core import OscillatorParams, State, acceleration
    from cqduffing.odeint import StepControl, integrate

    p = OscillatorParams(a=1.0, b=1.0, c=0.2, delta=0.1, gamma=0.35, omega=1.4, epsilon=1.0)
    s0 = State(0.0, 0.1, 0.0)
    # an initial step of 1.0 is too long, so DP54 also rejects steps
    traj = integrate(lambda t, x, v: acceleration(p, t, x, v), s0, 5.0, StepControl(dt=1.0))
    traj.eval(2.5)
    # the window brackets the onset between coarse points, so it bisects
    chaos.gamma_scan(1.0, 1.0, 0.0, 0.1, 1.4, (0.24, 0.4), 0.02, coarse_step=0.05,
                     steps_per_period=50, transient_periods=5, measure_periods=10)
    chaos.poincare_map(p, s0, 5, 5, StepControl(dt=0.05, method="rk4"))
    pyragas.search_cell((p, 2.0, 4.0, s0, 1e-2))
    paths = sde.euler_maruyama(p, sde.SdeConfig(dt=0.01, n_steps=50, seed=0, ensemble=16), s0)
    sde.ensemble_stats(paths, 0.5)


def run_layers(result_path: str) -> int:
    ops = single_operations()
    tracer = Tracer()
    install(tracer)
    runs = []
    for _ in range(2):
        tracer.clear()
        tracer.begin_trace("probe")
        probe()
        runs.append(summarize(tracer))
    with open(result_path, "w") as fh:
        json.dump({"ops": ops, "probe": runs}, fh)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "workload":
        sep = sys.argv.index("--")
        sys.exit(run_workload(*sys.argv[2:5], sys.argv[sep + 1:]))
    if mode == "layers":
        sys.exit(run_layers(sys.argv[2]))
    sys.exit(f"unknown mode {mode!r}")
