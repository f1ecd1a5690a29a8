"""Benchmark of the cqduffing CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. Each command runs in a fresh process, one at a time, so the loop
is closed with one client.

--trace 0 (end to end): starts the interpreter three times to time set-up,
then repeats the workload command in fresh processes while another run
still fits in --seconds (at least once), checking every output. Times are
host-corrected CPU times (see calibrate.py): the benchmark, its commands
and a calibration loop share one CPU.
--trace 1 (per layer): one untraced run, two runs with every public
function of cli, core, odeint, chaos, pyragas and sde traced, and one
process timing single operations. --seconds does not apply.

Every metric is printed by name with its unit; the last stdout line is one
JSON object {correct, attempted, failed, metrics}. The exit code is 0 only
when every run exited 0 and passed its output check. The full result,
with the environment block and every sample, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibrate import KINDS, Calibrator  # noqa: E402

SETUP_RUNS = 3
NPROC = len(os.sched_getaffinity(0))  # before main() pins the benchmark to one CPU
CALIBRATOR: Calibrator | None = None  # started by main()


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen):
    """Wait for proc and return its resource usage; kill it if interrupted."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _spawn(cmd: list[str], tag: str) -> dict:
    """Run cmd to completion: wall time from spawn to exit, CPU time, host
    speed over its lifetime (see calibrate.py), and peak RSS."""
    with open(os.path.join(OUT, f"{tag}.stdout"), "w+") as so, \
            open(os.path.join(OUT, f"{tag}.stderr"), "w") as se:
        c0 = CALIBRATOR.read() if CALIBRATOR else None
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=so, stderr=se)
        usage = _wait(proc)
        wall = time.monotonic() - t0
        c1 = CALIBRATOR.read() if CALIBRATOR else None
        speed = {k: Calibrator.factor(c0, c1, k) if CALIBRATOR else 1.0 for k in KINDS}
        so.seek(0)
        lines = so.read().splitlines()
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "host_speed": speed,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "stdout": lines[-1] if lines else ""}


def _ref_s(res: dict, kind: str, less_cpu_s: float = 0.0) -> float:
    """Host-corrected time: CPU seconds at the reference speed of `kind`."""
    return (res["cpu_s"] - less_cpu_s) * res["host_speed"][kind]


def setup_time(tag: str) -> float:
    """Host-corrected time of starting the interpreter and importing cqduffing.cli."""
    res = _spawn([sys.executable, "-c", "import cqduffing.cli"], tag)
    if res["exit"] != 0:
        raise RuntimeError("cqduffing.cli failed to import")
    return _ref_s(res, "python")


def _summary(stdout_line: str) -> dict:
    try:
        doc = json.loads(stdout_line)
    except json.JSONDecodeError:
        return {}
    return doc if isinstance(doc, dict) else {}


class RunFailed(Exception):
    """A traced or timing process failed, so no per-layer metric exists."""


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.out = workloads.out_path(name)
        self.argv = workloads.argv_for(name, seed, self.out)
        self.kind = workloads.HOST_SPEED[name]
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def _clear_outputs(self) -> None:
        base = os.path.join(ROOT, self.out)
        for path in (base, base.rsplit(".", 1)[0] + ".json"):
            if os.path.exists(path):
                os.remove(path)

    def _record(self, tag: str, exit_code: int, stdout_line: str) -> dict:
        """Check the output of one command and count it."""
        self.attempted += 1
        match, errs, digest = workloads.check(self.name, self.argv, os.path.join(ROOT, self.out),
                                              _summary(stdout_line), self.reference)
        if exit_code != 0:
            errs = [f"exit code {exit_code}"] + errs
        self.failed += bool(errs)
        self.checks.append({"run": tag, "match": match, "errors": errs, "digest": digest})
        return self.checks[-1]

    def run_cli(self, tag: str) -> dict:
        self._clear_outputs()
        res = _spawn([sys.executable, "-m", "cqduffing.cli", *self.argv], tag)
        self._record(tag, res["exit"], res["stdout"])
        return res

    def run_traced(self, tag: str) -> dict:
        """The workload with tracing on; its time leaves out the CPU time
        the traced process spends writing spans after the command ends."""
        self._clear_outputs()
        result_path = os.path.join(OUT, f"{tag}.json")
        spans_path = os.path.join(OUT, f"{tag}-spans.npz")
        trace_id = f"{self.name}/seed{self.seed}/{tag}"
        res = _spawn([sys.executable, os.path.join(HERE, "tracing.py"), "workload",
                      trace_id, result_path, spans_path, "--", *self.argv], tag)
        if res["exit"] != 0:
            self._record(tag, res["exit"], "")
            raise RunFailed(f"traced run failed; see perfbench/out/{tag}.stderr")
        with open(result_path) as fh:
            traced = json.load(fh)
        stdout = traced["stdout"].splitlines()
        self._record(tag, traced["exit"], stdout[-1] if stdout else "")
        traced["ref_s"] = _ref_s(res, self.kind, less_cpu_s=traced["post_s"])
        _host_correct(traced, res["host_speed"][self.kind])
        return traced


# ---------------------------------------------------------------- end to end

def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [setup_time(f"setup{i}") for i in range(SETUP_RUNS)]
    runs = []
    t0 = time.monotonic()
    while True:
        runs.append(bench.run_cli(f"run{len(runs)}"))
        elapsed = time.monotonic() - t0
        if elapsed + statistics.median(r["wall_s"] for r in runs) > seconds:
            break
    unit, units = workloads.UNITS[bench.name]
    cmd = statistics.median(_ref_s(r, bench.kind) for r in runs)
    setup = statistics.median(setups)
    metrics = {
        "cmd_ref_s": (cmd, "s", len(runs)),
        "setup_s": (setup, "s", len(setups)),
        "work_per_s": (units / (cmd - setup), "1/s", len(runs)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB", len(runs)),
    }
    samples = {key: [r[key] for r in runs] for key in ("wall_s", "cpu_s", "host_speed", "peak_rss_mb")}
    samples.update(cmd_ref_s=[_ref_s(r, bench.kind) for r in runs], setup_s=setups,
                   host_speed_kind=bench.kind, work_unit=unit, work_units=units)
    return metrics, samples


# ---------------------------------------------------------------- per layer

def _layer_metrics(traced: dict, probe: dict, ops: dict) -> dict:
    """Per-layer metrics of one traced run: totals over the workload spans
    plus the fixed probe's spans, and single-operation latencies."""
    def fn(qualname: str, key: str) -> float:
        return sum(r["functions"].get(qualname, {}).get(key, 0) for r in (traced, probe))

    def count(key: str) -> int:
        return traced["counts"][key] + probe["counts"][key]

    m = {}
    for op, timing in ops.items():
        m[f"{op}_us"] = (timing["median"], "us", timing["samples"])
        m[f"{op}_us_p90"] = (timing["p90"], "us", timing["samples"])
    for metric, qualname in (
            ("core.eval", "core.Trajectory.eval"), ("core.trajectory_init", "core.Trajectory.__init__"),
            ("odeint.integrate", "odeint.integrate"), ("odeint.integrate_delayed", "odeint.integrate_delayed"),
            ("chaos.lyapunov", "chaos.lyapunov_max"), ("chaos.poincare_map", "chaos.poincare_map"),
            ("chaos.gamma_scan", "chaos.gamma_scan"), ("pyragas.search_cell", "pyragas.search_cell"),
            ("pyragas.run_controlled", "pyragas.run_controlled"), ("sde.euler_maruyama", "sde.euler_maruyama"),
            ("sde.increments", "sde.path_increments"), ("sde.ensemble_stats", "sde.ensemble_stats"),
            ("cli.main", "cli.main")):
        m[f"{metric}_calls"] = (fn(qualname, "calls"), "count")
        m[f"{metric}_s"] = (fn(qualname, "total_s"), "s")
    m["chaos.gamma_scan_row_s"] = (fn("chaos.gamma_scan", "total_s") / fn("chaos.gamma_scan", "calls"), "s")
    m["odeint.history_reads"] = (fn("odeint.HistoryBuffer.velocity", "calls"), "count")
    m["odeint.knots"] = (count("knots"), "count")
    m["odeint.dp54_accepted"] = (count("dp54_accepted"), "count")
    m["odeint.dp54_rejected"] = (count("dp54_rejected"), "count")
    m["chaos.exponents_coarse"] = (count("exponents_coarse"), "count")
    m["chaos.exponents_bisect"] = (count("exponents_bisect"), "count")
    computed = count("exponents_coarse") + count("exponents_bisect")
    m["chaos.exponent_useful_ratio"] = (count("exponents_useful") / computed, "ratio")
    m["pyragas.report_s"] = (traced["report_s"] + probe["report_s"], "s")
    m["sde.em_step_ns_per_path"] = (fn("sde.euler_maruyama", "self_s") / count("path_steps") * 1e9, "ns")
    m["cli.write_s"] = (fn("cli._write_csv", "total_s") + fn("cli._write_json", "total_s"), "s")
    m["cli.output_bytes"] = (count("output_bytes"), "bytes")
    for layer, secs in traced["layer_self_s"].items():
        m[f"{layer}.self_s"] = (secs + probe["layer_self_s"][layer], "s")
    m["trace.spans"] = (traced["spans"] + probe["spans"], "count")
    return m


def _host_correct(run: dict, speed: float) -> None:
    """Scale the span times of one traced process to the reference host speed."""
    for f in run["functions"].values():
        f["total_s"] *= speed
        f["self_s"] *= speed
    run["layer_self_s"] = {layer: secs * speed for layer, secs in run["layer_self_s"].items()}
    run["report_s"] *= speed


def _counts(run: dict) -> dict:
    return {"counts": run["counts"], "calls": {q: f["calls"] for q, f in run["functions"].items()}}


def measure_layers(bench: Bench) -> tuple[dict, dict]:
    plain = bench.run_cli("untraced")
    traced = [bench.run_traced(f"traced{i}") for i in range(2)]
    res = _spawn([sys.executable, os.path.join(HERE, "tracing.py"), "layers",
                  os.path.join(OUT, "layers.json")], "layers")
    if res["exit"] != 0:
        bench.attempted += 1
        bench.failed += 1
        raise RunFailed("single-operation timing failed; see perfbench/out/layers.stderr")
    with open(os.path.join(OUT, "layers.json")) as fh:
        layers = json.load(fh)
    speed = res["host_speed"]["python"]
    for run in layers["probe"]:
        _host_correct(run, speed)
    for timing in layers["ops"].values():
        timing["median"] *= speed
        timing["p90"] *= speed
    repeat_errors = []
    if _counts(traced[0]) != _counts(traced[1]):
        repeat_errors.append("workload counts differ between two traced runs of one seed")
    if _counts(layers["probe"][0]) != _counts(layers["probe"][1]):
        repeat_errors.append("probe counts differ between two runs")
    digests = {c["digest"] for c in bench.checks}
    if len(digests) != 1:
        repeat_errors.append("traced output differs from untraced output")
    if repeat_errors:
        bench.attempted += 1
        bench.failed += 1
        bench.checks.append({"run": "repeat", "match": "counts", "errors": repeat_errors})
    per_run = [_layer_metrics(t, layers["probe"][0], layers["ops"]) for t in traced]
    metrics = {}
    for k, (_, unit, *batches) in per_run[0].items():
        values = [r[k][0] for r in per_run]
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[k] = (median(values), unit, batches[0] if batches else len(values))
    traced_s = statistics.median(t["ref_s"] for t in traced)
    metrics["trace.cmd_ref_s"] = (traced_s, "s", len(traced))
    metrics["trace.overhead_s"] = (traced_s - _ref_s(plain, bench.kind), "s", len(traced))
    samples = {"untraced_ref_s": _ref_s(plain, bench.kind), "traced_ref_s": [t["ref_s"] for t in traced],
               "counts": _counts(traced[0]), "ops": layers["ops"]}
    return metrics, samples


# ---------------------------------------------------------------- report

def environment(bench: Bench) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": NPROC,
        "measured_on_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "argv": {name: [sys.executable, "-m", "cqduffing.cli",
                        *workloads.argv_for(name, bench.seed, workloads.out_path(name))]
                 for name in workloads.UNITS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.UNITS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cqduffing", "cli.py")):
        print(f"no cqduffing sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    bench = Bench(args.workload, args.seed)
    # Every process of the benchmark, the calibration loop included, shares one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    global CALIBRATOR
    CALIBRATOR = Calibrator(os.path.join(OUT, "calibrate.bin"))
    try:
        if args.trace:
            metrics, samples = measure_layers(bench)
        else:
            metrics, samples = measure(bench, args.seconds)
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        metrics, samples = {}, {}
    finally:
        CALIBRATOR.close()
    correct = bench.failed == 0
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(bench),
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
              "samples": samples, "checks": bench.checks}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    for k, (v, u, n) in metrics.items():
        print(f"{k} = {v:.6g} {u}  ({n} samples)")
    if "wall_s" in samples:
        print(f"wall_s = {statistics.median(samples['wall_s']):.6g} s, not host-corrected "
              f"(host speed {statistics.median(h[bench.kind] for h in samples['host_speed']):.4g})")
    print(f"error_rate = {bench.failed / bench.attempted:.6g}  ({bench.failed} of {bench.attempted} runs failed)")
    for c in bench.checks:
        if c["errors"]:
            more = f" (and {len(c['errors']) - 3} more)" if len(c["errors"]) > 3 else ""
            print(f"check {c['run']}: " + "; ".join(c["errors"][:3]) + more)
    print("environment = " + json.dumps(result["environment"]))
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
