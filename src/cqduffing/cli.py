"""Command-line surface: every subcommand maps onto one library operation
and emits plot-ready CSV or JSON.

Each subcommand declares, in one place (``_COMMANDS``), the flags it reads
with their defaults, its presets and the flags it reads only in one mode.
One resolver applies the preset, then the defaults, then the required-flag
checks, and hands the command that resolved configuration. The rules:
  * a command records every flag it reads: the resolved configuration is
    embedded in every output file, so a rerun from the embedded config is
    byte-identical;
  * a preset owns its flags: it fills in a parameter bundle but never
    overrides a flag the user passed, and such a conflict is a validation
    error;
  * a flag the command does not read is rejected: each subcommand
    registers only the flags it reads, and a mode flag rejects the flags
    of its other modes (``control --search`` rejects ``--history``;
    ``simulate --method rk4`` rejects ``--abs-tol``). ``exact --delta``,
    ``exact --epsilon``, ``scan --epsilon``, ``melnikov --epsilon``,
    ``sde --delta``, ``bifurcate --gamma`` and ``--gnuplot`` on the
    commands that write no plottable CSV do not exist;
  * floats are written with 17 significant digits (lossless round-trip),
    comma separators, '.' decimal point, LF line endings;
  * exit code 0 = success (stdout carries a one-line JSON summary),
    1 = numerical failure or a failed write, 2 = flag validation error (a
    bad value of one flag, a preset conflict, a missing or unread flag,
    forcing without a positive --omega, an ``sde`` horizon that overflows,
    an output directory that does not exist or an --out that is one or
    that names the second file);
  * CQDUFFING_OUTDIR sets the default output directory; a second file
    (``exact``'s CSV, ``control``'s and ``sde``'s JSON) goes next to --out,
    with its extension replaced;
  * a command imports only the analysis module it runs, and the process pool only at --jobs > 1.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import OscillatorParams, State, acceleration, energy
from .odeint import IntegrationError, StepControl, integrate

_OUTDIR_ENV = "CQDUFFING_OUTDIR"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _config_line(command: str, cfg: dict) -> str:
    return f"# cqduffing {command} config: " + json.dumps(cfg, sort_keys=True, default=_fmt)


def _write_csv(path: str, command: str, cfg: dict, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_config_line(command, cfg) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, command: str, cfg: dict, payload: dict) -> None:
    doc = {"command": command, "config": cfg, **payload}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, default=_fmt)
        fh.write("\n")


def _write_gnuplot(out_path: str, columns: tuple[int, int], title: str) -> str:
    gp = out_path + ".gp"
    with open(gp, "w", newline="\n") as fh:
        fh.write(
            f"set datafile separator ','\n"
            f"set title '{title}'\n"
            f"plot '{out_path}' skip 2 using {columns[0]}:{columns[1]} with points pt 7 ps 0.2\n"
        )
    return gp


def _out_paths(parser: argparse.ArgumentParser, args, second_ext: str) -> Callable[..., str]:
    """The map from a default output file name to its path, or with
    `second=True` to the path of the command's second file (extension
    `second_ext`, "" for none), after checking, before any work, that the
    output location is a directory that exists and that --out is not also
    the path of the second file."""
    if args.out:
        if os.path.isdir(args.out):
            parser.error(f"argument --out: {args.out!r} is a directory")
        source, outdir = "argument --out", os.path.dirname(args.out)
    elif args.outdir:
        source, outdir = "argument --outdir", args.outdir
    else:
        source, outdir = _OUTDIR_ENV, os.environ.get(_OUTDIR_ENV, ".")
    if not os.path.isdir(outdir or "."):
        parser.error(f"{source}: no directory {outdir!r}")

    def where(default_name: str, second: bool = False) -> str:
        path = args.out or os.path.join(outdir, default_name)
        return os.path.splitext(path)[0] + second_ext if second else path

    if args.out and second_ext and where("", second=True) == args.out:
        parser.error(f"argument --out: {args.out!r} is also the path of the command's "
                     f"second file; give it an extension other than {second_ext!r}")
    return where


def _map_jobs(fn, items, jobs: int) -> list:
    """fn over items in order, across `jobs` worker processes when jobs > 1."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# Flag defaults of the oscillator parameters and the start state.
_PARAMS = {"a": 1.0, "b": 1.0, "c": 1.0, "delta": 0.0, "gamma": 0.0, "omega": 0.0,
           "epsilon": 1.0}
_START = {"x0": 0.0, "v0": 0.0}


def _params_but(name: str) -> dict:
    return {k: v for k, v in _PARAMS.items() if k != name}


def _params(cfg: dict, **fixed) -> OscillatorParams:
    """The oscillator parameters the command reads; the rest keep the
    library defaults."""
    return OscillatorParams(**{k: cfg[k] for k in _PARAMS if k in cfg}, **fixed)


def _start(cfg: dict) -> State:
    return State(0.0, cfg["x0"], cfg["v0"])


# ---------------------------------------------------------------- commands
#
# A command takes its resolved configuration and a map from its default
# output file name to the output path, writes its files and returns the
# fields of its stdout summary.

def cmd_simulate(cfg: dict, out_path) -> dict:
    p = _params(cfg)
    ctrl = StepControl(**{k: cfg[k] for k in ("dt", "abs_tol", "rel_tol", "method") if k in cfg})
    traj = integrate(partial(acceleration, p), _start(cfg), cfg["t_end"], ctrl)
    ts = np.linspace(0.0, cfg["t_end"], cfg["samples"])
    rows = list(zip(ts.tolist(), *(col.tolist() for col in traj.eval(ts))))
    out = out_path("simulate.csv")
    _write_csv(out, "simulate", cfg, ["t", "x", "v"], rows)
    E = energy(p, traj.x, traj.v)
    return dict(output=out, samples=len(rows), energy_constant=float(E[0]),
                energy_drift=float(np.abs(E - E[0]).max()))


def cmd_exact(cfg: dict, out_path) -> dict:
    from . import exact
    abcx = cfg["a"], cfg["b"], cfg["c"], cfg["x0"]
    sol = exact.solve_cn_coefficients(*abcx)
    resid = float(np.abs(exact.cn_ansatz_residuals(
        *abcx, sol.lam, sol.mu, sol.omega_cn, sol.m)).max())
    branches = [
        {"family": br.family, "lam": br.lam, "mu": br.mu, "omega": br.omega_cn,
         "m": br.m, "residual": br.residual}
        for br in exact.closed_form_branches(*abcx)
    ]
    payload = {
        "solution": {"x0": sol.x0, "lam": sol.lam, "mu": sol.mu,
                     "omega": sol.omega_cn, "m": sol.m, "period": sol.period,
                     "residual": resid},
        "closed_form_branches": branches,
    }
    out = out_path("exact.json")
    _write_json(out, "exact", cfg, payload)
    if cfg["samples"]:
        ts = np.linspace(0.0, 2.0 * sol.period if math.isfinite(sol.period) else 10.0,
                         cfg["samples"])
        rows = [(float(t), exact.eval_cn_solution(sol, float(t))) for t in ts]
        csv_out = out_path("exact.json", second=True)
        _write_csv(csv_out, "exact", cfg, ["t", "x"], rows)
    return dict(output=out, lam=sol.lam, mu=sol.mu, omega=sol.omega_cn, m=sol.m, residual=resid)


def cmd_kbm(cfg: dict, out_path) -> dict:
    from . import kbm
    p = _params(cfg)
    sol = kbm.kbm_solve(p, cfg["x0"], cfg["v0"], cfg["t_end"], order=cfg["order"])
    ts = np.linspace(0.0, cfg["t_end"], cfg["samples"])
    if cfg["compare"]:
        ctrl = StepControl(abs_tol=1e-11, rel_tol=1e-11)
        ref = integrate(partial(acceleration, p), _start(cfg), cfg["t_end"], ctrl)
        rows = [(t, sol.eval(t), xr) for t, xr in zip(ts.tolist(), ref.eval(ts)[0].tolist())]
        header = ["t", "x_approx", "x_reference"]
        max_err = max(abs(r[1] - r[2]) for r in rows)
    else:
        rows = [(float(t), sol.eval(float(t))) for t in ts]
        header = ["t", "x_approx"]
        max_err = None
    out = out_path("kbm.csv")
    _write_csv(out, "kbm", cfg, header, rows)
    c = sol.coeffs
    return dict(output=out, omega0=c.omega0, eta=c.eta, max_error_vs_reference=max_err,
                initial_fit_converged=sol.fit_converged)


def cmd_melnikov(cfg: dict, out_path) -> dict:
    from . import exact, melnikov
    p = _params(cfg)
    orbit = exact.homoclinic_orbit(cfg["a"], cfg["b"], cfg["c"], cfg["kind"], cfg["sign"])
    res = melnikov.melnikov(orbit, p)
    critical_gamma = melnikov.chaos_threshold(res, p.delta) if math.isfinite(res.threshold_ratio) else None
    payload = {
        "orbit": asdict(orbit),
        "wave_coeff": res.wave_coeff,
        "damp_coeff": res.damp_coeff,
        "threshold_ratio": res.threshold_ratio,
        "critical_gamma": critical_gamma,
        "oscillation": res.oscillation,
        "has_simple_zeros": res.has_simple_zeros,
        "fit": {"coefficients": list(res.fit.coefficients), "max_error": res.fit.max_error},
    }
    out = out_path("melnikov.json")
    _write_json(out, "melnikov", cfg, payload)
    return dict(output=out, threshold_ratio=res.threshold_ratio, critical_gamma=critical_gamma)


def cmd_poincare(cfg: dict, out_path) -> dict:
    from . import chaos
    section = chaos.poincare_map(_params(cfg), _start(cfg), cfg["points"], cfg["transient"])
    rows = [(n + 1, float(pt[0]), float(pt[1])) for n, pt in enumerate(section)]
    out = out_path("poincare.csv")
    _write_csv(out, "poincare", cfg, ["n", "P", "Q"], rows)
    return dict(output=out, points=len(rows), clusters=chaos.cluster_count(section))


def _scan_rows(a, b, c, delta, resolution, coarse_step, windows) -> list[tuple]:
    from . import chaos
    return [astuple(row) for row in chaos.gamma_scan_rows(
        a, b, c, delta, [(omega, (lo, hi)) for omega, lo, hi in windows], resolution,
        coarse_step=coarse_step)]


def cmd_scan(cfg: dict, out_path) -> dict:
    # A preset gives one gamma window per row, the flags one for every row.
    columns = np.broadcast_arrays(cfg["omega"], cfg["gamma_min"], cfg["gamma_max"])
    windows = list(zip(*(col.tolist() for col in columns)))[: cfg["rows"] or None]
    # one contiguous chunk of rows per worker, so that a chunk can share a lane pass
    jobs = min(cfg["jobs"], len(windows))
    chunks = [windows[i * len(windows) // jobs:(i + 1) * len(windows) // jobs]
              for i in range(jobs)]
    scan_rows = partial(_scan_rows, *(cfg[k] for k in ("a", "b", "c", "delta", "resolution",
                                                         "coarse_step")))
    results = [row for chunk in _map_jobs(scan_rows, chunks, jobs) for row in chunk]
    out = out_path("scan.csv")
    _write_csv(out, "scan", cfg, ["omega", "gamma_c", "lyapunov"], results)
    return dict(output=out, rows=len(results))


def cmd_bifurcate(cfg: dict, out_path) -> dict:
    from . import chaos
    p = _params(cfg, gamma=cfg["gamma_min"])
    sweep = np.linspace(cfg["gamma_min"], cfg["gamma_max"], cfg["gamma_steps"])
    data = chaos.bifurcation_data(p, sweep, n_points=cfg["points"],
                                  n_transient=cfg["transient"], s0=_start(cfg))
    rows = [(g, float(x)) for g, xs in data for x in xs]
    out = out_path("bifurcation.csv")
    _write_csv(out, "bifurcate", cfg, ["gamma", "p_value"], rows)
    return dict(output=out, gammas=len(data), rows=len(rows))


def cmd_control(cfg: dict, out_path) -> dict:
    from . import pyragas
    p = _params(cfg)
    if cfg["search"]:
        cells = pyragas.search_mu_tau(
            p, (cfg["mu_min"], cfg["mu_max"]), (cfg["tau_min"], cfg["tau_max"]),
            (cfg["grid"], cfg["grid"]), _start(cfg),
            map_fn=partial(_map_jobs, jobs=cfg["jobs"]))
        out = out_path("control_search.csv")
        _write_csv(out, "control", cfg, ["mu", "tau", "controller_norm", "is_periodic"], cells)
        best = cells[0]
        return dict(output=out, cells=len(cells),
                    best_mu=best[0], best_tau=best[1], best_norm=best[2])
    cfgc = pyragas.ControllerConfig(mu=cfg["mu"], tau=cfg["tau"], history_policy=cfg["history"])
    traj, report = pyragas.run_controlled(p, cfgc, _start(cfg), cfg["t_end"])
    w1 = traj.t[-1]
    w0 = max(traj.t[0], w1 - cfg["tau"])
    coeffs, fit_resid = pyragas.chebyshev_fit_orbit(traj, (w0, w1), cfg["fit_degree"])
    ts = np.linspace(0.0, traj.t[-1], cfg["samples"])
    rows = list(zip(ts.tolist(), *(col.tolist() for col in traj.eval(ts))))
    out = out_path("control.csv")
    _write_csv(out, "control", cfg, ["t", "x", "v"], rows)
    payload = {
        "report": asdict(report),
        "orbit_fit": {"window": [float(w0), float(w1)], "degree": cfg["fit_degree"],
                      "monomial_coefficients": [float(cc) for cc in coeffs],
                      "max_residual": fit_resid},
        "trajectory_csv": out,
    }
    jout = out_path("control.csv", second=True)
    _write_json(jout, "control", cfg, payload)
    return dict(output=jout, is_periodic=report.is_periodic,
                controller_norm=report.controller_norm, residual=report.residual)


def cmd_sde(cfg: dict, out_path) -> dict:
    from . import sde
    scfg = sde.SdeConfig(dt=cfg["dt"], n_steps=cfg["n_steps"], seed=cfg["seed"],
                         sigma=cfg["sigma"], ensemble=cfg["ensemble"])
    s0 = _start(cfg)
    saved, truncated, st = sde.run_ensemble(_params(cfg), scfg, s0, cfg["save_paths"])
    out = out_path("sde_paths.csv")
    rows = ((j, *txv) for j, tr in enumerate(saved)
            for txv in zip(tr.t.tolist(), tr.x.tolist(), tr.v.tolist()))
    _write_csv(out, "sde", cfg, ["path", "t", "x", "v"], rows)
    payload: dict = {"paths_csv": out, "truncated": truncated}
    if st is not None:
        payload["final_time_stats"] = asdict(st)
    jout = out_path("sde_paths.csv", second=True)
    _write_json(jout, "sde", cfg, payload)
    return dict(output=jout, ensemble=cfg["ensemble"], t_final=s0.t + cfg["n_steps"] * cfg["dt"])


# ---------------------------------------------------------------- flags

def _checked(kind: type, ok, need: str):
    """argparse type= that parses `kind` and rejects values failing ok(),
    so that a bad value exits 2 with a message naming the flag."""
    def parse(text: str):
        val = kind(text)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"{need}, got {text!r}")
        return val

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "must be an integer >= 1")
_count = _checked(int, lambda n: n >= 0, "must be an integer >= 0")
_finite = _checked(float, math.isfinite, "must be a finite number")
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "must be a finite number > 0")
_nonnegative = _checked(float, lambda x: 0.0 <= x < math.inf, "must be a finite number >= 0")

# argparse keywords of every flag, by name; a command may override them.
_FLAGS: dict[str, dict] = {
    "a": dict(type=_finite, help="linear stiffness"),
    "b": dict(type=_finite, help="cubic coefficient"),
    "c": dict(type=_finite, help="quintic coefficient"),
    "delta": dict(type=_finite, help="damping"),
    "gamma": dict(type=_finite, help="forcing amplitude"),
    "omega": dict(type=_finite, help="forcing frequency"),
    "epsilon": dict(type=_finite, help="perturbation scale"),
    "x0": dict(type=_finite, help="initial displacement"),
    "v0": dict(type=_finite, help="initial velocity"),
    "t_end": dict(type=_positive, help="end time"),
    "method": dict(choices=["dp54", "rk4"]),
    "abs_tol": dict(type=_positive),
    "rel_tol": dict(type=_nonnegative),
    "dt": dict(type=_positive, help="time step"),
    "samples": dict(type=_positive_int, help="output samples"),
    "order": dict(type=int, choices=[1, 2]),
    "compare": dict(action="store_true", help="add a reference-integration column"),
    "kind": dict(choices=["sech", "tanh"]),
    "sign": dict(type=int, choices=[1, -1]),
    "points": dict(type=_positive_int, help="section points"),
    "transient": dict(type=_count, help="forcing periods discarded first"),
    "gamma_min": dict(type=_finite),
    "gamma_max": dict(type=_finite),
    "gamma_steps": dict(type=_positive_int),
    "resolution": dict(type=_positive),
    "coarse_step": dict(type=_positive),
    "rows": dict(type=_count, help="scan only the first ROWS rows (0: all)"),
    "jobs": dict(type=_positive_int, help="worker processes"),
    "mu": dict(type=_finite, help="feedback gain"),
    "tau": dict(type=_positive, help="feedback delay"),
    "history": dict(choices=["zero", "constant"]),
    "fit_degree": dict(type=_positive_int),
    "search": dict(action="store_true", help="grid search instead of one run"),
    "mu_min": dict(type=_finite),
    "mu_max": dict(type=_finite),
    "tau_min": dict(type=_positive),
    "tau_max": dict(type=_positive),
    "grid": dict(type=_positive_int),
    "n_steps": dict(type=_positive_int),
    "seed": dict(type=_count),
    "sigma": dict(type=_nonnegative, help="noise intensity"),
    "ensemble": dict(type=_positive_int),
    "save_paths": dict(type=_count),
    "preset": dict(help="parameter bundle"),
}

_REQUIRED = object()  # default of a flag that must be given or come from the preset

# --omega of a command whose work needs the forcing period.
_PERIOD_KW = {"omega": dict(type=_positive, help="forcing frequency")}


# Published (omega, onset gamma) pairs of the frequency table. The scan
# windows are centered on the onset amplitudes so a desk-scale rerun stays
# cheap; every window lands in the output config.
_TABLE1_ROWS = [
    (0.050, 0.387), (0.100, 0.402), (0.125, 0.402), (0.150, 0.397), (0.200, 0.380),
    (0.225, 0.389), (0.250, 0.381), (0.300, 0.382), (0.350, 0.360), (0.400, 0.342),
    (0.450, 0.478), (0.500, 0.640), (0.525, 0.633), (0.600, 0.381), (0.625, 0.376),
    (0.650, 0.375), (0.700, 0.429), (0.725, 0.450), (0.750, 0.522), (0.800, 0.721),
    (0.825, 0.810), (0.925, 1.336), (0.950, 1.261), (1.000, 0.939), (1.100, 0.173),
    (1.125, 0.147), (1.150, 0.136), (1.200, 0.199), (1.225, 0.214), (1.250, 0.233),
    (1.300, 0.268), (1.325, 0.285), (1.350, 0.304), (1.400, 0.340), (1.425, 0.358),
    (1.450, 0.381), (1.500, 0.423), (1.525, 0.447), (1.550, 0.471), (1.600, 0.510),
    (1.625, 0.518), (1.650, 0.529), (1.700, 0.548), (1.725, 0.556), (1.750, 0.573),
    (1.800, 0.605), (1.825, 0.609), (1.850, 0.618), (1.900, 0.636), (1.925, 0.643),
    (1.950, 0.655), (2.000, 0.684), (2.025, 0.688), (2.050, 0.695), (2.100, 0.705),
    (2.125, 0.706), (2.150, 0.707), (2.200, 0.703), (2.300, 0.699), (2.325, 0.724),
    (2.350, 0.763), (2.400, 0.840), (2.425, 0.858), (2.450, 0.862), (2.500, 0.839),
    (2.525, 0.841), (2.550, 0.826), (2.600, 0.783), (2.700, 0.786), (2.800, 1.263),
    (2.825, 1.351), (2.850, 1.525), (2.900, 1.871), (2.925, 1.937), (3.000, 2.155),
    (3.100, 2.168), (3.200, 2.530), (3.225, 2.590), (3.500, 3.870), (3.525, 3.955),
    (3.650, 4.736), (3.700, 4.999), (3.750, 4.987), (3.800, 5.066), (3.900, 6.137),
    (3.925, 6.288), (4.000, 6.787),
]


class _Command(NamedTuple):
    """One subcommand: everything the resolver and the parser know of it."""

    fn: Callable[[dict, Callable[..., str]], dict]
    help: str
    flags: dict                  # flag -> default (None: may stay unset, _REQUIRED)
    modes: tuple = ()            # (mode flag, {its value: the flags read only then})
    presets: dict = {}           # name -> {flag: value}
    kw: dict = {}                # flag -> argparse keywords replacing _FLAGS[flag]
    plot: tuple | None = None    # (columns, title) of the --gnuplot script
    second: Callable[[dict], str] | None = None  # config -> extension of the second file, or ""

    def declared(self) -> list[str]:
        """Every flag the command reads, in any of its modes."""
        by_value = self.modes[1] if self.modes else {}
        return list(dict.fromkeys([*self.flags, *(f for fl in by_value.values() for f in fl)]))


_COMMANDS: dict[str, _Command] = {
    "simulate": _Command(
        cmd_simulate, "integrate one trajectory",
        {**_PARAMS, **_START, "t_end": _REQUIRED, "method": "dp54", "samples": 1000},
        modes=("method", {"dp54": {"dt": None, "abs_tol": 1e-10, "rel_tol": 1e-10},
                          "rk4": {"dt": _REQUIRED}}),
        plot=((1, 2), "trajectory")),
    "exact": _Command(
        cmd_exact, "elliptic closed-form solution of the unforced equation",
        {"a": 1.0, "b": 1.0, "c": 1.0, "x0": _REQUIRED, "samples": 0},
        kw={"x0": dict(type=_checked(float, lambda x: math.isfinite(x) and x != 0.0,
                                     "must be a finite nonzero number"),
                       help="initial displacement (the ansatz normalizes by it)"),
            "samples": dict(type=_count, help="also sample x(t) to CSV")},
        second=lambda cfg: ".csv" if cfg["samples"] else ""),
    "kbm": _Command(
        cmd_kbm, "second-order amplitude-phase approximation",
        {**_PARAMS, **_START, "t_end": _REQUIRED, "order": 2, "samples": 1000,
         "compare": False},
        plot=((1, 2), "amplitude-phase approximation")),
    "melnikov": _Command(
        cmd_melnikov, "separatrix distance function and chaos threshold",
        {**_params_but("epsilon"), "omega": _REQUIRED, "kind": "sech", "sign": 1},
        kw=_PERIOD_KW),
    "poincare": _Command(
        cmd_poincare, "stroboscopic section of one trajectory",
        {**_PARAMS, "omega": _REQUIRED, **_START, "points": 500, "transient": 100,
         "preset": None},
        presets={
            "fig6": {"a": 1.0, "b": 1.0, "c": 0.0, "delta": 0.1, "gamma": 0.35, "omega": 1.4,
                     "epsilon": 1.0, "x0": 0.0, "v0": 0.0},
            "fig9": {"a": 1.0, "b": 1.0, "c": 0.2, "delta": 0.1, "gamma": 0.35, "omega": 1.4,
                     "epsilon": 1.0, "x0": 0.0, "v0": 0.0},
        },
        kw=_PERIOD_KW, plot=((2, 3), "stroboscopic section")),
    "scan": _Command(
        cmd_scan, "chaos-onset amplitude per forcing frequency",
        {"a": 1.0, "b": 1.0, "c": 0.0, "delta": 0.1, "omega": _REQUIRED, "gamma_min": 0.05,
         "gamma_max": 1.0, "resolution": 0.005, "coarse_step": 0.01, "rows": 0, "jobs": 1,
         "preset": None},
        presets={"table1": {"omega": [om for om, _ in _TABLE1_ROWS],
                            "gamma_min": [max(0.02, g - 0.08) for _, g in _TABLE1_ROWS],
                            "gamma_max": [g + 0.12 for _, g in _TABLE1_ROWS]}},
        kw={"omega": dict(type=_positive, action="append", help="forcing frequency (repeatable)"),
            "gamma_min": dict(type=_nonnegative), "gamma_max": dict(type=_positive)},
        plot=((1, 2), "chaos onset amplitude")),
    "bifurcate": _Command(
        cmd_bifurcate, "strobe displacements over a forcing sweep",
        {**_params_but("gamma"), "omega": _REQUIRED, **_START,
         "gamma_min": _REQUIRED, "gamma_max": _REQUIRED, "gamma_steps": _REQUIRED,
         "points": 120, "transient": 100, "preset": None},
        presets={"fig7": {"a": 1.0, "b": 1.0, "c": 0.0, "delta": 0.1, "omega": 1.4,
                          "epsilon": 1.0, "gamma_min": 0.20, "gamma_max": 0.34,
                          "gamma_steps": 57, "x0": 0.0, "v0": 0.0}},
        kw=_PERIOD_KW, plot=((1, 2), "bifurcation diagram")),
    "control": _Command(
        cmd_control, "delayed-velocity-feedback run or (mu, tau) search",
        {**_PARAMS, **_START, "search": False, "preset": None},
        modes=("search", {
            False: {"mu": _REQUIRED, "tau": _REQUIRED, "t_end": _REQUIRED, "history": "zero",
                    "fit_degree": 5, "samples": 2000},
            True: {"mu_min": 0.5, "mu_max": 3.0, "tau_min": 2.0, "tau_max": 6.0, "grid": 20,
                   "jobs": 1},
        }),
        presets={"fig10": {"a": 1.0, "b": 1.0, "c": 0.2, "delta": 0.1, "gamma": 0.35,
                           "omega": 1.4, "epsilon": 1.0, "mu": 2.25311, "tau": 3.73093,
                           "x0": 0.0, "v0": 0.0, "t_end": 500.0}},
        second=lambda cfg: "" if cfg["search"] else ".json"),
    "sde": _Command(
        cmd_sde, "stochastic paths by the Euler-Maruyama scheme",
        {**_params_but("delta"), **_START, "dt": _REQUIRED,
         "n_steps": _REQUIRED, "seed": 0, "sigma": 0.1, "ensemble": 1, "save_paths": 10},
        second=lambda cfg: ".json"),
}


def _dash(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _resolve(parser: argparse.ArgumentParser, spec: _Command, args) -> dict:
    """The configuration a command reads and records: the flags given, then
    its preset's values, then its defaults, with every required flag set."""
    given = {k: getattr(args, k) for k in spec.declared() if getattr(args, k) is not None}
    preset = given.get("preset")
    bundle = spec.presets.get(preset, {})
    for key in sorted(bundle.keys() & given.keys()):
        parser.error(f"{_dash(key)} conflicts with preset {preset!r}")
    chosen = {**bundle, **given}
    reads, when = dict(spec.flags), {}
    if spec.modes:
        switch, by_value = spec.modes
        value = chosen.get(switch, reads[switch])
        reads.update(by_value[value])
        when = dict.fromkeys(by_value[value], f" when {_dash(switch)} is {value}")
        for key in sorted(given.keys() - reads.keys()):
            parser.error(f"{_dash(key)} is not read when {_dash(switch)} is {value}")
    cfg = {key: chosen.get(key, default) for key, default in reads.items()}
    for key, val in cfg.items():
        if val is _REQUIRED:
            parser.error(f"{_dash(key)} is required" + when.get(key, "")
                         + (" (or use a preset)" if spec.presets else ""))
    if "gamma" in cfg and "omega" in cfg:
        try:
            _params(cfg)
        except ValueError as exc:  # the forcing rule: every value passed a finite flag
            parser.error(f"argument --omega: {exc}")
    # scan's windows only: a bifurcate sweep may run downwards or stand still
    if spec.fn is cmd_scan:
        if np.any(np.greater_equal(cfg["gamma_min"], cfg["gamma_max"])):
            parser.error(f"argument --gamma-max: {cfg['gamma_max']!r} is not above "
                         f"--gamma-min {cfg['gamma_min']!r}")
        from . import chaos
        try:
            for lo, hi in np.broadcast(cfg["gamma_min"], cfg["gamma_max"]):
                chaos._grid_steps(float(lo), float(hi), cfg["coarse_step"])
        except ValueError as exc:
            parser.error(f"argument --coarse-step: {exc}")
    if "fit_degree" in cfg:
        from . import pyragas
        if cfg["fit_degree"] > pyragas._FIT_DEGREE_MAX:
            parser.error(f"argument --fit-degree: must be at most {pyragas._FIT_DEGREE_MAX}, "
                         f"got {cfg['fit_degree']!r}")
    if "n_steps" in cfg and not math.isfinite(cfg["n_steps"] * cfg["dt"]):
        parser.error(f"argument --dt: the horizon n_steps * dt = {cfg['n_steps']} * "
                     f"{cfg['dt']!r} overflows")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cqduffing",
        description="Driven cubic-quintic Duffing oscillator analysis toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        for flag in spec.declared():
            kw = spec.kw.get(flag, _FLAGS[flag])
            if flag == "preset":
                kw = dict(kw, choices=sorted(spec.presets))
            # None marks a flag not given; the resolver fills in the defaults.
            sp.add_argument(_dash(flag), dest=flag, default=None, **kw)
        sp.add_argument("--out", default=None, help="output file path")
        sp.add_argument("--outdir", default=None,
                        help=f"output directory (default ${_OUTDIR_ENV} or .)")
        if spec.plot:
            sp.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script")
        sp.set_defaults(subparser=sp)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = _COMMANDS[args.command]
    cfg = _resolve(args.subparser, spec, args)
    out_paths = _out_paths(args.subparser, args, spec.second(cfg) if spec.second else "")
    try:
        summary = spec.fn(cfg, out_paths)
        if spec.plot and args.gnuplot:
            _write_gnuplot(summary["output"], *spec.plot)
    except (IntegrationError, ValueError, ArithmeticError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    print(json.dumps({"command": args.command, **summary}, sort_keys=True, default=_fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
