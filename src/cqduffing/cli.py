"""Command-line surface: every subcommand maps onto one library operation
and emits plot-ready CSV or JSON.

Conventions shared by all subcommands:
  * the resolved configuration (all defaults made explicit) is embedded in
    every output file, so a rerun from the embedded config is
    byte-identical;
  * floats are written with 17 significant digits (lossless round-trip),
    comma separators, '.' decimal point, LF line endings;
  * exit code 0 = success (stdout carries a one-line JSON summary),
    1 = numerical failure, 2 = flag validation error;
  * presets fill in parameter bundles but never override a flag the user
    passed: a conflict is a validation error;
  * CQDUFFING_OUTDIR sets the default output directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import chaos, exact, kbm, melnikov, pyragas, sde
from .core import OscillatorParams, State, acceleration, energy_report
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


def _out_path(args, default_name: str) -> str:
    if args.out:
        return args.out
    outdir = args.outdir or os.environ.get(_OUTDIR_ENV, ".")
    return os.path.join(outdir, default_name)


def _summary(**kv) -> int:
    print(json.dumps(kv, sort_keys=True, default=_fmt))
    return 0


def _map_jobs(fn, items, jobs: int) -> list:
    """fn over items in order, across `jobs` worker processes when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _params_from(args) -> OscillatorParams:
    return OscillatorParams(a=args.a, b=args.b, c=args.c, delta=args.delta,
                            gamma=args.gamma, omega=args.omega, epsilon=args.epsilon)


def _add_param_flags(sp, forcing=True):
    sp.add_argument("--a", type=float, default=None, help="linear stiffness")
    sp.add_argument("--b", type=float, default=None, help="cubic coefficient")
    sp.add_argument("--c", type=float, default=None, help="quintic coefficient")
    sp.add_argument("--delta", type=float, default=None, help="damping")
    if forcing:
        sp.add_argument("--gamma", type=float, default=None, help="forcing amplitude")
        sp.add_argument("--omega", type=float, default=None, help="forcing frequency")
    sp.add_argument("--epsilon", type=float, default=None, help="perturbation scale")


def _add_common_out(sp):
    sp.add_argument("--out", default=None, help="output file path")
    sp.add_argument("--outdir", default=None, help=f"output directory (default ${_OUTDIR_ENV} or .)")
    sp.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script")


_DEFAULTS = {"a": 1.0, "b": 1.0, "c": 1.0, "delta": 0.0, "gamma": 0.0, "omega": 0.0,
             "epsilon": 1.0, "x0": 0.0, "v0": 0.0}

# Preset parameter bundles. Scan windows for the frequency table are
# centered on the published onset amplitudes so a desk-scale rerun stays
# cheap; the full resolved window always lands in the output config.
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

_PRESETS: dict[str, dict[str, dict]] = {
    "poincare": {
        "fig6": {"a": 1.0, "b": 1.0, "c": 0.0, "delta": 0.1, "gamma": 0.35, "omega": 1.4,
                 "epsilon": 1.0, "x0": 0.0, "v0": 0.0},
        "fig9": {"a": 1.0, "b": 1.0, "c": 0.2, "delta": 0.1, "gamma": 0.35, "omega": 1.4,
                 "epsilon": 1.0, "x0": 0.0, "v0": 0.0},
    },
    "bifurcate": {
        "fig7": {"a": 1.0, "b": 1.0, "c": 0.0, "delta": 0.1, "omega": 1.4, "epsilon": 1.0,
                 "gamma_min": 0.20, "gamma_max": 0.34, "gamma_steps": 57,
                 "x0": 0.0, "v0": 0.0},
    },
    "control": {
        "fig10": {"a": 1.0, "b": 1.0, "c": 0.2, "delta": 0.1, "gamma": 0.35, "omega": 1.4,
                  "epsilon": 1.0, "mu": 2.25311, "tau": 3.73093, "x0": 0.0, "v0": 0.0,
                  "t_end": 500.0},
    },
}


def _apply_preset(parser, args, command: str, keys: list[str]) -> dict:
    """Fill preset values into args; explicit user flags conflict."""
    preset = getattr(args, "preset", None)
    resolved = {}
    bundle = {}
    if preset:
        table = _PRESETS.get(command, {})
        if preset not in table:
            parser.error(f"unknown preset {preset!r} for {command}")
        bundle = table[preset]
        for key, val in bundle.items():
            if getattr(args, key, None) is not None:
                parser.error(f"--{key.replace('_', '-')} conflicts with preset {preset!r}")
            setattr(args, key, val)
    for key in keys:
        if getattr(args, key, None) is None:
            if key in _DEFAULTS:
                setattr(args, key, _DEFAULTS[key])
            elif key not in bundle:
                parser.error(f"--{key.replace('_', '-')} is required (or use a preset)")
        resolved[key] = getattr(args, key)
    return resolved


# ---------------------------------------------------------------- commands

def cmd_simulate(parser, args) -> int:
    cfg = _apply_preset(parser, args, "simulate",
                        ["a", "b", "c", "delta", "gamma", "omega", "epsilon", "x0", "v0"])
    cfg.update(t_end=args.t_end, abs_tol=args.abs_tol, rel_tol=args.rel_tol,
               dt=args.dt, method=args.method, samples=args.samples)
    if args.method == "rk4" and args.dt is None:
        parser.error("--method rk4 needs --dt")
    p = _params_from(args)
    ctrl = StepControl(dt=args.dt, abs_tol=args.abs_tol, rel_tol=args.rel_tol, method=args.method)
    traj = integrate(partial(acceleration, p), State(0.0, args.x0, args.v0), args.t_end, ctrl)
    ts = np.linspace(0.0, args.t_end, args.samples)
    rows = list(zip(ts.tolist(), *(col.tolist() for col in traj.eval(ts))))
    out = _out_path(args, "simulate.csv")
    _write_csv(out, "simulate", cfg, ["t", "x", "v"], rows)
    if args.gnuplot:
        _write_gnuplot(out, (1, 2), "trajectory")
    rep = energy_report(p, traj)
    return _summary(command="simulate", output=out, samples=len(rows),
                    energy_constant=rep.K, energy_drift=rep.max_drift)


def cmd_exact(parser, args) -> int:
    cfg = _apply_preset(parser, args, "exact", ["a", "b", "c"])
    cfg.update(x0=args.x0, samples=args.samples)
    sol = exact.solve_cn_coefficients(args.a, args.b, args.c, args.x0)
    resid = float(np.abs(exact.cn_ansatz_residuals(
        args.a, args.b, args.c, args.x0, sol.lam, sol.mu, sol.omega_cn, sol.m)).max())
    branches = [
        {"family": br.family, "lam": br.lam, "mu": br.mu, "omega": br.omega_cn,
         "m": br.m, "residual": br.residual}
        for br in exact.closed_form_branches(args.a, args.b, args.c, args.x0)
    ]
    payload = {
        "solution": {"x0": sol.x0, "lam": sol.lam, "mu": sol.mu,
                     "omega": sol.omega_cn, "m": sol.m, "period": sol.period,
                     "residual": resid},
        "closed_form_branches": branches,
    }
    out = _out_path(args, "exact.json")
    _write_json(out, "exact", cfg, payload)
    if args.samples:
        ts = np.linspace(0.0, 2.0 * sol.period if math.isfinite(sol.period) else 10.0,
                         args.samples)
        rows = [(float(t), exact.eval_cn_solution(sol, float(t))) for t in ts]
        csv_out = out.rsplit(".", 1)[0] + ".csv"
        _write_csv(csv_out, "exact", cfg, ["t", "x"], rows)
    return _summary(command="exact", output=out, lam=sol.lam, mu=sol.mu,
                    omega=sol.omega_cn, m=sol.m, residual=resid)


def cmd_kbm(parser, args) -> int:
    cfg = _apply_preset(parser, args, "kbm",
                        ["a", "b", "c", "delta", "gamma", "omega", "epsilon", "x0", "v0"])
    cfg.update(t_end=args.t_end, samples=args.samples, order=args.order)
    p = _params_from(args)
    sol = kbm.kbm_solve(p, args.x0, args.v0, args.t_end, order=args.order)
    ts = np.linspace(0.0, args.t_end, args.samples)
    if args.compare:
        ctrl = StepControl(abs_tol=1e-11, rel_tol=1e-11)
        ref = integrate(partial(acceleration, p), State(0.0, args.x0, args.v0), args.t_end, ctrl)
        rows = [(t, sol.eval(t), xr) for t, xr in zip(ts.tolist(), ref.eval_x(ts).tolist())]
        header = ["t", "x_approx", "x_reference"]
        max_err = max(abs(r[1] - r[2]) for r in rows)
    else:
        rows = [(float(t), sol.eval(float(t))) for t in ts]
        header = ["t", "x_approx"]
        max_err = None
    out = _out_path(args, "kbm.csv")
    _write_csv(out, "kbm", cfg, header, rows)
    if args.gnuplot:
        _write_gnuplot(out, (1, 2), "amplitude-phase approximation")
    c = sol.coeffs
    return _summary(command="kbm", output=out, omega0=c.omega0, eta=c.eta,
                    max_error_vs_reference=max_err)


def cmd_melnikov(parser, args) -> int:
    cfg = _apply_preset(parser, args, "melnikov",
                        ["a", "b", "c", "delta", "gamma", "omega", "epsilon"])
    cfg.update(kind=args.kind, sign=args.sign)
    p = _params_from(args)
    orbit = exact.homoclinic_orbit(args.a, args.b, args.c, args.kind, args.sign)
    res = (melnikov.melnikov_sech if args.kind == "sech" else melnikov.melnikov_tanh)(orbit, p)
    critical_gamma = abs(p.delta) * res.threshold_ratio if math.isfinite(res.threshold_ratio) else None
    payload = {
        "orbit": {"A": orbit.A, "k": orbit.k, "lam": orbit.lam, "kind": orbit.kind},
        "wave_coeff": res.wave_coeff,
        "damp_coeff": res.damp_coeff,
        "threshold_ratio": res.threshold_ratio,
        "critical_gamma": critical_gamma,
        "oscillation": res.oscillation,
        "has_simple_zeros": res.has_simple_zeros,
        "fit": {"coefficients": list(res.fit.coefficients), "max_error": res.fit.max_error},
        "damping_by_quadrature": res.damping_by_quadrature,
    }
    out = _out_path(args, "melnikov.json")
    _write_json(out, "melnikov", cfg, payload)
    return _summary(command="melnikov", output=out, threshold_ratio=res.threshold_ratio,
                    critical_gamma=critical_gamma)


def cmd_poincare(parser, args) -> int:
    cfg = _apply_preset(parser, args, "poincare",
                        ["a", "b", "c", "delta", "gamma", "omega", "epsilon", "x0", "v0"])
    cfg.update(points=args.points, transient=args.transient)
    p = _params_from(args)
    series = chaos.poincare_map(p, State(0.0, args.x0, args.v0), args.points, args.transient)
    rows = [(n + 1, float(pt[0]), float(pt[1])) for n, pt in enumerate(series.points)]
    out = _out_path(args, "poincare.csv")
    _write_csv(out, "poincare", cfg, ["n", "P", "Q"], rows)
    if args.gnuplot:
        _write_gnuplot(out, (2, 3), "stroboscopic section")
    return _summary(command="poincare", output=out, points=len(rows),
                    clusters=chaos.cluster_count(series.points))


def _scan_row(job) -> tuple:
    omega, gamma_lo, gamma_hi, a, b, c, delta, resolution, coarse = job
    row = chaos.gamma_scan(a, b, c, delta, omega, (gamma_lo, gamma_hi), resolution,
                           coarse_step=coarse)
    if isinstance(row, chaos.NoOnset):
        return (omega, math.nan, row.max_lyapunov)
    return (omega, row.gamma_c, row.lyapunov)


def cmd_scan(parser, args) -> int:
    a, b, c, delta = (default if val is None else val for val, default in
                      ((args.a, 1.0), (args.b, 1.0), (args.c, 0.0), (args.delta, 0.1)))
    if args.preset == "table1":
        row_defs = _TABLE1_ROWS[: args.rows] if args.rows else _TABLE1_ROWS
        if args.omega:
            parser.error("--omega conflicts with preset 'table1'")
        jobs = [(om, max(0.02, g - 0.08), g + 0.12, a, b, c, delta,
                 args.resolution, args.coarse_step) for om, g in row_defs]
    elif args.preset:
        parser.error(f"unknown preset {args.preset!r} for scan")
    else:
        if not args.omega:
            parser.error("--omega is required (repeatable), or use --preset table1")
        jobs = [(om, args.gamma_min, args.gamma_max, a, b, c, delta,
                 args.resolution, args.coarse_step) for om in args.omega]
    cfg = {"a": a, "b": b, "c": c, "delta": delta, "resolution": args.resolution,
           "coarse_step": args.coarse_step, "jobs": args.jobs,
           "rows": [list(j[:3]) for j in jobs], "preset": args.preset}
    results = _map_jobs(_scan_row, jobs, args.jobs)
    out = _out_path(args, "scan.csv")
    _write_csv(out, "scan", cfg, ["omega", "gamma_c", "lyapunov"], results)
    if args.gnuplot:
        _write_gnuplot(out, (1, 2), "chaos onset amplitude")
    return _summary(command="scan", output=out, rows=len(results))


def cmd_bifurcate(parser, args) -> int:
    cfg = _apply_preset(parser, args, "bifurcate",
                        ["a", "b", "c", "delta", "omega", "epsilon", "x0", "v0",
                         "gamma_min", "gamma_max", "gamma_steps"])
    cfg.update(points=args.points, transient=args.transient)
    p = OscillatorParams(a=args.a, b=args.b, c=args.c, delta=args.delta,
                         gamma=args.gamma_min, omega=args.omega, epsilon=args.epsilon)
    sweep = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    data = chaos.bifurcation_data(p, sweep, n_points=args.points,
                                  n_transient=args.transient,
                                  s0=State(0.0, args.x0, args.v0))
    rows = [(g, float(x)) for g, xs in data for x in xs]
    out = _out_path(args, "bifurcation.csv")
    _write_csv(out, "bifurcate", cfg, ["gamma", "p_value"], rows)
    if args.gnuplot:
        _write_gnuplot(out, (1, 2), "bifurcation diagram")
    return _summary(command="bifurcate", output=out, gammas=len(data), rows=len(rows))


def cmd_control(parser, args) -> int:
    keys = ["a", "b", "c", "delta", "gamma", "omega", "epsilon", "x0", "v0"]
    if not args.search:
        keys += ["mu", "tau", "t_end"]
    cfg = _apply_preset(parser, args, "control", keys)
    p = _params_from(args)
    if args.search:
        cfg.update(mu_min=args.mu_min, mu_max=args.mu_max, tau_min=args.tau_min,
                   tau_max=args.tau_max, grid=args.grid, jobs=args.jobs)
        cells = pyragas.search_mu_tau(
            p, (args.mu_min, args.mu_max), (args.tau_min, args.tau_max),
            (args.grid, args.grid), State(0.0, args.x0, args.v0),
            map_fn=lambda fn, items: _map_jobs(fn, items, args.jobs))
        out = _out_path(args, "control_search.csv")
        _write_csv(out, "control", cfg, ["mu", "tau", "controller_norm", "is_periodic"], cells)
        best = cells[0]
        return _summary(command="control", output=out, cells=len(cells),
                        best_mu=best[0], best_tau=best[1], best_norm=best[2])
    cfg.update(t_end=args.t_end, fit_degree=args.fit_degree)
    cfgc = pyragas.ControllerConfig(mu=args.mu, tau=args.tau, history_policy=args.history)
    traj, report = pyragas.run_controlled(p, cfgc, State(0.0, args.x0, args.v0), args.t_end)
    w1 = traj.t[-1]
    w0 = max(traj.t[0], w1 - args.tau)
    coeffs, fit_resid = pyragas.chebyshev_fit_orbit(traj, (w0, w1), args.fit_degree)
    ts = np.linspace(0.0, traj.t[-1], args.samples)
    rows = list(zip(ts.tolist(), *(col.tolist() for col in traj.eval(ts))))
    out = _out_path(args, "control.csv")
    _write_csv(out, "control", cfg, ["t", "x", "v"], rows)
    payload = {
        "report": {
            "is_periodic": report.is_periodic,
            "period": report.period,
            "residual": report.residual,
            "controller_norm": report.controller_norm,
            "tolerance": report.tolerance,
        },
        "orbit_fit": {"window": [float(w0), float(w1)], "degree": args.fit_degree,
                      "monomial_coefficients": [float(cc) for cc in coeffs],
                      "max_residual": fit_resid},
        "trajectory_csv": out,
    }
    jout = out.rsplit(".", 1)[0] + ".json"
    _write_json(jout, "control", cfg, payload)
    return _summary(command="control", output=jout, is_periodic=report.is_periodic,
                    controller_norm=report.controller_norm, residual=report.residual)


def cmd_sde(parser, args) -> int:
    cfg = _apply_preset(parser, args, "sde",
                        ["a", "b", "c", "delta", "gamma", "omega", "epsilon", "x0", "v0"])
    cfg.update(dt=args.dt, n_steps=args.n_steps, seed=args.seed, sigma=args.sigma,
               ensemble=args.ensemble, save_paths=args.save_paths)
    p = _params_from(args)
    scfg = sde.SdeConfig(dt=args.dt, n_steps=args.n_steps, seed=args.seed,
                         sigma=args.sigma, ensemble=args.ensemble)
    paths = sde.euler_maruyama(p, scfg, State(0.0, args.x0, args.v0))
    out = _out_path(args, "sde_paths.csv")
    rows = []
    for j, tr in enumerate(paths[: args.save_paths]):
        rows.extend((j, float(t), float(x), float(v)) for t, x, v in zip(tr.t, tr.x, tr.v))
    _write_csv(out, "sde", cfg, ["path", "t", "x", "v"], rows)
    t_final = float(paths[0].t[-1])
    payload: dict = {"paths_csv": out, "truncated": sum(tr.metadata["truncated"] for tr in paths)}
    if args.ensemble >= 2:
        st = sde.ensemble_stats(paths, t_final)
        payload["final_time_stats"] = {
            "t": st.t, "n": st.n, "mean_x": st.mean_x, "var_x": st.var_x,
            "mean_v": st.mean_v, "var_v": st.var_v,
        }
    jout = out.rsplit(".", 1)[0] + ".json"
    _write_json(jout, "sde", cfg, payload)
    return _summary(command="sde", output=jout, ensemble=args.ensemble, t_final=t_final)


# ---------------------------------------------------------------- parser

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
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "must be a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cqduffing",
        description="Driven cubic-quintic Duffing oscillator analysis toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate one trajectory")
    _add_param_flags(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--t-end", type=float, required=True, dest="t_end")
    sp.add_argument("--method", choices=["dp54", "rk4"], default="dp54")
    sp.add_argument("--abs-tol", type=float, default=1e-10)
    sp.add_argument("--rel-tol", type=float, default=1e-10)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--samples", type=_positive_int, default=1000)
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("exact", help="elliptic closed-form solution of the unforced equation")
    _add_param_flags(sp, forcing=False)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--samples", type=_count, default=0, help="also sample x(t) to CSV")
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_exact)

    sp = sub.add_parser("kbm", help="second-order amplitude-phase approximation")
    _add_param_flags(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--t-end", type=float, required=True, dest="t_end")
    sp.add_argument("--order", type=int, choices=[1, 2], default=2)
    sp.add_argument("--samples", type=_positive_int, default=1000)
    sp.add_argument("--compare", action="store_true", help="add a reference-integration column")
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_kbm)

    sp = sub.add_parser("melnikov", help="separatrix distance function and chaos threshold")
    _add_param_flags(sp)
    sp.add_argument("--kind", choices=["sech", "tanh"], default="sech")
    sp.add_argument("--sign", type=int, choices=[1, -1], default=1)
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_melnikov)

    sp = sub.add_parser("poincare", help="stroboscopic section of one trajectory")
    _add_param_flags(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--points", type=_positive_int, default=500)
    sp.add_argument("--transient", type=_count, default=100)
    sp.add_argument("--preset", default=None, help="fig6 | fig9")
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_poincare)

    sp = sub.add_parser("scan", help="chaos-onset amplitude per forcing frequency")
    _add_param_flags(sp, forcing=False)
    sp.add_argument("--omega", type=float, action="append", default=None,
                    help="forcing frequency (repeatable)")
    sp.add_argument("--gamma-min", type=float, default=0.05, dest="gamma_min")
    sp.add_argument("--gamma-max", type=float, default=1.0, dest="gamma_max")
    sp.add_argument("--resolution", type=_positive, default=0.005)
    sp.add_argument("--coarse-step", type=_positive, default=0.01, dest="coarse_step")
    sp.add_argument("--preset", default=None, help="table1")
    sp.add_argument("--rows", type=_count, default=0, help="limit preset rows (0: all)")
    sp.add_argument("--jobs", type=_positive_int, default=1)
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("bifurcate", help="strobe displacements over a forcing sweep")
    _add_param_flags(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--gamma-min", type=float, default=None, dest="gamma_min")
    sp.add_argument("--gamma-max", type=float, default=None, dest="gamma_max")
    sp.add_argument("--gamma-steps", type=_positive_int, default=None, dest="gamma_steps")
    sp.add_argument("--points", type=_positive_int, default=120)
    sp.add_argument("--transient", type=_count, default=100)
    sp.add_argument("--preset", default=None, help="fig7")
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_bifurcate)

    sp = sub.add_parser("control", help="delayed-velocity-feedback run or (mu, tau) search")
    _add_param_flags(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None, dest="t_end")
    sp.add_argument("--history", choices=["zero", "constant"], default="zero")
    sp.add_argument("--fit-degree", type=_positive_int, default=5, dest="fit_degree")
    sp.add_argument("--samples", type=_positive_int, default=2000)
    sp.add_argument("--search", action="store_true", help="grid search instead of one run")
    sp.add_argument("--mu-min", type=float, default=0.5, dest="mu_min")
    sp.add_argument("--mu-max", type=float, default=3.0, dest="mu_max")
    sp.add_argument("--tau-min", type=float, default=2.0, dest="tau_min")
    sp.add_argument("--tau-max", type=float, default=6.0, dest="tau_max")
    sp.add_argument("--grid", type=_positive_int, default=20)
    sp.add_argument("--jobs", type=_positive_int, default=1)
    sp.add_argument("--preset", default=None, help="fig10")
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_control)

    sp = sub.add_parser("sde", help="stochastic paths by the Euler-Maruyama scheme")
    _add_param_flags(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--dt", type=float, required=True)
    sp.add_argument("--n-steps", type=_positive_int, required=True, dest="n_steps")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sigma", type=float, default=0.1)
    sp.add_argument("--ensemble", type=_positive_int, default=1)
    sp.add_argument("--save-paths", type=_count, default=10, dest="save_paths")
    _add_common_out(sp)
    sp.set_defaults(fn=cmd_sde)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(parser, args)
    except (IntegrationError, ValueError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
