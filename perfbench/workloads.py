"""The four benchmark workloads: CLI argv from a seed, and output checks.

Every workload is one real ``cqduffing`` command. The seed picks the SDE
seed and, for ``bifurcate`` and ``control``, the start state ``(x0, v0)``
from a small fixed set near the origin. Seed 0 gives the start state
``(0, 0)``, where the commands use the paper presets exactly.

An output passes its check when it matches the reference recorded in
``reference.json`` (for the same argv), bitwise where possible and within
the tolerances below otherwise, and always when it meets the invariants
of its workload.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

START_STATES = [
    (0.0, 0.0), (0.05, 0.0), (-0.05, 0.0), (0.0, 0.05),
    (0.0, -0.05), (0.1, 0.1), (-0.1, 0.1), (0.1, -0.1),
]

# Tolerances used when the output is not bitwise equal to the reference.
STROBE_TOL = 1e-6        # absolute, per strobe, on gammas with a periodic section
PERIODIC_CLUSTERS = 8    # a section with at most this many clusters is periodic
CLUSTER_RADIUS = 1e-3
MOMENT_RTOL = 1e-9       # relative, on the SDE final-time moments
LYAP_THRESHOLD = 0.01    # chaos classifier threshold of chaos.gamma_scan

_FIG7 = ["--a", "1", "--b", "1", "--c", "0", "--delta", "0.1", "--omega", "1.4",
         "--epsilon", "1", "--gamma-min", "0.2", "--gamma-max", "0.34", "--gamma-steps", "57"]
_FIG10 = ["--a", "1", "--b", "1", "--c", "0.2", "--delta", "0.1", "--gamma", "0.35",
          "--omega", "1.4", "--epsilon", "1"]

# name -> (what one unit of work is, how many units one command does)
UNITS = {
    "chaos-scan": ("rows", 2),
    "bifurcation-sweep": ("gammas", 57),
    "control-search": ("cells", 36),
    "sde-ensemble": ("paths", 10000),
}

# name -> the calibration loop (see calibrate.py) whose speed corrects its times
HOST_SPEED = {
    "chaos-scan": "python",
    "bifurcation-sweep": "python",
    "control-search": "python",
    "sde-ensemble": "numpy",
}


def start_state(seed: int) -> tuple[float, float]:
    return START_STATES[seed % len(START_STATES)]


def out_path(name: str) -> str:
    """Where workload `name` writes, relative to the checkout root."""
    return os.path.join("perfbench", "out", "work", f"{name}.csv")


def argv_for(name: str, seed: int, out: str) -> list[str]:
    """The cqduffing CLI arguments of workload `name` at `seed`, writing to `out`."""
    x0, v0 = start_state(seed)
    start = [] if (x0, v0) == (0.0, 0.0) else ["--x0", repr(x0), "--v0", repr(v0)]
    if name == "chaos-scan":
        args = ["scan", "--preset", "table1", "--rows", "2", "--jobs", "1"]
    elif name == "bifurcation-sweep":
        args = ["bifurcate"] + (_FIG7 + start if start else ["--preset", "fig7"])
    elif name == "control-search":
        args = ["control", "--search", "--grid", "6", "--jobs", "1"] + (
            _FIG10 + start if start else ["--preset", "fig10"])
    elif name == "sde-ensemble":
        args = ["sde", "--a", "1", "--b", "1", "--c", "0.2", "--gamma", "0.2", "--omega", "1.4",
                "--dt", "0.01", "--n-steps", "2000", "--sigma", "0.1", "--ensemble", "10000",
                "--seed", str(seed)]
    else:
        raise KeyError(name)
    return args + ["--out", out]


# ---------------------------------------------------------------- reading outputs

def _data_lines(path: str) -> list[str]:
    """CSV lines after the config comment and the header."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# cqduffing"):
        raise ValueError(f"{path}: missing config line")
    return lines[2:]


def _rows(path: str) -> list[list[str]]:
    return [line.split(",") for line in _data_lines(path)]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sde_json(out: str) -> dict:
    with open(out.rsplit(".", 1)[0] + ".json") as fh:
        return json.load(fh)


def extract(name: str, out: str) -> dict:
    """The facts of one output that the checks compare."""
    if name == "sde-ensemble":
        doc = _sde_json(out)
        return {"digest": _digest(_data_lines(out)), "rows": _rows(out),
                "stats": doc.get("final_time_stats"), "truncated": doc.get("truncated")}
    return {"digest": _digest(_data_lines(out)), "rows": _rows(out)}


def _clusters(xs: list[float]) -> int:
    xs = sorted(xs)
    return 1 + sum(1 for a, b in zip(xs, xs[1:]) if b - a > CLUSTER_RADIUS)


def reference_record(name: str, argv: list[str], out: str) -> dict:
    """What reference.json keeps for one workload output."""
    facts = extract(name, out)
    rec = {"argv": argv[:-2], "digest": facts["digest"]}
    rows = facts["rows"]
    if name == "chaos-scan":
        rec["rows"] = [[float(v) for v in r] for r in rows]
    elif name == "bifurcation-sweep":
        by_gamma: dict[str, list[float]] = {}
        for g, x in rows:
            by_gamma.setdefault(g, []).append(float(x))
        rec["periodic"] = {g: xs for g, xs in by_gamma.items()
                           if _clusters(xs) <= PERIODIC_CLUSTERS}
    elif name == "control-search":
        rec["best"] = [float(rows[0][0]), float(rows[0][1])]
    elif name == "sde-ensemble":
        rec["stats"] = facts["stats"]
    return rec


# ---------------------------------------------------------------- checks

def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _close_set(got, want, tol=1e-12) -> bool:
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(sorted(got), sorted(want)))


def _invariants(name: str, facts: dict, summary: dict) -> list[str]:
    rows = facts["rows"]
    errs = []
    if name == "chaos-scan":
        windows = [(0.05, 0.307, 0.507), (0.1, 0.322, 0.522)]
        if len(rows) != 2 or summary.get("rows") != 2:
            return [f"expected 2 scan rows, got {len(rows)}"]
        for (om, lo, hi), r in zip(windows, rows):
            omega, gc, ly = (float(v) for v in r)
            if abs(omega - om) > 1e-12 or not math.isfinite(ly):
                errs.append(f"bad scan row {r}")
            elif not math.isnan(gc) and not (lo <= gc <= hi and ly > LYAP_THRESHOLD):
                errs.append(f"gamma_c {gc} outside [{lo}, {hi}] or exponent {ly} <= threshold")
    elif name == "bifurcation-sweep":
        vals = [(float(g), float(x)) for g, x in rows]
        gammas = sorted({g for g, _ in vals})
        if len(vals) != 57 * 120 or summary.get("rows") != 6840 or summary.get("gammas") != 57:
            errs.append(f"expected 6840 rows over 57 gammas, got {len(vals)}")
        if not _close_set(gammas, _linspace(0.2, 0.34, 57)):
            errs.append("gamma sweep differs from linspace(0.2, 0.34, 57)")
        if not _finite(x for _, x in vals):
            errs.append("non-finite strobe value")
    elif name == "control-search":
        cells = [(float(m), float(t), float(n), p) for m, t, n, p in rows]
        if len(cells) != 36 or summary.get("cells") != 36:
            return [f"expected 36 cells, got {len(cells)}"]
        want = {(round(m, 9), round(t, 9)) for m in _linspace(0.5, 3.0, 6) for t in _linspace(2.0, 6.0, 6)}
        if {(round(m, 9), round(t, 9)) for m, t, _, _ in cells} != want:
            errs.append("(mu, tau) cells differ from the 6x6 grid")
        norms = [n for _, _, n, _ in cells]
        if not _finite(norms) or min(norms) < 0 or norms != sorted(norms):
            errs.append("controller norms not finite, nonnegative and ascending")
        if any(p not in ("True", "False") for *_, p in cells):
            errs.append("is_periodic not a boolean")
        if (summary.get("best_mu"), summary.get("best_tau")) != cells[0][:2]:
            errs.append("summary best cell differs from the first CSV row")
    elif name == "sde-ensemble":
        st = facts["stats"] or {}
        if summary.get("ensemble") != 10000 or st.get("n") != 10000:
            errs.append("ensemble size is not 10000")
        moments = [st.get(k, math.nan) for k in ("mean_x", "var_x", "mean_v", "var_v")]
        if not _finite(moments) or moments[1] <= 0 or moments[3] <= 0:
            errs.append(f"bad final-time moments {moments}")
        if facts["truncated"] != 0:
            errs.append(f"{facts['truncated']} truncated paths")
        if len(rows) != 10 * 2001 or not _finite(float(v) for r in rows for v in r[1:]):
            errs.append(f"expected 20010 finite saved-path rows, got {len(rows)}")
    return errs


def _against_reference(name: str, facts: dict, ref: dict) -> tuple[str, list[str]]:
    """Compare with the recorded reference: ("bitwise", []) when the data
    are identical, else ("tolerance", errors)."""
    if facts["digest"] == ref["digest"]:
        return "bitwise", []
    rows = facts["rows"]
    errs = []
    if name == "chaos-scan":
        resolution = 0.005
        for r, want in zip(rows, ref["rows"]):
            gc, gw = float(r[1]), want[1]
            if math.isnan(gc) != math.isnan(gw) or (not math.isnan(gw) and abs(gc - gw) > resolution):
                errs.append(f"gamma_c {gc} vs reference {gw} (resolution {resolution})")
    elif name == "bifurcation-sweep":
        by_gamma: dict[str, list[float]] = {}
        for g, x in rows:
            by_gamma.setdefault(g, []).append(float(x))
        for g, want in ref["periodic"].items():
            got = by_gamma.get(g, [])
            if len(got) != len(want) or any(abs(a - b) > STROBE_TOL for a, b in zip(got, want)):
                errs.append(f"periodic strobe set at gamma={g} moved by more than {STROBE_TOL}")
    elif name == "control-search":
        best = [float(rows[0][0]), float(rows[0][1])]
        if best != ref["best"]:
            errs.append(f"best cell {best} vs reference {ref['best']}")
    elif name == "sde-ensemble":
        for k, want in ref["stats"].items():
            got = (facts["stats"] or {}).get(k)
            if got is None or abs(got - want) > MOMENT_RTOL * max(abs(want), 1e-300):
                errs.append(f"final-time {k} {got} vs reference {want}")
    return "tolerance", errs


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(name: str, argv: list[str], out: str, summary: dict,
          reference: dict) -> tuple[str, list[str], str | None]:
    """Check one command's output. Returns how it matched, the errors, and
    the digest of its data rows."""
    try:
        facts = extract(name, out)
        errs = _invariants(name, facts, summary)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return "unreadable", [f"{type(exc).__name__}: {exc}"], None
    ref = reference.get(name)
    if ref is None or ref["argv"] != argv[:-2]:
        return "invariants", errs, facts["digest"]
    match, ref_errs = _against_reference(name, facts, ref)
    return match, errs + ref_errs, facts["digest"]
