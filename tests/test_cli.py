import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqduffing
from cqduffing import melnikov
from cqduffing.cli import _COMMANDS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    summary = json.loads(out.out.strip().splitlines()[-1]) if out.out.strip() else {}
    return code, summary, out.err


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# cqduffing ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


CONTROL_RUN = ["control", "--a", "1", "--b", "1", "--c", "0.2", "--delta", "0.1", "--gamma", "0.35",
               "--omega", "1.4"]


@pytest.fixture
def no_work(monkeypatch):
    """Make every command fail if it runs: the boundary checks come first."""
    def work(cfg, out_path):
        raise AssertionError("the command ran")
    for name, spec in _COMMANDS.items():
        monkeypatch.setitem(_COMMANDS, name, spec._replace(fn=work))


class TestExactCommand:
    def test_reference_solution_values(self, tmp_path, capsys):
        out = tmp_path / "exact.json"
        code, summary, _ = run_cli(capsys, "exact", "--a", "-1", "--b", "2", "--c", "3",
                                   "--x0", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        sol = doc["solution"]
        assert float(sol["lam"]) == pytest.approx(4 - 3 * math.sqrt(2), abs=1e-9)
        assert float(sol["mu"]) == pytest.approx(12 * math.sqrt(2) - 17, abs=1e-9)
        assert float(sol["omega"]) == pytest.approx(3 * math.sqrt(2), abs=1e-9)
        assert float(sol["m"]) == pytest.approx((3 - 2 * math.sqrt(2)) / 6, abs=1e-9)
        assert summary["lam"] == pytest.approx(4 - 3 * math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("argv, want", [
        pytest.param(["--a", "0", "--b", "0", "--c", "1", "--x0", "0.5"],
                     (2 - 4 / math.sqrt(3), 4 * math.sqrt(3) - 7, 0.0625 / math.sqrt(3),
                      (2 - math.sqrt(3)) / 4), id="pure-quintic"),
        pytest.param(["--a", "0.5", "--b", "1", "--c", "0", "--x0", "1", "--samples", "5"],
                     (0.0, 0.0, 0.5, 1.0), id="separatrix-start"),
        pytest.param(["--a", "-1", "--b", "0", "--c", "0", "--x0", "0.5"], (0.0, 0.0, 1.0, 0.0),
                     id="linear"),
        pytest.param(["--a", "6000", "--b", "12000", "--c", "0", "--x0", "1", "--samples", "5"],
                     (0.0, 0.0, 6000.0, 1.0), id="separatrix-start-past-the-cosh-overflow"),
    ])
    def test_degenerate_limits(self, argv, want, tmp_path, capsys):
        out = tmp_path / "exact.json"
        code, summary, err = run_cli(capsys, "exact", *argv, "--out", str(out))
        assert code == 0, err
        got = tuple(summary[k] for k in ("lam", "mu", "omega", "m"))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
        if "--samples" in argv:  # the sech orbit: an infinite period, sampled on [0, 10]
            _, header, rows = read_csv(str(tmp_path / "exact.csv"))
            assert json.loads(out.read_text())["solution"]["period"] == math.inf
            assert [float(r[0]) for r in rows] == [0.0, 2.5, 5.0, 7.5, 10.0]
            rate = math.sqrt(float(argv[1]))
            for t, x in rows:  # sech, or its limit 0.0 where cosh overflows
                u = rate * float(t)
                assert float(x) == pytest.approx(1.0 / math.cosh(u) if u < 710.0 else 0.0,
                                                 rel=1e-14)

    def test_no_root_exits_1_naming_the_branch_residuals(self, tmp_path, capsys):
        out = tmp_path / "exact.json"
        code, _, err = run_cli(capsys, "exact", "--a", "1", "--b", "0", "--c", "-1", "--x0", "2",
                               "--out", str(out))
        assert code == 1
        assert "Traceback" not in err
        message = json.loads(err)["error"]
        assert message.startswith("no elliptic-ansatz root found")
        assert re.search(r"branch residuals after Gauss-Newton: general \S+, general ", message)
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    # finite knots whose interpolant overflows: h * h is inf, 0 * inf NaN
    (["poincare", "--a", "1", "--b", "1", "--c", "0", "--omega", "1e-200", "--points", "2",
      "--transient", "0", "--out", "p.csv"], "non-finite strobe at t=6.283185307179586e+200"),
    (["bifurcate", "--a", "1", "--b", "1", "--c", "0", "--omega", "1e-200", "--gamma-min", "0",
      "--gamma-max", "0", "--gamma-steps", "12", "--points", "2", "--transient", "0",
      "--out", "b.csv"], "non-finite strobe at index 0 at t=6.283185307179586e+200"),
    (["simulate", "--method", "rk4", "--dt", "1e300", "--t-end", "1e300", "--samples", "5",
      "--out", "s.csv"], "non-finite interpolated state at t=0.0"),
    # powers of a large x0
    (["exact", "--x0", "1e100", "--out", "e.json"], "x0=1e+100 is too large: x0 ** 4 overflows"),
    (["exact", "--a", "1", "--b", "1", "--c", "0", "--x0", "1e40", "--out", "e.json"],
     "x0=1e+40 is too large: x0 ** 8 overflows"),
    (["exact", "--x0", "1e77", "--out", "e.json"],
     "no elliptic-ansatz root found for (a=1.0, b=1.0, c=1.0, x0=1e+77)"),
], ids=["poincare", "bifurcate", "simulate", "exact-1e100", "exact-1e40-cubic", "exact-1e77"])
def test_overflow_exits_1_naming_where_and_writes_nothing(argv, message, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(err)["error"].startswith(message)  # one JSON line, no warning
    assert not list(tmp_path.iterdir())


class TestSimulateCommand:
    def test_equilibrium_stays_put(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, summary, _ = run_cli(capsys, "simulate", "--a", "1", "--b", "1", "--c", "1",
                                   "--x0", "0", "--v0", "0", "--t-end", "10",
                                   "--out", str(out))
        assert code == 0
        _, header, rows = read_csv(str(out))
        assert header == ["t", "x", "v"]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ("simulate", "--a", "1", "--b", "0.5", "--c", "0.25", "--x0", "0.3",
                "--t-end", "5")
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--a", "1", "--b", "0", "--c", "-1",
                               "--x0", "2", "--t-end", "50",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error" in err

    def test_gnuplot_script(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, *_ = run_cli(capsys, "simulate", "--a", "-1", "--b", "0", "--c", "0",
                           "--x0", "1", "--t-end", "3", "--out", str(out), "--gnuplot")
        assert code == 0
        assert (tmp_path / "sim.csv.gp").read_text().startswith("set datafile")


class TestPresets:
    def test_poincare_chaotic_preset(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, summary, _ = run_cli(capsys, "poincare", "--preset", "fig6",
                                   "--points", "300", "--transient", "100",
                                   "--out", str(out))
        assert code == 0
        assert summary["clusters"] > 100
        _, header, rows = read_csv(str(out))
        assert header == ["n", "P", "Q"] and len(rows) == 300

    def test_preset_flag_conflict_is_validation_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poincare", "--preset", "fig6", "--gamma", "0.2",
                  "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poincare", "--preset", "fig99", "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2

    def test_control_preset_runs(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, summary, _ = run_cli(capsys, "control", "--preset", "fig10",
                                   "--out", str(out))
        assert code == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["report"]["controller_norm"] == pytest.approx(0.143, abs=0.02)
        assert len(doc["orbit_fit"]["monomial_coefficients"]) == 6


class TestScanCommand:
    def test_explicit_omega_row(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, summary, _ = run_cli(capsys, "scan", "--omega", "1.4",
                                   "--gamma-min", "0.30", "--gamma-max", "0.40",
                                   "--resolution", "0.02", "--coarse-step", "0.02",
                                   "--out", str(out))
        assert code == 0
        _, header, rows = read_csv(str(out))
        assert header == ["omega", "gamma_c", "lyapunov"]
        assert len(rows) == 1
        omega, gamma_c, lyap = map(float, rows[0])
        assert omega == 1.4
        assert 0.30 <= gamma_c <= 0.38
        assert lyap > 0.01

    def test_table_preset_rows(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, summary, _ = run_cli(capsys, "scan", "--preset", "table1", "--rows", "2",
                                   "--resolution", "0.02", "--coarse-step", "0.04",
                                   "--out", str(out))
        assert code == 0
        _, header, rows = read_csv(str(out))
        assert header == ["omega", "gamma_c", "lyapunov"]
        assert len(rows) == 2
        assert [float(r[0]) for r in rows] == [0.05, 0.10]

    def test_diverging_exponent_names_the_time(self, tmp_path, capsys):
        # the softening quintic well lets the trajectory escape in its first
        # period, and x ** 3 overflows before the interval's finiteness check
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(capsys, "scan", "--omega", "1.2", "--c", "-1",
                               "--gamma-min", "0.3", "--gamma-max", "0.6", "--out", str(out))
        assert code == 1
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "trajectory diverged near t=0.0"
        assert not out.exists()

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        base = ("scan", "--preset", "table1", "--rows", "2", "--resolution", "0.2",
                "--coarse-step", "0.2")  # two rows: --jobs 2 runs two worker chunks
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run_cli(capsys, *base, "--jobs", "1", "--out", str(out1))[0] == 0
        assert run_cli(capsys, *base, "--jobs", "2", "--out", str(out2))[0] == 0
        b1 = out1.read_text().replace('"jobs": 1', '"jobs": N')
        b2 = out2.read_text().replace('"jobs": 2', '"jobs": N')
        assert b1 == b2


class TestControlSearch:
    def test_search_csv_and_parallel_merge(self, tmp_path, capsys):
        base = ("control", "--search", "--a", "1", "--b", "1", "--c", "0.2",
                "--delta", "0.1", "--gamma", "0.35", "--omega", "1.4",
                "--mu-min", "1.0", "--mu-max", "2.0", "--tau-min", "3.0",
                "--tau-max", "5.0", "--grid", "2")
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert run_cli(capsys, *base, "--jobs", "1", "--out", str(out1))[0] == 0
        assert run_cli(capsys, *base, "--jobs", "2", "--out", str(out2))[0] == 0
        _, header, rows = read_csv(str(out1))
        assert header == ["mu", "tau", "controller_norm", "is_periodic"]
        assert len(rows) == 4
        b1 = out1.read_text().replace('"jobs": 1', '"jobs": N')
        b2 = out2.read_text().replace('"jobs": 2', '"jobs": N')
        assert b1 == b2

    def test_diverging_cell_exits_1(self, tmp_path, capsys):
        # a softening quintic well: the start x0 = 2 escapes and overflows
        out = tmp_path / "search.csv"
        code, _, err = run_cli(capsys, "control", "--search", "--a", "1", "--b", "0", "--c", "-1",
                               "--delta", "0.1", "--gamma", "0.35", "--omega", "1.4",
                               "--x0", "2", "--grid", "3", "--out", str(out))
        assert code == 1
        assert "Traceback" not in err and "Warning" not in err
        assert re.search(r"non-finite state .* in the cell mu=", json.loads(err)["error"])
        assert not out.exists()


class TestSdeCommand:
    def test_paths_and_summary(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        code, summary, _ = run_cli(capsys, "sde", "--a", "0", "--b", "0", "--c", "0",
                                   "--gamma", "1.0", "--omega", "1.0",
                                   "--dt", "0.01", "--n-steps", "100", "--seed", "4",
                                   "--sigma", "0.1", "--ensemble", "20",
                                   "--save-paths", "3", "--out", str(out))
        assert code == 0
        _, header, rows = read_csv(str(out))
        assert header == ["path", "t", "x", "v"]
        assert {r[0] for r in rows} == {"0", "1", "2"}
        doc = json.loads((tmp_path / "paths.json").read_text())
        assert doc["final_time_stats"]["n"] == 20

    def test_deterministic_reruns(self, tmp_path, capsys):
        args = ("sde", "--a", "0", "--b", "0", "--c", "0", "--gamma", "0.5",
                "--omega", "1.0", "--dt", "0.02", "--n-steps", "50", "--seed", "10",
                "--ensemble", "4")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_truncated_ensemble_has_no_horizon_stats(self, tmp_path, capsys):
        # path 0 overflows at t = 7.1 and the statistics are taken at the
        # horizon 400 * 0.05 = 20, which it does not reach
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "sde", "--a", "1", "--b", "1", "--c", "-0.02",
                                   "--x0", "2", "--dt", "0.05", "--n-steps", "400",
                                   "--sigma", "3", "--ensemble", "3", "--seed", "4",
                                   "--out", str(tmp_path / "paths.csv"))
        assert code == 1
        assert "Traceback" not in err and "Warning" not in err and not caught
        assert "does not cover t=20.0 " in json.loads(err)["error"]

    def test_tiny_step_truncated_ensemble_exits_1_without_output(self, tmp_path, capsys):
        # both paths overflow at the first step and end at t = 0, which is
        # 3e-300 short of the horizon: no statistics are taken from x0
        code, _, err = run_cli(capsys, "sde", "--dt", "1e-300", "--n-steps", "3", "--ensemble", "2",
                               "--x0", "1e62", "--out", str(tmp_path / "paths.csv"))
        assert code == 1
        assert "Traceback" not in err
        assert json.loads(err)["error"].startswith("path 0 does not cover t=3e-300 ")
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_horizon_exits_2_without_saved_paths(self, tmp_path, capsys):
        # the horizon 3 * 1e308 is inf: rejected with the flags, before the work
        with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as exc:
            warnings.simplefilter("always")
            main(["sde", "--dt", "1e308", "--n-steps", "3", "--sigma", "0", "--ensemble", "2",
                  "--save-paths", "0", "--out", str(tmp_path / "paths.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --dt: the horizon n_steps * dt = 3 * 1e+308 overflows" in err
        assert "Warning" not in err and not caught
        assert list(tmp_path.iterdir()) == []


class TestOutdir:
    def test_env_var_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CQDUFFING_OUTDIR", str(tmp_path))
        code, summary, _ = run_cli(capsys, "simulate", "--a", "-1", "--b", "0",
                                   "--c", "0", "--x0", "1", "--t-end", "2")
        assert code == 0
        assert os.path.dirname(summary["output"]) == str(tmp_path)
        assert os.path.exists(summary["output"])

    @pytest.mark.parametrize("argv, env, message", [
        pytest.param(["--outdir", "{missing}"], None, "argument --outdir: no directory '{missing}'",
                     id="outdir"),
        pytest.param([], "{missing}", "CQDUFFING_OUTDIR: no directory '{missing}'", id="env"),
        pytest.param(["--out", "{missing}/e.json"], None,
                     "argument --out: no directory '{missing}'", id="out-in-missing-dir"),
        pytest.param(["--out", "{tmp}"], None, "argument --out: '{tmp}' is a directory",
                     id="out-is-dir"),
    ])
    @pytest.mark.parametrize("command", [
        ["simulate", "--x0", "0.1", "--t-end", "1"],
        ["exact", "--x0", "1"],
        ["sde", "--dt", "0.01", "--n-steps", "5"],
    ], ids=lambda argv: argv[0])
    def test_bad_location_exits_2_before_the_work(self, command, argv, env, message, no_work,
                                                   tmp_path, capsys, monkeypatch):
        fill = dict(missing=str(tmp_path / "missing"), tmp=str(tmp_path))
        if env:
            monkeypatch.setenv("CQDUFFING_OUTDIR", env.format(**fill))
        with pytest.raises(SystemExit) as exc:
            main(command + [a.format(**fill) for a in argv])
        assert exc.value.code == 2
        assert message.format(**fill) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_exits_1(self, tmp_path, capsys):
        # the JSON beside the paths CSV cannot be written: a directory has its name
        (tmp_path / "paths.json").mkdir()
        code, _, err = run_cli(capsys, "sde", "--dt", "0.01", "--n-steps", "5",
                               "--out", str(tmp_path / "paths.csv"))
        assert code == 1
        assert "Traceback" not in err
        assert "paths.json" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv, first, second", [
        pytest.param(["sde", "--dt", "0.01", "--n-steps", "5"], "paths", "paths.json", id="sde"),
        pytest.param(["exact", "--x0", "1", "--samples", "3"], "sol", "sol.csv", id="exact"),
        pytest.param(CONTROL_RUN + ["--mu", "3", "--tau", "3.6", "--t-end", "20", "--samples", "5"],
                     "c", "c.json", id="control"),
    ])
    def test_second_file_lands_beside_out(self, argv, first, second, tmp_path, capsys):
        outdir = tmp_path / "run.d"
        outdir.mkdir()
        assert run_cli(capsys, *argv, "--out", str(outdir / first))[0] == 0
        assert sorted(p.name for p in outdir.iterdir()) == sorted([first, second])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.d"]

    @pytest.mark.parametrize("argv, out", [
        pytest.param(["sde", "--dt", "0.01", "--n-steps", "5"], "p.json", id="sde"),
        pytest.param(["exact", "--x0", "1", "--samples", "3"], "e.csv", id="exact"),
        pytest.param(CONTROL_RUN + ["--mu", "3", "--tau", "3.6", "--t-end", "20", "--samples", "5"],
                     "c.json", id="control"),
    ])
    def test_out_naming_the_second_file_exits_2_before_the_work(self, argv, out, no_work,
                                                                tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / out)])
        assert exc.value.code == 2
        assert (f"argument --out: {str(tmp_path / out)!r} is also the path of the command's "
                "second file") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, out", [
        pytest.param(["exact", "--x0", "1"], "e.csv", id="exact-without-samples"),
        pytest.param(["control", "--search", "--preset", "fig10", "--grid", "1"], "s.json",
                     id="control-search"),
    ])
    def test_out_may_take_the_extension_of_a_file_not_written(self, argv, out, tmp_path, capsys):
        assert run_cli(capsys, *argv, "--out", str(tmp_path / out))[0] == 0
        assert [p.name for p in tmp_path.iterdir()] == [out]


class TestKbmBifurcateMelnikov:
    def test_kbm_compare_columns(self, tmp_path, capsys):
        out = tmp_path / "kbm.csv"
        code, summary, _ = run_cli(capsys, "kbm", "--a", "-1", "--b", "2", "--c", "1",
                                   "--delta", "0.025", "--gamma", "0.01",
                                   "--omega", "0.1", "--x0", "0.25", "--t-end", "30",
                                   "--compare", "--out", str(out))
        assert code == 0
        _, header, rows = read_csv(str(out))
        assert header == ["t", "x_approx", "x_reference"]
        assert summary["max_error_vs_reference"] < 0.02

    @pytest.mark.parametrize("argv, converged", [
        pytest.param(["--t-end", "1.0"], False, id="saddle-start"),
        pytest.param(["--a", "-1", "--b", "2", "--c", "1", "--delta", "0.025", "--gamma", "0.01",
                      "--omega", "0.1", "--x0", "0.25", "--t-end", "30", "--compare"], True,
                     id="readme"),
    ])
    def test_kbm_reports_the_initial_fit_without_a_warning(self, argv, converged, tmp_path,
                                                            capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, summary, err = run_cli(capsys, "kbm", *argv, "--outdir", str(tmp_path))
        assert code == 0 and err == ""
        assert summary["initial_fit_converged"] is converged

    def test_kbm_at_rest_on_a_forced_center_starts_at_the_origin(self, tmp_path, capsys):
        # the linear seed is amp = 0 there, where the fit's Jacobian is singular
        out = tmp_path / "kbm.csv"
        code, summary, err = run_cli(capsys, "kbm", "--a", "-1", "--b", "2", "--c", "1",
                                     "--delta", "0.025", "--gamma", "0.01", "--omega", "0.1",
                                     "--t-end", "10", "--out", str(out))
        assert code == 0 and err == ""
        assert summary["initial_fit_converged"] is True
        assert read_csv(str(out))[2][0] == ["0", "0"]

    def test_kbm_horizon_past_max_steps_exits_1_before_the_work(self, tmp_path, capsys):
        out = tmp_path / "kbm.csv"
        code, _, err = run_cli(capsys, "kbm", "--a", "-1", "--b", "2", "--c", "1", "--x0", "0.25",
                               "--t-end", "1e300", "--out", str(out))
        assert code == 1
        assert "max_steps=5000000 exceeded" in json.loads(err)["error"]
        assert not out.exists()

    def test_bifurcate_long_format(self, tmp_path, capsys):
        out = tmp_path / "bif.csv"
        code, summary, _ = run_cli(capsys, "bifurcate", "--a", "1", "--b", "1", "--c", "0",
                                   "--delta", "0.1", "--omega", "1.4",
                                   "--gamma-min", "0.2", "--gamma-max", "0.25",
                                   "--gamma-steps", "3", "--points", "20",
                                   "--transient", "60", "--out", str(out))
        assert code == 0
        _, header, rows = read_csv(str(out))
        assert header == ["gamma", "p_value"]
        assert len(rows) == 60

    def test_bifurcate_diverging_lockstep_sweep_exits_1(self, tmp_path, capsys):
        # 30 amplitudes are strobed in lockstep; the strongest escape the
        # softening quintic well and overflow
        out = tmp_path / "bif.csv"
        code, _, err = run_cli(capsys, "bifurcate", "--a", "-1", "--b", "0", "--c", "-1",
                               "--delta", "0.1", "--omega", "1.4", "--gamma-min", "0.1",
                               "--gamma-max", "5", "--gamma-steps", "30", "--points", "2",
                               "--transient", "2", "--out", str(out))
        assert code == 1
        assert "Traceback" not in err and "Warning" not in err
        assert re.search(r"non-finite state at index \d+ .* at t=", json.loads(err)["error"])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--a", "2.220446049250313e-16", "--gamma", "2.220446049250313e-16",
         "--omega", "7.487094522702176", "--kind", "sech"],
        ["--a", "-1", "--b", "-3", "--c", "1", "--sign", "-1", "--delta", "0.1", "--gamma", "0.35",
         "--omega", "1000", "--kind", "tanh"],
    ], ids=["sech", "tanh"])
    def test_melnikov_envelope_overflow_gives_infinite_ratio(self, argv, tmp_path, capsys):
        # cosh or sinh of omega pi / (2 sqrt k) overflows: its reciprocal is 0.0
        code, summary, err = run_cli(capsys, "melnikov", *argv, "--out", str(tmp_path / "m.json"))
        assert code == 0, err
        assert summary["threshold_ratio"] == math.inf and summary["critical_gamma"] is None

    def test_melnikov_evaluates_the_distance_function_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        assembled = melnikov.melnikov
        monkeypatch.setattr(melnikov, "melnikov", lambda *a: calls.append(a) or assembled(*a))
        code, summary, _ = run_cli(capsys, "melnikov", "--c", "0.2", "--delta", "0.1",
                                   "--gamma", "0.35", "--omega", "1.4",
                                   "--out", str(tmp_path / "m.json"))
        assert code == 0 and math.isfinite(summary["critical_gamma"])
        assert len(calls) == 1

    def test_melnikov_json(self, tmp_path, capsys):
        out = tmp_path / "mel.json"
        code, summary, _ = run_cli(capsys, "melnikov", "--a", "1", "--b", "1",
                                   "--c", "0.2", "--delta", "0.1", "--gamma", "0.35",
                                   "--omega", "1.4", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["has_simple_zeros"] is True
        assert 0.05 < float(doc["critical_gamma"]) < 0.35



def _probe(code: str, cwd=None) -> str:
    """The last stdout line of `code` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(cqduffing.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_startup_imports_no_scipy():
    # every command pays for what `import cqduffing.cli` loads; scipy alone
    # added about 0.65 s and 49 MB to each run, and the analysis modules and
    # the process pool load only in the commands that use them
    late = ("cqduffing.chaos", "cqduffing.exact", "cqduffing.kbm", "cqduffing.melnikov",
            "cqduffing.pyragas", "cqduffing.sde", "concurrent.futures", "multiprocessing")
    probe = ("import sys, cqduffing, cqduffing.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             f"or m.startswith({late!r})))")
    assert _probe(probe) == "[]"


# a command on tiny inputs, and the analysis modules it loads
_COMMAND_LOADS = [
    ("simulate --x0 1 --t-end 1 --samples 5", []),
    ("exact --x0 1", ["exact"]),
    ("kbm --t-end 1 --samples 5", ["kbm"]),
    ("melnikov --c 0.2 --delta 0.1 --gamma 0.35 --omega 1.4", ["exact", "melnikov"]),
    ("poincare --omega 1.4 --points 2 --transient 0", ["chaos"]),
    ("scan --omega 1.4 --gamma-min 0.3 --gamma-max 0.4 --resolution 0.1 --coarse-step 0.1 "
     "--jobs 1", ["chaos"]),
    ("bifurcate --omega 1.4 --gamma-min 0.2 --gamma-max 0.3 --gamma-steps 1 --points 2 "
     "--transient 0", ["chaos"]),
    ("control --mu 1 --tau 1 --t-end 2 --samples 5", ["pyragas"]),
    ("sde --dt 0.01 --n-steps 10 --save-paths 1", ["sde"]),
]


@pytest.mark.parametrize("argv, loads", _COMMAND_LOADS,
                         ids=[argv.split()[0] for argv, _ in _COMMAND_LOADS])
def test_a_command_loads_only_its_own_modules(argv, loads, tmp_path):
    probe = ("import sys; from cqduffing import cli; before = set(sys.modules); "
             f"code = cli.main({argv.split()!r}); "
             "new = sorted(m.split('.')[1] for m in set(sys.modules) - before "
             "if m.startswith('cqduffing.')); "
             "print(code, new, 'concurrent.futures' in sys.modules)")
    assert _probe(probe, cwd=tmp_path) == f"0 {loads} False"


class TestFlagValidation:
    @pytest.mark.parametrize("argv, flag", [
        (["scan", "--omega", "1.4", "--coarse-step", "0"], "--coarse-step"),
        (["scan", "--omega", "1.4", "--resolution", "0"], "--resolution"),
        (["scan", "--omega", "1.4", "--resolution", "nan"], "--resolution"),
        (["scan", "--preset", "table1", "--rows", "-3"], "--rows"),
        (["scan", "--omega", "1.4", "--jobs", "0"], "--jobs"),
        (["sde", "--dt", "0.01", "--n-steps", "10", "--ensemble", "0"], "--ensemble"),
        (["sde", "--dt", "0.01", "--n-steps", "10", "--save-paths", "-1"], "--save-paths"),
        (["sde", "--dt", "0.01", "--n-steps", "0"], "--n-steps"),
        (["control", "--search", "--preset", "fig10", "--grid", "0"], "--grid"),
        (["control", "--preset", "fig10", "--fit-degree", "0"], "--fit-degree"),
        (["control", "--preset", "fig10", "--samples", "0"], "--samples"),
        (["poincare", "--preset", "fig6", "--points", "0"], "--points"),
        (["poincare", "--preset", "fig6", "--transient", "-1"], "--transient"),
        (["simulate", "--t-end", "1", "--samples", "0"], "--samples"),
        (["kbm", "--t-end", "1", "--samples", "0"], "--samples"),
        (["bifurcate", "--preset", "fig7", "--points", "0"], "--points"),
        (["bifurcate", "--a", "1", "--b", "1", "--c", "0", "--delta", "0.1", "--omega", "1.4",
          "--gamma-min", "0.2", "--gamma-max", "0.3", "--gamma-steps", "0"], "--gamma-steps"),
        (["exact", "--x0", "1", "--samples", "-1"], "--samples"),
        (["poincare", "--preset", "fig6", "--points", "many"], "--points"),
        (["simulate", "--t-end", "-1"], "--t-end"),
        (["kbm", "--a", "-1", "--b", "2", "--c", "1", "--x0", "0.25", "--t-end", "-3"], "--t-end"),
        (CONTROL_RUN + ["--mu", "3", "--tau", "3.6", "--t-end", "-10"], "--t-end"),
        (CONTROL_RUN + ["--mu", "3", "--tau", "-1", "--t-end", "60"], "--tau"),
        (["sde", "--dt", "0", "--n-steps", "10"], "--dt"),
        (["sde", "--dt", "0.01", "--n-steps", "10", "--sigma", "-1"], "--sigma"),
        (["simulate", "--t-end", "1", "--method", "rk4", "--dt", "-0.1"], "--dt"),
        (["simulate", "--t-end", "1", "--abs-tol", "0"], "--abs-tol"),
        (["simulate", "--t-end", "1", "--rel-tol", "-0.5"], "--rel-tol"),
        (["simulate", "--t-end", "1", "--a", "nan"], "--a"),
        (["simulate", "--t-end", "1", "--x0", "inf"], "--x0"),
        (["melnikov", "--omega", "inf"], "--omega"),
        (["control", "--search", "--preset", "fig10", "--tau-max", "nan"], "--tau-max"),
        (["scan", "--omega", "1.4", "--gamma-min", "nan"], "--gamma-min"),
        (["sde", "--dt", "0.01", "--n-steps", "10", "--seed", "-1"], "--seed"),
        (["scan", "--omega", "0"], "--omega"),
        (["scan", "--omega", "-1.4"], "--omega"),
        (["scan", "--omega", "1.4", "--gamma-min", "-0.1"], "--gamma-min"),
        (["scan", "--omega", "1.4", "--gamma-max", "0"], "--gamma-max"),
        (["control", "--search", "--preset", "fig10", "--tau-min", "0"], "--tau-min"),
        (["control", "--search", "--preset", "fig10", "--tau-min", "-1"], "--tau-min"),
        (["control", "--search", "--preset", "fig10", "--tau-max", "0"], "--tau-max"),
        (["scan", "--omega", "1.4", "--gamma-min", "0.5", "--gamma-max", "0.2"], "--gamma-max"),
        (["scan", "--omega", "1.4", "--gamma-min", "0.5", "--gamma-max", "0.5"], "--gamma-max"),
        (["exact", "--x0", "0"], "--x0"),
        (["exact", "--x0", "0.0"], "--x0"),
        (["scan", "--omega", "1.4", "--coarse-step", "1e-320"], "--coarse-step"),
        (["scan", "--omega", "1.4", "--coarse-step", "1e-9"], "--coarse-step"),
        (["scan", "--preset", "table1", "--coarse-step", "1e-9"], "--coarse-step"),
        (["control", "--preset", "fig10", "--fit-degree", "31"], "--fit-degree"),
        (["control", "--preset", "fig10", "--fit-degree", "100000"], "--fit-degree"),
    ])
    def test_bad_value_exits_2_naming_the_flag(self, argv, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "never.csv")])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--gamma", "0.3", "--t-end", "1"],
         "argument --omega: omega must be > 0 when forcing is active"),
        (["sde", "--gamma", "0.3", "--dt", "0.01", "--n-steps", "5"],
         "argument --omega: omega must be > 0 when forcing is active"),
        (["melnikov", "--a", "1", "--b", "1", "--c", "0.2", "--delta", "0.1", "--gamma", "0.35"],
         "--omega is required"),
        (["melnikov", "--a", "1", "--b", "1", "--c", "0.2", "--omega", "0"],
         "argument --omega: must be a finite number > 0"),
        (["poincare", "--gamma", "0.3"], "--omega is required (or use a preset)"),
    ], ids=["forcing", "forcing-sde", "melnikov-default", "melnikov-zero", "poincare-default"])
    def test_parameters_the_library_rejects_exit_2_before_the_work(self, argv, message, no_work,
                                                                    tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_meaningful_zeros_are_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["exact", "--x0", "1", "--samples", "0"]).samples == 0
        assert parser.parse_args(["scan", "--preset", "table1", "--rows", "0"]).rows == 0
        args = parser.parse_args(["sde", "--dt", "0.01", "--n-steps", "5", "--save-paths", "0"])
        assert args.save_paths == 0


class TestControlReportTypes:
    def test_is_periodic_is_a_json_boolean(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, summary, _ = run_cli(capsys, "control", "--a", "1", "--b", "1", "--c", "0.2",
                                   "--delta", "0.1", "--gamma", "0.35", "--omega", "1.4",
                                   "--mu", "3", "--tau", "3.6", "--t-end", "60",
                                   "--samples", "50", "--out", str(out))
        assert code == 0
        report = json.loads((tmp_path / "c.json").read_text())["report"]
        assert isinstance(report["is_periodic"], bool)
        assert isinstance(summary["is_periodic"], bool)
        assert report["is_periodic"] is summary["is_periodic"]
        assert isinstance(report["controller_norm"], float) and isinstance(report["residual"], float)


def config_of(path):
    """The command and the configuration recorded in an output file."""
    with open(path) as fh:
        text = fh.read()
    if text.startswith("# cqduffing "):
        command, cfg = re.match(r"# cqduffing (\w+) config: (.*)", text).groups()
        return command, json.loads(cfg)
    doc = json.loads(text)
    return doc["command"], doc["config"]


def argv_from_config(command, cfg):
    """Flags that reproduce a recorded configuration: its preset, if any,
    and every value the preset does not own."""
    owned = _COMMANDS[command].presets.get(cfg.get("preset"), {})
    argv = [command]
    for key, val in cfg.items():
        if key in owned or val is None or val is False:
            continue
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append(flag)
        else:
            for item in val if isinstance(val, list) else [val]:
                argv += [flag, str(item)]
    return argv


class TestRecordedConfig:
    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--a", "1", "--b", "0.5", "--c", "0.25", "--x0", "0.3",
                      "--t-end", "2", "--samples", "20"], id="simulate"),
        pytest.param(["simulate", "--delta", "0.1", "--gamma", "0.35", "--omega", "1.4",
                      "--t-end", "2", "--method", "rk4", "--dt", "0.05", "--samples", "20"],
                     id="simulate-rk4"),
        pytest.param(["exact", "--a", "-1", "--b", "2", "--c", "3", "--x0", "1", "--samples", "5"],
                     id="exact"),
        pytest.param(["kbm", "--a", "-1", "--b", "2", "--c", "1", "--delta", "0.025",
                      "--gamma", "0.01", "--omega", "0.1", "--x0", "0.25", "--t-end", "2",
                      "--samples", "20", "--compare"], id="kbm-compare"),
        pytest.param(["melnikov", "--a", "1", "--b", "1", "--c", "0.2", "--delta", "0.1",
                      "--gamma", "0.35", "--omega", "1.4"], id="melnikov"),
        pytest.param(["poincare", "--preset", "fig6", "--points", "5", "--transient", "2"],
                     id="poincare-preset"),
        pytest.param(["scan", "--omega", "1.4", "--gamma-min", "0.3", "--gamma-max", "0.32",
                      "--resolution", "0.02", "--coarse-step", "0.02"], id="scan"),
        pytest.param(["scan", "--preset", "table1", "--rows", "1", "--resolution", "0.2",
                      "--coarse-step", "0.2"], id="scan-table1"),
        pytest.param(["bifurcate", "--a", "1", "--b", "1", "--c", "0", "--delta", "0.1",
                      "--omega", "1.4", "--gamma-min", "0.2", "--gamma-max", "0.25",
                      "--gamma-steps", "2", "--points", "3", "--transient", "2"], id="bifurcate"),
        pytest.param(["control", "--preset", "fig10", "--history", "constant", "--samples", "20"],
                     id="control-constant-history"),
        pytest.param(["control", "--search", "--preset", "fig10", "--grid", "1"],
                     id="control-search"),
        pytest.param(["sde", "--a", "0", "--b", "0", "--c", "0", "--gamma", "0.5", "--omega", "1",
                      "--dt", "0.02", "--n-steps", "10", "--seed", "3", "--ensemble", "3",
                      "--save-paths", "2"], id="sde"),
    ])
    def test_rerun_from_recorded_config_is_byte_identical(self, argv, tmp_path, capsys):
        out = tmp_path / ("data.json" if argv[0] in ("exact", "melnikov") else "data.csv")
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        rebuilt = argv_from_config(*config_of(out))
        for p in tmp_path.iterdir():
            p.unlink()
        assert run_cli(capsys, *rebuilt, "--out", str(out))[0] == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first

    @pytest.mark.parametrize("flag, value", [
        ("--omega", "1.4"), ("--gamma-min", "0.9"), ("--gamma-max", "0.95")])
    def test_table_preset_owns_its_windows(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--preset", "table1", "--rows", "1", flag, value,
                  "--out", str(tmp_path / "never.csv")])
        assert exc.value.code == 2
        assert f"{flag} conflicts with preset 'table1'" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["exact", "--x0", "1", "--delta", "0.1"], "--delta"),
        (["exact", "--x0", "1", "--epsilon", "0.5"], "--epsilon"),
        (["scan", "--omega", "1.4", "--epsilon", "0.5"], "--epsilon"),
        (["melnikov", "--epsilon", "0.5"], "--epsilon"),
        (["sde", "--dt", "0.01", "--n-steps", "10", "--delta", "0.1"], "--delta"),
        (["bifurcate", "--preset", "fig7", "--gamma", "0.3"], "--gamma"),
        (["exact", "--x0", "1", "--gnuplot"], "--gnuplot"),
        (["control", "--search", "--preset", "fig10", "--history", "constant"], "--history"),
        (["control", "--preset", "fig10", "--grid", "3"], "--grid"),
        (["simulate", "--t-end", "1", "--method", "rk4", "--dt", "0.1", "--abs-tol", "1e-3"],
         "--abs-tol"),
    ])
    def test_unread_flag_exits_2(self, argv, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "never.csv")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--t-end", "1", "--method", "rk4"], "--dt is required when --method is rk4"),
        (["scan", "--rows", "1"], "--omega is required (or use a preset)"),
        (CONTROL_RUN + ["--mu", "3", "--tau", "3.6"], "--t-end is required when --search is False"),
        (["exact"], "--x0 is required"),
    ])
    def test_missing_flag_exits_2(self, argv, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "never.csv")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class _Value(NamedTuple):
    """The values of one flag: valid ones, and ones its validator rejects
    (None: a switch, which has none)."""

    good: st.SearchStrategy
    bad: st.SearchStrategy | None = None


def _number(lo, hi, exclude_min=False):
    """A flag value: a float in [lo, hi] (or (lo, hi]) or a string no
    validator accepts."""
    return _Value(st.floats(lo, hi, exclude_min=exclude_min).map(repr),
                  st.sampled_from(["nan", "-inf", "inf", "x", ""]))


def _count(hi=5):
    return _Value(st.integers(0, hi).map(str), st.just("-1"))


def _positive(values=st.integers(1, 5)):
    return _Value(values.map(str), st.sampled_from(["0", "-1"]))


def _flags(required, **optional):
    """argv with each required flag given a drawn value and each optional
    flag absent or given one (None: a switch). One example in eight gives
    one flag, and no other, a value its validator rejects, so that most
    argv pass validation."""
    flags = {**required, **optional}
    rejectable = [flag for flag, values in flags.items() if values.bad is not None]

    @st.composite
    def argv(draw):
        bad = draw(st.sampled_from(rejectable)) if draw(st.integers(0, 7)) == 7 else None
        args = []
        for flag, values in flags.items():
            if flag != bad and flag in optional and not draw(st.booleans()):
                continue
            v = draw(values.bad if flag == bad else values.good)
            name = "--" + flag.replace("_", "-")
            args += [name] if v is None else [f"{name}={v}"]
        return args

    return argv()


_PHYSICAL = {k: _number(-10.0, 10.0) for k in ("a", "b", "c", "delta", "gamma", "epsilon")}
_FORCED = {**_PHYSICAL, "omega": _number(-1.0, 10.0), "x0": _number(-2.0, 2.0),
           "v0": _number(-2.0, 2.0)}
# --omega of the commands that need the forcing period
_PERIOD = _number(0.0, 10.0, exclude_min=True)
_HORIZON = _number(0.0, 1.0, exclude_min=True)

# Horizons <= 1 and counts <= 5 keep every example small.
_FUZZ = {
    "simulate": _flags({"t_end": _HORIZON}, **_FORCED,
                       method=_Value(st.sampled_from(["dp54", "rk4"]), st.just("euler")),
                       abs_tol=_number(1e-12, 1.0), rel_tol=_number(0.0, 1.0),
                       dt=_number(1e-3, 1.0), samples=_positive()),
    "exact": _flags({"x0": _number(-2.0, 2.0)}, **{k: _PHYSICAL[k] for k in "abc"},
                    samples=_count()),
    "kbm": _flags({"t_end": _HORIZON}, **_FORCED,
                  order=_Value(st.sampled_from(["1", "2"]), st.just("3")),
                  samples=_positive(), compare=_Value(st.none())),
    "melnikov": _flags({"omega": _PERIOD},
                       **{k: v for k, v in _FORCED.items() if k not in ("epsilon", "omega", "x0", "v0")},
                       kind=_Value(st.sampled_from(["sech", "tanh"]), st.just("cn")),
                       sign=_Value(st.sampled_from(["1", "-1"]), st.just("0"))),
    "sde": _flags({"dt": _number(0.0, 0.2, exclude_min=True), "n_steps": _positive()},
                  **{k: v for k, v in _FORCED.items() if k != "delta"},
                  seed=_count(), sigma=_number(0.0, 1.0), ensemble=_positive(),
                  save_paths=_count()),
    # at most 7 forcing periods; 24 amplitudes reach the lockstep sweep
    "poincare": _flags({"points": _positive(), "transient": _count(2), "omega": _PERIOD},
                       **{k: v for k, v in _FORCED.items() if k != "omega"}),
    "bifurcate": _flags({"gamma_min": _number(-1.0, 1.0), "gamma_max": _number(-1.0, 1.0),
                         "gamma_steps": _positive(st.sampled_from([1, 2, 5, 24])),
                         "points": _positive(), "transient": _count(2), "omega": _PERIOD},
                        **{k: v for k, v in _FORCED.items() if k not in ("gamma", "omega")}),
}


class TestFuzz:
    @pytest.mark.parametrize("command", sorted(_FUZZ))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_and_one_summary_line(self, command, data):
        argv = [command] + data.draw(_FUZZ[command])
        with tempfile.TemporaryDirectory() as outdir:
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                try:
                    code = main(argv + ["--outdir", outdir])
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["command"] == command
