"""End-to-end runs of the command-line harness on a small single well."""

import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlsbump.analysis
import nlsbump.cli
from nlsbump.cli import _base_ansatz, main
from nlsbump.config import load_config, problem_at
from nlsbump.fieldio import read_field
from nlsbump.solver import build_ansatz, newton_solve

SMOKE = """
problem.dim = 2
problem.p = 4
problem.exponent = 2
problem.patch_radius = 0.4
problem.well.0.center = 0 0
problem.well.0.depth = 1
grid.lo = -3 -3
grid.hi = 3 3
grid.spacing_divisor = 4
schedule.eps = 0.4 0.3
analysis.uniqueness_amp = 0.1
analysis.uniqueness_shift = 0.3
run.seed = 42
"""


def write_config(directory: Path, text: str, **overrides) -> Path:
    lines = [ln for ln in text.strip().splitlines()
             if not any(ln.startswith(key) for key in overrides)]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path = directory / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def read_rows(path: Path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full solve + analyze + uniqueness run, shared by the module."""
    root = tmp_path_factory.mktemp("pipeline")
    out = root / "out"
    cfg_path = write_config(root, SMOKE, **{"run.output_dir": str(out)})
    code = main(["all", "--config", str(cfg_path)])
    return cfg_path, out, code


def test_pipeline_exits_cleanly(pipeline):
    _, out, code = pipeline
    assert code == 0
    for name in ("solve.csv", "rates.csv", "pohozaev.csv",
                 "coercivity.csv", "uniqueness.csv"):
        assert (out / name).exists()


def test_groundstate_prints_the_closed_form_peak(tmp_path, capsys):
    code = main(["groundstate", "--va", "1", "--p", "4", "--dim", "1",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "u(0) = 1.414214" in captured.out
    table = read_rows(tmp_path / "profile_va1_p4_dim1.csv")
    assert set(table[0]) == {"r", "u", "du"}
    assert float(table[0]["u"]) == pytest.approx(2.0 ** 0.5, abs=1e-6)


def test_groundstate_decay_rate_near_one_in_dim3(tmp_path, capsys):
    code = main(["groundstate", "--va", "1", "--p", "4", "--dim", "3",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    line = next(ln for ln in captured.out.splitlines()
                if ln.startswith("decay_rate"))
    rate = float(line.split("=")[1])
    assert abs(rate - 1.0) <= 0.02


def test_groundstate_supercritical_exit_code(tmp_path, capsys):
    code = main(["groundstate", "--va", "1", "--p", "7", "--dim", "3",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nlsbump.cli", "groundstate",
         "--va", "1", "--p", "7", "--dim", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "supercritical" in proc.stderr


def test_solve_rows_monotone_and_converged(pipeline):
    _, out, _ = pipeline
    rows = read_rows(out / "solve.csv")
    eps = [float(r["eps"]) for r in rows]
    assert eps == sorted(eps, reverse=True)
    assert all(r["converged"] == "true" for r in rows)
    assert all(r["positivity"] == "true" for r in rows)
    assert all(r["error"] == "" for r in rows)
    for e in ("0.4", "0.3"):
        assert (out / f"solution_eps{e}.nlsb").exists()


def counting_newton(monkeypatch, *modules):
    """Route newton_solve through a wrapper; returns the list of eps solved."""
    solved = []

    def counting_solve(spec, *args, **kwargs):
        solved.append(spec.eps)
        return newton_solve(spec, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "newton_solve", counting_solve)
    return solved


def test_solve_calls_newton_once_per_eps(pipeline, tmp_path, monkeypatch):
    cfg_path, _, _ = pipeline
    solved = counting_newton(monkeypatch, nlsbump.cli)
    code = main(["solve", "--config", str(cfg_path), "--out",
                 str(tmp_path)])
    assert code == 0
    assert solved == [0.4, 0.3]


def test_solve_fields_are_cold_solves_from_the_ansatz(pipeline):
    # Every eps starts from the ansatz, not from the previous solution.
    cfg_path, out, _ = pipeline
    cfg = load_config(cfg_path)
    ansatz = _base_ansatz(cfg)
    for eps in cfg.eps_schedule:
        spec = problem_at(cfg, eps)
        cold, _ = newton_solve(spec, build_ansatz(spec, ansatz), cfg.solver)
        written, eps_file, _ = read_field(out / f"solution_eps{eps:g}.nlsb")
        assert eps_file == eps
        assert np.array_equal(written.values, cold.values)


def test_solve_failure_ends_the_sweep(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, SMOKE,
        **{"schedule.eps": "0.4 0.3",
           "solver.max_newton": "1",
           "run.output_dir": str(out)})
    solved = counting_newton(monkeypatch, nlsbump.cli)
    code = main(["solve", "--config", str(cfg_path)])
    assert code == 4
    assert solved == [0.4]
    first, second = read_rows(out / "solve.csv")
    assert [float(first["eps"]), float(second["eps"])] == [0.4, 0.3]
    assert (first["converged"], first["iterations"], first["error"]) \
        == ("false", "1", "newton did not converge")
    assert second["error"] == "not attempted"
    assert second["iterations"] == second["converged"] == ""
    assert not list(out.glob("*.nlsb"))


def test_pohozaev_rows_cover_the_sweep(pipeline):
    _, out, _ = pipeline
    rows = read_rows(out / "pohozaev.csv")
    assert len(rows) == 2 * 1 * 2  # eps points x wells x directions
    assert all(r["error"] == "" for r in rows)
    assert all(float(r["rel_residual"]) < 0.05 for r in rows)


def test_coercivity_rows_positive(pipeline):
    _, out, _ = pipeline
    rows = read_rows(out / "coercivity.csv")
    assert len(rows) == 2
    assert all(float(r["rho"]) > 0.0 for r in rows)
    assert all(float(r["unprojected_min"]) < 0.0 for r in rows)


def test_rates_rows_report_short_sweeps(pipeline):
    _, out, _ = pipeline
    rows = read_rows(out / "rates.csv")
    quantities = {r["quantity"] for r in rows}
    assert quantities == {"alpha", "w_norm", "drift_over_eps"}
    # two eps points cannot support a three-point fit; the rows say so
    for row in rows:
        assert "samples above the fit floor" in row["error"]
        assert row["slope"] == ""
    alpha = next(r for r in rows if r["quantity"] == "alpha")
    assert alpha["expected"] == "2"


def test_uniqueness_rows_all_pass(pipeline):
    _, out, _ = pipeline
    rows = read_rows(out / "uniqueness.csv")
    assert len(rows) == 4
    assert {r["pair"] for r in rows} == {"amplitude", "shift"}
    assert all(r["result"] == "pass" for r in rows)
    assert all(float(r["rel_diff"]) <= 1e-8 for r in rows)


def test_uniqueness_solves_four_times_per_eps(pipeline, tmp_path,
                                             monkeypatch):
    # Two solves per pair, and no separate reference solve: rel_diff is
    # taken relative to each pair's own first solution.
    cfg_path, _, _ = pipeline
    solved = counting_newton(monkeypatch, nlsbump.analysis, nlsbump.cli)
    code = main(["uniqueness", "--config", str(cfg_path), "--out",
                 str(tmp_path)])
    assert code == 0
    assert solved == [0.4] * 4 + [0.3] * 4


def test_rerun_is_byte_identical(pipeline, tmp_path, monkeypatch):
    cfg_path, out, _ = pipeline
    monkeypatch.setenv("NLSB_THREADS", "3")
    code = main(["all", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_identical_perturbations_give_exact_zero(tmp_path):
    cfg_path = write_config(
        tmp_path, SMOKE,
        **{"schedule.eps": "0.4",
           "analysis.uniqueness_amp": "0",
           "analysis.uniqueness_shift": "0",
           "run.output_dir": str(tmp_path / "out")})
    code = main(["uniqueness", "--config", str(cfg_path)])
    rows = read_rows(tmp_path / "out" / "uniqueness.csv")
    assert code == 0
    assert [r["sup_diff"] for r in rows] == ["0", "0"]
    assert all(r["result"] == "pass" for r in rows)


def test_starved_solver_is_a_solver_failure(tmp_path):
    cfg_path = write_config(
        tmp_path, SMOKE,
        **{"schedule.eps": "0.4",
           "solver.max_newton": "1",
           "run.output_dir": str(tmp_path / "out")})
    code = main(["uniqueness", "--config", str(cfg_path)])
    rows = read_rows(tmp_path / "out" / "uniqueness.csv")
    assert code == 4
    assert all(r["result"] == "solver-failure" for r in rows)
    assert all(r["result"] != "uniqueness-failure" for r in rows)
    assert all(r["error"] != "" for r in rows)


def test_overlapping_wells_fail_before_any_solve(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, SMOKE,
        **{"problem.well.1.center": "0.5 0",
           "problem.well.1.depth": "1.1",
           "run.output_dir": str(out)})
    code = main(["solve", "--config", str(cfg_path)])
    assert code == 2
    assert not out.exists()


def test_bad_jobs_values_are_config_errors(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, SMOKE,
                            **{"run.output_dir": str(tmp_path / "out")})
    assert main(["solve", "--config", str(cfg_path), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
    for value in ("many", "0", "-3"):
        monkeypatch.setenv("NLSB_THREADS", value)
        assert main(["solve", "--config", str(cfg_path)]) == 2
        assert "NLSB_THREADS" in capsys.readouterr().err


def test_analyze_without_solutions_records_missing_files(tmp_path):
    out = tmp_path / "empty"
    cfg_path = write_config(tmp_path, SMOKE,
                            **{"run.output_dir": str(out)})
    code = main(["analyze", "--config", str(cfg_path)])
    assert code == 4
    rows = read_rows(out / "pohozaev.csv")
    assert len(rows) == 2
    assert all("missing solution file" in r["error"] for r in rows)
    assert all(r["lhs"] == "" for r in rows)


def test_analyze_rejects_fields_from_another_eps(pipeline, tmp_path):
    _, out, _ = pipeline
    scratch = tmp_path / "out"
    scratch.mkdir()
    good = (out / "solution_eps0.4.nlsb").read_bytes()
    (scratch / "solution_eps0.4.nlsb").write_bytes(good)
    (scratch / "solution_eps0.3.nlsb").write_bytes(good)
    cfg_path = write_config(tmp_path, SMOKE,
                            **{"run.output_dir": str(scratch)})
    code = main(["analyze", "--config", str(cfg_path)])
    assert code == 4
    rows = read_rows(scratch / "pohozaev.csv")
    bad = [r for r in rows if r["error"]]
    assert len(bad) == 1
    assert "stores eps" in bad[0]["error"]
