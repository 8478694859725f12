"""End-to-end runs of the command-line harness on a small single well."""

import ast
import csv
import dataclasses
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nlsbump.analysis
import nlsbump.cli
import nlsbump.solver
from nlsbump.analysis import (decompose, default_ball_radius,
                              uniqueness_probe)
from nlsbump.cli import (_analyze_one, _base_ansatz, _build_parser, _cell,
                         _row, _solution_name, _write_csv, main)
from nlsbump.config import load_config, parse_config, problem_at
from nlsbump.fieldio import read_field, write_field
from nlsbump.grid import box_integral
from nlsbump.radial import TABLE_BLOCK, RadialProfile
from nlsbump.solver import build_ansatz, newton_solve, residual, sample_bump

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


def write_reference_table(path: Path, profile) -> None:
    """The profile table as the generic CSV writer prints it."""
    rows = [_row(r, u, du) for r, u, du in
            zip(profile.r_nodes, profile.values, profile.dvalues)]
    _write_csv(path, ["r", "u", "du"], rows)


def test_groundstate_table_matches_the_csv_writer(get_profile, tmp_path,
                                                  capsys):
    assert main(["groundstate", "--va", "1", "--p", "4", "--dim", "1",
                 "--out", str(tmp_path)]) == 0
    write_reference_table(tmp_path / "ref.csv", get_profile(1.0, 4.0, 1))
    assert ((tmp_path / "profile_va1_p4_dim1.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_groundstate_table_prints_edge_floats_like_the_csv_writer(
        tmp_path, monkeypatch, capsys):
    # Signed zero, the smallest subnormal, a tiny normal and integer-valued
    # floats; the residual check only needs the first two radii distinct.
    synthetic = RadialProfile(
        v_a=1.0, p=4.0, dim=1,
        r_nodes=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        values=np.array([2.0, -0.0, 5e-324, 1e-300, 1.0]),
        dvalues=np.array([-0.0, 5e-324, -1e-300, 12345678.0, -3.0]),
        decay_rate=1.0)
    monkeypatch.setattr(nlsbump.cli, "solve_ground_state",
                        lambda *args: synthetic)
    assert main(["groundstate", "--va", "1", "--p", "4", "--dim", "1",
                 "--out", str(tmp_path)]) == 0
    write_reference_table(tmp_path / "ref.csv", synthetic)
    table = (tmp_path / "profile_va1_p4_dim1.csv").read_bytes()
    assert table == (tmp_path / "ref.csv").read_bytes()
    assert table == (b"r,u,du\n0,2,-0\n1,-0,4.9406564584124654e-324\n"
                     b"2,4.9406564584124654e-324,-1e-300\n"
                     b"3,1e-300,12345678\n4,1,-3\n")


@pytest.mark.parametrize("rows", [TABLE_BLOCK - 1, TABLE_BLOCK,
                                  TABLE_BLOCK + 1])
def test_groundstate_table_is_whole_across_block_edges(rows, tmp_path,
                                                       monkeypatch, capsys):
    # The table is written TABLE_BLOCK / 8 rows at a time: no row may be
    # lost or repeated at a block edge.
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 9, rows)
    values[[0, rows // 2, -1]] = [2.0, -0.0, 5e-324]
    synthetic = RadialProfile(
        v_a=1.0, p=4.0, dim=1, r_nodes=np.arange(rows) * 1e-3,
        values=values, dvalues=-np.cumsum(np.abs(values)), decay_rate=1.0)
    monkeypatch.setattr(nlsbump.cli, "solve_ground_state",
                        lambda *args: synthetic)
    assert main(["groundstate", "--va", "1", "--p", "4", "--dim", "1",
                 "--out", str(tmp_path)]) == 0
    write_reference_table(tmp_path / "ref.csv", synthetic)
    assert ((tmp_path / "profile_va1_p4_dim1.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


@pytest.mark.parametrize("extra", ["--tol 1", "--rmax 20", "--verbose"])
def test_removed_groundstate_flags_are_usage_errors(extra, tmp_path, capsys):
    # The shooting range and tolerance are fixed and groundstate has no
    # progress lines; passing any of these is a usage error, not a
    # silently ignored or silently different run.
    with pytest.raises(SystemExit) as exit_info:
        main(["groundstate", "--va", "1", "--p", "4", "--dim", "1",
              *extra.split(), "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {extra}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_groundstate_decay_rate_near_one_in_dim3(tmp_path, capsys):
    code = main(["groundstate", "--va", "1", "--p", "4", "--dim", "3",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    line = next(ln for ln in captured.out.splitlines()
                if ln.startswith("decay_rate"))
    rate = float(line.split("=")[1])
    assert abs(rate - 1.0) <= 0.02


@pytest.mark.parametrize("p,dim", [(10, 1), (10, 2), (14, 1), (300, 1)])
def test_overflowing_shooting_trial_is_an_iteration_failure(p, dim, tmp_path,
                                                            capsys):
    # abs(u) ** (p - 2) once overflowed inside the RK4 march, and the
    # OverflowError escaped as a traceback; at p = 300 it overflows already
    # in the series start of the first trial from the bracket top.
    code = main(["groundstate", "--va", "1", "--p", str(p), "--dim",
                 str(dim), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: shooting trial from u(0) = ")
    assert "overflowed at ode_step 0.008" in err
    # The 2-D config's profile solve fails the same way.
    cfg_path = write_config(tmp_path,
                            SMOKE.replace("problem.p = 4", f"problem.p = {p}"))
    assert main(["solve", "--config", str(cfg_path), "--out",
                 str(tmp_path / "out")]) == 4
    assert "overflowed at ode_step" in capsys.readouterr().err


def test_groundstate_supercritical_exit_code(tmp_path, capsys):
    code = main(["groundstate", "--va", "1", "--p", "7", "--dim", "3",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


def test_console_entry_point_runs():
    # the child imports the package this process imported, installed or
    # not (pytest's pythonpath setting does not reach a child process)
    src = str(Path(nlsbump.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nlsbump.cli", "groundstate",
         "--va", "1", "--p", "7", "--dim", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 3
    assert "supercritical" in proc.stderr


def test_cli_keeps_scipy_optimize_and_interpolate_unloaded(tmp_path):
    # Neither module is needed to import the CLI, to shoot a profile, to
    # solve or to analyze; each would add its import time and memory to
    # every process.
    src = str(Path(nlsbump.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cfg_path = write_config(tmp_path, SMOKE,
                            **{"run.output_dir": str(tmp_path / "out")})
    probe = textwrap.dedent(f"""
        import sys
        import nlsbump.cli
        def heavy():
            return sorted(m for m in sys.modules if m.startswith(
                ("scipy.optimize", "scipy.interpolate")))
        print("import", heavy())
        code = nlsbump.cli.main(
            ["groundstate", "--va", "1", "--p", "4", "--dim", "1"])
        print("groundstate", code, heavy())
        for command in ("solve", "analyze"):
            code = nlsbump.cli.main([command, "--config", {str(cfg_path)!r}])
            print(command, code, heavy())
        """)
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines()
             if ln.split(" ")[0] in ("import", "groundstate", "solve",
                                     "analyze")]
    assert lines == ["import []", "groundstate 0 []", "solve 0 []",
                     "analyze 0 []"]


def test_package_imports_only_its_third_party_modules():
    # Every import statement of the package, also those inside functions
    # that no test runs: what is not here is not paid for by any command.
    package = Path(nlsbump.cli.__file__).parent
    third_party = set()
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            third_party.update(n for n in names if n.split(".")[0]
                               not in sys.stdlib_module_names)
    assert third_party == {"numpy", "scipy.fft", "scipy.sparse.linalg"}


def test_scipy_is_imported_only_inside_functions():
    # A module-level scipy import would load it in every command, also in
    # those that call none of it.
    package = Path(nlsbump.cli.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                assert id(node) in in_functions, (source.name, node.lineno)


def test_only_the_solver_evaluates_a_profile():
    # One sampler: every bump on the grid comes from solver.sample_bump,
    # so no other module of the package takes eval_profile.
    package = Path(nlsbump.cli.__file__).parent
    takers = set()
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "eval_profile" in names:
                takers.add(source.stem)
    assert takers == {"solver"}


def test_groundstate_and_fieldless_analyze_load_no_scipy(tmp_path):
    # Import, help, a config error, a profile in each dimension and an
    # analyze that finds no solution file need numpy alone.
    src = str(Path(nlsbump.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cfg_path = write_config(tmp_path, SMOKE,
                            **{"run.output_dir": str(tmp_path / "empty")})
    probe = textwrap.dedent(f"""
        import contextlib, io, sys
        import nlsbump.cli
        def scipy():
            return sorted(m for m in sys.modules if m.startswith("scipy"))
        print("import", scipy())
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                nlsbump.cli.main(["--help"])
        except SystemExit as exc:
            print("help", exc.code, scipy())
        code = nlsbump.cli.main(["solve", "--config", "missing.cfg"])
        print("config-error", code, scipy())
        for dim in ("1", "2", "3"):
            code = nlsbump.cli.main(
                ["groundstate", "--va", "1", "--p", "3", "--dim", dim])
            print("groundstate", code, scipy())
        code = nlsbump.cli.main(["analyze", "--config", {str(cfg_path)!r}])
        print("analyze", code, scipy())
        """)
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines()
             if ln.split(" ")[0] in ("import", "help", "config-error",
                                     "groundstate", "analyze")]
    assert lines == ["import []", "help 0 []", "config-error 2 []",
                     "groundstate 0 []", "groundstate 0 []",
                     "groundstate 0 []", "analyze 4 []"]


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
        cold, _ = newton_solve(spec, build_ansatz(spec, ansatz))
        written, _, eps_file, _ = read_field(
            out / f"solution_eps{eps:g}.nlsb")
        assert eps_file == eps
        assert np.array_equal(written, cold)


def test_solve_failure_ends_the_sweep(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, SMOKE,
        **{"schedule.eps": "0.4 0.3", "run.output_dir": str(out)})
    monkeypatch.setattr(nlsbump.solver, "_MAX_NEWTON", 1)
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


def test_solve_removes_the_fields_of_eps_it_did_not_solve(
        pipeline, tmp_path, monkeypatch):
    # Fields an earlier run left in the output directory would otherwise
    # be analyzed against this run's profiles as if this run solved them.
    cfg_path, out, _ = pipeline
    for field in out.glob("solution_*.nlsb"):
        (tmp_path / field.name).write_bytes(field.read_bytes())
    monkeypatch.setattr(nlsbump.solver, "_MAX_NEWTON", 1)
    argv = ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert main(["solve", *argv]) == 4
    assert not list(tmp_path.glob("*.nlsb"))
    assert main(["analyze", *argv]) == 4
    assert [r["error"] for r in read_rows(tmp_path / "coercivity.csv")] == [
        f"missing solution file solution_eps{e}.nlsb" for e in ("0.4", "0.3")]


def test_minres_breakdown_is_a_recorded_solve_failure(tmp_path, monkeypatch):
    # A KrylovError once left cmd_solve before solve.csv was written.
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, SMOKE,
        **{"schedule.eps": "0.4 0.3 0.25", "run.output_dir": str(out)})
    solved = counting_newton(monkeypatch, nlsbump.cli)
    minres = nlsbump.solver.minres

    def breaks_after_the_first_eps(*args, **kwargs):
        step, info = minres(*args, **kwargs)
        return step, (-1 if len(solved) > 1 else info)

    monkeypatch.setattr(nlsbump.solver, "minres", breaks_after_the_first_eps)
    code = main(["solve", "--config", str(cfg_path)])
    assert code == 4
    assert solved == [0.4, 0.3]
    first, second, third = read_rows(out / "solve.csv")
    assert (first["converged"], first["error"]) == ("true", "")
    assert (second["eps"], second["converged"], second["error"]) == (
        "0.29999999999999999", "false", "MINRES breakdown (info=-1)")
    # the report of the step that broke down: the ansatz's residual
    cfg = load_config(cfg_path)
    spec = problem_at(cfg, 0.3)
    start = build_ansatz(spec, _base_ansatz(cfg))
    start[[0, -1], :] = start[:, [0, -1]] = 0.0
    assert (second["iterations"], second["positivity"]) == ("1", "true")
    assert second["final_residual"] == _cell(
        float(np.abs(residual(spec, start)).max()))
    assert (third["error"], third["converged"]) == ("not attempted", "")
    assert [p.name for p in out.glob("*.nlsb")] == [_solution_name(0.4)]


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


TWO_WELLS = """
problem.dim = 2
problem.p = 4
problem.exponent = 2
problem.patch_radius = 0.4
problem.well.0.center = -1 0
problem.well.0.depth = 1
problem.well.1.center = 1 0
problem.well.1.depth = 1.21
grid.lo = -4.25 -3.25
grid.hi = 4.25 3.25
schedule.eps = 0.4 0.3 0.25 0.2
"""


def counting_profiles(monkeypatch, solve):
    """Route the CLI's radial solves through solve; returns their args."""
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(nlsbump.cli, "solve_ground_state", counting_solve)
    return calls


@pytest.mark.parametrize("deep,solves", [("1.21", 2), ("1", 1)])
def test_base_ansatz_solves_each_depth_once(deep, solves, monkeypatch):
    calls = counting_profiles(monkeypatch, lambda *args: object())
    cfg = parse_config(TWO_WELLS.replace("depth = 1.21", f"depth = {deep}"))
    first, second = _base_ansatz(cfg)
    assert len(calls) == solves
    assert calls[0] == (1.0, 4.0, 2) and calls[-1] == (float(deep), 4.0, 2)
    assert (first.profile is second.profile) == (solves == 1)


@pytest.mark.parametrize("text,overrides,default", [
    # two wells 2 apart: half their separation
    (TWO_WELLS, {}, 1.0),
    # one well at (0.5, 0.2): half its distance 2.8 to the wall y = 3
    (SMOKE, {"problem.well.0.center": "0.5 0.2", "grid.lo": "-3.25 -3",
             "grid.hi": "3.75 3"}, 1.4),
])
def test_flux_ball_radius(text, overrides, default, tmp_path, monkeypatch):
    # analyze clips the default to 1.5 patch_radius = 0.6 on both; its
    # solution file, decomposition and flux terms are stubbed, so only the
    # radius rule runs.
    cfg = load_config(write_config(tmp_path, text, **overrides))
    spec = problem_at(cfg, 0.4)
    assert default_ball_radius(spec) == pytest.approx(default, rel=1e-15)
    radii = []

    class Stop(Exception):
        pass

    def flux_terms(spec, u, centers, radius):
        radii.append(radius)
        raise Stop

    monkeypatch.setattr(nlsbump.cli, "_load_solution",
                        lambda *args: (spec, np.zeros(spec.grid.counts)))
    monkeypatch.setattr(nlsbump.cli, "decompose",
                        lambda spec, u, centers, profiles:
                        SimpleNamespace(centers=centers))
    monkeypatch.setattr(nlsbump.cli, "pohozaev_terms", flux_terms)
    with pytest.raises(Stop):
        _analyze_one(cfg, tmp_path, 0.4, "unread.nlsb", [])
    assert radii == [pytest.approx(0.6, rel=1e-15)]


def test_analyze_solves_each_depth_once_per_sweep(pipeline, tmp_path,
                                                  monkeypatch, get_profile):
    # two eps, one well: one radial solve, not one per eps
    cfg_path, out, _ = pipeline
    for field in out.glob("solution_*.nlsb"):
        (tmp_path / field.name).write_bytes(field.read_bytes())
    calls = counting_profiles(monkeypatch, get_profile)
    code = main(["analyze", "--config", str(cfg_path), "--out",
                 str(tmp_path)])
    assert code == 0
    assert calls == [(1.0, 4.0, 2)]


TWO_WELLS_1D = """
problem.dim = 1
problem.p = 4
problem.exponent = 2
problem.patch_radius = 0.4
problem.well.0.center = -1
problem.well.0.depth = 1
problem.well.1.center = 1
problem.well.1.depth = 1.21
grid.lo = -4.25
grid.hi = 4.25
grid.spacing_divisor = 4
schedule.eps = 0.3 0.25
"""


@pytest.fixture(scope="module")
def two_wells_1d(tmp_path_factory):
    """Solution files of a 1-D two-well sweep, for analyze runs that have
    an overlap row."""
    root = tmp_path_factory.mktemp("two_wells_1d")
    out = root / "out"
    cfg_path = write_config(root, TWO_WELLS_1D,
                            **{"run.output_dir": str(out)})
    assert main(["solve", "--config", str(cfg_path)]) == 0
    return cfg_path, out


def test_analyze_samples_each_bump_once_per_decomposition_step(
        two_wells_1d, tmp_path, monkeypatch, get_profile):
    # decompose evaluates U and U' together once per bump per projection
    # step (plus the final check), and coercivity and the overlaps read
    # that basis: neither evaluates a profile again.
    cfg_path, out = two_wells_1d
    for field in out.glob("solution_*.nlsb"):
        (tmp_path / field.name).write_bytes(field.read_bytes())
    counting_profiles(monkeypatch, get_profile)
    where = ["outside"]
    evaluations = []
    inner = nlsbump.solver.eval_profile

    def counted(*args):
        evaluations.append(where[0])
        return inner(*args)

    monkeypatch.setattr(nlsbump.solver, "eval_profile", counted)
    steps = []

    def tracked_decompose(*args, **kwargs):
        where[0] = "decompose"
        dec = nlsbump.analysis.decompose(*args, **kwargs)
        where[0] = "outside"
        steps.append(dec.iterations + 1)
        return dec

    monkeypatch.setattr(nlsbump.cli, "decompose", tracked_decompose)
    assert main(["analyze", "--config", str(cfg_path), "--out",
                 str(tmp_path)]) == 0
    assert len(steps) == 2
    assert evaluations == ["decompose"] * (2 * sum(steps))  # two bumps


def test_analyze_overlap_is_the_box_integral_of_the_sampled_bumps(
        two_wells_1d, get_profile):
    cfg_path, out = two_wells_1d
    cfg = load_config(cfg_path)
    profiles = [get_profile(1.0, 4.0, 1), get_profile(1.21, 4.0, 1)]
    centers = np.array([w.center for w in cfg.potential.wells])
    for eps in cfg.eps_schedule:
        name = _solution_name(eps)
        record = _analyze_one(cfg, out, eps, name, profiles)
        spec = problem_at(cfg, eps)
        dec = decompose(spec, read_field(out / name)[0], centers, profiles)
        bumps = [sample_bump(spec, prof, c)[0]
                 for prof, c in zip(profiles, dec.centers)]
        raw = box_integral(spec.grid, bumps[0] * bumps[1])
        assert raw > 0.0
        assert record["overlaps"] == {(0, 1): raw * eps ** -1}


def test_analyze_without_solution_files_solves_no_profile(pipeline, tmp_path,
                                                          monkeypatch,
                                                          get_profile):
    # Every eps records its missing file, so shooting a profile would be
    # wasted; the three CSVs are written all the same.
    cfg_path, _, _ = pipeline
    calls = counting_profiles(monkeypatch, get_profile)
    code = main(["analyze", "--config", str(cfg_path), "--out",
                 str(tmp_path)])
    assert code == 4
    assert calls == []
    missing = [f"missing solution file solution_eps{e}.nlsb"
               for e in ("0.4", "0.3")]
    for name in ("pohozaev.csv", "coercivity.csv"):
        rows = read_rows(tmp_path / name)
        assert [r["error"] for r in rows] == missing
    rates = read_rows(tmp_path / "rates.csv")
    assert [(r["quantity"], r["well"]) for r in rates] == [
        ("alpha", "0"), ("w_norm", ""), ("drift_over_eps", "0")]
    assert all(r["error"] == "only 0 samples above the fit floor"
               for r in rates)


def test_uniqueness_rows_all_pass(pipeline):
    _, out, _ = pipeline
    rows = read_rows(out / "uniqueness.csv")
    assert len(rows) == 4
    assert {r["pair"] for r in rows} == {"amplitude", "shift"}
    assert all(r["result"] == "pass" for r in rows)
    assert all(float(r["rel_diff"]) <= 1e-8 for r in rows)


def test_benchmark_1d_geometry_reads_positive_at_small_eps(
        tmp_path, monkeypatch, get_profile):
    # The 1-D two-well benchmark geometry (spacing eps/6) at eps 0.05 and
    # 0.035: Newton converges, and the far field holds roundoff of either
    # sign, far within tau = 1e-10 / min V of zero.  The solutions read
    # positive and both probe pairs pass.
    counting_profiles(monkeypatch, get_profile)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, TWO_WELLS_1D, **{
        "grid.spacing_divisor": "6", "schedule.eps": "0.05 0.035",
        "run.output_dir": str(out)})
    assert main(["solve", "--config", str(cfg_path)]) == 0
    rows = read_rows(out / "solve.csv")
    assert [r["positivity"] for r in rows] == ["true", "true"]
    for eps in ("0.05", "0.035"):
        field = read_field(out / f"solution_eps{eps}.nlsb")[0]
        assert -1e-18 < field[1:-1].min() < 0.0
    assert main(["uniqueness", "--config", str(cfg_path)]) == 0
    rows = read_rows(out / "uniqueness.csv")
    assert [r["result"] for r in rows] == ["pass"] * 4


def test_uniqueness_removes_the_xi_files_of_pairs_that_do_not_fail(
        pipeline, tmp_path, get_profile, monkeypatch):
    # An xi file is written for a uniqueness-failure only; one an earlier
    # run left beside a passing row would read as this run's.
    cfg_path, _, _ = pipeline
    monkeypatch.setattr(nlsbump.cli, "solve_ground_state", get_profile)
    for pair in ("amplitude", "shift"):
        (tmp_path / f"xi_eps0.4_{pair}.nlsb").write_bytes(b"an earlier run's")
    assert main(["uniqueness", "--config", str(cfg_path), "--out",
                 str(tmp_path)]) == 0
    assert not list(tmp_path.glob("xi_*.nlsb"))


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
    calls = counting_profiles(monkeypatch, nlsbump.cli.solve_ground_state)
    code = main(["all", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--jobs", "3"])
    assert code == 0
    # solve, analyze and uniqueness share one radial solve per depth
    assert calls == [(1.0, 4.0, 2)]
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_identical_perturbations_give_exact_zero(monkeypatch):
    # Two runs from the same start must agree bitwise.
    monkeypatch.setattr(nlsbump.analysis, "_PROBE_AMP", 0.0)
    cfg = parse_config(SMOKE)
    spec = problem_at(cfg, 0.4)
    report = uniqueness_probe(spec, _base_ansatz(cfg), "amplitude")
    assert report.sup_diff == 0.0
    assert report.xi_field is None


@pytest.mark.parametrize("start,message", [
    (np.zeros_like, "probe run 0 collapsed to the trivial solution"),
    (np.negative, "probe run 0 is not positive")], ids=["zero", "negated"])
def test_probe_runs_off_the_positive_branch_are_solver_failures(
        start, message, tmp_path, monkeypatch):
    # Newton from 0 stays at u = 0 and Newton from -u0 lands on the
    # negative solution; in both cases the two runs of a pair agree, but
    # the claim under test is about positive solutions.
    def diverted_solve(spec, u0):
        return newton_solve(spec, start(u0))

    monkeypatch.setattr(nlsbump.analysis, "newton_solve", diverted_solve)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SMOKE, **{"schedule.eps": "0.4",
                                                "run.output_dir": str(out)})
    assert main(["uniqueness", "--config", str(cfg_path)]) == 4
    rows = read_rows(out / "uniqueness.csv")
    assert [(r["pair"], r["result"], r["error"]) for r in rows] == [
        ("amplitude", "solver-failure", message),
        ("shift", "solver-failure", message)]
    assert all(r["sup_diff"] == r["rel_diff"] == "" for r in rows)


def test_verbose_uniqueness_reports_the_runs_before_a_krylov_error(
        tmp_path, monkeypatch, capsys):
    # MINRES breaks down in run 1 of each pair: a solver-failure row, and
    # the pair's verbose line reports run 0 and the Newton step run 1 took.
    solved = counting_newton(monkeypatch, nlsbump.analysis)
    minres = nlsbump.solver.minres

    def breaks_in_run_1(*args, **kwargs):
        step, info = minres(*args, **kwargs)
        return step, (-1 if len(solved) % 2 == 0 else info)

    monkeypatch.setattr(nlsbump.solver, "minres", breaks_in_run_1)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SMOKE, **{"schedule.eps": "0.4",
                                                "run.output_dir": str(out)})
    assert main(["uniqueness", "--config", str(cfg_path), "--verbose"]) == 4
    assert len(solved) == 4
    rows = read_rows(out / "uniqueness.csv")
    assert [(r["pair"], r["result"], r["error"]) for r in rows] == [
        (pair, "solver-failure", "MINRES breakdown (info=-1)")
        for pair in ("amplitude", "shift")]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line in lines:
        runs = line.split("; ")[1:]
        assert [r.split(":")[0] for r in runs] == ["run 0", "run 1"]
        assert runs[1].startswith("run 1: newton 1, ")


def test_starved_solver_is_a_solver_failure(tmp_path, monkeypatch):
    cfg_path = write_config(
        tmp_path, SMOKE,
        **{"schedule.eps": "0.4", "run.output_dir": str(tmp_path / "out")})
    monkeypatch.setattr(nlsbump.solver, "_MAX_NEWTON", 1)
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


@pytest.mark.parametrize("command", ["solve", "analyze", "uniqueness", "all"])
def test_colliding_eps_schedule_is_rejected_before_any_solve(
        command, tmp_path, monkeypatch, capsys):
    # 0.3000001 and 0.3 both name solution_eps0.3.nlsb (and the same
    # uniqueness xi files); every sweep command refuses the schedule.
    def no_solve(*args):
        raise AssertionError("a radial profile was solved")

    monkeypatch.setattr(nlsbump.cli, "solve_ground_state", no_solve)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SMOKE,
                            **{"schedule.eps": "0.3000001 0.3",
                               "run.output_dir": str(out)})
    assert main([command, "--config", str(cfg_path)]) == 2
    assert ("eps schedule entries collide in the solution file naming "
            "scheme" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv,path", [
    (["solve", "--config", "{d}/none.cfg"], "{d}/none.cfg"),
    (["solve", "--config", "{d}"], "{d}"),
    (["solve", "--config", "{d}/latin1.cfg"], "{d}/latin1.cfg"),
    (["solve", "--config", "{d}/exp.cfg", "--out", "{d}/taken"], "{d}/taken"),
    (["groundstate", "--va", "1", "--p", "4", "--dim", "1", "--out",
      "{d}/taken"], "{d}/taken"),
], ids=["missing", "directory", "not-utf8", "solve-out-file",
        "groundstate-out-file"])
def test_os_errors_on_paths_are_config_errors(argv, path, tmp_path, capsys):
    # One error line naming the path and exit 2, not a traceback.
    write_config(tmp_path, SMOKE)
    (tmp_path / "latin1.cfg").write_bytes(
        ("# caf\xe9\n" + SMOKE).encode("latin-1"))
    (tmp_path / "taken").write_text("a file, not a directory\n")
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert path.format(d=tmp_path) in lines[0]


@pytest.mark.parametrize("argv,name", [
    (["solve", "--config", "{d}/exp.cfg"], "solve.csv"),
    (["solve", "--config", "{d}/exp.cfg"], "solution_eps0.4.nlsb"),
    (["groundstate", "--va", "1", "--p", "4", "--dim", "1", "--out",
      "{d}/out"], "profile_va1_p4_dim1.csv"),
], ids=["solve-csv", "solve-field", "groundstate-table"])
def test_unwritable_output_files_are_config_errors(argv, name, tmp_path,
                                                   get_profile, monkeypatch,
                                                   capsys):
    # A directory where a command writes its file: one error line naming
    # the file and exit 2, not a traceback.
    monkeypatch.setattr(nlsbump.cli, "solve_ground_state", get_profile)
    write_config(tmp_path, SMOKE, **{"run.output_dir": str(tmp_path / "out")})
    (tmp_path / "out" / name).mkdir(parents=True)
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: output file ")
    assert str(tmp_path / "out" / name) in lines[0]


def test_unreadable_solution_file_is_a_recorded_format_error(
        tmp_path, get_profile, monkeypatch):
    monkeypatch.setattr(nlsbump.cli, "solve_ground_state", get_profile)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SMOKE, **{"run.output_dir": str(out)})
    (out / "solution_eps0.4.nlsb").mkdir(parents=True)
    assert main(["analyze", "--config", str(cfg_path)]) == 4
    rows = read_rows(out / "coercivity.csv")
    assert rows[0]["error"].startswith(
        "cannot read solution file solution_eps0.4.nlsb: ")
    assert rows[1]["error"] == "missing solution file solution_eps0.3.nlsb"


def test_bad_jobs_values_are_config_errors(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, SMOKE, **{"run.output_dir": str(out)})
    for value in ("0", "-3"):
        assert main(["solve", "--config", str(cfg_path),
                     "--jobs", value]) == 2
        assert (f"--jobs must be at least 1, got {value}"
                in capsys.readouterr().err)
    assert not out.exists()
    # The pool size comes from --jobs alone; the environment is not read.
    monkeypatch.setenv("NLSB_THREADS", "many")
    assert main(["analyze", "--config", str(cfg_path)]) == 4
    assert capsys.readouterr().err == ""


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
    # the right eps with another p
    values, grid, eps, _ = read_field(out / "solution_eps0.4.nlsb")
    write_field(scratch / "solution_eps0.4.nlsb", values, grid, eps, 3.0)
    assert main(["analyze", "--config", str(cfg_path)]) == 4
    assert [r["error"] for r in read_rows(scratch / "coercivity.csv")] == [
        "solution_eps0.4.nlsb stores p=3.0, expected 4.0",
        "solution_eps0.3.nlsb stores eps=0.4, expected 0.3"]


def test_analyze_rejects_fields_on_another_grid(pipeline, tmp_path,
                                                get_profile, monkeypatch):
    # Fields solved at spacing eps/4, analyzed under the rule eps/5: each
    # file's grid is compared with the configured one, not reshaped.
    _, out, _ = pipeline
    monkeypatch.setattr(nlsbump.cli, "solve_ground_state", get_profile)
    scratch = tmp_path / "out"
    scratch.mkdir()
    for field in out.glob("solution_*.nlsb"):
        (scratch / field.name).write_bytes(field.read_bytes())
    cfg_path = write_config(tmp_path, SMOKE, **{
        "grid.spacing_divisor": "5", "run.output_dir": str(scratch)})
    assert main(["analyze", "--config", str(cfg_path)]) == 4
    for name in ("pohozaev.csv", "coercivity.csv"):
        assert [r["error"] for r in read_rows(scratch / name)] == [
            f"solution_eps{e}.nlsb does not match the grid of the "
            "configured spacing rule" for e in ("0.4", "0.3")]


def test_verbose_progress_goes_to_stderr_only_when_asked(pipeline, tmp_path,
                                                         capsys):
    # A benchmark reports a failing command's last stderr line, so a quiet
    # run must leave stderr empty.
    cfg_path, _, _ = pipeline
    quiet = tmp_path / "quiet"
    for command in ("solve", "analyze", "uniqueness"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(quiet)]) == 0
        assert capsys.readouterr().err == ""
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "loud"), "--verbose"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["solve eps=0.4",
                                                  "solve eps=0.3"]


def test_verbose_uniqueness_reports_every_run(pipeline, tmp_path, capsys):
    # Each pair's line gives both runs' Newton steps and reduced solves:
    # none for the amplitude pair, a converged one for the shift pair.
    cfg_path, _, _ = pipeline
    assert main(["uniqueness", "--config", str(cfg_path), "--out",
                 str(tmp_path), "--verbose"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        f"uniqueness eps={eps} {pair}" for eps in ("0.4", "0.3")
        for pair in ("amplitude", "shift")]
    for line in lines:
        runs = line.split("; ")[1:]
        assert [r.split(":")[0] for r in runs] == ["run 0", "run 1"]
        reduced = ("none" if "amplitude" in line else "converged")
        assert all(r.startswith("run ") and "newton " in r
                   and r.endswith(reduced) for r in runs)


def bench_module(monkeypatch, name: str):
    """perfbench/<name>.py, read in place without a bytecode cache."""
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_and_configs_parse(monkeypatch):
    # A flag or key the benchmark passes must keep parsing; otherwise its
    # child processes exit 2 and the run reports a failure, not a number.
    bench = bench_module(monkeypatch, "workloads")
    # The output check reads residual columns against the program's own
    # constants; a drifted copy would fail there as incorrect outputs.
    assert bench.NEWTON_TOL == nlsbump.solver._TOL_RESIDUAL
    assert bench.MAX_NEWTON == nlsbump.solver._MAX_NEWTON
    assert bench.UNIQUENESS_RTOL == nlsbump.cli._UNIQUENESS_RTOL
    parser = _build_parser()
    assert bench.WORKLOADS
    for workload in bench.WORKLOADS.values():
        parse_config(workload.config_text(bench.DEFAULT_SEED))
        for command in workload.commands:
            args = parser.parse_args(list(command.argv))
            assert args.command == command.kind


def test_benchmark_tracing_finds_its_call_sites(monkeypatch):
    # The benchmark's spans wrap functions under the names the program's
    # modules import them by; a span whose target is gone reads zero.
    # These eight went with earlier program changes and leave the target
    # list at the benchmark's next refresh; any other miss is a broken span.
    # The profile evaluations all reach nlsbump.solver.eval_profile now,
    # and decompose's pairings go through grid.eps_gram, which no target
    # wraps.
    tracing = bench_module(monkeypatch, "tracing")
    missing = {f"{module}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == {"nlsbump.analysis.bump_field",
                       "nlsbump.analysis.eval_profile",
                       "nlsbump.analysis.eval_profile_deriv",
                       "nlsbump.analysis.eigsh",
                       "nlsbump.analysis.eps_inner",
                       "nlsbump.analysis.solve_ground_state",
                       "nlsbump.cli.continuation_solve",
                       "nlsbump.cli.overlap_integral"}
    assert hasattr(nlsbump.solver, "minres")  # wrapped outside TARGETS


def bench_runner(monkeypatch):
    """perfbench/run.py, with the sibling modules it imports by name."""
    for name in ("workloads", "check", "tracing"):
        monkeypatch.setitem(sys.modules, name, bench_module(monkeypatch, name))
    return bench_module(monkeypatch, "run")


def test_1d_outputs_pass_the_benchmark_check(tmp_path, monkeypatch):
    # profiles-1d's 1-D groundstate and its sweep, one process per command
    # as the benchmark runs them, against the stored reference through the
    # benchmark's own check (digits to 1e-7, contracts for residuals).
    run = bench_runner(monkeypatch)
    workload = run.WORKLOADS["profiles-1d"]
    cheap = dataclasses.replace(workload, commands=tuple(
        c for c in workload.commands
        if c.kind != "groundstate" or c.label == "groundstate-va1-p4-dim1"))
    work = tmp_path / "work"
    result = run.run_pass(run.Runner(), cheap, run.DEFAULT_SEED, work)
    assert [r["label"] for r in result["commands"]] == [
        "groundstate-va1-p4-dim1", "solve", "analyze", "uniqueness"]
    assert run.check_pass(cheap, work, result) == []
