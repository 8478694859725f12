"""Config parsing and validation diagnostics."""

import numpy as np
import pytest

from nlsbump.config import grid_for, parse_config, problem_at
from nlsbump.cli import main
from nlsbump.errors import ConfigError

BENCH = """
# double-well benchmark
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
schedule.eps = 0.4 0.3 0.25 0.2 0.15
run.seed = 777
"""


def test_parse_reads_the_benchmark_config():
    cfg = parse_config(BENCH)
    assert cfg.dim == 2
    assert cfg.p == 4.0
    pot = cfg.potential
    assert pot.exponent == 2.0 and pot.patch_radius == 0.4
    assert len(pot.wells) == 2
    assert np.array_equal(pot.wells[0].center, [-1.0, 0.0])
    assert pot.wells[1].depth == 1.21
    assert pot.wells[1].coeff == 1.0
    assert cfg.box_lo == (-4.25, -3.25)
    assert cfg.eps_schedule == (0.4, 0.3, 0.25, 0.2, 0.15)
    assert cfg.seed == 777
    # defaults; background is the highest patch-boundary value
    assert pot.background == 1.21 + 0.4 ** 2
    assert cfg.spacing_divisor == 6.0
    assert cfg.output_dir == "out"


def test_optional_key_overrides():
    text = BENCH + """
grid.spacing_divisor = 4
run.output_dir = results
"""
    cfg = parse_config(text)
    assert cfg.spacing_divisor == 4.0
    assert cfg.output_dir == "results"


def test_seventeen_digit_floats_survive():
    ugly = 0.1 + 0.2  # 0.30000000000000004
    cfg = parse_config(BENCH.replace(
        "schedule.eps = 0.4 0.3 0.25 0.2 0.15",
        f"schedule.eps = 0.4 {ugly!r}"))
    assert cfg.eps_schedule[1] == ugly


def test_problem_at_builds_the_production_spec():
    cfg = parse_config(BENCH)
    spec = problem_at(cfg, 0.3)
    assert spec.eps == 0.3
    assert spec.p == 4.0
    assert tuple(spec.grid.counts) == (171, 131)
    h = spec.grid.spacing
    assert np.allclose(h, 0.05)
    # the one model parse_config validated, not a rebuilt one
    assert spec.potential is cfg.potential


def test_grid_spacing_rule_tracks_eps():
    cfg = parse_config(BENCH)
    for eps in cfg.eps_schedule:
        grid = grid_for(cfg, eps)
        assert np.all(np.asarray(grid.spacing)
                      <= eps / cfg.spacing_divisor * 1.01)


def bad(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_syntax_diagnostics_carry_line_numbers():
    bad("problem.dim = 2\nwhat is this\n", "line 2")
    bad("problem.dim = 2\nproblem.dim = 3\n", "duplicate")
    bad("= 4\n", "missing key")


def test_unknown_and_missing_keys_are_rejected():
    bad(BENCH + "problem.wellz = 3\n", "unknown key")
    bad(BENCH + "solver.damping = 1.5\n", "unknown key 'solver.damping'")
    bad(BENCH.replace("problem.p = 4\n", ""), "problem.p")
    bad(BENCH.replace("problem.well.1", "problem.well.2"), "without gaps")


def test_value_diagnostics_name_the_field():
    bad(BENCH.replace("problem.p = 4", "problem.p = four"), "problem.p")
    bad(BENCH.replace("problem.dim = 2", "problem.dim = 2.5"),
        "problem.dim")
    bad(BENCH.replace("grid.lo = -4.25 -3.25", "grid.lo = -4.25"),
        "expected 2 coordinates")


def test_module_preconditions_enforced():
    bad(BENCH.replace("problem.p = 4", "problem.p = 2"), "p > 2")
    bad(BENCH.replace("problem.exponent = 2", "problem.exponent = 1"),
        "wells")
    # wells closer than 4 patch radii
    bad(BENCH.replace("problem.well.1.center = 1 0",
                      "problem.well.1.center = -0.5 0"), "apart")
    for schedule, match in (("0.3 0.4", "decreasing"),
                            ("0.3 0.3", "decreasing"),
                            ("0.3 -0.2", "positive"),
                            ("", "empty value")):
        bad(BENCH.replace("schedule.eps = 0.4 0.3 0.25 0.2 0.15",
                          f"schedule.eps = {schedule}"), match)
    bad(BENCH + "run.output_dir =\n", "nonempty")


@pytest.mark.parametrize("key", [
    "solver.tol_residual", "solver.max_newton", "solver.krylov_max",
    "solver.krylov_tol", "solver.damping", "solver.backtrack",
    "solver.max_backtracks", "solver.regularization_growth",
    "solver.max_regularizations", "analysis.ball_radius",
    "analysis.pohozaev_resolution", "analysis.fit_drop",
    "analysis.uniqueness_amp", "analysis.uniqueness_shift",
    "analysis.uniqueness_rtol"])
def test_removed_solver_keys_are_unknown(key, tmp_path, capsys):
    # These Newton and analysis knobs are fixed constants now; setting one
    # is a config error naming its line, not a silently ignored value.
    text = BENCH.strip() + f"\n{key} = 1\n"
    line = len(text.splitlines())
    bad(text, f"line {line}: unknown key '{key}'")
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # A negative seed once passed validation, and analyze then died in
    # numpy's random generator with a traceback.
    text = BENCH.replace("run.seed = 777", "run.seed = -5")
    bad(text, "run.seed")
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert main(["analyze", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "run.seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old,new", [
    ("schedule.eps = 0.4 0.3 0.25 0.2 0.15", "schedule.eps = 0.4 nan"),
    ("grid.lo = -4.25 -3.25", "grid.lo = -inf -3.25"),
    ("problem.well.1.depth = 1.21", "problem.well.1.depth = inf")])
def test_non_finite_numbers_are_config_errors(old, new, tmp_path, capsys):
    # These once escaped as a ValueError or OverflowError traceback, or as
    # a radial bracket error (exit 4); they are config errors (exit 2).
    key = new.split(" = ")[0]
    bad(BENCH.replace(old, new), f"{key}: expected a finite number")
    path = tmp_path / "exp.cfg"
    path.write_text(BENCH.replace(old, new))
    assert main(["solve", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_supercritical_dim3_rejected():
    text = """
problem.dim = 3
problem.p = 6
problem.exponent = 2
problem.patch_radius = 0.4
problem.well.0.center = 0 0 0
problem.well.0.depth = 1
grid.lo = -3 -3 -3
grid.hi = 3 3 3
schedule.eps = 0.4
"""
    bad(text, "supercritical")
