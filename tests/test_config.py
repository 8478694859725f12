"""Config parsing, validation diagnostics, and round-trip identity."""

import numpy as np
import pytest

from nlsbump.config import (ExperimentConfig, grid_for, load_config,
                            make_potential, parse_config, problem_at,
                            save_config, serialize_config)
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
    assert cfg.exponent == 2.0
    assert len(cfg.wells) == 2
    assert np.array_equal(cfg.wells[0].center, [-1.0, 0.0])
    assert cfg.wells[1].depth == 1.21
    assert cfg.wells[1].coeff == 1.0
    assert cfg.box_lo == (-4.25, -3.25)
    assert cfg.eps_schedule == (0.4, 0.3, 0.25, 0.2, 0.15)
    assert cfg.seed == 777
    # defaults
    assert cfg.background is None
    assert cfg.spacing_divisor == 6.0
    assert cfg.solver.tol_residual == 1e-10
    assert cfg.output_dir == "out"


def test_solver_and_analysis_overrides():
    text = BENCH + """
solver.tol_residual = 1e-12
solver.max_newton = 7
analysis.ball_radius = 0.9
analysis.uniqueness_amp = 0.05
run.output_dir = results
"""
    cfg = parse_config(text)
    assert cfg.solver.tol_residual == 1e-12
    assert cfg.solver.max_newton == 7
    assert cfg.solver.krylov_max == 1500
    assert cfg.ball_radius == 0.9
    assert cfg.uniqueness_amp == 0.05
    assert cfg.output_dir == "results"


def test_round_trip_is_identity():
    cfg = parse_config(BENCH + "solver.krylov_tol = 3e-9\n"
                       "problem.background = 1.4700000000000002\n")
    twice = parse_config(serialize_config(cfg))
    assert serialize_config(twice) == serialize_config(cfg)
    assert twice.eps_schedule == cfg.eps_schedule
    assert twice.background == cfg.background
    assert twice.solver == cfg.solver
    for a, b in zip(twice.wells, cfg.wells):
        assert np.array_equal(a.center, b.center)
        assert a.depth == b.depth and a.coeff == b.coeff


def test_round_trip_through_a_file(tmp_path):
    cfg = parse_config(BENCH)
    path = tmp_path / "bench.cfg"
    save_config(path, cfg)
    again = load_config(path)
    assert serialize_config(again) == serialize_config(cfg)


def test_seventeen_digit_floats_survive():
    ugly = 0.1 + 0.2  # 0.30000000000000004
    cfg = parse_config(BENCH.replace(
        "schedule.eps = 0.4 0.3 0.25 0.2 0.15",
        f"schedule.eps = 0.4 {ugly!r}"))
    twice = parse_config(serialize_config(cfg))
    assert twice.eps_schedule[1] == ugly


def test_problem_at_builds_the_production_spec():
    cfg = parse_config(BENCH)
    spec = problem_at(cfg, 0.3)
    assert spec.eps == 0.3
    assert spec.p == 4.0
    assert tuple(spec.grid.counts) == (171, 131)
    h = spec.grid.spacing
    assert np.allclose(h, 0.05)
    pot = make_potential(cfg)
    # background defaults to the highest patch-boundary value
    assert pot.background == 1.21 + 0.4 ** 2


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
    bad(BENCH + "solver.damping = 1.5\n", "solver")
    bad(BENCH + "analysis.uniqueness_amp = 0.5\n", "basin")
    bad(BENCH + "run.output_dir =\n", "nonempty")


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
