"""Tests of the benchmark's output check.

    python3 -m pytest -q perfbench/test_check.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
from check import (
    check_command,
    check_csv,
    check_profile,
    profile_digest,
)
from tracing import layer_metrics
from workloads import OUT_DIR, WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference"


def _ref(workload: str, name: str) -> str:
    return (REFERENCE / workload / name).read_text()


def _edit(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _cell(text: str, row: int, column: str) -> str:
    lines = text.splitlines()
    return lines[row].split(",")[lines[0].split(",").index(column)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_copy_is_accepted(workload):
    for path in sorted((REFERENCE / workload).glob("*.csv")):
        text = path.read_text()
        assert check_csv(path.name, text, text) == []


def test_perturbed_value_is_rejected():
    ref = _ref("double-well-2d", "rates.csv")
    slope = float(_cell(ref, 1, "slope"))
    got = _edit(ref, 1, "slope", repr(slope * (1 + 1e-5)))
    problems = check_csv("rates.csv", ref, got)
    assert len(problems) == 1 and "slope" in problems[0]
    # A change at roundoff level passes.
    got = _edit(ref, 1, "slope", repr(slope * (1 + 1e-12)))
    assert check_csv("rates.csv", ref, got) == []


@pytest.mark.parametrize("name, column, value", [
    ("solve.csv", "positivity", "false"),
    ("uniqueness.csv", "result", "uniqueness-failure"),
    ("coercivity.csv", "error", "singular"),
    ("pohozaev.csv", "well", "2"),
])
def test_text_columns_must_match_exactly(name, column, value):
    ref = _ref("double-well-2d", name)
    assert check_csv(name, ref, _edit(ref, 1, column, value))


def test_residual_columns_follow_their_contract():
    ref = _ref("double-well-2d", "solve.csv")
    # Other digits below the Newton tolerance are accepted...
    assert check_csv("solve.csv", ref,
                     _edit(ref, 1, "final_residual", "3e-12")) == []
    # ...a residual above it contradicts converged=true.
    assert check_csv("solve.csv", ref,
                     _edit(ref, 1, "final_residual", "1e-6"))
    ref = _ref("double-well-2d", "uniqueness.csv")
    assert check_csv("uniqueness.csv", ref,
                     _edit(ref, 1, "rel_diff", "1e-13")) == []
    assert check_csv("uniqueness.csv", ref,
                     _edit(ref, 1, "rel_diff", "1e-6"))


def test_not_attempted_rows_must_stay_empty():
    ref = _ref("profiles-1d", "solve.csv")
    assert _cell(ref, 2, "error") == "not attempted"
    assert check_csv("solve.csv", ref, _edit(ref, 2, "iterations", "4"))


def test_row_structure_must_match():
    ref = _ref("double-well-2d", "solve.csv")
    dropped = "\n".join(ref.splitlines()[:-1]) + "\n"
    assert check_csv("solve.csv", ref, dropped)


def test_profile_digest(tmp_path):
    path = tmp_path / "profile.csv"
    rows = [f"{0.01 * i!r},{2.0 / (1 + i)!r},{-1.0 / (1 + i) ** 2!r}"
            for i in range(1000)]
    path.write_text("r,u,du\n" + "\n".join(rows) + "\n")
    digest = profile_digest(path)
    assert check_profile("profile.csv", digest, path) == []
    sampled = sorted(int(i) for i in digest["samples"])[10]
    rows[sampled] = rows[sampled].replace(",", ",1", 1)
    path.write_text("r,u,du\n" + "\n".join(rows) + "\n")
    assert check_profile("profile.csv", digest, path)
    path.write_text("r,u,du\n" + "\n".join(rows[:-1]) + "\n")
    assert check_profile("profile.csv", digest, path)


def test_rerun_is_accepted_and_byte_identical(tmp_path):
    """Run the cheap commands of profiles-1d twice: both runs pass the
    check, and their sweep CSVs are byte-identical."""
    workload = WORKLOADS["profiles-1d"]
    cheap = dataclasses.replace(workload, commands=tuple(
        c for c in workload.commands
        if c.kind != "groundstate" or c.label.endswith("p4-dim1")))
    ref_dir = REFERENCE / workload.name
    outputs = []
    for attempt in range(2):
        work = tmp_path / f"run{attempt}"
        result = run.run_pass(run.Runner(), cheap, 12345, work)
        for res in result["commands"]:
            assert check_command(ref_dir, work / OUT_DIR, res["label"],
                                 res["exit"], res["message"],
                                 res["files"]) == []
        outputs.append({p.name: p.read_bytes()
                        for p in (work / OUT_DIR).glob("*.csv")})
    assert outputs[0] == outputs[1]
    for path in ref_dir.glob("*.csv"):
        assert outputs[0][path.name] == path.read_bytes()


def test_traced_run_reports_every_per_layer_metric():
    """Every per-layer metric of BENCHMARK.json is reported, also when no
    span contributes to it."""
    trace = {"argv": ["solve"], "start": 1.0, "dump": [2.0, 2.1],
             "unwrapped": [], "spans": [[1, 0, "cli.main", 1.0, 2.0, 0, None]]}
    metrics, _ = layer_metrics([trace], [(0.9, 2.2)])
    reported = set(metrics) | {"trace.overhead_s"} | {
        f"cli.{kind}_s" for kind in run.COMMAND_KINDS}
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert reported == {m["name"] for m in bench["per_layer"]}
    assert metrics["trace.coverage"]["value"] == pytest.approx(1.0)
