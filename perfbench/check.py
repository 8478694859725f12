"""Output check: compare each command's exit code and CSV outputs with
the stored reference of its workload.

Rules, per column:

* text, boolean and result columns (eps, labels, flags, ``result``,
  ``error``) must match the reference exactly;
* numeric result columns must match within ``RTOL`` relative plus
  ``ATOL`` absolute.  Across Lanczos seeds the coercivity columns move by
  about 2e-14 relative; across BLAS thread counts rates.csv moves by about
  1e-8 and pohozaev.csv by about 5e-10, so 1e-7 passes roundoff and
  rejects any change of substance;
* residual-type columns (``final_residual``, ``sup_diff``, ``rel_diff``)
  and the Newton ``iterations`` count are checked against their own
  contract, not the reference digits: a converged row's residual is at or
  below the Newton tolerance, a ``pass`` row's relative difference at or
  below the uniqueness tolerance, and so on.  They must be present exactly
  where the reference has them.

Profile tables (tens of thousands of rows) are stored as a digest: header,
row count and a fixed sample of rows.
"""

import csv
import io
import json
import math
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import MAX_NEWTON, NEWTON_TOL, UNIQUENESS_RTOL

RTOL = 1e-7
ATOL = 1e-15
PROFILE_SAMPLES = 64

COMMANDS_FILE = "commands.json"
PROFILES_FILE = "profiles.json"

def _exact(ref: str, got: str, row: Dict[str, str]) -> Optional[str]:
    return None if got == ref else f"{got!r} != reference {ref!r}"


def _close(ref: str, got: str, row: Dict[str, str]) -> Optional[str]:
    if not ref or not got:
        return _exact(ref, got, row)
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return f"{got!r} is not a number"
    if abs(a - b) <= RTOL * abs(b) + ATOL:
        return None
    return f"{got} differs from reference {ref} beyond rtol {RTOL:g}"


def _contract(test):
    """A rule that checks presence against the reference and the value
    against ``test(value, row)``, which returns a message or None."""
    def rule(ref: str, got: str, row: Dict[str, str]) -> Optional[str]:
        if bool(ref) != bool(got):
            return f"{got!r} where the reference has {ref!r}"
        if not got:
            return None
        try:
            value = float(got)
        except ValueError:
            return f"{got!r} is not a number"
        if not math.isfinite(value):
            return f"{got!r} is not finite"
        return test(value, row)
    return rule


def _iterations(value: float, row) -> Optional[str]:
    if value != int(value) or not 1 <= value <= MAX_NEWTON:
        return f"{value:g} is not a Newton count in 1..{MAX_NEWTON}"
    return None


def _final_residual(value: float, row) -> Optional[str]:
    converged = row["converged"] == "true"
    if converged != (value <= NEWTON_TOL):
        return (f"residual {value:g} contradicts converged="
                f"{row['converged']} at tolerance {NEWTON_TOL:g}")
    return None


def _sup_diff(value: float, row) -> Optional[str]:
    return None if value >= 0.0 else f"negative difference {value:g}"


def _rel_diff(value: float, row) -> Optional[str]:
    if value < 0.0:
        return f"negative difference {value:g}"
    passed = row["result"] == "pass"
    if row["result"] not in ("pass", "uniqueness-failure"):
        return f"a difference in a {row['result']!r} row"
    if passed != (value <= UNIQUENESS_RTOL):
        return (f"relative difference {value:g} contradicts result="
                f"{row['result']} at tolerance {UNIQUENESS_RTOL:g}")
    return None


_TEXT = ("eps", "quantity", "well", "direction", "pair", "positivity",
         "converged", "result", "error")

COLUMNS = {
    "solve.csv": {"iterations": _contract(_iterations),
                  "final_residual": _contract(_final_residual)},
    "rates.csv": {},
    "pohozaev.csv": {},
    "coercivity.csv": {},
    "uniqueness.csv": {"sup_diff": _contract(_sup_diff),
                       "rel_diff": _contract(_rel_diff)},
}


def _rule(name: str, column: str):
    special = COLUMNS.get(name, {})
    if column in special:
        return special[column]
    return _exact if column in _TEXT else _close


def check_csv(name: str, ref_text: str, got_text: str) -> List[str]:
    """Mismatches between one sweep CSV and its reference."""
    ref = list(csv.reader(io.StringIO(ref_text)))
    got = list(csv.reader(io.StringIO(got_text)))
    if not got or got[0] != ref[0]:
        return [f"{name}: header {got[:1]} != reference {ref[0]}"]
    if len(got) != len(ref):
        return [f"{name}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0]
    problems = []
    for i, (ref_row, got_row) in enumerate(zip(ref[1:], got[1:]), start=1):
        if len(got_row) != len(header):
            problems.append(f"{name} row {i}: {len(got_row)} cells")
            continue
        row = dict(zip(header, got_row))
        for column, r, g in zip(header, ref_row, got_row):
            msg = _rule(name, column)(r, g, row)
            if msg:
                problems.append(f"{name} row {i} {column}: {msg}")
    return problems


def _sample_indices(rows: int) -> List[int]:
    step = max(1, rows // PROFILE_SAMPLES)
    return sorted(set(range(0, rows, step)) | {rows - 1})


def profile_digest(path: Path) -> Dict:
    lines = path.read_text().splitlines()
    rows = lines[1:]
    return {"header": lines[0], "rows": len(rows),
            "samples": {str(i): rows[i] for i in _sample_indices(len(rows))}}


def check_profile(name: str, digest: Dict, path: Path) -> List[str]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != digest["header"]:
        return [f"{name}: header {lines[:1]} != reference "
                f"{digest['header']!r}"]
    rows = lines[1:]
    if len(rows) != digest["rows"]:
        return [f"{name}: {len(rows)} rows, reference has {digest['rows']}"]
    problems = []
    for index, ref_line in digest["samples"].items():
        got_cells = rows[int(index)].split(",")
        ref_cells = ref_line.split(",")
        for column, r, g in zip(lines[0].split(","), ref_cells, got_cells):
            msg = _close(r, g, {})
            if msg:
                problems.append(f"{name} row {int(index) + 1} {column}: {msg}")
    return problems


def check_command(ref_dir: Path, out_dir: Path, label: str, code: int,
                  message: str, files: List[str]) -> List[str]:
    """Every mismatch between one command's result and its reference:
    exit code, last stderr line of a failing command, the CSV files it
    wrote and their contents."""
    want = json.loads((ref_dir / COMMANDS_FILE).read_text()).get(label)
    if want is None:
        return [f"{label}: no reference"]
    problems = []
    if code != want["exit"]:
        problems.append(f"{label}: exit {code}, reference {want['exit']} "
                        f"({message})")
    elif code != 0 and message != want["message"]:
        problems.append(f"{label}: message {message!r} != reference "
                        f"{want['message']!r}")
    if sorted(files) != want["files"]:
        problems.append(f"{label}: wrote {sorted(files)}, reference "
                        f"{want['files']}")
    digests = json.loads((ref_dir / PROFILES_FILE).read_text())
    for name in sorted(set(files) & set(want["files"])):
        if name in digests:
            problems += check_profile(name, digests[name], out_dir / name)
        else:
            problems += check_csv(name, (ref_dir / name).read_text(),
                                  (out_dir / name).read_text())
    return problems


def write_reference(ref_dir: Path, out_dir: Path,
                    commands: Dict[str, Dict]) -> None:
    """Store one pass as the reference: sweep CSVs verbatim, profile
    tables as digests, and per command its exit code, the last stderr
    line of a failure and the CSV files it wrote."""
    if ref_dir.exists():
        shutil.rmtree(ref_dir)
    ref_dir.mkdir(parents=True)
    digests = {}
    for path in sorted(out_dir.glob("*.csv")):
        if path.name.startswith("profile_"):
            digests[path.name] = profile_digest(path)
        else:
            shutil.copyfile(path, ref_dir / path.name)
    (ref_dir / PROFILES_FILE).write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    (ref_dir / COMMANDS_FILE).write_text(json.dumps(
        {label: {"exit": c["exit"],
                 "message": c["message"] if c["exit"] else "",
                 "files": sorted(c["files"])}
         for label, c in commands.items()}, indent=1, sort_keys=True) + "\n")


def count_operations(out_dir: Path,
                     groundstate_exits: List[int]) -> Tuple[int, int]:
    """(attempted, failed) program operations of one pass.

    An operation is a solve.csv row, an analyzed eps (a coercivity.csv
    row), a uniqueness.csv row or a groundstate call.  It failed when the
    row is not converged or not attempted, carries an analysis error, is a
    solver-failure or error, or the groundstate call exited non-zero.
    """
    def rows(name):
        path = out_dir / name
        if not path.exists():
            return []
        return list(csv.DictReader(io.StringIO(path.read_text())))

    outcomes = [r["converged"] == "true" for r in rows("solve.csv")]
    outcomes += [r["error"] == "" for r in rows("coercivity.csv")]
    outcomes += [r["result"] not in ("solver-failure", "error")
                 for r in rows("uniqueness.csv")]
    outcomes += [code == 0 for code in groundstate_exits]
    return len(outcomes), outcomes.count(False)
