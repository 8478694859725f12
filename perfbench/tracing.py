"""Spans around the layer calls of one nlsbump CLI command, and their
reduction to per-layer metrics.

Run as a program, it executes one CLI command with every traced function
wrapped, then writes the spans as JSON:

    python3 perfbench/tracing.py SPANS_FILE TRACE_ID CLI_ARG...

Each function is wrapped under the name its calling module imported it by
(``nlsbump.solver.minres``, ``nlsbump.cli.newton_solve``, the ``splu`` of
scipy's ARPACK module, ...), so no file of the program changes.  A span
records id, parent, name, start, end (``time.perf_counter``, which is the
system-wide monotonic clock, so the parent can compare it with its own
timings), thread and a few counts.  Spans stay in memory until the command
ends.  The exit code is the command's.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402


class Recorder:
    def __init__(self):
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def end(self, opened, end: float, attrs=None) -> None:
        self._stack().pop()
        sid, parent, name, start = opened
        self.spans.append((sid, parent, name, start, end,
                           threading.get_ident(), attrs))

    @contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield
        finally:
            self.end(opened, time.perf_counter())


def _eps(args, kwargs, result=None, error=None):
    spec = args[0] if args else kwargs["spec"]
    return {"eps": float(spec.eps)}


def _newton(args, kwargs, result, error):
    report = result[1] if error is None else getattr(error, "report", None)
    attrs = _eps(args, kwargs)
    attrs["iters"] = None if report is None else report.iterations
    attrs["failed"] = error is not None or not report.converged
    return attrs


def _ground_state(args, kwargs, result, error):
    attrs = {"key": [float(a) for a in args[:3]], "failed": error is not None}
    if error is None:
        attrs["nodes"] = len(result.r_nodes)
    return attrs


def _decompose(args, kwargs, result, error):
    import numpy as np
    centers = args[2] if len(args) > 2 else kwargs["initial_centers"]
    attrs = _eps(args, kwargs)
    attrs["bumps"] = int(np.atleast_2d(np.asarray(centers)).shape[0])
    return attrs


def _file_bytes(args, kwargs, result, error):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path) if error is None else 0}


# (module, attribute, span name, describer) for every traced call site.
TARGETS = [
    ("nlsbump.cli", "solve_ground_state", "radial.solve", _ground_state),
    ("nlsbump.analysis", "solve_ground_state", "radial.solve",
     _ground_state),
    ("nlsbump.solver", "eval_profile", "radial.eval", None),
    ("nlsbump.analysis", "eval_profile", "radial.eval", None),
    ("nlsbump.analysis", "eval_profile_deriv", "radial.eval", None),
    ("nlsbump.cli", "build_ansatz", "solver.ansatz", None),
    ("nlsbump.solver", "build_ansatz", "solver.ansatz", None),
    ("nlsbump.analysis", "build_ansatz", "solver.ansatz", None),
    ("nlsbump.cli", "newton_solve", "solver.newton", _newton),
    ("nlsbump.solver", "newton_solve", "solver.newton", _newton),
    ("nlsbump.analysis", "newton_solve", "solver.newton", _newton),
    ("nlsbump.cli", "continuation_solve", "solver.continuation", None),
    ("nlsbump.solver", "neg_weighted_laplacian", "grid.stencil", None),
    ("nlsbump.analysis", "eps_inner", "grid.inner", None),
    ("nlsbump.analysis", "eps_norm", "grid.inner", None),
    ("nlsbump.cli", "decompose", "analysis.decompose", _decompose),
    ("nlsbump.analysis", "bump_field", "analysis.bump_field", None),
    ("nlsbump.cli", "pohozaev_terms", "analysis.pohozaev", None),
    ("nlsbump.cli", "coercivity_estimate", "analysis.coercivity", _eps),
    ("nlsbump.analysis", "eigsh", "analysis.eigsh", None),
    ("scipy.sparse.linalg._eigen.arpack.arpack", "splu", "analysis.lu",
     None),
    ("nlsbump.cli", "overlap_integral", "analysis.overlap", None),
    ("nlsbump.cli", "uniqueness_probe", "analysis.uniqueness_probe", _eps),
    ("nlsbump.cli", "write_field", "fieldio.write", _file_bytes),
    ("nlsbump.cli", "read_field", "fieldio.read", _file_bytes),
]


def _wrap(rec: Recorder, fn, name: str, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        opened = rec.begin(name)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            rec.end(opened, end, describe(args, kwargs, result, error)
                    if describe else None)
    return traced


def _wrap_minres(rec: Recorder, fn):
    """MINRES with its iterations counted by a callback when the caller
    passes none, and its ``info`` (> 0: stopped short of tolerance)."""
    @functools.wraps(fn)
    def traced(*args, callback=None, **kwargs):
        count = [0]
        counted = callback is None
        if counted:
            def callback(xk):
                count[0] += 1
        opened = rec.begin("solver.minres")
        info = None
        try:
            result = fn(*args, callback=callback, **kwargs)
            info = int(result[1])
            return result
        finally:
            rec.end(opened, time.perf_counter(),
                    {"iters": count[0] if counted else None, "info": info})
    return traced


def install(rec: Recorder) -> List[str]:
    """Wrap every target that exists; return the ones that do not."""
    missing = []
    for module_name, attr, name, describe in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(rec, fn, name, describe))
    solver = importlib.import_module("nlsbump.solver")
    if hasattr(solver, "minres"):
        solver.minres = _wrap_minres(rec, solver.minres)
    else:
        missing.append("nlsbump.solver.minres")
    return missing


def main(argv: List[str]) -> int:
    spans_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    missing: List[str] = []
    code = 1
    try:
        with rec.span("cli.import"):
            cli = importlib.import_module("nlsbump.cli")
            missing = install(rec)
        with rec.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        dump_start = time.perf_counter()
        body = json.dumps(rec.spans, separators=(",", ":"))
        head = json.dumps({"trace_id": trace_id, "argv": cli_args,
                           "start": _T0, "unwrapped": missing,
                           "dump": [dump_start, time.perf_counter()]})
        with open(spans_path, "w") as fh:
            fh.write(head[:-1] + ',"spans":' + body + "}")
    return code


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics (runs in the benchmark's own process).

# Spans whose outermost durations are summed into <name>_s.
_TIMED = (
    "radial.solve", "radial.eval", "solver.ansatz", "solver.newton",
    "solver.minres", "solver.continuation", "grid.stencil", "grid.inner",
    "analysis.decompose", "analysis.pohozaev", "analysis.coercivity",
    "analysis.eigsh", "analysis.lu", "analysis.overlap",
    "analysis.uniqueness_probe", "fieldio.write", "fieldio.read",
    "cli.import", "trace.dump",
)
# count metric -> span name
_CALLS = {
    "radial.solves": "radial.solve",
    "radial.eval_calls": "radial.eval",
    "solver.newton_calls": "solver.newton",
    "solver.minres_calls": "solver.minres",
    "grid.stencil_calls": "grid.stencil",
    "grid.inner_calls": "grid.inner",
    "analysis.eigsh_calls": "analysis.eigsh",
    "analysis.lu_calls": "analysis.lu",
}
# Every metric layer_metrics reports, 0 where no span contributes.
METRICS = tuple(f"{name}_s" for name in _TIMED) + tuple(_CALLS) + (
    "radial.table_nodes", "radial.failures", "solver.newton_iters",
    "solver.newton_failures", "solver.minres_iters", "solver.minres_short",
    "fieldio.bytes", "analysis.decompose_basis_builds", "cli.self_s",
    "cli.process_s", "trace.coverage",
)

UNITS = {"trace.coverage": "ratio", "fieldio.bytes": "bytes"}


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Command:
    """Span lookups for one traced command.

    Three root spans come from outside the command: ``process.start``
    (from the benchmark starting the process to the first line of this
    file), ``trace.dump`` (writing the spans) and ``process.exit`` (from
    there until the benchmark reaped the process: interpreter teardown).
    All three are measured on the same monotonic clock.
    """

    def __init__(self, trace: Dict, proc_start: float, proc_end: float):
        self.trace = trace
        dump_start, dump_end = trace["dump"]
        outside = [(-1, 0, "process.start", proc_start, trace["start"],
                    None, None),
                   (-2, 0, "trace.dump", dump_start, dump_end, None, None),
                   (-3, 0, "process.exit", dump_end, proc_end, None, None)]
        self.wall = proc_end - proc_start
        self.spans = [dict(zip(("id", "parent", "name", "start", "end",
                                "thread", "attrs"), s))
                      for s in trace["spans"] + outside]
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: Dict[int, List[Dict]] = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def ancestors(self, span):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent"])

    def ancestor(self, span, name):
        return next((a for a in self.ancestors(span) if a["name"] == name),
                    None)

    def outermost(self, name):
        """Spans of a name not nested in another span of the same name."""
        return [s for s in self.spans if s["name"] == name
                and self.ancestor(s, name) is None]

    def self_time(self, span) -> float:
        kids = self.children.get(span["id"], [])
        return (span["end"] - span["start"]
                - _union((k["start"], k["end"]) for k in kids))


def layer_metrics(traces: List[Dict], procs: List[Tuple[float, float]]):
    """Per-layer metrics of one traced pass, plus the per-call detail the
    baseline cross-check reads.

    ``traces`` are the span files of the pass's commands and ``procs``
    the (start, end) of each command's process as the benchmark saw it.
    """
    commands = [_Command(t, *proc) for t, proc in zip(traces, procs)]
    totals = dict.fromkeys(METRICS, 0.0)

    def add(key, value):
        totals[key] += value

    detail = {"newton": [], "radial": [], "decompose": [], "coercivity": [],
              "coverage": [], "unwrapped": sorted(
                  {m for t in traces for m in t["unwrapped"]})}
    for cmd in commands:
        label = cmd.trace["argv"][0]
        # bump_field calls per decompose span, LU calls (and their
        # seconds) per coercivity span
        nested, nested_s = Counter(), Counter()
        for s in cmd.spans:
            outer = {"analysis.bump_field": "analysis.decompose",
                     "analysis.lu": "analysis.coercivity"}.get(s["name"])
            found = outer and cmd.ancestor(s, outer)
            if found:
                nested[found["id"]] += 1
                nested_s[found["id"]] += s["end"] - s["start"]
        for name in _TIMED:
            add(f"{name}_s", sum(s["end"] - s["start"]
                                 for s in cmd.outermost(name)))
        for metric, name in _CALLS.items():
            add(metric, sum(1 for s in cmd.spans if s["name"] == name))
        for s in cmd.spans:
            a = s["attrs"] or {}
            seconds = s["end"] - s["start"]
            if s["name"] == "radial.solve":
                add("radial.table_nodes", a.get("nodes", 0))
                add("radial.failures", int(a["failed"]))
                detail["radial"].append({"key": a["key"], "s": seconds,
                                         "nodes": a.get("nodes"),
                                         "failed": a["failed"]})
            elif s["name"] == "solver.newton":
                add("solver.newton_iters", a["iters"] or 0)
                add("solver.newton_failures", int(a["failed"]))
                caller = next((x["name"] for x in cmd.ancestors(s)
                               if x["name"] != "cli.main"), label)
                detail["newton"].append({"command": label, "caller": caller,
                                         "eps": a["eps"], "iters": a["iters"],
                                         "failed": a["failed"], "s": seconds})
            elif s["name"] == "solver.minres":
                add("solver.minres_iters", a["iters"] or 0)
                add("solver.minres_short", int((a["info"] or 0) > 0))
            elif s["name"] in ("fieldio.write", "fieldio.read"):
                add("fieldio.bytes", a["bytes"])
            elif s["name"] == "analysis.decompose":
                builds = nested[s["id"]] / a["bumps"]
                add("analysis.decompose_basis_builds", builds)
                detail["decompose"].append({"eps": a["eps"], "s": seconds,
                                            "basis_builds": builds})
            elif s["name"] == "analysis.coercivity":
                detail["coercivity"].append({"eps": a["eps"], "s": seconds,
                                             "lu_calls": nested[s["id"]],
                                             "lu_s": nested_s[s["id"]]})
            elif s["name"] == "cli.main":
                add("cli.self_s", cmd.self_time(s))
            elif s["name"] in ("process.start", "process.exit"):
                add("cli.process_s", seconds)
        roots = [(s["start"], s["end"]) for s in cmd.spans
                 if s["parent"] == 0]
        detail["coverage"].append({"command": label, "wall_s": cmd.wall,
                                   "covered": _union(roots) / cmd.wall})
    totals["trace.coverage"] = min(c["covered"] for c in detail["coverage"])
    metrics = {}
    for key in sorted(totals):
        unit = UNITS.get(key, "s" if key.endswith("_s") else "count")
        metrics[key] = {"value": totals[key], "unit": unit}
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
