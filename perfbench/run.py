"""Benchmark of the nlsbump command line, one OS process per command.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--write-reference]

Run from the root of a checkout that holds ``src/nlsbump``.  NAME is a
workload of ``workloads.py`` or ``all``.  Every child runs with one BLAS /
OpenMP thread and ``--jobs 1``.

``--trace 0`` runs whole passes of the workload until ``--seconds`` have
elapsed (at least one), checks each pass's outputs against the stored
reference, and reports the end-to-end metrics as medians over the passes.
``--trace 1`` runs one pass untraced and one with spans around the layer
calls (see ``tracing.py``), and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` counts CLI
commands run and ``failed`` those whose exit code or outputs did not match
the reference.  Work files go to ``.perfbench_out/``.  NOTES.md explains
the workloads, metrics and known failures.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from check import check_command, count_operations, write_reference
from tracing import layer_metrics
from workloads import CONFIG_NAME, DEFAULT_SEED, OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

SETUP_SAMPLES = 5
# Command kinds whose process wall times the traced run reports.
COMMAND_KINDS = ("groundstate", "solve", "analyze", "uniqueness")
# Every child is killed once this much of the run has passed, so a run
# ends within its 180 s limit even when the program hangs.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_SETUP = ("import sys, nlsbump.cli; "
          "nlsbump.cli.load_config(sys.argv[1])")

_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy, scipy
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            threads = getattr(lib, name)()
            break
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("NLSB_THREADS", None)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Starts children, waits for each, and enforces the run deadline."""

    def __init__(self):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = child_env()

    def run(self, argv: List[str], cwd: Path, log: str) -> Dict:
        """Run one child to completion; wall time, exit, rusage."""
        with open(cwd / f"{log}.stdout", "w") as out, \
                open(cwd / f"{log}.stderr", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        lines = (cwd / f"{log}.stderr").read_text().strip().splitlines()
        return {"wall": end - start, "start": start, "end": end,
                "exit": proc.returncode,
                "message": lines[-1] if lines else "",
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}


def run_pass(runner: Runner, workload, seed: int, work: Path,
             spans_dir: Path = None, setup_samples: int = 0) -> Dict:
    """One pass of the workload's commands in a fresh directory.

    ``setup_samples`` set-up processes (interpreter start, import of the
    CLI, loading the config) are spread evenly between the commands, so
    their median sees the same machine as the commands do.  The pass's
    total is the sum of the commands' wall times.
    """
    if work.exists():
        shutil.rmtree(work)
    (work / OUT_DIR).mkdir(parents=True)
    (work / CONFIG_NAME).write_text(workload.config_text(seed))
    n = len(workload.commands)
    slots = [j * n // setup_samples for j in range(setup_samples)]
    results, setups = [], []
    for i, cmd in enumerate(workload.commands):
        for _ in range(slots.count(i)):
            setups.append(runner.run([sys.executable, "-c", _SETUP,
                                      CONFIG_NAME], work, "setup"))
        if spans_dir is None:
            argv = [sys.executable, "-m", "nlsbump.cli", *cmd.argv]
        else:
            spans = spans_dir / f"{cmd.label}.json"
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans),
                    f"{workload.name}-{seed}", *cmd.argv]
        before = set((work / OUT_DIR).glob("*.csv"))
        res = runner.run(argv, work, cmd.label)
        res.update(label=cmd.label, kind=cmd.kind, files=sorted(
            p.name for p in set((work / OUT_DIR).glob("*.csv")) - before))
        results.append(res)
    return {"total": sum(r["wall"] for r in results), "commands": results,
            "setups": setups}


def check_pass(workload, work: Path, result: Dict) -> List[str]:
    ref_dir = REFERENCE / workload.name
    problems = []
    for res in result["commands"]:
        found = check_command(ref_dir, work / OUT_DIR, res["label"],
                              res["exit"], res["message"], res["files"])
        res["ok"] = not found
        problems += found
    return problems


def command_seconds(result: Dict) -> Dict[str, float]:
    """Wall time per command kind, summed over the pass."""
    seconds = {}
    for res in result["commands"]:
        seconds[res["kind"]] = seconds.get(res["kind"], 0.0) + res["wall"]
    return seconds


def pass_metrics(work: Path, result: Dict) -> Dict[str, float]:
    attempted, failed = count_operations(
        work / OUT_DIR, [r["exit"] for r in result["commands"]
                         if r["kind"] == "groundstate"])
    return {
        "total_s": result["total"],
        "cpu_s": sum(r["cpu"] for r in result["commands"]),
        "peak_rss_mb": max(r["rss_mb"] for r in result["commands"]),
        "ok_frac": (attempted - failed) / attempted,
    }


def environment(runner: Runner, work: Path) -> Dict:
    runner.run([sys.executable, "-c", _PROBE], work, "probe")
    info = json.loads((work / "probe.stdout").read_text())
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    info.update(nproc=len(os.sched_getaffinity(0)), commit=commit,
                src_sha256=digest.hexdigest(), jobs=1)
    return info


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 runner: Runner) -> Dict:
    workload = WORKLOADS[name]
    base = WORK / name
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    env = environment(runner, base)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    work = base / "pass"
    passes, problems = [], []
    if trace:
        plain = run_pass(runner, workload, seed, work)
        problems += check_pass(workload, work, plain)
        spans_dir = base / "spans"
        spans_dir.mkdir()
        traced = run_pass(runner, workload, seed, work, spans_dir)
        problems += check_pass(workload, work, traced)
        passes = [plain, traced]
        traces = [json.loads((spans_dir / f"{r['label']}.json").read_text())
                  for r in traced["commands"]]
        metrics, detail = layer_metrics(
            traces, [(r["start"], r["end"]) for r in traced["commands"]])
        metrics["trace.overhead_s"] = _metric(
            traced["total"] - plain["total"], "s")
        seconds = command_seconds(traced)
        for kind in COMMAND_KINDS:
            metrics[f"cli.{kind}_s"] = _metric(seconds.get(kind, 0.0), "s")
        (base / "trace_detail.json").write_text(
            json.dumps(detail, indent=1) + "\n")
        print_detail(detail)
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            result = run_pass(runner, workload, seed, work,
                              setup_samples=0 if passes else SETUP_SAMPLES)
            problems += check_pass(workload, work, result)
            result["metrics"] = pass_metrics(work, result)
            passes.append(result)
        setups = passes[0]["setups"]
        problems += [f"setup exited {r['exit']}: {r['message']}"
                     for r in setups if r["exit"] != 0]
        metrics = {"setup_s": _metric(statistics.median(
            r["wall"] for r in setups), "s")}
        for key in passes[0]["metrics"]:
            metrics[key] = _metric(statistics.median(
                p["metrics"][key] for p in passes), END_TO_END_UNITS[key])

    commands = [r for p in passes for r in p["commands"]]
    outcome = {
        "correct": not problems,
        "attempted": len(commands),
        "failed": sum(1 for r in commands if not r["ok"]),
        "metrics": metrics if not problems else {},
    }
    record = dict(outcome, workload=name, seed=seed, trace=trace, env=env,
                  problems=problems, passes=[
                      {"total_s": p["total"],
                       "commands": {r["label"]: {k: r[k] for k in (
                           "wall", "exit", "cpu", "rss_mb")}
                           for r in p["commands"]}} for p in passes])
    (base / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for msg in problems[:20]:
        print(f"check: {msg}", flush=True)
    return outcome


def print_detail(detail: Dict) -> None:
    for c in detail["coverage"]:
        print(f"trace {c['command']}: {c['wall_s']:.3f} s wall, "
              f"{100 * c['covered']:.2f}% in named spans")
    for d in detail["decompose"]:
        print(f"decompose eps={d['eps']:g}: {d['basis_builds']:g} basis "
              f"builds, {d['s']:.3f} s")
    for c in detail["coercivity"]:
        print(f"coercivity eps={c['eps']:g}: {c['lu_calls']} LU "
              f"({c['lu_s']:.3f} s), {c['s']:.3f} s")
    for n in detail["newton"]:
        print(f"newton {n['command']}/{n['caller']} eps={n['eps']:g}: "
              f"{n['iters']} steps{' (failed)' if n['failed'] else ''}, "
              f"{n['s']:.3f} s")
    for r in detail["radial"]:
        print(f"radial {r['key']}: {r['s']:.3f} s, {r['nodes']} nodes"
              f"{' (failed)' if r['failed'] else ''}")
    if detail["unwrapped"]:
        print("trace: not found, not traced: " + ", ".join(detail["unwrapped"]))


def print_metrics(name: str, metrics: Dict) -> None:
    for key, m in metrics.items():
        print(f"{name:16s} {key:32s} {m['value']:14.6g} {m['unit']}")


def write_reference_pass(name: str, seed: int, runner: Runner) -> None:
    workload = WORKLOADS[name]
    work = WORK / name / "pass"
    result = run_pass(runner, workload, seed, work)
    ref_dir = REFERENCE / name
    write_reference(ref_dir, work / OUT_DIR, {
        r["label"]: {"exit": r["exit"], "message": r["message"],
                     "files": r["files"]} for r in result["commands"]})
    print(f"wrote {ref_dir} from seed {seed} "
          f"({result['total']:.1f} s)", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store one pass as the workload's reference "
                             "instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "nlsbump" / "cli.py").is_file():
        print(f"error: {SRC / 'nlsbump'} not found; run from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference_pass(name, args.seed, Runner())
        return 0
    outcomes = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), Runner())
        print_metrics(name, outcome["metrics"])
        outcomes[name] = outcome
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}.{k}": m for n, o in outcomes.items()
                        for k, m in o["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
