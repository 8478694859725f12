"""Command-line harness for solver sweeps and their tabular outputs.

Subcommands
-----------
groundstate   solve the radial profile for one (v_a, p, dim), write it as
              a CSV table (r, u, du), streamed in blocks of rows, and
              print a summary (u(0); decay_rate, the rate of the matched
              K_nu tail the table ends on and evaluation continues past
              r_max, near sqrt(v_a); the residual sup norm).
solve         solve each eps from the ansatz, in schedule order; a failure
              ends the sweep.  One field file per solved eps, solve.csv;
              the field file of every eps it did not solve is removed.
analyze       load the persisted fields, run the bump decomposition, the
              flux identity, overlap integrals, and the coercivity
              estimate per eps, fit decay rates across eps, and write
              rates.csv, pohozaev.csv, coercivity.csv.
uniqueness    re-solve each eps from perturbed initializations (amplitude
              pair, center-shift pair) and write uniqueness.csv; --verbose
              prints each run's Newton and reduced steps.  A
              uniqueness-failure writes the pair's difference quotient
              xi = (u1 - u2)/sup|u1 - u2| to xi_eps<eps>_<pair>.nlsb; a
              pair that does not fail leaves no xi file.
all           solve, then analyze, then uniqueness.

CSV schemas (fixed column order, header row always present)
-----------------------------------------------------------
solve.csv       eps, iterations, final_residual, positivity, converged,
                error
                where positivity is true when no interior node is below
                -1e-10 / min V (negativity a converged residual cannot
                resolve) and some node is above 1e-10 / min V.
rates.csv       quantity, well, slope, expected, max_deviation, error
                where quantity is one of: alpha (per well, log-log slope
                vs eps), w_norm (global), drift_over_eps (per well,
                informational, no expected value), overlap_decay (per
                well pair "j-l"; slope of log(raw * eps^-dim) against
                1/eps, expected -min(sqrt(depth_j), sqrt(depth_l)) times
                the separation).
pohozaev.csv    eps, well, direction, lhs, i1, i2, i3, residual,
                rel_residual, error
                one row per well and direction i, on that well's ball B
                (fixed numerical policy, below) with outer normal nu:
                lhs = int_B d_iV u^2, i1 = -2 eps^2 oint d_nu u d_i u,
                i2 = oint (eps^2 |grad u|^2 + V u^2) nu_i,
                i3 = -(2/p) oint |u|^p nu_i,
                residual = lhs - (i1 + i2 + i3), and rel_residual =
                |residual| / max(|lhs|, |i1|, |i2|, |i3|), or 0 when all
                four vanish.
coercivity.csv  eps, rho, unprojected_min, unprojected_second,
                max_translation_quotient, error
uniqueness.csv  eps, pair, sup_diff, rel_diff, result, error
                where pair is "amplitude" or "shift", rel_diff is sup_diff
                over the sup norm of the pair's first solution, and result
                is one of pass, uniqueness-failure, solver-failure, error.

All floats are printed with 17 significant digits (dot decimal, no
locale), booleans as true/false, rows in schedule order; reruns of the
same config produce byte-identical files.  Recorded per-item failures
leave their numeric columns empty (a failed solve row keeps its Newton
report's) and put a message in the error column.

Fixed numerical policy (constants, not settings): a radial profile is
tabulated on [0, 10/sqrt(v_a) + 10] from a first step of
1e-3/max(1, sqrt(v_a)), refined until its residual meets the target, with
u(0) bisected to a bracket width of 1e-13 (radial.solve_ground_state).
Newton stops at a residual sup norm of 1e-10, within 40 steps of at most
1500 MINRES iterations each; step k's MINRES runs to relative tolerance
max(1e-8, min(1e-3, 0.9 (|F_k|/|F_{k-1}|)^2)), 1e-3 at the first step,
with |F| the cell-weighted L2 norm of the residual.  Newton's MINRES and
the coercivity estimate's LOBPCG are preconditioned by the exact inverse
of the far-field operator -eps^2 lap_h + V_inf, V_inf the potential's
background.  The coercivity estimate's unprojected LOBPCG starts from the
bumps, with normal columns drawn from run.seed up to two (so the seed
matters only for a single well), and its projected LOBPCG from the sum of
the bumps' scaling modes.  Each well's flux
identity uses a ball of radius min(default_ball_radius, 1.5 patch_radius)
centred at the well's decomposed centre plus 0.75 patch_radius
(1, 1/2, 1/4)[:dim], and the boundary quadrature of
grid.make_sphere_quadrature (192 nodes on a circle, 48 x 96 on a
sphere); grad u and grad V are formed once per eps for every ball
(analysis.pohozaev_terms).  Rate fits use every eps whose
value is above the fit floor 1e-12.  The uniqueness probe's amplitude pair
starts from 0.9 and 1.1 times the ansatz.  Its shift pair moves every
bump by +0.3 eps and -0.3 eps along axis 0, solves the k*N centre
equations <F(sum_l U_l(. - xi_l)), d_a U_j(. - xi_j)> = 0 from there by
patch-bounded Newton to a step of 1e-6 eps, and starts from the bumps at
that root ("converged"); a reduced solve that leaves a patch, is singular
or takes 50 steps leaves the shifted start.  So the pair tests the basin
of the reduced equation plus Newton from its two roots.  A pair passes
when rel_diff <= 1e-8.  A probe run that collapses to u = 0 or is not
positive (as solve.csv's positivity) is a solver-failure.

Exit codes: 0 success; 2 configuration or usage (also: non-finite
config numbers, an unreadable config, an output directory path that is a
file, an output file that cannot be written, such as a directory);
3 domain or geometry (also: bad groundstate arguments, non-finite ones
too); 4 iteration failure (also: any sweep row that records a failure);
5 malformed field file (analyze records a missing, unreadable or
malformed solution file in that eps's rows instead).  analyze and
uniqueness run their eps on a thread pool of --jobs threads (default 1;
--jobs does not apply to solve); rows are written in schedule order.

Importing this module loads numpy alone; scipy loads at its first call
(Newton in solve and uniqueness, analyze's coercivity estimate), so
groundstate and an analyze that finds no solution file load none of it.
"""

import argparse
import contextlib
import csv
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import (
    coercivity_estimate,
    decompose,
    default_ball_radius,
    fit_rate,
    pohozaev_terms,
    uniqueness_probe,
)
from .config import ExperimentConfig, load_config, problem_at
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DecompositionError,
    FormatError,
    GridMismatchError,
    KrylovError,
    NlsbumpError,
    SpectralError,
)
from .fieldio import read_field, write_field
from .grid import box_integral, same_grid
from .radial import (TABLE_BLOCK, RadialProfile, ode_residual,
                     solve_ground_state)
from .solver import BumpSpec, build_ansatz, newton_solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_ITERATION = 4
EXIT_FORMAT = 5

# Fitted quantities below this are indistinguishable from roundoff and are
# dropped before log-log fits rather than fitted as noise.
_FIT_FLOOR = 1e-12

# A uniqueness pair passes at rel_diff <= _UNIQUENESS_RTOL
# (perfbench/workloads.py's UNIQUENESS_RTOL mirrors it).
_UNIQUENESS_RTOL = 1e-8

_ITERATION_ERRORS = (BracketError, ConvergenceError, KrylovError,
                     SpectralError, DecompositionError)


def _solution_name(eps: float) -> str:
    return f"solution_eps{eps:g}.nlsb"


def _solution_names(cfg: ExperimentConfig) -> Dict[float, str]:
    names = {eps: _solution_name(eps) for eps in cfg.eps_schedule}
    if len(set(names.values())) != len(names):
        raise ConfigError(
            "eps schedule entries collide in the solution file naming "
            "scheme; separate them by more than 6 significant digits")
    return names


@contextlib.contextmanager
def _writing(path: Path):
    """An OSError while writing path is a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output file {path}: {exc.strerror or exc}") \
            from exc


def _write_csv(path: Path, header: Sequence[str],
               rows: Sequence[Sequence[str]]) -> None:
    with _writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{float(value):.17g}"
    return str(value)


def _row(*cells) -> List[str]:
    return [_cell(c) for c in cells]


def _map_jobs(fn, items, jobs: int):
    """Apply fn over items, preserving order; pool only when it helps."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _output_dir(path) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from exc
    return Path(path)


def _load_experiment(args) -> Tuple[ExperimentConfig, Path, Dict[float, str]]:
    """Config, output directory (created) and solution file names."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    names = _solution_names(cfg)
    out_dir = _output_dir(args.out or cfg.output_dir)
    return cfg, out_dir, names


def _note(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _base_ansatz(cfg: ExperimentConfig) -> Tuple[BumpSpec, ...]:
    """One unit-amplitude bump per well, profile solved at the well depth,
    once per distinct depth."""
    wells = cfg.potential.wells
    profiles = {depth: solve_ground_state(depth, cfg.p, cfg.dim)
                for depth in dict.fromkeys(w.depth for w in wells)}
    return tuple(BumpSpec(profile=profiles[w.depth],
                          center=np.array(w.center)) for w in wells)


def cmd_groundstate(args) -> int:
    out_dir = _output_dir(args.out or ".")
    profile = solve_ground_state(args.va, args.p, args.dim)
    residual = ode_residual(profile)
    path = out_dir / f"profile_va{args.va:g}_p{args.p:g}_dim{args.dim}.csv"
    with _writing(path), open(path, "w", newline="") as fh:
        fh.write("r,u,du\n")
        # One % call formats TABLE_BLOCK / 8 rows; "%.17g" is f"{x:.17g}".
        for s in range(0, len(profile.values), TABLE_BLOCK // 8):
            block = slice(s, s + TABLE_BLOCK // 8)
            rows = np.stack((profile.r_nodes[block], profile.values[block],
                             profile.dvalues[block]), axis=1)
            fh.write("%.17g,%.17g,%.17g\n" * len(rows)
                     % tuple(rows.ravel().tolist()))

    print(f"u(0) = {profile.values[0]:.6f}")
    print(f"decay_rate = {profile.decay_rate:.6f}")
    print(f"ode_residual = {residual:.3e}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_solve(args, ansatz: Optional[Tuple[BumpSpec, ...]] = None) -> int:
    """Newton from the ansatz at each eps; later rows after a failure read
    "not attempted", and no field file is left for an eps not solved."""
    cfg, out_dir, names = _load_experiment(args)
    ansatz = ansatz or _base_ansatz(cfg)

    rows = []
    for i, eps in enumerate(cfg.eps_schedule):
        spec = problem_at(cfg, eps)
        try:
            u, report = newton_solve(spec, build_ansatz(spec, ansatz))
        except (ConvergenceError, KrylovError) as exc:
            report = exc.report
            rows.append(_row(eps, report.iterations, report.final_residual,
                             report.positivity, False,
                             str(exc) if isinstance(exc, KrylovError)
                             else "newton did not converge"))
        else:
            with _writing(out_dir / names[eps]):
                write_field(out_dir / names[eps], u, spec.grid, eps, cfg.p)
            rows.append(_row(eps, report.iterations, report.final_residual,
                             report.positivity, True, ""))
            _note(args, f"solve eps={eps:g}: {report.iterations} iterations, "
                        f"residual {report.final_residual:.3e}")
            continue
        rows += [_row(e, None, None, None, None, "not attempted")
                 for e in cfg.eps_schedule[i + 1:]]
        break

    n_ok = sum(1 for r in rows if r[4] == "true")
    # The solved eps lead the schedule.  A field an earlier run left for
    # any other eps would be analyzed against this run's profiles.
    for eps in cfg.eps_schedule[n_ok:]:
        with _writing(out_dir / names[eps]):
            (out_dir / names[eps]).unlink(missing_ok=True)
    _write_csv(out_dir / "solve.csv",
               ["eps", "iterations", "final_residual", "positivity",
                "converged", "error"], rows)
    print(f"solve: {n_ok}/{len(cfg.eps_schedule)} eps converged, "
          f"results in {out_dir}")
    return EXIT_OK if n_ok == len(cfg.eps_schedule) else EXIT_ITERATION


def _load_solution(cfg: ExperimentConfig, out_dir: Path, eps: float,
                   name: str):
    try:
        u, grid, eps_file, p_file = read_field(out_dir / name)
    except FileNotFoundError:
        raise FormatError(f"missing solution file {name}") from None
    except OSError as exc:
        raise FormatError(f"cannot read solution file {name}: "
                          f"{exc.strerror or exc}") from exc
    if abs(eps_file - eps) > 1e-12 * eps:
        raise FormatError(f"{name} stores eps={eps_file!r}, expected {eps!r}")
    if abs(p_file - cfg.p) > 1e-12:
        raise FormatError(f"{name} stores p={p_file!r}, expected {cfg.p!r}")
    spec = problem_at(cfg, eps)
    if not same_grid(grid, spec.grid):
        raise FormatError(
            f"{name} does not match the grid of the configured spacing rule")
    return spec, u


def _analyze_one(cfg: ExperimentConfig, out_dir: Path, eps: float,
                 name: str, profiles: Sequence[RadialProfile]) -> Dict:
    """All per-eps analysis; raises NlsbumpError on any failure."""
    spec, u = _load_solution(cfg, out_dir, eps, name)
    wells, patch = spec.potential.wells, spec.potential.patch_radius
    centers = np.array([w.center for w in wells])
    dec = decompose(spec, u, centers, profiles)

    # A ball centered on a bump integrates the near-odd flux integrand to
    # roundoff on both sides of the identity, leaving a noise-over-noise
    # residual ratio.  Offsetting the center by a fraction of the patch
    # radius and keeping the ball small enough to clip the patch keeps
    # every term at solution scale, so the rel_residual column stays
    # meaningful for symmetric geometries too.
    radius = min(default_ball_radius(spec), 1.5 * patch)
    offset = np.array([0.75 * patch / 2.0 ** i
                       for i in range(cfg.dim)])
    pohozaev = pohozaev_terms(spec, u, dec.centers + offset, radius)

    coercivity = coercivity_estimate(spec, dec, seed=cfg.seed)

    overlaps = {}
    for j in range(len(wells)):
        for l in range(j + 1, len(wells)):
            raw = box_integral(spec.grid, dec.bumps[j] * dec.bumps[l])
            overlaps[(j, l)] = raw * spec.eps ** (-cfg.dim)

    drifts = np.linalg.norm(dec.centers - centers, axis=1)
    return {
        "eps": eps,
        "alphas": np.abs(dec.amplitudes),
        "w_norm": dec.w_norm,
        "drifts": drifts,
        "pohozaev": pohozaev,
        "coercivity": coercivity,
        "overlaps": overlaps,
    }


def _fit_samples(records: List[Dict], key):
    """(eps, value) pairs above the fit floor, largest eps first."""
    samples = sorted(((rec["eps"], key(rec)) for rec in records),
                     key=lambda s: -s[0])
    return [(e, v) for e, v in samples if v > _FIT_FLOOR]


def _rate_row(quantity: str, well: str, samples, expected: Optional[float],
              abscissa=np.log):
    if len(samples) < 3:
        return _row(quantity, well, None, expected, None,
                    f"only {len(samples)} samples above the fit floor")
    fit = fit_rate(samples, abscissa)
    return _row(quantity, well, fit.slope, expected, fit.max_deviation, "")


def cmd_analyze(args, ansatz: Optional[Tuple[BumpSpec, ...]] = None) -> int:
    cfg, out_dir, names = _load_experiment(args)
    # Without a single solution file every eps records its missing file,
    # so no profile is solved for them.
    if ansatz is None and any((out_dir / n).exists() for n in names.values()):
        ansatz = _base_ansatz(cfg)
    profiles = [] if ansatz is None else [b.profile for b in ansatz]

    def run_one(eps: float):
        try:
            record = _analyze_one(cfg, out_dir, eps, names[eps], profiles)
            _note(args, f"analyze eps={eps:g}: done")
            return record
        except NlsbumpError as exc:
            _note(args, f"analyze eps={eps:g}: {exc}")
            return {"eps": eps, "error": str(exc)}

    records = _map_jobs(run_one, list(cfg.eps_schedule), args.jobs)

    pohozaev_rows = []
    coercivity_rows = []
    for rec in records:
        eps = rec["eps"]
        if "error" in rec:
            pohozaev_rows.append(
                _row(eps, None, None, None, None, None, None, None, None,
                     rec["error"]))
            coercivity_rows.append(
                _row(eps, None, None, None, None, rec["error"]))
            continue
        for j, reports in enumerate(rec["pohozaev"]):
            pohozaev_rows += [
                _row(eps, j, direction, rep.lhs_volume, rep.i1, rep.i2,
                     rep.i3, rep.residual, rep.rel_residual, "")
                for direction, rep in enumerate(reports)]
        co = rec["coercivity"]
        coercivity_rows.append(
            _row(eps, co.rho, co.unprojected_min, co.unprojected_second,
                 float(np.abs(co.translation_quotients).max()), ""))

    good = [rec for rec in records if "error" not in rec]
    wells, m = cfg.potential.wells, cfg.potential.exponent
    rate_rows = []
    for j in range(len(wells)):
        samples = _fit_samples(good, lambda r: float(r["alphas"][j]))
        rate_rows.append(_rate_row("alpha", str(j), samples, m))
    samples = _fit_samples(good, lambda r: float(r["w_norm"]))
    rate_rows.append(_rate_row("w_norm", "", samples, m + cfg.dim / 2.0))
    for j in range(len(wells)):
        samples = _fit_samples(good,
                               lambda r: float(r["drifts"][j]) / r["eps"])
        rate_rows.append(_rate_row("drift_over_eps", str(j), samples, None))
    for j in range(len(wells)):
        for l in range(j + 1, len(wells)):
            samples = _fit_samples(good, lambda r: r["overlaps"][(j, l)])
            sep = float(np.linalg.norm(np.array(wells[j].center)
                                       - np.array(wells[l].center)))
            expected = -min(np.sqrt(wells[j].depth),
                            np.sqrt(wells[l].depth)) * sep
            rate_rows.append(_rate_row("overlap_decay", f"{j}-{l}", samples,
                                       expected, lambda e: 1.0 / e))

    _write_csv(out_dir / "rates.csv",
               ["quantity", "well", "slope", "expected", "max_deviation",
                "error"], rate_rows)
    _write_csv(out_dir / "pohozaev.csv",
               ["eps", "well", "direction", "lhs", "i1", "i2", "i3",
                "residual", "rel_residual", "error"], pohozaev_rows)
    _write_csv(out_dir / "coercivity.csv",
               ["eps", "rho", "unprojected_min", "unprojected_second",
                "max_translation_quotient", "error"], coercivity_rows)
    n_bad = len(records) - len(good)
    print(f"analyze: {len(good)}/{len(records)} eps analyzed, "
          f"results in {out_dir}")
    return EXIT_OK if n_bad == 0 else EXIT_ITERATION


def cmd_uniqueness(args,
                   ansatz: Optional[Tuple[BumpSpec, ...]] = None) -> int:
    """Run the uniqueness probe on an amplitude pair and a shift pair per
    eps; the module docstring gives the pairs, rel_diff and the results."""
    cfg, out_dir, _ = _load_experiment(args)
    ansatz = ansatz or _base_ansatz(cfg)

    def run_one(eps: float):
        spec = problem_at(cfg, eps)
        rows = []
        for pair_name in ("amplitude", "shift"):
            try:
                report = uniqueness_probe(spec, ansatz, pair_name)
            except NlsbumpError as exc:
                result = ("solver-failure"
                          if isinstance(exc, _ITERATION_ERRORS) else "error")
                rows.append(_row(eps, pair_name, None, None, result,
                                 str(exc)))
                runs = getattr(exc, "runs", ())
            else:
                runs = report.runs
                result = ("pass" if report.rel_diff <= _UNIQUENESS_RTOL
                          else "uniqueness-failure")
                rows.append(_row(eps, pair_name, report.sup_diff,
                                 report.rel_diff, result, ""))
            # An xi file an earlier run left would read as this run's.
            path = out_dir / f"xi_eps{eps:g}_{pair_name}.nlsb"
            with _writing(path):
                if (result == "uniqueness-failure"
                        and report.xi_field is not None):
                    write_field(path, report.xi_field, spec.grid, eps, cfg.p)
                else:
                    path.unlink(missing_ok=True)
            _note(args, f"uniqueness eps={eps:g} {pair_name}: {result}"
                  + "".join(f"; run {i}: newton {r.newton_iterations}, "
                            f"reduced {r.reduced_iterations} "
                            f"{r.reduced_outcome or 'none'}"
                            for i, r in enumerate(runs)))
        return rows

    groups = _map_jobs(run_one, list(cfg.eps_schedule), args.jobs)
    rows = [row for group in groups for row in group]
    _write_csv(out_dir / "uniqueness.csv",
               ["eps", "pair", "sup_diff", "rel_diff", "result", "error"],
               rows)
    n_pass = sum(1 for r in rows if r[4] == "pass")
    print(f"uniqueness: {n_pass}/{len(rows)} pairs passed, "
          f"results in {out_dir}")
    return EXIT_OK if n_pass == len(rows) else EXIT_ITERATION


def cmd_all(args) -> int:
    """solve, analyze and uniqueness on one set of radial profiles."""
    ansatz = _base_ansatz(_load_experiment(args)[0])
    codes = [cmd(args, ansatz)
             for cmd in (cmd_solve, cmd_analyze, cmd_uniqueness)]
    for code in codes:
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsbump",
        description="Multi-bump semiclassical solver sweeps and analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    gs = sub.add_parser("groundstate",
                        help="solve one radial profile and print a summary")
    gs.add_argument("--va", type=float, required=True,
                    help="potential value at the well floor")
    gs.add_argument("--p", type=float, required=True,
                    help="nonlinearity power")
    gs.add_argument("--dim", type=int, required=True,
                    help="space dimension (1, 2, or 3)")
    gs.add_argument("--out", default=None, help="output directory")
    gs.set_defaults(func=cmd_groundstate)

    for name, func, blurb in (
            ("solve", cmd_solve,
             "solve each eps from the ansatz, in schedule order; a failure "
             "ends the sweep"),
            ("analyze", cmd_analyze,
             "decompose, flux identity, overlaps, coercivity, rate fits"),
            ("uniqueness", cmd_uniqueness,
             "re-solve from perturbed initializations and compare"),
            ("all", cmd_all, "solve, then analyze, then uniqueness")):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True,
                         help="experiment config file")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker threads for analyze/uniqueness, not "
                              "solve (default: 1)")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: run.output_dir)")
        cmd.add_argument("--verbose", action="store_true",
                         help="progress lines on stderr")
        cmd.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _ITERATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ITERATION
    except (FormatError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NlsbumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
