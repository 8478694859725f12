"""Experiment configuration: parsing and validation.

The format is line-oriented ``key = value`` with dotted section prefixes,
``#`` comments, and space-separated numbers for vectors:

    problem.dim = 2
    problem.well.0.center = -1 0
    schedule.eps = 0.4 0.3 0.25

A number that is not finite (nan, inf) is rejected.  Every violation of
a module precondition is reported as a ConfigError naming the offending
line or field.
"""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ConfigError, NlsbumpError
from .grid import ProblemSpec, TensorGrid, make_grid, make_problem
from .potential import PotentialModel, WellSpec, make_multiwell


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config; potential is the validated multi-well model, built
    once (with its default background when problem.background is unset)."""
    dim: int
    p: float
    potential: PotentialModel
    box_lo: Tuple[float, ...]
    box_hi: Tuple[float, ...]
    eps_schedule: Tuple[float, ...]
    spacing_divisor: float = 6.0
    seed: int = 12345
    output_dir: str = "out"


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}")


def _parse_vec(raw: str, where: str) -> Tuple[float, ...]:
    parts = raw.split()
    if not parts:
        raise ConfigError(f"{where}: expected numbers, got an empty value")
    return tuple(_parse_float(tok, where) for tok in parts)


class _Entries:
    """Raw key/value lines with consumption tracking."""

    def __init__(self, text: str):
        self.items: Dict[str, Tuple[str, int]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"line {lineno}: expected 'key = value', got {body!r}")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError(f"line {lineno}: missing key before '='")
            if key in self.items:
                first = self.items[key][1]
                raise ConfigError(
                    f"line {lineno}: duplicate key {key!r} (first set on "
                    f"line {first})")
            self.items[key] = (value, lineno)

    def take(self, key: str) -> Optional[str]:
        entry = self.items.pop(key, None)
        return entry[0] if entry is not None else None

    def require(self, key: str) -> str:
        value = self.take(key)
        if value is None:
            raise ConfigError(f"missing required key {key!r}")
        return value

    def leftovers(self):
        return sorted((line, key) for key, (_, line) in self.items.items())


def _collect_wells(entries: _Entries, dim: int) -> Tuple[WellSpec, ...]:
    indices = set()
    for key in list(entries.items):
        parts = key.split(".")
        if len(parts) == 4 and parts[:2] == ["problem", "well"]:
            if not parts[2].isdigit():
                raise ConfigError(
                    f"well index must be a number in {key!r}")
            indices.add(int(parts[2]))
    if not indices:
        raise ConfigError("config defines no wells (problem.well.0.*)")
    if indices != set(range(len(indices))):
        raise ConfigError(
            f"well indices must be 0..{len(indices) - 1} without gaps, "
            f"got {sorted(indices)}")
    wells = []
    for j in range(len(indices)):
        stem = f"problem.well.{j}"
        center = _parse_vec(entries.require(f"{stem}.center"),
                            f"{stem}.center")
        if len(center) != dim:
            raise ConfigError(
                f"{stem}.center: expected {dim} coordinates, "
                f"got {len(center)}")
        depth = _parse_float(entries.require(f"{stem}.depth"),
                             f"{stem}.depth")
        coeff_raw = entries.take(f"{stem}.coeff")
        coeff = 1.0 if coeff_raw is None else _parse_float(
            coeff_raw, f"{stem}.coeff")
        wells.append(WellSpec(center=np.array(center), depth=depth,
                              coeff=coeff))
    return tuple(wells)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text and check every module precondition it can
    violate."""
    entries = _Entries(text)
    dim = _parse_int(entries.require("problem.dim"), "problem.dim")
    if dim not in (1, 2, 3):
        raise ConfigError(f"problem.dim: must be 1, 2, or 3, got {dim}")

    def opt_float(key, default):
        raw = entries.take(key)
        return default if raw is None else _parse_float(raw, key)

    def opt_int(key, default):
        raw = entries.take(key)
        return default if raw is None else _parse_int(raw, key)

    box_lo = _parse_vec(entries.require("grid.lo"), "grid.lo")
    box_hi = _parse_vec(entries.require("grid.hi"), "grid.hi")
    for key, vec in (("grid.lo", box_lo), ("grid.hi", box_hi)):
        if len(vec) != dim:
            raise ConfigError(
                f"{key}: expected {dim} coordinates, got {len(vec)}")
    p, exponent, patch_radius = (
        _parse_float(entries.require(key), key) for key in
        ("problem.p", "problem.exponent", "problem.patch_radius"))
    wells = _collect_wells(entries, dim)
    eps_schedule = _parse_vec(entries.require("schedule.eps"), "schedule.eps")
    background = opt_float("problem.background", None)
    spacing_divisor = opt_float("grid.spacing_divisor", 6.0)
    seed = opt_int("run.seed", 12345)
    out_dir = entries.take("run.output_dir")
    stray = entries.leftovers()
    if stray:
        line, key = stray[0]
        raise ConfigError(f"line {line}: unknown key {key!r}")
    if dim == 3 and p >= 6.0:
        raise ConfigError(
            f"problem.p: {p} is supercritical in dim 3 (needs p < 6)")
    if not p > 2.0:
        raise ConfigError(f"problem.p: need p > 2, got {p}")
    try:
        potential = make_multiwell(wells, exponent=exponent,
                                   patch_radius=patch_radius,
                                   background=background)
    except NlsbumpError as exc:
        raise ConfigError(f"problem wells: {exc}") from exc
    if any(h <= l for l, h in zip(box_lo, box_hi)):
        raise ConfigError("grid box: need hi > lo on every axis")
    if any(e <= 0.0 for e in eps_schedule):
        raise ConfigError("schedule.eps: values must be positive")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ConfigError("schedule.eps: must be strictly decreasing")
    if not spacing_divisor >= 1.0:
        raise ConfigError("grid.spacing_divisor: must be at least 1")
    if seed < 0:
        raise ConfigError("run.seed: must be nonnegative")
    if out_dir == "":
        raise ConfigError("run.output_dir: must be nonempty")
    return ExperimentConfig(
        dim=dim, p=p, potential=potential, box_lo=box_lo, box_hi=box_hi,
        eps_schedule=eps_schedule, spacing_divisor=spacing_divisor,
        seed=seed, output_dir="out" if out_dir is None else out_dir)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: "
                          f"{getattr(exc, 'strerror', exc)}") from exc
    return parse_config(text)


def grid_for(cfg: ExperimentConfig, eps: float) -> TensorGrid:
    """The production grid at one eps: spacing eps / spacing_divisor."""
    h = eps / cfg.spacing_divisor
    counts = [int(round((hi - lo) / h)) + 1
              for lo, hi in zip(cfg.box_lo, cfg.box_hi)]
    return make_grid(lo=list(cfg.box_lo), hi=list(cfg.box_hi),
                     counts=counts)


def problem_at(cfg: ExperimentConfig, eps: float) -> ProblemSpec:
    return make_problem(eps=eps, p=cfg.p, potential=cfg.potential,
                        grid=grid_for(cfg, eps))
