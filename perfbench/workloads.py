"""The benchmark's workloads: the configs a seed generates and the CLI
commands each pass runs on them.

A workload seed only sets ``run.seed`` (the Lanczos start vector of the
coercivity estimate) in every generated config; the program receives
nothing but the config files and the command lines below.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

DEFAULT_SEED = 12345

# Program defaults the generated configs keep; the output check reads the
# residual-type columns against these contracts.
NEWTON_TOL = 1e-10
MAX_NEWTON = 40
UNIQUENESS_RTOL = 1e-8

CONFIG_NAME = "workload.cfg"
OUT_DIR = "out"

_TWO_WELL_2D = """\
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
grid.spacing_divisor = 6
schedule.eps = 0.4 0.3 0.25 0.2
"""

_TWO_WELL_1D = """\
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
grid.spacing_divisor = 6
schedule.eps = 0.4 0.3 0.25 0.2 0.15 0.1
"""


@dataclass(frozen=True)
class Command:
    """One CLI process: a label for reports and the arguments after
    ``python3 -m nlsbump.cli``."""
    label: str
    kind: str
    argv: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: Tuple[Command, ...]

    def config_text(self, seed: int) -> str:
        return (self.config + f"run.seed = {seed}\n"
                + f"run.output_dir = {OUT_DIR}\n")


def _sweep() -> Tuple[Command, ...]:
    return tuple(Command(kind, kind, (kind, "--config", CONFIG_NAME,
                                      "--jobs", "1"))
                 for kind in ("solve", "analyze", "uniqueness"))


def _groundstate(va: str, p: str, dim: str) -> Command:
    return Command(f"groundstate-va{va}-p{p}-dim{dim}", "groundstate",
                   ("groundstate", "--va", va, "--p", p, "--dim", dim,
                    "--out", OUT_DIR))


WORKLOADS: Dict[str, Workload] = {
    "double-well-2d": Workload(
        name="double-well-2d",
        config=_TWO_WELL_2D,
        commands=_sweep()),
    "profiles-1d": Workload(
        name="profiles-1d",
        config=_TWO_WELL_1D,
        commands=(_groundstate("1", "4", "1"),
                  _groundstate("1", "4", "2"),
                  _groundstate("1", "4", "3"),
                  _groundstate("1", "5.5", "2"),
                  _groundstate("1", "5", "3")) + _sweep()),
}
