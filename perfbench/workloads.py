"""The benchmark's workloads: fixed lists of `heisencoh` CLI commands.

Each command is the argument list after `python -m heisencoh`, plus the
independent check of its output.  The seed orders the classify commands
within a pass and generates the coefficient files of `solve-torus`; the same
seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from checks import ClassifyCheck, SolveCheck

# (vector, kmax, extra args); rank 1 at the default 192-bit scan.  At K = 1e7
# the _scan.scan_unit walk takes most of each irrational command.
CLASSIFY_RANK1 = [
    ("golden", 10_000_000, []),
    ("e", 10_000_000, []),
    ("liouville", 10_000_000, []),
    # exact rational: range minima over the capped rescue rescan
    ("355/113", 1_000_000, []),
]

# every scan here takes diophantine._scan_general; the first two fail their
# verdict check because of the rank-1 accident floor in rank n
CLASSIFY_GENERAL = [
    ("golden,sqrt2", 100, []),
    ("golden,sqrt2,sqrt3", 20, []),
    ("1/3,2/7", 100, []),
    ("golden,1/3", 100, []),
    ("golden", 2000, ["--prec", "256"]),  # above 192 scan bits rank 1 goes general
]

# (dim, support radius, u, extra args)
SOLVE_TORUS = [
    (2, 32, "golden,sqrt2", []),
    (1, 256, "golden", ["--alpha-list", "0,1"]),
]

NAMES = ("classify-rank1", "classify-general", "solve-torus")


@dataclass
class Command:
    label: str
    args: list            # after `python -m heisencoh`
    check: object         # ClassifyCheck or SolveCheck
    out_file: Path | None = None  # the --out file of solve commands

    def problems(self, stdout: str) -> list:
        if self.out_file is None:
            return self.check(stdout)
        if not self.out_file.is_file():
            return [f"{self.out_file.name} was not written"]
        return self.check(self.out_file.read_text(), stdout)


def write_field(path: Path, dim: int, radius: int, rng: random.Random) -> None:
    """A mean-free field on the full box |k| <= radius: c_k = (x + iy) / (1 + |k|)
    with x, y standard normal, written in the coefficient text format."""
    lines = [f"dim={dim}"]
    for k in itertools.product(range(-radius, radius + 1), repeat=dim):
        if not any(k):
            continue
        w = 1.0 / (1 + max(abs(c) for c in k))
        re, im = rng.gauss(0.0, 1.0) * w, rng.gauss(0.0, 1.0) * w
        lines.append(" ".join(map(str, k)) + f" {re!r} {im!r}")
    path.write_text("\n".join(lines) + "\n")


def build(name: str, seed: int, run_dir: Path) -> list:
    """The commands of one pass of workload `name`, made from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    if name in ("classify-rank1", "classify-general"):
        table = CLASSIFY_RANK1 if name == "classify-rank1" else CLASSIFY_GENERAL
        cmds = [
            Command(
                f"{vector} K={kmax}" + (" " + " ".join(extra) if extra else ""),
                ["classify", "--vector", vector, "--kmax", str(kmax), *extra],
                ClassifyCheck(vector, kmax),
            )
            for vector, kmax, extra in table
        ]
        rng.shuffle(cmds)
        return cmds
    if name == "solve-torus":
        cmds = []
        for dim, radius, u, extra in SOLVE_TORUS:
            g_path = run_dir / f"g_dim{dim}.txt"
            f_path = run_dir / f"f_dim{dim}.txt"
            write_field(g_path, dim, radius, rng)
            cmds.append(
                Command(
                    f"dim={dim} R={radius} u={u}",
                    ["solve", "--g", str(g_path), "--u", u, *extra,
                     "--verify", "--out", str(f_path)],
                    SolveCheck(g_path.read_text(), u),
                    f_path,
                )
            )
        return cmds
    raise ValueError(f"unknown workload {name!r}")
