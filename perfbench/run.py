"""End-to-end benchmark of the `heisencoh` CLI, with a traced per-stage run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from its `src`
through PYTHONPATH, with no install step.  Each command is a fresh
`python -m heisencoh ...` process, one at a time (a closed loop with one
client).  A run makes as many whole passes through the workload's command
list as fit in S seconds, and at least one; since every pass is whole, the
failed share of attempted commands is the same in every run.  Every output
is checked by `checks.py`.

--trace 0 prints the end-to-end metrics: setup_s (median wall time of a fresh
`python -c "import heisencoh.cli"`, sampled after every command), wall_s
(median wall time of one pass) and peak_rss_mb (median over passes of the
largest max-RSS of any command in the pass).  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, a per-command breakdown
and the tracing overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import KNOWN_FAULT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_CHILD = HERE / "trace_child.py"
OUT = HERE / "out"

SETUP_ARGS = ["-c", "import heisencoh.cli"]
WARMUP_IMPORTS = 2
# Traced wall time that neither the timed import nor cli.main covers:
# interpreter start, exit and writing the spans (0.06-0.23 s per command on
# the reference machine).  More means work escaped the spans.
START_EXIT_LIMIT_S = 0.5

# stage span -> per-layer metric of its self time (default: span name + "_s")
SELF_METRIC = {
    "cli": "cli.self_s",
    "classify": "classify.self_s",
    "coboundary.solve": "coboundary.solve_self_s",
}
STAGE_SPANS = (
    "cli", "precision.parse", "scan.unit", "scan.general", "refine.minima",
    "refine.rescue", "classify", "coboundary.divisor", "coboundary.solve",
    "coboundary.residual", "coboundary.norms", "coefficients.io",
)
COUNTS = (
    "scan.unit_points", "scan.general_points", "refine.minima_calls",
    "refine.rescue_calls", "refine.rescue_points", "classify.witnesses",
    "coboundary.divisor_calls", "coboundary.residual_calls",
)


def child_env():
    """The caller's environment with PYTHONPATH set to the checkout's src.

    Bytecode caching and buffered output are restored, as users run, so the
    figures do not depend on whether the caller set them off."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def spawn(argv, env, stdout_path, stderr_path):
    """Run argv to completion; (wall seconds, max RSS in MiB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """One benchmark run: passes over a workload's commands, checked."""

    def __init__(self, workload, seed, run_dir):
        self.run_dir = run_dir
        self.env = child_env()
        self.commands = workloads.build(workload, seed, run_dir)
        self.attempted = 0
        self.failed = 0
        self.unexpected = []   # problems other than the known fault
        self.reported = set()
        self._verdicts = {}    # (command, output bytes) -> problems

    def _paths(self, i):
        return self.run_dir / f"cmd{i}.stdout", self.run_dir / f"cmd{i}.stderr"

    def setup_sample(self):
        out, err = self.run_dir / "setup.stdout", self.run_dir / "setup.stderr"
        wall, _, rc = spawn([sys.executable, *SETUP_ARGS], self.env, out, err)
        if rc != 0:
            raise SystemExit(f"import heisencoh.cli failed:\n{err.read_text()}")
        return wall

    def _check(self, i, cmd, rc, out_path, err_path):
        stdout = out_path.read_bytes()
        emitted = b""
        if cmd.out_file and cmd.out_file.is_file():
            emitted = cmd.out_file.read_bytes()
        key = (i, rc, stdout, emitted)
        problems = self._verdicts.get(key)
        if problems is None:
            if rc != 0:
                problems = [f"exit code {rc}: {err_path.read_text()[-400:]}"]
            else:
                problems = cmd.problems(stdout.decode())
            self._verdicts[key] = problems
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                if (cmd.label, p) not in self.reported:
                    self.reported.add((cmd.label, p))
                    print(f"FAILED [{cmd.label}] {p}")
                if not p.startswith(KNOWN_FAULT):
                    self.unexpected.append(p)

    def plain_pass(self, setup_samples):
        """Untraced pass: (per-command walls, peak RSS); one setup sample after
        each command."""
        walls = []
        rss = 0.0
        for i, cmd in enumerate(self.commands):
            if cmd.out_file:
                cmd.out_file.unlink(missing_ok=True)
            out_path, err_path = self._paths(i)
            t, m, rc = spawn(
                [sys.executable, "-m", "heisencoh", *cmd.args], self.env, out_path, err_path
            )
            walls.append(t)
            rss = max(rss, m)
            self._check(i, cmd, rc, out_path, err_path)
            if setup_samples is not None:
                setup_samples.append(self.setup_sample())
        return walls, rss

    def traced_pass(self):
        """Traced pass: (wall, per-command rows)."""
        wall = 0.0
        rows = []
        for i, cmd in enumerate(self.commands):
            if cmd.out_file:
                cmd.out_file.unlink(missing_ok=True)
            out_path, err_path = self._paths(i)
            spans_path = self.run_dir / f"cmd{i}.spans.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, "-X", "importtime", str(TRACE_CHILD),
                    str(spans_path), *cmd.args]
            t, _, rc = spawn(argv, self.env, out_path, err_path)
            wall += t
            self._check(i, cmd, rc, out_path, err_path)
            if spans_path.is_file():
                row = command_row(cmd.label, t, spans_path, err_path)
                if not 0.0 <= row["start_exit_s"] <= START_EXIT_LIMIT_S:
                    problem = (f"{row['start_exit_s']:.3f} s of the traced command lie "
                               f"outside its import and cli.main")
                    print(f"FAILED [{cmd.label}] {problem}")
                    self.unexpected.append(problem)
                rows.append(row)
        return wall, rows


def self_times(spans):
    """Self time per span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), c in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - c
    return out


def import_times(stderr_text):
    """Cumulative -X importtime seconds of the numpy and mpmath packages."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[2].strip()
        if name in ("numpy", "mpmath") and name not in out and parts[1].strip().isdigit():
            out[name] = int(parts[1]) * 1e-6
    return out


def command_row(label, wall, spans_path, err_path):
    doc = json.loads(spans_path.read_text())
    selfs = self_times(doc["spans"])
    imports = import_times(err_path.read_text(errors="replace"))
    main_s = sum(end - start for _, start, end, parent in doc["spans"] if parent < 0)
    return {
        "label": label,
        "wall_s": wall,
        "import_s": doc["import_s"],
        "numpy_s": imports.get("numpy", 0.0),
        "mpmath_s": imports.get("mpmath", 0.0),
        "main_s": main_s,
        "start_exit_s": wall - doc["import_s"] - main_s,
        "self": selfs,
        "counts": doc["counts"],
    }


def layer_metrics(pass_rows):
    """Per-layer values of one traced pass, summed over its commands."""
    total = {SELF_METRIC.get(s, s + "_s"): 0.0 for s in STAGE_SPANS}
    counts = dict.fromkeys(COUNTS + ("coboundary.modes",), 0)
    for row in pass_rows:
        for span, v in row["self"].items():
            total[SELF_METRIC.get(span, span + "_s")] += v
        for key, v in row["counts"].items():
            counts[key] += v
    for key in COUNTS:
        total[key] = counts[key]
    for layer in ("unit", "general"):
        t = total[f"scan.{layer}_s"]
        total[f"scan.{layer}_points_per_s"] = total[f"scan.{layer}_points"] / t if t else 0.0
    modes = counts["coboundary.modes"]
    total["coboundary.divisor_calls_per_mode"] = (
        counts["coboundary.divisor_calls"] / modes if modes else 0.0
    )
    return total


def print_breakdown(pass_rows):
    print("per-command breakdown of the last traced pass (seconds):")
    for row in pass_rows:
        stages = ", ".join(
            f"{SELF_METRIC.get(s, s + '_s')}={v:.4f}"
            for s, v in sorted(row["self"].items(), key=lambda kv: -kv[1])
            if v >= 5e-4
        )
        print(
            f"  [{row['label']}] wall={row['wall_s']:.3f} import={row['import_s']:.3f} "
            f"command={row['main_s']:.3f} start/exit={row['start_exit_s']:.3f}"
        )
        print(f"      {stages}")
        print(f"      counts: {json.dumps(row['counts'], sort_keys=True)}")


def fits(start, done, seconds):
    """Whether one more pass, as long as the mean pass so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "heisencoh" / "__init__.py").is_file():
        print(f"no heisencoh source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    run_dir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, run_dir)
    for _ in range(WARMUP_IMPORTS):  # byte-compile and page in the imports
        run.setup_sample()

    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    start = time.perf_counter()
    if not args.trace:
        setups, passes, rsses = [], [], []
        while not passes or fits(start, len(passes), args.seconds):
            cmd_walls, rss = run.plain_pass(setups)
            passes.append(cmd_walls)
            rsses.append(rss)
        walls = [sum(p) for p in passes]
        raw.update(setup_s=setups, command_walls=passes, peak_rss_mb=rsses)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(rsses), "MiB"),
        }
        print(f"passes={len(walls)} wall_s={[round(w, 3) for w in walls]} "
              f"setup samples={len(setups)}")
    else:
        plain, traced, layers, all_rows = [], [], [], []
        while not traced or fits(start, len(traced), args.seconds):
            plain.append(sum(run.plain_pass(None)[0]))
            wall, rows = run.traced_pass()
            traced.append(wall)
            layers.append(layer_metrics(rows))
            all_rows += rows
        print_breakdown(rows)
        metrics = {
            name: (statistics.median(p[name] for p in layers), unit_of(name))
            for name in layers[0]
        }
        for key, field in (("import.heisencoh_s", "import_s"),
                           ("import.numpy_s", "numpy_s"),
                           ("import.mpmath_s", "mpmath_s")):
            metrics[key] = (statistics.median(r[field] for r in all_rows), "s")
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"passes={len(traced)} untraced wall_s={[round(w, 3) for w in plain]} "
              f"traced wall_s={[round(w, 3) for w in traced]} overhead_s={overhead:.4f}")
        raw.update(untraced_wall_s=plain, traced_wall_s=traced, layers=layers)

    correct = not run.unexpected
    (run_dir / "run.json").write_text(json.dumps(raw, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
