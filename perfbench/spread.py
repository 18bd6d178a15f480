"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Each run lasts BENCHMARK.json's run_seconds and prints the end-to-end
metrics.  For each metric: the median of the per-run values, the first and
third quartiles (statistics.quantiles, n=4) and the interquartile distance
as a share of the median, which is the spread BENCHMARK.json's bounds are
set against.  Also prints attempted and failed over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    values = {}
    attempted = failed = 0
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            raise SystemExit(f"seed {seed}: incorrect output")
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        summary = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {summary}",
              flush=True)
    print(f"{args.workload}: attempted={attempted} failed={failed}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"iqr/median={spread:.4f} n={len(vals)}")


if __name__ == "__main__":
    main()
