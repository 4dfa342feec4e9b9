#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload filter-sweeps --seeds 1-10
    python3 perfbench/repeat.py --workload rules-direct --seeds 11,12,13 --out runs.json

Runs are sequential, one untraced process each, with the run length of
BENCHMARK.json. For every metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread, the quartile distance as a
share of the median, which is what a metric's bound in BENCHMARK.json is
checked against. A run that reports correct=false or exits non-zero stops
the sweep.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="write the per-run results and summary as JSON")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("give at least two seeds")

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(f"{name}={m['value']:.5g}"
                                            for name, m in result["metrics"].items()),
              flush=True)

    summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": spec["run_seconds"], "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
