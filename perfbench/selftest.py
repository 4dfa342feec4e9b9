#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks that:
the last line of stdout is the result object with exactly the metrics and
units BENCHMARK.json lists; every output check passed; the full result
holds each per-subcommand metric of the workload with its unit; and that
the benchmark fails without printing a result when the checkout holds no
program sources. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"

STEPS = "filter steps/s"
# Per-subcommand metrics each workload reports, with their units.
NAMED = {
    "harbor-build": {"build_starmap_s": "s", "field_s": "s"},
    "filter-sweeps": {"calibrate_steps_per_s": STEPS, "track_steps_per_s": STEPS,
                      "bench_steps_per_s": STEPS, "track_mae_m": "m", "relative_mae": "ratio"},
    "rules-direct": {"field_s": "s", "track_steps_per_s": STEPS, "track_mae_m": "m"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "failed ops / attempted ops"}


def run(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(NAMED), "workload names")
    for workload in NAMED:
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            where = f"{workload} trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where} result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where} failed operations: {proc.stderr[-800:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == listed[trace], f"{where} metrics differ from BENCHMARK.json: "
                                        f"{sorted(set(got) ^ set(listed[trace]))}")
            full = json.loads((WORK / f"{workload}-s1-t{trace}-tiny" / "result.json").read_text())
            named = {m["name"]: m["unit"] for m in full["named_metrics"]}
            check(named == {**COMMON, **NAMED[workload]}, f"{where} named metrics {named}")
            print(f"ok  {where}: {len(got)} metrics, {result['attempted']} operations")

    # Without the program's sources the benchmark must fail and print no result.
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "harbor-build", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare checkout exited {proc.returncode} with output {proc.stdout[-200:]!r}")
    print("ok  a checkout without sources fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
