#!/usr/bin/env python3
"""Corridor ablation experiment: rule-aware tracking vs the plain filter.

Builds a synthetic corridor scenario (compliant agents under heavy
measurement noise), sweeps trust ratios, and prints the relative MAE per
ratio. With --mode incompliant the agents actively avoid the corridor and
the sweep should show no ratio beating the baseline.
"""

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cstrack.demo import CORRIDOR_STARTS, corridor_scenario  # noqa: E402
from cstrack.evalbench import load_scenario, run_ablation  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=tuple(CORRIDOR_STARTS), default="compliant")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-seeds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--particles", type=int, default=2000)
    parser.add_argument("--out-dir", default=None,
                        help="write report.json and runs.csv here")
    args = parser.parse_args()

    spec = corridor_scenario(args.mode, seed=args.seed, n_seeds=args.n_seeds, agents=3,
                             steps=args.steps, particles=args.particles)
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = pathlib.Path(tmp) / "scenario.json"
        spec_path.write_text(json.dumps(spec))
        scenario = load_scenario(spec_path)
    report = run_ablation(scenario)

    print(f"scenario: {scenario.name}, {len(scenario.truth_tracks)} agents, "
          f"{args.n_seeds} seeds, {args.particles} particles")
    print(f"{'tau':>6} {'median rel MAE':>15} {'mean rel MAE':>13} {'runs':>5}")
    for tau, stats in report.aggregate().items():
        med = stats["relative_mae_median"]
        mean = stats["relative_mae_mean"]
        print(f"{tau:>6} {med:>15.3f} {mean:>13.3f} {stats['runs']:>5}")

    if args.out_dir:
        out = pathlib.Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.save(out / "report.json")
        report.write_csv(out / "runs.csv")
        print(f"wrote {out / 'report.json'} and {out / 'runs.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
