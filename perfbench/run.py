#!/usr/bin/env python3
"""cstrack benchmark: three CLI workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload harbor-build --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program under test is imported from
its src/ directory. One process, one caller: each subcommand is a
`cstrack.cli.main([...])` call that starts when the previous one returns
(a closed loop). The run generates its inputs from --seed, sets up
SETUP_REPEATS times, then repeats the workload's subcommand pass until
--seconds have elapsed, checking every output.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, including the tracing
overhead per subcommand. A human-readable report goes to stdout first;
the last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. Work files, the full result and the spans go to
.perfbench-work/ in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread (at most nproc): the pipeline's matrices are small,
# and a single thread keeps timings steady on a shared machine. This must
# happen before numpy is imported.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3

# End-to-end metrics of every workload (the contract in BENCHMARK.json).
END_TO_END = (("setup_s", "s"), ("cycle_s", "s"), ("op_geomean_s", "s"),
              ("peak_rss_mb", "MB"))

# Subcommands in op_geomean_s. Ingest is too short to time on its own and
# has only per-layer numbers.
GEOMEAN_COMMANDS = ("build-starmap", "field", "calibrate", "track", "bench")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("harbor-build", "filter-sweeps", "rules-direct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    return parser.parse_args(argv)


def git_sha(root: pathlib.Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


class SpeedProbe:
    """A fixed reference kernel, timed before every set-up and operation.

    The machine this benchmark runs on is shared: for tens of seconds at a
    time everything can run up to twice as slow. The kernel mixes the
    three kinds of work the pipeline does (interpreter loops, numpy calls on
    particle-sized arrays, passes over arrays larger than the caches), so
    its time tracks the machine's speed. Every timed interval (a set-up or
    an operation) lies between two probes, and its end-to-end time is
    reported as wall time x NOMINAL_S / (mean of those two kernel times):
    seconds at a fixed machine speed.
    """

    NOMINAL_S = 0.06

    def __init__(self):
        self.times: list[float] = []

    def measure(self) -> None:
        import numpy as np

        # Allocated per call and freed after, so the probe adds nothing to
        # the peak resident memory of the run.
        small = np.full(2000, 1.5)
        large = np.full((1500, 2000), 1.5)
        out = np.zeros_like(large)
        started = time.perf_counter()
        total = 0
        for i in range(450_000):
            total += i * i
        for _ in range(3750):
            np.sqrt(small * 0.5 + 1.0).sum()
        for _ in range(2):
            np.multiply(large, 0.5, out=out)
            out.sum()
        self.times.append(time.perf_counter() - started)

    def scale(self, k: int) -> float:
        """Factor for the k-th timed interval, between probes k and k + 1."""
        return 2.0 * self.NOMINAL_S / (self.times[k] + self.times[k + 1])


class Runner:
    """Runs operations, times them, checks outputs and compares digests."""

    def __init__(self, workload, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.cycles = 0

    def run_cycle(self, tracer=None) -> None:
        for op in self.workload.cycle():
            self.run_op(op, tracer)
        self.cycles += 1

    def run_op(self, op, tracer) -> None:
        from cstrack import cli
        from workloads import CheckError, digest

        code, error, info = None, None, {}
        self.probe.measure()
        probe = len(self.probe.times) - 1
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = cli.main(op.argv)
                else:
                    tracer.op = len(self.samples)
                    try:
                        code = tracer.call(f"cli.{op.command}", cli.main, (op.argv,), {})
                    finally:
                        tracer.op = None
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the operation raised: count it, keep benchmarking
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - started
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                info = op.check() or {}
                out = digest(op.outputs)
            except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"output check: {exc}"
            else:
                if self.digests.setdefault(op.label, out) != out:
                    error = "output differs from the first run of this operation"
        if error is not None:
            self.failures.append(f"{op.label} (pass {self.cycles}): {error}")
            print(f"FAILED {op.label}: {error}", file=sys.stderr)
        self.samples.append({"label": op.label, "command": op.command, "cycle": self.cycles,
                             "traced": tracer is not None, "seconds": seconds,
                             "steps": op.steps, "probe": probe, "ok": error is None, **info})

    def times(self, command: str, traced: bool = False, scaled: bool = False) -> list[float]:
        return [s["seconds"] * (self.probe.scale(s["probe"]) if scaled else 1.0)
                for s in self.samples if s["command"] == command and s["traced"] == traced]

    def values(self, command: str, key: str) -> list[float]:
        return [s[key] for s in self.samples
                if s["command"] == command and not s["traced"] and key in s]

    def rates(self, command: str) -> list[float]:
        return [s["steps"] / s["seconds"] for s in self.samples
                if s["command"] == command and not s["traced"]]

    def scaled_cycle_times(self) -> list[float]:
        totals: dict[int, float] = {}
        for s in self.samples:
            if not s["traced"]:
                totals[s["cycle"]] = (totals.get(s["cycle"], 0.0)
                                      + s["seconds"] * self.probe.scale(s["probe"]))
        return list(totals.values())


def end_to_end(runner: Runner, setup_times: list[float], peak_rss_mb: float) -> dict:
    """The BENCHMARK.json metrics; times are scaled to the probe's nominal speed."""
    medians = [statistics.median(runner.times(c, scaled=True)) for c in GEOMEAN_COMMANDS
               if runner.times(c)]
    probe = runner.probe
    return {
        "setup_s": statistics.median(t * probe.scale(i) for i, t in enumerate(setup_times)),
        "cycle_s": statistics.median(runner.scaled_cycle_times()),
        "op_geomean_s": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "peak_rss_mb": peak_rss_mb,
    }


def named_metrics(runner: Runner, setup_times, peak_rss_mb, attempted, failed) -> list:
    """Per-subcommand metrics of the workload: (name, value, unit, samples)."""
    rows = [("setup_s", setup_times, "s")]
    for name, values, unit in (
        ("build_starmap_s", runner.times("build-starmap"), "s"),
        ("field_s", runner.times("field"), "s"),
        ("calibrate_steps_per_s", runner.rates("calibrate"), "filter steps/s"),
        ("track_steps_per_s", runner.rates("track"), "filter steps/s"),
        ("bench_steps_per_s", runner.rates("bench"), "filter steps/s"),
        ("track_mae_m", runner.values("track", "mae_m"), "m"),
        ("relative_mae", runner.values("bench", "relative_mae"), "ratio"),
    ):
        if values:
            rows.append((name, values, unit))
    out = [(name, statistics.median(v), unit, len(v)) for name, v, unit in rows]
    out.append(("peak_rss_mb", peak_rss_mb, "MB", 1))
    out.append(("error_rate", failed / attempted, "failed ops / attempted ops", attempted))
    return out


def traced_metrics(runner: Runner, tracer) -> tuple[dict, list[str]]:
    import spans

    overhead = {}
    for command in spans.CLI_COMMANDS:
        traced, plain = runner.times(command, traced=True), runner.times(command)
        if traced and plain:
            overhead[command] = statistics.median(traced) - statistics.median(plain)
    metrics = spans.per_layer(tracer, runner.cycles // 2, overhead)
    notes = [f"{command}: traced minus untraced wall time {secs * 1e3:+.1f} ms"
             for command, secs in overhead.items()]
    notes += spans.largest_shares(tracer)
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cstrack" / "__init__.py").is_file():
        print(f"error: no cstrack sources under {SRC}; run from a cstrack checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cstrack

    if pathlib.Path(cstrack.__file__).resolve().parent != (SRC / "cstrack").resolve():
        print(f"error: imported cstrack from {cstrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](size)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe = SpeedProbe()
    setup_times = []
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        directory.mkdir()
        probe.measure()
        started = time.perf_counter()
        workload.setup(directory, args.seed)
        setup_times.append(time.perf_counter() - started)

    runner = Runner(workload, probe)
    tracer = spans.Tracer() if args.trace else None
    # Passes run back to back until less than half a pass of the run is
    # left, so a run lasts --seconds give or take half a pass.
    deadline = time.perf_counter() + args.seconds
    pass_times = []
    while True:
        started = time.perf_counter()
        if tracer is not None and runner.cycles % 2 == 1:
            with spans.installed(tracer):
                runner.run_cycle(tracer)
        else:
            runner.run_cycle()
        pass_times.append(time.perf_counter() - started)
        left = deadline - time.perf_counter()
        if left < statistics.median(pass_times) / 2 and (tracer is None or runner.cycles >= 2):
            break
    probe.measure()  # closes the last operation's interval

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = len(runner.samples), len(runner.failures)
    named = named_metrics(runner, setup_times, peak_rss_mb, attempted, failed)
    env = environment()
    print(f"cstrack benchmark: workload {args.workload}, seed {args.seed}, "
          f"{runner.cycles} passes in {args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"machine speed: reference kernel median {statistics.median(probe.times) * 1e3:.1f} ms "
          f"over {len(probe.times)} probes, nominal {probe.NOMINAL_S * 1e3:.0f} ms; "
          f"wall times below are raw")
    for name, value, unit, n in named:
        print(f"  {name:<24} {value:12.6g} {unit:<28} n={n}")
    for label, value in sorted(runner.digests.items()):
        print(f"  digest {label:<20} {value[:16]}")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_times": setup_times,
              "probe_times": probe.times,
              "named_metrics": [dict(zip(("name", "value", "unit", "samples"), row))
                                for row in named],
              "samples": runner.samples, "digests": runner.digests,
              "failures": runner.failures}
    if tracer is None:
        values = end_to_end(runner, setup_times, peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics, notes = traced_metrics(runner, tracer)
        for note in notes:
            print(f"  trace: {note}")
        if tracer.missing:
            print("  trace: missing sources (reported as 0): " + ", ".join(sorted(tracer.missing)))
        (work / "spans.json").write_text(json.dumps(tracer.to_json()))
        result["trace_notes"] = notes
    result["metrics"] = metrics
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"  full result: {(work / 'result.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
