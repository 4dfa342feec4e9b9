"""The three benchmark workloads: their inputs, subcommands and output checks.

Each workload generates its inputs from the seed in `setup`, then names
the CLI subcommands of one closed-loop pass in `cycle`. An operation is one
`cstrack.cli.main([...])` call followed by a check of what it wrote; the
check runs outside the timed call.

* harbor-build: build-starmap then field on the demo harbor. Stresses
  relations/starmap (the depth layer dominates); the filter never runs.
* filter-sweeps: ingest, calibrate over 11 trust ratios, track with the
  calibrated table, and the corridor bench. Stresses particlefilter, trust
  and evalbench; compliance is a field lookup, so exact inference is
  bypassed.
* rules-direct: field, then track in direct mode with a k = 12 program.
  Stresses constitution inference; no starmap is built in the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
from cstrack import cli
from cstrack.constitution import ConstitutionEvaluator, ConstitutionField, environment_atoms, parse
from cstrack.demo import write_demo
from cstrack.ingest import load_tracks
from cstrack.relations import RelationKind
from cstrack.starmap import load_starmap
from cstrack.trust import TrustTable

TAU_GRID = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
HARBOR_BBOX = "--bbox=-2000,-2000,2000,2000"
HARBOR_ORIGIN = f"--origin={inputs.HARBOR_ORIGIN[0]},{inputs.HARBOR_ORIGIN[1]}"
AIS_DT_S = 30.0
AIS_NOISE_M = 25.0
DIRECT_TAU = "0.8"
FIELD_TOLERANCE = 1e-9
CHECKED_NODES = 32


class CheckError(Exception):
    """An operation's output failed its check."""


@dataclass(frozen=True)
class Size:
    harbor_grid: int  # build-starmap rows = cols in harbor-build
    harbor_samples: int
    field_repeats: int  # field calls per harbor-build pass
    read_grid: int  # starmaps built in set-up for the workloads that read one
    read_samples: int
    history_vessels: int  # calibrate input
    live_vessels: int  # track input
    sweep_steps: int  # filter steps per filter-sweeps track
    bench_seeds: int
    bench_agents: int
    bench_steps: int
    direct_vessels: int
    direct_steps: int
    particles: int


FULL = Size(harbor_grid=100, harbor_samples=100, field_repeats=3,
            read_grid=100, read_samples=10,
            history_vessels=8, live_vessels=32, sweep_steps=40,
            bench_seeds=4, bench_agents=2, bench_steps=40,
            direct_vessels=3, direct_steps=9, particles=2000)
TINY = Size(harbor_grid=12, harbor_samples=4, field_repeats=1,
            read_grid=12, read_samples=3,
            history_vessels=2, live_vessels=2, sweep_steps=5,
            bench_seeds=1, bench_agents=1, bench_steps=5,
            direct_vessels=1, direct_steps=3, particles=200)


@dataclass
class Op:
    """One subcommand call: label, argv, filter steps it runs, output check."""

    label: str
    argv: list[str]
    outputs: list[pathlib.Path]
    check: Callable[[], dict | None]
    steps: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


def digest(paths) -> str:
    """SHA-256 over the bytes of an operation's output files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(pathlib.Path(path).read_bytes())
    return h.hexdigest()


def _needed_relations(program_text: str) -> set[tuple[str, str]]:
    return {(RelationKind(p).value, t) for p, _, t in environment_atoms(parse(program_text))}


def check_starmap(path, program_text: str, grid: int, samples: int) -> None:
    layers, _ = load_starmap(path)
    for layer in layers:
        try:
            layer.validate()
        except Exception as exc:
            raise CheckError(f"layer {layer.key} fails validate(): {exc}") from exc
        if (layer.grid.rows, layer.grid.cols) != (grid, grid) or layer.sample_count != samples:
            raise CheckError(f"layer {layer.key} has the wrong grid or sample count")
    missing = _needed_relations(program_text) - {layer.key for layer in layers}
    if missing:
        raise CheckError(f"starmap lacks layers {sorted(missing)} the program uses")


def check_field(path, grid: int) -> ConstitutionField:
    f = ConstitutionField.load(path)
    if f.values.shape != (grid, grid):
        raise CheckError(f"field has shape {f.values.shape}")
    if not np.isfinite(f.values).all():
        raise CheckError("field has non-finite values")
    if ((f.values < 0.0) | (f.values > 1.0)).any():
        raise CheckError("field values outside [0, 1]")
    return f


def _run(argv: list[str]) -> None:
    """A set-up call of the CLI; set-up failures end the benchmark."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command failed with exit code {code}: {argv}")


class Workload:
    name = ""

    def __init__(self, size: Size):
        self.size = size

    def setup(self, directory: pathlib.Path, seed: int) -> None:
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    # -- shared pieces --

    def _vessels(self, rng, directory, name, count, steps, first_mmsi):
        vessels = inputs.channel_vessels(rng, count, steps, AIS_DT_S, first_mmsi)
        csv_path = directory / f"{name}.csv"
        inputs.write_ais_csv(csv_path, vessels, rng, AIS_NOISE_M)
        return vessels, csv_path

    def _ingest(self, csv_path, out, vessels) -> Op:
        def check():
            tracks, _ = load_tracks(out)
            if len(tracks) != len(vessels):
                raise CheckError(f"ingest kept {len(tracks)} of {len(vessels)} tracks")
            for track, vessel in zip(tracks, vessels):
                if track.dt != AIS_DT_S or track.size != len(vessel.truth):
                    raise CheckError(f"track {track.vessel_id} was resampled wrongly")

        return Op(f"ingest:{csv_path.stem}",
                  ["ingest", "--csv", str(csv_path), "--out", str(out),
                   "--dt", str(AIS_DT_S), HARBOR_ORIGIN],
                  [out], check)

    def _track(self, tracks_path, vessels, extra: list[str], directory) -> Op:
        logs = directory / "steps.jsonl"
        summary = directory / "summary.json"
        truth = {v.mmsi: v for v in vessels}
        steps = sum(len(v.truth) - 1 for v in vessels)

        def check():
            rows = [json.loads(line) for line in logs.read_text().splitlines()]
            per_vessel: dict[str, int] = {}
            errors = []
            for row in rows:
                v = truth[row["vessel_id"]]
                k = int(round((row["t"] - v.t0) / v.dt))
                per_vessel[row["vessel_id"]] = per_vessel.get(row["vessel_id"], 0) + 1
                errors.append(math.dist(row["estimate"]["p"], v.truth[k]))
            want = {m: len(v.truth) - 1 for m, v in truth.items()}
            if per_vessel != want:
                raise CheckError(f"step log rows per track {per_vessel} != steps {want}")
            doc = json.loads(summary.read_text())
            if [t["steps"] for t in doc["tracks"]] != [want[t["vessel_id"]] for t in doc["tracks"]]:
                raise CheckError("track summary disagrees with the step counts")
            return {"mae_m": float(np.mean(errors))}

        return Op("track",
                  ["track", "--tracks", str(tracks_path), *extra, "--seed", str(self.seed),
                   "--particles", str(self.size.particles),
                   "--out-logs", str(logs), "--out-summary", str(summary)],
                  [logs, summary], check, steps=steps)


class HarborBuild(Workload):
    name = "harbor-build"

    def setup(self, directory, seed):
        self.seed = seed
        self.dir = directory
        self.paths = write_demo(directory)
        self.program = self.paths["constitution"].read_text()
        warm = directory / "warm_starmap.json"
        _run(self._build_argv(warm, grid=25, samples=10))
        _run(["field", "--constitution", str(self.paths["constitution"]),
              "--starmap", str(warm), "--out", str(directory / "warm_field.json")])

    def _build_argv(self, out, grid, samples):
        p = self.paths
        return ["build-starmap", "--map", str(p["map"]), "--perturb", str(p["perturbations"]),
                "--constitution", str(p["constitution"]), HARBOR_BBOX,
                "--rows", str(grid), "--cols", str(grid), "--samples", str(samples),
                "--seed", str(self.seed), "--out", str(out)]

    def cycle(self):
        s = self.size
        starmap = self.dir / "starmap.json"
        field_out = self.dir / "field.json"

        def check_build():
            check_starmap(starmap, self.program, s.harbor_grid, s.harbor_samples)

        def check():
            check_field(field_out, s.harbor_grid)

        build = Op("build-starmap", self._build_argv(starmap, s.harbor_grid, s.harbor_samples),
                   [starmap], check_build)
        fld = Op("field", ["field", "--constitution", str(self.paths["constitution"]),
                           "--starmap", str(starmap), "--out", str(field_out)],
                 [field_out], check)
        return [build] + [fld] * s.field_repeats


class FilterSweeps(Workload):
    name = "filter-sweeps"

    def setup(self, directory, seed):
        s = self.size
        self.seed = seed
        self.dir = directory
        rngs = [np.random.default_rng(q) for q in np.random.SeedSequence(seed).spawn(2)]
        self.paths = write_demo(directory)
        self.history, self.history_csv = self._vessels(
            rngs[0], directory, "history", s.history_vessels, s.sweep_steps, 367_100_000)
        self.live, self.live_csv = self._vessels(
            rngs[1], directory, "live", s.live_vessels, s.sweep_steps, 367_200_000)
        self.scenario = directory / "scenario.json"
        self.scenario.write_text(json.dumps(inputs.corridor_scenario(
            seed, s.bench_seeds, s.bench_agents, s.bench_steps, s.particles)))
        self.starmap = directory / "starmap.json"
        _run(["build-starmap", "--map", str(self.paths["map"]),
              "--perturb", str(self.paths["perturbations"]),
              "--constitution", str(self.paths["constitution"]), HARBOR_BBOX,
              "--rows", str(s.read_grid), "--cols", str(s.read_grid),
              "--samples", str(s.read_samples), "--seed", str(seed),
              "--out", str(self.starmap)])
        # Warm-up: one pass of every subcommand at a small size.
        warm = directory / "warm"
        warm.mkdir()
        tracks = warm / "tracks.json"
        _run(["ingest", "--csv", str(self.history_csv), "--out", str(tracks),
              "--dt", str(AIS_DT_S), HARBOR_ORIGIN])
        common = ["--tracks", str(tracks), "--constitution", str(self.paths["constitution"]),
                  "--starmap", str(self.starmap), "--particles", "200"]
        _run(["calibrate", *common, "--tau-grid", "0,1",
              "--out-table", str(warm / "trust.json"), "--out-report", str(warm / "cal.json")])
        _run(["track", *common, "--tau", "0.5", "--out-logs", str(warm / "steps.jsonl"),
              "--out-summary", str(warm / "summary.json")])
        _run(["bench", "--scenario", str(self.scenario), "--out-dir", str(warm / "bench"),
              "--n-seeds", "1", "--taus", "1"])

    def cycle(self):
        s = self.size
        d = self.dir
        history_tracks = d / "history_tracks.json"
        live_tracks = d / "live_tracks.json"
        table, report = d / "trust.json", d / "calibration.json"
        grid = [float(t) for t in TAU_GRID.split(",")]

        def check_calibrate():
            trust = TrustTable.load(table)
            taus = [tau for _, tau in trust.entries]
            if not taus or any(t not in grid for t in taus):
                raise CheckError(f"trust table taus {taus} are not all from the grid")
            if len(json.loads(report.read_text())["buckets"]) != len(taus):
                raise CheckError("calibration report and trust table disagree")

        bench_dir = d / "bench"
        runs = s.bench_seeds * s.bench_agents

        def check_bench():
            doc = json.loads((bench_dir / "report.json").read_text())
            if len(doc["per_run"]) != runs * 5:
                raise CheckError(f"bench report has {len(doc['per_run'])} rows")
            rel = doc["aggregate"]["1.0"]["relative_mae_median"]
            if rel is None or not math.isfinite(rel):
                raise CheckError("bench has no relative MAE at tau = 1")
            return {"relative_mae": rel}

        common = ["--constitution", str(self.paths["constitution"]),
                  "--starmap", str(self.starmap)]
        return [
            self._ingest(self.history_csv, history_tracks, self.history),
            self._ingest(self.live_csv, live_tracks, self.live),
            Op("calibrate",
               ["calibrate", "--tracks", str(history_tracks), *common, "--tau-grid", TAU_GRID,
                "--seed", str(self.seed), "--particles", str(s.particles),
                "--out-table", str(table), "--out-report", str(report)],
               [table, report], check_calibrate,
               steps=len(grid) * s.history_vessels * s.sweep_steps),
            self._track(live_tracks, self.live,
                        [*common, "--trust-table", str(table), "--mode", "field"], d),
            Op("bench", ["bench", "--scenario", str(self.scenario), "--out-dir", str(bench_dir)],
               [bench_dir / "report.json", bench_dir / "runs.csv"], check_bench,
               steps=runs * 6 * s.bench_steps),
        ]


class RulesDirect(Workload):
    name = "rules-direct"

    def setup(self, directory, seed):
        s = self.size
        self.seed = seed
        self.dir = directory
        rngs = [np.random.default_rng(q) for q in np.random.SeedSequence(seed).spawn(3)]
        self.paths = write_demo(directory)
        self.program_path = directory / "heavy.cst"
        self.program_path.write_text(inputs.heavy_program(rngs[0]))
        self.vessels, csv_path = self._vessels(
            rngs[1], directory, "transits", s.direct_vessels, s.direct_steps, 367_300_000)
        self.starmap = directory / "starmap.json"
        _run(["build-starmap", "--map", str(self.paths["map"]),
              "--perturb", str(self.paths["perturbations"]),
              "--constitution", str(self.program_path), HARBOR_BBOX,
              "--rows", str(s.read_grid), "--cols", str(s.read_grid),
              "--samples", str(s.read_samples), "--seed", str(seed),
              "--out", str(self.starmap)])
        self.tracks = directory / "tracks.json"
        _run(["ingest", "--csv", str(csv_path), "--out", str(self.tracks),
              "--dt", str(AIS_DT_S), HARBOR_ORIGIN])
        # Reference evaluator for the direct-vs-field check, and the size
        # guarantee the workload was chosen for.
        layers, _ = load_starmap(self.starmap)
        self.reference = ConstitutionEvaluator(parse(self.program_path.read_text()), layers)
        compiled = self.reference.compiled
        if (compiled.k, compiled.n_satisfying) != (inputs.HEAVY_K, inputs.HEAVY_N_SATISFYING):
            raise RuntimeError(f"heavy program compiled to k={compiled.k}, "
                               f"{compiled.n_satisfying} satisfying assignments")
        n = s.read_grid
        self.nodes = rngs[2].choice(n * n, size=min(CHECKED_NODES, n * n), replace=False)
        warm = directory / "warm"
        warm.mkdir()
        _run(["field", "--constitution", str(self.program_path), "--starmap", str(self.starmap),
              "--rows", "8", "--cols", "8", "--out", str(warm / "field.json")])
        _run(["track", "--tracks", str(self.tracks), "--constitution", str(self.program_path),
              "--starmap", str(self.starmap), "--mode", "direct", "--tau", DIRECT_TAU,
              "--particles", "200", "--out-logs", str(warm / "steps.jsonl"),
              "--out-summary", str(warm / "summary.json")])

    def cycle(self):
        s = self.size
        field_out = self.dir / "field.json"

        def check():
            f = check_field(field_out, s.read_grid)
            points = f.grid.node_points()[self.nodes]
            direct = self.reference.probabilities(points, points)
            gap = float(np.abs(direct - f.values.ravel()[self.nodes]).max())
            if not gap <= FIELD_TOLERANCE:
                raise CheckError(f"direct mode differs from the field by {gap:.3g}")

        common = ["--constitution", str(self.program_path), "--starmap", str(self.starmap)]
        return [
            Op("field", ["field", *common, "--out", str(field_out)], [field_out], check),
            self._track(self.tracks, self.vessels,
                        [*common, "--mode", "direct", "--tau", DIRECT_TAU], self.dir),
        ]


WORKLOADS = {w.name: w for w in (HarborBuild, FilterSweeps, RulesDirect)}
