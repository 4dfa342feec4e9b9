"""Command-line entry point wiring the whole pipeline.

Subcommands: ingest, build-starmap, field, track, calibrate, bench. Every
command takes one --seed (the logged master seed). build-starmap, track
and calibrate derive all their child seeds from it; ingest and field draw
no random numbers, and bench's seeds derive from the scenario's seed.
Every command writes byte-identical outputs on reruns with identical
inputs. Exit codes: 0 success, 2 user or configuration error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
import math
import os
import pathlib
import sys
import time
import traceback

import numpy as np

from . import __version__, jsonio
from .constitution import (
    ConstitutionEvaluator,
    parse_file,
    precompute_field,
    program_relations,
)
from .errors import ConfigurationError, CstrackError
from .evalbench import MAX_SEEDS, load_scenario, run_ablation
from .grids import MAX_COORD, GridSpec
from .ingest import (
    DEFAULT_DT_S,
    DEFAULT_GAP_S,
    MAX_STEPS,
    load_tracks,
    read_ais_csv,
    resample_track,
    save_tracks,
    segment_tracks,
)
from .particlefilter import FilterConfig, filter_arms
from .projection import LocalFrame
from .relations import RelationKind
from .starmap import build_starmap, load_starmap, save_starmap, write_layer_pgm
from .trust import (
    TrustTable,
    calibrate,
    calibration_grid,
    check_taus,
    extract_features,
    position_mae,
)
from .vectormap import load_geojson, load_perturbation_config, perturbations_from_config

log = logging.getLogger("cstrack")

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INTERNAL = 3


def _parse_numbers(text: str, what: str, form: str | None = None) -> tuple[float, ...]:
    """Finite numbers from comma-separated text: as many as form ("a,b")
    has fields, or a nonempty list when form is None."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        values = None
    if (values is None or not all(math.isfinite(v) for v in values)
            or (form is not None and len(values) != form.count(",") + 1)):
        shape = f"'{form}'" if form else "a comma-separated list"
        raise ConfigurationError(f"{what} must be {shape} of finite numbers, got {text!r}")
    return values


def _parse_origin(text: str) -> tuple[float, float]:
    """An --origin value: lon in [-180, 180] and lat in [-90, 90] degrees, so
    that the frame puts every lon/lat within 2 pi R (about 4e7 m) of it."""
    lon, lat = _parse_numbers(text, "--origin", "lon,lat")
    if not (abs(lon) <= 180.0 and abs(lat) <= 90.0):
        raise ConfigurationError(
            f"--origin must lie in lon [-180, 180], lat [-90, 90] degrees, got {text!r}")
    return lon, lat


def _seed(text: str) -> int:
    """A --seed value; numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _parse_relations(text: str) -> list[tuple[RelationKind, str]]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigurationError(
                f"relation {chunk!r} must be 'kind:tag' (e.g. over:land)"
            )
        kind, tag = chunk.split(":", 1)
        try:
            out.append((RelationKind.parse(kind), tag))
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    if not out:
        raise ConfigurationError("no relations given")
    return out


def _grid_from_args(args, default_bbox, default_rows=100, default_cols=100) -> GridSpec:
    """The grid of --bbox, --rows and --cols; each flag not given takes its default."""
    bbox = (
        _parse_numbers(args.bbox, "--bbox", "xmin,ymin,xmax,ymax")
        if args.bbox is not None else default_bbox
    )
    return GridSpec(bbox=bbox,
                    rows=default_rows if args.rows is None else args.rows,
                    cols=default_cols if args.cols is None else args.cols)


def _load_filter_config(args) -> FilterConfig:
    config = FilterConfig.load(args.filter_config) if args.filter_config else FilterConfig()
    overrides = {"particles": args.particles, "measurement_noise_std": args.meas_std,
                 "sigma_a": args.sigma_a}
    return dataclasses.replace(
        config, **{key: value for key, value in overrides.items() if value is not None}
    )


def _evaluator_for(program, layers, mode: str):
    """Per-particle compliance evaluator: a field on the starmap grid, or
    per-particle inference (direct mode)."""
    if mode == "field":
        return precompute_field(program, layers, layers[0].grid).particle_probabilities
    return ConstitutionEvaluator(program, layers).particle_probabilities


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    gap_s = jsonio.number(args.gap_s, "--gap-s", above=0)
    dt = jsonio.number(args.dt, "--dt", above=0, hi=MAX_COORD)  # the tracks file's bound
    records, stats = read_ais_csv(args.csv, column_map=_column_map(args.columns))
    if not records:
        raise ConfigurationError(f"{args.csv}: no valid records")
    frame = None
    if args.origin is not None:
        lon, lat = _parse_origin(args.origin)
        frame = LocalFrame(origin_lon=lon, origin_lat=lat)
    tracks, frame = segment_tracks(records, gap_s=gap_s, frame=frame)
    resampled = []
    skipped = 0
    for track in tracks:
        try:
            resampled.append(resample_track(track, dt=dt))
        except ConfigurationError:
            skipped += 1
    log.info("ingested %d records into %d tracks (%d skipped: shorter than dt=%s "
             "or more than %d samples)",
             stats.records_kept, len(resampled), skipped, dt, MAX_STEPS)
    if not resampled:
        raise ConfigurationError("no track survived segmentation and resampling")
    save_tracks(resampled, frame, args.out, stats=stats)
    print(f"wrote {len(resampled)} tracks to {args.out} "
          f"(kept {stats.records_kept}/{stats.records_in} records)")
    return EXIT_OK


def _column_map(text: str | None) -> dict | None:
    if not text:
        return None
    out = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ConfigurationError(f"--columns entries must be field=COLUMN, got {chunk!r}")
        key, val = chunk.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def cmd_build_starmap(args) -> int:
    origin = _parse_origin(args.origin) if args.origin is not None else None
    vmap, frame = load_geojson(args.map, origin=origin)
    perturbations = perturbations_from_config(
        vmap, load_perturbation_config(args.perturb)
    )
    if args.relations:
        relations = _parse_relations(args.relations)
    elif args.constitution:
        program = parse_file(args.constitution)
        relations = program_relations(program)
        if not relations:
            raise ConfigurationError(
                f"{args.constitution} references no environment relations"
            )
    else:
        raise ConfigurationError("give --relations or --constitution to derive them")
    default_bbox = (
        float(vmap.vertices[:, 0].min()), float(vmap.vertices[:, 1].min()),
        float(vmap.vertices[:, 0].max()), float(vmap.vertices[:, 1].max()),
    )
    grid = _grid_from_args(args, default_bbox)
    started = time.perf_counter()
    layers = build_starmap(
        vmap, perturbations, relations, grid, n=args.samples,
        rng=np.random.default_rng(np.random.SeedSequence(args.seed)),
    )
    elapsed = time.perf_counter() - started
    save_starmap(layers, args.out, origin_lonlat=(frame.origin_lon, frame.origin_lat))
    if args.pgm_dir:
        os.makedirs(args.pgm_dir, exist_ok=True)
        for layer in layers:
            name = f"{layer.relation.value}_{layer.tag}.pgm"
            write_layer_pgm(layer, os.path.join(args.pgm_dir, name))
    print(f"built {len(layers)} layers ({grid.rows}x{grid.cols}, "
          f"{args.samples} samples) in {elapsed:.2f} s -> {args.out}")
    return EXIT_OK


def cmd_field(args) -> int:
    program = parse_file(args.constitution)
    layers, _ = load_starmap(args.starmap)
    starmap_grid = layers[0].grid
    grid = _grid_from_args(args, starmap_grid.bbox, starmap_grid.rows, starmap_grid.cols)
    measurement = (None if args.measurement is None
                   else _parse_numbers(args.measurement, "--measurement", "x,y"))
    started = time.perf_counter()
    f = precompute_field(program, layers, grid, measurement=measurement)
    elapsed = time.perf_counter() - started
    log.info("field %dx%d: NaN fraction %.4f", grid.rows, grid.cols,
             float(np.isnan(f.values).mean()))
    f.save(args.out)
    if args.pgm:
        f.write_pgm(args.pgm)
    print(f"computed {grid.rows}x{grid.cols} compliance field in {elapsed:.2f} s "
          f"-> {args.out}")
    return EXIT_OK


# Particles one filter_arms block of track holds: 8 arms at 2000
# particles. Blocks bound the memory; a track's bits do not depend on them.
_BLOCK_PARTICLES = 16_384


def _track_blocks(tracks, arms: int) -> list[list[int]]:
    """Indices of consecutive tracks with equal dt, at most arms per block."""
    blocks = []
    for _, run in itertools.groupby(range(len(tracks)), key=lambda i: tracks[i].dt):
        run = list(run)
        blocks.extend(run[lo:lo + arms] for lo in range(0, len(run), arms))
    return blocks


def cmd_track(args) -> int:
    """Filter every track, one arm per track, a block of tracks at a time.

    Each track gets its own child seed and trust ratio, and its step lines
    and summary entry are those of the track filtered alone. Blocks hold
    consecutive tracks of equal dt (see _BLOCK_PARTICLES); each block's
    lines and entries are written in input order before the next block
    runs. A degenerate track writes no step lines and gets a failure entry.
    """
    if args.tau is not None:
        jsonio.number(args.tau, "--tau", lo=0, hi=1)
    config = _load_filter_config(args)
    tracks, _ = load_tracks(args.tracks)
    use_constitution = not args.no_constitution
    trust_table = TrustTable.load(args.trust_table) if args.trust_table else None
    evaluate = None
    if use_constitution:
        if not args.constitution or not args.starmap:
            raise ConfigurationError(
                "tracking with the constitution needs --constitution and --starmap "
                "(or pass --no-constitution)"
            )
        program = parse_file(args.constitution)
        layers, _ = load_starmap(args.starmap)
        evaluate = _evaluator_for(program, layers, args.mode)
    if use_constitution and trust_table is not None:
        taus = [trust_table.lookup(extract_features(track)) for track in tracks]
    else:
        tau = args.tau if use_constitution and args.tau is not None else 0.0
        taus = [tau] * len(tracks)
    seeds = np.random.SeedSequence(args.seed).spawn(len(tracks))
    summary = []
    started = time.perf_counter()
    with jsonio.atomic_write(args.out_logs) as logs:
        for block in _track_blocks(tracks, max(1, _BLOCK_PARTICLES // config.particles)):
            estimates, failures, records = filter_arms(
                [np.asarray(tracks[i].positions, dtype=float) for i in block],
                dataclasses.replace(config, dt=float(tracks[block[0]].dt)),
                [seeds[i] for i in block],
                [taus[i] for i in block],
                evaluate=evaluate,
                t0s=[float(tracks[i].times[0]) for i in block],
                log=True,
            )
            for i, track_estimates, failure, track_records in zip(
                    block, estimates, failures, records):
                track = tracks[i]
                if failure is not None:
                    summary.append({"vessel_id": track.vessel_id, "tau": taus[i],
                                    "steps": 0, "mae_vs_recorded": None,
                                    "failure": failure})
                    continue
                for record in track_records:
                    doc = {"vessel_id": track.vessel_id, **record.to_json()}
                    logs.write(jsonio.dumps_line(doc) + "\n")
                summary.append(
                    {
                        "vessel_id": track.vessel_id,
                        "tau": taus[i],
                        "steps": len(track_records),
                        "mae_vs_recorded": position_mae(
                            track_estimates, np.asarray(track.positions[1:], dtype=float)
                        ),
                    }
                )
    elapsed = time.perf_counter() - started
    log.info("track: %d of %d tracks degenerate (no step lines written)",
             sum("failure" in entry for entry in summary), len(tracks))
    jsonio.dump({"tracks": summary, "master_seed": args.seed}, args.out_summary)
    print(f"tracked {len(tracks)} tracks in {elapsed:.2f} s -> {args.out_logs}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    tau_grid = calibration_grid(_parse_numbers(args.tau_grid, "--tau-grid"), "--tau-grid")
    jsonio.number(args.default_tau, "--default-tau", lo=0, hi=1)
    config = _load_filter_config(args)
    tracks, _ = load_tracks(args.tracks)
    if not tracks:
        raise ConfigurationError("no tracks in input")
    dts = {t.dt for t in tracks}
    if len(dts) != 1:
        raise ConfigurationError(f"tracks carry mixed dt values {sorted(dts)}")
    config = dataclasses.replace(config, dt=float(dts.pop()))
    program = parse_file(args.constitution)
    layers, _ = load_starmap(args.starmap)
    evaluate = _evaluator_for(program, layers, args.mode)
    started = time.perf_counter()
    table, report = calibrate(
        tracks, evaluate, config, tau_grid=tau_grid, seed=args.seed,
        default_tau=args.default_tau,
    )
    elapsed = time.perf_counter() - started
    log.info("calibrate: %d of %d tracks skipped (degenerate under some tau)",
             sum(b.skipped_tracks for b in report.buckets), len(tracks))
    table.save(args.out_table)
    report.save(args.out_report)
    if args.out_hist:
        report.write_histogram_csv(args.out_hist)
    print(f"calibrated {len(report.buckets)} buckets over {len(tracks)} tracks "
          f"in {elapsed:.2f} s -> {args.out_table}")
    return EXIT_OK


def cmd_bench(args) -> int:
    overrides = {}
    if args.taus is not None:
        overrides["taus"] = check_taus(_parse_numbers(args.taus, "--taus"), "--taus")
    if args.n_seeds is not None:
        overrides["n_seeds"] = jsonio.number(args.n_seeds, "--n-seeds", integer=True, lo=1,
                                             hi=MAX_SEEDS)
    scenario = dataclasses.replace(load_scenario(args.scenario), **overrides)
    started = time.perf_counter()
    report = run_ablation(scenario)
    elapsed = time.perf_counter() - started
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save(out_dir / "report.json")
    report.write_csv(out_dir / "runs.csv")
    agg = report.aggregate()
    print(f"ran {len(report.rows)} arms in {elapsed:.2f} s -> {out_dir}")
    for tau, stats in agg.items():
        rel = stats["relative_mae_median"]
        rel_text = "n/a" if rel is None else f"{rel:.3f}"
        print(f"  tau={tau}: median relative MAE {rel_text} over {stats['runs']} runs")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstrack",
        description="Uncertainty-aware map layers, probabilistic rule programs, "
                    "and rule-aware particle tracking.",
    )
    parser.add_argument("--version", action="version", version=f"cstrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help="master seed, a non-negative integer; all randomness "
                            "derives from it"):
        p.add_argument("--seed", type=_seed, default=0, help=seed_help)
        p.add_argument("-v", "--verbose", action="store_true", help="info logging")

    def filter_options(p):
        p.add_argument("--mode", choices=("field", "direct"), default="field",
                       help="compliance evaluation: precomputed field or per-particle")
        p.add_argument("--filter-config", help="FilterConfig JSON file")
        p.add_argument("--particles", type=int)
        p.add_argument("--meas-std", type=float)
        p.add_argument("--sigma-a", type=float)

    p = sub.add_parser("ingest", help="AIS CSV -> uniform tracks JSON")
    common(p, seed_help="logged only: ingest draws no random numbers")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gap-s", type=float, default=DEFAULT_GAP_S,
                   help="split tracks at gaps above this many seconds")
    p.add_argument("--dt", type=float, default=DEFAULT_DT_S,
                   help="uniform resampling step in seconds")
    p.add_argument("--origin", help="lon,lat of the local frame origin")
    p.add_argument("--columns", help="remap CSV columns: field=COLUMN,...")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("build-starmap", help="GeoJSON map -> starmap layers JSON")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--perturb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--origin", help="lon,lat of the local frame origin")
    p.add_argument("--bbox", help="grid bbox in meters: xmin,ymin,xmax,ymax "
                                  "(default: the map's extent)")
    p.add_argument("--rows", type=int, help="grid rows, at least 2 (default 100)")
    p.add_argument("--cols", type=int, help="grid columns, at least 2 (default 100)")
    p.add_argument("--samples", type=int, default=100,
                   help="number of randomized map variants")
    p.add_argument("--relations", help="layers to build: over:land,distance:way,...")
    p.add_argument("--constitution", help="derive layers from a program's atoms")
    p.add_argument("--pgm-dir", help="dump per-layer mean rasters as PGM images")
    p.set_defaults(handler=cmd_build_starmap)

    p = sub.add_parser("field", help="constitution + starmap -> compliance raster")
    common(p, seed_help="logged only: field draws no random numbers")
    p.add_argument("--constitution", required=True)
    p.add_argument("--starmap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bbox", help="grid bbox in meters: xmin,ymin,xmax,ymax "
                                  "(default: the starmap's)")
    p.add_argument("--rows", type=int, help="grid rows, at least 2 (default: the starmap's)")
    p.add_argument("--cols", type=int,
                   help="grid columns, at least 2 (default: the starmap's)")
    p.add_argument("--measurement", help="fixed measurement point x,y in meters "
                                         "(default: measurement = state)")
    p.add_argument("--pgm", help="also write the raster as a PGM image")
    p.set_defaults(handler=cmd_field)

    p = sub.add_parser("track", help="run the particle filter over tracks")
    common(p)
    p.add_argument("--tracks", required=True)
    p.add_argument("--constitution")
    p.add_argument("--starmap")
    tau_source = p.add_mutually_exclusive_group()
    tau_source.add_argument("--tau", type=float, help="fixed trust ratio in [0, 1]")
    tau_source.add_argument("--trust-table", help="calibrated trust table JSON")
    tau_source.add_argument("--no-constitution", action="store_true",
                            help="plain particle filter baseline")
    filter_options(p)
    p.add_argument("--out-logs", required=True, help="JSON Lines step log")
    p.add_argument("--out-summary", required=True, help="per-track summary JSON")
    p.set_defaults(handler=cmd_track)

    p = sub.add_parser("calibrate", help="grid-search trust ratios per feature bucket")
    common(p)
    p.add_argument("--tracks", required=True)
    p.add_argument("--constitution", required=True)
    p.add_argument("--starmap", required=True)
    p.add_argument("--tau-grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--default-tau", type=float, default=0.0)
    filter_options(p)
    p.add_argument("--out-table", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-hist", help="histogram CSV of optimal ratios")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("bench", help="run a synthetic ablation scenario")
    common(p, seed_help="logged only: bench's randomness derives from the scenario's "
                        "seed key")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--taus", help="override the scenario's trust ratios")
    p.add_argument("--n-seeds", type=int, help="override the scenario's seed count")
    p.set_defaults(handler=cmd_bench)
    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to sys.stderr as it is at the time."""

    def emit(self, record):
        self.stream = sys.stderr
        super().emit(record)


def _configure_logging(verbose: bool) -> None:
    """Set the cstrack logger's level for this call. Its stderr handler is
    attached once per process; the root logger is left alone."""
    log.setLevel(logging.INFO if verbose else logging.WARNING)
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    log.info("master seed: %d", args.seed)
    try:
        return args.handler(args)
    except (CstrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception:  # internal invariant violation
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
