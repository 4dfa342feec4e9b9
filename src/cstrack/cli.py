"""Command-line entry point wiring the whole pipeline.

Subcommands: ingest, build-starmap, field, track, calibrate, bench. Every
command takes one --seed (the logged master seed) from which all child
seeds derive, and writes byte-identical outputs on reruns with identical
inputs. Exit codes: 0 success, 2 user or configuration error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import pathlib
import sys
import time
import traceback

import numpy as np

from . import __version__, jsonio
from .constitution import (
    ConstitutionEvaluator,
    environment_atoms,
    parse_file,
    precompute_field,
)
from .errors import ConfigurationError, CstrackError
from .evalbench import load_scenario, run_ablation
from .grids import GridSpec
from .ingest import (
    DEFAULT_DT_S,
    DEFAULT_GAP_S,
    load_tracks,
    read_ais_csv,
    resample_track,
    save_tracks,
    segment_tracks,
)
from .particlefilter import FilterConfig, run_filter
from .projection import LocalFrame
from .relations import RelationKind
from .starmap import build_starmap, load_starmap, save_starmap, write_layer_pgm
from .trust import TrustTable, calibrate, extract_features, position_mae
from .vectormap import load_geojson, load_perturbation_config, perturbations_from_config

log = logging.getLogger("cstrack")

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INTERNAL = 3


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"{what} must be 'a,b', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigurationError(f"--bbox must be 'xmin,ymin,xmax,ymax', got {text!r}")
    return tuple(float(p) for p in parts)


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


def _grid_from_args(args, default_bbox=None, default_rows=100, default_cols=100) -> GridSpec:
    bbox = _parse_bbox(args.bbox) if args.bbox else default_bbox
    if bbox is None:
        raise ConfigurationError("no --bbox given and no default available")
    return GridSpec(bbox=bbox, rows=args.rows or default_rows,
                    cols=args.cols or default_cols)


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
    records, stats = read_ais_csv(args.csv, column_map=_column_map(args.columns))
    if not records:
        raise ConfigurationError(f"{args.csv}: no valid records")
    frame = None
    if args.origin:
        lon, lat = _parse_pair(args.origin, "--origin")
        frame = LocalFrame(origin_lon=lon, origin_lat=lat)
    tracks, frame = segment_tracks(records, gap_s=args.gap_s, frame=frame)
    resampled = []
    skipped = 0
    for track in tracks:
        try:
            resampled.append(resample_track(track, dt=args.dt))
        except ConfigurationError:
            skipped += 1
    log.info("ingested %d records into %d tracks (%d too short for dt=%s)",
             stats.records_kept, len(resampled), skipped, args.dt)
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
    origin = _parse_pair(args.origin, "--origin") if args.origin else None
    vmap, frame = load_geojson(args.map, origin=origin)
    perturbations = perturbations_from_config(
        vmap, load_perturbation_config(args.perturb)
    )
    if args.relations:
        relations = _parse_relations(args.relations)
    elif args.constitution:
        program = parse_file(args.constitution)
        relations = sorted(
            {(RelationKind(p), t) for p, _, t in environment_atoms(program)}
        )
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
    grid = _grid_from_args(args, default_bbox=default_bbox)
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
    grid = (
        _grid_from_args(args, default_bbox=layers[0].grid.bbox,
                        default_rows=layers[0].grid.rows,
                        default_cols=layers[0].grid.cols)
        if (args.bbox or args.rows or args.cols)
        else layers[0].grid
    )
    measurement = (
        _parse_pair(args.measurement, "--measurement") if args.measurement else "state"
    )
    started = time.perf_counter()
    f = precompute_field(program, layers, grid, measurement=measurement)
    elapsed = time.perf_counter() - started
    finite = f.values[np.isfinite(f.values)]
    if finite.size and ((finite < 0).any() or (finite > 1).any()):
        raise AssertionError("field values escaped [0, 1]")
    f.save(args.out)
    if args.pgm:
        f.write_pgm(args.pgm)
    print(f"computed {grid.rows}x{grid.cols} compliance field in {elapsed:.2f} s "
          f"-> {args.out}")
    return EXIT_OK


def cmd_track(args) -> int:
    tracks, _ = load_tracks(args.tracks)
    config = _load_filter_config(args)
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
    seeds = np.random.SeedSequence(args.seed).spawn(len(tracks))
    summary = []
    started = time.perf_counter()
    with jsonio.atomic_write(args.out_logs) as logs:
        for i, track in enumerate(tracks):
            if track.dt is None:
                raise ConfigurationError(
                    f"track {track.vessel_id} has no uniform dt; run ingest first"
                )
            if use_constitution and trust_table is not None:
                tau = trust_table.lookup(extract_features(track))
            elif use_constitution:
                tau = args.tau if args.tau is not None else 0.0
            else:
                tau = 0.0
            run_config = dataclasses.replace(config, dt=float(track.dt))
            estimates, records = run_filter(
                np.asarray(track.positions, dtype=float),
                run_config,
                np.random.default_rng(seeds[i]),
                evaluate=evaluate,
                tau=tau,
                t0=float(track.times[0]),
            )
            for record in records:
                doc = {"vessel_id": track.vessel_id, **record.to_json()}
                logs.write(jsonio.dumps_line(doc) + "\n")
            summary.append(
                {
                    "vessel_id": track.vessel_id,
                    "tau": tau,
                    "steps": len(records),
                    "mae_vs_recorded": position_mae(
                        estimates, np.asarray(track.positions[1:], dtype=float)
                    ),
                }
            )
    elapsed = time.perf_counter() - started
    jsonio.dump({"tracks": summary, "master_seed": args.seed}, args.out_summary)
    print(f"tracked {len(tracks)} tracks in {elapsed:.2f} s -> {args.out_logs}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    tracks, _ = load_tracks(args.tracks)
    if not tracks:
        raise ConfigurationError("no tracks in input")
    dts = {t.dt for t in tracks}
    if None in dts:
        raise ConfigurationError("tracks must be resampled to a uniform dt")
    if len(dts) != 1:
        raise ConfigurationError(f"tracks carry mixed dt values {sorted(dts)}")
    config = dataclasses.replace(_load_filter_config(args), dt=float(dts.pop()))
    program = parse_file(args.constitution)
    layers, _ = load_starmap(args.starmap)
    evaluate = _evaluator_for(program, layers, args.mode)
    tau_grid = tuple(float(t) for t in args.tau_grid.split(","))
    started = time.perf_counter()
    table, report = calibrate(
        tracks, evaluate, config, tau_grid=tau_grid, seed=args.seed,
        default_tau=args.default_tau,
    )
    elapsed = time.perf_counter() - started
    table.save(args.out_table)
    report.save(args.out_report)
    if args.out_hist:
        report.write_histogram_csv(args.out_hist)
    print(f"calibrated {len(report.buckets)} buckets over {len(tracks)} tracks "
          f"in {elapsed:.2f} s -> {args.out_table}")
    return EXIT_OK


def cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    taus = tuple(float(t) for t in args.taus.split(",")) if args.taus else None
    n_seeds = args.n_seeds
    started = time.perf_counter()
    report = run_ablation(scenario, taus=taus, n_seeds=n_seeds)
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

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed; all randomness derives from it")
        p.add_argument("-v", "--verbose", action="store_true", help="info logging")

    def filter_options(p):
        p.add_argument("--mode", choices=("field", "direct"), default="field",
                       help="compliance evaluation: precomputed field or per-particle")
        p.add_argument("--filter-config", help="FilterConfig JSON file")
        p.add_argument("--particles", type=int)
        p.add_argument("--meas-std", type=float)
        p.add_argument("--sigma-a", type=float)

    p = sub.add_parser("ingest", help="AIS CSV -> uniform tracks JSON")
    common(p)
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
    p.add_argument("--bbox", help="grid bbox in meters: xmin,ymin,xmax,ymax")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--samples", type=int, default=100,
                   help="number of randomized map variants")
    p.add_argument("--relations", help="layers to build: over:land,distance:way,...")
    p.add_argument("--constitution", help="derive layers from a program's atoms")
    p.add_argument("--pgm-dir", help="dump per-layer mean rasters as PGM images")
    p.set_defaults(handler=cmd_build_starmap)

    p = sub.add_parser("field", help="constitution + starmap -> compliance raster")
    common(p)
    p.add_argument("--constitution", required=True)
    p.add_argument("--starmap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bbox")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
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
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--taus", help="override the scenario's trust ratios")
    p.add_argument("--n-seeds", type=int, help="override the scenario's seed count")
    p.set_defaults(handler=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = os.environ.get("CSTRACK_LOG_LEVEL", "INFO" if args.verbose else "WARNING")
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
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
