"""Synthetic benchmark: compliant/incompliant agents and filter ablations.

Scenarios generate ground-truth tracks whose maneuvers are rejection-
sampled against a precomputed compliance field (compliant agents steer
toward high-probability regions, incompliant agents away), then compare
the rule-aware filter against the plain particle filter on identical
measurement sequences, initial clouds, and random draws. The comparison
is trust.sweep, the same tau experiment calibration runs: its tau = 0
arm is the plain filter, bit for bit, and serves as the baseline. The
filter reads the scenario field through its particle_probabilities, the
same field-mode evaluator the CLI uses, which takes the (A, N, 2)
positions of a sweep's A arms and their (A, 2) measurements and reads the
positions only. An agent treats a NaN field value as acceptance 0; the
filter leaves NaN to particlefilter._compliance_factor.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .constitution import parse, parse_file, precompute_field, program_relations
from .constitution.field import ConstitutionField
from .errors import ConfigurationError, FormatError, StuckAgentError
from .grids import MAX_COORD, GridSpec
from .ingest import MAX_STEPS
from .particlefilter import FilterConfig
from .starmap import MAX_SAMPLES, build_starmap
from .trust import check_taus, sweep
from .vectormap import load_geojson, load_perturbation_config, perturbations_from_config

MAX_REJECTIONS = 1000
MAX_SEEDS, MAX_AGENTS = 1000, 1000  # per sweep, scenario


def _check_agent(grid: GridSpec, start, mode: str) -> None:
    """Reject an unknown agent mode or a start outside the grid's bbox."""
    if mode not in ("compliant", "incompliant"):
        raise ConfigurationError(f"unknown agent mode {mode!r}")
    if not grid.contains(start)[0]:
        x, y = np.asarray(start, dtype=float).tolist()
        raise ConfigurationError(f"start ({x}, {y}) outside the field bbox")


def simulate_agent(
    f: ConstitutionField,
    start,
    velocity,
    steps: int,
    dt: float,
    mode: str,
    rng: np.random.Generator,
    kick_std: float = 0.05,
) -> np.ndarray:
    """Constant-velocity agent with rejection-sampled acceleration kicks.

    Each step proposes a velocity kick ~ N(0, kick_std^2 I) m/s and accepts
    it with probability equal to the field value at the resulting position
    (compliant mode) or its complement (incompliant mode). Returns the
    (steps + 1, 2) position sequence including the start.
    """
    _check_agent(f.grid, start, mode)
    p = np.asarray(start, dtype=float).copy()
    v = np.asarray(velocity, dtype=float).copy()
    out = np.empty((steps + 1, 2))
    out[0] = p
    for step in range(1, steps + 1):
        for attempt in range(MAX_REJECTIONS):
            kick = kick_std * rng.standard_normal(2)
            candidate_v = v + kick
            candidate_p = p + candidate_v * dt
            value = float(f.at_clamped(candidate_p.reshape(1, 2))[0])
            if not np.isfinite(value):
                value = 0.0
            accept = value if mode == "compliant" else 1.0 - value
            if rng.uniform() < accept:
                p, v = candidate_p, candidate_v
                break
        else:
            raise StuckAgentError(
                f"agent rejected {MAX_REJECTIONS} consecutive kicks at step {step}; "
                "the acceptance field vanishes on its reachable set"
            )
        out[step] = p
    return out


@dataclass(frozen=True)
class Scenario:
    """A fully resolved benchmark setup."""

    field: ConstitutionField
    truth_tracks: list[np.ndarray]  # (T, 2) each, at filter_config.dt
    filter_config: FilterConfig
    taus: tuple[float, ...]
    n_seeds: int
    seed: int
    name: str = "scenario"


@dataclass
class RunRow:
    seed: int
    track: int
    tau: float
    mae_filter: float  # NaN for a degenerate arm
    mae_baseline: float

    @property
    def relative(self) -> float | None:
        if self.mae_baseline > 0:
            return self.mae_filter / self.mae_baseline
        return None


@dataclass
class MetricReport:
    rows: list[RunRow] = field(default_factory=list)

    def aggregate(self) -> dict:
        """Per-tau statistics over the defined runs; like calibrate's bucket
        means, they leave degenerate arms out."""
        out: dict[str, dict] = {}
        taus = sorted({row.tau for row in self.rows})
        for tau in taus:
            defined = [row for row in self.rows
                       if row.tau == tau and not np.isnan(row.mae_filter)]
            rel = [row.relative for row in defined if row.relative is not None]
            absolute = [row.mae_filter for row in defined]
            out[str(tau)] = {
                "relative_mae_mean": float(np.mean(rel)) if rel else None,
                "relative_mae_std": float(np.std(rel)) if rel else None,
                "relative_mae_median": float(np.median(rel)) if rel else None,
                "mae_mean": float(np.mean(absolute)) if absolute else None,
                "runs": len(absolute),
            }
        return out

    def to_json(self) -> dict:
        return {
            "per_run": [
                {
                    "seed": r.seed,
                    "track": r.track,
                    "tau": r.tau,
                    "mae": jsonio.float_to_json(r.mae_filter),
                    "mae_baseline": r.mae_baseline,
                    "relative_mae": jsonio.float_to_json(r.relative),
                }
                for r in self.rows
            ],
            "aggregate": self.aggregate(),
        }

    def save(self, path) -> None:
        jsonio.dump(self.to_json(), path)

    def write_csv(self, path) -> None:
        """One row per run; an undefined number (NaN or None) is an empty
        cell, as it is null in the JSON report."""
        with jsonio.atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["seed", "track", "tau", "mae", "mae_baseline", "relative_mae"]
            )
            for r in self.rows:
                numbers = (r.mae_filter, r.mae_baseline, r.relative)
                writer.writerow(
                    [r.seed, r.track, r.tau, *map(jsonio.float_to_json, numbers)]
                )


def run_ablation(scenario: Scenario) -> MetricReport:
    """Baseline vs rule-aware runs over the scenario's seeds x tracks x
    trust ratios.

    Each seed runs one trust.sweep over the ratios plus 0: per track, the
    baseline (the tau = 0 arm) and every tau arm filter the same noisy
    measurements from the same filter seed, so arms differ in the trust
    ratio alone. A track whose baseline degenerates is dropped; other
    degenerate runs are recorded as NaN rows. Rows follow the scenario's
    tau order.
    """
    taus = scenario.taus
    arms = sorted({0.0, *taus})
    column = [arms.index(tau) for tau in taus]
    evaluate = scenario.field.particle_probabilities
    tracks = scenario.truth_tracks
    report = MetricReport()
    for s, seed_root in enumerate(np.random.SeedSequence(scenario.seed).spawn(scenario.n_seeds)):
        mae = sweep(tracks, seed_root.spawn(len(tracks)), scenario.filter_config,
                    evaluate, arms)
        for t, row in enumerate(mae):
            base_mae = float(row[0])
            if np.isnan(base_mae):
                continue
            for tau, j in zip(taus, column):
                report.rows.append(
                    RunRow(seed=s, track=t, tau=tau,
                           mae_filter=float(row[j]), mae_baseline=base_mae)
                )
    return report


# ---------------------------------------------------------------------------
# Scenario loading (External interface: scenario spec JSON)


def _inline_or_path(entry, base_dir: pathlib.Path, loader):
    """loader applied to an {"inline": value} entry's value, or to the path
    (relative to base_dir) that a string entry names."""
    if isinstance(entry, dict):
        if "inline" not in entry:
            raise FormatError(f"inline object must carry 'inline', got keys {sorted(entry)}")
        return loader(entry["inline"])
    if not isinstance(entry, str):
        raise FormatError(f"expected a path or an inline object, got {entry!r}")
    return loader(base_dir / entry)


def _parse_program(source):
    if isinstance(source, pathlib.Path):
        return parse_file(source)
    return parse(jsonio.typed(source, str, "an inline constitution"))


def load_scenario(path) -> Scenario:
    """Build a Scenario from its JSON spec.

    Schema (paths are relative to the scenario file; README gives ranges):
      name, seed, taus, n_seeds
      map: geojson path | {"inline": featurecollection}
      perturbations: json path | {"inline": {...}}
      constitution: .cst path | {"inline": "text"}
      grid: {bbox, rows, cols}, starmap_samples
      agents: {count, mode, start, velocity, steps, dt, kick_std}
      filter: FilterConfig fields
    agents.dt defaults to, and must equal, the filter's dt. A malformed or
    out-of-range value is a user error, raised before the starmap is built.
    """
    path = pathlib.Path(path)
    spec = jsonio.typed(jsonio.load(path, "scenario file"), dict, "scenario spec")
    base = path.parent
    try:
        name = jsonio.typed(spec.get("name", path.stem), str, "name")
        seed = jsonio.number(spec.get("seed", 0), "seed", integer=True, lo=0)
        grid = GridSpec.from_json(jsonio.typed(spec["grid"], dict, "grid"), "grid.")
        samples = jsonio.number(spec.get("starmap_samples", 50), "starmap_samples", integer=True,
                                lo=2, hi=MAX_SAMPLES)
        taus = check_taus(jsonio.typed(spec.get("taus", [0.0, 0.5, 1.0]), list, "taus"), "taus")
        n_seeds = jsonio.number(spec.get("n_seeds", 5), "n_seeds", integer=True, lo=1,
                                hi=MAX_SEEDS)
        filter_cfg = FilterConfig.from_json(spec.get("filter", {}))
        agents = jsonio.typed(spec["agents"], dict, "agents")
        count = jsonio.number(agents.get("count", 1), "agents.count", integer=True, lo=1,
                              hi=MAX_AGENTS)
        steps = jsonio.number(agents["steps"], "agents.steps", integer=True, lo=1, hi=MAX_STEPS)
        dt = jsonio.number(agents.get("dt", filter_cfg.dt), "agents.dt")
        mode = jsonio.typed(agents.get("mode", "compliant"), str, "agents.mode")
        kick = jsonio.number(agents.get("kick_std", 0.05), "agents.kick_std", lo=0,
                             hi=MAX_COORD)
        start = jsonio.point(agents["start"], "agents.start")
        velocity = jsonio.point(agents.get("velocity", (0.0, 0.0)), "agents.velocity",
                                lo=-MAX_COORD, hi=MAX_COORD)
        map_entry = spec["map"]
        perturb_entry = spec["perturbations"]
        constitution_entry = spec["constitution"]
    except KeyError as exc:
        raise FormatError(f"scenario spec is missing {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"bad scenario spec {path}: {exc}") from exc
    if dt != filter_cfg.dt:
        raise ConfigurationError("agent dt must match the filter dt")
    _check_agent(grid, start, mode)

    vmap, _ = _inline_or_path(map_entry, base, load_geojson)
    perturb_cfg = _inline_or_path(perturb_entry, base, load_perturbation_config)
    program = _inline_or_path(constitution_entry, base, _parse_program)

    perturbations = perturbations_from_config(vmap, perturb_cfg)
    seeds = np.random.SeedSequence(seed).spawn(2)
    layers = build_starmap(
        vmap, perturbations, program_relations(program), grid, n=samples,
        rng=np.random.default_rng(seeds[0]),
    )
    f = precompute_field(program, layers, grid)

    agent_rng = np.random.default_rng(seeds[1])
    tracks = [
        simulate_agent(f, start, velocity, steps, dt, mode, agent_rng, kick_std=kick)
        for _ in range(count)
    ]
    return Scenario(
        field=f,
        truth_tracks=tracks,
        filter_config=filter_cfg,
        taus=taus,
        n_seeds=n_seeds,
        seed=seed,
        name=name,
    )
