"""Trust features, the trust-ratio sweep, and trust-ratio calibration.

Each track gets a discrete feature triple (vessel type, waterway-bound,
anchoring), held constant over the journey. sweep() is the one tau
experiment of the package: every track is filtered once per candidate
ratio against one seeded synthetic-noise measurement sequence and one
filter seed, all ratios of a track in one particlefilter.filter_arms
pass, and scored by position error. Calibration sweeps historical
tracks and picks, per feature bucket, the ratio minimizing the
bucket-mean position error; ties resolve to the smallest ratio, and since
every grid contains 0, a calibrated bucket can never do worse in-sample
than the plain filter. The synthetic benchmark (evalbench.run_ablation)
runs the same sweep, with the tau = 0 arm as its baseline.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import ConfigurationError, FormatError
from .ingest import Track
from .particlefilter import FilterConfig, filter_arms

# AIS ship-type code ranges (ITU-R M.1371 summary table).
_TYPE_RANGES = [
    (30, 30, "fishing"),
    (31, 32, "towing"),
    (33, 35, "special"),
    (36, 36, "sailing"),
    (37, 37, "pleasure"),
    (40, 49, "high_speed"),
    (50, 59, "special"),
    (60, 69, "passenger"),
    (70, 79, "cargo"),
    (80, 89, "tanker"),
]

DRAFT_THRESHOLD_M = 9.0
ANCHOR_SOG_KN = 0.5
DEFAULT_TAU_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def vessel_type_name(code: int | None) -> str:
    if code is None:
        return "unknown"
    for lo, hi, name in _TYPE_RANGES:
        if lo <= code <= hi:
            return name
    return "other"


@dataclass(frozen=True)
class TrustFeatures:
    vessel_type: str
    waterway_bound: bool
    anchoring: bool

    def key(self) -> str:
        return f"{self.vessel_type}|{int(self.waterway_bound)}|{int(self.anchoring)}"


def extract_features(track: Track) -> TrustFeatures:
    """Derive the feature triple from a track's metadata.

    waterway_bound: draft of at least DRAFT_THRESHOLD_M or a cargo/tanker
    type code; anchoring: median speed over ground below ANCHOR_SOG_KN
    knots. Missing metadata falls back to the "unknown" type and False
    flags.
    """
    meta = track.metadata or {}
    vtype = vessel_type_name(meta.get("vessel_type"))
    draft = meta.get("draft")
    waterway_bound = bool(
        (draft is not None and draft >= DRAFT_THRESHOLD_M)
        or vtype in ("cargo", "tanker")
    )
    sog = meta.get("sog_median_kn")
    anchoring = bool(sog is not None and sog < ANCHOR_SOG_KN)
    return TrustFeatures(
        vessel_type=vtype, waterway_bound=waterway_bound, anchoring=anchoring
    )


# The JSON type of each TrustFeatures field, in field order.
_FEATURE_TYPES = (("vessel_type", str), ("waterway_bound", bool), ("anchoring", bool))


@dataclass(frozen=True)
class TrustTable:
    entries: tuple[tuple[TrustFeatures, float], ...]
    default_tau: float = 0.0

    def __post_init__(self):
        for _, tau in self.entries:
            if not 0.0 <= tau <= 1.0:
                raise ConfigurationError(f"stored tau {tau} outside [0, 1]")
        if not 0.0 <= self.default_tau <= 1.0:
            raise ConfigurationError(f"default tau {self.default_tau} outside [0, 1]")

    def lookup(self, features: TrustFeatures) -> float:
        for stored, tau in self.entries:
            if stored == features:
                return tau
        return self.default_tau

    def to_json(self) -> dict:
        return {
            "default_tau": self.default_tau,
            "entries": [
                {
                    "vessel_type": f.vessel_type,
                    "waterway_bound": f.waterway_bound,
                    "anchoring": f.anchoring,
                    "tau": tau,
                }
                for f, tau in self.entries
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrustTable":
        try:
            entries = tuple(
                (TrustFeatures(*(jsonio.typed(e[name], kind, f"entries[{i}].{name}")
                                 for name, kind in _FEATURE_TYPES)),
                 jsonio.number(e["tau"], f"entries[{i}].tau"))
                for i, e in enumerate(obj["entries"])
            )
            default_tau = jsonio.number(obj.get("default_tau", 0.0), "default_tau")
        except (KeyError, TypeError, FormatError) as exc:
            raise FormatError(f"bad trust table: {exc}") from exc
        return cls(entries=entries, default_tau=default_tau)

    def save(self, path) -> None:
        jsonio.dump(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "TrustTable":
        return cls.from_json(jsonio.load(path, "trust table file"))


@dataclass
class BucketReport:
    features: TrustFeatures
    tau_grid: tuple[float, ...]
    mae_per_tau: tuple[float, ...]
    chosen_tau: float
    track_count: int
    skipped_tracks: int = 0

    def to_json(self) -> dict:
        return {
            "features": self.features.key(),
            "tau_grid": list(self.tau_grid),
            "mae_per_tau": jsonio.floats_to_json(self.mae_per_tau),
            "chosen_tau": self.chosen_tau,
            "track_count": self.track_count,
            "skipped_tracks": self.skipped_tracks,
        }


@dataclass
class CalibrationReport:
    buckets: list[BucketReport] = field(default_factory=list)

    def histogram_by_bucket(self) -> dict[float, int]:
        out: dict[float, int] = {}
        for bucket in self.buckets:
            out[bucket.chosen_tau] = out.get(bucket.chosen_tau, 0) + 1
        return out

    def histogram_by_track(self) -> dict[float, int]:
        out: dict[float, int] = {}
        for bucket in self.buckets:
            out[bucket.chosen_tau] = out.get(bucket.chosen_tau, 0) + bucket.track_count
        return out

    def to_json(self) -> dict:
        return {
            "buckets": [b.to_json() for b in self.buckets],
            "histogram_by_bucket": {str(k): v for k, v in
                                    sorted(self.histogram_by_bucket().items())},
            "histogram_by_track": {str(k): v for k, v in
                                   sorted(self.histogram_by_track().items())},
        }

    def save(self, path) -> None:
        jsonio.dump(self.to_json(), path)

    def write_histogram_csv(self, path) -> None:
        by_bucket = self.histogram_by_bucket()
        by_track = self.histogram_by_track()
        taus = sorted(set(by_bucket) | set(by_track))
        with jsonio.atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau", "optimal_for_buckets", "optimal_for_tracks"])
            for tau in taus:
                writer.writerow([tau, by_bucket.get(tau, 0), by_track.get(tau, 0)])


def position_mae(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean position error over aligned timestamps."""
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape != truth.shape:
        raise ConfigurationError(
            f"estimate/truth shapes disagree: {estimates.shape} vs {truth.shape}"
        )
    return float(np.linalg.norm(estimates - truth, axis=1).mean())


def sweep(truths, track_seeds, config: FilterConfig, evaluate, taus) -> np.ndarray:
    """Position MAE of every (track, tau) arm; NaN marks a degenerate run.

    truths: (T, 2) ground-truth positions per track; track_seeds: one
    SeedSequence per track. Each track spawns a noise seed and a filter
    seed: the noise is drawn once, and every arm filters the same
    measurements on the filter seed, so the arms share their start cloud
    and move noise (common random numbers) and differ in tau alone. All
    arms of a track advance together in one filter_arms call, which gets
    the track's measurements and filter seed once per arm; each arm has
    the bits it has run alone, and the tau = 0 arm never calls evaluate,
    so it is bit-identical to the plain filter.
    """
    mae = np.full((len(truths), len(taus)), np.nan)
    for i, (truth, seq) in enumerate(zip(truths, track_seeds)):
        noise_seq, filter_seq = seq.spawn(2)
        truth = np.asarray(truth, dtype=float)
        measurements = truth + config.draw_measurement_noise(
            np.random.default_rng(noise_seq), len(truth)
        )
        estimates, failures, _ = filter_arms(
            [measurements] * len(taus), config,
            [filter_seq] * len(taus), taus, evaluate=evaluate,
        )
        for j, failure in enumerate(failures):
            if failure is None:
                mae[i, j] = position_mae(estimates[j], truth[1:])
    return mae


def calibrate(
    tracks: list[Track],
    evaluate,
    config: FilterConfig,
    tau_grid=DEFAULT_TAU_GRID,
    seed: int = 0,
    default_tau: float = 0.0,
) -> tuple[TrustTable, CalibrationReport]:
    """Grid-search the trust ratio per feature bucket on historical tracks.

    Every track is swept over the grid (see sweep), so the ratio is the
    only difference between arms. Tracks whose runs degenerate under any
    ratio are skipped and counted. evaluate is the per-particle
    compliance evaluator shared by all runs (None tracks nothing but
    still exercises the grid; useful for smoke tests).
    """
    tau_grid = tuple(sorted(float(t) for t in tau_grid))
    if not tau_grid or any(not 0.0 <= t <= 1.0 for t in tau_grid):
        raise ConfigurationError("tau grid must be a nonempty subset of [0, 1]")
    if 0.0 not in tau_grid:
        raise ConfigurationError("tau grid must contain 0 (the safety fallback)")
    if not tracks:
        raise ConfigurationError("no tracks to calibrate on")

    buckets: dict[TrustFeatures, list[int]] = {}
    for i, track in enumerate(tracks):
        buckets.setdefault(extract_features(track), []).append(i)

    mae = sweep(
        [track.positions for track in tracks],
        np.random.SeedSequence(seed).spawn(len(tracks)),
        config, evaluate, tau_grid,
    )

    entries = []
    report = CalibrationReport()
    for feat in sorted(buckets, key=lambda f: f.key()):
        idx = buckets[feat]
        rows = mae[idx]
        # A track that degenerated under any arm is skipped outright so the
        # per-tau bucket means stay comparable.
        usable = np.isfinite(rows).all(axis=1)
        skipped = int((~usable).sum())
        if usable.any():
            scores = rows[usable].mean(axis=0)
            # argmin over an ascending grid resolves ties to the smallest tau
            chosen = float(tau_grid[int(np.argmin(scores))])
        else:
            scores = np.full(len(tau_grid), np.inf)
            chosen = default_tau
        entries.append((feat, chosen))
        report.buckets.append(
            BucketReport(
                features=feat,
                tau_grid=tau_grid,
                mae_per_tau=tuple(float(v) for v in scores),
                chosen_tau=chosen,
                track_count=len(idx),
                skipped_tracks=skipped,
            )
        )
    table = TrustTable(entries=tuple(entries), default_tau=default_tau)
    return table, report
