"""AIS track ingestion: CSV records, segmentation, uniform resampling.

Recordings arrive as per-message CSV rows (NOAA column names by default,
remappable). Ingestion drops malformed rows (counting them), deduplicates
per-vessel timestamps (later row wins), splits a vessel's messages into
tracks at gaps above a threshold, and linearly resamples each track onto a
uniform time grid in the shared local tangent frame.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import jsonio
from .errors import ConfigurationError, FormatError
from .grids import MAX_COORD
from .projection import LocalFrame

NOAA_COLUMNS = {
    "vessel_id": "MMSI",
    "timestamp": "BaseDateTime",
    "lat": "LAT",
    "lon": "LON",
    "sog": "SOG",
    "cog": "COG",
    "vessel_type": "VesselType",
    "draft": "Draft",
}

_MANDATORY = ("vessel_id", "timestamp", "lat", "lon")

DEFAULT_GAP_S = 600.0
DEFAULT_DT_S = 60.0

# The most samples a resampled track may hold, and the most steps a bench
# agent may take: the filter runs one step per sample.
MAX_STEPS = 100_000


@dataclass(frozen=True)
class AisRecord:
    vessel_id: str
    timestamp: float  # UTC seconds
    lat: float
    lon: float
    sog: float | None = None  # knots
    cog: float | None = None  # degrees
    vessel_type: int | None = None
    draft: float | None = None


@dataclass
class IngestStats:
    records_in: int = 0
    records_kept: int = 0
    dropped_invalid: int = 0
    dropped_duplicate: int = 0

    def to_json(self) -> dict:
        return {
            "records_in": self.records_in,
            "records_kept": self.records_kept,
            "dropped_invalid": self.dropped_invalid,
            "dropped_duplicate": self.dropped_duplicate,
        }


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S"):
        try:
            return datetime.strptime(text, fmt).replace(tzinfo=timezone.utc).timestamp()
        except ValueError:
            continue
    return float(text)  # epoch seconds fallback


def _optional_float(raw: str | None) -> float | None:
    """An optional column's value; blank and non-finite values are missing."""
    if raw is None or raw.strip() == "":
        return None
    value = float(raw)
    return value if np.isfinite(value) else None


def read_ais_csv(path, column_map: dict[str, str] | None = None
                 ) -> tuple[list[AisRecord], IngestStats]:
    """Parse an AIS CSV; invalid rows are dropped and counted.

    For duplicate (vessel, timestamp) pairs the later row in file order
    wins. Returns records in file order of their last occurrence.
    """
    columns = dict(NOAA_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(columns)
        if unknown:
            raise ConfigurationError(f"unknown column-map fields: {sorted(unknown)}")
        columns.update(column_map)
    stats = IngestStats()
    dedup: dict[tuple[str, float], int] = {}
    records: list[AisRecord | None] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise FormatError(f"{path} has no header row")
        missing = [columns[f] for f in _MANDATORY if columns[f] not in reader.fieldnames]
        if missing:
            raise FormatError(f"{path} is missing mandatory columns: {missing}")
        for row in reader:
            stats.records_in += 1
            try:
                vessel = row[columns["vessel_id"]].strip()
                if not vessel:
                    raise ValueError("empty vessel id")
                ts = _parse_timestamp(row[columns["timestamp"]])
                lat = float(row[columns["lat"]])
                lon = float(row[columns["lon"]])
                if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                    raise ValueError("coordinates out of range")
                if not np.isfinite(ts):
                    raise ValueError("non-finite timestamp")
                sog = _optional_float(row.get(columns["sog"]))
                cog = _optional_float(row.get(columns["cog"]))
                vtype_raw = _optional_float(row.get(columns["vessel_type"]))
                draft = _optional_float(row.get(columns["draft"]))
            except (KeyError, ValueError, TypeError):
                stats.dropped_invalid += 1
                continue
            record = AisRecord(
                vessel_id=vessel,
                timestamp=ts,
                lat=lat,
                lon=lon,
                sog=sog,
                cog=cog,
                vessel_type=None if vtype_raw is None else int(vtype_raw),
                draft=draft,
            )
            key = (vessel, ts)
            if key in dedup:
                stats.dropped_duplicate += 1
                records[dedup[key]] = None  # later row wins
            dedup[key] = len(records)
            records.append(record)
    kept = [r for r in records if r is not None]
    stats.records_kept = len(kept)
    return kept, stats


@dataclass(frozen=True)
class Track:
    """Time-ordered samples of one vessel journey in local-frame meters."""

    vessel_id: str
    times: np.ndarray  # (T,) seconds, strictly increasing
    positions: np.ndarray  # (T, 2) meters
    metadata: dict = field(default_factory=dict)
    dt: float | None = None  # uniform spacing; None before resampling

    def __post_init__(self):
        if len(self.times) < 2:
            raise ConfigurationError("a track needs at least 2 samples")
        if (np.diff(self.times) <= 0).any():
            raise ConfigurationError("track timestamps must strictly increase")
        self.times.setflags(write=False)
        self.positions.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.times)


def segment_tracks(records: list[AisRecord], gap_s: float = DEFAULT_GAP_S,
                   frame: LocalFrame | None = None) -> tuple[list[Track], LocalFrame]:
    """Split per-vessel records into tracks at gaps above gap_s.

    Tracks with fewer than 2 points are discarded. Positions are projected
    into `frame` (default: tangent frame at the records' bbox center).
    """
    if not records:
        raise FormatError("no records to segment")
    if frame is None:
        lons = [r.lon for r in records]
        lats = [r.lat for r in records]
        frame = LocalFrame(
            origin_lon=(min(lons) + max(lons)) / 2.0,
            origin_lat=(min(lats) + max(lats)) / 2.0,
        )
    by_vessel: dict[str, list[AisRecord]] = {}
    for record in records:
        by_vessel.setdefault(record.vessel_id, []).append(record)

    tracks: list[Track] = []
    for vessel in sorted(by_vessel):
        rows = sorted(by_vessel[vessel], key=lambda r: r.timestamp)
        runs: list[list[AisRecord]] = [[rows[0]]]
        for prev, cur in zip(rows, rows[1:]):
            if cur.timestamp - prev.timestamp > gap_s:
                runs.append([])
            runs[-1].append(cur)
        for seq, run in enumerate(runs):
            if len(run) < 2:
                continue
            times = np.array([r.timestamp for r in run])
            x, y = frame.to_xy(
                np.array([r.lon for r in run]), np.array([r.lat for r in run])
            )
            positions = np.column_stack([x, y])
            sogs = [r.sog for r in run if r.sog is not None]
            types = [r.vessel_type for r in run if r.vessel_type is not None]
            drafts = [r.draft for r in run if r.draft is not None]
            metadata = {
                "vessel_type": types[0] if types else None,
                "draft": max(drafts) if drafts else None,
                "sog_median_kn": float(np.median(sogs)) if sogs else None,
                "segment": seq,
            }
            tracks.append(
                Track(vessel_id=vessel, times=times, positions=positions, metadata=metadata)
            )
    return tracks, frame


def resample_track(track: Track, dt: float = DEFAULT_DT_S) -> Track:
    """Linear position interpolation onto a uniform dt grid.

    The grid starts at the first sample and spans the original range.
    Original samples falling on the grid keep their positions.
    ConfigurationError if the grid has fewer than 2 samples or more than
    MAX_STEPS.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    t0, t1 = float(track.times[0]), float(track.times[-1])
    span = (t1 - t0) / dt
    if span >= MAX_STEPS:  # floor(span) + 1 samples
        raise ConfigurationError(
            f"track {track.vessel_id} needs more than {MAX_STEPS} samples at dt={dt:g} s"
        )
    n = int(np.floor(span)) + 1
    if n < 2:
        raise ConfigurationError(
            f"track {track.vessel_id} spans {t1 - t0:.0f} s, shorter than dt={dt:.0f} s"
        )
    times = t0 + dt * np.arange(n)
    positions = np.column_stack(
        [
            np.interp(times, track.times, track.positions[:, 0]),
            np.interp(times, track.times, track.positions[:, 1]),
        ]
    )
    return Track(
        vessel_id=track.vessel_id,
        times=times,
        positions=positions,
        metadata=dict(track.metadata),
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Persistence (Track JSON)


def tracks_to_json(tracks: list[Track], frame: LocalFrame) -> dict:
    """The tracks file of resampled tracks: each track's times are t0 + dt * k."""
    return {
        "origin_lonlat": [frame.origin_lon, frame.origin_lat],
        "tracks": [
            {
                "vessel_id": t.vessel_id,
                "t0": float(t.times[0]),
                "dt": t.dt,
                "positions": t.positions.tolist(),
                "metadata": t.metadata,
            }
            for t in tracks
        ],
    }


# Metadata that trust.extract_features compares as numbers.
_NUMERIC_METADATA = ("vessel_type", "draft", "sog_median_kn")


def _track_from_json(entry: dict, key: str) -> Track:
    vessel_id = jsonio.typed(entry["vessel_id"], str, f"{key}.vessel_id")
    positions = jsonio.points(jsonio.typed(entry["positions"], list, f"{key}.positions"),
                              f"{key}.positions", lo=-MAX_COORD, hi=MAX_COORD)
    if len(positions) < 2:
        raise FormatError(f"{key}.positions must hold at least 2 points, got {len(positions)}")
    try:  # an older file has no t0, and dt null on a track it did not resample
        t0 = jsonio.number(entry.get("t0"), f"{key}.t0")
        dt = jsonio.number(entry.get("dt"), f"{key}.dt", above=0, hi=MAX_COORD)
    except FormatError as exc:
        raise FormatError(f"{exc}; write the tracks file again with ingest") from exc
    if not math.isfinite(t0 + dt * (len(positions) - 1)):
        raise FormatError(f"{key}'s last time t0 + dt * (T - 1) must be finite")
    metadata = dict(jsonio.typed(entry.get("metadata", {}), dict, f"{key}.metadata"))
    for name in _NUMERIC_METADATA:
        if metadata.get(name) is not None:
            jsonio.number(metadata[name], f"{key}.metadata.{name}")
    # resample_track's grid, so a loaded track has the bits it was saved with
    times = t0 + dt * np.arange(len(positions))
    if (np.diff(times) <= 0).any():
        raise FormatError(f"{key}.dt = {dt!r} is too small beside t0 = {t0!r} for the times "
                          "to increase; write the tracks file again with ingest")
    return Track(vessel_id=vessel_id, times=times, positions=positions, metadata=metadata,
                 dt=dt)


def tracks_from_json(obj: dict) -> tuple[list[Track], LocalFrame]:
    try:
        lon, lat = jsonio.point(obj["origin_lonlat"], "origin_lonlat")
        tracks = [_track_from_json(entry, f"tracks[{i}]")
                  for i, entry in enumerate(obj["tracks"])]
    except (KeyError, TypeError, FormatError) as exc:
        raise FormatError(f"bad tracks JSON: {exc}") from exc
    return tracks, LocalFrame(origin_lon=lon, origin_lat=lat)


def save_tracks(tracks: list[Track], frame: LocalFrame, path,
                stats: IngestStats | None = None) -> None:
    doc = tracks_to_json(tracks, frame)
    if stats is not None:
        doc["ingest_stats"] = stats.to_json()
    jsonio.dump(doc, path)


def load_tracks(path) -> tuple[list[Track], LocalFrame]:
    return tracks_from_json(jsonio.load(path, "tracks file"))
