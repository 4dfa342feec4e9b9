"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator (or a seed) and produces what the
cstrack CLI reads: a heavier harbor rule program, AIS CSV recordings of
vessels transiting the demo harbor channel, and a corridor ablation
scenario. The same seed gives byte-identical files.
The ground truth the AIS generator used is returned to the caller and
never written where the program can see it.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from cstrack.demo import HARBOR_ORIGIN, MARINE_CONSTITUTION
from cstrack.projection import LocalFrame

HARBOR_FRAME = LocalFrame(origin_lon=HARBOR_ORIGIN[0], origin_lat=HARBOR_ORIGIN[1])

# The marked waterway of the demo harbor, as (y, x) knots of its centre line.
_LANE_Y = (-2000.0, -600.0, 500.0, 2000.0)
_LANE_X = (0.0, 0.0, -100.0, 0.0)

# (AIS type code, draft range in m): cargo and tanker are waterway-bound,
# passenger and fishing are not, so calibration sees four trust buckets.
_VESSEL_CLASSES = ((70, (10.0, 12.5)), (60, (4.0, 6.0)), (80, (11.0, 14.0)),
                   (30, (2.0, 4.0)))

_AIS_EPOCH = datetime(2020, 3, 1, 12, 0, 0, tzinfo=timezone.utc).timestamp()
_KNOT_MPS = 0.514444
_MAX_SPEED_MPS = 2.8

# Structure of the rules-direct program: it does not depend on the seeded
# thresholds, so every seed compiles to the same size.
HEAVY_K = 12
HEAVY_N_SATISFYING = 2102


def heavy_program(rng: np.random.Generator) -> str:
    """MARINE_CONSTITUTION plus speed-zone thresholds and perception facts.

    The extra rules gate constitution(X, Z): three threshold comparisons on
    distance(X, land), distance(X, anchorage) and depth(X, water), and two
    uncertain sensor facts. That adds five probabilistic atoms to the seven
    of the demo program (k = 12).
    """
    base_rule = "0.98 :: constitution(X, Z) :- safe_water(X), conduct_ok(X)."
    if base_rule not in MARINE_CONSTITUTION:
        raise ValueError("MARINE_CONSTITUTION no longer has the expected query rule")
    land_gap = int(rng.integers(80, 161))
    anchorage_gap = int(rng.integers(40, 91))
    deep_water = round(float(rng.uniform(11.5, 13.5)), 1)
    sensor = [round(float(p), 3) for p in rng.uniform(0.85, 0.95, size=2)]
    gated = base_rule.replace(
        "conduct_ok(X).", "conduct_ok(X), zone_ok(X), perceived."
    )
    return MARINE_CONSTITUTION.replace(base_rule, gated) + (
        "\n% Speed zones: keep off the banks and the anchorage, in deep water.\n"
        f"1.0 :: zone_ok(X) :- distance(X, land) > {land_gap}, "
        f"distance(X, anchorage) > {anchorage_gap}, depth(X, water) > {deep_water}.\n"
        "1.0 :: zone_ok(X) :- \\+ underway.\n"
        "% Uncertain perception: either sensor confirms the vessel.\n"
        f"{sensor[0]} :: sensor1.\n"
        f"{sensor[1]} :: sensor2.\n"
        "1.0 :: perceived :- sensor1.\n"
        "1.0 :: perceived :- sensor2.\n"
    )


@dataclass(frozen=True)
class Vessel:
    """One generated transit: AIS identity and its true positions."""

    mmsi: str
    type_code: int
    draft: float
    t0: float  # epoch seconds of the first message
    dt: float
    truth: np.ndarray  # (steps + 1, 2) harbor-frame metres at t0 + k * dt


def channel_vessels(rng: np.random.Generator, count: int, steps: int,
                    dt_s: float, first_mmsi: int) -> list[Vessel]:
    """Vessels transiting the channel on the starboard side of the waterway.

    Transits start 1.7 km from the harbor centre at 2.4 to 2.8 m/s and keep
    about 170 m to starboard of the marked lane, near the 250 m edge of the
    lane band the harbor program allows, so the rules carry information
    for the filter; a slow random walk moves each vessel by tens of metres.
    """
    if steps * dt_s * _MAX_SPEED_MPS > 3400.0:
        raise ValueError(f"{steps} steps of {dt_s} s would leave the harbor box")
    vessels = []
    for i in range(count):
        type_code, (draft_lo, draft_hi) = _VESSEL_CLASSES[i % len(_VESSEL_CLASSES)]
        north = i % 2 == 0
        speed = float(rng.uniform(2.4, _MAX_SPEED_MPS))
        y = (-1700.0 + speed * dt_s * np.arange(steps + 1)) * (1.0 if north else -1.0)
        starboard = 1.0 if north else -1.0
        offset = starboard * float(rng.normal(170.0, 15.0)) + np.cumsum(
            rng.normal(0.0, 3.0, size=steps + 1)
        )
        x = np.interp(y, _LANE_Y, _LANE_X) + offset
        vessels.append(
            Vessel(
                mmsi=str(first_mmsi + i),
                type_code=type_code,
                draft=round(float(rng.uniform(draft_lo, draft_hi)), 1),
                t0=_AIS_EPOCH + dt_s * int(rng.integers(0, 120)),
                dt=dt_s,
                truth=np.column_stack([x, y]),
            )
        )
    return vessels


def _stamp(t: float) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def write_ais_csv(path, vessels: list[Vessel], rng: np.random.Generator,
                  noise_m: float) -> None:
    """NOAA-schema AIS CSV: noisy fixes, one invalid and one duplicate row each.

    The invalid row (empty latitude) and the exact duplicate exercise the
    ingest drop paths without changing what survives ingestion.
    """
    rows = []
    for v in vessels:
        fixes = v.truth + rng.normal(0.0, noise_m, size=v.truth.shape)
        lon, lat = HARBOR_FRAME.to_lonlat(fixes[:, 0], fixes[:, 1])
        step = np.diff(v.truth, axis=0)
        sog = float(np.linalg.norm(step, axis=1).mean()) / v.dt / _KNOT_MPS
        cog = 0.0 if step[:, 1].sum() > 0 else 180.0
        for k in range(len(fixes)):
            t = v.t0 + k * v.dt
            rows.append((t, f"{v.mmsi},{_stamp(t)},{lat[k]:.7f},{lon[k]:.7f},"
                            f"{sog:.2f},{cog:.1f},{v.type_code},{v.draft}"))
        dup = int(rng.integers(1, len(fixes)))
        rows.append((v.t0 + dup * v.dt, rows[-len(fixes) + dup][1]))
        t_bad = v.t0 + v.dt / 2
        rows.append((t_bad, f"{v.mmsi},{_stamp(t_bad)},,{lon[0]:.7f},{sog:.2f},"
                            f"{cog:.1f},{v.type_code},{v.draft}"))
    rows.sort(key=lambda r: r[0])
    lines = ["MMSI,BaseDateTime,LAT,LON,SOG,COG,VesselType,Draft"]
    lines.extend(text for _, text in rows)
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def corridor_scenario(seed: int, n_seeds: int, agents: int, steps: int,
                      particles: int) -> dict:
    """The compliant corridor ablation: one tagged corridor, a leaky program.

    Same world as the corridor acceptance experiment: a 50 m wide corridor,
    agents running along it under 50 m measurement noise, five trust ratios.
    """
    frame = LocalFrame(origin_lon=-74.02, origin_lat=40.64)

    def lonlat(x, y):
        lon, lat = frame.to_lonlat(x, y)
        return [float(lon), float(lat)]

    half = 25.0
    ring = [lonlat(-200, -half), lonlat(3600, -half), lonlat(3600, half),
            lonlat(-200, half), lonlat(-200, -half)]
    return {
        "name": "corridor-compliant",
        "seed": seed,
        "map": {"inline": {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"tags": ["corridor"]},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }],
        }},
        "perturbations": {"inline": {"corridor": {"translation_std_m": 12.0}}},
        "constitution": {"inline": (
            "1.0 :: constitution(X, Z) :- over(X, corridor).\n"
            "0.02 :: constitution(X, Z).\n"
        )},
        "grid": {"bbox": [-300.0, -300.0, 3900.0, 300.0], "rows": 21, "cols": 43},
        "starmap_samples": 50,
        "taus": [0.0, 0.25, 0.5, 0.75, 1.0],
        "n_seeds": n_seeds,
        "agents": {"count": agents, "mode": "compliant", "start": [0.0, 0.0],
                   "velocity": [5.0, 0.0], "steps": steps, "dt": 10.0,
                   "kick_std": 0.05},
        "filter": {"particles": particles, "dt": 10.0, "sigma_a": 0.3,
                   "measurement_noise_std": 50.0},
    }
