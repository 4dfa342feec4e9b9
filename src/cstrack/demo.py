"""A small self-contained harbor world for demos, docs, and benchmarks.

The map is a ~4 x 4 km channel between two land banks, a marked waterway
along the channel axis, an anchorage pocket, and a lattice of depth
soundings (deep in the channel, shoaling toward the banks). The bundled
rule program encodes cargo-vessel conduct: stay afloat, keep under-keel
clearance, hold near the marked lane while underway, anchor only inside
the anchorage.
"""

from __future__ import annotations

import pathlib

import numpy as np

from . import jsonio
from .projection import LocalFrame

HARBOR_ORIGIN = (-74.05, 40.66)  # lon, lat
_FRAME = LocalFrame(origin_lon=HARBOR_ORIGIN[0], origin_lat=HARBOR_ORIGIN[1])

HARBOR_BBOX_M = (-2000.0, -2000.0, 2000.0, 2000.0)

MARINE_CONSTITUTION = """\
% Conduct rules for a cargo vessel in the demo harbor.
% Perception facts (replace per tracked vessel):
1.0 :: purpose(cargo).
0.95 :: underway.

% Safe water: off land, with enough water under the keel.
1.0 :: afloat(X) :- \\+ over(X, land).
1.0 :: clearance_ok(X) :- depth(X, water) > 10.5.
1.0 :: safe_water(X) :- afloat(X), clearance_ok(X).

% Deep-draft traffic keeps near the marked waterway while underway.
1.0 :: lane_bound :- purpose(cargo).
1.0 :: lane_bound :- purpose(tanker).
1.0 :: near_lane(X) :- distance(X, way) < 250.
1.0 :: lane_ok(X) :- lane_bound, near_lane(X).
1.0 :: lane_ok(X) :- \\+ lane_bound.

% Either make way in the lane or lie in the anchorage.
1.0 :: conduct_ok(X) :- underway, lane_ok(X).
1.0 :: conduct_ok(X) :- \\+ underway, over(X, anchorage).

0.98 :: constitution(X, Z) :- safe_water(X), conduct_ok(X).
0.02 :: constitution(X, Z).
"""

HARBOR_PERTURBATIONS = {
    "land": {"translation_std_m": 20.0},
    "way": {"translation_std_m": 10.0},
    "anchorage": {"translation_std_m": 15.0},
    "*": {"translation_std_m": 5.0},
}


def _lonlat(x: float, y: float) -> list[float]:
    lon, lat = _FRAME.to_lonlat(x, y)
    return [float(lon), float(lat)]


def _polygon(points, tags) -> dict:
    ring = [_lonlat(x, y) for x, y in points]
    ring.append(ring[0])
    return {
        "type": "Feature",
        "properties": {"tags": tags},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def _line(points, tags) -> dict:
    return {
        "type": "Feature",
        "properties": {"tags": tags},
        "geometry": {
            "type": "LineString",
            "coordinates": [_lonlat(x, y) for x, y in points],
        },
    }


def _sounding(x: float, y: float, depth: float) -> dict:
    return {
        "type": "Feature",
        "properties": {"tags": ["water", "sounding"], "depth": round(depth, 1)},
        "geometry": {"type": "Point", "coordinates": _lonlat(x, y)},
    }


def channel_depth_m(x: float, y: float) -> float:
    """Deep dredged channel along x = 0, shoaling toward the banks."""
    return 6.0 + 10.0 * float(np.exp(-0.5 * (x / 700.0) ** 2))


def harbor_geojson() -> dict:
    west_bank = _polygon(
        [(-2000, -2000), (-1400, -2000), (-1200, 0), (-1400, 2000), (-2000, 2000)],
        ["land"],
    )
    east_bank = _polygon(
        [(1400, -2000), (2000, -2000), (2000, 2000), (1400, 2000), (1150, 400),
         (1200, -600)],
        ["land"],
    )
    waterway = _line([(0, -2000), (0, -600), (-100, 500), (0, 2000)], ["way"])
    anchorage = _polygon(
        [(500, -1500), (1000, -1500), (1000, -900), (500, -900)], ["anchorage"]
    )
    features = [west_bank, east_bank, waterway, anchorage]
    for x in np.linspace(-1100.0, 1100.0, 12):
        for y in np.linspace(-1900.0, 1900.0, 14):
            features.append(_sounding(float(x), float(y), channel_depth_m(x, y)))
    return {"type": "FeatureCollection", "features": features}


def channel_track(steps: int = 40, dt_s: float = 30.0, speed_mps: float = 4.0,
                  x0: float = 0.0, y0: float = -1600.0) -> np.ndarray:
    """A straight run up the channel; ground truth for demo tracking."""
    ts = np.arange(steps) * dt_s
    return np.column_stack([np.full(steps, x0), y0 + speed_mps * ts])


def write_demo(directory) -> dict[str, pathlib.Path]:
    """Write the demo world files; returns name -> path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "map": directory / "harbor.geojson",
        "perturbations": directory / "perturbations.json",
        "constitution": directory / "marine.cst",
    }
    jsonio.dump(harbor_geojson(), paths["map"])
    jsonio.dump(HARBOR_PERTURBATIONS, paths["perturbations"])
    paths["constitution"].write_text(MARINE_CONSTITUTION)
    return paths
