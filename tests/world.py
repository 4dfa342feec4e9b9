"""The corridor world of cstrack.demo as files, for CLI and acceptance tests.

Its map, perturbation config and constitution, and an AIS recording of a
vessel running along the corridor axis.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from cstrack.demo import (
    CORRIDOR_CONSTITUTION,
    CORRIDOR_GRID,
    CORRIDOR_ORIGIN,
    CORRIDOR_PERTURBATIONS,
    corridor_geojson,
)
from cstrack.projection import LocalFrame

FRAME = LocalFrame(*CORRIDOR_ORIGIN)

# The world's origin and grid bbox as CLI flags: --origin=-74.02,40.64 and
# --bbox=-300,-300,3900,300.
ORIGIN_FLAG = f"--origin={CORRIDOR_ORIGIN[0]},{CORRIDOR_ORIGIN[1]}"
BBOX_FLAG = "--bbox=" + ",".join(f"{v:g}" for v in CORRIDOR_GRID["bbox"])


def ais_csv_text(steps: int = 30, dt_s: float = 60.0, speed_mps: float = 1.8,
                 vessel_id: str = "367000001", vessel_type: int = 70,
                 draft: float = 10.5) -> str:
    lines = ["MMSI,BaseDateTime,LAT,LON,SOG,COG,VesselType,Draft"]
    t0 = datetime(2020, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
    sog_kn = speed_mps / 0.514444
    for k in range(steps):
        x = k * dt_s * speed_mps
        lon, lat = FRAME.to_lonlat(x, 0.0)
        stamp = datetime.fromtimestamp(t0.timestamp() + k * dt_s, tz=timezone.utc)
        lines.append(
            f"{vessel_id},{stamp.strftime('%Y-%m-%dT%H:%M:%S')},"
            f"{float(lat):.7f},{float(lon):.7f},{sog_kn:.2f},90.0,"
            f"{vessel_type},{draft}"
        )
    return "\n".join(lines) + "\n"


def write_world(tmp_path):
    """Write map, perturbations, constitution, and AIS CSV; return paths."""
    paths = {
        "map": tmp_path / "corridor.geojson",
        "perturb": tmp_path / "perturbations.json",
        "constitution": tmp_path / "corridor.cst",
        "csv": tmp_path / "ais.csv",
    }
    paths["map"].write_text(json.dumps(corridor_geojson(), indent=1))
    paths["perturb"].write_text(json.dumps(CORRIDOR_PERTURBATIONS, indent=1))
    paths["constitution"].write_text(CORRIDOR_CONSTITUTION)
    paths["csv"].write_text(ais_csv_text())
    return paths
