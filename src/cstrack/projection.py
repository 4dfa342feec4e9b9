"""Equirectangular local tangent-plane projection.

Converts lon/lat degrees to meters in a frame centered on a configurable
origin. Over a 20 x 20 km harbor-scale box the distortion against
great-circle distances stays below 0.1%, which is the accuracy contract
of this package; no geodesic corrections are attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class LocalFrame:
    """Tangent-plane frame anchored at (origin_lon, origin_lat) degrees."""

    origin_lon: float
    origin_lat: float

    def to_xy(self, lon, lat):
        """Project lon/lat (degrees, scalar or array) to meters east/north."""
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        scale = np.cos(np.radians(self.origin_lat))
        x = EARTH_RADIUS_M * np.radians(lon - self.origin_lon) * scale
        y = EARTH_RADIUS_M * np.radians(lat - self.origin_lat)
        return x, y

    def to_lonlat(self, x, y):
        """Inverse of to_xy."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        scale = np.cos(np.radians(self.origin_lat))
        lon = self.origin_lon + np.degrees(x / (EARTH_RADIUS_M * scale))
        lat = self.origin_lat + np.degrees(y / EARTH_RADIUS_M)
        return lon, lat
