"""Raster grid support: grid specification, bilinear interpolation, PGM dumps.

A grid is a lattice of sample nodes spanning the bbox inclusively:
column j sits at xmin + j * (xmax - xmin) / (cols - 1), and analogously for
rows along y. Row 0 is the southern edge (smallest y). Flat arrays are
row-major: index = row * cols + col.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Queries this close (in node units) to an exact node snap onto it, so that
# node lookups return stored values bit-for-bit.
_NODE_SNAP = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sample lattice: bbox in meters, rows x cols nodes."""

    bbox: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    rows: int
    cols: int

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.bbox
        if self.rows < 2 or self.cols < 2:
            raise ConfigurationError(
                f"grid needs at least 2x2 nodes, got {self.rows}x{self.cols}"
            )
        if not np.isfinite(self.bbox).all():
            raise ConfigurationError(f"grid bbox must be finite: {self.bbox}")
        if not (xmax > xmin and ymax > ymin):
            raise ConfigurationError(f"grid bbox has no area: {self.bbox}")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.bbox[0], self.bbox[2], self.cols)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.bbox[1], self.bbox[3], self.rows)

    def node_points(self) -> np.ndarray:
        """All node coordinates as an (rows * cols, 2) array, row-major."""
        xx, yy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([xx.ravel(), yy.ravel()])

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        xmin, ymin, xmax, ymax = self.bbox
        return (
            (points[:, 0] >= xmin)
            & (points[:, 0] <= xmax)
            & (points[:, 1] >= ymin)
            & (points[:, 1] <= ymax)
        )

    @classmethod
    def from_json(cls, obj: dict) -> "GridSpec":
        try:
            bbox = tuple(float(v) for v in obj["bbox"])
            return cls(bbox=bbox, rows=int(obj["rows"]), cols=int(obj["cols"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad grid spec: {exc}") from exc


def _fractional_index(coords: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    u = (coords - lo) / (hi - lo) * (n - 1)
    snapped = np.round(u)
    u = np.where(np.abs(u - snapped) < _NODE_SNAP, snapped, u)
    return u


def bilinear(grid: GridSpec, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a (rows, cols) value raster at query points.

    Points outside the bbox yield NaN. A NaN cell propagates into a query
    exactly when it has a nonzero weight there, so a query on a grid line
    or at a node reads only the nodes it lies between, and a query at a
    node returns its stored value.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.rows, grid.cols):
        raise ConfigurationError(
            f"raster shape {values.shape} does not match grid {grid.rows}x{grid.cols}"
        )
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = grid.contains(pts)

    xmin, ymin, xmax, ymax = grid.bbox
    u = _fractional_index(pts[:, 0], xmin, xmax, grid.cols)
    v = _fractional_index(pts[:, 1], ymin, ymax, grid.rows)
    u = np.clip(u, 0.0, grid.cols - 1.0)
    v = np.clip(v, 0.0, grid.rows - 1.0)

    j0 = np.clip(np.floor(u).astype(int), 0, grid.cols - 2)
    i0 = np.clip(np.floor(v).astype(int), 0, grid.rows - 2)
    fx = u - j0
    fy = v - i0

    gx = 1.0 - fx
    gy = 1.0 - fy
    # A node at weight 0 is dropped from the blend: NaN * 0 would be NaN.
    x0, x1, y0, y1 = gx != 0, fx != 0, gy != 0, fy != 0
    out = (
        np.where(y0 & x0, values[i0, j0] * gy * gx, 0.0)
        + np.where(y0 & x1, values[i0, j0 + 1] * gy * fx, 0.0)
        + np.where(y1 & x0, values[i0 + 1, j0] * fy * gx, 0.0)
        + np.where(y1 & x1, values[i0 + 1, j0 + 1] * fy * fx, 0.0)
    )
    return np.where(inside, out, np.nan)


def clamp_to_bbox(points, bbox) -> np.ndarray:
    """(N, 2) points with each coordinate clipped into bbox (xmin, ymin,
    xmax, ymax): constant extrapolation at the edge of a raster."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xmin, ymin, xmax, ymax = bbox
    return np.column_stack(
        [np.clip(pts[:, 0], xmin, xmax), np.clip(pts[:, 1], ymin, ymax)]
    )


def write_pgm(path, values: np.ndarray, vmin: float | None = None,
              vmax: float | None = None) -> None:
    """Dump a raster as an ASCII PGM image for quick visual inspection.

    The top image row is the grid's northern edge. NaN cells map to 0.
    """
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    if vmin is None:
        vmin = float(finite.min(initial=0.0)) if finite.size else 0.0
    if vmax is None:
        vmax = float(finite.max(initial=1.0)) if finite.size else 1.0
    if vmax <= vmin:
        vmax = vmin + 1.0
    scaled = np.clip((values - vmin) / (vmax - vmin), 0.0, 1.0)
    scaled = np.where(np.isfinite(values), scaled, 0.0)
    pixels = np.rint(scaled * 255).astype(int)
    flipped = pixels[::-1]  # row 0 of the grid is south; images start north
    lines = ["P2", f"{values.shape[1]} {values.shape[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in flipped)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
