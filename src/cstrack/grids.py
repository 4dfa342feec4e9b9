"""Raster grid support: grid specification, the grid of a raster file,
bilinear interpolation, PGM dumps.

bilinear is the one raster read: starmap layers and compliance fields
alike are read through it, and it clamps every point into the raster's
bbox, so a point outside reads the edge.

A grid is a lattice of sample nodes spanning the bbox inclusively:
column j sits at xmin + j * (xmax - xmin) / (cols - 1), and analogously for
rows along y. Row 0 is the southern edge (smallest y). Flat arrays are
row-major: index = row * cols + col.

A starmap's layers and a compliance field are the rasters cstrack writes,
each in a raster file (jsonio.dump_rasters): a JSON header line, then the
raw float64 values. Both headers hold the grid as bbox and resolution
[rows, cols], read by raster_grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import ConfigurationError

# Queries this close (in node units) to an exact node snap onto it, so that
# node lookups return stored values bit-for-bit.
_NODE_SNAP = 1e-9

# The most nodes a grid may have; every layer and field allocates per node.
MAX_GRID_NODES = 1_000_000

# The largest |coordinate| of a grid bbox (m) and a track position (m), and
# of a bench agent's velocity and kick spread and the filter's start-cloud
# spreads: far beyond any local frame on Earth, and small enough that
# squared distances and the filter's squared residuals stay finite.
MAX_COORD = 1e8


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sample lattice: bbox in meters, rows x cols nodes."""

    bbox: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    rows: int
    cols: int

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.bbox
        if self.rows < 2 or self.cols < 2 or self.rows * self.cols > MAX_GRID_NODES:
            raise ConfigurationError(f"grid needs at least 2x2 nodes and at most "
                                     f"{MAX_GRID_NODES}, got {self.rows}x{self.cols}")
        if not (np.abs(self.bbox) <= MAX_COORD).all():
            raise ConfigurationError(f"grid bbox must be finite and within "
                                     f"[-{MAX_COORD:g}, {MAX_COORD:g}] m: {self.bbox}")
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
    def from_json(cls, obj: dict, prefix: str = "") -> "GridSpec":
        """The grid of a JSON object's bbox [xmin, ymin, xmax, ymax], rows and
        cols (at least 2 each); FormatError naming prefix + the key."""
        return cls(bbox=tuple(jsonio.floats(obj["bbox"], prefix + "bbox", 4).tolist()),
                   rows=jsonio.number(obj["rows"], prefix + "rows", integer=True, lo=2),
                   cols=jsonio.number(obj["cols"], prefix + "cols", integer=True, lo=2))


def raster_grid(header: dict) -> GridSpec:
    """The grid of a starmap or field file's header: bbox and resolution
    [rows, cols]; FormatError naming the key of a malformed value."""
    jsonio.floats(header["resolution"], "resolution", 2)
    rows, cols = header["resolution"]
    return GridSpec.from_json({"bbox": header["bbox"], "rows": rows, "cols": cols})


def _axis(coords: np.ndarray, lo: float, hi: float, n: int):
    """Cell index i and weights (f, 1 - f) of each coordinate on an axis of
    n nodes from lo to hi, from its fractional index u = (c - lo) / (hi -
    lo) * (n - 1), with c clipped into [lo, hi] (NaN to lo) so that u
    cannot overflow. Exact where f and 1 - f are at least _NODE_SNAP: the
    coordinate lies strictly inside the axis and off every snap window.
    Elsewhere (on or next to a grid line, clipped, or NaN) _snapped gives
    the weights."""
    u = np.fmin(np.fmax(coords, lo), hi)
    u -= lo
    u /= hi - lo
    u *= n - 1
    cell = np.floor(u)
    u -= cell
    return cell.astype(np.intp), u, 1.0 - u


def _snapped(coords: np.ndarray, lo: float, hi: float, n: int):
    """_axis for any coordinate, by the snap formula: the coordinate is
    clamped into [lo, hi], and an index within _NODE_SNAP node units of a
    node snaps onto it; a NaN coordinate reads cell 0 with NaN weights."""
    u = np.minimum(np.maximum(coords, lo), hi)
    u -= lo
    u /= hi - lo
    u *= n - 1
    snapped = np.rint(u)
    np.copyto(u, snapped, where=np.abs(u - snapped) < _NODE_SNAP)
    i = np.fmax(u, 0.0).astype(np.intp)
    np.minimum(i, n - 2, out=i)
    u -= i
    return i, u, 1.0 - u


def _stencil(grid: GridSpec, pts: np.ndarray):
    """Each point's cell and corner weights, for the point clamped into the
    bbox: k, the flat row-major index of the cell's lower-left node; the
    corners as (flat offset from k, wy, wx); and the positions of the
    near points, on or next to a grid line or outside the bbox, whose
    weights come from _snapped: only these can give a corner weight 0."""
    xmin, ymin, xmax, ymax = grid.bbox
    rows, cols = grid.rows, grid.cols
    j, fx, gx = _axis(pts[:, 0], xmin, xmax, cols)
    k, fy, gy = _axis(pts[:, 1], ymin, ymax, rows)
    least = np.minimum(fx, gx)
    np.minimum(least, fy, out=least)
    np.minimum(least, gy, out=least)
    near = np.flatnonzero(least < _NODE_SNAP)
    if near.size:
        j[near], fx[near], gx[near] = _snapped(pts[near, 0], xmin, xmax, cols)
        k[near], fy[near], gy[near] = _snapped(pts[near, 1], ymin, ymax, rows)
    k *= cols
    k += j
    return k, ((0, gy, gx), (1, gy, fx), (cols, fy, gx), (cols + 1, fy, fx)), near


def _blend(rasters: np.ndarray, k: np.ndarray, corners, dead=None) -> np.ndarray:
    """(m, N): for each of the m flat rasters, the corner values of each
    point's cell times their weights (v * wy * wx), summed corner by
    corner. dead[c] marks the points whose corner c is dropped (adds
    +0.0); each corner is read from a shifted view of the raster."""
    out = np.empty((len(rasters), len(k)))
    for flat, acc in zip(rasters, out):
        for c, (offset, wy, wx) in enumerate(corners):
            term = flat[offset:].take(k)
            term *= wy
            term = np.multiply(term, wx, out=term if c else acc)  # corner 0 starts acc
            if dead is not None:
                term[dead[c]] = 0.0
            if c:
                acc += term
    return out


def nodes_read_exactly(grid: GridSpec) -> bool:
    """Whether bilinear at grid.node_points() returns the stored values
    plus 0.0: each node's fractional index snaps to its own integer (the
    nodes lie in the bbox, as linspace keeps both ends exact). False only
    where the node spacing is so small beside the coordinates that
    rounding moves a node off its index (a bbox 1e-3 m wide at x = 1e4 m,
    at 5 nodes a side)."""
    xmin, ymin, xmax, ymax = grid.bbox
    return all(np.array_equal(np.add(*_snapped(nodes, lo, hi, n)[:2]), np.arange(n))
               for nodes, lo, hi, n in ((grid.xs, xmin, xmax, grid.cols),
                                        (grid.ys, ymin, ymax, grid.rows)))


def bilinear(grid: GridSpec, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a (rows, cols) value raster at query points,
    or of an (m, rows, cols) stack of rasters, giving (m, N), through one
    stencil.

    Each point is clamped into the bbox first, so a point outside reads
    the raster's edge (constant extrapolation) and a NaN point reads NaN.
    A NaN cell propagates into a query exactly when it has a nonzero
    weight there, so a query on a grid line or at a node reads only the
    nodes it lies between, and a query at a node returns its stored value.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-2:] != (grid.rows, grid.cols) or values.ndim not in (2, 3):
        raise ConfigurationError(
            f"raster shape {values.shape} does not match grid {grid.rows}x{grid.cols}"
        )
    rasters = values.reshape(-1, grid.rows * grid.cols)
    k, corners, near = _stencil(grid, np.atleast_2d(np.asarray(points, dtype=float)))
    out = _blend(rasters, k, corners)
    # Only near points have corners at weight 0, whose NaN * 0 would be
    # NaN: blend them again with those corners dropped.
    if near.size:
        corners = [(offset, wy[near], wx[near]) for offset, wy, wx in corners]
        out[:, near] = _blend(rasters, k[near], corners,
                              [(wy == 0) | (wx == 0) for _, wy, wx in corners])
    return out if values.ndim == 3 else out[0]


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
    with jsonio.atomic_write(path, encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
