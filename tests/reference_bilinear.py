"""Reference path for bilinear interpolation: the kernel as it stood before
grids.bilinear shared one stencil per point batch.

_fractional_index computes every point's fractional index and snaps it
onto its node when within _NODE_SNAP node units; _blend sums the four
corner terms v * wy * wx corner by corner. bilinear and bilinear_clamped
run them on one raster at a time, bilinear_clamped on a clamped copy of
the points. Tests compare grids.bilinear, grids.bilinear_clamped,
starmap.interpolate_many and grids.nodes_read_exactly with them bit for
bit.
"""

from __future__ import annotations

import numpy as np

from cstrack.errors import ConfigurationError
from cstrack.grids import GridSpec, clamp_to_bbox

_NODE_SNAP = 1e-9


def _fractional_index(coords: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    u = coords - lo
    u /= hi - lo
    u *= n - 1
    snapped = np.rint(u)
    np.copyto(u, snapped, where=np.abs(u - snapped) < _NODE_SNAP)
    return u


def _blend(grid: GridSpec, flat: np.ndarray, pts: np.ndarray, clip: bool,
           masked: bool) -> np.ndarray:
    """The four corner values of each point's cell times their weights
    (v * gy * gx), summed corner by corner. clip=False needs points in the
    bbox, whose fractional indices lie in the raster already. masked drops
    the corners at weight 0: NaN * 0 would be NaN."""
    xmin, ymin, xmax, ymax = grid.bbox
    rows, cols = grid.rows, grid.cols
    fx = _fractional_index(pts[:, 0], xmin, xmax, cols)
    fy = _fractional_index(pts[:, 1], ymin, ymax, rows)
    if clip:
        np.minimum(np.maximum(fx, 0.0, out=fx), cols - 1.0, out=fx)
        np.minimum(np.maximum(fy, 0.0, out=fy), rows - 1.0, out=fy)
    # Offsets fx, fy within the cell, in place; k is the flat row-major
    # index of the cell's lower-left node.
    j0 = fx.astype(int)
    np.maximum(np.minimum(j0, cols - 2, out=j0), 0, out=j0)
    k = fy.astype(int)
    np.maximum(np.minimum(k, rows - 2, out=k), 0, out=k)
    fx -= j0
    fy -= k
    k *= cols
    k += j0
    gx, gy = 1.0 - fx, 1.0 - fy
    out = None
    for node, wy, wx in ((k, gy, gx), (k + 1, gy, fx), (k + cols, fy, gx),
                         (k + cols + 1, fy, fx)):
        term = flat.take(node)
        term *= wy
        term *= wx
        if masked:
            term = np.where((wy != 0) & (wx != 0), term, 0.0)
        if out is None:
            out = term
        else:
            out += term
    return out


def nodes_read_exactly(grid: GridSpec) -> bool:
    """Whether bilinear at grid.node_points() returns the stored values
    plus 0.0: each node's fractional index snaps to its own integer (the
    nodes lie in the bbox, as linspace keeps both ends exact). False only
    where the node spacing is so small beside the coordinates that
    rounding moves a node off its index (a bbox 1e-3 m wide at x = 1e4 m,
    at 5 nodes a side)."""
    xmin, ymin, xmax, ymax = grid.bbox
    return all(np.array_equal(_fractional_index(axis, lo, hi, n), np.arange(n))
               for axis, lo, hi, n in ((grid.xs, xmin, xmax, grid.cols),
                                       (grid.ys, ymin, ymax, grid.rows)))


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
    out = _blend(grid, values.ravel(), pts, clip=True, masked=True)
    out[~grid.contains(pts)] = np.nan
    return out


def bilinear_clamped(grid: GridSpec, values: np.ndarray, points,
                     masked: bool) -> np.ndarray:
    """bilinear(grid, values, clamp_to_bbox(points, grid.bbox)), bit for bit,
    without the bbox test and the clipping (a NaN point stays NaN through
    the arithmetic). masked=False also skips the zero-weight masks: exact if
    every cell is finite with a clear sign bit, so that a corner at weight 0
    adds +0.0."""
    pts = clamp_to_bbox(points, grid.bbox)
    return _blend(grid, np.asarray(values, dtype=float).ravel(), pts, clip=False,
                  masked=masked)
