"""Deterministic spatial relations evaluated on a vector map.

Three relations are supported:

* over(point, tag): 1.0 if the point lies inside (or on the boundary of)
  any closed ring of a feature carrying the tag, else 0.0. Open polylines
  never contain points.
* distance(point, tag): Euclidean meters to the nearest vertex or edge
  segment of any feature carrying the tag; 0 inside a closed tagged ring.
  +inf when no feature carries the tag ("no feature" sentinel).
* depth(point, tag): inverse-distance-weighted (power 2) interpolation of
  the depth attributes of the 4 nearest tagged sounding vertices. The 4
  nearest are the first 4 soundings ordered by (squared distance, sounding
  index), so ties go to the lower index, and the weighted sums add them in
  that order. A point within 1e-9 m of a sounding (an exact hit) takes the
  depth of the first exact candidate in that order. A non-finite point
  has depth NaN.

All evaluators are vectorized over query points and accept an optional
replacement vertex array so randomized map variants can be evaluated
without rebuilding map structure. Depth finds its candidates with a k-d
tree built per call (Bentley, CACM 1975); over tests ring boundaries only
for points inside the ring's bbox grown by a margin.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.spatial import cKDTree

from .errors import NoDepthDataError
from .vectormap import VectorMap

_BOUNDARY_EPS = 1e-9
_IDW_NEIGHBORS = 4
# Ring tests skip points farther than this outside the ring's bbox: they
# are neither inside nor within _BOUNDARY_EPS of an edge. Generously above
# both _BOUNDARY_EPS and the rounding of the crossing abscissa.
_BBOX_MARGIN = 1e-6
# Candidates whose k-th and (k+1)-th squared distances lie within this
# relative gap are re-ranked against every sounding.
_TIE_RTOL = 1e-9

# Cap on the size of broadcast (points x segments or soundings) blocks.
_CHUNK_CELLS = 4_000_000


class RelationKind(str, enum.Enum):
    OVER = "over"
    DISTANCE = "distance"
    DEPTH = "depth"

    @classmethod
    def parse(cls, text: str) -> "RelationKind":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown relation {text!r}; expected over/distance/depth")


def _tagged_structure(vmap: VectorMap, tag: str):
    """Edge array, vertex indices, and rings restricted to tagged features."""
    fids = set(vmap.features_with_tag(tag))
    if not fids:
        return None
    vert_idx = np.flatnonzero(np.isin(vmap.feature_of_vertex, sorted(fids)))
    edge_idx = np.array(
        [(a, b) for a, b in vmap.edges if vmap.feature_of_vertex[a] in fids],
        dtype=int,
    ).reshape(-1, 2)
    rings = [r for r in vmap.rings if vmap.feature_of_vertex[r[0]] in fids]
    return vert_idx, edge_idx, rings


def _segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Min distance from each point to any of the segments, chunked."""
    n_pts = len(points)
    n_seg = len(starts)
    if n_seg == 0:
        return np.full(n_pts, np.inf)
    out = np.full(n_pts, np.inf)
    step = max(1, _CHUNK_CELLS // max(n_seg, 1))
    d = ends - starts  # (S, 2)
    seg_len2 = np.einsum("ij,ij->i", d, d)
    safe_len2 = np.where(seg_len2 > 0, seg_len2, 1.0)
    for lo in range(0, n_pts, step):
        p = points[lo : lo + step]  # (C, 2)
        rel = p[:, None, :] - starts[None, :, :]  # (C, S, 2)
        t = np.einsum("csj,sj->cs", rel, d) / safe_len2
        t = np.clip(t, 0.0, 1.0)
        closest = starts[None, :, :] + t[:, :, None] * d[None, :, :]
        diff = p[:, None, :] - closest
        dist2 = np.einsum("csj,csj->cs", diff, diff)
        out[lo : lo + step] = np.sqrt(dist2.min(axis=1))
    return out


def _inside_ring(points: np.ndarray, ring_xy: np.ndarray) -> np.ndarray:
    """Even-odd crossing test for one ring (boundary not handled here)."""
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    x1 = ring_xy[:, 0][None, :]
    y1 = ring_xy[:, 1][None, :]
    x2 = np.roll(ring_xy[:, 0], -1)[None, :]
    y2 = np.roll(ring_xy[:, 1], -1)[None, :]
    straddles = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
    hits = straddles & (x < x_cross)
    return hits.sum(axis=1) % 2 == 1


def eval_over_many(vmap: VectorMap, points: np.ndarray, tag: str,
                   vertices: np.ndarray | None = None) -> np.ndarray:
    verts = vmap.vertices if vertices is None else vertices
    struct = _tagged_structure(vmap, tag)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if struct is None:
        return np.zeros(len(points))
    _, _, rings = struct
    if not rings:
        return np.zeros(len(points))
    inside = np.zeros(len(points), dtype=bool)
    for ring in rings:
        ring_xy = verts[list(ring)]
        lo = ring_xy.min(axis=0) - _BBOX_MARGIN
        hi = ring_xy.max(axis=0) + _BBOX_MARGIN
        near = np.flatnonzero(((points >= lo) & (points <= hi)).all(axis=1))
        p = points[near]
        on_edge = _segment_distances(p, ring_xy, np.roll(ring_xy, -1, axis=0)) <= _BOUNDARY_EPS
        inside[near] |= _inside_ring(p, ring_xy) | on_edge
    return inside.astype(float)


def eval_distance_many(vmap: VectorMap, points: np.ndarray, tag: str,
                       vertices: np.ndarray | None = None) -> np.ndarray:
    verts = vmap.vertices if vertices is None else vertices
    struct = _tagged_structure(vmap, tag)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if struct is None:
        return np.full(len(points), np.inf)
    vert_idx, edge_idx, rings = struct
    starts = verts[edge_idx[:, 0]] if len(edge_idx) else np.zeros((0, 2))
    ends = verts[edge_idx[:, 1]] if len(edge_idx) else np.zeros((0, 2))
    dist = _segment_distances(points, starts, ends)
    # Isolated tagged vertices (and endpoints, redundantly) also count.
    tagged = verts[vert_idx]
    step = max(1, _CHUNK_CELLS // max(len(tagged), 1))
    for lo in range(0, len(points), step):
        p = points[lo : lo + step]
        diff = p[:, None, :] - tagged[None, :, :]
        d2 = np.einsum("cvj,cvj->cv", diff, diff)
        dist[lo : lo + step] = np.minimum(dist[lo : lo + step], np.sqrt(d2.min(axis=1)))
    if rings:
        inside = eval_over_many(vmap, points, tag, vertices=vertices) > 0
        dist = np.where(inside, 0.0, dist)
    return dist


def _ranked(points: np.ndarray, soundings: np.ndarray,
            idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of candidate indices ordered by (squared distance, index),
    with the squared distances in the same order."""
    diff = points[:, None, :] - soundings[idx]
    d2 = np.einsum("cvj,cvj->cv", diff, diff)
    order = np.lexsort((idx, d2))
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(d2, order, axis=1)


def _nearest_soundings(points: np.ndarray, soundings: np.ndarray,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of the k nearest soundings per point,
    ranked by (squared distance, index).

    The k-d tree proposes k + 1 candidates. A row whose k-th and (k+1)-th
    candidates tie, or nearly tie so that the tree's rounding could rank
    them apart from ours, is ranked against every sounding instead.
    """
    n = len(soundings)
    m = min(k + 1, n)
    _, idx = cKDTree(soundings).query(points, k=m)
    idx, d2 = _ranked(points, soundings, idx.reshape(len(points), m))
    if m < n:
        tied = np.flatnonzero(d2[:, k] - d2[:, k - 1] <= _TIE_RTOL * d2[:, k])
        step = max(1, _CHUNK_CELLS // n)
        for lo in range(0, len(tied), step):
            rows = tied[lo : lo + step]
            every = np.broadcast_to(np.arange(n), (len(rows), n))
            full_idx, full_d2 = _ranked(points[rows], soundings, every)
            idx[rows], d2[rows] = full_idx[:, :m], full_d2[:, :m]
    return idx[:, :k], d2[:, :k]


def eval_depth_many(vmap: VectorMap, points: np.ndarray, tag: str,
                    vertices: np.ndarray | None = None) -> np.ndarray:
    verts = vmap.vertices if vertices is None else vertices
    struct = _tagged_structure(vmap, tag)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if struct is None:
        raise NoDepthDataError(f"no feature carries tag {tag!r}")
    vert_idx = struct[0]
    has_depth = vert_idx[np.isfinite(vmap.depth_of_vertex[vert_idx])]
    if len(has_depth) == 0:
        raise NoDepthDataError(f"no depth soundings on features tagged {tag!r}")
    soundings = verts[has_depth]
    values = vmap.depth_of_vertex[has_depth]
    k = min(_IDW_NEIGHBORS, len(has_depth))
    out = np.full(len(points), np.nan)
    finite = np.isfinite(points).all(axis=1)
    nearest, nd2 = _nearest_soundings(points[finite], soundings, k)
    nval = values[nearest]
    exact = nd2 <= _BOUNDARY_EPS**2
    hit = exact.any(axis=1)
    # IDW with power 2; exact hits short-circuit to the node value.
    w = np.where(exact, 0.0, 1.0 / np.where(exact, 1.0, nd2))
    denom = w.sum(axis=1)
    idw = (w * nval).sum(axis=1) / np.where(denom > 0, denom, 1.0)
    first_exact = np.argmax(exact, axis=1)
    node_val = nval[np.arange(len(nval)), first_exact]
    out[finite] = np.where(hit, node_val, idw)
    return out


_EVALUATORS = {
    RelationKind.OVER: eval_over_many,
    RelationKind.DISTANCE: eval_distance_many,
    RelationKind.DEPTH: eval_depth_many,
}


def eval_relation_many(vmap: VectorMap, rel: RelationKind, points: np.ndarray,
                       tag: str, vertices: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a relation at many points, optionally on variant vertices."""
    return _EVALUATORS[RelationKind(rel)](vmap, points, tag, vertices=vertices)
