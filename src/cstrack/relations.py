"""Deterministic spatial relations evaluated on a vector map.

Three relations are supported:

* over(point, tag): 1.0 if the point lies inside (or on the boundary of)
  any closed ring of a feature carrying the tag, else 0.0. Open polylines
  never contain points.
* distance(point, tag): Euclidean meters to the nearest vertex or edge
  segment of any feature carrying the tag; 0 inside a closed tagged ring.
  +inf when no feature carries the tag ("no feature" sentinel).
* depth(point, tag): inverse-distance-weighted (power 2) interpolation of
  the depth attributes of the 4 nearest tagged sounding vertices.

All evaluators are vectorized over query points and accept an optional
replacement vertex array so randomized map variants can be evaluated
without rebuilding map structure.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import NoDepthDataError
from .vectormap import VectorMap

_BOUNDARY_EPS = 1e-9
_IDW_NEIGHBORS = 4

# Cap on the size of broadcast (points x segments) blocks.
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


def _points_on_boundary(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    if len(starts) == 0:
        return np.zeros(len(points), dtype=bool)
    return _segment_distances(points, starts, ends) <= _BOUNDARY_EPS


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
        inside |= _inside_ring(points, ring_xy)
        starts = ring_xy
        ends = np.roll(ring_xy, -1, axis=0)
        inside |= _points_on_boundary(points, starts, ends)
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
    out = np.empty(len(points))
    step = max(1, _CHUNK_CELLS // max(len(soundings), 1))
    for lo in range(0, len(points), step):
        p = points[lo : lo + step]
        diff = p[:, None, :] - soundings[None, :, :]
        d2 = np.einsum("cvj,cvj->cv", diff, diff)
        if k < d2.shape[1]:
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        else:
            nearest = np.broadcast_to(np.arange(k), (len(p), k))
        nd2 = np.take_along_axis(d2, nearest, axis=1)
        nval = values[nearest]
        exact = nd2 <= _BOUNDARY_EPS**2
        hit = exact.any(axis=1)
        # IDW with power 2; exact hits short-circuit to the node value.
        w = np.where(exact, 0.0, 1.0 / np.where(exact, 1.0, nd2))
        denom = w.sum(axis=1)
        idw = (w * nval).sum(axis=1) / np.where(denom > 0, denom, 1.0)
        first_exact = np.argmax(exact, axis=1)
        node_val = nval[np.arange(len(p)), first_exact]
        out[lo : lo + step] = np.where(hit, node_val, idw)
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
