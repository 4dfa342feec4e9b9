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

`eval_relation_many` evaluates one relation at many points on the map's
own vertices, on one replacement vertex array (V, 2), or on a whole stack
of randomized map variants (n, V, 2) at once; the tagged map structure is
found once per call. Each relation tests every variant only where the
variants can disagree. The three pruning rules below are exact: the stack
gives the bits of each variant evaluated alone with every test made.

All three start from a reference position ref_j of each vertex j, its mean
over the stack, and b_j, its largest displacement from ref_j. Moving each
vertex linearly from ref_j to its place in a variant moves every point of
an edge by at most the larger b of its two ends.

Over. Let g(x) be the least, over a ring's edges, of x's distance to the
reference edge less that edge's b. If g(x) > _BOUNDARY_EPS, no variant's
ring comes within _BOUNDARY_EPS of x, and x's even-odd crossing parity is
the same in every variant as in the reference ring: parity is the winding
number mod 2, which no deformation of a closed curve that never crosses x
can change (Hormann & Agathos, CGTA 2001, on point-in-polygon tests). So
x is tested once, on the reference ring, and only the band of points
with g(x) <= _BOUNDARY_EPS gets the test in every variant.

Distance. For each tagged segment s (edges, and vertices as zero-length
segments) with reference distance r_s(x) and b_s the larger b of its
ends, every variant's distance d_s(x) lies in [r_s - b_s, r_s + b_s]. So
no variant's nearest segment is farther than U(x) = min_t (r_t + b_t), a
segment with r_s - b_s > U(x) is never nearest, and each point is measured
in every variant against its candidates only. Points sharing a candidate
set are measured together; the minimum over a point's candidates is the
minimum over all segments, bit for bit, in any order.

Depth ranks each point's soundings over one candidate set per call. Let
U(x) be the k-th smallest |x - ref_j| + b_j over any set of soundings: in
every variant k of them lie within U(x) of x, so a sounding with
|x - ref_j| - b_j > U(x) is strictly farther than the k-th nearest and
never ranks. A uniform-grid bucket index over the reference positions
(Bentley, Weide and Yao, ACM TOMS 1980), square cells of about one
sounding each, finds the candidates in two passes over all points at
once. First it searches ring by ring around each point's cell until the
block of rings holds k soundings, and takes U over them. Then it lists
every sounding within that U + max b of x, each row of cells over the
disk's chord, and takes U again over all of them: they hold the k nearest
in the reference, so this U is never looser than the largest
|x - ref_j| + b_j among those k. Points with the same number c of
candidates are ranked together, so that every pass runs over whole rows
rather than over the c candidates of one point: each point's coordinates
repeat across its c candidates, a block of B variants gives one (B, P, c)
array of squared distances, and the k nearest are gathered rank by rank,
by flat offsets, into (k, B, P) squared distances and depths whose k
rows _idw adds in rank order.

Every bound is widened by a margin far above the rounding of the distances
it compares (_CANDIDATE_SLACK); a wider margin only tests more points or
keeps more candidates. A non-finite point falls in every band and keeps
every segment, so over and distance give it the full test (over 0,
distance NaN).
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import NoDepthDataError
from .vectormap import VectorMap

_BOUNDARY_EPS = 1e-9
_IDW_NEIGHBORS = 4
# The pruning bounds are widened by this much of (the bound + the
# coordinate scale + 1 m), far above the rounding of the distances they
# compare, of the crossing abscissa and of the squares' underflow.
_CANDIDATE_SLACK = 1e-9

# Cap on the cells of one (variants x points [x candidates]) block, and
# on the (points x soundings) slots of one block of the depth bucket search.
_BLOCK_CELLS = 32_768


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
    rings = [list(r) for r in vmap.rings if vmap.feature_of_vertex[r[0]] in fids]
    return vert_idx, edge_idx, rings


def _blocks(n: int, cells_per_variant: int):
    """Slices of the variant axis holding about _BLOCK_CELLS cells each."""
    step = max(1, _BLOCK_CELLS // max(cells_per_variant, 1))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _segment_d2(px, py, sx, sy, ex, ey):
    """Squared distances from points (px, py) to the segments from (sx, sy)
    to (ex, ey), broadcast against each other."""
    dx, dy = ex - sx, ey - sy
    len2 = dx * dx + dy * dy
    t = ((px - sx) * dx + (py - sy) * dy) / np.where(len2 > 0, len2, 1.0)
    np.clip(t, 0.0, 1.0, out=t)
    gx = px - (sx + t * dx)
    gy = py - (sy + t * dy)
    return gx * gx + gy * gy


def _segment_distances(points: np.ndarray, starts: np.ndarray,
                       ends: np.ndarray) -> np.ndarray:
    """(B, P) min distance from each point to any of each variant's
    segments, given as (B, S, 2) starts and ends; one segment at a time."""
    px, py = points[:, 0], points[:, 1]
    best = np.full((starts.shape[0], len(points)), np.inf)
    for s in range(starts.shape[1]):
        np.minimum(best, _segment_d2(px, py, starts[:, s, 0, None], starts[:, s, 1, None],
                                     ends[:, s, 0, None], ends[:, s, 1, None]), out=best)
    return np.sqrt(best)


def _reference(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean position of each vertex of an (n, k, 2) stack, and each
    vertex's largest displacement from it."""
    ref = xy.mean(axis=0)
    return ref, np.sqrt(((xy - ref) ** 2).sum(axis=-1)).max(axis=0)


def _reference_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Distances (P,) from the points to each reference segment in turn."""
    px, py = points[:, 0], points[:, 1]
    for (sx, sy), (ex, ey) in zip(starts, ends):
        yield np.sqrt(_segment_d2(px, py, sx, sy, ex, ey))


def _slack(bound: np.ndarray, points: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The margin _CANDIDATE_SLACK gives a bound on distances between the
    finite points and the coordinates xy."""
    finite = points[np.isfinite(points).all(axis=1)]
    scale = max(np.abs(finite).max(initial=0.0), np.abs(xy).max(initial=0.0))
    return _CANDIDATE_SLACK * (np.abs(bound) + scale + 1.0)


def _inside_ring(points: np.ndarray, ring_xy: np.ndarray) -> np.ndarray:
    """(B, P) even-odd crossing test of each variant's ring (B, R, 2),
    one edge at a time (boundary not handled here)."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros((ring_xy.shape[0], len(points)), dtype=bool)
    nxt = np.roll(ring_xy, -1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for e in range(ring_xy.shape[1]):
            x1, y1 = ring_xy[:, e, 0, None], ring_xy[:, e, 1, None]
            x2, y2 = nxt[:, e, 0, None], nxt[:, e, 1, None]
            x_cross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
            inside ^= ((y1 > y) != (y2 > y)) & (x < x_cross)
    return inside


def _over(points: np.ndarray, stack: np.ndarray, rings,
          stats: dict | None = None) -> np.ndarray:
    inside = np.zeros((len(stack), len(points)))
    # Points out of a ring's band take its reference ring's answer.
    shared = np.zeros(len(points), dtype=bool)
    in_band = np.zeros(len(points), dtype=bool)
    for ring in rings:
        ring_xy = stack[:, ring]
        ref, b = _reference(ring_xy)
        # Clearance of each point from the ring in every variant: the
        # distance to each reference edge less the edge's largest move.
        clear = np.full(len(points), np.inf)
        for d, b_edge in zip(_reference_distances(points, ref, np.roll(ref, -1, axis=0)),
                             np.maximum(b, np.roll(b, -1))):
            np.minimum(clear, d - b_edge, out=clear)
        # Written so that NaN (a non-finite point) falls in the band.
        far = clear > _BOUNDARY_EPS + _slack(clear, points, ring_xy)
        band = np.flatnonzero(~far)
        in_band[band] = True
        shared[far] |= _inside_ring(points[far], ref[None])[0]
        p = points[band]
        for blk in _blocks(len(stack), len(band)):
            gap = _segment_distances(p, ring_xy[blk], np.roll(ring_xy[blk], -1, axis=1))
            hit = _inside_ring(p, ring_xy[blk]) | (gap <= _BOUNDARY_EPS)
            inside[blk, band] = np.maximum(inside[blk, band], hit)
    inside[:, shared] = 1.0
    if stats is not None:
        stats["band_fraction"] = float(in_band.mean())
    return inside


def _distance(points: np.ndarray, stack: np.ndarray, vert_idx, edge_idx, rings,
              stats: dict | None = None) -> np.ndarray:
    # Tagged vertices (isolated ones, and endpoints redundantly) count as
    # zero-length segments.
    start_idx = np.concatenate([edge_idx[:, 0], vert_idx])
    end_idx = np.concatenate([edge_idx[:, 1], vert_idx])
    starts, ends = stack[:, start_idx], stack[:, end_idx]
    ref_a, b_a = _reference(starts)
    ref_b, b_b = _reference(ends)
    b = np.maximum(b_a, b_b)
    # No variant's nearest segment is farther than upper.
    upper = np.full(len(points), np.inf)
    for r, b_s in zip(_reference_distances(points, ref_a, ref_b), b):
        np.minimum(upper, r + b_s, out=upper)
    upper += _slack(upper, points, starts)
    # Written so that NaN (a non-finite point) keeps every segment.
    keep = np.array([~(r - b_s > upper) for r, b_s in
                     zip(_reference_distances(points, ref_a, ref_b), b)])
    counts = keep.sum(axis=0)
    # One pass per distinct candidate set, over the points that share it.
    packed = np.packbits(keep, axis=0)
    order = np.lexsort(packed)
    key = packed[:, order]
    new_set = np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + 1
    out = np.empty((len(stack), len(points)))
    for sel in np.split(order, new_set):
        segs = np.flatnonzero(keep[:, sel[0]])
        p = points[sel]
        for blk in _blocks(len(stack), len(sel)):
            out[blk, sel] = _segment_distances(p, starts[blk][:, segs], ends[blk][:, segs])
    if stats is not None:
        stats["segments_mean"] = float(counts.mean())
        stats["segments_max"] = int(counts.max())
    if rings:
        out[_over(points, stack, rings, stats) > 0] = 0.0
    return out


def _idw(nd2: np.ndarray, nval: np.ndarray) -> np.ndarray:
    """IDW with power 2, given rank by rank: row r of the (k, ...) squared
    distances nd2 and values nval holds every point's r-th nearest node.
    The weighted sums add the k rows in rank order, each a whole-row pass;
    exact hits short-circuit to the first exact node's value."""
    exact = nd2 <= _BOUNDARY_EPS**2
    # A zero or subnormal nd2 divides by zero or overflows; it is an exact
    # hit, whose weight is overwritten next.
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / nd2
    np.copyto(w, 0.0, where=exact)
    wv = w * nval
    denom, out = w[0], wv[0]
    for r in range(1, len(w)):
        denom += w[r]
        out += wv[r]
    out /= np.where(denom > 0, denom, 1.0)
    if exact.any():
        hit = exact.any(axis=0)
        first = np.argmax(exact[:, hit], axis=0)
        out[hit] = nval[:, hit][first, np.arange(len(first))]
    return out


def _runs(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers starts[i], ..., starts[i] + counts[i] - 1, run after run,
    and the run i each one belongs to."""
    run = np.repeat(np.arange(len(counts)), counts)
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts), run


def _kth_smallest(values: np.ndarray, owner: np.ndarray, owners: int, k: int) -> np.ndarray:
    """The k-th smallest of each owner's values, given owner by owner (owner
    ascending); every owner has at least k."""
    counts = np.bincount(owner, minlength=owners)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.full((owners, counts.max()), np.inf)
    padded[owner, rank] = values
    return np.partition(padded, k - 1, axis=1)[:, k - 1]


def _point_blocks(counts: np.ndarray):
    """Index arrays of the points, taken in order of their positive counts,
    in blocks whose length times largest count is at most _BLOCK_CELLS (or
    one point)."""
    order = np.argsort(counts, kind="stable")
    size = counts[order]
    lo = 0
    while lo < len(order):
        widest = size[min(len(order), lo + max(1, _BLOCK_CELLS // size[lo])) - 1]
        hi = lo + max(1, _BLOCK_CELLS // widest)
        yield order[lo:hi]
        lo = hi


class _Buckets:
    """A uniform-grid bucket index of m positions (Bentley, Weide and Yao,
    ACM TOMS 1980): square cells of side h over the positions' bbox, about
    one position per cell, the positions listed cell by cell (row by row,
    index-sorted within a cell), and a summed-area table of the counts."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        m = len(x)
        self.x0, self.y0 = x.min(), y.min()
        wide, high = x.max() - self.x0, y.max() - self.y0
        h = max(np.sqrt(wide) * np.sqrt(high / m), max(wide, high) / m)
        self.h = h if h > 0 else 1.0  # coincident positions: one cell
        self.cols = int(np.floor(wide / self.h)) + 1
        self.rows = int(np.floor(high / self.h)) + 1
        cell = self.row(y) * self.cols + self.col(x)
        self.order = np.argsort(cell, kind="stable")
        count = np.bincount(cell, minlength=self.rows * self.cols)
        self.start = np.concatenate([[0], np.cumsum(count)])
        table = np.zeros((self.rows + 1, self.cols + 1), dtype=np.intp)
        table[1:, 1:] = count.reshape(self.rows, self.cols).cumsum(axis=0).cumsum(axis=1)
        self.table = table.ravel()

    # Cell coordinates are clipped before the cast, so that no coordinate
    # overflows intp; a clipped range still holds every cell it should.
    def col(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((x - self.x0) / self.h), 0, self.cols - 1).astype(np.intp)

    def row(self, y: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((y - self.y0) / self.h), 0, self.rows - 1).astype(np.intp)

    def count(self, c0, c1, r0, r1) -> np.ndarray:
        """Positions in each block of columns c0..c1 and rows r0..r1."""
        t, w = self.table, self.cols + 1
        lo, hi = r0 * w, (r1 + 1) * w
        return t[hi + c1 + 1] - t[lo + c1 + 1] - t[hi + c0] + t[lo + c0]

    def members(self, row, c0, c1) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the positions in columns c0..c1 of each given row (one
        run of the cell-by-cell list each), and the row each belongs to."""
        base = row * self.cols
        lo = self.start[base + c0]
        pos, run = _runs(lo, self.start[base + c1 + 1] - lo)
        return self.order[pos], run


def _depth_candidates(points: np.ndarray, soundings: np.ndarray, k: int):
    """Candidate soundings per point: a superset of the k nearest in every
    variant of the (n, m, 2) stack. Returns one (sel, cand) group per
    candidate count c: the indices of the points with c candidates and
    their (len(sel), c) candidates, index-sorted along each row."""
    ref, b = _reference(soundings)
    rx, ry = ref[:, 0].copy(), ref[:, 1].copy()
    m = len(ref)
    px, py = points[:, 0], points[:, 1]

    def ref_distance(owner, j):
        """|x - ref_j| of each (point, sounding) pair."""
        dx = px[owner] - rx[j]
        dy = py[owner] - ry[j]
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    index = _Buckets(rx, ry)
    # Ring by ring around each point's cell (clipped into the grid), until
    # the block of rings holds k soundings.
    home_c, home_r = index.col(px), index.row(py)
    ring = np.zeros(len(points), dtype=np.intp)
    active = np.arange(len(points))
    while len(active):
        r = ring[active]
        found = index.count(np.maximum(home_c[active] - r, 0),
                            np.minimum(home_c[active] + r, index.cols - 1),
                            np.maximum(home_r[active] - r, 0),
                            np.minimum(home_r[active] + r, index.rows - 1))
        active = active[found < k]
        ring[active] += 1
    c0, c1 = np.maximum(home_c - ring, 0), np.minimum(home_c + ring, index.cols - 1)
    r0, r1 = np.maximum(home_r - ring, 0), np.minimum(home_r + ring, index.rows - 1)
    # First bound: the k-th smallest |x - ref_j| + b_j in the block.
    reach = np.empty(len(points))
    for blk in _point_blocks(index.count(c0, c1, r0, r1)):
        row, owner = _runs(r0[blk], r1[blk] - r0[blk] + 1)
        j, run = index.members(row, c0[blk][owner], c1[blk][owner])
        owner = owner[run]
        reach[blk] = _kth_smallest(ref_distance(blk[owner], j) + b[j], owner, len(blk), k)
    slack = _slack(reach, points, soundings)
    # Every sounding the filter below keeps lies within reach, with room
    # for the cells' rounding.
    reach += b.max() + 2.0 * slack
    c0, c1 = index.col(px - reach), index.col(px + reach)
    r0, r1 = index.row(py - reach), index.row(py + reach)
    half_h = index.h / 2
    keys = []
    for blk in _point_blocks(index.count(c0, c1, r0, r1)):
        row, owner = _runs(r0[blk], r1[blk] - r0[blk] + 1)
        # The columns of each row that the disk of radius reach meets.
        x, rad = px[blk][owner], reach[blk][owner]
        dy = np.abs(row * index.h + (index.y0 + half_h) - py[blk][owner])
        dy -= half_h
        np.maximum(dy, 0.0, out=dy)
        dy *= dy
        half = np.square(rad, out=rad)
        half -= dy
        half = np.sqrt(np.maximum(half, 0.0, out=half), out=half)
        j, run = index.members(row, index.col(x - half), index.col(x + half))
        owner = owner[run]
        node = blk[owner]
        d = ref_distance(node, j)
        bj = b[j]
        # U(x), over every sounding within the first bound; they hold the
        # k nearest in the reference.
        upper = _kth_smallest(d + bj, owner, len(blk), k)
        upper += slack[blk]
        d -= bj
        keep = d <= upper[owner]
        keys.append(node[keep] * m + j[keep])
    keys = np.sort(np.concatenate(keys))
    rows = keys // m
    flat = keys - rows * m
    counts = np.bincount(rows, minlength=len(points))
    first = np.cumsum(counts) - counts
    groups = []
    for c in np.unique(counts):
        sel = np.flatnonzero(counts == c)
        groups.append((sel, flat[first[sel, None] + np.arange(c)]))
    return groups


def _depth(vmap: VectorMap, points: np.ndarray, tag: str, vert_idx, stack: np.ndarray,
           stats: dict | None) -> np.ndarray:
    has_depth = vert_idx[np.isfinite(vmap.depth_of_vertex[vert_idx])]
    if len(has_depth) == 0:
        raise NoDepthDataError(f"no depth soundings on features tagged {tag!r}")
    values = vmap.depth_of_vertex[has_depth]
    k = min(_IDW_NEIGHBORS, len(has_depth))
    out = np.full((len(stack), len(points)), np.nan)
    finite = np.flatnonzero(np.isfinite(points).all(axis=1))
    if len(finite) == 0:
        return out
    soundings = stack[:, has_depth]
    sx = np.ascontiguousarray(soundings[..., 0])
    sy = np.ascontiguousarray(soundings[..., 1])
    groups = _depth_candidates(points[finite], soundings, k)
    if stats is not None:
        sizes = np.concatenate([np.full(len(sel), cand.shape[1]) for sel, cand in groups])
        stats["candidates_mean"] = float(sizes.mean())
        stats["candidates_max"] = int(sizes.max())
    for sel, cand in groups:
        rows = finite[sel]
        c = cand.shape[1]
        # Each point repeated over its c candidates, so that every pass
        # below runs over whole rows.
        px = np.repeat(points[rows, 0, None], c, axis=1)
        py = np.repeat(points[rows, 1, None], c, axis=1)
        cand_values = values[cand].ravel()
        # Flat offsets of each point's candidates within one variant.
        row_base = np.arange(cand.size, step=c)
        for blk in _blocks(len(stack), cand.size):
            d2 = np.subtract(px, sx[blk].take(cand, axis=1))
            d2 *= d2
            dy = np.subtract(py, sy[blk].take(cand, axis=1))
            dy *= dy
            d2 += dy
            # Candidates are index-sorted, so a stable sort ranks by
            # (squared distance, index). The flat offsets of the k nearest
            # go rank by rank into a C-ordered (k, B, P) array: first
            # within a variant (the depths), then within d2.
            nearest = np.add(np.argsort(d2, axis=-1, kind="stable")[..., :k].transpose(2, 0, 1),
                             row_base, out=np.empty((k,) + d2.shape[:2], dtype=np.intp))
            nval = cand_values.take(nearest)
            nearest += np.arange(0, d2.size, cand.size)[:, None]
            out[blk, rows] = _idw(d2.take(nearest), nval)
    return out


def eval_relation_many(vmap: VectorMap, rel: RelationKind, points: np.ndarray,
                       tag: str, vertices: np.ndarray | None = None,
                       stats: dict | None = None) -> np.ndarray:
    """Evaluate a relation at many points, (P,) on the map's vertices or on
    one variant's (V, 2) vertices, (n, P) on a stack of n variants.

    A dict passed as `stats` receives how much of the work each point took:
    for over (and for distance to a tag with closed rings) the share of
    points tested in every variant (`band_fraction`), for distance the
    candidate segments per point (`segments_mean`, `segments_max`), for
    depth the candidate soundings per point (`candidates_mean`,
    `candidates_max`).
    """
    verts = vmap.vertices if vertices is None else np.asarray(vertices, dtype=float)
    stack = verts.reshape((-1,) + verts.shape[-2:])
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rel = RelationKind(rel)
    struct = _tagged_structure(vmap, tag)
    if struct is None and rel is RelationKind.DEPTH:
        raise NoDepthDataError(f"no feature carries tag {tag!r}")
    if struct is None:  # no tagged feature: never over one, infinitely far
        out = np.full((len(stack), len(points)), 0.0 if rel is RelationKind.OVER else np.inf)
    elif rel is RelationKind.OVER:
        out = _over(points, stack, struct[2], stats)
    elif rel is RelationKind.DISTANCE:
        out = _distance(points, stack, *struct, stats)
    else:
        out = _depth(vmap, points, tag, struct[0], stack, stats)
    return out if verts.ndim == 3 else out[0]
