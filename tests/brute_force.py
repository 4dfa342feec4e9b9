"""Brute-force references for the map relations, the variant sampler and
the query's model count.

Each one does the whole computation the plain way: depth ranks every
sounding for every point, the over test checks every ring edge for every
point, distance measures every point against every tagged segment and
vertex, the sampler factors the translation covariance on every draw, and
the model count evaluates the ground program under every assignment.
The evaluators in cstrack prune, cache or compile that work; tests
compare them with these references exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

EPS = 1e-9  # boundary and exact-hit tolerance of cstrack.relations
IDW_NEIGHBORS = 4


def depth(points: np.ndarray, soundings: np.ndarray, values: np.ndarray) -> np.ndarray:
    """IDW of the 4 nearest soundings by (d^2, index), summed in that order."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - soundings[None, :, :]
    d2 = np.einsum("cvj,cvj->cv", diff, diff)
    index = np.broadcast_to(np.arange(len(soundings)), d2.shape)
    order = np.lexsort((index, d2))[:, : min(IDW_NEIGHBORS, len(soundings))]
    nd2 = np.take_along_axis(d2, order, axis=1)
    nval = values[order]
    exact = nd2 <= EPS**2
    w = np.where(exact, 0.0, 1.0 / np.where(exact, 1.0, nd2))
    denom = w.sum(axis=1)
    idw = (w * nval).sum(axis=1) / np.where(denom > 0, denom, 1.0)
    node_val = nval[np.arange(len(points)), np.argmax(exact, axis=1)]
    return np.where(exact.any(axis=1), node_val, idw)


def over(points: np.ndarray, rings: list[np.ndarray]) -> np.ndarray:
    """1.0 where a point is inside a ring or within EPS of one of its edges."""
    points = np.asarray(points, dtype=float)
    x, y = points[:, :1], points[:, 1:]
    inside = np.zeros(len(points), dtype=bool)
    for ring in rings:
        x1, y1 = ring[:, 0], ring[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        crossings = ((y1 > y) != (y2 > y)) & (x < x_cross)
        inside |= crossings.sum(axis=1) % 2 == 1
        d = np.roll(ring, -1, axis=0) - ring
        rel = points[:, None, :] - ring[None, :, :]
        len2 = np.einsum("sj,sj->s", d, d)
        t = np.clip(np.einsum("csj,sj->cs", rel, d) / np.where(len2 > 0, len2, 1.0), 0.0, 1.0)
        gap = points[:, None, :] - (ring[None, :, :] + t[:, :, None] * d[None, :, :])
        inside |= np.sqrt(np.einsum("csj,csj->cs", gap, gap).min(axis=1)) <= EPS
    return inside.astype(float)


def distance(points: np.ndarray, segments: np.ndarray, rings: list[np.ndarray]) -> np.ndarray:
    """Distance to the nearest of the (S, 2, 2) segments (a vertex is a
    zero-length one), 0 where over is 1: the same projection formula for
    every (point, segment) pair, one (P, S) array."""
    points = np.asarray(points, dtype=float)
    px, py = points[:, :1], points[:, 1:]
    sx, sy = segments[:, 0, 0], segments[:, 0, 1]
    dx, dy = segments[:, 1, 0] - sx, segments[:, 1, 1] - sy
    len2 = dx * dx + dy * dy
    with np.errstate(invalid="ignore"):
        t = np.clip(((px - sx) * dx + (py - sy) * dy) / np.where(len2 > 0, len2, 1.0), 0.0, 1.0)
        gx, gy = px - (sx + t * dx), py - (sy + t * dy)
        out = np.sqrt((gx * gx + gy * gy).min(axis=1))
    return np.where(over(points, rings) > 0, 0.0, out)


def vertex_variants(vmap, perturbations, n: int, seed: int) -> np.ndarray:
    """(n, V, 2) variants drawn one feature at a time: the translation is
    an eigh factor of the covariance std^2 I times the normals, one eigh
    per draw."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, len(vmap.vertices), 2))
    for k in range(n):
        out[k] = vmap.vertices
        for fid in range(vmap.n_features):
            p = perturbations[fid]
            raw = rng.standard_normal(4)
            angle = p.rotation_std_rad * raw[0]
            scale = 1.0 + p.scale_std * raw[1]
            c, s = np.cos(angle), np.sin(angle)
            phi = np.array([[scale * c, -scale * s], [scale * s, scale * c]])
            cov = np.eye(2) * p.translation_std_m**2
            factor = np.zeros((2, 2))
            if cov.any():
                w, q = np.linalg.eigh(cov)
                factor = q @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
            t = np.zeros(2) + factor @ raw[2:]
            mine = vmap.feature_of_vertex == fid
            out[k, mine] = vmap.vertices[mine] @ phi.T + t
    return out


def satisfying_count(gp) -> int:
    """Assignments of a ground program's probabilistic atoms whose unique
    model makes its query true, by evaluating the rules under each one in
    the program's order."""
    count = 0
    for bits in itertools.product((False, True), repeat=gp.n_probabilistic):
        true = {atom for atom, bit in zip(gp.fact_atoms, bits) if bit}
        for rule in gp.rules:
            if all((abs(code) - 1 in true) == (code > 0) for code in rule.body):
                true.add(rule.head)
        count += gp.query in true
    return count
