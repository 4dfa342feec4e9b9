import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack import relations
from cstrack.errors import NoDepthDataError
from cstrack.grids import MAX_COORD
from cstrack.relations import RelationKind, eval_relation_many
from cstrack.vectormap import (
    VectorMap,
    line_feature,
    point_feature,
    polygon_feature,
)

import brute_force

SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]


def relation_at(vmap, rel, point, tag):
    """The relation at one point: a one-row eval_relation_many batch."""
    return float(eval_relation_many(vmap, rel, np.array([point], dtype=float), tag)[0])


@pytest.fixture
def square_map():
    return VectorMap.build([polygon_feature(SQUARE, ["land"])])


class TestOver:
    def test_inside_tagged_polygon(self, square_map):
        assert relation_at(square_map, RelationKind.OVER, (5.0, 5.0), "land") == 1.0

    def test_outside(self, square_map):
        assert relation_at(square_map, RelationKind.OVER, (15.0, 5.0), "land") == 0.0

    def test_boundary_counts_as_inside(self, square_map):
        assert relation_at(square_map, RelationKind.OVER, (10.0, 5.0), "land") == 1.0
        assert relation_at(square_map, RelationKind.OVER, (0.0, 0.0), "land") == 1.0

    def test_absent_tag_gives_zero(self, square_map):
        assert relation_at(square_map, RelationKind.OVER, (5.0, 5.0), "park") == 0.0

    def test_open_polyline_never_contains(self):
        vmap = VectorMap.build([line_feature([(0, 0), (10, 0), (10, 10)], ["way"])])
        assert relation_at(vmap, RelationKind.OVER, (5.0, 1.0), "way") == 0.0

    def test_values_are_binary_on_grid(self, square_map):
        pts = np.column_stack(
            [np.linspace(-5, 15, 41), np.linspace(-5, 15, 41)]
        )
        vals = eval_relation_many(square_map, RelationKind.OVER, pts, "land")
        assert set(np.unique(vals)) <= {0.0, 1.0}


class TestDistance:
    def test_three_four_five(self):
        vmap = VectorMap.build([line_feature([(3.0, 4.0), (3.0, 10.0)], ["way"])])
        assert relation_at(vmap, RelationKind.DISTANCE, (0.0, 0.0), "way") == 5.0

    def test_zero_inside_polygon(self, square_map):
        assert relation_at(square_map, RelationKind.DISTANCE, (5.0, 5.0), "land") == 0.0

    def test_absent_tag_is_inf(self, square_map):
        assert math.isinf(relation_at(square_map, RelationKind.DISTANCE, (0, 0), "way"))

    def test_distance_to_isolated_point_feature(self):
        vmap = VectorMap.build([point_feature((3.0, 4.0), ["buoy"])])
        assert relation_at(vmap, RelationKind.DISTANCE, (0.0, 0.0), "buoy") == 5.0

    def test_nearest_of_multiple_features(self, square_map):
        vmap = VectorMap.build(
            [
                polygon_feature(SQUARE, ["land"]),
                polygon_feature([(100, 0), (110, 0), (110, 10), (100, 10)], ["land"]),
            ]
        )
        assert relation_at(vmap, RelationKind.DISTANCE, (50.0, 5.0), "land") == 40.0

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(-30, 30), st.floats(-30, 30),
        st.floats(-30, 30), st.floats(-30, 30),
    )
    def test_one_lipschitz_in_query_point(self, x1, y1, x2, y2):
        vmap = VectorMap.build([polygon_feature(SQUARE, ["land"])])
        d1 = relation_at(vmap, RelationKind.DISTANCE, (x1, y1), "land")
        d2 = relation_at(vmap, RelationKind.DISTANCE, (x2, y2), "land")
        assert abs(d1 - d2) <= math.hypot(x1 - x2, y1 - y2) + 1e-9


class TestDepth:
    def test_exact_hit_returns_sounding(self):
        vmap = VectorMap.build(
            [
                point_feature((0.0, 0.0), ["water"], depth=12.0),
                point_feature((10.0, 0.0), ["water"], depth=20.0),
            ]
        )
        assert relation_at(vmap, RelationKind.DEPTH, (0.0, 0.0), "water") == 12.0

    def test_idw_average_between_two_soundings(self):
        vmap = VectorMap.build(
            [
                point_feature((0.0, 0.0), ["water"], depth=10.0),
                point_feature((10.0, 0.0), ["water"], depth=20.0),
            ]
        )
        # Midpoint: equal weights.
        val = relation_at(vmap, RelationKind.DEPTH, (5.0, 0.0), "water")
        assert abs(val - 15.0) < 1e-9
        # Closer to the shallow sounding: below the midpoint value.
        val = relation_at(vmap, RelationKind.DEPTH, (2.0, 0.0), "water")
        assert val < 15.0

    def test_idw_uses_power_two(self):
        vmap = VectorMap.build(
            [
                point_feature((0.0, 0.0), ["water"], depth=10.0),
                point_feature((3.0, 0.0), ["water"], depth=40.0),
            ]
        )
        # d1=1, d2=2 -> weights 1, 1/4 -> (10 + 40/4) / (5/4) = 16.
        val = relation_at(vmap, RelationKind.DEPTH, (1.0, 0.0), "water")
        assert abs(val - 16.0) < 1e-9

    def test_only_four_nearest_contribute(self):
        feats = [
            point_feature((float(i), 0.0), ["water"], depth=5.0) for i in range(4)
        ]
        feats.append(point_feature((1000.0, 0.0), ["water"], depth=500.0))
        vmap = VectorMap.build(feats)
        val = relation_at(vmap, RelationKind.DEPTH, (1.5, 0.1), "water")
        assert abs(val - 5.0) < 1e-9

    def test_no_soundings_raises(self, square_map):
        with pytest.raises(NoDepthDataError):
            relation_at(square_map, RelationKind.DEPTH, (5.0, 5.0), "land")
        with pytest.raises(NoDepthDataError):
            relation_at(square_map, RelationKind.DEPTH, (5.0, 5.0), "water")


class TestVariantOverride:
    def test_translated_vertices_shift_distances(self, square_map):
        moved = square_map.vertices + np.array([100.0, 0.0])
        d = eval_relation_many(
            square_map, RelationKind.DISTANCE, np.array([[0.0, 5.0]]), "land",
            vertices=moved,
        )
        assert abs(float(d[0]) - 100.0) < 1e-9

    def test_many_matches_scalar(self, square_map):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-20, 30, size=(50, 2))
        many = eval_relation_many(square_map, RelationKind.DISTANCE, pts, "land")
        for p, expect in zip(pts, many):
            assert relation_at(square_map, RelationKind.DISTANCE, p, "land") == expect


def sounding_map(positions, depths):
    return VectorMap.build([
        point_feature((float(x), float(y)), ["water"], depth=float(d))
        for (x, y), d in zip(positions, depths)
    ])


lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda c: (10.0 * c[0], 10.0 * c[1])
)
free_point = st.tuples(st.floats(-40, 40), st.floats(-40, 40))


class TestDepthMatchesBruteForce:
    @settings(deadline=None, max_examples=200)
    @given(
        # Up to 40 soundings: the bucket index spans many cells, and the
        # ring search several rings.
        positions=st.lists(st.one_of(lattice, free_point), min_size=1, max_size=40),
        queries=st.lists(
            st.one_of(
                lattice,
                lattice.map(lambda p: (p[0] + 5.0, p[1] + 5.0)),  # lattice-cell centres
                lattice.map(lambda p: (p[0] + 5.0, p[1])),  # edge midpoints
                free_point,
                st.tuples(st.sampled_from([-1e5, 1e5]), st.floats(-1e5, 1e5)),
            ),
            min_size=1, max_size=40,
        ),
        data=st.data(),
    )
    def test_bit_equal_to_full_ranking(self, positions, queries, data):
        # Lattice positions repeat (duplicated soundings with different
        # depths) and tie; queries at soundings are exact hits.
        depths = [1.0 + i for i in range(len(positions))]
        data.draw(st.randoms()).shuffle(depths)
        hits = data.draw(st.lists(st.sampled_from(positions), max_size=5))
        points = np.array(queries + hits, dtype=float)
        got = eval_relation_many(sounding_map(positions, depths), RelationKind.DEPTH,
                                 points, "water")
        expect = brute_force.depth(points, np.array(positions), np.array(depths))
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("side", [3, 5, 7])
    def test_lattice_ties_match_full_ranking(self, side):
        # A lattice with every other node doubled; queries on the half
        # lattice tie the 4th and 5th nearest soundings in most rows.
        rng = np.random.default_rng(side)
        nodes = np.array([(10.0 * i, 10.0 * j) for i in range(side) for j in range(side)])
        positions = np.vstack([nodes, nodes[::2]])
        depths = rng.permutation(len(positions)) + 1.0
        half = 5.0 * np.arange(-1, 2 * side)
        points = np.array([(x, y) for x in half for y in half])
        got = eval_relation_many(sounding_map(positions, depths), RelationKind.DEPTH,
                                 points, "water")
        np.testing.assert_array_equal(got, brute_force.depth(points, positions, depths))

    def test_eight_way_tie_takes_the_four_lowest_indices(self):
        on_circle = [(10, 0), (0, 10), (-10, 0), (0, -10),
                     (6, 8), (-6, 8), (6, -8), (-6, -8)]
        vmap = sounding_map(on_circle, range(1, 9))
        assert relation_at(vmap, RelationKind.DEPTH, (0.0, 0.0), "water") == 2.5

    def test_sounding_a_subnormal_distance_from_a_node_is_an_exact_hit(self):
        # d^2 = 1e-320 is subnormal, and 1 / d^2 overflows to inf; the point
        # is an exact hit, so the overflow must stay silent.
        vmap = sounding_map([(1e-160, 0.0), (10, 0), (0, 10)], [3.0, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = eval_relation_many(vmap, RelationKind.DEPTH,
                                     np.array([[0.0, 0.0], [5.0, 5.0]]), "water")
        expect = brute_force.depth(np.array([[0.0, 0.0], [5.0, 5.0]]),
                                   np.array([(1e-160, 0.0), (10, 0), (0, 10)]),
                                   np.array([3.0, 1.0, 2.0]))
        assert got[0] == 3.0
        np.testing.assert_array_equal(got, expect)

    def test_non_finite_point_is_nan(self):
        vmap = sounding_map([(0, 0), (10, 0)], [1.0, 2.0])
        got = eval_relation_many(vmap, RelationKind.DEPTH,
                                 np.array([[np.nan, 0.0], [0.0, 0.0]]), "water")
        assert np.isnan(got[0]) and got[1] == 1.0


def moved(rng, positions, kind):
    """One map variant of the sounding positions."""
    if kind == "lattice":  # exact moves: every tie of the base map stays a tie
        out = positions * 2.0 ** rng.integers(-1, 2) + 10.0 * rng.integers(-3, 4, 2)
        return out[:, ::-1] if rng.random() < 0.5 else out
    if kind == "similarity":  # rotation and scale about the frame origin
        turn, scale = rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.3)
        rot = scale * np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        return positions @ rot.T + rng.normal(0.0, 5.0, 2)
    return positions + rng.normal(0.0, rng.uniform(0.0, 20.0), positions.shape)


class TestStackedDepth:
    @settings(deadline=None, max_examples=150)
    @given(
        positions=st.one_of(
            st.lists(st.one_of(lattice, free_point), min_size=1, max_size=4),
            st.lists(st.one_of(lattice, free_point), min_size=5, max_size=30),
        ),
        kinds=st.lists(st.sampled_from(["lattice", "similarity", "jitter"]),
                       min_size=1, max_size=5),
        queries=st.lists(
            st.one_of(
                lattice,
                lattice.map(lambda p: (p[0] + 5.0, p[1] + 5.0)),
                free_point,
                st.tuples(st.sampled_from([-1e5, 1e5]), st.floats(-1e5, 1e5)),
                st.tuples(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(-40, 40)),
            ),
            min_size=1, max_size=30,
        ),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_stack_equals_each_variant_and_full_ranking(self, positions, kinds, queries,
                                                        seed, data):
        # Lattice positions repeat and tie; large rotations and scales
        # move the far soundings most; queries at a variant's soundings
        # are exact hits in that variant.
        rng = np.random.default_rng(seed)
        base = np.array(positions, dtype=float)
        stack = np.array([moved(rng, base, kind) for kind in kinds])
        depths = rng.permutation(len(base)) + 1.0
        hits = data.draw(st.lists(st.tuples(st.integers(0, len(stack) - 1),
                                            st.integers(0, len(base) - 1)), max_size=5))
        points = np.array(queries + [tuple(stack[v, j]) for v, j in hits], dtype=float)
        vmap = sounding_map(positions, depths)
        got = eval_relation_many(vmap, RelationKind.DEPTH, points, "water", vertices=stack)
        assert got.shape == (len(stack), len(points))
        finite = np.isfinite(points).all(axis=1)
        for v, verts in enumerate(stack):
            one = eval_relation_many(vmap, RelationKind.DEPTH, points, "water", vertices=verts)
            np.testing.assert_array_equal(got[v], one)
            np.testing.assert_array_equal(
                got[v][finite], brute_force.depth(points[finite], verts, depths))
        assert np.isnan(got[:, ~finite]).all()


    @pytest.mark.parametrize("seed", range(4))
    def test_small_blocks_equal_each_variant_and_full_ranking(self, monkeypatch, seed):
        # Blocks of a few variants each, over several candidate groups:
        # the flat gathers offset each variant of a block by its place.
        rng = np.random.default_rng(seed)
        base = np.vstack([rng.uniform(-200, 200, (40, 2)),
                          40.0 * rng.integers(-4, 5, (10, 2))])
        # Small moves keep the candidate sets small and of several sizes;
        # the unmoved variant keeps the lattice ties.
        stack = np.array([base] + [base + rng.normal(0.0, 2.0, base.shape) for _ in range(6)])
        depths = rng.permutation(len(base)) + 1.0
        points = np.vstack([rng.uniform(-220, 220, (40, 2)), 20.0 * rng.integers(-8, 9, (10, 2)),
                            stack[rng.integers(len(stack)), :5]])
        monkeypatch.setattr(relations, "_BLOCK_CELLS", 200)
        groups = relations._depth_candidates(points, stack, 4)
        per_block = [relations._BLOCK_CELLS // cand.size for _, cand in groups]
        assert len(groups) > 1 and any(1 < b < len(stack) for b in per_block)
        vmap = sounding_map(base, depths)
        got = eval_relation_many(vmap, RelationKind.DEPTH, points, "water", vertices=stack)
        for v, verts in enumerate(stack):
            one = eval_relation_many(vmap, RelationKind.DEPTH, points, "water", vertices=verts)
            assert got[v].tobytes() == one.tobytes()
            assert got[v].tobytes() == brute_force.depth(points, verts, depths).tobytes()


def sounding_layout(rng, layout, m):
    """m sounding positions about the origin: scattered, all at one place,
    or on one line."""
    if layout == "scattered":
        return rng.uniform(-200.0, 200.0, (m, 2))
    if layout == "coincident":
        return np.broadcast_to(rng.uniform(-200.0, 200.0, 2), (m, 2)).copy()
    turn = rng.uniform(0.0, 2.0 * np.pi)
    return rng.uniform(-200.0, 200.0, (m, 1)) * [np.cos(turn), np.sin(turn)]


class TestBucketIndexCandidates:
    @settings(deadline=None, max_examples=150)
    @given(
        layout=st.sampled_from(["scattered", "coincident", "collinear"]),
        m=st.one_of(st.just(1), st.integers(2, 40)),
        # Near MAX_COORD a point MAX_COORD away is 1e21 cells of 1e-13 m
        # from the soundings, past the range of intp.
        offset=st.sampled_from([0.0, MAX_COORD - 300.0, 300.0 - MAX_COORD]),
        spread=st.sampled_from([0.0, 1e-12, 0.5, 20.0]),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_hold_every_variants_k_nearest(self, layout, m, offset, spread, n, seed):
        rng = np.random.default_rng(seed)
        base = offset + sounding_layout(rng, layout, m)
        stack = base + rng.normal(0.0, spread, (n, m, 2))
        far = [(x, y) for x in (-MAX_COORD, 0.0, MAX_COORD) for y in (-MAX_COORD, MAX_COORD)]
        points = np.vstack([offset + rng.uniform(-300.0, 300.0, (20, 2)),
                            offset + 1e6 * rng.choice([-1.0, 1.0], (4, 2)), far,
                            stack[rng.integers(n), rng.integers(m, size=3)]])
        k = min(4, m)
        groups = relations._depth_candidates(points, stack, k)
        rows = {}
        for sel, cand in groups:
            assert (np.diff(cand, axis=1) > 0).all()
            rows.update(zip(sel.tolist(), map(set, cand.tolist())))
        assert sorted(rows) == list(range(len(points)))
        for verts in stack:
            dx = points[:, 0, None] - verts[:, 0]
            dy = points[:, 1, None] - verts[:, 1]
            d2 = dx * dx + dy * dy
            index = np.broadcast_to(np.arange(m), d2.shape)
            nearest = np.lexsort((index, d2))[:, :k]
            for p, row in enumerate(nearest):
                assert set(row.tolist()) <= rows[p]
        depths = rng.permutation(m) + 1.0
        got = eval_relation_many(sounding_map(base, depths), RelationKind.DEPTH, points,
                                 "water", vertices=stack)
        for v, verts in enumerate(stack):
            assert got[v].tobytes() == brute_force.depth(points, verts, depths).tobytes()


def random_ring(rng, n):
    """A star-shaped ring, rotated and shifted off the origin."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    local = rng.uniform(5, 50, n)[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    turn = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    return local @ rot.T + rng.uniform(-100, 100, 2)


class TestOverMatchesBruteForce:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equal_to_unpruned_test(self, seed):
        rng = np.random.default_rng(seed)
        rings = [random_ring(rng, int(rng.integers(3, 9))) for _ in range(2)]
        vmap = VectorMap.build([polygon_feature(r, ["land"]) for r in rings])
        lo = np.min([r.min(axis=0) for r in rings], axis=0)
        hi = np.max([r.max(axis=0) for r in rings], axis=0)
        t = rng.uniform(0, 1, (20, 1))
        ring = rings[0]
        edge = np.arange(20) % len(ring)
        on_edges = ring[edge] + t * (np.roll(ring, -1, axis=0)[edge] - ring[edge])
        # Just beyond and just inside the pruning margin of each ring's bbox.
        offsets = np.array([1.5e-6, 0.5e-6, 1e-10, -1e-10])
        beyond = []
        for r in rings:
            r_lo, r_hi = r.min(axis=0), r.max(axis=0)
            for off in offsets:
                for v in r:
                    beyond += [(r_lo[0] - off, v[1]), (r_hi[0] + off, v[1]),
                               (v[0], r_lo[1] - off), (v[0], r_hi[1] + off)]
        points = np.vstack([
            rng.uniform(lo - 20, hi + 20, (300, 2)),
            *rings, on_edges, np.array(beyond),
        ])
        got = eval_relation_many(vmap, RelationKind.OVER, points, "land")
        np.testing.assert_array_equal(got, brute_force.over(points, rings))
        assert got[300:300 + sum(len(r) for r in rings)].all()  # vertices


def tagged_segments(vmap, verts, tag):
    """Each tagged edge, and each tagged vertex as a zero-length segment,
    of one variant: (S, 2, 2)."""
    fids = set(vmap.features_with_tag(tag))
    pairs = [(a, b) for a, b in vmap.edges if vmap.feature_of_vertex[a] in fids]
    pairs += [(i, i) for i, f in enumerate(vmap.feature_of_vertex) if f in fids]
    return verts[np.array(pairs)]


def tagged_rings(vmap, verts, tag):
    fids = set(vmap.features_with_tag(tag))
    return [verts[list(r)] for r in vmap.rings if vmap.feature_of_vertex[r[0]] in fids]


def band_edge_points(rng, ring_stack, count):
    """Points at b - 1e-6 and b + 1e-6 from a reference edge, on both sides,
    for b the edge's and the ring's largest vertex move from the mean."""
    ref = ring_stack.mean(axis=0)
    moves = np.sqrt(((ring_stack - ref) ** 2).sum(axis=-1)).max(axis=0)
    nxt = np.roll(np.arange(len(ref)), -1)
    out = []
    for e in rng.integers(0, len(ref), count):
        along = ref[nxt[e]] - ref[e]
        length = np.hypot(*along)
        if length == 0:
            continue
        normal = np.array([-along[1], along[0]]) / length
        foot = ref[e] + rng.uniform(0, 1) * along
        for b in (max(moves[e], moves[nxt[e]]), moves.max()):
            for offset in (b - 1e-6, b + 1e-6):
                out += [foot + offset * normal, foot - offset * normal]
    return out


class TestStackedOverAndDistance:
    @settings(deadline=None, max_examples=60)
    @given(
        n_rings=st.integers(1, 2),
        line=st.booleans(),
        buoy=st.booleans(),
        kinds=st.lists(st.sampled_from(["lattice", "similarity", "jitter"]),
                       min_size=1, max_size=5),
        zero_spread=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_each_variant_and_brute_force(self, n_rings, line, buoy, kinds,
                                                       zero_spread, seed):
        rng = np.random.default_rng(seed)
        features = [polygon_feature(random_ring(rng, int(rng.integers(3, 9))), ["land"])
                    for _ in range(n_rings)]
        if line:
            features.append(line_feature(rng.uniform(-100, 100, (3, 2)), ["land"]))
        if buoy:
            features.append(point_feature(tuple(rng.uniform(-100, 100, 2)), ["land"]))
        features.append(polygon_feature(random_ring(rng, 4), ["sea"]))  # never counted
        vmap = VectorMap.build(features)
        if zero_spread:
            stack = np.repeat(moved(rng, vmap.vertices, kinds[0])[None], len(kinds), axis=0)
        else:
            stack = np.array([moved(rng, vmap.vertices, kind) for kind in kinds])
        # On a variant's edges and vertices, just inside and outside the
        # band of each ring, anywhere, far away, and not finite.
        v = rng.integers(0, len(stack), 20)
        a, b = np.array(vmap.edges)[rng.integers(0, len(vmap.edges), 20)].T
        on_edges = stack[v, a] + rng.uniform(0, 1, (20, 1)) * (stack[v, b] - stack[v, a])
        near = [p for ring in vmap.rings for p in band_edge_points(rng, stack[:, list(ring)], 4)]
        points = np.vstack([
            on_edges, stack[v, rng.integers(0, len(vmap.vertices), 20)], np.array(near),
            rng.uniform(-200, 200, (40, 2)),
            np.column_stack([rng.choice([-1e5, 1e5], 4), rng.uniform(-1e5, 1e5, 4)]),
            [[np.nan, 0.0], [np.inf, 1.0], [-np.inf, 1.0], [0.0, -np.inf], [np.nan, np.inf]],
        ])
        finite = np.isfinite(points).all(axis=1)
        for rel, oracle, undefined in (
            (RelationKind.OVER, lambda verts: brute_force.over(
                points[finite], tagged_rings(vmap, verts, "land")), 0.0),
            (RelationKind.DISTANCE, lambda verts: brute_force.distance(
                points[finite], tagged_segments(vmap, verts, "land"),
                tagged_rings(vmap, verts, "land")), np.nan),
        ):
            with np.errstate(invalid="ignore"):
                got = eval_relation_many(vmap, rel, points, "land", vertices=stack)
                assert got.shape == (len(stack), len(points))
                for row, verts in zip(got, stack):
                    one = eval_relation_many(vmap, rel, points, "land", vertices=verts)
                    np.testing.assert_array_equal(row, one)
                    np.testing.assert_array_equal(row[finite], oracle(verts))
            np.testing.assert_array_equal(got[:, ~finite], undefined)

    @pytest.mark.parametrize("move", [1.0, 7.5])
    def test_pruning_bounds_are_tight(self, move):
        # Two variants translate every vertex by +-move across the x axis,
        # so each vertex moves exactly b = move from its mean. A point
        # b - 1e-6 off the reference square is inside (over) the variant
        # that moves toward it, and of two buoys 10 m apart a point
        # between them is nearest the far one in a variant when it is
        # less than b off the midpoint.
        shift = np.array([0.0, move])
        square = VectorMap.build([polygon_feature(SQUARE, ["land"])])
        buoys = VectorMap.build([point_feature((0.0, 0.0), ["buoy"]),
                                 point_feature((0.0, 10.0), ["buoy"])])
        for vmap, tag, points in (
            (square, "land", [(5.0, -move + 1e-6), (5.0, -move - 1e-6),
                              (5.0, 10.0 + move - 1e-6), (5.0, 10.0 + move + 1e-6)]),
            (buoys, "buoy", [(0.0, 5.0 + move - 1e-6), (0.0, 5.0 + move + 1e-6),
                             (0.0, 5.0 - move + 1e-6), (0.0, 5.0 - move - 1e-6)]),
        ):
            points = np.array(points)
            stack = np.array([vmap.vertices + shift, vmap.vertices - shift])
            for rel in (RelationKind.OVER, RelationKind.DISTANCE):
                got = eval_relation_many(vmap, rel, points, tag, vertices=stack)
                for row, verts in zip(got, stack):
                    expect = (brute_force.over(points, tagged_rings(vmap, verts, tag))
                              if rel is RelationKind.OVER else brute_force.distance(
                                  points, tagged_segments(vmap, verts, tag),
                                  tagged_rings(vmap, verts, tag)))
                    np.testing.assert_array_equal(row, expect)
        # The points just inside the band are over land in one variant.
        inside = eval_relation_many(square, RelationKind.OVER,
                                    np.array([(5.0, -move + 1e-6)]), "land",
                                    vertices=np.array([square.vertices + shift,
                                                       square.vertices - shift]))
        assert inside[:, 0].tolist() == [0.0, 1.0]
