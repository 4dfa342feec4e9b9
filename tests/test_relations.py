import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack.errors import NoDepthDataError
from cstrack.relations import RelationKind, eval_relation_many
from cstrack.vectormap import (
    VectorMap,
    line_feature,
    point_feature,
    polygon_feature,
)

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
