import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cstrack.demo import HARBOR_PERTURBATIONS, harbor_geojson
from cstrack.errors import ConfigurationError, FormatError
from cstrack.projection import LocalFrame
from cstrack.vectormap import (
    MAX_SPREADS,
    FeaturePerturbation,
    MapFeature,
    VectorMap,
    line_feature,
    load_geojson,
    perturbations_from_config,
    point_feature,
    polygon_feature,
    sample_vertex_variants,
)

import brute_force

SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]


def square_map(tags=("land",)):
    return VectorMap.build([polygon_feature(SQUARE, tags)])


def identity_for(vmap):
    return {f: FeaturePerturbation() for f in range(vmap.n_features)}


def one_variant(vmap, perturbations, rng):
    """The (V, 2) vertex array of a single randomized map variant."""
    return sample_vertex_variants(vmap, perturbations, 1, rng)[0]


class TestBuild:
    def test_polygon_has_ring_and_edges(self):
        vmap = square_map()
        assert len(vmap.edges) == 4
        assert len(vmap.rings) == 1
        assert vmap.tags_of_feature[0] == frozenset({"land"})

    def test_open_polyline_has_no_ring(self):
        vmap = VectorMap.build([line_feature([(0, 0), (5, 0), (9, 3)], ["way"])])
        assert vmap.rings == ()

    def test_empty_tags_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorMap.build([MapFeature(points=((0, 0),), tags=frozenset())])

    def test_edge_across_features_rejected(self):
        vmap = square_map()
        bad = VectorMap(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0]]),
            edges=((0, 1),),
            feature_of_vertex=np.array([0, 1]),
            tags_of_feature=(frozenset({"a"}), frozenset({"b"})),
        )
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_connected_components_share_feature_id(self):
        vmap = VectorMap.build(
            [polygon_feature(SQUARE, ["land"]), line_feature([(20, 0), (30, 0)], ["way"])]
        )
        for a, b in vmap.edges:
            assert vmap.feature_of_vertex[a] == vmap.feature_of_vertex[b]


class TestPerturbationSampling:
    def test_zero_spread_reproduces_input_exactly(self):
        vmap = square_map()
        out = one_variant(vmap, identity_for(vmap), rng=3)
        assert (out == vmap.vertices).all()

    def test_missing_entry_is_configuration_error(self):
        vmap = square_map()
        with pytest.raises(ConfigurationError):
            one_variant(vmap, {}, rng=0)

    def test_same_seed_bit_identical(self):
        vmap = square_map()
        pert = {0: FeaturePerturbation(translation_std_m=2.0, rotation_std_rad=0.01)}
        a = sample_vertex_variants(vmap, pert, 5, rng=42)
        b = sample_vertex_variants(vmap, pert, 5, rng=42)
        assert (a == b).all()

    def test_translation_noise_law_of_large_numbers(self):
        # Monte Carlo oracle: with t ~ N(0, 4 I) m^2 the per-vertex
        # sample mean over 10,000 variants lies within 3 * (2 / 100) m of
        # the original vertex per coordinate.
        vmap = square_map()
        pert = {0: FeaturePerturbation(translation_std_m=2.0)}
        variants = sample_vertex_variants(vmap, pert, 10_000, rng=7)
        mean = variants.mean(axis=0)
        bound = 3.0 * 2.0 / np.sqrt(10_000)
        assert np.abs(mean - vmap.vertices).max() < bound

    def test_rigid_per_feature_moves(self):
        # Both vertices of one feature receive the same draw per variant.
        vmap = VectorMap.build([line_feature([(0, 0), (100, 0)], ["way"])])
        pert = {0: FeaturePerturbation(translation_std_m=5.0)}
        variants = sample_vertex_variants(vmap, pert, 50, rng=1)
        deltas = variants - vmap.vertices
        np.testing.assert_allclose(deltas[:, 0, :], deltas[:, 1, :], atol=1e-12)

    def test_rotation_applies_about_frame_origin(self):
        vmap = VectorMap.build([point_feature((1.0, 0.0), ["buoy"])])
        pert = {0: FeaturePerturbation(rotation_std_rad=0.5)}
        got = sample_vertex_variants(vmap, pert, 1, rng=9)
        np.testing.assert_array_equal(got, brute_force.vertex_variants(vmap, pert, 1, 9))
        # A pure rotation about the origin keeps the vertex's distance to it.
        assert abs(np.linalg.norm(got[0, 0]) - 1.0) < 1e-15

    def test_feature_partition_stable_under_sampling(self):
        # Connected components never cross features, and a sampled variant
        # moves each feature rigidly: without scale spread, distances
        # between the vertices of one feature are preserved.
        vmap = VectorMap.build(
            [
                polygon_feature(SQUARE, ["land"]),
                line_feature([(50, 0), (60, 5), (70, 0)], ["way"]),
            ]
        )
        pert = {
            0: FeaturePerturbation(translation_std_m=4.0),
            1: FeaturePerturbation(rotation_std_rad=0.05),
        }
        variant = one_variant(vmap, pert, rng=21)
        parent = list(range(len(vmap.vertices)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in vmap.edges:
            parent[find(a)] = find(b)
        for i in range(len(vmap.vertices)):
            for j in range(len(vmap.vertices)):
                same_component = find(i) == find(j)
                same_feature = vmap.feature_of_vertex[i] == vmap.feature_of_vertex[j]
                if same_component:
                    assert same_feature
                if same_feature:
                    np.testing.assert_allclose(
                        np.linalg.norm(variant[i] - variant[j]),
                        np.linalg.norm(vmap.vertices[i] - vmap.vertices[j]),
                        rtol=0.0, atol=1e-9,
                    )

    def test_scale_only_draws(self):
        vmap = square_map()
        pert = {0: FeaturePerturbation(scale_std=0.1)}
        variants = sample_vertex_variants(vmap, pert, 200, rng=5)
        # Pure scaling keeps the origin-anchored direction of each vertex.
        v = vmap.vertices[1]  # (10, 0)
        samples = variants[:, 1, :]
        assert np.allclose(samples[:, 1], 0.0, atol=1e-12)
        assert abs(samples[:, 0].mean() - 10.0) < 0.3

    def test_harbor_variants_match_a_factor_per_draw(self):
        # The translation is the std times the normals; the reference
        # takes an eigh factor of the covariance on every draw.
        vmap, _ = load_geojson(harbor_geojson())
        pert = perturbations_from_config(vmap, HARBOR_PERTURBATIONS)
        got = sample_vertex_variants(vmap, pert, 5, rng=11)
        np.testing.assert_array_equal(got, brute_force.vertex_variants(vmap, pert, 5, 11))

    @pytest.mark.parametrize("std", [1e-73, 7.136704829382428e-74, 1e-100, 1e-300])
    def test_tiny_translation_is_the_std_times_the_normals(self, std):
        # Below about 1e-73 m an eigh factor of std^2 I can differ from
        # std in the last bit (as at the second std here), or vanish (at
        # 1e-300); the translation stays std * r.
        vmap = VectorMap.build([point_feature((0.0, 0.0), ["buoy"])])
        got = sample_vertex_variants(vmap, {0: FeaturePerturbation(translation_std_m=std)},
                                     50, rng=4)
        r = np.random.default_rng(4).standard_normal((50, 1, 4))
        assert got.tobytes() == (std * r[:, :, 2:]).tobytes()

    @pytest.mark.parametrize("key", ["translation_std_m", "rotation_std_rad", "scale_std"])
    @pytest.mark.parametrize("value", [-1.0, -5e-324, float("nan")])
    def test_negative_or_nan_spread_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            FeaturePerturbation(**{key: value})

    def test_fields_are_the_config_spreads(self):
        fields = [f.name for f in dataclasses.fields(FeaturePerturbation)]
        assert fields == list(MAX_SPREADS)


spread = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def perturbation(draw):
    """Identity, or spreads with a translation std of 0 or log-uniform from
    1e-70 to 1e7 m."""
    if draw(st.booleans()):
        return FeaturePerturbation()
    return FeaturePerturbation(
        translation_std_m=draw(st.one_of(st.just(0.0),
                                         st.floats(-70.0, 7.0).map(lambda e: 10.0**e))),
        rotation_std_rad=draw(spread), scale_std=draw(spread))


@st.composite
def perturbed_map(draw):
    """Point (one or many vertices), line and polygon features, one
    perturbation each, placed near or far from the frame origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = []
    for kind in draw(st.lists(st.sampled_from(["point", "line", "polygon"]),
                              min_size=1, max_size=6)):
        size = draw(st.one_of(st.integers(1, 4), st.integers(5, 300)))
        if kind == "polygon":
            size = max(size, 3)
        pts = rng.uniform(-1.0, 1.0, (size, 2)) * draw(st.sampled_from([10.0, 5e3, 1e5]))
        pts = [tuple(p) for p in pts]
        if kind == "point":
            features.append(MapFeature(points=tuple(pts), tags=frozenset({"buoy"})))
        elif kind == "line":
            features.append(line_feature(pts, ["way"]))
        else:
            features.append(polygon_feature(pts, ["land"]))
    vmap = VectorMap.build(features)
    pert = {f: draw(perturbation()) for f in range(vmap.n_features)}
    return vmap, pert


def buoys_case():
    """Single-vertex features with rotation, scale and a translation: the
    case where operand layout decides the last bit."""
    vmap = VectorMap.build([point_feature((x, 0.5 * x - 300.0), ["buoy"])
                            for x in (1.0, -2500.0, 4000.0)])
    shared = FeaturePerturbation(translation_std_m=3.0, rotation_std_rad=0.05,
                                 scale_std=0.02)
    return vmap, {f: shared for f in range(vmap.n_features)}


@settings(deadline=None, max_examples=150)
@given(perturbed_map(), st.integers(1, 100), st.integers(0, 2**32 - 1))
@example(buoys_case(), 100, 17)
def test_batched_sampling_is_bit_equal_to_a_draw_per_feature_and_variant(case, n, seed):
    vmap, pert = case
    got = sample_vertex_variants(vmap, pert, n, seed)
    np.testing.assert_array_equal(got, brute_force.vertex_variants(vmap, pert, n, seed))


class TestPerturbationConfig:
    def test_first_matching_pattern_wins(self):
        vmap = VectorMap.build(
            [polygon_feature(SQUARE, ["land"]), line_feature([(0, 0), (1, 1)], ["way"])]
        )
        config = {
            "land": {"translation_std_m": 5.0},
            "*": {"translation_std_m": 1.0},
        }
        table = perturbations_from_config(vmap, config)
        assert table[0] == FeaturePerturbation(translation_std_m=5.0)
        assert table[1] == FeaturePerturbation(translation_std_m=1.0)

    def test_unmatched_feature_is_error(self):
        vmap = square_map()
        with pytest.raises(ConfigurationError):
            perturbations_from_config(vmap, {"way": {"translation_std_m": 1.0}})

    def test_unknown_key_is_error(self):
        vmap = square_map()
        with pytest.raises(ConfigurationError):
            perturbations_from_config(vmap, {"*": {"sigma": 1.0}})


def geojson_square(origin_frame: LocalFrame, tags, side=1000.0):
    xs = [0.0, side, side, 0.0, 0.0]
    ys = [0.0, 0.0, side, side, 0.0]
    coords = []
    for x, y in zip(xs, ys):
        lon, lat = origin_frame.to_lonlat(x, y)
        coords.append([float(lon), float(lat)])
    return {
        "type": "Feature",
        "properties": {"tags": list(tags)},
        "geometry": {"type": "Polygon", "coordinates": [coords]},
    }


class TestGeoJson:
    def test_load_polygon_and_point(self):
        frame = LocalFrame(origin_lon=-74.0, origin_lat=40.7)
        lon, lat = frame.to_lonlat(500.0, 500.0)
        collection = {
            "type": "FeatureCollection",
            "features": [
                geojson_square(frame, ["land"]),
                {
                    "type": "Feature",
                    "properties": {"tags": ["sounding", "water"], "depth": 12.5},
                    "geometry": {"type": "Point", "coordinates": [float(lon), float(lat)]},
                },
            ],
        }
        vmap, out_frame = load_geojson(collection, origin=(-74.0, 40.7))
        assert vmap.n_features == 2
        assert len(vmap.rings) == 1
        depths = vmap.depth_of_vertex[np.isfinite(vmap.depth_of_vertex)]
        np.testing.assert_allclose(depths, [12.5])
        assert out_frame == frame

    def test_missing_tags_is_format_error(self):
        collection = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {"type": "Point", "coordinates": [0.0, 0.0]},
                }
            ],
        }
        with pytest.raises(FormatError):
            load_geojson(collection)

    def test_not_a_collection_is_format_error(self):
        with pytest.raises(FormatError):
            load_geojson({"type": "Feature"})

    def test_default_origin_is_bbox_center(self):
        frame = LocalFrame(origin_lon=10.0, origin_lat=50.0)
        collection = {
            "type": "FeatureCollection",
            "features": [geojson_square(frame, ["land"], side=2000.0)],
        }
        _, out_frame = load_geojson(collection)
        mid_lon, mid_lat = frame.to_lonlat(1000.0, 1000.0)
        assert abs(out_frame.origin_lon - float(mid_lon)) < 1e-9
        assert abs(out_frame.origin_lat - float(mid_lat)) < 1e-9

    def test_file_round_trip(self, tmp_path):
        frame = LocalFrame(origin_lon=0.0, origin_lat=0.0)
        collection = {
            "type": "FeatureCollection",
            "features": [geojson_square(frame, ["land"])],
        }
        path = tmp_path / "map.geojson"
        path.write_text(json.dumps(collection))
        vmap, _ = load_geojson(path, origin=(0.0, 0.0))
        assert vmap.n_features == 1
        # Projected square side recovered to within projection error.
        side = np.linalg.norm(vmap.vertices[1] - vmap.vertices[0])
        assert abs(side - 1000.0) < 1.0
