import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack import demo, starmap
from cstrack.errors import ConfigurationError
from cstrack.grids import GridSpec, bilinear
from cstrack.relations import RelationKind, eval_relation_many
from cstrack.starmap import (
    StaRMapLayer,
    build_starmap,
    find_layer,
    interpolate_many,
    load_starmap,
    save_starmap,
    starmap_from_json,
    starmap_to_json,
    write_layer_pgm,
)
from cstrack.vectormap import (
    FeaturePerturbation,
    VectorMap,
    load_geojson,
    perturbations_from_config,
    polygon_feature,
    sample_vertex_variants,
)

SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
BIG_SQUARE = [(-100.0, -100.0), (100.0, -100.0), (100.0, 100.0), (-100.0, 100.0)]


def square_map(points=SQUARE, tag="land"):
    return VectorMap.build([polygon_feature(points, [tag])])


def identity_for(vmap):
    return {f: FeaturePerturbation.identity() for f in range(vmap.n_features)}


def point_moments(vmap, perturbations, rel, tag, point, n, rng):
    """Layer (mean, std) at one point: node 0 of a 2 x 2 starmap grid whose
    lower-left corner is the point."""
    x, y = point
    grid = GridSpec(bbox=(x, y, x + 1.0, y + 1.0), rows=2, cols=2)
    (layer,) = build_starmap(vmap, perturbations, [(rel, tag)], grid, n=n, rng=rng)
    return layer.mean[0, 0], layer.std[0, 0]


def interpolate(layer, point):
    mean, std = interpolate_many(layer, np.array([point], dtype=float))
    return mean[0], std[0]


class TestGridSpec:
    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            GridSpec(bbox=(0, 0, 1, 1), rows=1, cols=5)
        with pytest.raises(ConfigurationError):
            GridSpec(bbox=(0, 0, 0, 1), rows=5, cols=5)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", [-np.inf, np.inf])
    def test_rejects_infinite_bbox(self, position, value):
        bbox = [-2000.0, -2000.0, 2000.0, 2000.0]
        bbox[position] = value
        with pytest.raises(ConfigurationError, match="finite"):
            GridSpec(bbox=tuple(bbox), rows=2, cols=2)

    def test_node_points_row_major(self):
        grid = GridSpec(bbox=(0.0, 0.0, 1.0, 2.0), rows=3, cols=2)
        pts = grid.node_points()
        assert pts.shape == (6, 2)
        np.testing.assert_allclose(pts[0], [0.0, 0.0])
        np.testing.assert_allclose(pts[1], [1.0, 0.0])
        np.testing.assert_allclose(pts[2], [0.0, 1.0])
        np.testing.assert_allclose(pts[5], [1.0, 2.0])


class TestEstimateMoments:
    def test_zero_spread_matches_deterministic_relation(self):
        vmap = square_map()
        mean, std = point_moments(
            vmap, identity_for(vmap), RelationKind.DISTANCE, "land", (20.0, 5.0),
            n=16, rng=0,
        )
        assert mean == eval_relation_many(
            vmap, RelationKind.DISTANCE, np.array([[20.0, 5.0]]), "land"
        )[0]
        assert std == 0.0

    def test_requires_two_samples(self):
        vmap = square_map()
        with pytest.raises(ConfigurationError):
            point_moments(
                vmap, identity_for(vmap), RelationKind.OVER, "land", (5, 5), n=1, rng=0
            )

    def test_unbiased_variance_two_pass_oracle(self):
        # Same samples, independently recomputed with the textbook two-pass
        # 1/(N-1) formula.
        vmap = square_map()
        pert = {0: FeaturePerturbation.isotropic(translation_std_m=3.0)}
        n = 64
        mean, std = point_moments(
            vmap, pert, RelationKind.DISTANCE, "land", (30.0, 5.0), n=n, rng=123
        )
        from cstrack.relations import eval_relation_many
        from cstrack.vectormap import sample_vertex_variants

        variants = sample_vertex_variants(vmap, pert, n, rng=123)
        samples = np.array(
            [
                float(
                    eval_relation_many(
                        vmap, RelationKind.DISTANCE, np.array([[30.0, 5.0]]), "land",
                        vertices=variants[k],
                    )[0]
                )
                for k in range(n)
            ]
        )
        mu = samples.sum() / n
        var = ((samples - mu) ** 2).sum() / (n - 1)
        assert abs(mean - mu) < 1e-12
        assert abs(std - math.sqrt(var)) < 1e-12

    def test_bernoulli_membership_oracle(self):
        # A point near the boundary under translation noise: membership per
        # variant is Bernoulli. The oracle replays the same seed sequence
        # and derives membership directly from the drawn translations.
        vmap = square_map()
        sigma = 2.0
        pert = {0: FeaturePerturbation(translation_cov=((sigma**2, 0.0), (0.0, sigma**2)))}
        point = (10.5, 5.0)
        n = 4000
        mean, _ = point_moments(
            vmap, pert, RelationKind.OVER, "land", point, n=n, rng=99
        )
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(n):
            raw = rng.standard_normal(4)
            tx, ty = sigma * raw[2], sigma * raw[3]
            # Square moved by (tx, ty): inside iff coordinates fall in range.
            if 0 + tx <= point[0] <= 10 + tx and 0 + ty <= point[1] <= 10 + ty:
                hits += 1
        assert mean == hits / n

    def test_line_feature_perpendicular_noise(self):
        # Long straight tagged line translated only perpendicular by
        # N(0, sigma^2); point at distance d >> sigma sees distance
        # |d - t|, so mean ~ d and std ~ sigma within 3 sigma / sqrt(N).
        from cstrack.vectormap import line_feature

        sigma, d, n = 1.0, 100.0, 10_000
        vmap = VectorMap.build([line_feature([(-1e7, 0.0), (1e7, 0.0)], ["way"])])
        pert = {0: FeaturePerturbation(translation_cov=((0.0, 0.0), (0.0, sigma**2)))}
        mean, std = point_moments(
            vmap, pert, RelationKind.DISTANCE, "way", (0.0, d), n=n, rng=5
        )
        bound = 3.0 * sigma / math.sqrt(n)
        assert abs(mean - d) < bound
        assert abs(std - sigma) < bound


class TestBuildStarmap:
    def test_full_cover_zero_noise_layer(self):
        vmap = square_map(BIG_SQUARE)
        grid = GridSpec(bbox=(-50.0, -50.0, 50.0, 50.0), rows=4, cols=4)
        layers = build_starmap(
            vmap, identity_for(vmap), [(RelationKind.OVER, "land")], grid, n=4, rng=0
        )
        assert len(layers) == 1
        assert (layers[0].mean == 1.0).all()
        assert (layers[0].std == 0.0).all()
        layers[0].validate()

    def test_missing_tag_distance_flags_all_cells(self):
        vmap = square_map()
        grid = GridSpec(bbox=(0.0, 0.0, 10.0, 10.0), rows=2, cols=2)
        layers = build_starmap(
            vmap, identity_for(vmap), [(RelationKind.DISTANCE, "way")], grid, n=4, rng=0
        )
        assert layers[0].flagged.all()

    def test_depth_without_soundings_flags_layer_not_abort(self):
        vmap = square_map()
        grid = GridSpec(bbox=(0.0, 0.0, 10.0, 10.0), rows=2, cols=2)
        layers = build_starmap(
            vmap,
            identity_for(vmap),
            [(RelationKind.DEPTH, "land"), (RelationKind.OVER, "land")],
            grid,
            n=4,
            rng=0,
        )
        assert layers[0].flagged.all()
        assert not layers[1].flagged.any()

    def test_shared_variants_match_single_point_moments(self):
        # A cell of a 3 x 3 layer equals the same node built alone for the
        # same seed, because the variant set is drawn once and shared.
        vmap = square_map()
        pert = {0: FeaturePerturbation.isotropic(translation_std_m=2.0)}
        grid = GridSpec(bbox=(-20.0, -20.0, 30.0, 30.0), rows=3, cols=3)
        layers = build_starmap(
            vmap, pert, [(RelationKind.DISTANCE, "land")], grid, n=32, rng=11
        )
        node = grid.node_points()[4]
        mean, std = point_moments(
            vmap, pert, RelationKind.DISTANCE, "land", node, n=32, rng=11
        )
        assert abs(layers[0].mean.ravel()[4] - mean) < 1e-12
        assert abs(layers[0].std.ravel()[4] - std) < 1e-12

    def test_duplicate_layer_request_rejected(self):
        vmap = square_map()
        grid = GridSpec(bbox=(0.0, 0.0, 10.0, 10.0), rows=2, cols=2)
        with pytest.raises(ConfigurationError):
            build_starmap(
                vmap,
                identity_for(vmap),
                [(RelationKind.OVER, "land"), (RelationKind.OVER, "land")],
                grid,
                n=4,
                rng=0,
            )

    def test_over_mean_high_deep_inside_with_noise(self):
        # Point far from the boundary relative to 6 sigma of translation
        # noise keeps mean >= 0.99 at N >= 1000.
        vmap = square_map(BIG_SQUARE)
        pert = {0: FeaturePerturbation.isotropic(translation_std_m=5.0)}
        grid = GridSpec(bbox=(-10.0, -10.0, 10.0, 10.0), rows=2, cols=2)
        layers = build_starmap(
            vmap, pert, [(RelationKind.OVER, "land")], grid, n=1000, rng=2
        )
        assert (layers[0].mean >= 0.99).all()
        assert ((layers[0].mean >= 0.0) & (layers[0].mean <= 1.0)).all()


HEAVY_PERTURBATIONS = {
    "*": {"translation_std_m": 30.0, "rotation_std_rad": 0.02, "scale_std": 0.03},
}


class TestStackedBuild:
    @pytest.mark.parametrize("config", [demo.HARBOR_PERTURBATIONS, HEAVY_PERTURBATIONS],
                             ids=["demo", "heavy"])
    def test_samples_equal_per_variant_evaluation(self, config, monkeypatch):
        # Each layer's one call over the variant stack gives the samples
        # that one call per variant gives, bit for bit.
        vmap, _ = load_geojson(demo.harbor_geojson())
        perturbations = perturbations_from_config(vmap, config)
        grid = GridSpec(bbox=demo.HARBOR_BBOX_M, rows=25, cols=25)
        relations = [(RelationKind.OVER, "land"), (RelationKind.OVER, "anchorage"),
                     (RelationKind.DISTANCE, "way"), (RelationKind.DEPTH, "water")]
        samples = {}

        def recording(vmap, rel, points, tag, **kwargs):
            samples[(rel, tag)] = eval_relation_many(vmap, rel, points, tag, **kwargs)
            return samples[(rel, tag)]

        monkeypatch.setattr(starmap, "eval_relation_many", recording)
        layers = build_starmap(vmap, perturbations, relations, grid, n=10, rng=11)
        variants = sample_vertex_variants(vmap, perturbations, 10, rng=11)
        for layer, (rel, tag) in zip(layers, relations):
            each = np.array([
                eval_relation_many(vmap, rel, grid.node_points(), tag, vertices=v)
                for v in variants
            ])
            assert np.isfinite(each).all()
            np.testing.assert_array_equal(samples[(rel, tag)], each)
            np.testing.assert_array_equal(layer.mean.ravel(), each.sum(axis=0) / 10)


class TestInterpolate:
    def layer(self):
        grid = GridSpec(bbox=(0.0, 0.0, 1.0, 1.0), rows=2, cols=2)
        mean = np.array([[0.0, 1.0], [2.0, 3.0]])
        std = np.array([[0.1, 0.2], [0.3, 0.4]])
        return StaRMapLayer(
            relation=RelationKind.DISTANCE, tag="t", grid=grid, mean=mean, std=std,
            sample_count=2,
        )

    def test_node_exact(self):
        layer = self.layer()
        assert interpolate(layer, (1.0, 0.0)) == (1.0, 0.2)

    def test_midpoint_of_adjacent_nodes(self):
        layer = self.layer()
        mean, _ = interpolate(layer, (0.5, 0.0))
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_outside_is_nan(self):
        mean, std = interpolate(self.layer(), (1.5, 0.5))
        assert math.isnan(mean) and math.isnan(std)

    @settings(deadline=None, max_examples=80)
    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_matches_bruteforce_bilinear_oracle(self, x, y):
        # Independent re-implementation of the bilinear formula on the
        # unit cell.
        layer = self.layer()
        mean, std = interpolate(layer, (x, y))
        m = layer.mean
        oracle = (
            m[0, 0] * (1 - x) * (1 - y)
            + m[0, 1] * x * (1 - y)
            + m[1, 0] * (1 - x) * y
            + m[1, 1] * x * y
        )
        assert abs(mean - oracle) < 1e-12

    def test_flagged_cells_poison_interpolation(self):
        grid = GridSpec(bbox=(0.0, 0.0, 1.0, 1.0), rows=2, cols=2)
        mean = np.array([[np.nan, 1.0], [2.0, 3.0]])
        layer = StaRMapLayer(
            relation=RelationKind.DISTANCE, tag="t", grid=grid, mean=mean,
            std=np.zeros((2, 2)), sample_count=2,
        )
        m, _ = interpolate(layer, (0.5, 0.5))
        assert math.isnan(m)

    def test_one_point_gives_an_array(self):
        grid = GridSpec(bbox=(0.0, 0.0, 1.0, 1.0), rows=2, cols=2)
        out = bilinear(grid, np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0.5, 0.5]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [1.5])

    def test_nodes_next_to_a_flagged_node_are_exact(self):
        # Every finite node returns its stored value, also on the last row
        # and column, whose cell index is clipped.
        grid = GridSpec(bbox=(0.0, 0.0, 2.0, 2.0), rows=3, cols=3)
        values = np.ones((3, 3))
        values[1, 1] = np.nan
        out = bilinear(grid, values, grid.node_points())
        np.testing.assert_array_equal(out, values.ravel())

    def test_grid_line_next_to_a_flagged_node_is_defined(self):
        # (1.5, 4.0) lies on the top edge between the finite nodes [4, 1]
        # and [4, 2]; the flagged node [3, 1] below them has weight 0.
        grid = GridSpec(bbox=(0.0, 0.0, 4.0, 4.0), rows=5, cols=5)
        values = np.ones((5, 5))
        values[3, 1] = np.nan
        assert bilinear(grid, values, np.array([[1.5, 4.0]]))[0] == 1.0
        assert np.isnan(bilinear(grid, values, np.array([[1.5, 3.5]]))[0])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        vmap = square_map()
        grid = GridSpec(bbox=(-20.0, -20.0, 30.0, 30.0), rows=3, cols=4)
        layers = build_starmap(
            vmap,
            {0: FeaturePerturbation.isotropic(translation_std_m=1.0)},
            [(RelationKind.OVER, "land"), (RelationKind.DISTANCE, "land")],
            grid,
            n=8,
            rng=3,
        )
        path = tmp_path / "star.json"
        save_starmap(layers, path, origin_lonlat=(-74.0, 40.7))
        loaded, origin = load_starmap(path)
        assert origin == (-74.0, 40.7)
        assert len(loaded) == 2
        for a, b in zip(layers, loaded):
            assert a.key == b.key
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.std, b.std)

    def test_layer_bits_survive_the_round_trip(self, tmp_path):
        big, tiny = np.finfo(float).max, np.nextafter(0.0, 1.0)
        mean = np.array([[np.nan, -0.0, tiny], [big, -big, 0.1]])
        std = np.array([[big, tiny, 0.0], [np.nan, -0.0, 1 / 3]])
        grid = GridSpec(bbox=(0.0, 0.0, 10.0, 10.0), rows=2, cols=3)
        layer = StaRMapLayer(RelationKind.DISTANCE, "land", grid, mean, std, sample_count=2)
        path = tmp_path / "star.json"
        save_starmap([layer], path)
        doc = json.loads(path.read_text())
        assert doc["encoding"] == "base64-float64-le"
        assert isinstance(doc["layers"][0]["mean"], str)
        (back,), _ = load_starmap(path)
        np.testing.assert_array_equal(back.mean.view(np.uint64), mean.view(np.uint64))
        np.testing.assert_array_equal(back.std.view(np.uint64), std.view(np.uint64))
        np.testing.assert_array_equal(back.flagged, [[True, False, False], [True, False, False]])

    def test_every_non_finite_cell_is_written_as_nan(self):
        # Infinities and a NaN with the sign bit and a payload set (0/0
        # on x86 sets the sign bit) all read back as the NaN of np.nan:
        # a flagged cell.
        odd_nan = np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(float)[0]
        mean = np.array([[np.inf, -np.inf], [odd_nan, 1.0]])
        grid = GridSpec(bbox=(0.0, 0.0, 10.0, 10.0), rows=2, cols=2)
        layer = StaRMapLayer(RelationKind.OVER, "land", grid, mean, np.zeros((2, 2)), 2)
        (back,), _ = starmap_from_json(starmap_to_json([layer]))
        expect = np.array([[np.nan, np.nan], [np.nan, 1.0]])
        np.testing.assert_array_equal(back.mean.view(np.uint64), expect.view(np.uint64))

    def test_find_layer(self):
        vmap = square_map()
        grid = GridSpec(bbox=(0.0, 0.0, 10.0, 10.0), rows=2, cols=2)
        layers = build_starmap(
            vmap, identity_for(vmap), [(RelationKind.OVER, "land")], grid, n=2, rng=0
        )
        assert find_layer(layers, RelationKind.OVER, "land") is layers[0]
        with pytest.raises(ConfigurationError):
            find_layer(layers, RelationKind.DISTANCE, "land")

    def test_pgm_dump(self, tmp_path):
        vmap = square_map(BIG_SQUARE)
        grid = GridSpec(bbox=(-50.0, -50.0, 50.0, 50.0), rows=3, cols=3)
        layers = build_starmap(
            vmap, identity_for(vmap), [(RelationKind.OVER, "land")], grid, n=2, rng=0
        )
        out = tmp_path / "layer.pgm"
        write_layer_pgm(layers[0], out)
        text = out.read_text()
        assert text.startswith("P2\n3 3\n255\n")
        assert "255" in text.splitlines()[3]
