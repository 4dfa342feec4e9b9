import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack.constitution import (
    Atom,
    CategoricalClause,
    Constant,
    ConstitutionEvaluator,
    ContinuousClause,
    environment_atoms,
    format_clause,
    ground,
    parse,
    precompute_field,
)
import cstrack.constitution.environment as environment_module
from cstrack import jsonio
from cstrack.constitution.field import ConstitutionField
from cstrack.errors import ConfigurationError, FormatError
from cstrack.grids import GridSpec
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer, interpolate_many

from reference_bilinear import clamp_to_bbox
from reference_binding import bind_environment, exact_probability


def flat_layer(rel, tag, mean, std, bbox=(0.0, 0.0, 100.0, 100.0), rows=3, cols=3):
    grid = GridSpec(bbox=bbox, rows=rows, cols=cols)
    return StaRMapLayer(
        relation=RelationKind(rel),
        tag=tag,
        grid=grid,
        mean=np.full((rows, cols), float(mean)),
        std=np.full((rows, cols), float(std)),
        sample_count=2,
    )


def constitution_probability(program, layers, state, measurement):
    """Direct-mode probability at one (state, measurement) pair."""
    out = ConstitutionEvaluator(program, layers).probabilities(
        np.reshape(np.asarray(state, dtype=float), (1, 2)),
        np.reshape(np.asarray(measurement, dtype=float), (1, 2)),
    )
    return float(out[0])


def gradient_layer(rel, tag, bbox=(0.0, 0.0, 100.0, 100.0), rows=5, cols=5):
    grid = GridSpec(bbox=bbox, rows=rows, cols=cols)
    xs = np.linspace(0.0, 1.0, cols)
    mean = np.tile(xs, (rows, 1))
    return StaRMapLayer(
        relation=RelationKind(rel), tag=tag, grid=grid, mean=mean,
        std=np.zeros((rows, cols)), sample_count=2,
    )


class TestEnvironmentAtoms:
    def test_discovery(self):
        program = parse(
            r"1.0 :: constitution(X, Z) :- \+ over(X, land), distance(X, way) < 100."
        )
        assert environment_atoms(program) == [
            ("over", "X", "land"),
            ("distance", "X", "way"),
        ]

    def test_measurement_side_atom(self):
        program = parse("1.0 :: constitution(X, Z) :- over(Z, water).")
        assert environment_atoms(program) == [("over", "Z", "water")]

    def test_non_query_variable_rejected(self):
        program = parse("1.0 :: constitution(X, Z) :- over(L, land).")
        with pytest.raises(ConfigurationError):
            bind_environment(program, [flat_layer("over", "land", 1, 0)], (50, 50), (50, 50))


class TestBindEnvironment:
    def test_certain_layer_becomes_certain_fact(self):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        bound = bind_environment(
            program, [flat_layer("over", "land", 1.0, 0.0)], (50, 50), (50, 50)
        )
        fact = bound.clauses[-1]
        assert format_clause(fact) == "1.0 :: over(x, land)."

    def test_distance_layer_becomes_normal_fact(self):
        program = parse("1.0 :: constitution(X, Z) :- distance(X, road) > 50.")
        bound = bind_environment(
            program, [flat_layer("distance", "road", 100.0, 1.0)], (50, 50), (50, 50)
        )
        fact = bound.clauses[-1]
        assert format_clause(fact) == "distance(x, road) ~ normal(100.0, 1.0)."

    def test_zero_std_gets_sigma_floor(self):
        program = parse("1.0 :: constitution(X, Z) :- distance(X, road) > 50.")
        bound = bind_environment(
            program, [flat_layer("distance", "road", 100.0, 0.0)], (50, 50), (50, 50)
        )
        fact = bound.clauses[-1]
        assert isinstance(fact, ContinuousClause)
        assert fact.dist.std == 1e-3

    def test_query_is_bound_to_constants(self):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        bound = bind_environment(
            program, [flat_layer("over", "land", 0.5, 0.0)], (50, 50), (50, 50)
        )
        assert bound.query == Atom("constitution", (Constant("x"), Constant("z")))

    def test_missing_layer_is_configuration_error(self):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        with pytest.raises(ConfigurationError):
            bind_environment(program, [], (50, 50), (50, 50))

    def test_outside_point_binds_the_edge_parameters(self):
        program = parse(
            "0.9 :: constitution(X, Z) :- over(X, land), distance(Z, way) < 60.\n"
        )
        way = gradient_layer("distance", "way")
        layers = [gradient_layer("over", "land"),
                  StaRMapLayer(way.relation, way.tag, way.grid, way.mean * 100.0,
                               way.std + 5.0, sample_count=2)]
        bbox = way.grid.bbox
        for state, meas in [((500.0, 50.0), (-30.0, 40.0)),
                            ((-1e6, 1e6), (250.0, -250.0)),
                            ((37.0, 140.0), (61.0, 12.0))]:
            bound = bind_environment(program, layers, state, meas)
            edge = bind_environment(program, layers, *clamp_to_bbox([state, meas], bbox))
            assert bound == edge
            fast = constitution_probability(program, layers, state, meas)
            assert fast == pytest.approx(exact_probability(ground(bound)), abs=1e-12)

    def test_flagged_cell_is_configuration_error(self):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        layer = flat_layer("over", "land", 1.0, 0.0)
        mean = layer.mean.copy()
        mean[1, 1] = np.nan  # the node at (50, 50)
        flagged = StaRMapLayer(relation=layer.relation, tag=layer.tag, grid=layer.grid,
                               mean=mean, std=layer.std.copy(), sample_count=2)
        with pytest.raises(ConfigurationError, match="flagged"):
            bind_environment(program, [flagged], (50, 50), (50, 50))

    def test_mean_clamped_into_unit_interval(self):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        bound = bind_environment(
            program, [flat_layer("over", "land", 1.2, 0.0)], (50, 50), (50, 50)
        )
        assert bound.clauses[-1].prob == 1.0

    def test_existing_ground_fact_is_user_override(self):
        program = parse(
            "0.25 :: over(x, land).\n"
            "1.0 :: constitution(X, Z) :- over(X, land).\n"
        )
        bound = bind_environment(
            program, [flat_layer("over", "land", 0.9, 0.0)], (50, 50), (50, 50)
        )
        probs = [c.prob for c in bound.clauses if isinstance(c, CategoricalClause)
                 and c.head.key() == "over(x,land)"]
        assert probs == [0.25]


class TestConstitutionProbability:
    def test_constant_one_constitution(self):
        program = parse("1.0 :: constitution(X, Z).")
        p = constitution_probability(program, [], (1.0, 2.0), (1.0, 2.0))
        assert p == 1.0

    def test_pass_through_over_fact(self):
        # constitution :- over; probability equals the interpolated mean.
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        layer = gradient_layer("over", "land")
        for x in (0.0, 25.0, 50.0, 80.0):
            p = constitution_probability(program, [layer], (x, 50.0), (x, 50.0))
            assert p == pytest.approx(x / 100.0, abs=1e-12)

    def test_matches_generic_ground_path(self):
        # The slotted evaluator must agree with binding concrete values and
        # running the generic enumeration engine.
        program = parse(
            r"""
            0.9 :: attentive.
            1.0 :: safe(X) :- \+ over(X, land), distance(X, way) < 60.
            1.0 :: constitution(X, Z) :- attentive, safe(X).
            """
        )
        layers = [
            gradient_layer("over", "land"),
            flat_layer("distance", "way", 50.0, 10.0),
        ]
        for point in [(10.0, 10.0), (50.0, 50.0), (90.0, 20.0)]:
            fast = constitution_probability(program, layers, point, point)
            bound = bind_environment(program, layers, point, point)
            reference = exact_probability(ground(bound))
            assert fast == pytest.approx(reference, abs=1e-12)

    def test_matches_generic_path_with_measurement_atoms(self):
        # Harder consistency case: X- and Z-side atoms, a depth comparison,
        # negation, and a probabilistic rule, at random point pairs.
        program = parse(
            r"""
            0.7 :: calm.
            1.0 :: afloat(X) :- \+ over(X, land).
            1.0 :: deep(X) :- depth(X, water) > 8.
            1.0 :: plausible(Z) :- \+ over(Z, land).
            0.9 :: constitution(X, Z) :- calm, afloat(X), deep(X), plausible(Z).
            """
        )
        layers = [
            gradient_layer("over", "land"),
            flat_layer("depth", "water", 9.0, 2.0),
        ]
        rng = np.random.default_rng(12)
        for _ in range(6):
            state = rng.uniform(5.0, 95.0, 2)
            meas = rng.uniform(5.0, 95.0, 2)
            fast = constitution_probability(program, layers, state, meas)
            reference = exact_probability(
                ground(bind_environment(program, layers, state, meas))
            )
            assert fast == pytest.approx(reference, abs=1e-12)

    def test_measurement_side_binding(self):
        program = parse(
            "1.0 :: constitution(X, Z) :- over(X, land), over(Z, land)."
        )
        layer = gradient_layer("over", "land")
        p = constitution_probability(program, [layer], (100.0, 50.0), (0.0, 50.0))
        assert p == pytest.approx(1.0 * 0.0, abs=1e-12)
        p = constitution_probability(program, [layer], (100.0, 50.0), (50.0, 50.0))
        assert p == pytest.approx(0.5, abs=1e-12)


class TestEvaluatorBatch:
    def test_batch_equals_scalar_bitwise(self):
        program = parse(
            "0.8 :: cautious.\n"
            "1.0 :: constitution(X, Z) :- cautious, over(X, land), "
            "distance(X, way) < 60.\n"
        )
        layers = [
            gradient_layer("over", "land"),
            gradient_layer("distance", "way"),
        ]
        ev = ConstitutionEvaluator(program, layers)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 100.0, size=(64, 2))
        batch = ev.probabilities(pts, pts)
        for i in range(len(pts)):
            assert ev.probabilities(pts[i : i + 1], pts[i : i + 1])[0] == batch[i]

    def test_outside_rows_read_their_clamped_rows_and_flagged_rows_are_nan(self):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        layer = gradient_layer("over", "land")
        mean = layer.mean.copy()
        mean[0, 0] = np.nan
        flagged = StaRMapLayer(relation=layer.relation, tag=layer.tag, grid=layer.grid,
                               mean=mean, std=layer.std.copy(), sample_count=2)
        ev = ConstitutionEvaluator(program, [flagged])
        # Inside, outside east, next to the flagged node (0, 0), and
        # outside beyond that node.
        pts = np.array([[50.0, 50.0], [500.0, 50.0], [10.0, 10.0], [-500.0, -500.0]])
        out = ev.probabilities(pts, pts)
        clamped = clamp_to_bbox(pts, layer.grid.bbox)
        assert out.tobytes() == ev.probabilities(clamped, clamped).tobytes()
        assert out[0] == 0.5 and out[1] == 1.0
        assert np.isnan(out[2]) and np.isnan(out[3])

    @pytest.mark.parametrize("z", [(37.5, 61.0), (-400.0, 1e5), (0.0, 0.0)],
                             ids=["inside", "outside", "flagged"])
    def test_a_shared_z_is_read_once_per_layer_with_the_bits_of_a_row_each(self, z):
        # Three arms of 100 particles, each with its own measurement: the
        # first arm's is the case's, the other two lie inside the layers
        # and beyond their east edge. Each Z slot reads 3 points, not 300.
        program = parse(
            "0.9 :: constitution(X, Z) :- over(Z, land), over(X, land), "
            "distance(Z, way) < 40.\n"
        )
        way = gradient_layer("distance", "way")
        mean = way.mean.copy()
        mean[0, 0] = np.nan  # the node at (0, 0)
        flagged = StaRMapLayer(relation=way.relation, tag=way.tag, grid=way.grid,
                               mean=mean, std=way.std.copy(), sample_count=2)
        ev = ConstitutionEvaluator(program, [gradient_layer("over", "land"), flagged])
        positions = np.random.default_rng(9).uniform(-20.0, 120.0, size=(3, 100, 2))
        zs = np.array([z, (12.5, 80.0), (250.0, 40.0)])
        reads = []

        def counting_interpolate_many(layer, points):
            reads.append((layer.tag, len(points)))
            return interpolate_many(layer, points)

        with mock.patch.object(environment_module, "interpolate_many",
                               counting_interpolate_many):
            got = ev.particle_probabilities(positions, zs)
        assert sorted(reads) == [("land", 3), ("land", 300), ("way", 3)]
        assert got.shape == (3, 100)
        bbox = way.grid.bbox
        want = ev.probabilities(clamp_to_bbox(positions.reshape(-1, 2), bbox),
                                clamp_to_bbox(np.repeat(zs, 100, axis=0), bbox))
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[1:]).all()
        if z == (0.0, 0.0):
            assert np.isnan(got[0]).all()
        else:
            assert np.isfinite(got[0]).all()

    @settings(deadline=None, max_examples=40)
    @given(arms=st.integers(1, 4), particles=st.integers(1, 6),
           kind=st.sampled_from(["one", "per arm", "per row"]),
           seed=st.integers(0, 2**32 - 1))
    def test_measurement_rows_fill_runs_of_rows_with_the_bits_of_one_each(
            self, arms, particles, kind, seed):
        # m measurements fill n = m * r rows, r consecutive rows each; the
        # bits are those of one measurement per row, batched or row by row,
        # across flagged cells and points outside the layers.
        program = parse(
            "0.8 :: constitution(X, Z) :- over(Z, land), over(X, land), "
            "distance(Z, way) < 40, distance(X, way) > 10.\n"
        )
        rng = np.random.default_rng(seed)
        way = gradient_layer("distance", "way")
        mean = way.mean * 100.0
        mean[rng.uniform(size=mean.shape) < 0.2] = np.nan
        layers = [gradient_layer("over", "land"),
                  StaRMapLayer(relation=way.relation, tag=way.tag, grid=way.grid,
                               mean=mean, std=rng.uniform(0.0, 20.0, size=mean.shape),
                               sample_count=2)]
        ev = ConstitutionEvaluator(program, layers)
        n = arms * particles
        m = {"one": 1, "per arm": arms, "per row": n}[kind]
        states = rng.uniform(-20.0, 120.0, size=(n, 2))
        measurements = rng.uniform(-20.0, 120.0, size=(m, 2))
        per_row = np.repeat(measurements, n // m, axis=0)
        got = ev.parameter_matrix(states, measurements)
        assert got.tobytes() == ev.parameter_matrix(states, per_row).tobytes()
        for i in range(n):
            row = ev.parameter_matrix(states[i:i + 1], per_row[i:i + 1])
            assert got[i:i + 1].tobytes() == row.tobytes()

    def test_particle_probabilities_clamp_into_the_layer_bbox(self):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land), over(Z, land).")
        ev = ConstitutionEvaluator(program, [gradient_layer("over", "land")])
        out = ev.particle_probabilities(
            np.array([[500.0, 50.0], [-500.0, 50.0]]), np.array([1e6, 50.0])
        )
        np.testing.assert_array_equal(out, [1.0, 0.0])


class TestPrecomputeField:
    def test_constant_one_field(self):
        program = parse("1.0 :: constitution(X, Z).")
        grid = GridSpec(bbox=(0.0, 0.0, 100.0, 100.0), rows=4, cols=4)
        field = precompute_field(program, [], grid)
        assert (field.values == 1.0).all()

    def test_cell_equals_direct_probability_exactly(self):
        program = parse(
            "1.0 :: constitution(X, Z) :- over(X, land), distance(X, way) < 60."
        )
        layers = [
            gradient_layer("over", "land"),
            flat_layer("distance", "way", 55.0, 8.0),
        ]
        grid = GridSpec(bbox=(0.0, 0.0, 100.0, 100.0), rows=5, cols=5)
        field = precompute_field(program, layers, grid)
        for idx in (0, 7, 12, 24):
            node = grid.node_points()[idx]
            direct = constitution_probability(program, layers, node, node)
            assert field.values.ravel()[idx] == direct

    def test_field_grid_twice_as_wide_as_the_starmap_has_the_bits_of_direct_mode(self):
        # The outer half of the field's nodes lies outside the starmap:
        # each reads the layers' edge, as direct mode does.
        starmap = GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=9, cols=13)
        layers = self.flagged_layers(starmap)
        grid = GridSpec(bbox=(-150.0, 20.0, 250.0, 120.0), rows=9, cols=25)
        field = precompute_field(self.NODE_PROGRAM, layers, grid)
        nodes = grid.node_points()
        ev = ConstitutionEvaluator(self.NODE_PROGRAM, layers)
        self.assert_bits_equal(field.values.ravel(), ev.probabilities(nodes, nodes))
        edge = clamp_to_bbox(nodes, starmap.bbox)
        self.assert_bits_equal(field.values.ravel(), ev.probabilities(edge, edge))
        outer = ~starmap.contains(nodes)
        assert outer.mean() == pytest.approx(0.5, abs=0.05)
        assert np.isfinite(field.values.ravel()[outer]).any()

    def test_fixed_measurement_policy(self):
        program = parse("1.0 :: constitution(X, Z) :- over(Z, land).")
        layers = [gradient_layer("over", "land")]
        grid = GridSpec(bbox=(0.0, 0.0, 100.0, 100.0), rows=3, cols=3)
        field = precompute_field(program, layers, grid, measurement=(100.0, 50.0))
        assert (field.values == 1.0).all()

    # A program reading an over and a distance layer at the state and at
    # the measurement: static, slot and chain parameters.
    NODE_PROGRAM = parse(
        "0.9 :: constitution(X, Z) :- over(X, land), distance(X, way) < 60.\n"
        "0.3 :: constitution(X, Z) :- over(Z, land).\n"
        "0.2 :: constitution(X, Z) :- distance(Z, way) > 20.\n"
    )

    @staticmethod
    def flagged_layers(grid, seed=0):
        """An over and a distance layer on grid with flagged and -0.0 cells."""
        rng = np.random.default_rng(seed)
        shape = (grid.rows, grid.cols)
        flagged = rng.uniform(size=shape) < 0.2
        over = np.where(rng.uniform(size=shape) < 0.1, -0.0, rng.uniform(size=shape))
        dist = rng.uniform(0.0, 120.0, shape)
        std = np.where(rng.uniform(size=shape) < 0.1, -0.0, rng.uniform(0.0, 30.0, shape))
        return [
            StaRMapLayer(RelationKind.OVER, "land", grid, np.where(flagged, np.nan, over),
                         np.where(flagged, np.nan, std), sample_count=2),
            StaRMapLayer(RelationKind.DISTANCE, "way", grid,
                         np.where(flagged[:, ::-1], np.nan, dist), std, sample_count=2),
        ]

    @staticmethod
    def assert_bits_equal(actual, expected):
        np.testing.assert_array_equal(np.asarray(actual, dtype=float).view(np.uint64),
                                      np.asarray(expected, dtype=float).view(np.uint64))

    @pytest.mark.parametrize("where", ["inside", "outside", "flagged"])
    def test_fixed_measurement_field_has_the_bits_of_direct_mode(self, where):
        grid = GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=9, cols=13)
        layers = self.flagged_layers(grid, seed=3)
        nodes = grid.node_points()
        flagged = layers[0].flagged.ravel() | layers[1].flagged.ravel()
        z = {"inside": tuple(nodes[np.flatnonzero(~flagged)[0]]), "outside": (1e4, -1e4),
             "flagged": tuple(nodes[np.flatnonzero(layers[0].flagged.ravel())[0]])}[where]
        field = precompute_field(self.NODE_PROGRAM, layers, grid, measurement=z)
        direct = ConstitutionEvaluator(self.NODE_PROGRAM, layers).probabilities(
            nodes, np.broadcast_to(z, nodes.shape))
        # Outside, z reads the corner (150, 20), flagged in the way layer.
        assert np.isnan(direct).all() == (where != "inside")
        self.assert_bits_equal(field.values.ravel(), direct)
        if where == "outside":
            edge = precompute_field(self.NODE_PROGRAM, layers, grid, measurement=(150.0, 20.0))
            self.assert_bits_equal(field.values, edge.values)

    def test_field_on_the_layers_grid_has_the_bits_of_direct_mode_at_its_nodes(self):
        grid = GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=9, cols=13)
        layers = self.flagged_layers(grid)
        assert any(layer.flagged.any() for layer in layers)
        field = precompute_field(self.NODE_PROGRAM, layers, grid)
        nodes = grid.node_points()
        direct = ConstitutionEvaluator(self.NODE_PROGRAM, layers).probabilities(nodes, nodes)
        assert np.isnan(direct).any() and np.isfinite(direct).any()
        self.assert_bits_equal(field.values.ravel(), direct)

    @pytest.mark.parametrize("other", [
        GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=17, cols=25),  # finer
        GridSpec(bbox=(-90.0, 0.0, 160.0, 130.0), rows=9, cols=13),  # larger
    ])
    def test_field_on_another_grid_has_the_interpolated_bits(self, other):
        grid = GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=9, cols=13)
        layers = self.flagged_layers(grid)
        # One layer on the field's grid, one on the starmap's: mixed grids.
        mixed = [self.flagged_layers(other, seed=1)[0], layers[1]]
        nodes = other.node_points()
        for case in (layers, mixed):
            field = precompute_field(self.NODE_PROGRAM, case, other)
            direct = ConstitutionEvaluator(self.NODE_PROGRAM, case).probabilities(nodes, nodes)
            self.assert_bits_equal(field.values.ravel(), direct)

    @pytest.mark.parametrize("measurement", [(30.0, 70.0), (25.0, 57.5), (1e3, 0.0)])
    def test_field_with_a_fixed_measurement_has_the_interpolated_bits(self, measurement):
        grid = GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=9, cols=13)
        layers = self.flagged_layers(grid)
        field = precompute_field(self.NODE_PROGRAM, layers, grid, measurement=measurement)
        nodes = grid.node_points()
        meas = np.broadcast_to(np.asarray(measurement), nodes.shape)
        direct = ConstitutionEvaluator(self.NODE_PROGRAM, layers).probabilities(nodes, meas)
        self.assert_bits_equal(field.values.ravel(), direct)

    def test_json_round_trip(self, tmp_path):
        program = parse("1.0 :: constitution(X, Z) :- over(X, land).")
        grid = GridSpec(bbox=(0.0, 0.0, 100.0, 100.0), rows=3, cols=3)
        field = precompute_field(program, [gradient_layer("over", "land")], grid)
        path = tmp_path / "field.json"
        field.save(path)
        loaded = ConstitutionField.load(path)
        np.testing.assert_array_equal(loaded.values, field.values)

    def test_values_survive_the_round_trip_bit_for_bit(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([[np.nan, -0.0, tiny], [1.0, 1 / 3, np.nan]])
        field = ConstitutionField(GridSpec(bbox=(0.0, 0.0, 10.0, 10.0), rows=2, cols=3),
                                  values)
        path = tmp_path / "field.json"
        field.save(path)
        line, body = path.read_bytes().split(b"\n", 1)
        assert json.loads(line) == {"encoding": jsonio.RASTER_ENCODING,
                                    "bbox": [0.0, 0.0, 10.0, 10.0], "resolution": [2, 3]}
        assert body == values.astype("<f8").tobytes()
        loaded = ConstitutionField.load(path)
        assert loaded.grid == field.grid
        np.testing.assert_array_equal(loaded.values.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("encoding", [None, "float64", "base64-float64-le"])
    def test_number_list_field_file_is_refused(self, tmp_path, encoding):
        doc = {"bbox": [0.0, 0.0, 10.0, 10.0], "resolution": [2, 2],
               "values": [0.5, None, 1.0, 0.0]}
        if encoding is not None:
            doc["encoding"] = encoding
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"^bad field file {path}: line 1 must be a "
                                              "JSON header with encoding "
                                              f"'{jsonio.RASTER_ENCODING}', got .*; write "
                                              "the file again with build-starmap or field$"):
            ConstitutionField.load(path)

    def test_clamped_interpolation(self):
        grid = GridSpec(bbox=(0.0, 0.0, 1.0, 1.0), rows=2, cols=2)
        field = ConstitutionField(grid=grid, values=np.array([[0.0, 1.0], [0.0, 1.0]]))
        vals = field.at_clamped(np.array([[-5.0, 0.5], [5.0, 0.5]]))
        assert vals[0] == 0.0 and vals[1] == 1.0


class TestModeAgreement:
    """Field mode and direct mode clamp alike and share one NaN mask."""

    @pytest.mark.parametrize("z", [(50.0, 60.0), (np.nan, 60.0), (np.inf, -np.inf)])
    def test_nan_and_infinite_positions_without_a_warning(self, z):
        # A NaN position reads NaN in both modes; an infinite one clamps
        # onto the bbox edge. Direct mode reads the measurement too.
        grid = GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=5, cols=7)
        rng = np.random.default_rng(3)
        layer = StaRMapLayer(RelationKind.OVER, "land", grid, rng.uniform(size=(5, 7)),
                             rng.uniform(0.0, 0.3, size=(5, 7)), sample_count=2)
        program = parse("0.7 :: constitution(X, Z) :- over(X, land), over(Z, land).")
        positions = np.array([[np.nan, 60.0], [60.0, np.nan], [np.nan, np.nan],
                              [np.inf, 60.0], [-np.inf, np.inf], [60.0, -np.inf],
                              [150.0, 60.0], [-50.0, 120.0], [60.0, 20.0]])
        edges = positions[6:]
        for model in (precompute_field(program, [layer], grid),
                      ConstitutionEvaluator(program, [layer])):
            out = model.particle_probabilities(positions, z)
            assert np.isnan(out[:3]).all()
            np.testing.assert_array_equal(out[3:6], model.particle_probabilities(edges, z))
            if isinstance(model, ConstitutionEvaluator) and np.isnan(z).any():
                assert np.isnan(out).all()
            else:
                assert np.isfinite(out[3:]).all()

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.integers(2, 6),
        cols=st.integers(2, 6),
        a=st.integers(1, 100),
        b=st.integers(0, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_field_and_direct_modes_agree(self, rows, cols, a, b, seed):
        # P = 1 - (1 - a * m)(1 - b) is affine in the over-layer mean m, so
        # interpolating P (field) and interpolating m (direct) commute.
        rng = np.random.default_rng(seed)
        grid = GridSpec(bbox=(-50.0, 20.0, 150.0, 120.0), rows=rows, cols=cols)
        flagged = rng.uniform(size=(rows, cols)) < 0.2
        layer = StaRMapLayer(
            relation=RelationKind.OVER, tag="land", grid=grid,
            mean=np.where(flagged, np.nan, rng.uniform(size=(rows, cols))),
            std=np.where(flagged, np.nan, rng.uniform(0.0, 0.3, size=(rows, cols))),
            sample_count=2,
        )
        program = parse(
            f"{a / 100} :: constitution(X, Z) :- over(X, land).\n"
            f"{b / 100} :: constitution(X, Z).\n"
        )
        field = precompute_field(program, [layer], grid)
        np.testing.assert_array_equal(np.isnan(field.values), flagged)

        points = np.vstack([
            rng.uniform((-50.0, 20.0), (150.0, 120.0), size=(100, 2)),
            rng.uniform((-250.0, -80.0), (350.0, 220.0), size=(100, 2)),
            grid.node_points()[rng.integers(rows * cols, size=50)],
        ])
        z = points[0]
        via_field = field.particle_probabilities(points, z)
        direct = ConstitutionEvaluator(program, [layer]).particle_probabilities(
            points, z
        )
        undefined = np.isnan(via_field)
        np.testing.assert_array_equal(np.isnan(direct), undefined)
        np.testing.assert_allclose(direct[~undefined], via_field[~undefined],
                                   rtol=0.0, atol=1e-12)
