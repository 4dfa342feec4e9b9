import pathlib
import sys
import types

import numpy as np
import pytest

from cstrack.constitution import (
    ConstitutionEvaluator,
    environment_atoms,
    parse,
    precompute_field,
    program_relations,
)
from cstrack.demo import (
    CORRIDOR_STARTS,
    HARBOR_BBOX_M,
    HARBOR_ORIGIN,
    HARBOR_PERTURBATIONS,
    MARINE_CONSTITUTION,
    channel_track,
    corridor_scenario,
    harbor_geojson,
    write_demo,
)
from cstrack.grids import GridSpec
from cstrack.starmap import build_starmap
from cstrack.vectormap import load_geojson, perturbations_from_config


@pytest.fixture(scope="module")
def harbor():
    vmap, _ = load_geojson(harbor_geojson(), origin=HARBOR_ORIGIN)
    program = parse(MARINE_CONSTITUTION)
    perturbations = perturbations_from_config(vmap, HARBOR_PERTURBATIONS)
    grid = GridSpec(bbox=HARBOR_BBOX_M, rows=36, cols=36)
    layers = build_starmap(vmap, perturbations, program_relations(program), grid,
                           n=24, rng=3)
    return {
        "layers": layers,
        "grid": grid,
        "field": precompute_field(program, layers, grid),
    }


@pytest.fixture(scope="module")
def harbor_field(harbor):
    return harbor["field"]


def test_field_has_the_bits_of_direct_mode_at_the_starmap_nodes(harbor):
    # precompute_field reads the layers at their nodes instead of
    # interpolating them; the values must not move by a bit.
    program = parse(MARINE_CONSTITUTION)
    layers = harbor["layers"]
    nodes = layers[0].grid.node_points()
    field = precompute_field(program, layers, layers[0].grid)
    direct = ConstitutionEvaluator(program, layers).probabilities(nodes, nodes)
    assert np.isfinite(direct).all()
    np.testing.assert_array_equal(field.values.ravel().view(np.uint64), direct.view(np.uint64))


def test_marine_model_separates_land_from_waterway(harbor_field):
    # Qualitative check: compliance is high along the marked channel and
    # low over land and shoaling water.
    at = lambda x, y: float(harbor_field.at_clamped(np.array([[x, y]]))[0])
    channel = [at(0.0, y) for y in (-1500.0, -500.0, 500.0, 1500.0)]
    land = [at(-1750.0, 0.0), at(1750.0, 800.0)]
    shallow_off_lane = at(800.0, 1200.0)
    assert min(channel) > 0.8
    assert max(land) < 0.1
    assert shallow_off_lane < 0.1
    assert min(channel) > 4 * max(max(land), shallow_off_lane)


def test_sample_set_evaluates_in_one_batch(harbor):
    # One direct-mode call over all (state, measurement) rows gives the bits
    # of one call per row, also for rows clamped from outside the bbox.
    evaluate = ConstitutionEvaluator(
        parse(MARINE_CONSTITUTION), harbor["layers"]
    ).particle_probabilities
    rng = np.random.default_rng(12)
    states = rng.uniform(-2500.0, 2500.0, size=(400, 2))
    measurements = states + rng.normal(scale=50.0, size=(400, 2))
    assert (np.abs(states) > 2000.0).any()
    one_by_one = [evaluate(state[None], z)[0] for state, z in zip(states, measurements)]
    np.testing.assert_array_equal(evaluate(states, measurements), one_by_one)


def test_perception_is_swappable_text(harbor):
    # Per-vessel perception is plain program text prepended to the shared
    # rules: a shallow-draft tug that is not lane-bound scores better off
    # the marked lane than the bundled cargo perception does.
    base_rules = "".join(
        line + "\n"
        for line in MARINE_CONSTITUTION.splitlines()
        if not line.startswith(("1.0 :: purpose(", "0.95 :: underway"))
    )
    tug = parse("1.0 :: purpose(towing).\n0.95 :: underway.\n" + base_rules)
    cargo = parse(MARINE_CONSTITUTION)
    off_lane_deep = (450.0, -200.0)  # well off the waterway, still deep
    p_tug = precompute_field(tug, harbor["layers"], harbor["grid"]).at_clamped(
        np.array([off_lane_deep])
    )[0]
    p_cargo = harbor["field"].at_clamped(np.array([off_lane_deep]))[0]
    assert p_tug > 0.8
    assert p_cargo < 0.3


def test_write_demo_files(tmp_path):
    paths = write_demo(tmp_path / "demo")
    assert paths["map"].exists()
    assert paths["perturbations"].exists()
    text = paths["constitution"].read_text()
    assert "constitution(X, Z)" in text
    # The bundled program parses and references exactly the demo layers.
    program = parse(text)
    tags = {t for _, _, t in environment_atoms(program)}
    assert tags == {"land", "water", "way", "anchorage"}


def test_channel_track_runs_up_the_channel():
    track = channel_track(steps=10, dt_s=30.0, speed_mps=4.0)
    assert track.shape == (10, 2)
    assert (np.diff(track[:, 1]) > 0).all()
    assert (track[:, 0] == 0.0).all()


def test_corridor_scenario_puts_each_mode_at_its_start():
    for mode, start in CORRIDOR_STARTS.items():
        spec = corridor_scenario(mode, seed=1, n_seeds=2, agents=3, steps=4, particles=5)
        assert spec["name"] == f"corridor-{mode}"
        assert spec["agents"]["mode"] == mode
        assert spec["agents"]["start"] == list(start)
    with pytest.raises(ValueError, match="unknown agent mode 'reckless'"):
        corridor_scenario("reckless", seed=1, n_seeds=2, agents=3, steps=4, particles=5)


def test_corridor_scenarios_share_no_objects():
    a = corridor_scenario(seed=1, n_seeds=2, agents=3, steps=4, particles=5)
    a["perturbations"]["inline"]["corridor"]["translation_std_m"] = 0.0
    a["grid"]["bbox"][0] = 0.0
    assert corridor_scenario(seed=1, n_seeds=2, agents=3, steps=4, particles=5) != a


PERFBENCH_INPUTS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


@pytest.mark.parametrize("sizes", [
    {"seed": 7, "n_seeds": 10, "agents": 3, "steps": 40, "particles": 2000},
    {"seed": 0, "n_seeds": 2, "agents": 5, "steps": 3, "particles": 50},
])
def test_perfbench_corridor_scenario_is_the_demo_scenario(monkeypatch, sizes):
    """perfbench/inputs.py keeps its own copy of the compliant corridor
    scenario, on whose bytes its filter-sweeps digests rest. This pins the
    copy to cstrack.demo.corridor_scenario; it goes when perfbench imports
    the builder. The file is compiled from its text, so no bytecode is
    written next to it."""
    inputs = types.ModuleType("perfbench_inputs")
    inputs.__file__ = str(PERFBENCH_INPUTS)
    monkeypatch.setitem(sys.modules, inputs.__name__, inputs)
    exec(compile(PERFBENCH_INPUTS.read_text(encoding="utf-8"), inputs.__file__, "exec"),
         inputs.__dict__)
    assert inputs.corridor_scenario(**sizes) == corridor_scenario(**sizes)
