"""Acceptance suite: every criterion as one test, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion. The corridor and harbor pipelines are built once per
module; all randomness is seeded.
"""

import functools
import hashlib
import json
import math
import statistics
import time

import numpy as np
import pytest

import world
from reference_binding import exact_probability
from reference_filter import (
    belief,
    effective_sample_size,
    predict,
    resample,
    run_filter,
    update_constitution,
    update_measurement,
    validate,
)
from wmc_oracle import oracle_probability, random_program

from cstrack.cli import main as cli_main
from cstrack.constitution import (
    ConstitutionEvaluator,
    ground,
    parse,
    precompute_field,
    program_relations,
)
from cstrack.demo import (
    CORRIDOR_CONSTITUTION,
    CORRIDOR_DT_S,
    CORRIDOR_FILTER,
    CORRIDOR_GRID,
    CORRIDOR_KICK_STD,
    CORRIDOR_ORIGIN,
    CORRIDOR_PERTURBATIONS,
    CORRIDOR_STARTS,
    CORRIDOR_VELOCITY,
    HARBOR_BBOX_M,
    HARBOR_ORIGIN,
    HARBOR_PERTURBATIONS,
    MARINE_CONSTITUTION,
    channel_track,
    corridor_geojson,
    corridor_scenario,
    harbor_geojson,
)
from cstrack.evalbench import Scenario, run_ablation, simulate_agent
from cstrack.grids import GridSpec
from cstrack.ingest import Track
from cstrack.kde import BoundedDensity
from cstrack.particlefilter import (
    FilterConfig,
    MeasurementModel,
    ProcessModel,
)
from cstrack.relations import RelationKind, eval_relation_many
from cstrack.starmap import build_starmap
from cstrack.trust import calibrate, extract_features, position_mae
from cstrack.vectormap import (
    FeaturePerturbation,
    VectorMap,
    line_feature,
    load_geojson,
    perturbations_from_config,
    polygon_feature,
)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {label}: PASS", flush=True)

        return run

    return wrap


# ---------------------------------------------------------------------------
# Shared pipelines


CORRIDOR_CONFIG = FilterConfig(particles=2000, **CORRIDOR_FILTER)


def _as_track(positions: np.ndarray, dt: float, vessel_id: str) -> Track:
    return Track(
        vessel_id=vessel_id,
        times=np.arange(len(positions)) * dt,
        positions=np.asarray(positions, dtype=float),
        metadata={"vessel_type": 70, "draft": 11.0, "sog_median_kn": 8.0},
        dt=dt,
    )


@pytest.fixture(scope="module")
def corridor():
    """Corridor world built through the full pipeline (map -> layers -> field)."""
    vmap, _ = load_geojson(corridor_geojson(), origin=CORRIDOR_ORIGIN)
    program = parse(CORRIDOR_CONSTITUTION)
    perturbations = perturbations_from_config(vmap, CORRIDOR_PERTURBATIONS)
    grid = GridSpec.from_json(CORRIDOR_GRID)
    layers = build_starmap(vmap, perturbations, program_relations(program), grid,
                           n=50, rng=7)
    f = precompute_field(program, layers, grid)

    def agents(mode, count, seed):
        rng = np.random.default_rng(seed)
        return [
            simulate_agent(
                f, CORRIDOR_STARTS[mode], CORRIDOR_VELOCITY, steps=30, dt=CORRIDOR_DT_S,
                mode=mode, rng=rng, kick_std=CORRIDOR_KICK_STD,
            )
            for _ in range(count)
        ]

    return {"field": f, "layers": layers, "program": program, "agents": agents}


@pytest.fixture(scope="module")
def harbor():
    """Demo harbor with a 100 x 100 starmap and compliance field."""
    vmap, _ = load_geojson(harbor_geojson(), origin=HARBOR_ORIGIN)
    program = parse(MARINE_CONSTITUTION)
    perturbations = perturbations_from_config(vmap, HARBOR_PERTURBATIONS)
    grid = GridSpec(bbox=HARBOR_BBOX_M, rows=100, cols=100)
    layers = build_starmap(vmap, perturbations, program_relations(program), grid,
                           n=40, rng=13)
    f = precompute_field(program, layers, grid)
    return {"field": f, "layers": layers, "program": program, "grid": grid}


# ---------------------------------------------------------------------------
# Criteria


@criterion("1 WMC oracle equivalence (200 programs, 1e-9)")
def test_criterion_01_wmc_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20_240_811)
    for _ in range(200):
        program, oracle_rep = random_program(
            rng, max_facts=10, max_rules=10, max_choices=10
        )
        engine = exact_probability(ground(program))
        oracle = oracle_probability(oracle_rep)
        assert abs(engine - oracle) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget is 60 s"


@criterion("2 baseline recovery (tau=0 bit-identical over 500 steps)")
def test_criterion_02_baseline_recovery(corridor):
    steps = 501
    truth = np.column_stack([50.0 * np.arange(steps), np.zeros(steps)])
    noisy = truth + np.random.default_rng(21).normal(scale=50.0, size=truth.shape)
    evaluate = corridor["field"].particle_probabilities

    base_est, base_records = run_filter(
        noisy, CORRIDOR_CONFIG, np.random.SeedSequence(22)
    )
    guided_est, guided_records = run_filter(
        noisy, CORRIDOR_CONFIG, np.random.SeedSequence(22), evaluate=evaluate, tau=0.0
    )
    assert np.array_equal(base_est, guided_est)  # exact equality required
    for a, b in zip(base_records, guided_records):
        assert a.estimate_position == b.estimate_position
        assert a.norm_const == b.norm_const
        assert a.n_eff == b.n_eff


@criterion("3 moment estimators (exact zero-spread; 3 sigma/sqrt(N) line case)")
def test_criterion_03_moment_estimators():
    # Each estimate is the starmap cell at node 0 of a 2 x 2 grid whose
    # lower-left corner is the query point.
    square = VectorMap.build(
        [polygon_feature([(0, 0), (10, 0), (10, 10), (0, 10)], ["land"])]
    )
    identity = {0: FeaturePerturbation.identity()}
    grid = GridSpec(bbox=(25.0, 5.0, 26.0, 6.0), rows=2, cols=2)
    (layer,) = build_starmap(
        square, identity, [(RelationKind.DISTANCE, "land")], grid, n=32, rng=0
    )
    mean, std = layer.mean[0, 0], layer.std[0, 0]
    assert std == 0.0
    assert mean == eval_relation_many(
        square, RelationKind.DISTANCE, np.array([[25.0, 5.0]]), "land"
    )[0]

    sigma, d, n = 1.0, 100.0, 10_000
    line = VectorMap.build([line_feature([(-1e7, 0.0), (1e7, 0.0)], ["way"])])
    perturb = {0: FeaturePerturbation(translation_cov=((0.0, 0.0), (0.0, sigma**2)))}
    grid = GridSpec(bbox=(0.0, d, 1.0, d + 1.0), rows=2, cols=2)
    (layer,) = build_starmap(
        line, perturb, [(RelationKind.DISTANCE, "way")], grid, n=n, rng=5
    )
    mean, std = layer.mean[0, 0], layer.std[0, 0]
    bound = 3.0 * sigma / math.sqrt(n)
    assert abs(mean - d) < bound, f"mean {mean} vs {d} (bound {bound})"
    assert abs(std - sigma) < bound, f"std {std} vs {sigma} (bound {bound})"


@criterion("4 comparison compilation (0.5 exact; quadrature 1e-7)")
def test_criterion_04_comparison_compilation():
    gp = ground(parse("d ~ normal(100, 1). q :- d > 100. query(q)."))
    assert abs(exact_probability(gp) - 0.5) < 1e-9

    gp = ground(parse("d ~ normal(100, 1). q :- d between [99, 101]. query(q)."))
    engine = exact_probability(gp)
    xs = np.linspace(99.0, 101.0, 400_001)
    pdf = np.exp(-0.5 * (xs - 100.0) ** 2) / math.sqrt(2 * math.pi)
    quadrature = float(np.trapezoid(pdf, xs))
    assert abs(engine - quadrature) < 1e-7


@criterion("5 compliant-scenario improvement (median relative MAE < 0.9)")
def test_criterion_05_compliant_improvement(corridor):
    started = time.perf_counter()
    training = [
        _as_track(p, CORRIDOR_DT_S, f"train{i}")
        for i, p in enumerate(corridor["agents"]("compliant", 3, seed=301))
    ]
    evaluate = corridor["field"].particle_probabilities
    table, report = calibrate(
        training, evaluate, CORRIDOR_CONFIG,
        tau_grid=(0.0, 0.25, 0.5, 0.75, 1.0), seed=302,
    )
    tau_star = table.lookup(extract_features(training[0]))
    assert tau_star > 0.0, f"calibration picked tau = {tau_star}"

    eval_tracks = corridor["agents"]("compliant", 2, seed=303)
    scenario = Scenario(
        field=corridor["field"], truth_tracks=eval_tracks,
        filter_config=CORRIDOR_CONFIG, taus=(tau_star,), n_seeds=20, seed=304,
    )
    ablation = run_ablation(scenario)
    rel = [row.relative for row in ablation.rows if row.relative is not None]
    assert len(rel) == 40
    median = float(np.median(rel))
    # First verified run: calibration picked tau = 1.0 and the median came
    # out at 0.757 (max 0.994 over 40 runs); 0.9 is the acceptance
    # threshold and doubles as the regression bound.
    assert median < 0.9, f"median relative MAE {median:.3f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"took {elapsed:.0f} s, budget is 600 s"


@criterion("6 incompliant-scenario safety (tau = 0 selected; baseline MAE exact)")
def test_criterion_06_incompliant_safety(corridor):
    training = [
        _as_track(p, CORRIDOR_DT_S, f"bad{i}")
        for i, p in enumerate(corridor["agents"]("incompliant", 3, seed=401))
    ]
    evaluate = corridor["field"].particle_probabilities
    table, report = calibrate(
        training, evaluate, CORRIDOR_CONFIG,
        tau_grid=(0.0, 0.25, 0.5, 0.75, 1.0), seed=402,
    )
    tau_star = table.lookup(extract_features(training[0]))
    assert tau_star == 0.0, f"calibration picked tau = {tau_star}"

    truth = corridor["agents"]("incompliant", 1, seed=403)[0]
    noisy = truth + np.random.default_rng(404).normal(
        scale=CORRIDOR_FILTER["measurement_noise_std"], size=truth.shape)
    base_est, _ = run_filter(noisy, CORRIDOR_CONFIG, np.random.SeedSequence(405))
    guided_est, _ = run_filter(
        noisy, CORRIDOR_CONFIG, np.random.SeedSequence(405),
        evaluate=evaluate, tau=tau_star,
    )
    assert np.array_equal(base_est, guided_est)
    assert position_mae(base_est, truth[1:]) == position_mae(guided_est, truth[1:])


@criterion("7 field-vs-direct consistency (< 5% MAE; >= 10x speed)")
def test_criterion_07_field_vs_direct(harbor):
    config = FilterConfig(
        particles=2000, dt=30.0, sigma_a=0.2, measurement_noise_std=50.0
    )
    truth = channel_track(steps=40, dt_s=30.0)
    noisy = truth + np.random.default_rng(51).normal(scale=50.0, size=truth.shape)

    field_eval = harbor["field"].particle_probabilities
    direct_eval = ConstitutionEvaluator(
        harbor["program"], harbor["layers"]
    ).particle_probabilities

    maes = {}
    for label, evaluate in (("field", field_eval), ("direct", direct_eval)):
        est, _ = run_filter(
            noisy, config, np.random.SeedSequence(52), evaluate=evaluate, tau=0.8
        )
        maes[label] = position_mae(est, truth[1:])
    diff = abs(maes["field"] - maes["direct"]) / maes["direct"]
    assert diff < 0.05, f"mode MAE difference {diff:.1%} (field {maes['field']:.1f}, " \
                        f"direct {maes['direct']:.1f})"

    # Per-update cost: 2000 particles against the 100 x 100 field. Only the
    # ordering (>= 10x) is asserted; absolute numbers are hardware-bound.
    rng = np.random.default_rng(53)
    positions = truth[20] + rng.normal(scale=60.0, size=(2000, 2))
    z = truth[20]
    for evaluate in (field_eval, direct_eval):
        evaluate(positions, z)  # warm-up
    # Interleaved calls, one timer each, compared by their medians: a busy
    # spell of the machine slows both modes alike and moves no median far.
    times = {field_eval: [], direct_eval: []}
    for _ in range(30):
        for evaluate, spent in times.items():
            t0 = time.perf_counter()
            evaluate(positions, z)
            spent.append(time.perf_counter() - t0)
    ratio = statistics.median(times[direct_eval]) / statistics.median(times[field_eval])
    assert ratio >= 10.0, f"direct/field cost ratio {ratio:.1f}"


@criterion("8 KDE normalization (50 sample sets, 1 +- 1e-3)")
def test_criterion_08_kde_normalization():
    rng = np.random.default_rng(61)
    for i in range(50):
        n = int(rng.integers(5, 300))
        kind = i % 3
        if kind == 0:
            samples = rng.uniform(0.0, 1.0, n)
        elif kind == 1:
            samples = np.clip(rng.normal(rng.uniform(0, 1), 0.08, n), 0.0, 1.0)
        else:
            half = n // 2
            samples = np.concatenate(
                [np.full(half, rng.uniform(0, 0.3)),
                 np.full(n - half, rng.uniform(0.7, 1.0))]
            )
        dens = BoundedDensity(samples)
        xs = np.linspace(0.0, 1.0, 10_001)
        integral = float(np.trapezoid(dens(xs), xs))
        assert abs(integral - 1.0) <= 1e-3, f"set {i}: integral {integral}"


@criterion("9 particle-filter statistics (simplex fuzz; resampling +-0.005)")
def test_criterion_09_filter_statistics():
    rng = np.random.default_rng(71)
    n = 64
    states, weights = belief(
        rng.normal(scale=20.0, size=(n, 2)), rng.normal(size=(n, 2))
    )
    process = ProcessModel(1.0, 0.3)
    meas = MeasurementModel.isotropic(15.0)
    z = np.zeros(2)
    for step in range(10_000):
        states, weights = predict(states, weights, process, rng)
        z = states[int(rng.integers(n)), :2] + rng.normal(scale=5.0, size=2)
        weights, _ = update_measurement(states, weights, z, meas)
        validate(states, weights)
        weights = update_constitution(
            weights, rng.uniform(size=n), tau=float(rng.uniform())
        )
        validate(states, weights)
        if effective_sample_size(weights) < 0.5 * n:
            states, weights = resample(states, weights, rng)
        validate(states, weights)

    weights = np.array([0.5, 0.3, 0.2])
    three = belief([(0, 0), (1, 0), (2, 0)], np.zeros((3, 2)), weights=weights)
    draw_rng = np.random.default_rng(72)
    counts = np.zeros(3)
    passes = 33_334  # >= 1e5 draws in total
    for _ in range(passes):
        out, _ = resample(*three, draw_rng)
        counts += np.bincount(out[:, 0].astype(int), minlength=3)
    freqs = counts / (passes * 3)
    assert np.abs(freqs - weights).max() <= 0.005


def c10_starmap_argv(paths, out_dir):
    return ["build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
            "--constitution", paths["constitution"], world.BBOX_FLAG,
            "--rows", 10, "--cols", 22, "--samples", 12, "--seed", 2,
            "--out", out_dir / "starmap.json"]


def c10_field_argv(paths, starmap, out_dir):
    return ["field", "--constitution", paths["constitution"], "--starmap", starmap,
            "--out", out_dir / "field.json", "--pgm", out_dir / "field.pgm", "--seed", 3]


@criterion("10 CLI determinism (byte-identical reruns, all subcommands)")
def test_criterion_10_cli_determinism(tmp_path):
    paths = world.write_world(tmp_path)

    def run(args):
        assert cli_main([str(a) for a in args]) == 0

    def twice(name, arg_builder, outputs):
        blobs = []
        for tag in ("r1", "r2"):
            sub = tmp_path / f"{name}_{tag}"
            sub.mkdir()
            run(arg_builder(sub))
            blobs.append(b"".join((sub / out).read_bytes() for out in outputs))
        assert blobs[0] == blobs[1], f"{name} outputs differ between reruns"
        return tmp_path / f"{name}_r1"

    ingest_dir = twice(
        "ingest",
        lambda sub: ["ingest", "--csv", paths["csv"], "--out", sub / "tracks.json",
                     "--dt", 60, world.ORIGIN_FLAG,
                     "--seed", 1],
        ["tracks.json"],
    )
    tracks = ingest_dir / "tracks.json"

    starmap_dir = twice("starmap", lambda sub: c10_starmap_argv(paths, sub), ["starmap.json"])
    starmap = starmap_dir / "starmap.json"

    twice("field", lambda sub: c10_field_argv(paths, starmap, sub), ["field.json", "field.pgm"])
    twice(
        "track",
        lambda sub: ["track", "--tracks", tracks,
                     "--constitution", paths["constitution"],
                     "--starmap", starmap, "--tau", 0.6, "--particles", 200,
                     "--meas-std", 40, "--seed", 4,
                     "--out-logs", sub / "steps.jsonl",
                     "--out-summary", sub / "summary.json"],
        ["steps.jsonl", "summary.json"],
    )
    twice(
        "calibrate",
        lambda sub: ["calibrate", "--tracks", tracks,
                     "--constitution", paths["constitution"],
                     "--starmap", starmap, "--tau-grid", "0,0.5",
                     "--particles", 150, "--meas-std", 40, "--seed", 5,
                     "--out-table", sub / "trust.json",
                     "--out-report", sub / "report.json",
                     "--out-hist", sub / "hist.csv"],
        ["trust.json", "report.json", "hist.csv"],
    )
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(corridor_scenario(
        seed=11, n_seeds=1, agents=2, steps=15, particles=120, samples=8, taus=(0.0, 0.5))))
    twice(
        "bench",
        lambda sub: ["bench", "--scenario", scenario, "--out-dir", sub,
                     "--seed", 6],
        ["report.json", "runs.csv"],
    )


# The SHA-256 of criterion 10's raster files. They came out the same under
# OpenBLAS's SkylakeX, Haswell and Nehalem kernels and with numpy's X86_V3
# and X86_V4 dispatch off, so a change that moves a raster bit must update
# them and say so.
C10_RASTER_SHA256 = {
    "starmap.json": "657c53577b2e96af65407194dbda56b3de4708ec2c4a7e51e8849ed7d65a6a24",
    "field.json": "8e47c76615e06b2ef185f96dabe1946a5619bf3a9bbdce5682e4597c1a354fd4",
}


def test_criterion_10_raster_files_are_pinned(tmp_path):
    paths = world.write_world(tmp_path)
    assert cli_main([str(a) for a in c10_starmap_argv(paths, tmp_path)]) == 0
    assert cli_main([str(a) for a in c10_field_argv(paths, tmp_path / "starmap.json",
                                                   tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in C10_RASTER_SHA256}
    assert digests == C10_RASTER_SHA256
