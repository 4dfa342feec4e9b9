import csv
import dataclasses
import json

import numpy as np
import pytest

from cstrack.constitution.field import ConstitutionField
from cstrack.errors import ConfigurationError, FormatError, StuckAgentError
from cstrack.evalbench import (
    MetricReport,
    RunRow,
    Scenario,
    load_scenario,
    run_ablation,
    simulate_agent,
)
from cstrack.grids import GridSpec
from cstrack.particlefilter import FilterConfig
from cstrack.trust import check_taus


def constant_field(value=1.0, bbox=(-200.0, -200.0, 3200.0, 200.0), rows=5, cols=25):
    grid = GridSpec(bbox=bbox, rows=rows, cols=cols)
    return ConstitutionField(grid=grid, values=np.full((rows, cols), value))


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def corridor_field(width=60.0, bbox=(-200.0, -300.0, 3200.0, 300.0), rows=13, cols=35):
    grid = GridSpec(bbox=bbox, rows=rows, cols=cols)
    pts = grid.node_points()
    inside = np.abs(pts[:, 1]) <= width
    values = np.where(inside, 1.0, 0.0).reshape(rows, cols)
    return ConstitutionField(grid=grid, values=values)


class TestSimulateAgent:
    def test_constant_one_field_accepts_every_kick(self):
        f = constant_field(1.0)
        rng = np.random.default_rng(0)
        track = simulate_agent(f, (0.0, 0.0), (5.0, 0.0), steps=40, dt=10.0,
                               mode="compliant", rng=rng, kick_std=0.02)
        assert track.shape == (41, 2)
        # velocity stays near the initial one: pure random walk on kicks
        deltas = np.diff(track, axis=0) / 10.0
        assert abs(deltas[:, 0].mean() - 5.0) < 0.5

    def test_compliant_agent_stays_in_corridor(self):
        # Membership check is the oracle: acceptance is zero outside the
        # corridor band, so every accepted step stays inside by
        # construction; the run must merely complete.
        f = corridor_field(width=60.0)
        rng = np.random.default_rng(1)
        track = simulate_agent(f, (0.0, 0.0), (5.0, 0.0), steps=25, dt=10.0,
                               mode="compliant", rng=rng, kick_std=0.05)
        band = 100.0  # last interior node row; the field vanishes beyond it
        assert (np.abs(track[:, 1]) < band).all()

    def test_incompliant_agent_exits_corridor(self):
        # Same oracle, negated: acceptance is zero strictly inside, so the
        # first accepted kick already leaves the full-membership band.
        f = corridor_field(width=60.0)
        rng = np.random.default_rng(2)
        track = simulate_agent(f, (0.0, 0.0), (5.0, 0.0), steps=20, dt=10.0,
                               mode="incompliant", rng=rng, kick_std=2.0)
        assert (np.abs(track[:, 1]) > 60.0).any()

    def test_stuck_agent_raises(self):
        # Zero-measure acceptance: a compliant agent in an all-zero field.
        f = constant_field(0.0)
        with pytest.raises(StuckAgentError):
            simulate_agent(f, (0.0, 0.0), (5.0, 0.0), steps=3, dt=10.0,
                           mode="compliant", rng=np.random.default_rng(3))

    def test_start_outside_field_rejected(self):
        f = constant_field(1.0)
        with pytest.raises(ConfigurationError):
            simulate_agent(f, (1e6, 0.0), (0.0, 0.0), steps=2, dt=1.0,
                           mode="compliant", rng=np.random.default_rng(0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_agent(constant_field(), (0, 0), (0, 0), 2, 1.0, "chaotic",
                           np.random.default_rng(0))


def plateau_field(half=25.0, shoulder=25.0, floor=0.01,
                  bbox=(-200.0, -400.0, 3200.0, 400.0), rows=33, cols=35):
    # Flat-top corridor with Gaussian shoulders and a small floor, the
    # profile a noisy-map over-layer produces. The plateau is narrower than
    # the measurement noise, which is where compliance knowledge pays off.
    grid = GridSpec(bbox=bbox, rows=rows, cols=cols)
    pts = grid.node_points()
    excess = np.maximum(np.abs(pts[:, 1]) - half, 0.0)
    values = floor + (1.0 - floor) * np.exp(-0.5 * (excess / shoulder) ** 2)
    return ConstitutionField(grid=grid, values=values.reshape(rows, cols))


def small_scenario(mode="compliant", n_seeds=3, taus=(0.0, 1.0), noise=50.0):
    f = plateau_field()
    rng = np.random.default_rng(7)
    tracks = [
        simulate_agent(f, (0.0, 0.0), (5.0, 0.0), steps=30, dt=10.0,
                       mode=mode, rng=rng, kick_std=0.05)
        for _ in range(2)
    ]
    config = FilterConfig(particles=400, dt=10.0, sigma_a=0.3,
                          measurement_noise_std=noise)
    return Scenario(field=f, truth_tracks=tracks, filter_config=config,
                    taus=tuple(taus), n_seeds=n_seeds, seed=99)


class TestRunAblation:
    def test_tau_zero_arm_equals_baseline_exactly(self):
        report = run_ablation(small_scenario(taus=(0.0,)))
        for row in report.rows:
            assert row.mae_filter == row.mae_baseline
            assert row.relative == 1.0

    def test_compliant_scenario_improves(self):
        report = run_ablation(small_scenario(taus=(1.0,), n_seeds=4))
        rel = [row.relative for row in report.rows]
        assert np.median(rel) < 0.95

    def test_noise_free_limit(self):
        scenario = small_scenario(taus=(1.0,), n_seeds=2, noise=1e-3)
        report = run_ablation(scenario)
        for row in report.rows:
            assert row.mae_filter < 1.0
            assert row.relative == pytest.approx(1.0, abs=0.05)

    def test_aggregate_scheme(self):
        report = run_ablation(small_scenario(taus=(0.0, 1.0), n_seeds=2))
        agg = report.aggregate()
        assert set(agg) == {"0.0", "1.0"}
        assert agg["0.0"]["relative_mae_mean"] == pytest.approx(1.0)
        assert agg["1.0"]["runs"] == 4

    def test_report_outputs(self, tmp_path):
        report = run_ablation(small_scenario(taus=(0.0,), n_seeds=1))
        report.save(tmp_path / "report.json")
        report.write_csv(tmp_path / "runs.csv")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "per_run" in doc and "aggregate" in doc
        lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,track,tau,mae,mae_baseline,relative_mae"
        assert len(lines) == 1 + len(report.rows)

    def straight_scenario(self, value, tracks, taus):
        config = FilterConfig(particles=100, dt=10.0, sigma_a=0.3,
                              measurement_noise_std=50.0)
        return Scenario(field=constant_field(value), truth_tracks=tracks,
                        filter_config=config, taus=taus, n_seeds=1, seed=3)

    def line(self, steps=12):
        return np.column_stack([np.arange(steps) * 50.0, np.zeros(steps)])

    def test_degenerate_arm_is_nan_row(self):
        # Zero compliance everywhere: the tau = 1 update zeroes every weight.
        report = run_ablation(self.straight_scenario(0.0, [self.line()], (0.0, 1.0)))
        assert [row.tau for row in report.rows] == [0.0, 1.0]
        base, degenerate = report.rows
        assert np.isfinite(base.mae_filter) and base.mae_filter == base.mae_baseline
        assert np.isnan(degenerate.mae_filter)
        assert degenerate.mae_baseline == base.mae_baseline

    def test_degenerate_arm_saves_null(self, tmp_path):
        report = run_ablation(self.straight_scenario(0.0, [self.line()], (0.0, 1.0)))
        report.save(tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=reject_constant)
        base, degenerate = doc["per_run"]
        assert degenerate["mae"] is None and degenerate["relative_mae"] is None
        assert degenerate["mae_baseline"] == base["mae"]
        assert doc["aggregate"]["1.0"] == {
            "relative_mae_mean": None, "relative_mae_std": None,
            "relative_mae_median": None, "mae_mean": None, "runs": 0,
        }
        assert doc["aggregate"]["0.0"]["mae_mean"] == base["mae"]
        assert doc["aggregate"]["0.0"]["runs"] == 1

    def test_undefined_numbers_are_empty_csv_cells(self, tmp_path):
        report = run_ablation(self.straight_scenario(0.0, [self.line()], (0.0, 1.0)))
        report.rows.append(
            RunRow(seed=9, track=0, tau=0.5, mae_filter=0.0, mae_baseline=0.0)
        )
        report.write_csv(tmp_path / "runs.csv")
        text = (tmp_path / "runs.csv").read_text()
        assert "nan" not in text.lower()
        with open(tmp_path / "runs.csv", newline="") as fh:
            header, base, degenerate, zero_baseline = csv.reader(fh)
        assert float(base[3]) == report.rows[0].mae_filter
        assert degenerate[3] == "" and degenerate[5] == ""
        assert float(degenerate[4]) == report.rows[1].mae_baseline
        assert zero_baseline[3:] == ["0.0", "0.0", ""]

    def test_aggregate_over_defined_runs(self):
        report = MetricReport(rows=[
            RunRow(seed=0, track=0, tau=1.0, mae_filter=30.0, mae_baseline=40.0),
            RunRow(seed=0, track=1, tau=1.0, mae_filter=float("nan"), mae_baseline=50.0),
        ])
        assert report.aggregate()["1.0"] == {
            "relative_mae_mean": 0.75, "relative_mae_std": 0.0,
            "relative_mae_median": 0.75, "mae_mean": 30.0, "runs": 1,
        }

    def test_degenerate_baseline_drops_track(self):
        # A 1e6 m jump leaves every particle with zero measurement likelihood
        # in the plain filter, so that track has no baseline and no rows.
        jump = self.line()
        jump[6:, 1] += 1e6
        report = run_ablation(
            self.straight_scenario(1.0, [jump, self.line()], (0.0, 0.5))
        )
        assert [(row.track, row.tau) for row in report.rows] == [(1, 0.0), (1, 0.5)]

    def test_rows_keep_caller_tau_order(self):
        report = run_ablation(small_scenario(taus=(1.0, 0.0, 0.5), n_seeds=1))
        assert [row.tau for row in report.rows] == [1.0, 0.0, 0.5] * 2
        first = report.rows[:3]
        assert first[1].mae_filter == first[1].mae_baseline

    @pytest.mark.parametrize("taus, message", [
        ((0.5, 0.5), "taus[1] lists the trust ratio of taus[0] again, got 0.5"),
        ((1.0, 0.0, 1.0), "taus[2] lists the trust ratio of taus[0] again, got 1.0"),
        ((0.0, -0.0), "taus[1] lists the trust ratio of taus[0] again, got -0.0"),
    ])
    def test_repeated_tau_rejected(self, taus, message):
        # the check load_scenario makes of a scenario's taus, and bench of --taus
        with pytest.raises(FormatError) as caught:
            check_taus(taus, "taus")
        assert str(caught.value) == message

    def test_taus_outside_unit_interval_rejected(self):
        # A scenario built in code reaches filter_arms, which checks each arm.
        scenario = dataclasses.replace(small_scenario(n_seeds=1), taus=(-0.5,))
        with pytest.raises(FormatError, match=r"must be a finite number, >= 0, <= 1, got -0.5"):
            run_ablation(scenario)

    def test_reruns_identical(self):
        a = run_ablation(small_scenario(n_seeds=2))
        b = run_ablation(small_scenario(n_seeds=2))
        assert [(r.mae_filter, r.mae_baseline) for r in a.rows] == [
            (r.mae_filter, r.mae_baseline) for r in b.rows
        ]


class TestScenarioLoading:
    def write_scenario(self, tmp_path):
        # Tiny inline corridor world in lon/lat around (0, 0).
        from cstrack.projection import LocalFrame

        frame = LocalFrame(origin_lon=0.0, origin_lat=0.0)

        def lonlat(x, y):
            lon, lat = frame.to_lonlat(x, y)
            return [float(lon), float(lat)]

        corridor = {
            "type": "Feature",
            "properties": {"tags": ["corridor"]},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[
                    lonlat(-200, -80), lonlat(3200, -80), lonlat(3200, 80),
                    lonlat(-200, 80), lonlat(-200, -80),
                ]],
            },
        }
        spec = {
            "name": "corridor-mini",
            "seed": 5,
            "map": {"inline": {"type": "FeatureCollection", "features": [corridor]}},
            "perturbations": {"inline": {"*": {"translation_std_m": 5.0}}},
            "constitution": {
                "inline": "1.0 :: constitution(X, Z) :- over(X, corridor).\n"
            },
            "grid": {"bbox": [-300.0, -300.0, 3300.0, 300.0], "rows": 7, "cols": 19},
            "starmap_samples": 8,
            "taus": [0.0, 1.0],
            "n_seeds": 2,
            "agents": {"count": 1, "mode": "compliant", "start": [0.0, 0.0],
                       "velocity": [5.0, 0.0], "steps": 30, "dt": 10.0,
                       "kick_std": 0.2},
            "filter": {"particles": 200, "dt": 10.0, "sigma_a": 0.1,
                       "measurement_noise_std": 40.0},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        return path

    def test_load_and_run(self, tmp_path):
        scenario = load_scenario(self.write_scenario(tmp_path))
        assert scenario.name == "corridor-mini"
        assert len(scenario.truth_tracks) == 1
        assert scenario.truth_tracks[0].shape == (31, 2)
        report = run_ablation(dataclasses.replace(scenario, taus=(0.0,), n_seeds=1))
        assert report.rows and report.rows[0].relative == 1.0

    def test_one_starmap_sample_is_configuration_error(self, tmp_path):
        path = self.write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        path.write_text(json.dumps({**spec, "starmap_samples": 1}))
        with pytest.raises(FormatError, match=r"starmap_samples must be an integer, >= 2, "
                                              r"<= 10000, got 1$"):
            load_scenario(path)

    @pytest.mark.parametrize("change, error, message", [
        ({"n_seeds": 0}, FormatError, "n_seeds must be an integer, >= 1, <= 1000, got 0"),
        ({"n_seeds": -1}, FormatError, "n_seeds must be an integer, >= 1, <= 1000, got -1"),
        ({"n_seeds": -2}, FormatError, "n_seeds must be an integer, >= 1, <= 1000, got -2"),
        ({"taus": []}, FormatError, "taus must list at least 1 trust ratio, got []"),
        ({"taus": [0.5, 2.0]}, FormatError,
         "taus[1] must be a finite number, >= 0, <= 1, got 2.0"),
        ({"taus": [0.5, 0.0, 0.5]}, FormatError,
         "taus[2] lists the trust ratio of taus[0] again, got 0.5"),
        ({"taus": 0.5}, FormatError, "taus must be a list, got 0.5"),
        ({"grid": {"bbox": [-300.0, -300.0, 3300.0, 300.0], "rows": 1, "cols": 19}},
         FormatError, "grid.rows must be an integer, >= 2, got 1"),
    ])
    def test_bad_sweep_rejected_before_building(self, tmp_path, change, error, message):
        path = self.write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        # A map that cannot load shows that nothing is built first.
        path.write_text(json.dumps({**spec, **change, "map": "missing.geojson"}))
        with pytest.raises(error) as caught:
            load_scenario(path)
        assert message in str(caught.value)

    def test_no_agents_rejected(self, tmp_path):
        path = self.write_scenario(tmp_path)
        spec = json.loads(path.read_text())
        spec["agents"]["count"] = 0
        path.write_text(json.dumps(spec))
        with pytest.raises(FormatError, match=r"agents\.count must be an integer, >= 1, "):
            load_scenario(path)

    def test_loading_deterministic(self, tmp_path):
        path = self.write_scenario(tmp_path)
        a = load_scenario(path)
        b = load_scenario(path)
        np.testing.assert_array_equal(a.truth_tracks[0], b.truth_tracks[0])
        np.testing.assert_array_equal(a.field.values, b.field.values)


class TestFieldEvaluator:
    def test_clamps_outside_points(self):
        f = corridor_field()
        vals = f.particle_probabilities(np.array([[0.0, 0.0], [0.0, 1e6]]), None)
        assert vals[0] == 1.0 and vals[1] == 0.0
