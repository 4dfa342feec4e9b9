import numpy as np
import pytest

from cstrack.errors import ConfigurationError
from cstrack.ingest import Track
from cstrack.particlefilter import FilterConfig
from cstrack.trust import (
    TrustFeatures,
    TrustTable,
    calibrate,
    extract_features,
    position_mae,
    vessel_type_name,
)


def make_track(metadata=None, steps=30, dt=60.0, speed=(5.0, 0.0)):
    times = np.arange(steps) * dt
    positions = np.column_stack([times * speed[0], times * speed[1]])
    return Track(
        vessel_id="v",
        times=times,
        positions=positions,
        metadata=metadata or {},
        dt=dt,
    )


class TestFeatures:
    def test_cargo_deep_draft_fast(self):
        track = make_track({"vessel_type": 70, "draft": 12.0, "sog_median_kn": 8.0})
        assert extract_features(track) == TrustFeatures("cargo", True, False)

    def test_towing_shallow_slow(self):
        track = make_track({"vessel_type": 31, "draft": 3.0, "sog_median_kn": 0.2})
        assert extract_features(track) == TrustFeatures("towing", False, True)

    def test_missing_type_is_unknown(self):
        track = make_track({"draft": 5.0, "sog_median_kn": 4.0})
        assert extract_features(track).vessel_type == "unknown"
        assert not extract_features(track).waterway_bound

    def test_deep_draft_alone_binds_to_waterways(self):
        track = make_track({"vessel_type": 36, "draft": 9.5, "sog_median_kn": 4.0})
        assert extract_features(track).waterway_bound

    def test_type_table(self):
        assert vessel_type_name(30) == "fishing"
        assert vessel_type_name(52) == "special"
        assert vessel_type_name(65) == "passenger"
        assert vessel_type_name(84) == "tanker"
        assert vessel_type_name(None) == "unknown"
        assert vessel_type_name(99) == "other"


class TestTrustTable:
    def test_lookup_and_default(self):
        stored = TrustFeatures("cargo", True, False)
        table = TrustTable(entries=((stored, 0.8),), default_tau=0.1)
        assert table.lookup(stored) == 0.8
        assert table.lookup(TrustFeatures("sailing", False, False)) == 0.1

    def test_default_zero_means_baseline_for_unseen(self):
        table = TrustTable(entries=(), default_tau=0.0)
        assert table.lookup(TrustFeatures("other", False, False)) == 0.0

    def test_round_trip(self, tmp_path):
        table = TrustTable(
            entries=(
                (TrustFeatures("cargo", True, False), 0.8),
                (TrustFeatures("towing", False, True), 0.0),
            ),
            default_tau=0.2,
        )
        path = tmp_path / "trust.json"
        table.save(path)
        assert TrustTable.load(path) == table

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            TrustTable(entries=((TrustFeatures("cargo", True, False), 1.5),))


class TestMae:
    def test_identical_zero(self):
        a = np.arange(10.0).reshape(5, 2)
        assert position_mae(a, a) == 0.0

    def test_constant_offset(self):
        a = np.zeros((4, 2))
        b = np.full((4, 2), [3.0, 0.0])
        assert position_mae(a, b) == 3.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2))
        oracle = sum(
            float(np.hypot(*(pa - pb))) for pa, pb in zip(a, b)
        ) / 50.0
        assert position_mae(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            position_mae(np.zeros((3, 2)), np.zeros((4, 2)))


def corridor_evaluator(width=15.0):
    def evaluate(positions, z):
        return np.exp(-0.5 * (positions[..., 1] / width) ** 2)

    return evaluate


class TestCalibrate:
    def config(self):
        return FilterConfig(particles=300, dt=60.0, sigma_a=0.03,
                            measurement_noise_std=60.0)

    def test_single_track_trivial_grid(self):
        track = make_track({"vessel_type": 70, "draft": 12.0, "sog_median_kn": 8.0})
        table, report = calibrate(
            [track], corridor_evaluator(), self.config(), tau_grid=(0.0,), seed=1
        )
        assert table.lookup(extract_features(track)) == 0.0
        assert report.buckets[0].track_count == 1

    def picks(self, tracks):
        """The chosen tau of the tracks' one bucket at seeds 0-19; each
        seed's pick must not lose to the baseline in-sample."""
        chosen = []
        for seed in range(20):
            table, report = calibrate(
                tracks, corridor_evaluator(), self.config(),
                tau_grid=(0.0, 0.5, 1.0), seed=seed,
            )
            bucket = report.buckets[0]
            assert table.lookup(extract_features(tracks[0])) == bucket.chosen_tau
            # Safety bound: chosen tau never loses to the baseline in-sample.
            chosen_idx = bucket.tau_grid.index(bucket.chosen_tau)
            assert bucket.mae_per_tau[chosen_idx] == min(bucket.mae_per_tau)
            assert bucket.mae_per_tau[chosen_idx] <= bucket.mae_per_tau[0]
            chosen.append(bucket.chosen_tau)
        return chosen

    @staticmethod
    def mode(values):
        counts = {value: values.count(value) for value in values}
        return max(counts, key=counts.get)

    def test_compliant_agents_choose_positive_tau(self):
        # Agents glued to the corridor y = 0 under strong measurement
        # noise: the compliance pull must help, so the argmin moves off 0
        # at most seeds.
        tracks = [
            make_track({"vessel_type": 70, "draft": 12.0, "sog_median_kn": 8.0})
            for _ in range(3)
        ]
        assert self.mode(self.picks(tracks)) > 0.0

    def test_violating_agents_choose_zero(self):
        # Agents far off the corridor: the evaluator concentrates mass in
        # the wrong place, so tau = 0 wins at most seeds.
        tracks = []
        for _ in range(3):
            base = make_track({"vessel_type": 31, "draft": 3.0, "sog_median_kn": 7.0})
            shifted = base.positions + np.array([0.0, 120.0])
            tracks.append(
                Track(
                    vessel_id="v", times=base.times, positions=shifted,
                    metadata=base.metadata, dt=base.dt,
                )
            )
        assert self.mode(self.picks(tracks)) == 0.0

    def test_grid_must_contain_zero(self):
        track = make_track()
        with pytest.raises(ConfigurationError):
            calibrate([track], corridor_evaluator(), self.config(),
                      tau_grid=(0.5, 1.0))

    def test_grid_must_not_repeat_a_ratio(self):
        with pytest.raises(ConfigurationError, match="tau grid lists 0.5 more than once"):
            calibrate([make_track()], corridor_evaluator(), self.config(),
                      tau_grid=(0.0, 0.5, 0.5))

    def test_determinism(self):
        tracks = [make_track({"vessel_type": 70, "sog_median_kn": 8.0})]
        kwargs = dict(tau_grid=(0.0, 0.5), seed=9)
        t1, r1 = calibrate(tracks, corridor_evaluator(), self.config(), **kwargs)
        t2, r2 = calibrate(tracks, corridor_evaluator(), self.config(), **kwargs)
        assert t1 == t2
        assert r1.buckets[0].mae_per_tau == r2.buckets[0].mae_per_tau

    def test_histograms_consistent(self):
        tracks = [
            make_track({"vessel_type": 70, "draft": 12.0, "sog_median_kn": 8.0}),
            make_track({"vessel_type": 70, "draft": 12.0, "sog_median_kn": 8.0}),
            make_track({"vessel_type": 36, "draft": 2.0, "sog_median_kn": 5.0}),
        ]
        table, report = calibrate(
            tracks, corridor_evaluator(), self.config(), tau_grid=(0.0, 1.0), seed=5
        )
        assert sum(report.histogram_by_bucket().values()) == len(report.buckets)
        assert sum(report.histogram_by_track().values()) == len(tracks)

    def test_degenerate_track_is_skipped(self):
        # Zero compliance everywhere: the tau = 1 arm degenerates, so the
        # only track is skipped and the bucket falls back to default_tau.
        track = make_track({"vessel_type": 70, "sog_median_kn": 8.0})
        table, report = calibrate(
            [track], lambda p, z: np.zeros(p.shape[:2]), self.config(),
            tau_grid=(0.0, 1.0), seed=2, default_tau=0.3,
        )
        bucket = report.buckets[0]
        assert bucket.skipped_tracks == 1
        assert bucket.track_count == 1
        assert bucket.chosen_tau == 0.3
        assert table.lookup(extract_features(track)) == 0.3
        assert bucket.mae_per_tau == (np.inf, np.inf)

    def test_report_csv(self, tmp_path):
        tracks = [make_track({"vessel_type": 70, "sog_median_kn": 8.0})]
        _, report = calibrate(
            tracks, corridor_evaluator(), self.config(), tau_grid=(0.0, 1.0), seed=6
        )
        path = tmp_path / "hist.csv"
        report.write_histogram_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,optimal_for_buckets,optimal_for_tracks"
        assert len(lines) >= 2
