import numpy as np
import pytest

from cstrack.errors import ConfigurationError, FormatError
from cstrack.ingest import (
    MAX_STEPS,
    AisRecord,
    Track,
    load_tracks,
    read_ais_csv,
    resample_track,
    save_tracks,
    segment_tracks,
)
from cstrack.projection import LocalFrame

HEADER = "MMSI,BaseDateTime,LAT,LON,SOG,COG,VesselType,Draft\n"


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "ais.csv"
    path.write_text(header + "".join(rows))
    return path


class TestReadCsv:
    def test_well_formed_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "123,2020-01-01T00:00:00,40.0,-74.0,8.0,90.0,70,9.5\n",
                "123,2020-01-01T00:01:00,40.001,-74.0,8.1,90.0,70,9.5\n",
                "456,2020-01-01T00:00:30,40.5,-74.2,0.2,,31,3.0\n",
            ],
        )
        records, stats = read_ais_csv(path)
        assert len(records) == 3
        assert stats.records_in == 3 and stats.records_kept == 3
        assert records[0].vessel_type == 70
        assert records[2].cog is None

    def test_invalid_latitude_dropped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "123,2020-01-01T00:00:00,91.0,-74.0,8.0,90.0,70,9.5\n",
                "123,2020-01-01T00:01:00,40.0,-74.0,8.0,90.0,70,9.5\n",
            ],
        )
        records, stats = read_ais_csv(path)
        assert len(records) == 1
        assert stats.dropped_invalid == 1
        assert stats.records_in == stats.records_kept + stats.dropped_invalid

    def test_duplicate_timestamp_later_row_wins(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "123,2020-01-01T00:00:00,40.0,-74.0,8.0,90.0,70,9.5\n",
                "123,2020-01-01T00:00:00,41.0,-73.0,9.0,91.0,70,9.5\n",
            ],
        )
        records, stats = read_ais_csv(path)
        assert len(records) == 1
        assert records[0].lat == 41.0
        assert stats.dropped_duplicate == 1
        # lossless modulo logged drops
        assert stats.records_in == (
            stats.records_kept + stats.dropped_invalid + stats.dropped_duplicate
        )

    def test_non_finite_optional_fields_are_missing(self, tmp_path):
        path = write_csv(
            tmp_path, ["123,2020-01-01T00:00:00,40.0,-74.0,nan,inf,nan,NaN\n"]
        )
        records, stats = read_ais_csv(path)
        assert stats.records_kept == 1
        rec = records[0]
        assert (rec.sog, rec.cog, rec.vessel_type, rec.draft) == (None,) * 4

    def test_missing_mandatory_column(self, tmp_path):
        path = write_csv(tmp_path, ["123,40.0\n"], header="MMSI,LAT\n")
        with pytest.raises(FormatError):
            read_ais_csv(path)

    def test_column_remap(self, tmp_path):
        path = tmp_path / "custom.csv"
        path.write_text("id,when,y,x\nv1,2020-01-01T00:00:00,40.0,-74.0\n")
        records, _ = read_ais_csv(
            path,
            column_map={"vessel_id": "id", "timestamp": "when", "lat": "y", "lon": "x"},
        )
        assert records[0].vessel_id == "v1"

    def test_unknown_remap_field_rejected(self, tmp_path):
        path = write_csv(tmp_path, [])
        with pytest.raises(ConfigurationError):
            read_ais_csv(path, column_map={"bogus": "X"})


def rec(vessel, t, lat=40.0, lon=-74.0, **kw):
    return AisRecord(vessel_id=vessel, timestamp=t, lat=lat, lon=lon, **kw)


class TestSegmentation:
    def test_gap_splits_tracks(self):
        times = [0.0, 10.0, 20.0, 1020.0, 1030.0]
        records = [rec("a", t, lat=40.0 + 1e-5 * t) for t in times]
        tracks, _ = segment_tracks(records, gap_s=600.0)
        assert len(tracks) == 2
        assert tracks[0].size == 3 and tracks[1].size == 2

    def test_single_point_discarded(self):
        records = [
            rec("a", 0.0),
            rec("a", 10.0, lat=40.001),
            rec("b", 5.0),
        ]
        tracks, _ = segment_tracks(records)
        assert [t.vessel_id for t in tracks] == ["a"]

    def test_no_gap_one_track(self):
        records = [rec("a", 60.0 * i, lat=40.0 + 1e-4 * i) for i in range(10)]
        tracks, _ = segment_tracks(records, gap_s=600.0)
        assert len(tracks) == 1

    def test_metadata_aggregation(self):
        records = [
            rec("a", 0.0, sog=0.3, vessel_type=70, draft=9.0),
            rec("a", 10.0, lat=40.001, sog=0.5, vessel_type=70, draft=9.5),
            rec("a", 20.0, lat=40.002, sog=0.1),
        ]
        tracks, _ = segment_tracks(records)
        meta = tracks[0].metadata
        assert meta["vessel_type"] == 70
        assert meta["draft"] == 9.5
        assert meta["sog_median_kn"] == pytest.approx(0.3)

    def test_shared_frame_reused(self):
        frame = LocalFrame(origin_lon=-74.0, origin_lat=40.0)
        records = [rec("a", 0.0), rec("a", 10.0, lat=40.001)]
        tracks, out_frame = segment_tracks(records, frame=frame)
        assert out_frame == frame
        assert abs(tracks[0].positions[0]).max() < 1e-6


class TestResample:
    def make_track(self, times, xs, ys):
        times = np.asarray(times, dtype=float)
        positions = np.column_stack([xs, ys]).astype(float)
        velocities = np.zeros_like(positions)
        return Track(
            vessel_id="t", times=times, positions=positions, velocities=velocities
        )

    def test_uniform_track_unchanged(self):
        track = self.make_track([0, 60, 120], [0, 60, 120], [0, 0, 0])
        out = resample_track(track, dt=60.0)
        np.testing.assert_allclose(out.positions, track.positions, atol=1e-9)
        assert out.dt == 60.0

    def test_constant_speed_line(self):
        track = self.make_track([0, 30, 90, 120], [0, 30, 90, 120], [0, 0, 0, 0])
        out = resample_track(track, dt=40.0)
        np.testing.assert_allclose(out.positions[:, 0], [0.0, 40.0, 80.0, 120.0])
        np.testing.assert_allclose(out.velocities[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(out.velocities[:, 1], 0.0, atol=1e-12)

    def test_random_track_matches_interp_oracle(self):
        # Independent piecewise-linear oracle evaluated point by point.
        rng = np.random.default_rng(6)
        times = np.sort(rng.uniform(0, 1000, 30))
        times[0], times[-1] = 0.0, 1000.0
        xs = rng.uniform(-500, 500, 30)
        ys = rng.uniform(-500, 500, 30)
        track = self.make_track(times, xs, ys)
        out = resample_track(track, dt=37.0)

        def oracle(t, ts, vs):
            j = np.searchsorted(ts, t, side="right") - 1
            j = min(max(j, 0), len(ts) - 2)
            w = (t - ts[j]) / (ts[j + 1] - ts[j])
            return vs[j] * (1 - w) + vs[j + 1] * w

        for i, t in enumerate(out.times):
            assert out.positions[i, 0] == pytest.approx(oracle(t, times, xs), abs=1e-9)
            assert out.positions[i, 1] == pytest.approx(oracle(t, times, ys), abs=1e-9)

    def test_endpoints_on_grid_preserved(self):
        track = self.make_track([0, 25, 50], [0, 30, 60], [5, 5, 5])
        out = resample_track(track, dt=25.0)
        assert out.positions[0, 0] == 0.0
        assert out.positions[-1, 0] == 60.0

    def test_too_short_for_dt(self):
        track = self.make_track([0, 30], [0, 30], [0, 0])
        with pytest.raises(ConfigurationError):
            resample_track(track, dt=60.0)

    def test_at_most_max_steps_samples(self):
        track = self.make_track([0, MAX_STEPS - 1], [0, 1], [0, 0])
        assert len(resample_track(track, dt=1.0).times) == MAX_STEPS
        track = self.make_track([0, MAX_STEPS], [0, 1], [0, 0])
        # At 1e-300 the count is beyond any array, at 5e-324 beyond any float.
        for dt in (1.0, 1e-9, 1e-300, 5e-324):
            with pytest.raises(ConfigurationError, match=f"more than {MAX_STEPS} samples"):
                resample_track(track, dt=dt)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    def test_dt_must_be_positive(self, dt):
        track = self.make_track([0, 60], [0, 1], [0, 0])
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            resample_track(track, dt=dt)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        records = [rec("a", 60.0 * i, lat=40.0 + 1e-4 * i, sog=5.0) for i in range(5)]
        tracks, frame = segment_tracks(records)
        tracks = [resample_track(t, dt=60.0) for t in tracks]
        path = tmp_path / "tracks.json"
        save_tracks(tracks, frame, path)
        loaded, frame2 = load_tracks(path)
        assert frame2 == frame
        assert len(loaded) == 1
        np.testing.assert_allclose(loaded[0].positions, tracks[0].positions)
        assert loaded[0].dt == 60.0
