import json
import logging
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cstrack.cli import main
from cstrack.constitution import ConstitutionEvaluator, parse, precompute_field
from cstrack.grids import GridSpec
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer, load_starmap, save_starmap

import world


@pytest.fixture
def paths(tmp_path):
    return world.write_world(tmp_path)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def build_starmap(paths, tmp_path, out="starmap.json", seed=3):
    out_path = tmp_path / out
    code = run_cli(
        "build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
        "--constitution", paths["constitution"],
        "--bbox=-300,-300,3900,300", "--rows", 12, "--cols", 22,
        "--samples", 16, "--seed", seed, "--out", out_path,
    )
    assert code == 0
    return out_path


def flagged_centre_starmap(tmp_path):
    """3 x 3 over:corridor starmap over the world's bbox; the centre cell,
    which the recorded track crosses, is flagged."""
    grid = GridSpec(bbox=(-300.0, -300.0, 3900.0, 300.0), rows=3, cols=3)
    mean, std = np.ones((3, 3)), np.zeros((3, 3))
    mean[1, 1] = std[1, 1] = np.nan
    layer = StaRMapLayer(relation=RelationKind.OVER, tag="corridor", grid=grid,
                         mean=mean, std=std, sample_count=2)
    out = tmp_path / "flagged.json"
    save_starmap([layer], out)
    return out


def strict_loads(text):
    """json.loads that rejects the NaN and Infinity tokens RFC 8259 lacks."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def empty_starmap(tmp_path):
    out = tmp_path / "empty.json"
    out.write_text(json.dumps({"bbox": [-300, -300, 3900, 300], "resolution": [3, 3],
                               "sample_count": 2, "origin_lonlat": None, "layers": []}))
    return out


def ingest(paths, tmp_path, out="tracks.json"):
    out_path = tmp_path / out
    code = run_cli("ingest", "--csv", paths["csv"], "--out", out_path,
                   "--dt", 60, f"--origin={world.ORIGIN[0]},{world.ORIGIN[1]}")
    assert code == 0
    return out_path


class TestIngest:
    def test_writes_tracks(self, paths, tmp_path):
        out = ingest(paths, tmp_path)
        doc = json.loads(out.read_text())
        assert len(doc["tracks"]) == 1
        assert doc["ingest_stats"]["records_kept"] == 30

    def test_missing_file_is_user_error(self, tmp_path):
        code = run_cli("ingest", "--csv", tmp_path / "nope.csv",
                       "--out", tmp_path / "o.json")
        assert code == 2

    def test_all_rows_invalid_is_user_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("MMSI,BaseDateTime,LAT,LON\n1,2020-01-01T00:00:00,99.0,0.0\n")
        code = run_cli("ingest", "--csv", bad, "--out", tmp_path / "o.json")
        assert code == 2


class TestBuildStarmap:
    def test_creates_layers(self, paths, tmp_path):
        out = build_starmap(paths, tmp_path)
        doc = json.loads(out.read_text())
        assert doc["resolution"] == [12, 22]
        assert [l["relation"] for l in doc["layers"]] == ["over"]

    def test_rerun_byte_identical(self, paths, tmp_path):
        a = build_starmap(paths, tmp_path, out="a.json", seed=5)
        b = build_starmap(paths, tmp_path, out="b.json", seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_geojson_exit_2(self, paths, tmp_path):
        bad = tmp_path / "bad.geojson"
        bad.write_text("{not json")
        code = run_cli(
            "build-starmap", "--map", bad, "--perturb", paths["perturb"],
            "--relations", "over:corridor", "--out", tmp_path / "o.json",
        )
        assert code == 2

    def test_infinite_bbox_is_user_error_and_writes_nothing(self, paths, tmp_path,
                                                             capsys):
        out = tmp_path / "sm.json"
        code = run_cli(
            "build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
            "--relations", "over:corridor", "--bbox=-inf,-300,3900,300",
            "--samples", 8, "--out", out,
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.glob("sm.json*")) == []

    def test_explicit_relations_and_pgm(self, paths, tmp_path):
        pgm_dir = tmp_path / "pgm"
        code = run_cli(
            "build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
            "--relations", "over:corridor,distance:corridor",
            "--bbox=-300,-300,3900,300", "--rows", 6, "--cols", 10,
            "--samples", 8, "--out", tmp_path / "sm.json", "--pgm-dir", pgm_dir,
        )
        assert code == 0
        assert (pgm_dir / "over_corridor.pgm").exists()
        assert (pgm_dir / "distance_corridor.pgm").exists()


    def test_verbose_logs_one_line_per_layer(self, paths, tmp_path, caplog, capsys):
        def build(out, *flags):
            code = run_cli(
                "build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
                "--relations", "over:corridor,distance:corridor",
                "--bbox=-300,-300,3900,300", "--rows", 6, "--cols", 10,
                "--samples", 8, "--out", tmp_path / out, *flags,
            )
            assert code == 0
            return capsys.readouterr()

        quiet = build("quiet.json")
        caplog.set_level(logging.INFO, logger="cstrack")
        loud = build("loud.json", "-v")
        lines = [r.getMessage() for r in caplog.records if r.name == "cstrack.starmap"]
        assert [line.split(":", 2)[:2] for line in lines] == [
            ["layer over", "corridor"], ["layer distance", "corridor"]]
        assert all(line.endswith("flagged fraction 0.0000") for line in lines)
        assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "loud.json").read_bytes()
        assert quiet.out.split(" in ")[0] == loud.out.split(" in ")[0] == (
            "built 2 layers (6x10, 8 samples)")


class TestField:
    def test_constant_one_constitution(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        cst = tmp_path / "one.cst"
        cst.write_text("1.0 :: constitution(X, Z).\n")
        out = tmp_path / "field.json"
        code = run_cli("field", "--constitution", cst, "--starmap", starmap,
                       "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["values"]) == {1.0}

    def test_values_in_unit_interval(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        out = tmp_path / "field.json"
        code = run_cli("field", "--constitution", paths["constitution"],
                       "--starmap", starmap, "--out", out,
                       "--pgm", tmp_path / "field.pgm")
        assert code == 0
        values = [v for v in json.loads(out.read_text())["values"] if v is not None]
        assert values and all(0.0 <= v <= 1.0 for v in values)
        assert (tmp_path / "field.pgm").read_text().startswith("P2")

    def test_missing_layer_names_atom(self, paths, tmp_path, capsys):
        starmap = build_starmap(paths, tmp_path)
        cst = tmp_path / "bad.cst"
        cst.write_text("1.0 :: constitution(X, Z) :- over(X, land).\n")
        code = run_cli("field", "--constitution", cst, "--starmap", starmap,
                       "--out", tmp_path / "f.json")
        assert code == 2
        assert "over" in capsys.readouterr().err

    def test_flagged_cell_is_one_undefined_node(self, paths, tmp_path):
        out = tmp_path / "field.json"
        assert run_cli("field", "--constitution", paths["constitution"],
                       "--starmap", flagged_centre_starmap(tmp_path), "--out", out) == 0
        values = json.loads(out.read_text())["values"]
        assert values.count(None) == 1 and values[4] is None

    def test_empty_starmap_is_user_error(self, paths, tmp_path, capsys):
        code = run_cli("field", "--constitution", paths["constitution"],
                       "--starmap", empty_starmap(tmp_path), "--out", tmp_path / "f.json")
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_rerun_byte_identical(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        outs = []
        for name in ("f1.json", "f2.json"):
            out = tmp_path / name
            assert run_cli("field", "--constitution", paths["constitution"],
                           "--starmap", starmap, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["field", "track"])
    def test_verbose_logs_the_compiled_query(self, paths, tmp_path, caplog, capsys, command):
        starmap = build_starmap(paths, tmp_path)
        common = ["--constitution", paths["constitution"], "--starmap", starmap]
        if command == "track":
            common += ["--tracks", ingest(paths, tmp_path), "--mode", "direct",
                       "--particles", 50, "--seed", 9]

        def run(tag, *flags):
            outs = ([tmp_path / f"{tag}.json"] if command == "field" else
                    [tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.json"])
            names = ["--out"] if command == "field" else ["--out-logs", "--out-summary"]
            argv = [a for pair in zip(names, outs) for a in pair]
            assert run_cli(command, *common, *argv, *flags) == 0
            return [out.read_bytes() for out in outs], capsys.readouterr().out

        capsys.readouterr()
        quiet = run("quiet")
        caplog.set_level(logging.INFO, logger="cstrack")
        loud = run("loud", "-v")
        lines = [r.getMessage() for r in caplog.records if r.name == "cstrack.constitution"]
        # over(x, corridor) or the 0.02 leak: two facts, two nodes, three
        # of the four assignments.
        assert [line.rsplit(", ", 1)[0] for line in lines] == [
            "compiled query: k=2, 2 BDD nodes, 3 satisfying assignments"]
        assert lines[0].endswith(" ms")
        assert quiet[0] == loud[0]
        assert quiet[1].split(" in ")[0] == loud[1].split(" in ")[0]


class TestTrack:
    def test_tau_zero_equals_no_constitution_bitwise(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        tracks = ingest(paths, tmp_path)
        outs = {}
        for label, extra in {
            "tau0": ["--constitution", paths["constitution"], "--starmap", starmap,
                     "--tau", 0],
            "none": ["--no-constitution"],
        }.items():
            logs = tmp_path / f"{label}.jsonl"
            summary = tmp_path / f"{label}.json"
            code = run_cli("track", "--tracks", tracks, "--particles", 200,
                           "--meas-std", 40, "--seed", 9,
                           "--out-logs", logs, "--out-summary", summary, *extra)
            assert code == 0
            outs[label] = logs.read_bytes()
        assert outs["tau0"] == outs["none"]

    def test_track_failing_partway_keeps_the_old_step_log(self, paths, tmp_path):
        # The second track has no uniform dt, so track fails after the
        # first track's records; the step log of the earlier run stays.
        tracks = ingest(paths, tmp_path)
        logs = tmp_path / "steps.jsonl"
        args = ["--no-constitution", "--particles", 50, "--out-logs", logs,
                "--out-summary", tmp_path / "s.json"]
        assert run_cli("track", "--tracks", tracks, "--seed", 9, *args) == 0
        before = logs.read_bytes()
        doc = json.loads(tracks.read_text())
        doc["tracks"].append(dict(doc["tracks"][0], vessel_id="late", dt=None))
        bad = tmp_path / "bad_tracks.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("track", "--tracks", bad, "--seed", 10, *args) == 2
        assert logs.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_field_and_direct_modes_run(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        tracks = ingest(paths, tmp_path)
        maes = {}
        for mode in ("field", "direct"):
            logs = tmp_path / f"{mode}.jsonl"
            summary = tmp_path / f"{mode}.json"
            code = run_cli("track", "--tracks", tracks,
                           "--constitution", paths["constitution"],
                           "--starmap", starmap, "--tau", 0.8, "--mode", mode,
                           "--particles", 200, "--meas-std", 40, "--seed", 9,
                           "--out-logs", logs, "--out-summary", summary)
            assert code == 0
            maes[mode] = json.loads(summary.read_text())["tracks"][0]["mae_vs_recorded"]
        assert maes["field"] > 0 and maes["direct"] > 0

    def test_trust_table_source(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        tracks = ingest(paths, tmp_path)
        table = tmp_path / "trust.json"
        table.write_text(json.dumps({
            "default_tau": 0.0,
            "entries": [{"vessel_type": "cargo", "waterway_bound": True,
                         "anchoring": False, "tau": 0.7}],
        }))
        summary = tmp_path / "s.json"
        code = run_cli("track", "--tracks", tracks,
                       "--constitution", paths["constitution"],
                       "--starmap", starmap, "--trust-table", table,
                       "--particles", 150, "--meas-std", 40,
                       "--out-logs", tmp_path / "l.jsonl", "--out-summary", summary)
        assert code == 0
        assert json.loads(summary.read_text())["tracks"][0]["tau"] == 0.7

    @pytest.mark.parametrize("mode", ["field", "direct"])
    def test_flagged_centre_cell_runs_at_full_trust(self, paths, tmp_path, mode):
        tracks = ingest(paths, tmp_path)
        logs = tmp_path / "steps.jsonl"
        code = run_cli("track", "--tracks", tracks,
                       "--constitution", paths["constitution"],
                       "--starmap", flagged_centre_starmap(tmp_path), "--tau", 1,
                       "--mode", mode, "--particles", 150, "--meas-std", 40,
                       "--out-logs", logs, "--out-summary", tmp_path / "s.json")
        assert code == 0
        for line in logs.read_text().splitlines():
            prob = json.loads(line)["mean_constitution_prob"]
            assert prob is None or 0.0 <= prob <= 1.0

    def test_empty_starmap_is_user_error(self, paths, tmp_path, capsys):
        tracks = ingest(paths, tmp_path)
        code = run_cli("track", "--tracks", tracks,
                       "--constitution", paths["constitution"],
                       "--starmap", empty_starmap(tmp_path), "--tau", 0.5,
                       "--out-logs", tmp_path / "l.jsonl",
                       "--out-summary", tmp_path / "s.json")
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("constitution_mode", "direct"),
                                            ("constitution_samples", 100)])
    def test_removed_filter_config_keys_rejected(self, paths, tmp_path, capsys,
                                                 key, value):
        tracks = ingest(paths, tmp_path)
        config = tmp_path / "filter.json"
        config.write_text(json.dumps({"particles": 50, key: value}))
        code = run_cli("track", "--tracks", tracks, "--no-constitution",
                       "--filter-config", config,
                       "--out-logs", tmp_path / "l.jsonl",
                       "--out-summary", tmp_path / "s.json")
        assert code == 2
        assert "unknown filter config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "5", '["particles"]',
                                      '{"particles": "many"}', '{"particles": 200.5}',
                                      '{"sigma_a": "x"}', '{"R": [[1, 0], [0]]}'])
    def test_malformed_filter_config_is_user_error(self, paths, tmp_path, capsys,
                                                   text):
        tracks = ingest(paths, tmp_path)
        config = tmp_path / "filter.json"
        config.write_text(text)
        code = run_cli("track", "--tracks", tracks, "--no-constitution",
                       "--filter-config", config,
                       "--out-logs", tmp_path / "l.jsonl",
                       "--out-summary", tmp_path / "s.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "filter config" in err and "Traceback" not in err

    def test_edge_clamped_particle_is_defined_in_both_modes(self, paths, tmp_path):
        # Clamped onto the top and bottom bbox edges, these particles lie
        # between two finite edge nodes; the flagged centre has weight 0.
        layers, _ = load_starmap(flagged_centre_starmap(tmp_path))
        program = parse(paths["constitution"].read_text())
        positions = np.array([[1000.0, 500.0], [2500.0, -900.0]])
        z = np.array([1000.0, 0.0])
        for evaluate in (
            precompute_field(program, layers, layers[0].grid).particle_probabilities,
            ConstitutionEvaluator(program, layers).particle_probabilities,
        ):
            np.testing.assert_array_equal(evaluate(positions, z), [1.0, 1.0])

    def test_missing_starmap_is_user_error(self, paths, tmp_path):
        tracks = ingest(paths, tmp_path)
        code = run_cli("track", "--tracks", tracks, "--tau", 0.5,
                       "--out-logs", tmp_path / "l.jsonl",
                       "--out-summary", tmp_path / "s.json")
        assert code == 2

    def test_jsonl_records_schema(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        tracks = ingest(paths, tmp_path)
        logs = tmp_path / "steps.jsonl"
        code = run_cli("track", "--tracks", tracks,
                       "--constitution", paths["constitution"],
                       "--starmap", starmap, "--tau", 0.5, "--particles", 150,
                       "--meas-std", 40,
                       "--out-logs", logs, "--out-summary", tmp_path / "s.json")
        assert code == 0
        lines = logs.read_text().strip().splitlines()
        assert len(lines) == 29  # 30 samples -> 29 steps
        rec = json.loads(lines[0])
        assert {"vessel_id", "t", "estimate", "covariance_trace", "n_eff",
                "norm_const", "mean_constitution_prob", "resampled"} <= set(rec)
        assert rec["mean_constitution_prob"] is not None


class TestCalibrate:
    def test_calibrates_and_writes_reports(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        tracks = ingest(paths, tmp_path)
        table_path = tmp_path / "trust.json"
        report_path = tmp_path / "report.json"
        hist_path = tmp_path / "hist.csv"
        code = run_cli("calibrate", "--tracks", tracks,
                       "--constitution", paths["constitution"],
                       "--starmap", starmap, "--tau-grid", "0,0.5,1.0",
                       "--particles", 150, "--meas-std", 40, "--seed", 2,
                       "--out-table", table_path, "--out-report", report_path,
                       "--out-hist", hist_path)
        assert code == 0
        table = json.loads(table_path.read_text())
        assert len(table["entries"]) == 1
        report = json.loads(report_path.read_text())
        assert sum(report["histogram_by_track"].values()) == 1
        assert hist_path.read_text().startswith("tau,")

    def test_empty_inputs_exit_2(self, paths, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"origin_lonlat": [0, 0], "tracks": []}))
        code = run_cli("calibrate", "--tracks", empty,
                       "--constitution", paths["constitution"],
                       "--starmap", tmp_path / "missing.json",
                       "--out-table", tmp_path / "t.json",
                       "--out-report", tmp_path / "r.json")
        assert code == 2


class TestBench:
    def test_runs_and_reruns_identically(self, tmp_path):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(world.scenario_spec(
            taus=(0.0,), n_seeds=1, steps=15, particles=120, samples=8)))
        outs = []
        for name in ("out1", "out2"):
            out_dir = tmp_path / name
            assert run_cli("bench", "--scenario", spec, "--out-dir", out_dir) == 0
            outs.append((out_dir / "report.json").read_bytes()
                        + (out_dir / "runs.csv").read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads((tmp_path / "out1" / "report.json").read_text())
        assert doc["aggregate"]["0.0"]["relative_mae_median"] == 1.0

    def test_bad_scenario_exit_2(self, tmp_path):
        spec = tmp_path / "scenario.json"
        spec.write_text("{}")
        assert run_cli("bench", "--scenario", spec, "--out-dir", tmp_path / "o") == 2

    def test_scenario_missing_map_is_user_error(self, tmp_path):
        doc = world.scenario_spec(taus=(0.0,), n_seeds=1, steps=5, particles=50,
                                  samples=4)
        del doc["map"]
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("bench", "--scenario", spec, "--out-dir", tmp_path / "o") == 2

    @pytest.mark.parametrize("key, entry", [
        ("map", {"geojson": {}}),
        ("perturbations", 7),
        ("constitution", {"inline": ["not", "text"]}),
        ("agents", {"count": 1}),
    ])
    def test_malformed_entry_is_user_error(self, tmp_path, capsys, key, entry):
        doc = world.scenario_spec(taus=(0.0,), n_seeds=1, steps=5, particles=50,
                                  samples=4)
        doc[key] = entry
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("bench", "--scenario", spec, "--out-dir", tmp_path / "o") == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_path_entries_match_inline(self, paths, tmp_path):
        # Map, perturbations and constitution given as files next to the
        # scenario load exactly like the same content inline.
        outs = []
        for name in ("inline", "paths"):
            doc = world.scenario_spec(taus=(0.0, 1.0), n_seeds=1, steps=8,
                                      particles=60, samples=4)
            if name == "paths":
                for key, file_key in (("map", "map"), ("perturbations", "perturb"),
                                      ("constitution", "constitution")):
                    doc[key] = paths[file_key].name
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps(doc))
            out_dir = tmp_path / f"out_{name}"
            assert run_cli("bench", "--scenario", spec, "--out-dir", out_dir) == 0
            outs.append((out_dir / "runs.csv").read_bytes())
        assert outs[0] == outs[1]


class TestStrictJson:
    def test_every_output_parses_strictly(self, paths, tmp_path):
        # One run of every subcommand, with a flagged starmap cell and a
        # bench arm that degenerates: undefined numbers are written as null.
        tracks = ingest(paths, tmp_path)
        build_starmap(paths, tmp_path)
        flagged = flagged_centre_starmap(tmp_path)
        common = ["--constitution", paths["constitution"], "--starmap", flagged]
        assert run_cli("field", *common, "--out", tmp_path / "field.json") == 0
        assert run_cli("track", "--tracks", tracks, *common, "--tau", 1,
                       "--particles", 100, "--meas-std", 40,
                       "--out-logs", tmp_path / "steps.jsonl",
                       "--out-summary", tmp_path / "summary.json") == 0
        assert run_cli("calibrate", "--tracks", tracks, *common,
                       "--tau-grid", "0,1", "--particles", 100, "--meas-std", 40,
                       "--out-table", tmp_path / "table.json",
                       "--out-report", tmp_path / "calibration.json") == 0
        doc = world.scenario_spec(taus=(0.0, 1.0), n_seeds=1, steps=8,
                                  particles=60, samples=4)
        doc["constitution"] = {
            "inline": "0.0 :: constitution(X, Z) :- over(X, corridor).\n"
        }
        doc["agents"]["mode"] = "incompliant"
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("bench", "--scenario", spec, "--out-dir", tmp_path / "bench") == 0

        written = ["tracks.json", "starmap.json", "field.json", "summary.json",
                   "table.json", "calibration.json", "bench/report.json"]
        docs = {name: strict_loads((tmp_path / name).read_text()) for name in written}
        for line in (tmp_path / "steps.jsonl").read_text().splitlines():
            strict_loads(line)
        assert docs["field.json"]["values"][4] is None
        degenerate = [row for row in docs["bench/report.json"]["per_run"]
                      if row["tau"] == 1.0]
        assert degenerate and all(row["mae"] is None and row["relative_mae"] is None
                                  for row in degenerate)


def run_module(*argv):
    """python -m cstrack.cli in a child that imports this checkout's src."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cstrack.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_console_script_version(self):
        out = run_module("--version")
        assert out.returncode == 0
        assert "cstrack" in out.stdout

    def test_usage_error_exit_code(self):
        out = run_module("no-such-command")
        assert out.returncode == 2
