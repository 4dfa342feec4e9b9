import base64
import contextlib
import copy
import dataclasses
import functools
import io
import json
import logging
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack import cli, jsonio
from cstrack.cli import main
from cstrack.constitution import ConstitutionEvaluator, ConstitutionField, parse, precompute_field
from cstrack.demo import (
    CORRIDOR_CONSTITUTION,
    CORRIDOR_GRID,
    CORRIDOR_PERTURBATIONS,
    corridor_geojson,
    corridor_scenario,
    write_demo,
)
from cstrack.grids import ENCODING, GridSpec
from cstrack.ingest import Track, load_tracks, save_tracks
from cstrack.particlefilter import FilterConfig
from cstrack.projection import EARTH_RADIUS_M, LocalFrame
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer, load_starmap, save_starmap
from cstrack.trust import TrustTable, extract_features, position_mae

import world
from reference_filter import stepwise_run


@pytest.fixture
def paths(tmp_path):
    return world.write_world(tmp_path)


def bench_scenario(**sizes) -> dict:
    """The corridor bench scenario at test sizes: seed 11, two agents."""
    return corridor_scenario(seed=11, agents=2, **sizes)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def build_starmap(paths, tmp_path, out="starmap.json", seed=3):
    out_path = tmp_path / out
    code = run_cli(
        "build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
        "--constitution", paths["constitution"],
        world.BBOX_FLAG, "--rows", 12, "--cols", 22,
        "--samples", 16, "--seed", seed, "--out", out_path,
    )
    assert code == 0
    return out_path


def flagged_centre_starmap(tmp_path):
    """3 x 3 over:corridor starmap over the world's bbox; the centre cell,
    which the recorded track crosses, is flagged."""
    grid = GridSpec(bbox=tuple(CORRIDOR_GRID["bbox"]), rows=3, cols=3)
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
    out.write_text(json.dumps({"bbox": CORRIDOR_GRID["bbox"], "resolution": [3, 3],
                               "sample_count": 2, "origin_lonlat": None,
                               "encoding": ENCODING, "layers": []}))
    return out


def ingest(paths, tmp_path, out="tracks.json"):
    out_path = tmp_path / out
    code = run_cli("ingest", "--csv", paths["csv"], "--out", out_path,
                   "--dt", 60, world.ORIGIN_FLAG)
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

    @settings(deadline=None, max_examples=150, database=None)
    @given(st.data())
    def test_mutated_csv_exits_0_or_2_and_reads_back(self, data):
        # Two vessels, five records each; the header is row 0.
        text = world.ais_csv_text(steps=5) + world.ais_csv_text(
            steps=5, vessel_id="367000002", speed_mps=3.0).split("\n", 1)[1]
        rows = [line.split(",") for line in text.splitlines()]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
            col = data.draw(st.integers(0, len(row) - 1), label="column")
            value = data.draw(st.sampled_from(["", "nan", "inf", "-inf", "1e400", "ab", None]),
                              label="value")
            if value is None:  # a dropped column
                del row[col]
            else:
                row[col] = value
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "ais.csv").write_text("".join(",".join(row) + "\n" for row in rows))
            (tmp / "out").mkdir()
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("ingest", "--csv", tmp / "ais.csv",
                               "--out", tmp / "out" / "tracks.json", "--dt", 60)
            check_outcome(code, err.getvalue(), tmp / "out")
            if code == 0:
                tracks, _ = load_tracks(tmp / "out" / "tracks.json")
                assert tracks

    def test_track_across_the_globe_from_the_origin_is_written(self, tmp_path):
        # The farthest a lon/lat lies from an origin in range: 2 pi R east,
        # inside the bound load_tracks holds positions to. No speed bound
        # drops the track, whose records are 1e4 km and 0.1 ms apart.
        (tmp_path / "ais.csv").write_text("MMSI,BaseDateTime,LAT,LON\n"
                                          "1,0.0,0.0,180.0\n1,0.0001,90.0,180.0\n")
        assert run_cli("ingest", "--csv", tmp_path / "ais.csv", "--out", tmp_path / "t.json",
                       "--dt", 0.0001, "--origin=-180,0") == 0
        (track,), _ = load_tracks(tmp_path / "t.json")
        np.testing.assert_allclose(
            track.positions, EARTH_RADIUS_M * np.array([[2 * np.pi, 0.0], [2 * np.pi, np.pi / 2]]))

    @pytest.mark.parametrize("command", ["ingest", "build-starmap"])
    @pytest.mark.parametrize("origin", ["180.5,40", "-74,-90.5", "1e300,0", "0,1e300"])
    def test_origin_out_of_range_is_user_error_and_writes_nothing(self, paths, tmp_path,
                                                                   capsys, command, origin):
        # 1e300 degrees from the origin is 1.1e304 m, beyond every bound.
        out = tmp_path / "out"
        out.mkdir()
        argv = (["--csv", paths["csv"], "--out", out / "t.json"] if command == "ingest" else
                ["--map", paths["map"], "--perturb", paths["perturb"], "--relations",
                 "over:corridor", "--samples", 4, "--out", out / "sm.json"])
        code = run_cli(command, *argv, f"--origin={origin}")
        err = capsys.readouterr().err
        check_outcome(code, err, out)
        assert code == 2
        assert "error: --origin must lie in lon [-180, 180], lat [-90, 90] degrees" in err

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"), ("--dt", "-60"),
        ("--gap-s", "nan"), ("--gap-s", "inf"), ("--gap-s", "0"), ("--gap-s", "-600"),
    ])
    def test_bad_dt_or_gap_is_user_error_and_writes_nothing(self, paths, tmp_path, capsys,
                                                             flag, value):
        (tmp_path / "out").mkdir()
        code = run_cli("ingest", "--csv", paths["csv"], "--out", tmp_path / "out" / "t.json",
                       f"{flag}={value}")
        err = capsys.readouterr().err
        check_outcome(code, err, tmp_path / "out")
        assert code == 2
        assert f"error: {flag} must be a finite number, > 0, got" in err

    @pytest.mark.parametrize("dt", ["1e-9", "1e-300"])
    def test_track_of_too_many_samples_is_not_written(self, paths, tmp_path, capsys, dt):
        # The world's track spans 29 minutes: 1.7e12 samples at 1e-9 s.
        (tmp_path / "out").mkdir()
        code = run_cli("ingest", "--csv", paths["csv"], "--out", tmp_path / "out" / "t.json",
                       "--dt", dt)
        err = capsys.readouterr().err
        check_outcome(code, err, tmp_path / "out")
        assert code == 2
        assert "error: no track survived" in err

    def test_track_of_too_many_samples_is_skipped_and_counted(self, tmp_path, capsys,
                                                              caplog):
        # At 1 ms, vessel 1 (1 s) takes 1001 samples, vessel 2 (240 s) 240,001.
        (tmp_path / "ais.csv").write_text("MMSI,BaseDateTime,LAT,LON\n1,0.0,0.0,0.0\n"
                                          "1,1.0,0.0,0.00001\n2,0.0,0.0,0.0\n"
                                          "2,240.0,0.0,0.001\n")
        caplog.set_level(logging.INFO, logger="cstrack")
        assert run_cli("ingest", "--csv", tmp_path / "ais.csv", "--out", tmp_path / "t.json",
                       "--dt", 0.001) == 0
        tracks, _ = load_tracks(tmp_path / "t.json")
        assert [(t.vessel_id, len(t.times)) for t in tracks] == [("1", 1001)]
        assert any("into 1 tracks (1 skipped" in r.getMessage() for r in caplog.records)


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

    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_too_few_samples_is_user_error_and_writes_nothing(self, paths, tmp_path,
                                                               capsys, samples):
        code = run_cli(
            "build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
            "--relations", "over:corridor", world.BBOX_FLAG,
            "--rows", 4, "--cols", 4, "--samples", samples, "--out", tmp_path / "sm.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2 samples" in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("sm.json*")) == []

    @pytest.mark.parametrize("flag, value", [("--rows", 0), ("--rows", 1), ("--cols", 0),
                                             ("--cols", -3)])
    def test_too_small_grid_is_user_error_and_writes_nothing(self, paths, tmp_path, capsys,
                                                             flag, value):
        argv = ["build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
                "--relations", "over:corridor", world.BBOX_FLAG,
                "--rows", 4, "--cols", 4, "--samples", 4, "--out", tmp_path / "sm.json"]
        argv[argv.index(flag) + 1] = value
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2x2 nodes" in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("sm.json*")) == []

    def test_explicit_relations_and_pgm(self, paths, tmp_path):
        pgm_dir = tmp_path / "pgm"
        code = run_cli(
            "build-starmap", "--map", paths["map"], "--perturb", paths["perturb"],
            "--relations", "over:corridor,distance:corridor",
            world.BBOX_FLAG, "--rows", 6, "--cols", 10,
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
                world.BBOX_FLAG, "--rows", 6, "--cols", 10,
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
        # The corridor is narrower than the grid spacing: no node is near it.
        assert re.fullmatch(r"layer over:corridor: \d+\.\d{3} s, flagged fraction 0\.0000, "
                            r"share of nodes tested per variant 0\.0000", lines[0])
        assert re.fullmatch(r"layer distance:corridor: \d+\.\d{3} s, flagged fraction 0\.0000, "
                            r"candidate segments per node mean \d\.\d\d max [1-8], "
                            r"share of nodes tested per variant 0\.0000", lines[1])
        assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "loud.json").read_bytes()
        assert quiet.out.split(" in ")[0] == loud.out.split(" in ")[0] == (
            "built 2 layers (6x10, 8 samples)")

    def test_verbose_depth_line_counts_candidates(self, tmp_path, caplog, capsys):
        files = write_demo(tmp_path)
        caplog.set_level(logging.INFO, logger="cstrack")
        code = run_cli(
            "build-starmap", "--map", files["map"], "--perturb", files["perturbations"],
            "--relations", "depth:water", "--bbox=-2000,-2000,2000,2000",
            "--rows", 9, "--cols", 9, "--samples", 4, "--out", tmp_path / "sm.json", "-v",
        )
        assert code == 0
        (line,) = [r.getMessage() for r in caplog.records if r.name == "cstrack.starmap"]
        head, counts = line.split(", depth candidates per node mean ")
        assert head.startswith("layer depth:water: ")
        assert head.endswith("flagged fraction 0.0000")
        mean, peak = counts.split(" max ")
        # Never fewer than the 4 IDW neighbours, a handful on the demo map.
        assert 4.0 <= float(mean) <= int(peak) <= 12

    def test_verbose_over_and_distance_lines_count_their_work(self, tmp_path, caplog,
                                                              capsys):
        files = write_demo(tmp_path)

        def build(out, *flags):
            code = run_cli(
                "build-starmap", "--map", files["map"], "--perturb", files["perturbations"],
                "--relations", "over:land,distance:way", "--bbox=-2000,-2000,2000,2000",
                "--rows", 40, "--cols", 40, "--samples", 6, "--out", tmp_path / out, *flags,
            )
            assert code == 0

        build("quiet.json")
        caplog.set_level(logging.INFO, logger="cstrack")
        build("loud.json", "-v")
        over, dist = [r.getMessage() for r in caplog.records if r.name == "cstrack.starmap"]
        share = re.fullmatch(r"layer over:land: \d+\.\d{3} s, flagged fraction 0\.0000, "
                             r"share of nodes tested per variant (\d\.\d{4})", over)
        # The bank edges cross the grid: some nodes are near them, most not.
        assert 0.0 < float(share[1]) < 0.5
        counts = re.fullmatch(r"layer distance:way: \d+\.\d{3} s, flagged fraction 0\.0000, "
                              r"candidate segments per node mean (\d\.\d\d) max (\d)", dist)
        # The waterway has 3 edges and 4 vertices; every node keeps its
        # nearest segment.
        assert 1.0 <= float(counts[1]) <= int(counts[2]) <= 7
        assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "loud.json").read_bytes()


def json_paths(doc, prefix=()):
    """The path (keys and indices) of every value in a JSON document."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from json_paths(value, prefix + (key,))


# Mutations of a nonempty string, at the character index value.
STRING_MUTATIONS = ("truncate", "flip")


def text_at(doc, path) -> bool:
    """Whether the value at path is a nonempty string."""
    value = functools.reduce(operator.getitem, path, doc)
    return isinstance(value, str) and value != ""


def mutate(doc, path, kind, value):
    """A copy of doc with the value at path replaced by value, deleted,
    emptied (a container; any other value is replaced), or, for a string,
    cut at index value or with the low bit of that character flipped."""
    box, path = [copy.deepcopy(doc)], (0,) + path
    parent = functools.reduce(operator.getitem, path[:-1], box)
    key = path[-1]
    if kind == "delete" and parent is not box:
        del parent[key]
    elif kind == "empty" and isinstance(parent[key], (dict, list)):
        parent[key] = type(parent[key])()
    elif kind in STRING_MUTATIONS:
        text, i = parent[key], value % len(parent[key])
        parent[key] = text[:i] + ("" if kind == "truncate" else chr(ord(text[i]) ^ 1)
                                  + text[i + 1:])
    else:
        parent[key] = value
    return box[0]


FUZZ_VALUES = [None, True, 0, 7, -1, "ab", "nan", [], {}, [1.0], [[]], "Point",
               "LineString", "MultiPolygon", float("nan"), float("inf"), -float("inf"),
               1e308, -1e308, 10**400]


def build_starmap_from_docs(directory, geojson, perturbations, *flags):
    """Run build-starmap on the world's program and the given map and
    perturbation documents; return the exit code, stderr and output path."""
    directory = pathlib.Path(directory)
    (directory / "map.geojson").write_text(json.dumps(geojson))
    (directory / "perturb.json").write_text(json.dumps(perturbations))
    (directory / "rules.cst").write_text(CORRIDOR_CONSTITUTION)
    out = directory / "sm.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli("build-starmap", "--map", directory / "map.geojson",
                       "--perturb", directory / "perturb.json",
                       "--constitution", directory / "rules.cst", "--rows", 4, "--cols", 5,
                       "--samples", 3, "--seed", 1, "--out", out, *flags)
    return code, err.getvalue(), out


# The world's perturbations with a catch-all entry, so that a buoy added to
# the map, or a feature whose tags a mutation changed, is perturbed, not
# refused.
CATCH_ALL_PERTURBATIONS = {**CORRIDOR_PERTURBATIONS, "*": {}}


def with_buoy(coordinates):
    geojson = corridor_geojson()
    geojson["features"].append({"type": "Feature", "properties": {"tags": ["buoy"]},
                                "geometry": {"type": "Point", "coordinates": coordinates}})
    return geojson


@functools.lru_cache(maxsize=None)
def input_docs() -> dict:
    """Small copies of the criterion-10 world's input documents: tracks,
    starmap, trust table, filter config and bench scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        paths = world.write_world(tmp)
        paths["csv"].write_text(world.ais_csv_text(steps=6))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("ingest", "--csv", paths["csv"], "--out", tmp / "tracks.json",
                           "--dt", 60, world.ORIGIN_FLAG) == 0
            assert run_cli("build-starmap", "--map", paths["map"], "--perturb",
                           paths["perturb"], "--constitution", paths["constitution"],
                           world.BBOX_FLAG, "--rows", 3, "--cols", 4,
                           "--samples", 3, "--seed", 2, "--out", tmp / "starmap.json") == 0
        docs = {name: json.loads((tmp / f"{name}.json").read_text())
                for name in ("tracks", "starmap")}
    docs["trust"] = {"default_tau": 0.5, "entries": [
        {"vessel_type": "cargo", "waterway_bound": True, "anchoring": False, "tau": 0.6}]}
    docs["filter"] = {"particles": 40, "dt": 60.0, "sigma_a": 0.05,
                      "measurement_noise_std": 40.0, "ess_ratio": 0.5}
    docs["scenario"] = bench_scenario(taus=(0.0, 0.5), n_seeds=1, steps=4,
                                      particles=30, samples=3)
    return docs


# The documents each subcommand reads.
COMMAND_INPUTS = {"field": ("starmap",), "track": ("tracks", "starmap", "trust", "filter"),
                  "calibrate": ("tracks", "starmap", "filter"), "bench": ("scenario",)}


def run_on_docs(directory, command, docs, *flags):
    """Run command on the given documents (the rest from input_docs) in
    directory, writing into directory/out; return exit code, stderr and
    the output directory."""
    directory = pathlib.Path(directory)
    for name, doc in {**input_docs(), **docs}.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    (directory / "rules.cst").write_text(CORRIDOR_CONSTITUTION)
    out = directory / "out"
    out.mkdir()
    reads = ["--constitution", directory / "rules.cst",
             "--starmap", directory / "starmap.json"]
    tracks = ["--tracks", directory / "tracks.json",
              "--filter-config", directory / "filter.json"]
    argv = {
        "field": [*reads, "--out", out / "field.json", "--pgm", out / "field.pgm"],
        "track": [*tracks, *reads, "--trust-table", directory / "trust.json",
                  "--out-logs", out / "steps.jsonl", "--out-summary", out / "summary.json"],
        "calibrate": [*tracks, *reads, "--tau-grid", "0,0.5",
                      "--out-table", out / "table.json", "--out-report", out / "report.json",
                      "--out-hist", out / "hist.csv"],
        "bench": ["--scenario", directory / "scenario.json", "--out-dir", out / "bench"],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(command, *argv, *flags)
    return code, err.getvalue(), out


def assert_numbers_finite(value):
    if isinstance(value, float):
        assert math.isfinite(value)
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            assert_numbers_finite(item)


def check_outcome(code, err, out):
    """Exit 0 or 2 without a traceback; exit 2 writes nothing, and every
    number an exit-0 run writes is finite or null."""
    assert code in (0, 2), err
    assert "Traceback" not in err
    written = [path for path in out.rglob("*") if path.is_file()]
    if code == 2:
        assert "error:" in err
        assert written == []
    for path in written:
        assert not path.name.endswith(".tmp")
        if path.suffix == ".json":
            assert_numbers_finite(strict_loads(path.read_text()))
        elif path.suffix == ".jsonl":
            for line in path.read_text().splitlines():
                assert_numbers_finite(strict_loads(line))
        elif path.suffix == ".csv":
            for cell in path.read_text().replace("\n", ",").split(","):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell))


NOT_A_STRING = [None, True, 0, -1, 1.5, [], {}, [1.0], 1e308, 10**400]
NOT_A_PAIR = [None, True, 0, -1, 1.5, 1e308, 10**400, [], [1.0]]


class Missing:
    """A MALFORMED_INPUTS value that deletes its key."""

    def __repr__(self):
        return "missing"


def blob(values, extra=b""):
    """A starmap layer string of values (the input_docs starmap has 12
    cells), with extra bytes after them."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes() + extra).decode()


# Layer strings the reader must refuse: not base64 (a lax decoder skips
# the inserted character), a wrong length, an infinity.
BAD_BLOBS = {
    "non-alphabet": blob(np.ones(12))[:64] + "!" + blob(np.ones(12))[64:],
    "non-ascii": blob(np.ones(12))[:-1] + "\u00e9",
    "padding-missing": blob(np.ones(12))[:-1],
    "padding-inside": blob(np.ones(12))[:-4] + "AA=A",
    "one-value-short": blob(np.ones(11)),
    "4-bytes-extra": blob(np.ones(12), extra=b"\0" * 4),
    "inf": blob([*np.ones(11), np.inf]),
    "minus-inf": blob([-np.inf, *np.ones(11)]),
}

# (command, document, path, value): values that break the number rule or
# a key's type; a lax reader crashes on the first group and coerces the
# second.
MALFORMED_INPUTS = [
    *[("field", "starmap", ("layers", 0, "relation"), v) for v in NOT_A_STRING],
    *[("field", "starmap", ("layers", 0, name), v) for name in ("mean", "std")
      for v in [*NOT_A_STRING, *BAD_BLOBS.values()]],
    ("field", "starmap", ("encoding",), Missing()),
    ("field", "starmap", ("encoding",), "float64"),
    *[("field", "starmap", ("origin_lonlat",), v) for v in (True, 7, -1, 1.5, 1e308, 10**400)],
    ("track", "trust", ("entries", 0, "tau"), 10**400),
    ("track", "trust", ("default_tau",), 10**400),
    ("track", "tracks", ("origin_lonlat",), []),
    ("track", "tracks", ("origin_lonlat",), [-74.0]),
    ("track", "tracks", ("tracks", 0, "dt"), 10**400),
    ("track", "tracks", ("tracks", 0, "dt"), None),
    ("track", "tracks", ("tracks", 0, "dt"), 1e308),  # t0 + dt * (T - 1) overflows
    *[("track", "tracks", ("tracks", 0, "t0"), v) for v in (Missing(), "x", True, 10**400)],
    ("track", "tracks", ("tracks", 0, "positions", 2, 0), 1e308),
    ("field", "starmap", ("bbox", 0), -1e300),
    ("field", "starmap", ("bbox", 2), 1.5e8),
    ("bench", "scenario", ("grid", "bbox", 0), -1e308),
    ("bench", "scenario", ("grid", "bbox", 3), 1e300),
    ("bench", "scenario", ("seed",), -1),
    ("bench", "scenario", ("seed",), -1.5),
    ("bench", "scenario", ("agents", "steps"), -1),
    ("bench", "scenario", ("agents", "steps"), -1.5),
    *[("bench", "scenario", ("agents", "start"), v) for v in NOT_A_PAIR],
    ("bench", "scenario", ("agents", "kick_std"), 10**400),
    ("bench", "scenario", ("agents", "velocity"), 10**400),
    ("bench", "scenario", ("agents", "velocity"), []),
    # beyond the coordinate bound: overflowed in the agents or the filter
    ("bench", "scenario", ("agents", "velocity", 0), 1e308),
    ("bench", "scenario", ("agents", "kick_std"), 1e308),
    ("bench", "scenario", ("filter", "init_speed_std"), 1e308),
    ("bench", "scenario", ("filter", "init_position_std"), 1e308),
    # beyond the coordinate bound: overflowed in the filter's models with
    # a message that named no key
    *[("bench", "scenario", ("filter", name), 1e200)
      for name in ("dt", "sigma_a", "measurement_noise_std")],
    *[("track", "filter", (name,), 1e200) for name in ("dt", "sigma_a", "measurement_noise_std")],
    ("calibrate", "filter", ("dt",), -1e200),
    # coerced by a lax reader
    ("bench", "scenario", ("seed",), 1.5),
    ("bench", "scenario", ("agents", "steps"), 1.5),
    ("bench", "scenario", ("n_seeds",), True),
    ("track", "tracks", ("tracks", 0, "vessel_id"), None),
    ("field", "starmap", ("origin_lonlat",), "x"),
    ("track", "trust", ("entries", 0, "waterway_bound"), "false"),
    ("track", "trust", ("entries", 0, "vessel_type"), None),
    ("track", "trust", ("entries", 0, "tau"), True),
]

# Sizes far beyond every bound: each must be refused before anything of
# that size is allocated.
HUGE_SIZES = [
    ("bench", ("grid", "rows"), ()), ("bench", ("starmap_samples",), ()),
    ("bench", ("n_seeds",), ()), ("bench", ("agents", "steps"), ()),
    ("bench", ("agents", "count"), ()), ("bench", ("filter", "particles"), ()),
    ("bench", (), ("--n-seeds",)), ("field", (), ("--rows",)),
    ("track", (), ("--particles",)), ("calibrate", (), ("--particles",)),
    ("build-starmap", (), ("--rows",)), ("build-starmap", (), ("--samples",)),
]


class TestMapInputs:
    @pytest.mark.parametrize("geojson, perturbations", [
        (with_buoy([-74.0]), CATCH_ALL_PERTURBATIONS),
        (with_buoy("ab"), CATCH_ALL_PERTURBATIONS),
        (mutate(corridor_geojson(), ("features", 0, "geometry", "coordinates", 0, 2),
                "replace", "ab"), CATCH_ALL_PERTURBATIONS),
        (mutate(corridor_geojson(), ("features", 0), "replace", 7),
         CATCH_ALL_PERTURBATIONS),
        (with_buoy([-74.0, float("nan")]), CATCH_ALL_PERTURBATIONS),
        (with_buoy([1e308, 40.6]), CATCH_ALL_PERTURBATIONS),
        (corridor_geojson(), {"*": {"translation_std_m": "x"}}),
        (corridor_geojson(), {"*": {"translation_std_m": None}}),
        (corridor_geojson(), {"*": {"translation_std_m": [1]}}),
        (corridor_geojson(), {"*": {"translation_std_m": -1.0}}),
        (corridor_geojson(), {"*": {"translation_std_m": 1e200}}),
        (corridor_geojson(), {"*": {"rotation_std_rad": "nan"}}),
        (corridor_geojson(), {"*": {"rotation_std_rad": float("nan")}}),
        (corridor_geojson(), {"*": {"scale_std": True}}),
        (corridor_geojson(), {"*": {"scale_std": 1e300}}),
        (corridor_geojson(), {"*": {"translation_std_m": 1e150}}),
    ], ids=["point-one-coordinate", "point-string", "ring-string-pair", "feature-number",
            "point-nan-latitude", "point-longitude-out-of-range", "translation-string",
            "translation-null", "translation-list", "translation-negative",
            "translation-square-overflows", "rotation-string-nan", "rotation-nan",
            "scale-bool", "scale-overflows-vertices", "translation-overflows-distances"])
    def test_malformed_map_input_is_user_error_and_writes_nothing(self, tmp_path,
                                                                  geojson, perturbations):
        code, err, out = build_starmap_from_docs(tmp_path, geojson, perturbations)
        assert code == 2, err
        assert "error:" in err and "Traceback" not in err
        assert list(tmp_path.glob("sm.json*")) == []

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_mutated_map_inputs_exit_0_or_2(self, data):
        docs = {"map": corridor_geojson(), "perturb": CATCH_ALL_PERTURBATIONS}
        for _ in range(data.draw(st.integers(1, 2), label="mutations")):
            name = data.draw(st.sampled_from(sorted(docs)), label="document")
            # sampled_from favours early entries: put the deepest values,
            # the map's coordinates, first.
            paths = sorted(json_paths(docs[name]), key=len, reverse=True)
            path = data.draw(st.sampled_from(paths), label="path")
            docs[name] = mutate(docs[name], path,
                                data.draw(st.sampled_from(["replace", "delete", "empty"])),
                                data.draw(st.sampled_from(FUZZ_VALUES)))
        flags = data.draw(st.sampled_from([(), (world.BBOX_FLAG,)]))
        with tempfile.TemporaryDirectory() as tmp:
            code, err, out = build_starmap_from_docs(tmp, docs["map"], docs["perturb"],
                                                     *flags)
            assert code in (0, 2), err
            assert "Traceback" not in err
            assert out.exists() == (code == 0)
            assert list(pathlib.Path(tmp).glob("sm.json.*")) == []

    @pytest.mark.parametrize("command, name, path, value", MALFORMED_INPUTS,
                             ids=[f"{name}-{'.'.join(map(str, path))}-"
                                  + next((k for k, v in BAD_BLOBS.items() if v is value),
                                         f"{value!r:.12}")
                                  for _, name, path, value in MALFORMED_INPUTS])
    def test_malformed_input_file_is_user_error_naming_the_key(self, tmp_path, command,
                                                               name, path, value):
        doc = mutate(input_docs()[name], path,
                     "delete" if isinstance(value, Missing) else "replace", value)
        code, err, out = run_on_docs(tmp_path, command, {name: doc})
        assert code == 2, err
        check_outcome(code, err, out)
        assert [key for key in path if isinstance(key, str)][-1] in err

    @pytest.mark.parametrize("command, bbox", [
        ("build-starmap", "-1e300,-300,3900,300"), ("build-starmap", "-300,-1.5e8,3900,300"),
        ("demo-harbor", "-1e300,-300,3900,300"), ("field", "-1e300,-300,3900,300"),
        ("field", "-300,-300,3900,1.5e8"),
    ])
    def test_bbox_flag_beyond_the_coordinate_bound_is_user_error(self, tmp_path, command,
                                                                 bbox):
        if command == "field":
            code, err, out = run_on_docs(tmp_path, command, {}, f"--bbox={bbox}")
            check_outcome(code, err, out)
        else:
            if command == "build-starmap":
                code, err, out = build_starmap_from_docs(tmp_path, corridor_geojson(),
                                                         CORRIDOR_PERTURBATIONS, f"--bbox={bbox}")
            else:  # a depth layer on the demo harbor crashed in relations at -1e300
                files = write_demo(tmp_path)
                out = tmp_path / "sm.json"
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run_cli("build-starmap", "--map", files["map"],
                                   "--perturb", files["perturbations"],
                                   "--constitution", files["constitution"], f"--bbox={bbox}",
                                   "--rows", 5, "--cols", 5, "--samples", 3, "--out", out)
                err = err.getvalue()
            assert "Traceback" not in err
            assert list(tmp_path.glob("sm.json*")) == []
        assert code == 2, err
        assert "error: grid bbox must be finite and within [-1e+08, 1e+08] m" in err

    @pytest.mark.parametrize("command, path, flags", HUGE_SIZES,
                             ids=[f"{command}-{'.'.join(path) or flags[0]}"
                                  for command, path, flags in HUGE_SIZES])
    def test_huge_size_is_user_error_before_allocating(self, tmp_path, command, path,
                                                       flags):
        flags = [*flags, str(10**12)] if flags else []
        if command == "build-starmap":
            code, err, out = build_starmap_from_docs(tmp_path, corridor_geojson(),
                                                     CORRIDOR_PERTURBATIONS, *flags)
            assert code == 2, err
            assert "error:" in err and "Traceback" not in err and not out.exists()
            return
        docs = {}
        if path:
            docs["scenario"] = mutate(input_docs()["scenario"], path, "replace", 10**12)
        code, err, out = run_on_docs(tmp_path, command, docs, *flags)
        assert code == 2, err
        check_outcome(code, err, out)

    @pytest.mark.parametrize("command, examples", [("field", 120), ("track", 120),
                                                   ("calibrate", 80), ("bench", 80)])
    def test_mutated_inputs_exit_0_or_2(self, command, examples):
        @settings(deadline=None, max_examples=examples, database=None)
        @given(st.data())
        def fuzz(data):
            docs = {name: input_docs()[name] for name in COMMAND_INPUTS[command]}
            kinds = ["replace", "delete", "empty"]
            if command == "field":  # the layer strings too
                kinds += STRING_MUTATIONS
            for _ in range(data.draw(st.integers(1, 2), label="mutations")):
                name = data.draw(st.sampled_from(sorted(docs)), label="document")
                doc = docs[name]
                texts = [path for path in json_paths(doc) if text_at(doc, path)]
                kind = data.draw(st.sampled_from(kinds if texts else kinds[:3]), label="kind")
                paths = sorted(texts if kind in STRING_MUTATIONS else json_paths(doc), key=len)
                path = data.draw(st.sampled_from(paths), label="path")
                docs[name] = mutate(doc, path, kind, data.draw(
                    st.integers(0, 10**6) if kind in STRING_MUTATIONS
                    else st.sampled_from(FUZZ_VALUES), label="value"))
            with tempfile.TemporaryDirectory() as tmp:
                check_outcome(*run_on_docs(tmp, command, docs))

        fuzz()


class TestField:
    def test_constant_one_constitution(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        cst = tmp_path / "one.cst"
        cst.write_text("1.0 :: constitution(X, Z).\n")
        out = tmp_path / "field.json"
        code = run_cli("field", "--constitution", cst, "--starmap", starmap,
                       "--out", out)
        assert code == 0
        assert set(ConstitutionField.load(out).values.ravel().tolist()) == {1.0}

    def test_values_in_unit_interval(self, paths, tmp_path):
        starmap = build_starmap(paths, tmp_path)
        out = tmp_path / "field.json"
        code = run_cli("field", "--constitution", paths["constitution"],
                       "--starmap", starmap, "--out", out,
                       "--pgm", tmp_path / "field.pgm")
        assert code == 0
        values = ConstitutionField.load(out).values.ravel()
        values = values[~np.isnan(values)]
        assert values.size and ((0.0 <= values) & (values <= 1.0)).all()
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
        undefined = np.isnan(ConstitutionField.load(out).values.ravel())
        assert undefined.sum() == 1 and undefined[4]

    def test_verbose_logs_the_nan_fraction(self, paths, tmp_path, caplog, capsys):
        caplog.set_level(logging.INFO, logger="cstrack")
        assert run_cli("field", "--constitution", paths["constitution"],
                       "--starmap", flagged_centre_starmap(tmp_path),
                       "--out", tmp_path / "field.json", "-v") == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "cstrack"]
        assert "field 3x3: NaN fraction 0.1111" in lines

    def test_empty_starmap_is_user_error(self, paths, tmp_path, capsys):
        code = run_cli("field", "--constitution", paths["constitution"],
                       "--starmap", empty_starmap(tmp_path), "--out", tmp_path / "f.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: starmap has no layers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--rows", 0], ["--rows", 1], ["--cols", 0],
                                       ["--rows", -3, "--cols", 5]])
    def test_too_small_grid_is_user_error_and_writes_nothing(self, paths, tmp_path, capsys,
                                                             flags):
        starmap = build_starmap(paths, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        code = run_cli("field", "--constitution", paths["constitution"], "--starmap", starmap,
                       "--out", out / "field.json", *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2x2 nodes" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

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

    def test_track_failing_partway_keeps_the_old_step_log(self, paths, tmp_path, capsys):
        # The second track's dt is beyond the filter's bound, so track fails
        # in its block, after the first block's records; the step log of
        # the earlier run stays.
        tracks = ingest(paths, tmp_path)
        logs = tmp_path / "steps.jsonl"
        args = ["--no-constitution", "--particles", 50, "--out-logs", logs,
                "--out-summary", tmp_path / "s.json"]
        assert run_cli("track", "--tracks", tracks, "--seed", 9, *args) == 0
        before = logs.read_bytes()
        (track,), frame = load_tracks(tracks)
        late = Track(vessel_id="late", times=track.times[0] + 2e8 * np.arange(track.size),
                     positions=track.positions, metadata=track.metadata, dt=2e8)
        bad = tmp_path / "bad_tracks.json"
        save_tracks([track, late], frame, bad)
        filter_arms = mock.Mock(side_effect=cli.filter_arms)
        capsys.readouterr()
        with mock.patch.object(cli, "filter_arms", filter_arms):
            assert run_cli("track", "--tracks", bad, "--seed", 10, *args) == 2
        assert filter_arms.call_count == 1
        assert "error: bad filter config: dt must be a finite number" in capsys.readouterr().err
        assert logs.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("key, value", [
        ("dt", "x"), ("dt", 0), ("dt", -60.0), ("dt", True), ("dt", None),
        ("t0", "x"), ("t0", True), pytest.param("t0", 10**400, id="t0-10**400"),
        ("t0", Missing()), ("positions", "3 wide"), ("positions", "null row"),
        ("vessel_type", "70"), ("sog_median_kn", [0.1]), ("draft", "deep"),
        ("positions", "nested"), ("positions", "one row"), ("dt", "1 at t0 1e17"),
    ])
    def test_malformed_tracks_file_is_user_error_and_writes_nothing(
            self, paths, tmp_path, capsys, key, value):
        # The middle one of three tracks is broken; metadata is read by the
        # trust table, so give one. A tracks file without t0, or with dt
        # null, is one from before t0: ingest writes it again.
        doc = json.loads(ingest(paths, tmp_path).read_text())
        good = doc["tracks"][0]
        bad = dict(good, vessel_id="bad", metadata=dict(good["metadata"]))
        if isinstance(value, Missing):
            del bad[key]
        elif value == "1 at t0 1e17":  # the times t0 + dt * k round to equal values
            bad.update(t0=1e17, dt=1.0)
        elif key in ("dt", "t0"):
            bad[key] = value
        elif key in ("vessel_type", "draft", "sog_median_kn"):
            bad["metadata"][key] = value
        elif value == "3 wide":
            bad[key] = [row + [0.0] for row in good[key]]
        elif value == "null row":
            bad[key] = list(good[key])
            bad[key][5] = [None, None]
        elif value == "one row":
            bad[key] = good[key][:1]
        else:
            bad[key] = [[row] for row in good[key]]
        doc["tracks"] = [good, bad, dict(good, vessel_id="last")]
        tracks = tmp_path / "bad_tracks.json"
        tracks.write_text(json.dumps(doc))
        table = tmp_path / "trust.json"
        table.write_text(json.dumps({"default_tau": 0.5, "entries": []}))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        code = run_cli("track", "--tracks", tracks, "--constitution", paths["constitution"],
                       "--starmap", build_starmap(paths, tmp_path), "--trust-table", table,
                       "--particles", 50, "--out-logs", out / "l.jsonl",
                       "--out-summary", out / "s.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: bad tracks JSON: tracks[1]." in err and key in err
        assert "Traceback" not in err
        assert (f"tracks[1].{key} " in err and "again with ingest" in err) == (key in ("dt", "t0"))
        assert list(out.iterdir()) == []

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

    def test_degenerate_track_is_marked_and_the_others_go_on(self, paths, tmp_path,
                                                              caplog, capsys):
        # Zero compliance everywhere: the cargo track, at tau = 1 by the
        # trust table, degenerates; its copy of unknown type runs at tau = 0.
        zero = tmp_path / "zero.cst"
        zero.write_text(
            "1.0 :: constitution(X, Z) :- over(X, corridor), \\+ over(X, corridor).\n")
        (cargo,), frame = load_tracks(ingest(paths, tmp_path))
        other = dataclasses.replace(cargo, vessel_id="other",
                                    metadata=dict(cargo.metadata, vessel_type=None))
        tracks = tmp_path / "two_tracks.json"
        save_tracks([cargo, other], frame, tracks)
        table = tmp_path / "trust.json"
        table.write_text(json.dumps({
            "default_tau": 0.0,
            "entries": [{"vessel_type": "cargo", "waterway_bound": True,
                         "anchoring": False, "tau": 1.0}],
        }))
        logs, summary = tmp_path / "steps.jsonl", tmp_path / "summary.json"
        caplog.set_level(logging.INFO, logger="cstrack")
        code = run_cli("track", "--tracks", tracks, "--constitution", zero,
                       "--starmap", build_starmap(paths, tmp_path), "--trust-table", table,
                       "--particles", 50, "--seed", 2,
                       "--out-logs", logs, "--out-summary", summary, "-v")
        assert code == 0
        entries = json.loads(summary.read_text())["tracks"]
        assert entries[0] == {
            "vessel_id": cargo.vessel_id, "tau": 1.0, "steps": 0,
            "mae_vs_recorded": None,
            "failure": "all particle weights vanished in the compliance update "
                       "(tau = 1 with zero compliance probability everywhere)",
        }
        assert entries[1]["vessel_id"] == "other" and entries[1]["tau"] == 0.0
        assert entries[1]["steps"] == 29 and entries[1]["mae_vs_recorded"] > 0
        assert "failure" not in entries[1]
        lines = logs.read_text().splitlines()
        assert len(lines) == 29
        assert {json.loads(line)["vessel_id"] for line in lines} == {"other"}
        messages = [r.getMessage() for r in caplog.records if r.name == "cstrack"]
        assert "track: 1 of 2 tracks degenerate (no step lines written)" in messages

    def test_empty_starmap_is_user_error(self, paths, tmp_path, capsys):
        tracks = ingest(paths, tmp_path)
        code = run_cli("track", "--tracks", tracks,
                       "--constitution", paths["constitution"],
                       "--starmap", empty_starmap(tmp_path), "--tau", 0.5,
                       "--out-logs", tmp_path / "l.jsonl",
                       "--out-summary", tmp_path / "s.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: starmap has no layers" in err
        assert "Traceback" not in err

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


BLOCK_PARTICLES = 20
VESSEL_TYPES = {"cargo": 70, "fishing": 30, "unknown": None}


@pytest.fixture(scope="module")
def block_world(tmp_path_factory):
    """A 5 x 15 over:corridor starmap over the world's bbox, random west
    of x = 1800 m with two flagged cells and 0 from x = 2100 m on, where a
    track at tau = 1 degenerates; and a program that reads both the state
    and the measurement."""
    directory = tmp_path_factory.mktemp("blocks")
    grid = GridSpec(bbox=tuple(CORRIDOR_GRID["bbox"]), rows=5, cols=15)
    xs = grid.node_points()[:, 0].reshape(5, 15)
    mean = np.where(xs <= 1800.0, np.random.default_rng(14).uniform(0.3, 1.0, (5, 15)), 0.0)
    std = np.zeros((5, 15))
    for cell in ((1, 3), (3, 5)):
        mean[cell] = std[cell] = np.nan
    layer = StaRMapLayer(relation=RelationKind.OVER, tag="corridor", grid=grid,
                         mean=mean, std=std, sample_count=2)
    starmap = directory / "starmap.json"
    save_starmap([layer], starmap)
    program = directory / "program.cst"
    program.write_text("1.0 :: constitution(X, Z) :- over(X, corridor), over(Z, corridor).\n")
    return directory, starmap, program


def write_block_tracks(path, cases, seed):
    """One track per (samples, dt, t0, vessel type, east) case: 1 m/s
    eastward from a random start, east of x = 2700 m when east is set."""
    rng = np.random.default_rng(seed)
    tracks = []
    for k, (samples, dt, t0, kind, east) in enumerate(cases):
        times = float(t0) + dt * np.arange(samples)
        x0 = rng.uniform(2700.0, 2900.0) if east else rng.uniform(0.0, 700.0)
        positions = np.column_stack([x0 + (times - times[0]),
                                     rng.normal(0.0, 15.0, samples)])
        tracks.append(Track(vessel_id=f"v{k}", times=times, positions=positions, dt=dt,
                            metadata={"vessel_type": VESSEL_TYPES[kind], "draft": None,
                                      "sog_median_kn": None}))
    save_tracks(tracks, world.FRAME, path)


def lone_track_outputs(tracks_path, starmap, program_path, mode, table, seed):
    """The step log bytes and summary entries of every track run alone
    through the stepwise reference filter, on its own child seed."""
    tracks, _ = load_tracks(tracks_path)
    layers, _ = load_starmap(starmap)
    program = parse(program_path.read_text())
    evaluator = (precompute_field(program, layers, layers[0].grid) if mode == "field"
                 else ConstitutionEvaluator(program, layers))
    lines, entries = [], []
    for track, track_seed in zip(tracks, np.random.SeedSequence(seed).spawn(len(tracks))):
        tau = table.lookup(extract_features(track))
        config = FilterConfig(particles=BLOCK_PARTICLES, dt=float(track.dt),
                              measurement_noise_std=40.0)
        estimates, failure, records = stepwise_run(
            track.positions, config, track_seed,
            evaluator.particle_probabilities, tau, t0=float(track.times[0]),
        )
        if failure is not None:
            entries.append({"vessel_id": track.vessel_id, "tau": tau, "steps": 0,
                            "mae_vs_recorded": None, "failure": failure})
            continue
        lines += [jsonio.dumps_line({"vessel_id": track.vessel_id, **r.to_json()}) + "\n"
                  for r in records]
        entries.append({"vessel_id": track.vessel_id, "tau": tau, "steps": len(records),
                        "mae_vs_recorded": position_mae(estimates, track.positions[1:])})
    return "".join(lines).encode(), entries


def check_blocks_equal_lone_runs(block_world, cases, mode, cargo_tau, default_tau, arms,
                                 seed):
    """Run track over the cases in blocks of at most arms tracks; every
    track's step lines and summary entry must be those of its lone run.
    Returns the arm count of every filter_arms call."""
    directory, starmap, program = block_world
    tracks = directory / "tracks.json"
    write_block_tracks(tracks, cases, seed)
    table = TrustTable.from_json({"default_tau": default_tau, "entries": [
        {"vessel_type": "cargo", "waterway_bound": True, "anchoring": False,
         "tau": cargo_tau},
        {"vessel_type": "fishing", "waterway_bound": False, "anchoring": False,
         "tau": 0.0},
    ]})
    table.save(directory / "table.json")
    logs, summary = directory / "steps.jsonl", directory / "summary.json"
    block_arms = []
    real_filter_arms = cli.filter_arms

    def counting_filter_arms(measurements, *args, **kwargs):
        block_arms.append(len(measurements))
        return real_filter_arms(measurements, *args, **kwargs)

    # A block holds floor(_BLOCK_PARTICLES / particles) arms.
    with mock.patch.object(cli, "_BLOCK_PARTICLES", arms * BLOCK_PARTICLES + 19), \
            mock.patch.object(cli, "filter_arms", counting_filter_arms):
        code = run_cli("track", "--tracks", tracks, "--constitution", program,
                       "--starmap", starmap, "--trust-table", directory / "table.json",
                       "--mode", mode, "--particles", BLOCK_PARTICLES, "--meas-std", 40,
                       "--seed", seed, "--out-logs", logs, "--out-summary", summary)
    assert code == 0
    want_logs, want_entries = lone_track_outputs(tracks, starmap, program, mode, table, seed)
    assert json.loads(summary.read_text()) == {"tracks": want_entries, "master_seed": seed}
    assert logs.read_bytes() == want_logs
    return block_arms


class TestTrackBlocks:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(2, 10), st.sampled_from([30.0, 60.0]),
                           st.integers(0, 5000), st.sampled_from(sorted(VESSEL_TYPES)),
                           st.booleans()),
                 min_size=1, max_size=7),
        st.sampled_from(["field", "direct"]),
        st.sampled_from([0.5, 1.0]),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.sampled_from([1, 3, 8]),
        st.integers(0, 2**32 - 1),
    )
    def test_every_track_gets_the_bits_of_its_lone_run(self, block_world, cases, mode,
                                                       cargo_tau, default_tau, arms, seed):
        block_arms = check_blocks_equal_lone_runs(block_world, cases, mode, cargo_tau,
                                                  default_tau, arms, seed)
        assert sum(block_arms) == len(cases) and max(block_arms) <= arms

    @pytest.mark.parametrize("mode", ["field", "direct"])
    def test_mixed_blocks_with_a_degenerate_track_in_mid_block(self, block_world, mode):
        # Four tracks at dt = 60 s (blocks of 3 and 1), then two at dt = 30 s;
        # the east cargo track degenerates at tau = 1 between a tau = 0 and
        # a tau = 0.3 track, and every track has its own length and t0.
        cases = [(6, 60.0, 0, "fishing", False), (5, 60.0, 100, "cargo", True),
                 (8, 60.0, 50, "unknown", False), (3, 60.0, 20, "cargo", False),
                 (4, 30.0, 7, "cargo", False), (2, 30.0, 9, "fishing", False)]
        block_arms = check_blocks_equal_lone_runs(block_world, cases, mode, cargo_tau=1.0,
                                                  default_tau=0.3, arms=3, seed=5)
        assert block_arms == [3, 1, 2]
        entries = json.loads((block_world[0] / "summary.json").read_text())["tracks"]
        assert [e["tau"] for e in entries] == [0.0, 1.0, 0.3, 1.0, 1.0, 0.0]
        assert [("failure" in e) for e in entries] == [False, True, False, False, False,
                                                        False]


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

    def test_verbose_logs_the_skipped_tracks(self, paths, tmp_path, caplog, capsys):
        # Zero compliance everywhere: the tau = 1 arm degenerates, so the
        # only track is skipped.
        zero = tmp_path / "zero.cst"
        zero.write_text(
            "1.0 :: constitution(X, Z) :- over(X, corridor), \\+ over(X, corridor).\n")
        caplog.set_level(logging.INFO, logger="cstrack")
        code = run_cli("calibrate", "--tracks", ingest(paths, tmp_path),
                       "--constitution", zero, "--starmap", build_starmap(paths, tmp_path),
                       "--tau-grid", "0,1", "--particles", 50, "--seed", 2,
                       "--out-table", tmp_path / "t.json",
                       "--out-report", tmp_path / "r.json", "-v")
        assert code == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "cstrack"]
        assert "calibrate: 1 of 1 tracks skipped (degenerate under some tau)" in lines

    def test_empty_inputs_exit_2(self, paths, tmp_path):
        empty = tmp_path / "empty.json"
        save_tracks([], LocalFrame(0.0, 0.0), empty)
        code = run_cli("calibrate", "--tracks", empty,
                       "--constitution", paths["constitution"],
                       "--starmap", tmp_path / "missing.json",
                       "--out-table", tmp_path / "t.json",
                       "--out-report", tmp_path / "r.json")
        assert code == 2


class TestBench:
    def test_runs_and_reruns_identically(self, tmp_path):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(bench_scenario(
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
        doc = bench_scenario(taus=(0.0,), n_seeds=1, steps=5, particles=50,
                             samples=4)
        del doc["map"]
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("bench", "--scenario", spec, "--out-dir", tmp_path / "o") == 2

    @pytest.mark.parametrize("agents, message", [
        ({"mode": "reckless"}, "unknown agent mode 'reckless'"),
        ({"start": [1e6, 0.0]}, "start (1000000.0, 0.0) outside the field bbox"),
    ])
    def test_bad_agent_is_user_error_before_the_starmap(self, tmp_path, capsys, agents,
                                                        message):
        doc = bench_scenario(taus=(0.0,), n_seeds=1, steps=5, particles=50, samples=4)
        doc["agents"].update(agents)
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(doc))
        with mock.patch("cstrack.evalbench.build_starmap") as built:
            assert run_cli("bench", "--scenario", spec, "--out-dir", tmp_path / "o") == 2
        built.assert_not_called()
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, entry", [
        ("map", {"geojson": {}}),
        ("perturbations", 7),
        ("constitution", {"inline": ["not", "text"]}),
        ("agents", {"count": 1}),
    ])
    def test_malformed_entry_is_user_error(self, tmp_path, capsys, key, entry):
        doc = bench_scenario(taus=(0.0,), n_seeds=1, steps=5, particles=50,
                             samples=4)
        doc[key] = entry
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("bench", "--scenario", spec, "--out-dir", tmp_path / "o") == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("change, flags", [
        ({}, ["--n-seeds", "-2"]),
        ({}, ["--n-seeds", "0"]),
        ({"n_seeds": -1}, []),
        ({"n_seeds": 0}, []),
        ({"taus": []}, []),
        ({"agents": {"count": 0}}, []),
    ])
    def test_sweep_that_runs_nothing_is_user_error(self, tmp_path, capsys, change, flags):
        doc = bench_scenario(taus=(0.0,), n_seeds=1, steps=5, particles=50,
                             samples=4)
        for key, value in change.items():
            doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        assert run_cli("bench", "--scenario", spec, "--out-dir", out_dir, *flags) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "at least 1" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_path_entries_match_inline(self, paths, tmp_path):
        # Map, perturbations and constitution given as files next to the
        # scenario load exactly like the same content inline.
        outs = []
        for name in ("inline", "paths"):
            doc = bench_scenario(taus=(0.0, 1.0), n_seeds=1, steps=8,
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


class TestNumberFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("ingest", "--origin", "-74.02,nan"),
        ("build-starmap", "--bbox", "a,0,1,1"),
        ("build-starmap", "--bbox", "0,0,1"),
        ("build-starmap", "--bbox", ""),
        ("build-starmap", "--origin", "x,40.64"),
        ("field", "--measurement", "x,1"),
        ("field", "--measurement", "1,2,3"),
        ("field", "--bbox", "0,0,inf,1"),
        ("calibrate", "--tau-grid", "0,x"),
        ("calibrate", "--tau-grid", ""),
        ("bench", "--taus", ""),
        ("bench", "--taus", ","),
        ("bench", "--taus", "0,inf"),
    ])
    def test_bad_number_is_user_error_and_writes_nothing(self, paths, tmp_path, capsys,
                                                         command, flag, value):
        out = tmp_path / "out"
        out.mkdir()
        if command == "ingest":
            argv = ["--csv", paths["csv"], "--out", out / "tracks.json"]
        elif command == "build-starmap":
            argv = ["--map", paths["map"], "--perturb", paths["perturb"],
                    "--relations", "over:corridor", "--samples", 4,
                    "--rows", 4, "--cols", 4, "--out", out / "sm.json"]
        elif command == "field":
            argv = ["--constitution", paths["constitution"],
                    "--starmap", build_starmap(paths, tmp_path), "--out", out / "field.json"]
        elif command == "calibrate":
            argv = ["--tracks", ingest(paths, tmp_path),
                    "--constitution", paths["constitution"],
                    "--starmap", build_starmap(paths, tmp_path), "--particles", 50,
                    "--out-table", out / "t.json", "--out-report", out / "r.json"]
        else:
            spec = tmp_path / "scenario.json"
            spec.write_text(json.dumps(bench_scenario(
                taus=(0.0,), n_seeds=1, steps=5, particles=50, samples=4)))
            argv = ["--scenario", spec, "--out-dir", out / "bench"]
        capsys.readouterr()
        assert run_cli(command, *argv, f"{flag}={value}") == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be" in err and "finite numbers" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["build-starmap", "track", "calibrate"])
    @pytest.mark.parametrize("seed", ["-1", "-7", "x"])
    def test_bad_seed_is_user_error_and_writes_nothing(self, paths, tmp_path, capsys,
                                                       command, seed):
        out = tmp_path / "out"
        out.mkdir()
        if command == "build-starmap":
            argv = ["--map", paths["map"], "--perturb", paths["perturb"],
                    "--relations", "over:corridor", "--samples", 4,
                    "--rows", 4, "--cols", 4, "--out", out / "sm.json"]
        elif command == "track":
            argv = ["--tracks", ingest(paths, tmp_path), "--no-constitution",
                    "--particles", 50, "--out-logs", out / "l.jsonl",
                    "--out-summary", out / "s.json"]
        else:
            argv = ["--tracks", ingest(paths, tmp_path),
                    "--constitution", paths["constitution"],
                    "--starmap", build_starmap(paths, tmp_path), "--particles", 50,
                    "--out-table", out / "t.json", "--out-report", out / "r.json"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *argv, f"--seed={seed}")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --seed: must be a non-negative integer" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_zero_seed_runs(self, paths, tmp_path):
        assert run_cli("track", "--tracks", ingest(paths, tmp_path), "--no-constitution",
                       "--particles", 50, "--seed", 0, "--out-logs", tmp_path / "l.jsonl",
                       "--out-summary", tmp_path / "s.json") == 0


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
        doc = bench_scenario(taus=(0.0, 1.0), n_seeds=1, steps=8,
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
        undefined = np.isnan(ConstitutionField.load(tmp_path / "field.json").values.ravel())
        assert undefined.sum() == 1 and undefined[4]
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
