import json
import math
import os
import pathlib
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstrack import jsonio
from cstrack.constitution import ConstitutionField
from cstrack.errors import FormatError
from cstrack.grids import GridSpec
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer, load_starmap, save_starmap


def test_floats_round_trip_with_null_for_non_finite():
    values = np.array([[0.5, np.nan], [np.inf, -2.0]])
    encoded = jsonio.floats_to_json(values)
    assert encoded == [0.5, None, None, -2.0]
    decoded = jsonio.floats(encoded, "values")
    assert decoded[0] == 0.5 and decoded[3] == -2.0
    assert math.isnan(decoded[1]) and math.isnan(decoded[2])


def test_nested_float_list_rejected():
    with pytest.raises(FormatError, match="^values must be a list of finite numbers"):
        jsonio.floats([[1.0, 2.0], [3.0, 4.0]], "values")


def test_dump_writes_the_convention(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.dump({"a": [1.0, jsonio.float_to_json(float("nan"))]}, path)
    assert path.read_text(encoding="utf-8") == '{\n "a": [\n  1.0,\n  null\n ]\n}\n'


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_stray_non_finite_float_raises(tmp_path, bad):
    with pytest.raises(ValueError):
        jsonio.dump({"a": bad}, tmp_path / "doc.json")
    with pytest.raises(ValueError):
        jsonio.dumps_line({"a": bad})


finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    finite, finite.map(np.float64), st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.integers(-2**70, 2**70), st.sampled_from([2**53 + 1, -(2**63), 2**64]),
    st.booleans(), st.none(),
)
keys = st.one_of(st.text(), finite, st.integers(-2**70, 2**70), st.booleans(), st.none())
documents = st.recursive(
    st.one_of(numbers, st.text(), st.lists(numbers, max_size=30)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(deadline=None, max_examples=150)
@given(doc=documents)
def test_dump_writes_the_bytes_of_json_dump(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    jsonio.dump(doc, path)
    expect = json.dumps(doc, indent=1, allow_nan=False) + "\n"
    assert path.read_bytes() == expect.encode("utf-8")


def test_dump_writes_escapes_and_large_numbers_as_json_does(tmp_path):
    doc = {"é\n\"\\\u2028": ["\x00", "\U0001f600"], 1: [], 2.5: {}, None: [[]],
           True: [2**64, -0.0, 5e-324, 1e308, np.float64(0.1), None, False]}
    path = tmp_path / "doc.json"
    jsonio.dump(doc, path)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("size", [1023, 1024, 1025, 2048, 3001])
def test_long_number_lists_match_json_dump(tmp_path, size):
    values = np.random.default_rng(size).normal(size=size)
    values[::7] = np.nan
    doc = {"mean": jsonio.floats_to_json(values), "n": [[size, True, None] * 400]}
    path = tmp_path / "doc.json"
    jsonio.dump(doc, path)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("doc", [
    [float("nan")], [1.0, np.float64("inf")], {"a": {"b": [0.5, float("-inf")]}},
    {"a": float("inf")}, {float("nan"): 1}, [[1, 2], [3, float("nan")]],
])
def test_non_finite_raises_and_leaves_no_file(tmp_path, doc):
    with pytest.raises(ValueError):
        jsonio.dump(doc, tmp_path / "doc.json")
    assert os.listdir(tmp_path) == []


def test_unknown_type_raises_as_json_does(tmp_path):
    for doc in ([np.int64(1)], {(1, 2): 3}, {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=1)
        with pytest.raises(TypeError):
            jsonio.dump(doc, tmp_path / "doc.json")
    assert os.listdir(tmp_path) == []


def test_failed_dump_keeps_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.dump({"a": 1}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        jsonio.dump({"a": 1, "b": float("nan")}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.json"]


def test_write_failing_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="disk full"):
        with jsonio.atomic_write(path, newline="") as fh:
            fh.write("seed,track\n0,")
            raise RuntimeError("disk full")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["runs.csv"]


def test_failing_write_leaves_no_new_file(tmp_path):
    with pytest.raises(RuntimeError):
        with jsonio.atomic_write(tmp_path / "image.pgm", encoding="ascii") as fh:
            fh.write("P2\n")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == []


def mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_dump_gives_the_mode_open_gives(tmp_path):
    with open(tmp_path / "plain.json", "w"):
        pass
    jsonio.dump({}, tmp_path / "new.json")
    assert mode(tmp_path / "new.json") == mode(tmp_path / "plain.json")
    existing = tmp_path / "existing.json"
    existing.write_text("{}")
    os.chmod(existing, 0o640)
    jsonio.dump({"a": 1}, existing)
    assert mode(existing) == 0o640


def test_unparsable_file_is_format_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match=r"^bad thing file .*doc\.json: "):
        jsonio.load(path, "thing file")


@pytest.mark.parametrize("content", [b'{"a": "\xff"}', b"1" * 5000],
                         ids=["bad-utf8", "overlong-integer"])
def test_unreadable_text_is_format_error(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=r"^bad thing file .*doc\.json: "):
        jsonio.load(path, "thing file")


def test_load_source_passes_parsed_objects_through(tmp_path):
    obj = {"k": [1, 2]}
    assert jsonio.load_source(obj, "thing") is obj
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    assert jsonio.load_source(path, "thing") == obj
    assert jsonio.load_source(str(path), "thing") == obj


@pytest.mark.parametrize("value, kwargs, expect", [
    (3, {}, 3.0), (2.5, {}, 2.5), (np.float64(0.5), {}, 0.5), (-0.0, {"lo": 0}, 0.0),
    (7, {"integer": True}, 7), (10**400, {"integer": True}, 10**400), (1, {"hi": 1}, 1.0),
    (5e-324, {"above": 0}, 5e-324), (1e308, {}, 1e308),
])
def test_number_returns_a_python_number(value, kwargs, expect):
    out = jsonio.number(value, "k", **kwargs)
    assert out == expect and type(out) is (int if kwargs.get("integer") else float)


@pytest.mark.parametrize("value, kwargs", [
    (True, {}), (False, {"integer": True}), ("1", {}), (None, {}), ([1], {}), ({}, {}),
    (float("nan"), {}), (float("inf"), {}), (-float("inf"), {}), (10**400, {}),
    (1.0, {"integer": True}), (1.5, {"integer": True}), (-1, {"lo": 0}), (2, {"hi": 1}),
    (0, {"above": 0}), (10**400, {"integer": True, "hi": 10}),
])
def test_number_rule_rejects_naming_the_key(value, kwargs):
    with pytest.raises(FormatError, match=r"^agents\.steps must be (a finite number|an "
                                          r"integer).*, got "):
        jsonio.number(value, "agents.steps", **kwargs)


@pytest.mark.parametrize("values, size", [
    ([True], None), (["1"], None), ([[1.0]], None), ([10**400], None), ([float("inf")], None),
    ("ab", None), ({}, None), (None, None), (1.0, None), ([1.0, 2.0], 3), ([], 1),
])
def test_floats_rejects_naming_the_key(values, size):
    with pytest.raises(FormatError, match=r"^layers\[0\]\.mean must be a list of "):
        jsonio.floats(values, "layers[0].mean", size)


def test_point_and_typed():
    assert jsonio.point([1, 2.5], "start") == (1.0, 2.5)
    for bad in ([1], [1, 2, 3], [1, None], "ab", None, [True, 1]):
        with pytest.raises(FormatError, match="^start must be "):
            jsonio.point(bad, "start")
    assert jsonio.typed("cargo", str, "vessel_type") == "cargo"
    for value, kind in ((None, str), ("false", bool), (1, bool), ([], dict), ({}, list)):
        with pytest.raises(FormatError, match="^key must be "):
            jsonio.typed(value, kind, "key")


def per_row_points(rows, key, lo=None, hi=None):
    """points() as one point() call per row."""
    return np.array([jsonio.point(row, key, lo=lo, hi=hi) for row in rows]).reshape(-1, 2)


POINT_ROWS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=2,
             max_size=2),
    st.lists(st.integers(-10**9, 10**9), min_size=2, max_size=2),
    st.lists(st.sampled_from([True, None, "1", 10**400, 1e308, -1e308, float("nan"),
                              float("inf"), [1.0], 0, -0.0, 1e8, -1e8]), min_size=1,
             max_size=3),
    st.sampled_from([None, "ab", {}, (1.0, 2.0), 1.0]),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(POINT_ROWS, max_size=6), st.sampled_from([None, 1e8]))
def test_points_has_the_result_and_the_error_of_per_row_points(rows, bound):
    lo = None if bound is None else -bound
    try:
        expect = per_row_points(rows, "tracks[0].positions", lo, bound)
    except FormatError as exc:
        with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
            jsonio.points(rows, "tracks[0].positions", lo, bound)
    else:
        out = jsonio.points(rows, "tracks[0].positions", lo, bound)
        assert out.shape == expect.shape and out.dtype == expect.dtype
        np.testing.assert_array_equal(out.view(np.uint64), expect.view(np.uint64))


def test_only_jsonio_parses_json_and_applies_the_number_rule():
    # One JSON and raster file reader and writer (jsonio), which alone
    # opens a file in binary mode; no base64 anywhere.
    src = pathlib.Path(jsonio.__file__).parent
    patterns = {
        "jsonio.py": re.compile(r"json\.(dump|load)|JSONDecodeError|JSONEncoder"
                                r"|numbers\.(Real|Integral)|isinstance\([^)]*\bbool\b"
                                r"|[\"'][rwax]\+?b\+?[\"']|(read|write)_bytes|fromfile|tofile"),
        "": re.compile(r"base64"),
    }
    offenders = [f"{path.relative_to(src)}:{line}"
                 for path in sorted(src.rglob("*.py"))
                 for owner, pattern in patterns.items() if path.name != owner
                 for line, text in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(text)]
    assert offenders == []


def test_raster_file_is_the_header_line_then_the_raw_values(tmp_path):
    path = tmp_path / "r.json"
    a, b = np.array([[1.5, -0.0], [np.inf, 2.0]]), np.array([[np.nan, 5e-324]])
    jsonio.dump_rasters({"resolution": [1, 2], "tag": "\u00e9\n"}, [a, b], path)
    nan = np.array(np.nan, dtype="<f8").tobytes()
    assert path.read_bytes() == (
        b'{"encoding": "' + jsonio.RASTER_ENCODING.encode() + b'", "resolution": [1, 2], '
        b'"tag": "\\u00e9\\n"}\n' + a[0].astype("<f8").tobytes() + nan
        + a[1, 1:].astype("<f8").tobytes() + b.astype("<f8").tobytes())

    def parse(header, rasters):
        return header, rasters(3, 1, 2)

    header, back = jsonio.load_rasters(path, "raster file", parse)
    assert header == {"encoding": jsonio.RASTER_ENCODING, "resolution": [1, 2], "tag": "\u00e9\n"}
    expect = np.array([1.5, -0.0, np.nan, 2.0, np.nan, 5e-324]).reshape(3, 1, 2)
    np.testing.assert_array_equal(back.view(np.uint64), expect.view(np.uint64))
    assert not back.flags.writeable


# Raster values whose bits a round trip must keep: NaN, signed zeros,
# subnormals and the ends of the float range.
SPECIAL = [np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
           np.finfo(float).max, 1 / 3]
RASTER = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_infinity=False, allow_nan=False, width=64))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4), st.integers(2, 5), st.data())
def test_rasters_round_trip_bit_for_bit(tmp_path_factory, rows, cols, data):
    # Through both raster files: a distance layer (any mean, a std of
    # NaN, -0.0 or at least 0), an over layer (a mean in [0, 1]), a field.
    tmp = tmp_path_factory.mktemp("rasters")
    grid = GridSpec(bbox=(-5.0, 0.0, 1e3, 7.5), rows=rows, cols=cols)
    cells = st.lists(RASTER, min_size=rows * cols, max_size=rows * cols)
    mean, std, over, values = (np.array(data.draw(cells), dtype=float).reshape(rows, cols)
                               for _ in range(4))
    std = np.where(std > 0, std, np.where(np.isnan(std), np.nan, -0.0))
    over = np.where(np.isnan(over) | ((over >= 0) & (over <= 1)), over, 0.5)
    layers = [StaRMapLayer(RelationKind.DISTANCE, "land", grid, mean, std, 7),
              StaRMapLayer(RelationKind.OVER, "sea", grid, over, std[::-1], 7)]
    save_starmap(layers, tmp / "s.json", origin_lonlat=(-74.0, 40.5))
    back, origin = load_starmap(tmp / "s.json")
    assert origin == (-74.0, 40.5)
    for a, b in zip(layers, back):
        assert (a.key, a.grid, a.sample_count) == (b.key, b.grid, b.sample_count)
        np.testing.assert_array_equal(b.moments.view(np.uint64), a.moments.view(np.uint64))
    field = ConstitutionField(grid, values)
    field.save(tmp / "f.json")
    loaded = ConstitutionField.load(tmp / "f.json")
    assert loaded.grid == grid
    np.testing.assert_array_equal(loaded.values.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:-1], r"the rasters after the header must be 1 x 2 x 3 float64 values "
                           r"\(48 bytes\), got 47$"),
    (lambda raw: raw + b"\0", r"the rasters after the header must be 1 x 2 x 3 float64 values "
                               r"\(48 bytes\), got 49$"),
    (lambda raw: raw[:-8] + np.array(-np.inf, dtype="<f8").tobytes(),
     r"raster value 5 is infinite"),
    (lambda raw: b"{\n" + raw, r"line 1 must be a JSON header with encoding "
                               r"'float64-le-after-header', got b'\{\\n'; write the file "
                               r"again with build-starmap or field"),
    (lambda raw: raw.replace(b'"encoding": "', b'"encoding": "x'),
     r"line 1 must be a JSON header"),
    (lambda raw: raw.replace(b'"resolution": [2, 3]', b'"resolution": [2, 3.5]'),
     r"cols must be an integer, >= 2, got 3.5"),
    (lambda raw: raw.replace(b'"bbox"', b'"box"'), r"'bbox'"),
], ids=["one-byte-short", "one-byte-long", "minus-inf", "pre-change-json", "other-encoding",
        "float-cols", "no-bbox"])
def test_malformed_field_file_is_format_error_naming_the_file(tmp_path, edit, message):
    path = tmp_path / "f.json"
    ConstitutionField(GridSpec((0.0, 0.0, 1.0, 1.0), rows=2, cols=3), np.full((2, 3), 0.5)
                      ).save(path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=f"^bad field file {re.escape(str(path))}: {message}"):
        ConstitutionField.load(path)
