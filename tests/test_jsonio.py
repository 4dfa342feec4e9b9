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
from cstrack.errors import FormatError


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
    # One JSON reader and writer (jsonio) and one raster codec (grids).
    src = pathlib.Path(jsonio.__file__).parent
    patterns = {
        "jsonio.py": re.compile(r"json\.(dump|load)|JSONDecodeError|JSONEncoder"
                                r"|numbers\.(Real|Integral)|isinstance\([^)]*\bbool\b"),
        "grids.py": re.compile(r"base64"),
    }
    offenders = [f"{path.relative_to(src)}:{line}"
                 for path in sorted(src.rglob("*.py"))
                 for owner, pattern in patterns.items() if path.name != owner
                 for line, text in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(text)]
    assert offenders == []
