import json
import math
import os
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
    decoded = jsonio.floats_from_json(encoded)
    assert decoded[0] == 0.5 and decoded[3] == -2.0
    assert math.isnan(decoded[1]) and math.isnan(decoded[2])


def test_nested_float_list_rejected():
    with pytest.raises(ValueError):
        jsonio.floats_from_json([[1.0, 2.0], [3.0, 4.0]])


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
