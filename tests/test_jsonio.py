import json
import math
import os
import stat

import numpy as np
import pytest

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


def test_load_source_passes_parsed_objects_through(tmp_path):
    obj = {"k": [1, 2]}
    assert jsonio.load_source(obj, "thing") is obj
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    assert jsonio.load_source(path, "thing") == obj
    assert jsonio.load_source(str(path), "thing") == obj
