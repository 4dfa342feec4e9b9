"""The on-disk JSON convention shared by every file cstrack reads or writes.

Files are UTF-8 with indent=1 and a trailing newline. Every non-finite
float is written as null and read back as NaN; writers pass their float
arrays through floats_to_json (or one value through float_to_json), and
the encoder runs with allow_nan=False, so a stray NaN raises instead of
writing a token that RFC 8259 does not allow. The one exception is the
rasters, a starmap's layers and a compliance field's values: each is one
string of binary float64 values (grids.encode_raster), in which NaN is
stored as its bits. A file that does not parse raises FormatError("bad
<what> <path>: ..."). Every file cstrack writes, JSON or not, goes through
atomic_write: it is written to a temporary file next to the target and
renamed over the target, so a failed write leaves the old file as it was.

Readers hold what they parse to one number rule: a number is a JSON number
(not true or false) and finite, an integer a JSON integer. number(),
floats(), point() and typed() check a value, a flat list of numbers and
nulls, a pair and a string, bool or container, naming the key on error;
points() checks a list of pairs as point() does each.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
import reprlib
import shutil

import numpy as np

from .errors import FormatError


def floats_to_json(values) -> list:
    """A flat list of floats, None for every non-finite entry."""
    flat = np.asarray(values, dtype=float).ravel()
    out = flat.tolist()
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        out[i] = None
    return out


def number(value, key: str, integer: bool = False, lo=None, hi=None, above=None):
    """value as a Python int (integer) or float under the number rule, at
    least lo, at most hi and above `above` where given; FormatError naming
    key otherwise."""
    out = None
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, kind) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            out = int(value) if integer else float(value)
    if (out is None or not (integer or math.isfinite(out)) or (lo is not None and out < lo)
            or (hi is not None and out > hi) or (above is not None and out <= above)):
        bounds = "".join(f", {op} {bound}" for op, bound in ((">=", lo), (">", above), ("<=", hi))
                         if bound is not None)
        raise FormatError(f"{key} must be {'an integer' if integer else 'a finite number'}"
                          f"{bounds}, got {reprlib.repr(value)}")
    return out


def floats(values, key: str, size: int | None = None) -> np.ndarray:
    """The inverse of floats_to_json: a 1-D float array, NaN for null;
    FormatError naming key unless values is a list of (size, if given)
    finite numbers and nulls. One type scan and one vectorised pass."""
    arr = None
    if (isinstance(values, (list, tuple)) and size in (None, len(values))
            and set(map(type, values)) <= {float, int, type(None)}):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            arr = np.array(values, dtype=float)
    if arr is None or np.isinf(arr).any():
        raise FormatError(f"{key} must be a list of {'' if size is None else f'{size} '}"
                          f"finite numbers or nulls, got {reprlib.repr(values)}")
    return arr


def point(values, key: str, lo=None, hi=None) -> tuple[float, float]:
    """A JSON pair of numbers, each in [lo, hi] where given, as two floats;
    FormatError naming key otherwise."""
    if not isinstance(values, (list, tuple)) or len(values) != 2:
        raise FormatError(f"{key} must be a pair of finite numbers, got {reprlib.repr(values)}")
    return number(values[0], key, lo=lo, hi=hi), number(values[1], key, lo=lo, hi=hi)


def points(rows, key: str, lo=None, hi=None) -> np.ndarray:
    """An (N, 2) float array of a JSON list of pairs of numbers, each in
    [lo, hi] where given; FormatError naming key otherwise, the message of
    point() on the first bad row. One type scan and one vectorised pass."""
    arr = None
    if (type(rows) is list and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {2}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            arr = np.array(rows, dtype=float).reshape(-1, 2)
    if arr is None or not (np.isfinite(arr).all() and (lo is None or (arr >= lo).all())
                           and (hi is None or (arr <= hi).all())):
        arr = np.array([point(row, key, lo=lo, hi=hi) for row in rows]).reshape(-1, 2)
    return arr


def typed(value, kind: type, key: str):
    """value if its type is exactly kind (str, bool, list or dict);
    FormatError naming key otherwise."""
    if type(value) is not kind:
        name = {str: "a string", bool: "true or false", list: "a list", dict: "an object"}[kind]
        raise FormatError(f"{key} must be {name}, got {reprlib.repr(value)}")
    return value


def float_to_json(value: float | None) -> float | None:
    """One float, None for None or a non-finite value."""
    return None if value is None or not math.isfinite(value) else value


def dumps_line(obj) -> str:
    """One JSON Lines record, without the newline."""
    return json.dumps(obj, allow_nan=False)


@contextlib.contextmanager
def atomic_write(path, encoding: str = "utf-8", newline: str | None = None):
    """A text file handle whose contents replace path when the block ends.

    The handle writes a temporary file next to the target; a clean exit
    renames it over the target, any exception removes it, so path holds
    either its old bytes or the complete new ones.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding=encoding, newline=newline) as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)  # as open(path, "w") keeps it
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def dump(obj, path) -> None:
    """Write obj to path in the convention above, whole or not at all."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=1, allow_nan=False)
        fh.write("\n")


def load(path, what: str):
    """The parsed document at path; what names it in the error message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an overlong integer
            raise FormatError(f"bad {what} {path}: {exc}") from exc


def load_source(source, what: str):
    """load(source, what) for a path; an already parsed object as is."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load(source, what)
    return source
