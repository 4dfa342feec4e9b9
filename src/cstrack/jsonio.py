"""The on-disk JSON convention shared by every file cstrack reads or writes.

Files are UTF-8 with indent=1 and a trailing newline. Every non-finite
float is written as null and read back as NaN; writers pass their float
arrays through floats_to_json (or one value through float_to_json), and
the encoder runs with allow_nan=False, so a stray NaN raises instead of
writing a token that RFC 8259 does not allow. A file that does not parse
raises FormatError("bad <what> <path>: ..."). Every file cstrack writes,
JSON or not, goes through atomic_write: it is written to a temporary file
next to the target and renamed over the target, so a failed write leaves
the old file as it was.

Readers hold what they parse to one number rule: a number is a JSON number
(not true or false) and finite, an integer a JSON integer. number(),
floats(), point() and typed() check a value, a flat list of numbers and
nulls, a pair and a string, bool or container, naming the key on error.

dump writes the bytes of json.dump(obj, fh, indent=1, allow_nan=False)
and a newline and, like it, raises ValueError on a NaN or an infinity and
TypeError on a value or key JSON has no type for. It lays out dicts and
lists as that indented encoder does, but encodes every scalar, key and
flat list of numbers (int, float and their subclasses, bool and
numpy.float64 among them, and None) with the C encoder. A flat list goes
in runs of up to _RUN numbers, one call each, and is re-indented: the
encoder separates items with ", ", which no number, null, true or false
contains. The text reaches the file one run or scalar at a time, never as
one string.
"""

from __future__ import annotations

import contextlib
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


def point(values, key: str) -> tuple[float, float]:
    """A JSON pair of numbers as two floats; FormatError naming key otherwise."""
    if not isinstance(values, (list, tuple)) or len(values) != 2:
        raise FormatError(f"{key} must be a pair of finite numbers, got {reprlib.repr(values)}")
    return number(values[0], key), number(values[1], key)


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


_encode = json.JSONEncoder(allow_nan=False).encode
# Numbers per C encoder call: long runs amortise the call, short ones keep
# the strings it builds small.
_RUN = 1024


def _is_number_list(items) -> bool:
    return all(t is type(None) or issubclass(t, (int, float)) for t in set(map(type, items)))


def _key(key) -> str:
    """A dict key as json's encoder turns it into a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _chunks(obj, level: int):
    """The text of obj at indent=1, nested level deep, piece by piece."""
    if isinstance(obj, (list, tuple)) and obj:
        pad = "\n" + " " * (level + 1)
        close = "\n" + " " * level + "]"
        if _is_number_list(obj):
            for lo in range(0, len(obj), _RUN):
                yield ("," if lo else "[") + pad + _encode(obj[lo:lo + _RUN])[1:-1].replace(
                    ", ", "," + pad)
            yield close
            return
        for i, item in enumerate(obj):
            yield ("," if i else "[") + pad
            yield from _chunks(item, level + 1)
        yield close
    elif isinstance(obj, dict) and obj:
        pad = "\n" + " " * (level + 1)
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "{") + pad + _encode(_key(key)) + ": "
            yield from _chunks(value, level + 1)
        yield "\n" + " " * level + "}"
    else:  # a scalar or an empty container
        yield _encode(obj)


def dump(obj, path) -> None:
    """Write obj to path in the convention above, whole or not at all."""
    with atomic_write(path) as fh:
        for chunk in _chunks(obj, 0):
            fh.write(chunk)
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
