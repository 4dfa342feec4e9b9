"""The on-disk JSON convention shared by every file cstrack reads or writes.

Files are UTF-8 with indent=1 and a trailing newline. Every non-finite
float is written as null and read back as NaN; writers pass their float
arrays through floats_to_json (or one value through float_to_json), and
the encoder runs with allow_nan=False, so a stray NaN raises instead of
writing a token that RFC 8259 does not allow. A file that does not parse
raises FormatError("bad <what> <path>: ..."). A file is written whole or
not at all: dump writes a temporary file next to the target and renames
it over the target, so a failed write leaves the old file as it was.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
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


def floats_from_json(values) -> np.ndarray:
    """The inverse of floats_to_json: a 1-D float array, NaN for null."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat list of numbers, got shape {arr.shape}")
    return arr


def float_to_json(value: float | None) -> float | None:
    """One float, None for None or a non-finite value."""
    return None if value is None or not math.isfinite(value) else value


def dumps_line(obj) -> str:
    """One JSON Lines record, without the newline."""
    return json.dumps(obj, allow_nan=False)


def dump(obj, path) -> None:
    """Write obj to path in the convention above, whole or not at all."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, allow_nan=False)
            fh.write("\n")
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)  # as open(path, "w") keeps it
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load(path, what: str):
    """The parsed document at path; what names it in the error message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad {what} {path}: {exc}") from exc


def load_source(source, what: str):
    """load(source, what) for a path; an already parsed object as is."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load(source, what)
    return source
