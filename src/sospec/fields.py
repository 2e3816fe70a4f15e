"""The one reader and writer of every document.

Every output file (dataset, checkpoint, report, study, summary) is written
by `write`. Datasets, checkpoints and run reports are parsed by `load` and
read every field through `read`, which decides what a valid field is. A
field that is not raises ValueError("<where> <key> is not <kind>"), where
`where` names the file, the document and the key path above `key`; the CLI
turns that into exit code 1. `read` holds a plain kind to the rule in
`check`, which also checks values before they are written to be read
back: a training configuration, and the seed `gen-data` writes into a
dataset's header. The same documents, and config files, decode their
bytes through `text`, which names the file and the line of bytes that are
not UTF-8.
"""

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

REQUIRED = object()
_WHAT = {
    int: "a nonnegative integer below 2^63",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
    dict: "a JSON object",
    list: "a list",
}


@dataclass(frozen=True)
class Array:
    """The kind of a float64 array of `ndim` dimensions whose every cell is
    a finite JSON number."""

    ndim: int


def text(raw, path, lineno=1):
    """`raw`, the bytes of `path` from the start of line `lineno`, decoded
    as UTF-8; bytes that are not raise ValueError naming the file and the
    line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno += raw.count(b"\n", 0, exc.start)
        column = exc.start - raw.rfind(b"\n", 0, exc.start)
        message = f"line {lineno}: byte {column} is not UTF-8 ({exc.reason})"
        raise ValueError(f"{path}: {message}") from exc


def load(raw, path, lineno=None):
    """The JSON document in `raw`, the bytes of `path` from the start of line
    `lineno` if given, decoded by `text`; invalid JSON raises ValueError
    naming the file and the line."""
    doc = text(raw, path, lineno or 1)
    try:
        return json.loads(doc)
    except json.JSONDecodeError as exc:
        at = "" if lineno is None else f"line {lineno}: "
        raise ValueError(f"{path}: {at}invalid JSON ({exc})") from exc


def write(path, pieces):
    """Write the strings `pieces` to `path` as UTF-8 text, creating no
    directory. They go to a temporary file beside the file `path` names
    (through any links), which replaces that file once every piece is
    written, so a failure leaves the old bytes and no temporary file. A
    device or pipe, such as /dev/null, is written in place, and a directory
    raises IsADirectoryError: OSErrors of opening name `path`.
    """
    in_place = os.path.exists(path) and not os.path.isfile(path)  # a directory then fails to open
    target = os.path.realpath(path)
    tmp = path if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:  # name the file the caller asked for
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with fh:
            for piece in pieces:
                fh.write(piece)
        if not in_place:
            os.replace(tmp, target)
    except BaseException:
        if not in_place:
            os.unlink(tmp)
        raise


def read(doc, key, kind, where, default=REQUIRED):
    """doc[key] checked against `kind`: `int` (a nonnegative integer below
    2**63), `float` (a finite int or float), `bool`, `str`, `dict`, `list`,
    a tuple of strings (one of them) or `Array(ndim)` (returned as a new
    float64 array). A bool is no number.

    A missing key returns `default` if there is one. A null value returns
    None where `default` is None, that is where null means absent. A `doc`
    that is not a JSON object, and every other case, raises ValueError.
    """
    if type(doc) is not dict:
        raise ValueError(f"{where} is not a JSON object")
    if key not in doc:
        if default is REQUIRED:
            raise ValueError(f"{where} has no {key!r}")
        return default
    value = doc[key]
    if value is None and default is None:
        return None
    if isinstance(kind, Array):
        cells = np.array(value, dtype=object)
        if cells.ndim == kind.ndim and set(map(type, cells.flat)) <= {int, float}:
            try:
                array = cells.astype(np.float64)
            except OverflowError:  # an int too large for a float
                pass
            else:
                if np.isfinite(array).all():
                    return array
        raise ValueError(f"{where} {key} is not a {kind.ndim}-d array of finite numbers")
    if isinstance(kind, tuple):
        if type(value) is str and value in kind:
            return value
        raise ValueError(f"{where} {key} is not one of {', '.join(map(repr, kind))}")
    return check(value, kind, f"{where} {key}")


def check(value, kind, what):
    """`value` if it is of the plain `kind` `read` takes (`int`, `float`,
    `bool`, `str`, `dict` or `list`), else ValueError("<what> is not
    <kind>"). This is the rule for every value that is written to be read
    back, such as a checkpoint's config."""
    if kind is int:
        ok = type(value) is int and 0 <= value < 2**63
    elif kind is float:  # NaN fails every comparison
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    if not ok:
        raise ValueError(f"{what} is not {_WHAT[kind]}")
    return value
