"""One checked reader for the package's JSON inputs.

read(target, value, source, error) builds a dataclass or NamedTuple (or
calls a function) from a decoded JSON object, converting each key by the
type hint of the field or parameter it names:

- str, and FileId (a str that keeps to output.FILE_ID_RULE);
- int: a JSON integer or a whole float such as 2.0, never true or false;
- float: a finite JSON number, never true or false;
- Path: text without NUL, resolved against the directory of the file read;
- date, time and datetime: ISO text; a datetime needs a UTC offset;
- np.ndarray: a list of numbers, as one float64 column;
- object: any JSON value, unchecked;
- tuple[X, ...] from a list, X | None from X or null, and a nested record.

A missing key takes the field's default, and a key that names no field is
an error.  So is an error the target's constructor raises.  Each error is
one line, "<source>: <entry>.<key>: <reason>".  to_json is the inverse.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import stat
import types
from datetime import date, datetime, time
from functools import lru_cache
from itertools import repeat
from operator import methodcaller
from pathlib import Path
from reprlib import repr as _show
from typing import NewType, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import EarStudyError, MalformedRecordError
from .market import parse_instant
from .output import FILE_ID_RULE, is_file_id

FileId = NewType("FileId", str)

_NUMBER_TYPES = {int, float}


class _Invalid(Exception):
    """A value the reader rejects; the message starts with its entry."""


def _fail(where: str, reason: str):
    raise _Invalid(f"{where}: {reason}" if where else reason)


def read_json(path: str | Path, what: str, error: type[Exception]) -> object:
    """The decoded JSON value of a UTF-8 file; error names it when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path}: invalid JSON: {exc}") from exc


def read(target, value: object, source: str, error: type[Exception],
         base: Path | None = None, where: str = ""):
    """target built from value by its type hints; error(source: ...) on a bad value.

    base is the directory that relative paths are resolved against, and
    where names value within its file.
    """
    try:
        return _record(target)[0](value, where, None if base is None else _Base(base))
    except _Invalid as exc:
        raise error(f"{source}: {exc}") from None


def to_json(value: object) -> object:
    """The JSON value that read gives value back from, with None fields left out."""
    return _kind(type(value))[1](value)


def _text(value, where, base, kind="text"):
    if type(value) is not str:
        _fail(where, f"expected {kind}, got {_show(value)}")
    return value


def _file_id(value, where, base):
    if not is_file_id(value):
        _fail(where, f"must be {FILE_ID_RULE}, got {_show(value)}")
    return value


def _integer(value, where, base):
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        _fail(where, f"expected an integer, got {_show(value)}")
    return value


def _number(value, where, base):
    if type(value) in _NUMBER_TYPES:
        try:
            value = float(value)
        except OverflowError:
            _fail(where, "the number lies beyond the double range")
        if math.isfinite(value):
            return value
    _fail(where, f"expected a finite number, got {_show(value)}")


def _column(value, where, base):
    if type(value) is not list or not set(map(type, value)) <= _NUMBER_TYPES:
        _fail(where, f"expected a list of numbers, got {_show(value)}")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        _fail(where, "a number lies beyond the double range")


class _Base:
    """The directory that one read call resolves relative paths against.

    resolve(text) equals (directory / text).resolve(), but each distinct
    parent directory is resolved once, and only the leaf is looked up
    (lstat) for each path.  A leaf that is a symbolic link, "." or ".."
    takes the full resolve.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = os.fspath(directory)
        self.parents: dict[str, str] = {}

    def resolve(self, text: str) -> Path:
        parent, name = os.path.split(os.path.join(self.directory, text))
        if name in ("", ".", ".."):
            return Path(self.directory, text).resolve()
        resolved = self.parents.get(parent)
        if resolved is None:
            resolved = self.parents[parent] = str(Path(parent).resolve())
        leaf = os.path.join(resolved, name)
        try:
            is_link = stat.S_ISLNK(os.lstat(leaf).st_mode)
        except OSError:  # a missing leaf, which resolve() keeps as it is
            is_link = False
        return Path(self.directory, text).resolve() if is_link else Path(leaf)


def _path(value, where, base):
    if "\0" in _text(value, where, base, "a path"):  # no file system takes one
        _fail(where, f"expected a path, got {_show(value)}")
    return base.resolve(value)


def _parsed(parse, kind):
    def read_parsed(value, where, base):
        try:
            return parse(_text(value, where, base, kind))
        except (ValueError, MalformedRecordError):
            _fail(where, f"expected {kind}, got {_show(value)}")
    return read_parsed


def _same(value):
    return value


_iso_text = methodcaller("isoformat")

# The reader and the writer of each scalar hint.
_SCALARS = {
    str: (_text, _same), FileId: (_file_id, _same), int: (_integer, _same),
    float: (_number, _same), object: (lambda value, where, base: value, _same),
    np.ndarray: (_column, np.ndarray.tolist), Path: (_path, str),
    date: (_parsed(date.fromisoformat, "an ISO date"), _iso_text),
    time: (_parsed(time.fromisoformat, "an ISO time of day"), _iso_text),
    datetime: (_parsed(parse_instant, "an ISO instant with a UTC offset"), _iso_text),
}


@lru_cache(maxsize=None)
def _kind(hint):
    """The reader and the writer of one type hint, built once per hint."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:  # tuple[X, ...]
        read_item, write_item = _kind(args[0])

        def read_tuple(value, where, base):
            if type(value) is not list:
                _fail(where, f"expected a list, got {_show(value)}")
            return tuple(read_item(v, f"{where}[{i}]", base) for i, v in enumerate(value))
        return read_tuple, lambda value: [write_item(v) for v in value]
    if origin in (Union, types.UnionType):  # X | None
        read_inner, write_inner = _kind(args[0])
        return (lambda value, where, base:
                None if value is None else read_inner(value, where, base)), write_inner
    return _record(hint)


@lru_cache(maxsize=None)
def _record(target):
    """The reader of a JSON object into target's keyword parameters, and its writer."""
    hints = get_type_hints(target)
    params = inspect.signature(target).parameters
    kinds = {name: _kind(hints[name]) for name in params}
    required = [name for name, p in params.items() if p.default is p.empty]

    def read_record(value, where, base):
        if type(value) is not dict:
            _fail(where, f"expected an object, got {_show(value)}")
        for name in required:
            if name not in value:
                _fail(f"{where}.{name}" if where else name, "missing")
        fields = {}
        for name, item in value.items():
            at = f"{where}.{name}" if where else name
            if name not in kinds:
                _fail(at, f"unknown key; the keys are {', '.join(kinds)}")
            fields[name] = kinds[name][0](item, at, base)
        try:
            return target(**fields)
        except EarStudyError as exc:
            _fail(where, str(exc))

    def write_record(value):
        # By position from a tuple, so that a plain tuple writes as the
        # NamedTuple it stands for.
        values = value if isinstance(value, tuple) else map(getattr, repeat(value), kinds)
        return {name: kind[1](v) for (name, kind), v in zip(kinds.items(), values)
                if v is not None}
    return read_record, write_record
