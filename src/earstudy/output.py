"""Provenance-stamped output files and the package's one CSV format.

Every file the pipeline writes embeds a hash of the semantic run
configuration plus the tool version, and a write refuses to replace a file
carrying a different hash so runs with different configs never silently
overwrite each other.  The output directory itself is excluded from the
hash so identical runs into different directories stay byte-identical.

Every CSV the package reads or writes has optional ``#`` metadata comment
lines, a header row, then one row per record, its cells separated by commas
and never quoted.  write_csv is the package's one CSV writer: every CSV it
writes, in the pipeline and in synth, starts with the stamp line.
read_columns is its one CSV reader, for price and segments files.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from . import __version__
from .errors import ConfigError, MalformedRecordError

_T = TypeVar("_T")

_HASH_RE = re.compile(r'config_hash["=:\s]+([0-9a-f]{12})')

# A conference id names files (landmarks/<id>.jsonl, ear/<id>.csv, ...), so
# it must stay one name inside its directory.
FILE_ID_RULE = "a nonempty string other than '.' and '..', without '/', '\\' or NUL"


def is_file_id(value: object) -> bool:
    """Whether value keeps to FILE_ID_RULE."""
    return (isinstance(value, str) and value not in ("", ".", "..")
            and not any(c in value for c in "/\\\0"))


def config_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def meta_line(digest: str) -> str:
    return f"config_hash={digest} tool_version={__version__}"


def meta_dict(digest: str) -> dict:
    return {"config_hash": digest, "tool_version": __version__}


def embedded_digest(path: Path) -> str | None:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            head = fh.read(4096)
    except OSError:
        return None
    match = _HASH_RE.search(head)
    return match.group(1) if match else None


def check_overwrite(path: Path, digest: str) -> None:
    if not path.exists():
        return
    existing = embedded_digest(path)
    if existing is not None and existing != digest:
        raise ConfigError(
            f"refusing to overwrite {path}: it was written with config_hash="
            f"{existing}, current run has config_hash={digest}; use a fresh "
            "output directory"
        )


def write_text(path: Path, content: str, digest: str) -> None:
    """Write content to path, creating its directories.

    A file system error (an output directory that is a file, say) raises
    ConfigError naming path.
    """
    check_overwrite(path, digest)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_json(path: Path, payload: dict, digest: str) -> None:
    """Write JSON with the meta block as the first key."""
    ordered = {"meta": meta_dict(digest)}
    ordered.update(payload)
    write_text(path, json.dumps(ordered, indent=2, default=str) + "\n", digest)


def read_text(path: Path) -> str:
    """The UTF-8 text of an input file; other bytes raise MalformedRecordError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(f"{path}: not valid UTF-8") from exc


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


# Cell types whose "%s" text is already what _cell gives (str of a float is
# its repr), so their rows can be formatted in one C-level step.
_PLAIN_CELLS = frozenset({str, int, float})


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[tuple], digest: str) -> int:
    """Write path as a stamped CSV, through write_text: the
    ``# config_hash=… tool_version=…`` line, the header, then the rows.

    Each row is a tuple with one cell per column.  Floats are written as
    ``repr(float(v))`` (the shortest text that reads back to the same
    value), None as an empty cell, anything else with ``str``.  Returns the
    number of rows.
    """
    rows = list(rows)
    if not _PLAIN_CELLS.issuperset(map(type, chain.from_iterable(rows))):
        rows = [tuple(map(_cell, row)) for row in rows]
    line = ",".join(["%s"] * len(columns)) + "\n"
    head = f"# {meta_line(digest)}\n{','.join(columns)}\n"
    write_text(path, head + "".join(map(line.__mod__, rows)), digest)
    return len(rows)


def read_columns(
    path: str | Path,
    columns: Sequence[str],
    check_row: Callable[[list[str]], object],
    what: str,
) -> list[list[str]]:
    """The first ``len(columns)`` cells of each data row of path, as one
    list per column, from one read of the file.

    The header, the first line other than a ``#`` line, must begin with
    ``columns``.  LF, CRLF and a lone CR each end a line, ``#`` lines and
    blank rows are skipped, and a row is its line split at every comma:
    cells are never quoted.  A file in write_csv's exact layout is split in
    one pass, any other line by line; both give the same cells.

    check_row must read each of a row's first ``len(columns)`` cells.  The
    rows of a file with a row of another width, and the complete rows ahead
    of bytes that are not UTF-8, are checked with check_rows first, so that
    the first bad row is named with all its cells; those bytes then raise
    MalformedRecordError.  A caller that fails to convert the cells names
    the first bad row with check_rows over their rows.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        # Only the lines that end ahead of the bad byte are complete.
        lines = _lines(head[:max(head.rfind("\n"), head.rfind("\r")) + 1])[:-1]
        if lines:
            check_rows(path, _data_rows(path, lines, columns), check_row, what)
        raise MalformedRecordError(f"{path}: not valid UTF-8") from exc
    width = len(columns)
    header = ",".join(columns) + "\n"
    body = text[text.find("\n") + 1:] if text.startswith("#") else text
    if (body.startswith(header) and body.endswith("\n")
            and "\r" not in body and "#" not in body):
        body = body[len(header):-1]
        cells = body.replace("\n", ",").split(",")
        split = [cells[k::width] for k in range(width)]
        # Joined back a row at a time, the cells must give the body, so
        # every row holds exactly width cells and none is blank.
        if body and "\n".join(map(",".join, zip(*split))) == body:
            return split
    rows = _data_rows(path, _lines(text), columns)
    if any(len(row) != width for row in rows):
        check_rows(path, rows, check_row, what)
    return [[row[k] for row in rows] for k in range(width)]


def check_rows(
    path: str | Path, rows: Iterable[list[str]], check_row: Callable[[list[str]], _T], what: str
) -> list[_T]:
    """``check_row``'s value for each row; MalformedRecordError naming the
    first row that it rejects with IndexError or ValueError."""
    values = []
    for row in rows:
        try:
            values.append(check_row(row))
        except (IndexError, ValueError) as exc:
            raise MalformedRecordError(f"{path}: bad {what} row {row!r}") from exc
    return values


def _lines(text: str) -> list[str]:
    """text's lines, without their line ends and without ``#`` lines."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "\n#" in text:
        return [line for line in lines if not line.startswith("#")]
    # No line but the first (write_csv's meta line) is a comment.
    return lines[1:] if text.startswith("#") else lines


def _data_rows(path: str | Path, lines: list[str], columns: Sequence[str]) -> list[list[str]]:
    """The rows after the header line, which must begin with columns."""
    header = lines[0].split(",") if lines else None
    if header is None or [h.strip() for h in header[:len(columns)]] != list(columns):
        raise MalformedRecordError(f"{path}: expected '{','.join(columns)}' header")
    return list(map(str.split, filter(None, lines[1:]), repeat(",")))
