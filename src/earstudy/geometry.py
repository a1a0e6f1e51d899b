"""Landmark streams as columns, their JSONL reader and writer, and the EAR.

The eye aspect ratio (EAR) of a 6-point eye contour is the sum of the two
vertical lid distances over twice the horizontal corner distance.  It is
high (~0.3) for an open eye and falls toward 0 as the eye closes or the
gaze drops to a document on the desk.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import orjson

from .errors import MalformedRecordError

# Eye groups in the standard 68-point landmark layout (zero-based),
# ordered outer corner, upper lid x2, inner corner, lower lid x2.
LEFT_EYE_INDICES: tuple[int, ...] = (36, 37, 38, 39, 40, 41)
RIGHT_EYE_INDICES: tuple[int, ...] = (42, 43, 44, 45, 46, 47)

LANDMARK_COUNT = 68
EMBEDDING_DIM = 128


def batch_ear(
    points: np.ndarray,
    left_indices: Sequence[int] = LEFT_EYE_INDICES,
    right_indices: Sequence[int] = RIGHT_EYE_INDICES,
) -> tuple[np.ndarray, np.ndarray]:
    """The EAR of every frame of an (N, P, 2) array of points, and the usable mask.

    A frame's EAR is the mean of its two eyes' EAR,
    (|p2-p6| + |p3-p5|) / (2 |p1-p4|).  A frame is unusable (False in the
    mask) where an eye's corners coincide; its value is then meaningless.
    The distances use math.hypot, because np.hypot (the C library's)
    differs from it in the last bit on some inputs.
    """
    eyes = points[:, [list(left_indices), list(right_indices)]]  # (N, 2, 6, 2)
    # Per eye the pairs p1-p4 (corners), p2-p6 and p3-p5 (lids).
    diff = eyes[:, :, [0, 1, 2]] - eyes[:, :, [3, 5, 4]]
    dx, dy = diff[..., 0].ravel().tolist(), diff[..., 1].ravel().tolist()
    span = np.fromiter(map(math.hypot, dx, dy), float, len(dx)).reshape(diff.shape[:-1])
    horizontal = span[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        eye = (span[..., 1] + span[..., 2]) / (2.0 * horizontal)
    return (eye[:, 0] + eye[:, 1]) / 2.0, (horizontal != 0.0).all(axis=1)


# ---------------------------------------------------------------------------
# JSONL landmark streams
#
# One object per frame: conference_id, frame_index, timestamp_s, points (68
# [x, y] pairs), optional embedding (128 numbers).  A file holds one
# conference: every record names it, and timestamps never decrease through
# the file.  A leading {"_meta": ...} record, which synth writes, is skipped
# on read.
# ---------------------------------------------------------------------------


class _Rejected(NamedTuple):
    """A line rejected before the vectorised checks, kept in line order."""

    reason: str


def _numbered_records(path: str | Path) -> Iterator[tuple[int, object, bool]]:
    """(line number, decoded record, plain) of each frame record line.

    Blank lines and {"_meta": ...} records are skipped.  A line that orjson
    rejects is yielded as a _Rejected, so that a bad record before it is
    still found first.

    A record is plain when four byte screens show that its timestamp,
    coordinates and embedding entries are all numbers, which orjson only
    ever decodes as finite floats or as integers in [-2**63, 2**64).  Only the
    points that the caller asks for are then converted, so no other check
    would see a value of the wrong kind among the rest:
    - 2 * len(record) + 2 quote bytes: its only strings are its keys and
      its conference_id (numpy also reads a numeric string as its number);
    - LANDMARK_COUNT + 1 "[" bytes, one more with a list embedding: no
      array stands for a number, as in a pair [[1, 2], 3];
    - no "{" after the first byte: no object stands for a number;
    - no word null, true or false (numpy reads null as NaN and booleans as
      1.0 and 0.0, but only where it converts).  The keys and numbers of a
      record hold neither a "u" nor an "l", so two single-byte searches
      clear most lines at a fifth of the cost of searching for the words,
      which are only searched for when a conference_id or an escape holds
      one of the letters.
    A conference_id or escape holding one of these bytes or words also
    makes its line not plain, which costs only time: the values of a record
    that is not plain are type-checked one by one.
    """
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = orjson.loads(line)
            except orjson.JSONDecodeError:
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    record = _Rejected("not valid UTF-8")
                else:
                    record = _Rejected("invalid JSON")
            if isinstance(record, dict) and "_meta" in record:
                continue
            words = b"u" in line or b"l" in line
            plain = (
                type(record) is dict
                and line.count(b'"') == 2 * len(record) + 2
                and line.count(b"[")
                == LANDMARK_COUNT + 1 + (type(record.get("embedding")) is list)
                and line.find(b"{", 1) < 0
                and not (words and (b"null" in line or b"true" in line
                                    or b"false" in line))
            )
            yield line_no, record, plain


@dataclass(frozen=True)
class LandmarkBatch:
    """A whole landmark stream as columns; row i is the i-th frame record."""

    timestamps: np.ndarray  # (N,)
    points: np.ndarray  # (N, 68, 2), or (N, len(point_indices), 2)
    embeddings: np.ndarray  # (N, 128), zero rows where has_embedding is False
    has_embedding: np.ndarray  # (N,) bool

    def __len__(self) -> int:
        return len(self.timestamps)


class _Columns(NamedTuple):
    """One read step's checked columns, each flat."""

    timestamps: np.ndarray  # (n,)
    points: np.ndarray  # (n * P * 2,)
    embedded: np.ndarray  # (m * 128,): only the rows that have an embedding
    has_embedding: np.ndarray  # (n,) bool


# Lines decoded per step of read_landmark_batch.  Only one step's decoded
# JSON is alive at a time.  Decoded records are large (about 14 KiB for a
# frame with an embedding), and a run's peak RSS grows with the step: on the
# 45-conference planted study it was 39.8 MB at 32 lines, 46.8 MB at 256
# and 52.1 MB for whole files, against 39.7 MB at one line per step.
# Smaller steps cost no measurable time.
_BATCH_LINES = 32


def read_landmark_batch(
    path: str | Path, conference_id: str, point_indices: Sequence[int] | None = None
) -> LandmarkBatch:
    """Read a JSONL landmark stream into arrays, one orjson.loads per line.

    Every record must name conference_id.  points holds the listed points
    of each frame, in the given order, which is points[:, point_indices] of
    the full (N, 68, 2) read; the default lists all 68.  Every coordinate
    is checked either way.  The records are checked vectorised, one step of
    lines at a time: each column is converted in one pass with np.fromiter
    after its lengths are checked, and its values must be finite.  Lines
    screened as not plain (see _numbered_records) also have each value's
    type checked.  When a step fails, its records are checked one by one,
    and the first bad one raises MalformedRecordError
    "{path}: line {n}: {reason}".
    """
    indices = range(LANDMARK_COUNT) if point_indices is None else tuple(point_indices)
    parts: list[_Columns] = []
    last = 0.0  # the latest timestamp read; none is below 0
    with closing(_numbered_records(path)) as numbered:
        while True:
            step = list(islice(numbered, _BATCH_LINES))
            parts.append(_checked_step(path, step, conference_id, last, indices))
            if len(step) < _BATCH_LINES:
                break
            last = parts[-1].timestamps[-1]
    timestamps, points, embedded, has_embedding = (
        np.concatenate(column) for column in zip(*parts)
    )
    n = len(timestamps)
    embeddings = np.zeros((n, EMBEDDING_DIM))
    embeddings[has_embedding] = embedded.reshape(-1, EMBEDDING_DIM)
    points = points.reshape(n, len(indices), 2)
    return LandmarkBatch(timestamps, points, embeddings, has_embedding)


def _checked_step(
    path: str | Path,
    step: list[tuple[int, object, bool]],
    conference_id: str,
    last: float,
    point_indices: Sequence[int],
) -> _Columns:
    """The columns of one step's (line number, record, plain) triples.

    last is the latest timestamp before the step.  A step the vectorised
    checks reject is checked again one record at a time, which names the
    first bad line.
    """
    plain = all(p for _, _, p in step)
    records = [record for _, record, _ in step]
    columns = _checked_batch(records, conference_id, last, plain, point_indices)
    if isinstance(columns, _Columns):
        return columns
    for line_no, record, plain in step:
        columns = _checked_batch([record], conference_id, last, plain, point_indices)
        if isinstance(columns, str):
            raise MalformedRecordError(f"{path}: line {line_no}: {columns}")
        last = columns.timestamps[0]
    raise AssertionError("records that pass one at a time pass together")


def _checked_batch(
    records: list, conference_id: str, last: float, plain: bool, point_indices: Sequence[int]
) -> _Columns | str:
    """The columns of the decoded records, or the reason they break the format.

    Given one record, the reason is that record's own.  Each record must
    name conference_id, and no timestamp may be below the one before it,
    nor the first below last.  Unless plain, every timestamp, coordinate and
    embedding entry must be an int or a float.  Of each record's points,
    only those at point_indices are converted.
    """
    for record in records:
        if type(record) is not dict:
            return record.reason if type(record) is _Rejected else "not a JSON object"
    try:
        ids = [r["conference_id"] for r in records]
        indices = [r["frame_index"] for r in records]
        raw_times = [r["timestamp_s"] for r in records]
        raw_points = [r["points"] for r in records]
    except KeyError as exc:
        return f"missing field {exc}"
    raw_embeddings = [r.get("embedding") for r in records]
    if ids.count(conference_id) != len(ids):
        return f"conference_id is not {conference_id!r}"
    # orjson reads an integer below -2**63 or from 2**64 up as a float.
    if not all(type(i) is int for i in indices):
        return "frame_index is not an integer"
    n = len(records)
    timestamps = _finite_values(raw_times, n) if plain or _numbers(raw_times) else None
    if timestamps is None or not (timestamps >= 0).all():
        return "timestamp_s is not a finite number >= 0"
    try:
        pairs = all(len(p) == LANDMARK_COUNT and {2}.issuperset(map(len, p))
                    for p in raw_points)
    except TypeError:
        pairs = False
    if pairs and (plain or _numbers(chain.from_iterable(chain.from_iterable(raw_points)))):
        # itemgetter of one index returns that item, not a 1-tuple.
        pick = (itemgetter(*point_indices) if len(point_indices) > 1
                else lambda p: [p[i] for i in point_indices])
        picked = chain.from_iterable(chain.from_iterable(map(pick, raw_points)))
        points = _finite_values(picked, n * 2 * len(point_indices))
    else:
        points = None
    if points is None:
        return f"expected {LANDMARK_COUNT} [x, y] pairs of finite numbers in points"
    has_embedding = np.array([e is not None for e in raw_embeddings], dtype=bool)
    embedded = [e for e in raw_embeddings if e is not None]
    try:
        sized = all(len(e) == EMBEDDING_DIM for e in embedded)
    except TypeError:
        sized = False
    if sized and (plain or _numbers(chain.from_iterable(embedded))):
        flat = _finite_values(chain.from_iterable(embedded), len(embedded) * EMBEDDING_DIM)
    else:
        flat = None
    if flat is None:
        return f"expected {EMBEDDING_DIM} finite numbers in embedding"
    if (np.diff(timestamps, prepend=last) < 0).any():
        return "timestamp_s is below the one before it"
    return _Columns(timestamps, points, flat, has_embedding)


def _numbers(values: Iterable) -> bool:
    """Whether each value is an int or a float.

    A step that is not plain has every timestamp, coordinate and embedding
    entry checked here: np.fromiter reads a numeric string as its number
    and a boolean as 1.0 or 0.0, and the points that are not converted meet
    no other check.
    """
    return all(type(v) is int or type(v) is float for v in values)


def _finite_values(values: Iterable, count: int) -> np.ndarray | None:
    """The count values as a float array, or None unless each is a finite number."""
    try:
        array = np.fromiter(values, np.float64, count)
    except (TypeError, ValueError):
        return None
    return array if np.isfinite(array).all() else None


def write_landmark_stream(
    conference_id: str,
    frame_indices: Sequence[int] | np.ndarray,
    batch: LandmarkBatch,
    meta: dict | None = None,
) -> str:
    """A batch as JSONL text, optionally preceded by a {"_meta": ...} record.

    The inverse of read_landmark_batch: row i becomes the record of frame
    frame_indices[i], without "embedding" where has_embedding is False.
    orjson writes each record with a fixed key order, no spaces, UTF-8 text
    and every number as the shortest text that reads back to the same
    double, so identical batches always produce identical text.
    """
    lines = [] if meta is None else [orjson.dumps({"_meta": meta})]
    rows = zip(
        np.asarray(frame_indices).tolist(),  # numpy integers do not encode
        batch.timestamps.tolist(),
        np.ascontiguousarray(batch.points),  # orjson encodes C-contiguous arrays only
        np.ascontiguousarray(batch.embeddings),
        batch.has_embedding.tolist(),
        strict=True,
    )
    for frame_index, timestamp, points, embedding, has_embedding in rows:
        record = {
            "conference_id": conference_id,
            "frame_index": frame_index,
            "timestamp_s": timestamp,
            "points": points,
        }
        if has_embedding:
            record["embedding"] = embedding
        lines.append(orjson.dumps(record, option=orjson.OPT_SERIALIZE_NUMPY))
    return b"\n".join([*lines, b""]).decode()
