"""Landmark data model and per-frame eye-aspect-ratio computation.

The eye aspect ratio (EAR) of a 6-point eye contour is the sum of the two
vertical lid distances over twice the horizontal corner distance.  It is
high (~0.3) for an open eye and falls toward 0 as the eye closes or the
gaze drops to a document on the desk.
"""

from __future__ import annotations

import json
import math
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import orjson

from .errors import DegenerateEyeError, MalformedRecordError

# Eye groups in the standard 68-point landmark layout (zero-based),
# ordered outer corner, upper lid x2, inner corner, lower lid x2.
LEFT_EYE_INDICES: tuple[int, ...] = (36, 37, 38, 39, 40, 41)
RIGHT_EYE_INDICES: tuple[int, ...] = (42, 43, 44, 45, 46, 47)

LANDMARK_COUNT = 68
EMBEDDING_DIM = 128


class Point2(NamedTuple):
    x: float
    y: float


class EarSample(NamedTuple):
    """One EAR observation: seconds from conference start, ratio value."""

    timestamp: float
    value: float


@dataclass(frozen=True)
class EyeLandmarks:
    """The six contour points of one eye, corner-lid-lid-corner-lid-lid."""

    points: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if len(self.points) != 6:
            raise MalformedRecordError(
                f"eye requires exactly 6 landmarks, got {len(self.points)}"
            )


@dataclass(frozen=True)
class FaceLandmarkFrame:
    """One video frame's 68 landmark points, with an optional face embedding."""

    conference_id: str
    frame_index: int
    timestamp: float
    points: tuple[Point2, ...]
    embedding: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.points) != LANDMARK_COUNT:
            raise MalformedRecordError(
                f"frame {self.frame_index}: expected {LANDMARK_COUNT} landmarks, "
                f"got {len(self.points)}"
            )
        if self.timestamp < 0:
            raise MalformedRecordError(
                f"frame {self.frame_index}: negative timestamp {self.timestamp}"
            )
        if self.embedding is not None and self.embedding.shape != (EMBEDDING_DIM,):
            raise MalformedRecordError(
                f"frame {self.frame_index}: embedding must have {EMBEDDING_DIM} "
                f"entries, got {self.embedding.shape}"
            )


def extract_eyes(
    frame: FaceLandmarkFrame,
    left_indices: Sequence[int] = LEFT_EYE_INDICES,
    right_indices: Sequence[int] = RIGHT_EYE_INDICES,
) -> tuple[EyeLandmarks, EyeLandmarks]:
    """Pick the two 6-point eye groups out of a 68-point frame."""
    pts = frame.points
    left = EyeLandmarks(tuple(pts[i] for i in left_indices))
    right = EyeLandmarks(tuple(pts[i] for i in right_indices))
    return left, right


def eye_ear(eye: EyeLandmarks) -> float:
    """EAR of one eye: (|l2-l6| + |l3-l5|) / (2 |l1-l4|)."""
    p1, p2, p3, p4, p5, p6 = eye.points
    horizontal = math.hypot(p1.x - p4.x, p1.y - p4.y)
    if horizontal == 0.0:
        raise DegenerateEyeError("zero horizontal eye span (corner landmarks coincide)")
    vertical = math.hypot(p2.x - p6.x, p2.y - p6.y) + math.hypot(p3.x - p5.x, p3.y - p5.y)
    return vertical / (2.0 * horizontal)


def frame_ear(
    frame: FaceLandmarkFrame,
    left_indices: Sequence[int] = LEFT_EYE_INDICES,
    right_indices: Sequence[int] = RIGHT_EYE_INDICES,
) -> EarSample:
    """Average EAR of both eyes at the frame's timestamp.

    Raises DegenerateEyeError if either eye has zero horizontal span; such
    frames are dropped (and tallied) by the series builder rather than
    imputed.
    """
    left, right = extract_eyes(frame, left_indices, right_indices)
    value = (eye_ear(left) + eye_ear(right)) / 2.0
    return EarSample(frame.timestamp, value)


def batch_ear(
    points: np.ndarray,
    left_indices: Sequence[int] = LEFT_EYE_INDICES,
    right_indices: Sequence[int] = RIGHT_EYE_INDICES,
) -> tuple[np.ndarray, np.ndarray]:
    """frame_ear of every frame of an (N, 68, 2) array, and the usable mask.

    A frame is unusable (False in the mask) where frame_ear raises
    DegenerateEyeError; its value is then meaningless.  The other values
    equal frame_ear(...).value exactly: the same operations run in the same
    order, and the distances use math.hypot, because np.hypot (the C
    library's) differs from it in the last bit on some inputs.
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
# [x, y] pairs), optional embedding (128 numbers).  Records are sorted by
# timestamp within a conference.  A leading {"_meta": ...} record written by
# pipeline stages is skipped on read.
# ---------------------------------------------------------------------------


def frame_to_record(frame: FaceLandmarkFrame) -> dict:
    record = {
        "conference_id": frame.conference_id,
        "frame_index": frame.frame_index,
        "timestamp_s": frame.timestamp,
        "points": [[p.x, p.y] for p in frame.points],
    }
    if frame.embedding is not None:
        record["embedding"] = [float(v) for v in frame.embedding]
    return record


def frame_from_record(record: dict, line_no: int | None = None) -> FaceLandmarkFrame:
    where = f"line {line_no}: " if line_no is not None else ""
    try:
        conference_id = record["conference_id"]
        frame_index = int(record["frame_index"])
        timestamp = float(record["timestamp_s"])
        raw_points = record["points"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecordError(f"{where}missing or invalid frame field: {exc}") from exc
    if not isinstance(conference_id, str):
        raise MalformedRecordError(f"{where}frame {frame_index}: conference_id is not a string")
    if not math.isfinite(timestamp):
        raise MalformedRecordError(f"{where}frame {frame_index}: non-finite timestamp")

    points = []
    try:
        for pair in raw_points:
            if len(pair) != 2:
                raise MalformedRecordError(
                    f"{where}frame {frame_index}: point is not an [x, y] pair"
                )
            x, y = float(pair[0]), float(pair[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise MalformedRecordError(f"{where}frame {frame_index}: non-finite landmark")
            points.append(Point2(x, y))
    except (TypeError, ValueError) as exc:
        raise MalformedRecordError(f"{where}frame {frame_index}: invalid landmark: {exc}") from exc

    embedding = None
    if record.get("embedding") is not None:
        try:
            embedding = np.asarray(record["embedding"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise MalformedRecordError(
                f"{where}frame {frame_index}: invalid embedding: {exc}"
            ) from exc
        if not np.all(np.isfinite(embedding)):
            raise MalformedRecordError(f"{where}frame {frame_index}: non-finite embedding")

    try:
        return FaceLandmarkFrame(
            conference_id=conference_id,
            frame_index=frame_index,
            timestamp=timestamp,
            points=tuple(points),
            embedding=embedding,
        )
    except MalformedRecordError as exc:
        raise MalformedRecordError(f"{where}{exc}") from exc


def _numbered_records(
    path: str | Path, loads: Callable[[bytes], object]
) -> Iterator[tuple[int, object]]:
    """(line number, loads(line)) of each frame record line.

    Blank lines and {"_meta": ...} records are skipped; a line that loads
    rejects with ValueError raises MalformedRecordError.
    """
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = loads(line)
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(f"{path}: line {line_no}: not valid UTF-8") from exc
            except ValueError as exc:
                raise MalformedRecordError(f"{path}: line {line_no}: invalid JSON") from exc
            if isinstance(record, dict) and "_meta" in record:
                continue
            yield line_no, record


def _stdlib_loads(line: bytes) -> object:
    """read_landmark_stream's decoding, the reference for the batch reader's."""
    return json.loads(line.decode("utf-8"))


def read_landmark_stream(path: str | Path) -> Iterator[FaceLandmarkFrame]:
    """Stream frames from a JSONL file, enforcing per-conference time order."""
    last_ts: dict[str, float] = {}
    for line_no, record in _numbered_records(path, _stdlib_loads):
        try:
            frame = frame_from_record(record, line_no)
        except MalformedRecordError as exc:
            raise MalformedRecordError(f"{path}: {exc}") from exc
        prev = last_ts.get(frame.conference_id)
        if prev is not None and frame.timestamp < prev:
            raise MalformedRecordError(
                f"{path}: line {line_no}: timestamps decrease within "
                f"conference {frame.conference_id!r}"
            )
        last_ts[frame.conference_id] = frame.timestamp
        yield frame


@dataclass(frozen=True)
class LandmarkBatch:
    """A whole landmark stream as columns; row i is the i-th frame record."""

    timestamps: np.ndarray  # (N,)
    points: np.ndarray  # (N, 68, 2)
    embeddings: np.ndarray  # (N, 128), zero rows where has_embedding is False
    has_embedding: np.ndarray  # (N,) bool

    def __len__(self) -> int:
        return len(self.timestamps)


# Lines decoded per step of read_landmark_batch.  Only one step's decoded
# JSON is alive at a time.  Decoded records are large (about 14 KiB for a
# frame with an embedding), and a run's peak RSS grows with the step: on the
# 45-conference planted study it was 67.7 MB at 32 lines, 74.4 MB at 256
# and 81.7 MB for whole files, against 69.4 MB for the scalar reader.
# Smaller steps cost no measurable time.
_BATCH_LINES = 32


def read_landmark_batch(path: str | Path) -> LandmarkBatch:
    """Read a JSONL landmark stream into arrays, one orjson.loads per line.

    The stream is held to every check read_landmark_stream makes.  They run
    vectorised; if any fails, or orjson rejects a line, the stream is read
    again through read_landmark_stream's stdlib decoding and scalar checks,
    which raise its message for the first bad line.  Where the decoders
    differ (orjson rejects 1E400 and reads integers of 2**64 and up as
    floats), that reread or the vectorised type checks decide.
    """
    parts: list[LandmarkBatch] = []
    last_ts: dict[str, float] = {}
    try:
        with closing(_numbered_records(path, orjson.loads)) as numbered:
            while True:
                step = list(islice(numbered, _BATCH_LINES))
                part = _checked_batch([record for _, record in step], last_ts)
                if part is None:
                    break
                parts.append(part)
                if len(step) < _BATCH_LINES:
                    break
    except MalformedRecordError:  # a line that orjson does not decode
        part = None
    if part is None:
        # The scalar checks raise for the first bad line, which may come
        # before a line that is not JSON.
        return _scalar_batch(path)
    columns = ("timestamps", "points", "embeddings", "has_embedding")
    return LandmarkBatch(
        *(np.concatenate([getattr(part, name) for part in parts]) for name in columns)
    )


def _scalar_batch(path: str | Path) -> LandmarkBatch:
    """The batch read through read_landmark_stream's checks.

    They raise for the first bad line.  If they pass, the vectorised checks
    were only stricter about value types (a frame_index of "3", say), and the
    batch is built from the checked frames.
    """
    frames = read_landmark_stream(path)
    batch = _checked_batch([frame_to_record(frame) for frame in frames], {})
    assert batch is not None, "checked frames pass the vectorised checks"
    return batch


def _checked_batch(records: list, last_ts: dict[str, float]) -> LandmarkBatch | None:
    """The batch of the decoded records, or None if any record fails a check.

    last_ts holds each conference's latest timestamp before these records,
    and is updated with theirs.
    """
    try:
        ids = [r["conference_id"] for r in records]
        indices = [r["frame_index"] for r in records]
        timestamps = np.array([r["timestamp_s"] for r in records])
        raw_points = [r["points"] for r in records]
        pairs = all({2}.issuperset(map(len, p)) for p in raw_points)
        # One flat row of coordinates per frame converts faster than the
        # nested pairs; the pair lengths are checked above.
        points = np.array([list(chain.from_iterable(p)) for p in raw_points])
        raw_embeddings = [r.get("embedding") for r in records]
        has_embedding = np.array([e is not None for e in raw_embeddings], dtype=bool)
        embedded = np.array([e for e in raw_embeddings if e is not None])
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    arrays = ((timestamps, ()), (points, (2 * LANDMARK_COUNT,)), (embedded, (EMBEDDING_DIM,)))
    if not (
        pairs
        and all(len(a) == 0 or (a.dtype.kind in "iuf" and a.shape[1:] == shape)
            for a, shape in arrays)
        and all(type(c) is str for c in ids)
        and all(type(i) is int for i in indices)
        and np.isfinite(points).all()
        and np.isfinite(embedded).all()
        and np.isfinite(timestamps).all()
        and (timestamps >= 0).all()
        and _time_ordered(ids, timestamps.tolist(), last_ts)
    ):
        return None
    n = len(records)
    embeddings = np.zeros((n, EMBEDDING_DIM))
    embeddings[has_embedding] = embedded.reshape(-1, EMBEDDING_DIM)
    return LandmarkBatch(
        timestamps.astype(float),
        points.astype(float).reshape(n, LANDMARK_COUNT, 2),
        embeddings,
        has_embedding,
    )


def _time_ordered(ids: list[str], timestamps: list[float], last_ts: dict[str, float]) -> bool:
    for conference_id, timestamp in zip(ids, timestamps):
        if timestamp < last_ts.get(conference_id, timestamp):
            return False
        last_ts[conference_id] = timestamp
    return True


def write_landmark_stream(
    frames: Iterable[FaceLandmarkFrame],
    fh: IO[str],
    meta: dict | None = None,
) -> int:
    """Write frames as JSONL, optionally preceded by a {"_meta": ...} record.

    Returns the number of frame records written.  Serialization is canonical
    (fixed key order, compact separators) so identical frames always produce
    identical bytes.
    """
    if meta is not None:
        fh.write(json.dumps({"_meta": meta}, separators=(",", ":")) + "\n")
    count = 0
    for frame in frames:
        fh.write(json.dumps(frame_to_record(frame), separators=(",", ":")) + "\n")
        count += 1
    return count
