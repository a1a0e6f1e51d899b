import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earstudy import (
    DegenerateEyeError,
    EyeLandmarks,
    FaceLandmarkFrame,
    MalformedRecordError,
    Point2,
    extract_eyes,
    eye_ear,
    frame_ear,
)
from earstudy import geometry
from earstudy.geometry import (
    LEFT_EYE_INDICES,
    RIGHT_EYE_INDICES,
    batch_ear,
    frame_from_record,
    read_landmark_batch,
    read_landmark_stream,
    write_landmark_stream,
)

from ear_cases import HAND_CASES


def make_frame(points, frame_index=0, conference_id="c", timestamp=0.0, embedding=None):
    return FaceLandmarkFrame(
        conference_id=conference_id,
        frame_index=frame_index,
        timestamp=timestamp,
        points=tuple(points),
        embedding=embedding,
    )


def frame_with_eyes(left_eye, right_eye):
    pts = [Point2(float(i), float(-i)) for i in range(68)]
    for idx, p in zip(LEFT_EYE_INDICES, left_eye.points):
        pts[idx] = p
    for idx, p in zip(RIGHT_EYE_INDICES, right_eye.points):
        pts[idx] = p
    return make_frame(pts)


@pytest.mark.parametrize("eye,expected", HAND_CASES)
def test_eye_ear_hand_cases(eye, expected):
    assert eye_ear(eye) == pytest.approx(expected, abs=1e-12)


def test_eye_ear_worked_example_is_two_thirds():
    eye, expected = HAND_CASES[0]
    assert expected == 2.0 / 3.0
    assert eye_ear(eye) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_eye_ear_closed_eye_is_zero():
    eye, expected = HAND_CASES[1]
    assert expected == 0.0
    assert eye_ear(eye) == 0.0


def test_eye_ear_degenerate_horizontal_raises():
    pts = (
        Point2(1.0, 1.0),
        Point2(2.0, 3.0),
        Point2(3.0, 3.0),
        Point2(1.0, 1.0),  # l4 == l1
        Point2(3.0, -1.0),
        Point2(2.0, -1.0),
    )
    with pytest.raises(DegenerateEyeError):
        eye_ear(EyeLandmarks(pts))


def test_eye_landmarks_require_six_points():
    with pytest.raises(MalformedRecordError):
        EyeLandmarks((Point2(0, 0),) * 5)


def test_extract_eyes_index_selection():
    pts = [Point2(float(i), float(i * 2)) for i in range(68)]
    left, right = extract_eyes(make_frame(pts))
    assert left.points == tuple(pts[i] for i in range(36, 42))
    assert right.points == tuple(pts[i] for i in range(42, 48))


def test_extract_eyes_round_trip():
    pts = [Point2(float(i), 1.0) for i in range(68)]
    frame = make_frame(pts)
    left, right = extract_eyes(frame)
    rebuilt = list(frame.points)
    for idx, p in zip(LEFT_EYE_INDICES, left.points):
        rebuilt[idx] = p
    for idx, p in zip(RIGHT_EYE_INDICES, right.points):
        rebuilt[idx] = p
    assert tuple(rebuilt) == frame.points


def test_malformed_frame_names_frame_index():
    with pytest.raises(MalformedRecordError, match="7"):
        make_frame([Point2(0.0, 0.0)] * 67, frame_index=7)


def test_frame_ear_is_mean_of_eyes():
    left = HAND_CASES[2][0]  # EAR 7/10
    right = HAND_CASES[3][0]  # EAR 1/2
    sample = frame_ear(frame_with_eyes(left, right))
    assert sample.value == pytest.approx((0.7 + 0.5) / 2.0, abs=1e-12)


def test_frame_ear_symmetric_face():
    eye = HAND_CASES[2][0]
    sample = frame_ear(frame_with_eyes(eye, eye))
    assert sample.value == pytest.approx(eye_ear(eye), abs=1e-15)


def test_frame_ear_exchange_symmetry():
    a, b = HAND_CASES[4][0], HAND_CASES[5][0]
    assert frame_ear(frame_with_eyes(a, b)).value == pytest.approx(
        frame_ear(frame_with_eyes(b, a)).value, abs=1e-15
    )


def test_frame_ear_worked_example_composition():
    eye = HAND_CASES[0][0]
    sample = frame_ear(frame_with_eyes(eye, eye))
    assert sample.value == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_frame_ear_degenerate_eye_raises():
    bad = EyeLandmarks(
        (
            Point2(0.0, 0.0),
            Point2(1.0, 1.0),
            Point2(2.0, 1.0),
            Point2(0.0, 0.0),
            Point2(2.0, -1.0),
            Point2(1.0, -1.0),
        )
    )
    good = HAND_CASES[2][0]
    with pytest.raises(DegenerateEyeError):
        frame_ear(frame_with_eyes(bad, good))


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def eyes(draw):
    pts = [Point2(draw(coords), draw(coords)) for _ in range(6)]
    span = math.hypot(pts[0].x - pts[3].x, pts[0].y - pts[3].y)
    if span < 1.0:
        pts[3] = Point2(pts[0].x + 5.0, pts[0].y)
    return EyeLandmarks(tuple(pts))


@given(
    eyes(),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=100, deadline=None)
def test_ear_similarity_invariance(eye, angle, scale, tx, ty):
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    moved = EyeLandmarks(
        tuple(
            Point2(
                scale * (cos_a * p.x - sin_a * p.y) + tx,
                scale * (sin_a * p.x + cos_a * p.y) + ty,
            )
            for p in eye.points
        )
    )
    assert eye_ear(moved) == pytest.approx(eye_ear(eye), abs=1e-9)


@given(eyes())
@settings(max_examples=100, deadline=None)
def test_ear_nonnegative(eye):
    assert eye_ear(eye) >= 0.0


def test_ear_zero_iff_lids_coincide():
    closed = HAND_CASES[1][0]
    assert eye_ear(closed) == 0.0
    barely = eye_from = EyeLandmarks(
        (
            Point2(0.0, 0.0),
            Point2(1.0, 1e-9),
            Point2(2.0, 3.0),
            Point2(4.0, 0.0),
            Point2(2.0, 3.0),
            Point2(1.0, 0.0),
        )
    )
    assert eye_ear(barely) > 0.0


# --- JSONL stream ---------------------------------------------------------


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def frame_record(frame_index, timestamp, conference_id="c", n_points=68, embedding=None):
    record = {
        "conference_id": conference_id,
        "frame_index": frame_index,
        "timestamp_s": timestamp,
        "points": [[float(i), float(i + 1)] for i in range(n_points)],
    }
    if embedding is not None:
        record["embedding"] = embedding
    return record


def test_stream_round_trip(tmp_path):
    frames = [
        make_frame(
            [Point2(float(i), 0.25 * i) for i in range(68)],
            frame_index=k,
            timestamp=0.5 * (k + 1),
            embedding=np.linspace(0, 1, 128),
        )
        for k in range(3)
    ]
    path = tmp_path / "stream.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_landmark_stream(frames, fh, meta={"config_hash": "abc"})
    loaded = list(read_landmark_stream(path))
    assert len(loaded) == 3
    for orig, got in zip(frames, loaded):
        assert got.points == orig.points
        assert got.timestamp == orig.timestamp
        assert np.array_equal(got.embedding, orig.embedding)


def assert_readers_reject(path):
    """Both readers refuse the stream, with the same message."""
    messages = []
    for read in (lambda p: list(read_landmark_stream(p)), read_landmark_batch):
        with pytest.raises(MalformedRecordError) as info:
            read(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_stream_rejects_wrong_point_count(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [frame_record(0, 0.0, n_points=67)])
    assert_readers_reject(path)


def test_stream_rejects_nonfinite(tmp_path):
    record = frame_record(0, 0.0)
    record["points"][10] = [float("nan"), 0.0]
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [record])
    assert_readers_reject(path)


def test_stream_rejects_decreasing_timestamps(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [frame_record(0, 2.0), frame_record(1, 1.0)])
    assert_readers_reject(path)


def test_stream_rejects_bad_embedding_length(tmp_path):
    with pytest.raises(MalformedRecordError):
        frame_from_record(frame_record(0, 0.0, embedding=[0.0] * 64))
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [frame_record(0, 0.0, embedding=[0.0] * 64)])
    assert_readers_reject(path)


def test_stream_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    assert_readers_reject(path)


GOOD = json.dumps(frame_record(0, 1.0, embedding=[0.5] * 128))


@pytest.mark.parametrize(
    "bad_line",
    [
        "5",
        '"x_metay"',
        json.dumps({**frame_record(1, 2.0), "points": [None] * 68}),
        json.dumps({**frame_record(1, 2.0), "points": 5}),
        json.dumps({**frame_record(1, 2.0), "points": [[1.0, None]] * 68}),
        json.dumps({**frame_record(1, 2.0), "conference_id": ["c"]}),
        json.dumps({**frame_record(1, 2.0), "timestamp_s": float("inf")}),
        json.dumps({**frame_record(1, 2.0), "timestamp_s": -1.0}),
        json.dumps({**frame_record(1, 2.0), "frame_index": float("inf")}),
        json.dumps(frame_record(1, 2.0, embedding=["abc"] * 128)),
        json.dumps(frame_record(1, 2.0, embedding=[[0.0, 1.0]] * 64)),
        json.dumps(frame_record(1, 2.0, embedding=[0.0] * 127 + [float("nan")])),
        json.dumps([frame_record(1, 2.0)]),
        GOOD + GOOD,
        # json reads 1E400 as inf, orjson rejects it
        json.dumps(frame_record(1, 2.0)).replace("[5.0, 6.0]", "[1E400, 6.0]"),
        # 136 coordinates, but not in pairs
        json.dumps({**frame_record(1, 2.0), "points": [[0.0, 1.0, 2.0], [3.0]] * 34}),
    ],
    ids=["number", "string", "null-points", "scalar-points", "null-coordinate",
         "list-id", "inf-time", "negative-time", "inf-index", "text-embedding",
         "nested-embedding", "nan-embedding", "list-record", "two-records",
         "overflow-coordinate", "uneven-pairs"],
)
def test_readers_reject_bad_record(tmp_path, bad_line):
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{GOOD}\n{bad_line}\n")
    assert_readers_reject(path)


def test_first_bad_line_is_reported_first(tmp_path):
    """An earlier bad record wins over a later line that is not JSON."""
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(frame_record(0, 0.0, n_points=67)) + "\n{not json}\n"
    )
    assert_readers_reject(path)
    with pytest.raises(MalformedRecordError, match="line 1: frame 0: expected 68"):
        read_landmark_batch(path)


@pytest.mark.parametrize("bad", ["order", "points"])
def test_batch_checks_span_read_steps(tmp_path, bad):
    """A stream of several read steps is checked across step boundaries."""
    boundary = 2 * geometry._BATCH_LINES  # first record of the third step
    n = 3 * boundary + 5
    records = [frame_record(k, float(k)) for k in range(n)]
    if bad == "order":
        records[boundary]["timestamp_s"] = boundary - 1.5
    else:
        records[boundary + 7]["points"] = records[boundary + 7]["points"][:-1]
    path = tmp_path / "long.jsonl"
    write_jsonl(path, records)
    assert_readers_reject(path)
    records = [frame_record(k, float(k)) for k in range(n)]
    write_jsonl(path, records)
    batch = read_landmark_batch(path)
    assert batch.timestamps.tolist() == [float(k) for k in range(n)]


def assert_batch_equals_stream(path):
    """read_landmark_batch gives the arrays of read_landmark_stream's frames."""
    frames = list(read_landmark_stream(path))
    batch = read_landmark_batch(path)
    assert batch.timestamps.tolist() == [f.timestamp for f in frames]
    assert batch.points.tolist() == [[list(p) for p in f.points] for f in frames]
    assert batch.has_embedding.tolist() == [f.embedding is not None for f in frames]
    assert batch.embeddings[batch.has_embedding].tolist() == [
        f.embedding.tolist() for f in frames if f.embedding is not None
    ]
    return batch


def test_batch_matches_stream(tmp_path):
    records = [
        {"_meta": {"config_hash": "abc"}},
        frame_record(0, 0.0, embedding=[0.25] * 128),
        frame_record(1, 0, conference_id="d"),
        frame_record(2, 0.5),
        # accepted by the scalar checks though not plain numbers
        {**frame_record("3", 1.5), "points": [[str(i), True] for i in range(68)]},
    ]
    path = tmp_path / "stream.jsonl"
    write_jsonl(path, records)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n   \n")
    frames = list(read_landmark_stream(path))
    batch = read_landmark_batch(path)
    assert len(batch) == len(frames) == 4
    assert batch.timestamps.tolist() == [f.timestamp for f in frames]
    assert batch.points.tolist() == [[list(p) for p in f.points] for f in frames]
    assert batch.has_embedding.tolist() == [True, False, False, False]
    assert batch.embeddings[0].tolist() == [0.25] * 128
    assert not batch.embeddings[1:].any()
    # Integers of 2**64 and up: json reads ints, orjson floats.
    big = {**frame_record(1, 0.5), "points": [[2**64 + 12345, 1]] * 68}
    for record in (frame_record(2**64, 0.5), big):
        write_jsonl(path, [frame_record(0, 0.0), record])
        assert len(assert_batch_equals_stream(path)) == 2


finite = st.floats(allow_nan=False, allow_infinity=False)
number_formats = st.sampled_from([repr, "%.17e".__mod__])


@st.composite
def frame_lines(draw, frame_index, timestamp):
    """One record line, its numbers written with repr or %.17e."""
    fmt = draw(number_formats)
    coords = draw(st.lists(finite, min_size=136, max_size=136))
    points = ",".join(f"[{fmt(x)},{fmt(y)}]" for x, y in zip(coords[::2], coords[1::2]))
    line = (f'{{"conference_id":"c","frame_index":{frame_index},'
            f'"timestamp_s":{fmt(timestamp)},"points":[{points}]')
    if draw(st.booleans()):
        embedding = draw(st.lists(finite, min_size=128, max_size=128))
        line += ',"embedding":[' + ",".join(map(fmt, embedding)) + "]"
    return line + "}"


@st.composite
def landmark_texts(draw):
    timestamps = sorted(draw(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                                      min_size=1, max_size=3)))
    return "".join(draw(frame_lines(k, t)) + "\n" for k, t in enumerate(timestamps))


@given(landmark_texts())
@settings(max_examples=50, deadline=None)
def test_batch_decoding_matches_stream_on_finite_doubles(text):
    """orjson in the batch path reads every finite double as json does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.jsonl"
        path.write_text(text)
        with mock.patch.object(geometry, "_scalar_batch", side_effect=AssertionError):
            assert_batch_equals_stream(path)


def test_batch_of_empty_stream(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"_meta":{"config_hash":"abc"}}\n')
    batch = read_landmark_batch(path)
    assert len(batch) == 0
    assert batch.points.shape == (0, 68, 2)
    assert batch.embeddings.shape == (0, 128)
    values, usable = batch_ear(batch.points)
    assert values.shape == usable.shape == (0,)


# --- batch EAR ------------------------------------------------------------


def test_batch_ear_equals_frame_ear_on_fixture(small_fixture):
    paths = sorted((small_fixture / "landmarks").glob("*.jsonl"))
    assert paths
    for path in paths:
        frames = list(read_landmark_stream(path))
        values, usable = batch_ear(read_landmark_batch(path).points)
        assert usable.all()
        assert values.tolist() == [frame_ear(f).value for f in frames]


def test_batch_ear_uses_given_eye_indices():
    eye_a, eye_b = HAND_CASES[2][0], HAND_CASES[3][0]
    points = np.array([[list(p) for p in frame_with_eyes(eye_a, eye_b).points]])
    swapped, _ = batch_ear(points, RIGHT_EYE_INDICES, LEFT_EYE_INDICES)
    assert swapped.tolist() == [
        frame_ear(frame_with_eyes(eye_a, eye_b), RIGHT_EYE_INDICES, LEFT_EYE_INDICES).value
    ]


@st.composite
def face_points(draw):
    """68 random points; each eye's corners coincide with probability 1/4."""
    pts = [[draw(coords), draw(coords)] for _ in range(68)]
    for indices in (LEFT_EYE_INDICES, RIGHT_EYE_INDICES):
        if draw(st.integers(0, 3)) == 0:
            pts[indices[3]] = list(pts[indices[0]])
    return pts


@given(st.lists(face_points(), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_batch_ear_matches_frame_ear(frames_points):
    values, usable = batch_ear(np.array(frames_points, dtype=float))
    for pts, value, ok in zip(frames_points, values.tolist(), usable.tolist()):
        frame = make_frame([Point2(x, y) for x, y in pts])
        try:
            expected = frame_ear(frame).value
        except DegenerateEyeError:
            assert not ok
        else:
            assert ok
            assert value == expected
