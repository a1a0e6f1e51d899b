import gc
import json
import math
import tempfile
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earstudy import MalformedRecordError
from earstudy import geometry
from earstudy.geometry import (
    LEFT_EYE_INDICES,
    RIGHT_EYE_INDICES,
    batch_ear,
    read_landmark_batch,
    write_landmark_stream,
)
from earstudy.synth import ReadingEpisode, ScenarioSpec, ScriptInterval, gen_landmark_stream

from ear_cases import HAND_CASES
from oracles import RejectedLine, eye_aspect_ratio, frame_aspect_ratio, read_landmark_columns


def face_with_eyes(left_eye, right_eye):
    """68 (x, y) points: the two eyes at their standard indices, (i, -i) elsewhere."""
    pts = [(float(i), float(-i)) for i in range(68)]
    for idx, p in zip(LEFT_EYE_INDICES, left_eye):
        pts[idx] = p
    for idx, p in zip(RIGHT_EYE_INDICES, right_eye):
        pts[idx] = p
    return pts


def frame_ears(faces, left=LEFT_EYE_INDICES, right=RIGHT_EYE_INDICES):
    """batch_ear of a list of 68-point faces, as (values, usable) lists."""
    values, usable = batch_ear(np.array(faces, dtype=float).reshape(-1, 68, 2), left, right)
    return values.tolist(), usable.tolist()


def batch_eye_ear(eye):
    """One eye's EAR through batch_ear: the mean of two equal eyes is exact."""
    values, usable = frame_ears([face_with_eyes(eye, eye)])
    assert usable == [True]
    return values[0]


@pytest.mark.parametrize("eye,expected", HAND_CASES)
def test_eye_ear_hand_cases(eye, expected):
    assert batch_eye_ear(eye) == pytest.approx(expected, abs=1e-12)


def test_eye_ear_worked_example_is_two_thirds():
    eye, expected = HAND_CASES[0]
    assert expected == 2.0 / 3.0
    assert batch_eye_ear(eye) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_eye_ear_closed_eye_is_zero():
    eye, expected = HAND_CASES[1]
    assert expected == 0.0
    assert batch_eye_ear(eye) == 0.0


def test_eye_ear_degenerate_horizontal_is_unusable():
    eye = (
        (1.0, 1.0),
        (2.0, 3.0),
        (3.0, 3.0),
        (1.0, 1.0),  # l4 == l1
        (3.0, -1.0),
        (2.0, -1.0),
    )
    _, usable = frame_ears([face_with_eyes(eye, eye)])
    assert usable == [False]


def test_extract_eyes_index_selection():
    """batch_ear reads the twelve eye landmarks and no other point."""
    face = face_with_eyes(HAND_CASES[2][0], HAND_CASES[3][0])  # EAR 7/10 and 1/2
    eye_indices = set(LEFT_EYE_INDICES + RIGHT_EYE_INDICES)
    others_moved = [(x + 7.0, y - 3.0) if i not in eye_indices else (x, y)
                    for i, (x, y) in enumerate(face)]
    values, _ = frame_ears([face, others_moved])
    assert values[0] == values[1] == pytest.approx((0.7 + 0.5) / 2.0, abs=1e-12)
    for index in sorted(eye_indices):
        moved = list(face)
        moved[index] = (face[index][0], face[index][1] + 50.0)
        assert frame_ears([moved])[0] != [values[0]], index


def test_frame_ear_is_mean_of_eyes():
    left = HAND_CASES[2][0]  # EAR 7/10
    right = HAND_CASES[3][0]  # EAR 1/2
    values, _ = frame_ears([face_with_eyes(left, right)])
    assert values[0] == pytest.approx((0.7 + 0.5) / 2.0, abs=1e-12)


def test_frame_ear_symmetric_face():
    eye = HAND_CASES[2][0]
    values, _ = frame_ears([face_with_eyes(eye, eye)])
    assert values[0] == pytest.approx(eye_aspect_ratio(eye), abs=1e-15)


def test_frame_ear_exchange_symmetry():
    a, b = HAND_CASES[4][0], HAND_CASES[5][0]
    values, _ = frame_ears([face_with_eyes(a, b), face_with_eyes(b, a)])
    assert values[0] == pytest.approx(values[1], abs=1e-15)


def test_frame_ear_worked_example_composition():
    eye = HAND_CASES[0][0]
    values, _ = frame_ears([face_with_eyes(eye, eye)])
    assert values[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_frame_ear_degenerate_eye_is_unusable():
    bad = (
        (0.0, 0.0),
        (1.0, 1.0),
        (2.0, 1.0),
        (0.0, 0.0),
        (2.0, -1.0),
        (1.0, -1.0),
    )
    good = HAND_CASES[2][0]
    _, usable = frame_ears(
        [face_with_eyes(bad, good), face_with_eyes(good, bad), face_with_eyes(good, good)]
    )
    assert usable == [False, False, True]


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def eyes(draw):
    pts = [(draw(coords), draw(coords)) for _ in range(6)]
    span = math.hypot(pts[0][0] - pts[3][0], pts[0][1] - pts[3][1])
    if span < 1.0:
        pts[3] = (pts[0][0] + 5.0, pts[0][1])
    return tuple(pts)


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
    moved = tuple(
        (scale * (cos_a * x - sin_a * y) + tx, scale * (sin_a * x + cos_a * y) + ty)
        for x, y in eye
    )
    assert batch_eye_ear(moved) == pytest.approx(batch_eye_ear(eye), abs=1e-9)


@given(eyes())
@settings(max_examples=100, deadline=None)
def test_ear_nonnegative(eye):
    assert batch_eye_ear(eye) >= 0.0


def test_ear_zero_iff_lids_coincide():
    closed = HAND_CASES[1][0]
    assert batch_eye_ear(closed) == 0.0
    barely = (
        (0.0, 0.0),
        (1.0, 1e-9),
        (2.0, 3.0),
        (4.0, 0.0),
        (2.0, 3.0),
        (1.0, 0.0),
    )
    assert batch_eye_ear(barely) > 0.0


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


def write_and_read(path, conference_id, frame_indices, batch):
    """read_landmark_batch of the written batch, and the frame_index of each record."""
    path.write_text(write_landmark_stream(conference_id, frame_indices, batch,
                                          meta={"config_hash": "abc"}), encoding="utf-8")
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert [r["conference_id"] for r in records] == [conference_id] * len(batch)
    assert ["embedding" in r for r in records] == batch.has_embedding.tolist()
    return read_landmark_batch(path), [r["frame_index"] for r in records]


def assert_same_columns(batch, expected):
    for name in ("timestamps", "points", "embeddings", "has_embedding"):
        assert np.array_equal(getattr(batch, name), getattr(expected, name)), name


def test_stream_round_trip(tmp_path):
    """Generator to file to reader gives back the generator's columns exactly."""
    spec = ScenarioSpec(
        conference_id="conf-rt",
        seed=3,
        date=date(2020, 1, 15),
        fps=5.0,
        conference_length_s=60.0,
        reading_episodes=(ReadingEpisode(30.0, 40.0, 0.15),),
        blink_rate_hz=0.5,
        gap_intervals=((20.0, 25.0),),
        identity_script=(ScriptInterval(5.0, 12.0, "reporter"),),
    )
    frame_indices, generated, truth = gen_landmark_stream(spec)
    assert truth.n_blink_frames > 0
    assert len(generated) == truth.n_frames == 300 - 25  # the 5 s gap emits no frames
    path = tmp_path / "stream.jsonl"
    batch, indices = write_and_read(path, spec.conference_id, frame_indices, generated)
    assert indices == frame_indices.tolist()
    assert_same_columns(batch, generated)
    # Rows without an embedding are written without one and read back as zeros.
    has_embedding = np.arange(len(generated)) % 3 != 0
    partial = replace(
        generated,
        embeddings=np.where(has_embedding[:, None], generated.embeddings, 0.0),
        has_embedding=has_embedding,
    )
    batch, _ = write_and_read(path, spec.conference_id, frame_indices, partial)
    assert_same_columns(batch, partial)


def list_encoded_stream(conference_id, frame_indices, batch):
    """The JSONL that write_landmark_stream wrote from nested lists: the
    reference for its encoding of array rows."""
    lines = []
    for i, row in enumerate(zip(frame_indices.tolist(), batch.timestamps.tolist(),
                                batch.points.tolist(), batch.embeddings.tolist())):
        record = dict(zip(("frame_index", "timestamp_s", "points", "embedding"), row))
        if not batch.has_embedding[i]:
            del record["embedding"]
        lines.append(orjson.dumps({"conference_id": conference_id, **record}) + b"\n")
    return b"".join(lines).decode()


def test_stream_writer_encodes_rows_as_their_lists():
    """Random doubles, edge values and NaN are written as their Python
    floats are: the shortest round-trip text, and null for NaN."""
    rng = np.random.default_rng(11)
    n = 40
    points = rng.normal(scale=1e3, size=(n, 68, 2)) * 10.0 ** rng.integers(-12, 12, (n, 68, 2))
    embeddings = rng.normal(size=(n, 128))
    edges = [-0.0, 5e-324, 1e16, 0.00001, float("nan"), 1.7976931348623157e308, 0.1, 3.0]
    points[0, : len(edges), 0] = edges
    embeddings[1, : len(edges)] = edges
    batch = geometry.LandmarkBatch(
        timestamps=np.arange(n) / 3.0,
        points=points,
        embeddings=embeddings,
        has_embedding=np.arange(n) % 4 != 0,
    )
    frame_indices = np.arange(n) * 2
    text = write_landmark_stream("c", frame_indices, batch)
    assert text == list_encoded_stream("c", frame_indices, batch)
    first, second = (json.loads(line) for line in text.splitlines()[:2])
    assert first["points"][4] == [None, points[0, 4, 1]]  # NaN is null
    assert "embedding" not in first and second["embedding"][4] is None


def test_stream_writer_accepts_strided_columns():
    """Non-contiguous columns give the bytes of their contiguous copies."""
    spec = ScenarioSpec(conference_id="conf-s", seed=5, date=date(2020, 1, 15), fps=4.0,
                        conference_length_s=20.0, blink_rate_hz=0.5)
    frame_indices, batch, _ = gen_landmark_stream(spec)
    strided = replace(
        batch,
        points=np.repeat(batch.points, 2, axis=2)[:, :, ::2],
        embeddings=np.asfortranarray(batch.embeddings),
    )
    assert not strided.points[0].flags.c_contiguous
    assert not strided.embeddings[0].flags.c_contiguous
    assert np.array_equal(strided.points, batch.points)
    text = write_landmark_stream(spec.conference_id, frame_indices, strided)
    assert text == write_landmark_stream(spec.conference_id, frame_indices, batch)
    assert text == list_encoded_stream(spec.conference_id, frame_indices, batch)


def assert_readers_reject(path):
    """The reader refuses the stream at the oracle's first bad line.

    Its message is one line that names the file and that line.
    """
    with pytest.raises(RejectedLine) as oracle:
        read_landmark_columns(path)
    with pytest.raises(MalformedRecordError) as info:
        read_landmark_batch(path)
    message = str(info.value)
    assert message.startswith(f"{path}: line {oracle.value.line_no}: "), message
    assert "\n" not in message


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
        # Text and booleans in place of numbers, and an integer orjson
        # reads as a float, follow the format no more than other values.
        json.dumps(frame_record("3", 2.0)),
        json.dumps(frame_record(True, 2.0)),
        json.dumps(frame_record(2**64, 2.0)),
        json.dumps(frame_record(1, "2.0")),
        json.dumps({**frame_record(1, 2.0), "points": [[str(i), 1.0] for i in range(68)]}),
        json.dumps(frame_record(1, 2.0, embedding=["0.5"] * 128)),
        # numpy reads booleans next to numbers as 1.0 and 0.0.
        json.dumps({**frame_record(1, 2.0), "points": [[True, 1.0]] + [[0.5, 1.0]] * 67}),
        json.dumps(frame_record(1, 2.0, embedding=[False] + [0.5] * 127)),
        json.dumps(frame_record(1, True)),
        # The words true and false in the conference_id do not hide a boolean.
        json.dumps(frame_record(1, 2.0, "true-false", embedding=[True] + [0.5] * 127)),
        # Iterated, a two-character string or a two-key object gives two
        # strings, which np.fromiter would read as numbers.
        json.dumps({**frame_record(1, 2.0), "points": ["12"] + [[0.5, 1.0]] * 67}),
        json.dumps({**frame_record(1, 2.0), "points": [{"1": 0, "2": 0}] + [[0.5, 1.0]] * 67}),
        json.dumps(frame_record(1, 2.0, embedding=[0.5] * 127 + ["0.5"])),
    ],
    ids=["number", "string", "null-points", "scalar-points", "null-coordinate",
         "list-id", "inf-time", "negative-time", "inf-index", "text-embedding",
         "nested-embedding", "nan-embedding", "list-record", "two-records",
         "overflow-coordinate", "uneven-pairs", "string-index", "bool-index",
         "huge-index", "string-time", "string-coordinates", "numeric-text-embedding",
         "bool-coordinate", "bool-embedding", "bool-time", "bool-embedding-word-id",
         "string-pair", "object-pair", "numeric-text-in-embedding"],
)
def test_readers_reject_bad_record(tmp_path, bad_line):
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{GOOD}\n{bad_line}\n")
    assert_readers_reject(path)


POINTS_REASON = "expected 68 [x, y] pairs of finite numbers in points"
EMBEDDING_REASON = "expected 128 finite numbers in embedding"


@pytest.mark.parametrize(
    "record, reason",
    [
        ({**frame_record(1, 2.0), "points": ["12"] + [[0.5, 1.0]] * 67}, POINTS_REASON),
        ({**frame_record(1, 2.0), "points": [{"1": 0, "2": 0}] * 68}, POINTS_REASON),
        ({**frame_record(1, 2.0), "points": [[None, 1.0]] * 68}, POINTS_REASON),
        (frame_record(1, 2.0, embedding=[0.5] * 127 + ["0.5"]), EMBEDDING_REASON),
        (frame_record(1, 2.0, embedding=[None] * 128), EMBEDDING_REASON),
        # Checked in order: the timestamp, then the points, then the embedding.
        (frame_record(1, "2.0", embedding=["0.5"] * 128),
         "timestamp_s is not a finite number >= 0"),
        ({**frame_record(1, 2.0, embedding=["0.5"] * 128), "points": ["12"] * 68},
         POINTS_REASON),
    ],
    ids=["string-pair", "object-pairs", "null-coordinate", "numeric-text-in-embedding",
         "null-embedding", "text-time-first", "text-points-before-embedding"],
)
def test_text_or_null_for_a_number_keeps_its_reason(tmp_path, record, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{GOOD}\n{json.dumps(record)}\n")
    with pytest.raises(MalformedRecordError) as info:
        read_landmark_batch(path)
    assert str(info.value) == f"{path}: line 2: {reason}"


def type_checked_values(monkeypatch):
    """The number of values each per-value type check sees, as a list that
    fills while the test reads."""
    counts = []
    numbers = geometry._numbers

    def spy(values):
        values = list(values)
        counts.append(len(values))
        return numbers(values)

    monkeypatch.setattr(geometry, "_numbers", spy)
    return counts


EYES = LEFT_EYE_INDICES + RIGHT_EYE_INDICES


def planted_line(index, value):
    """A record line with the JSON text value as the x of points[index].

    "3+1" instead gives points[index] three numbers and a neighbouring
    pair one, so that the record still holds 136 coordinates.
    """
    pairs = [f"[{i}.0,{i + 1}.0]" for i in range(68)]
    if value == "3+1":
        pairs[index], pairs[index + 1 if index < 67 else index - 1] = "[1,2,3]", "[4]"
    else:
        pairs[index] = f"[{value},{index + 1}.0]"
    embedding = ",".join(["0.5"] * 128)
    return ('{"conference_id":"c","frame_index":1,"timestamp_s":2.0,'
            f'"points":[{",".join(pairs)}],"embedding":[{embedding}]}}')


# Each value with the reason that rejects its line, or None where it reads.
PLANTED = [
    ("null", POINTS_REASON),
    ("true", POINTS_REASON),
    ('"1.5"', POINTS_REASON),
    ("[]", POINTS_REASON),
    ("{}", POINTS_REASON),
    ("[1.0,2.0]", POINTS_REASON),
    ("1" * 26, None),  # orjson reads it as a float
    ("1" * 400, "invalid JSON"),  # orjson reads it as infinity and refuses it
    ("-0", None),
    ("3+1", POINTS_REASON),
]


@pytest.mark.parametrize("point_indices", [None, EYES], ids=["all-points", "eye-points"])
@pytest.mark.parametrize("index", [0, 40, 67])
@pytest.mark.parametrize(
    "value, reason", PLANTED,
    ids=["null", "true", "text", "empty-list", "empty-object", "list", "26-digits",
         "400-digits", "minus-zero", "3+1-pair"],
)
def test_planted_coordinate_keeps_its_reason(tmp_path, value, reason, index, point_indices):
    """Every coordinate is checked, whether or not it is converted: a point
    outside point_indices (0, 67) is rejected as an eye point (40) is."""
    path = tmp_path / "planted.jsonl"
    path.write_text(f"{GOOD}\n{planted_line(index, value)}\n")
    if reason is not None:
        with pytest.raises(MalformedRecordError) as info:
            read_landmark_batch(path, point_indices)
        assert str(info.value) == f"{path}: line 2: {reason}"
        return
    points = read_landmark_batch(path).points
    assert points[1, index].tolist() == [float(value), index + 1.0]
    expected = points if point_indices is None else points[:, EYES]
    assert np.array_equal(read_landmark_batch(path, point_indices).points, expected)


@pytest.mark.parametrize("point_indices", [None, EYES], ids=["all-points", "eye-points"])
def test_null_in_an_embedding(tmp_path, point_indices):
    """A null entry is not a number; a null embedding is no embedding."""
    path = tmp_path / "stream.jsonl"
    null_entry = frame_record(1, 2.0, embedding=[0.5] * 127 + [None])
    path.write_text(f"{GOOD}\n{json.dumps(null_entry)}\n")
    with pytest.raises(MalformedRecordError) as info:
        read_landmark_batch(path, point_indices)
    assert str(info.value) == f"{path}: line 2: {EMBEDDING_REASON}"
    path.write_text(f"{GOOD}\n{json.dumps({**frame_record(1, 2.0), 'embedding': None})}\n")
    batch = read_landmark_batch(path, point_indices)
    assert batch.has_embedding.tolist() == [True, False]
    assert batch.embeddings.tolist() == [[0.5] * 128, [0.0] * 128]


@pytest.mark.parametrize("conference_id", ["[c", "{c}", "[{"])
def test_id_with_a_bracket_is_type_checked(tmp_path, monkeypatch, conference_id):
    """A bracket or brace in the conference_id makes its line not plain."""
    counts = type_checked_values(monkeypatch)
    path = tmp_path / "stream.jsonl"
    write_jsonl(path, [frame_record(0, 0.0, conference_id, embedding=[0.5] * 128)])
    full = assert_batch_equals_oracle(path)
    assert counts == [1, 136, 128]
    eyes = read_landmark_batch(path, EYES)
    assert np.array_equal(eyes.points, full.points[:, EYES])


@pytest.mark.parametrize("groups", [(LEFT_EYE_INDICES, RIGHT_EYE_INDICES),
                                    (RIGHT_EYE_INDICES, LEFT_EYE_INDICES)],
                         ids=["eyes", "swapped-eyes"])
def test_point_indices_select_points_in_order(small_fixture, groups):
    indices = [*groups[0], *groups[1]]
    for path in sorted((small_fixture / "landmarks").glob("*.jsonl")):
        full = read_landmark_batch(path)
        eyes = read_landmark_batch(path, indices)
        assert np.array_equal(eyes.points, full.points[:, indices])
        for name in ("timestamps", "embeddings", "has_embedding"):
            assert np.array_equal(getattr(eyes, name), getattr(full, name)), name


@pytest.mark.parametrize("indices", [[], [40], [40, 40, 3]], ids=["none", "one", "repeated"])
def test_point_indices_of_any_length(tmp_path, indices):
    path = tmp_path / "stream.jsonl"
    write_jsonl(path, [frame_record(0, 0.0), frame_record(1, 1.0)])
    points = read_landmark_batch(path, indices).points
    assert points.shape == (2, len(indices), 2)
    assert np.array_equal(points, read_landmark_batch(path).points[:, indices])


def test_id_with_an_escaped_quote_is_read(tmp_path, monkeypatch):
    """A quote in the conference_id makes its line not plain: its values are
    type-checked one by one, and the stream reads back equal."""
    counts = type_checked_values(monkeypatch)
    path = tmp_path / "stream.jsonl"
    write_jsonl(path, [frame_record(0, 0.0, 'a"b', embedding=[0.5] * 128),
                       frame_record(1, 0.5, 'a"b')])
    assert 'a\\"b' in path.read_text()
    assert len(assert_batch_equals_oracle(path)) == 2
    # Two timestamps, 2 * 136 coordinates and one embedding.
    assert counts == [2, 2 * 136, 128]


def test_first_bad_line_is_reported_first(tmp_path):
    """An earlier bad record wins over a later line that is not JSON."""
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(frame_record(0, 0.0, n_points=67)) + "\n{not json}\n"
    )
    assert_readers_reject(path)
    with pytest.raises(MalformedRecordError, match="line 1: expected 68"):
        read_landmark_batch(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_batch_read_pauses_gc_and_restores_it(tmp_path, monkeypatch, enabled):
    """Cyclic GC is off while records decode; the caller's setting comes
    back whether the file reads or raises."""
    good = tmp_path / "good.jsonl"
    write_jsonl(good, [frame_record(0, 0.0), frame_record(1, 1.0)])
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(frame_record(0, 0.0)) + "\n{not json}\n")
    seen = []
    checked_step = geometry._checked_step

    def spy(*args):
        seen.append(gc.isenabled())
        return checked_step(*args)

    monkeypatch.setattr(geometry, "_checked_step", spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        read_landmark_batch(good)
        assert gc.isenabled() is enabled
        with pytest.raises(MalformedRecordError, match="line 2: "):
            read_landmark_batch(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)


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


def assert_batch_equals_oracle(path):
    """read_landmark_batch gives the columns the stdlib-json oracle reads."""
    columns = read_landmark_columns(path)
    batch = read_landmark_batch(path)
    assert batch.timestamps.tolist() == columns["timestamp_s"]
    assert batch.points.tolist() == [[list(p) for p in pts] for pts in columns["points"]]
    assert batch.has_embedding.tolist() == [e is not None for e in columns["embedding"]]
    assert batch.embeddings[batch.has_embedding].tolist() == [
        e for e in columns["embedding"] if e is not None
    ]
    assert not batch.embeddings[~batch.has_embedding].any()
    return batch


def test_batch_matches_stream(tmp_path):
    records = [
        {"_meta": {"config_hash": "abc"}},
        frame_record(0, 0.0, embedding=[0.25] * 128),
        frame_record(1, 0, conference_id="d"),
        frame_record(2, 0.5),
        {**frame_record(3, 1.5), "points": [[i, -1] for i in range(68)]},
    ]
    path = tmp_path / "stream.jsonl"
    write_jsonl(path, records)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n   \n")
    batch = assert_batch_equals_oracle(path)
    assert len(batch) == 4
    assert batch.has_embedding.tolist() == [True, False, False, False]
    assert batch.embeddings[0].tolist() == [0.25] * 128
    assert batch.points[3].tolist() == [[float(i), -1.0] for i in range(68)]
    # Coordinates of 2**64 and up: json reads ints, orjson floats.
    big = {**frame_record(1, 0.5), "points": [[2**64 + 12345, 1]] * 68}
    write_jsonl(path, [frame_record(0, 0.0), big])
    assert len(assert_batch_equals_oracle(path)) == 2


def test_ids_holding_true_and_false_are_read(tmp_path):
    """A conference_id may hold the words, escaped or not, next to numbers."""
    path = tmp_path / "stream.jsonl"
    write_jsonl(path, [
        frame_record(0, 0.0, "true", embedding=[0.5] * 128),
        frame_record(1, 0.5, "false-call"),
        frame_record(2, 1.0, "\u00fcber-true"),
    ])
    assert len(assert_batch_equals_oracle(path)) == 3


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
        assert_batch_equals_oracle(path)


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
        columns = read_landmark_columns(path)
        values, usable = batch_ear(read_landmark_batch(path).points)
        assert usable.all()
        assert values.tolist() == [
            frame_aspect_ratio(points, LEFT_EYE_INDICES, RIGHT_EYE_INDICES)
            for points in columns["points"]
        ]


def test_batch_ear_uses_given_eye_indices():
    face = face_with_eyes(HAND_CASES[2][0], HAND_CASES[3][0])
    swapped, _ = frame_ears([face], RIGHT_EYE_INDICES, LEFT_EYE_INDICES)
    assert swapped == [frame_aspect_ratio(face, RIGHT_EYE_INDICES, LEFT_EYE_INDICES)]


@st.composite
def face_points(draw):
    """68 random points; each eye's corners coincide with probability 1/4."""
    pts = [(draw(coords), draw(coords)) for _ in range(68)]
    for indices in (LEFT_EYE_INDICES, RIGHT_EYE_INDICES):
        if draw(st.integers(0, 3)) == 0:
            pts[indices[3]] = pts[indices[0]]
    return pts


@given(st.lists(face_points(), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_batch_ear_matches_frame_ear(faces):
    values, usable = frame_ears(faces)
    for pts, value, ok in zip(faces, values, usable):
        try:
            expected = frame_aspect_ratio(pts, LEFT_EYE_INDICES, RIGHT_EYE_INDICES)
        except ZeroDivisionError:
            assert not ok
        else:
            assert ok
            assert value == expected
