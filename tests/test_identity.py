import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earstudy import (
    ConfigError,
    Gallery,
    GalleryEntry,
    IdentityConfig,
    MalformedRecordError,
    classify,
    embedding_distance,
    filter_speaker_frames,
    vote_vector,
)
from earstudy.geometry import FaceLandmarkFrame, Point2
from earstudy.identity import classify_batch, dump_gallery, load_gallery, route_frames

from oracles import brute_force_classify, python_norm


def vec(*head):
    out = np.zeros(128)
    out[: len(head)] = head
    return out


def entry_at_distance(label, distance):
    return GalleryEntry(label, vec(distance))


def make_frame(index, embedding=None, timestamp=None):
    return FaceLandmarkFrame(
        conference_id="c",
        frame_index=index,
        timestamp=float(index) if timestamp is None else timestamp,
        points=tuple(Point2(float(i), 0.0) for i in range(68)),
        embedding=embedding,
    )


def test_distance_identity_is_zero():
    assert embedding_distance(vec(1.0, 2.0), vec(1.0, 2.0)) == 0.0


def test_distance_three_four_five():
    assert embedding_distance(vec(3.0, 4.0), vec(0.0, 0.0)) == pytest.approx(5.0, abs=1e-15)


def test_distance_matches_python_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.normal(size=128), rng.normal(size=128)
        assert embedding_distance(a, b) == pytest.approx(python_norm(a, b), abs=1e-12)


def test_distance_rejects_length_mismatch():
    with pytest.raises(MalformedRecordError):
        embedding_distance(np.zeros(127), np.zeros(128))


def test_vote_vector_threshold():
    gallery = Gallery((entry_at_distance("a", 0.3), entry_at_distance("b", 0.7)))
    votes = vote_vector(vec(), gallery, 0.6)
    assert votes.tolist() == [1, 0]


def test_vote_vector_zero_epsilon_all_zero():
    gallery = Gallery((entry_at_distance("a", 0.0), entry_at_distance("b", 0.1)))
    assert vote_vector(vec(), gallery, 0.0).tolist() == [0, 0]


def test_vote_vector_large_epsilon_all_one():
    gallery = Gallery((entry_at_distance("a", 0.3), entry_at_distance("b", 0.7)))
    assert vote_vector(vec(), gallery, 10.0).tolist() == [1, 1]


def test_classify_plurality():
    # 40 in-tolerance votes for the chair vs 2 and 1 for others
    entries = (
        tuple(entry_at_distance("chair", 0.1) for _ in range(40))
        + tuple(entry_at_distance("deputy", 0.1) for _ in range(2))
        + (entry_at_distance("guest", 0.1),)
    )
    got = classify(vec(), Gallery(entries), IdentityConfig(epsilon=0.2))
    assert got == "chair"


def test_classify_all_out_of_tolerance_is_unknown():
    gallery = Gallery((entry_at_distance("a", 1.0), entry_at_distance("b", 2.0)))
    assert classify(vec(), gallery, IdentityConfig(epsilon=0.5)) is None


def test_classify_tie_is_unknown():
    gallery = Gallery(
        (
            entry_at_distance("a", 0.1),
            entry_at_distance("a", 0.1),
            entry_at_distance("b", 0.1),
            entry_at_distance("b", 0.1),
        )
    )
    assert classify(vec(), gallery, IdentityConfig(epsilon=0.5)) is None


def test_classify_quorum():
    gallery = Gallery((entry_at_distance("a", 0.1), entry_at_distance("b", 1.0)))
    assert classify(vec(), gallery, IdentityConfig(epsilon=0.5, min_votes=2)) is None
    assert classify(vec(), gallery, IdentityConfig(epsilon=0.5, min_votes=1)) == "a"


def test_classify_gallery_permutation_invariant():
    rng = np.random.default_rng(11)
    entries = [
        GalleryEntry(label, rng.normal(size=128))
        for label in ["a", "b", "c"] * 5
    ]
    query = rng.normal(size=128)
    config = IdentityConfig(epsilon=15.0, min_votes=1)
    base = classify(query, Gallery(tuple(entries)), config)
    for _ in range(5):
        rng.shuffle(entries)
        assert classify(query, Gallery(tuple(entries)), config) == base


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_vote_counts_monotone_in_epsilon(seed):
    rng = np.random.default_rng(seed)
    gallery = Gallery(
        tuple(GalleryEntry(f"l{i % 3}", rng.normal(size=128)) for i in range(10))
    )
    query = rng.normal(size=128)
    eps = float(rng.uniform(0.1, 20.0))
    small = vote_vector(query, gallery, eps)
    large = vote_vector(query, gallery, 2.0 * eps)
    assert np.all(large >= small)


def test_empty_gallery_rejected():
    with pytest.raises(ConfigError):
        Gallery(())


def test_filter_keeps_target_in_order():
    rng = np.random.default_rng(3)
    target_center = vec(0.0)
    other_center = vec(10.0)
    gallery = Gallery(
        (
            GalleryEntry("chair", target_center),
            GalleryEntry("reporter", other_center),
        )
    )
    frames = []
    expected = []
    for i in range(10):
        is_target = i % 3 != 0
        center = target_center if is_target else other_center
        frame = make_frame(i, embedding=center + rng.normal(scale=0.01, size=128))
        frames.append(frame)
        if is_target:
            expected.append(i)
    kept, diag = filter_speaker_frames(
        frames, gallery, "chair", IdentityConfig(epsilon=0.5)
    )
    assert [f.frame_index for f in kept] == expected
    assert diag.kept == len(expected)
    assert diag.rejected == 10 - len(expected)
    assert diag.total == 10


def test_filter_single_entry_distance_zero_keeps_all():
    gallery = Gallery((GalleryEntry("chair", vec()),))
    frames = [make_frame(i, embedding=vec()) for i in range(5)]
    kept, diag = filter_speaker_frames(frames, gallery, "chair", IdentityConfig(epsilon=0.1))
    assert len(kept) == 5
    assert diag.kept == 5


def test_filter_is_idempotent():
    rng = np.random.default_rng(5)
    gallery = Gallery(
        (GalleryEntry("chair", vec(0.0)), GalleryEntry("reporter", vec(8.0)))
    )
    frames = [
        make_frame(i, embedding=vec(0.0) + rng.normal(scale=0.02, size=128))
        for i in range(6)
    ] + [make_frame(6, embedding=vec(8.0))]
    config = IdentityConfig(epsilon=0.5)
    once, _ = filter_speaker_frames(frames, gallery, "chair", config)
    twice, diag = filter_speaker_frames(once, gallery, "chair", config)
    assert [f.frame_index for f in twice] == [f.frame_index for f in once]
    assert diag.rejected == 0


def test_filter_no_embedding_policies():
    gallery = Gallery((GalleryEntry("chair", vec()),))
    frames = [make_frame(0, embedding=vec()), make_frame(1, embedding=None)]
    dropped, diag = filter_speaker_frames(
        frames, gallery, "chair", IdentityConfig(epsilon=0.5, no_embedding_policy="drop")
    )
    assert [f.frame_index for f in dropped] == [0]
    assert diag.no_embedding == 1
    kept, diag = filter_speaker_frames(
        frames, gallery, "chair",
        IdentityConfig(epsilon=0.5, no_embedding_policy="assume_target"),
    )
    assert [f.frame_index for f in kept] == [0, 1]
    assert diag.no_embedding == 1


def test_filter_missing_target_label_is_config_error():
    gallery = Gallery((GalleryEntry("reporter", vec()),))
    with pytest.raises(ConfigError):
        filter_speaker_frames([], gallery, "chair", IdentityConfig(epsilon=0.5))


def test_classify_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n_entries = int(rng.integers(1, 30))
        entries = [
            (f"l{int(rng.integers(0, 4))}", rng.normal(size=128)) for _ in range(n_entries)
        ]
        query = rng.normal(size=128)
        epsilon = float(rng.uniform(0.0, 25.0))
        min_votes = int(rng.integers(1, 4))
        gallery = Gallery(tuple(GalleryEntry(l, e) for l, e in entries))
        config = IdentityConfig(epsilon=epsilon, min_votes=min_votes)
        assert classify(query, gallery, config) == brute_force_classify(
            query, entries, epsilon, min_votes
        )


def test_classify_batch_matches_classify_and_brute_force():
    rng = np.random.default_rng(41)
    labels = ["chair", "deputy", "reporter", "visitor"]
    for _ in range(200):
        m = int(rng.integers(1, 40))
        entries = [
            (labels[int(rng.integers(0, len(labels)))], rng.normal(size=128))
            for _ in range(m)
        ]
        # Ties: the same vectors again under other labels.
        for label, vector in entries[: int(rng.integers(0, 4))]:
            entries.append((labels[(labels.index(label) + 1) % len(labels)], vector))
        n = int(rng.integers(0, 12))
        near = [entries[int(rng.integers(0, len(entries)))][1] for _ in range(n)]
        queries = np.array(
            [v + rng.normal(scale=float(rng.uniform(0.0, 2.0)), size=128) for v in near]
            + [entries[0][1]]
        )
        epsilon = float(rng.uniform(0.0, 25.0))
        min_votes = int(rng.integers(1, 5))
        gallery = Gallery(tuple(GalleryEntry(l, e) for l, e in entries))
        config = IdentityConfig(epsilon=epsilon, min_votes=min_votes)

        got = classify_batch(queries, gallery, config)
        assert got == [classify(q, gallery, config) for q in queries]
        assert got == [brute_force_classify(q, entries, epsilon, min_votes) for q in queries]


def test_classify_batch_tie_and_quorum():
    gallery = Gallery(
        (entry_at_distance("a", 0.1), entry_at_distance("b", 0.2),
         entry_at_distance("b", 0.3), entry_at_distance("c", 5.0))
    )
    queries = np.array([vec(), vec(0.2), vec(5.0)])
    assert classify_batch(queries, gallery, IdentityConfig(epsilon=0.15)) == ["a", "b", "c"]
    assert classify_batch(queries, gallery, IdentityConfig(epsilon=0.25)) == [None, "b", "c"]
    assert classify_batch(
        queries, gallery, IdentityConfig(epsilon=0.25, min_votes=2)
    ) == [None, "b", None]
    assert classify_batch(np.zeros((0, 128)), gallery, IdentityConfig(epsilon=1.0)) == []


def test_classify_batch_rejects_bad_shape():
    gallery = Gallery((entry_at_distance("a", 0.0),))
    with pytest.raises(MalformedRecordError):
        classify_batch(np.zeros((3, 64)), gallery, IdentityConfig(epsilon=1.0))


@pytest.mark.parametrize("policy", ["drop", "assume_target"])
def test_route_frames_tallies(policy):
    labels = ["chair", None, "reporter", "chair", "ignored", None]
    has = [True, True, True, True, False, False]
    config = IdentityConfig(0.5, no_embedding_policy=policy)
    keep, diag = route_frames(labels, has, "chair", config)
    assume = policy == "assume_target"
    assert keep == [True, False, False, True, assume, assume]
    assert diag.as_dict() == {"kept": 2, "rejected": 1, "unknown": 1, "no_embedding": 2,
                              "written": 4 if assume else 2, "total": 6}


def test_gallery_file_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    gallery = Gallery(
        tuple(GalleryEntry(f"l{i}", rng.normal(size=128)) for i in range(4))
    )
    path = tmp_path / "gallery.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_gallery(gallery, fh, meta={"config_hash": "x"})
    loaded = load_gallery(path)
    assert loaded.labels == gallery.labels
    for a, b in zip(loaded.entries, gallery.entries):
        assert np.array_equal(a.embedding, b.embedding)


def test_gallery_file_plain_array(tmp_path):
    path = tmp_path / "gallery.json"
    path.write_text(json.dumps([{"label": "a", "embedding": [0.0] * 128}]))
    assert load_gallery(path).labels == ("a",)


def test_identity_config_validation():
    with pytest.raises(ConfigError):
        IdentityConfig(epsilon=-1.0)
    with pytest.raises(ConfigError):
        IdentityConfig(epsilon=0.5, min_votes=0)
    with pytest.raises(ConfigError):
        IdentityConfig(epsilon=0.5, no_embedding_policy="bogus")
