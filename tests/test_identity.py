import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from earstudy import (
    ConfigError,
    Gallery,
    GalleryEntry,
    IdentityConfig,
    MalformedRecordError,
    classify_batch,
    classify_codes,
    route_frames,
    vote_counts,
)
from earstudy.identity import NO_EMBEDDING_POLICIES, dump_gallery, load_gallery
from earstudy.pipeline import load_run_config, run_stages

from conftest import write_run_config
from oracles import brute_force_classify, python_norm, route_frames_loop, vote_counts_loop


def vec(*head):
    out = np.zeros(128)
    out[: len(head)] = head
    return out


def entry_at_distance(label, distance):
    return GalleryEntry(label, vec(distance))


def classify_one(query, gallery, config):
    return classify_batch(np.asarray(query)[None], gallery, config)[0]


def in_tolerance(a, b, epsilon):
    """Whether b votes for a at this tolerance, through classify_batch."""
    return classify_one(a, Gallery((GalleryEntry("b", np.asarray(b)),)),
                        IdentityConfig(epsilon=epsilon)) == "b"


def test_distance_identity_is_zero():
    assert in_tolerance(vec(1.0, 2.0), vec(1.0, 2.0), 5e-324)
    assert not in_tolerance(vec(1.0, 2.0), vec(1.0, 2.0), 0.0)


def test_distance_three_four_five():
    assert not in_tolerance(vec(3.0, 4.0), vec(0.0, 0.0), 5.0)
    assert in_tolerance(vec(3.0, 4.0), vec(0.0, 0.0), np.nextafter(5.0, 6.0))


def test_distance_matches_python_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.normal(size=128), rng.normal(size=128)
        distance = python_norm(a, b)
        assert in_tolerance(a, b, distance + 1e-12)
        assert not in_tolerance(a, b, distance - 1e-12)


def test_distance_rejects_length_mismatch():
    gallery = Gallery((entry_at_distance("a", 0.0),))
    with pytest.raises(MalformedRecordError):
        vote_counts(np.zeros((1, 127)), gallery, 1.0)
    with pytest.raises(MalformedRecordError):
        vote_counts(np.zeros(128), gallery, 1.0)


def test_vote_vector_threshold():
    gallery = Gallery((entry_at_distance("a", 0.3), entry_at_distance("b", 0.7)))
    assert vote_counts(vec()[None], gallery, 0.6).tolist() == [[1, 0]]


def test_vote_vector_zero_epsilon_all_zero():
    gallery = Gallery((entry_at_distance("a", 0.0), entry_at_distance("b", 0.1)))
    assert vote_counts(vec()[None], gallery, 0.0).tolist() == [[0, 0]]


def test_vote_vector_large_epsilon_all_one():
    gallery = Gallery((entry_at_distance("a", 0.3), entry_at_distance("b", 0.7)))
    assert vote_counts(vec()[None], gallery, 10.0).tolist() == [[1, 1]]


def test_classify_plurality():
    # 40 in-tolerance votes for the chair vs 2 and 1 for others
    entries = (
        tuple(entry_at_distance("chair", 0.1) for _ in range(40))
        + tuple(entry_at_distance("deputy", 0.1) for _ in range(2))
        + (entry_at_distance("guest", 0.1),)
    )
    gallery = Gallery(entries)
    assert vote_counts(vec()[None], gallery, 0.2).tolist() == [[40, 2, 1]]
    assert classify_one(vec(), gallery, IdentityConfig(epsilon=0.2)) == "chair"


def test_classify_all_out_of_tolerance_is_unknown():
    gallery = Gallery((entry_at_distance("a", 1.0), entry_at_distance("b", 2.0)))
    assert classify_one(vec(), gallery, IdentityConfig(epsilon=0.5)) is None


def test_classify_tie_is_unknown():
    gallery = Gallery(
        (
            entry_at_distance("a", 0.1),
            entry_at_distance("a", 0.1),
            entry_at_distance("b", 0.1),
            entry_at_distance("b", 0.1),
        )
    )
    assert classify_one(vec(), gallery, IdentityConfig(epsilon=0.5)) is None


def test_classify_quorum():
    gallery = Gallery((entry_at_distance("a", 0.1), entry_at_distance("b", 1.0)))
    assert classify_one(vec(), gallery, IdentityConfig(epsilon=0.5, min_votes=2)) is None
    assert classify_one(vec(), gallery, IdentityConfig(epsilon=0.5, min_votes=1)) == "a"


def test_classify_gallery_permutation_invariant():
    rng = np.random.default_rng(11)
    entries = [
        GalleryEntry(label, rng.normal(size=128))
        for label in ["a", "b", "c"] * 5
    ]
    queries = rng.normal(size=(20, 128))
    config = IdentityConfig(epsilon=15.0, min_votes=1)
    base = classify_batch(queries, Gallery(tuple(entries)), config)
    assert set(base) - {None}
    for _ in range(5):
        rng.shuffle(entries)
        assert classify_batch(queries, Gallery(tuple(entries)), config) == base


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_vote_counts_monotone_in_epsilon(seed):
    rng = np.random.default_rng(seed)
    # One label per entry, so that the counts are the entries' own votes.
    gallery = Gallery(
        tuple(GalleryEntry(f"e{i}", rng.normal(size=128)) for i in range(10))
    )
    queries = rng.normal(size=(4, 128))
    eps = float(rng.uniform(0.1, 20.0))
    small = vote_counts(queries, gallery, eps)
    large = vote_counts(queries, gallery, 2.0 * eps)
    assert np.all(large >= small)


def loop_distances(queries, gallery):
    """Each query's distance to each entry, as the loop oracle computes it."""
    return [np.linalg.norm(queries - row, axis=1) for row in gallery.matrix]


def boundary_epsilons(queries, gallery):
    """Every finite distance of the pairs, and the doubles on either side of it."""
    distances = np.unique(np.concatenate(loop_distances(queries, gallery)))
    distances = distances[np.isfinite(distances)]
    return [*distances, *np.nextafter(distances, 0.0), *np.nextafter(distances, np.inf)]


def adversarial_votes(case):
    """(queries, gallery, epsilons) on which a shortcut vote could differ."""
    rng = np.random.default_rng(7)
    base = rng.normal(size=(5, 128))
    labels = ("a", "b", "a", "c", "b")
    if case == "boundary":
        # Queries near each entry, and one on the segment between two.
        queries = np.vstack([base + rng.normal(scale=0.3, size=base.shape),
                             (base[0] + base[1]) / 2.0])
        return queries, Gallery(tuple(map(GalleryEntry, labels, base))), None
    if case == "duplicates":
        # The same vector under one label twice and under two labels.
        rows = [base[0], base[0], base[1], base[1], base[2]]
        gallery = Gallery(tuple(map(GalleryEntry, labels, rows)))
        return np.array(rows + [base[3]]), gallery, None
    if case in ("zero-distance", "empty"):
        gallery = Gallery(tuple(map(GalleryEntry, labels, base)))
        queries = base if case == "zero-distance" else np.zeros((0, 128))
        return queries, gallery, [0.0, 5e-324, 1e-300, 0.5, 1e200]
    if case == "near-overflow":
        # Opposite rows whose distance squared lies within rounding of the
        # largest double: the product may stay finite where the norm overflows.
        unit = base[0] / np.linalg.norm(base[0])
        rows = [unit * np.sqrt(np.finfo(float).max / 4.0) * (1.0 + k * 1e-15)
                for k in range(-3, 4)]
        gallery = Gallery(tuple(GalleryEntry(f"r{k}", row) for k, row in enumerate(rows)))
        return -np.array(rows), gallery, [1e154, 1e200]
    # Squares underflow below 1e-154 and overflow above 1e154.
    scales = {"tiny": [1e-160], "huge": [1e150, 1e154, 1e160, 1e200],
              "mixed": [1e-160, 1.0, 1e154, 1e200]}[case]
    rows = [base[k] * scales[k % len(scales)] for k in range(len(base))]
    queries = np.vstack([np.array(rows) * (1.0 + 1e-9), np.array(rows[::-1]),
                         np.zeros((1, 128))])
    gallery = Gallery(tuple(map(GalleryEntry, labels, rows)))
    return queries, gallery, [0.0, 5e-324, 1e-160, 1e-150, 0.5, 1e150, 1e154, 1e200,
                              np.finfo(float).max]


@pytest.mark.parametrize(
    "case",
    ["boundary", "duplicates", "zero-distance", "empty", "tiny", "huge", "mixed",
     "near-overflow"],
)
def test_vote_counts_equals_loop_exactly(case):
    """The matrix-product vote gives the per-entry norm's votes, bit for bit,
    at distances equal to epsilon and one double either side of it, and where
    squares underflow or overflow."""
    queries, gallery, epsilons = adversarial_votes(case)
    with np.errstate(over="ignore"):  # the norm's squares overflow above 1e154
        epsilons = [*(epsilons or []), *boundary_epsilons(queries, gallery), 1e200]
        assert len(epsilons) > 3
        for epsilon in epsilons:
            got = vote_counts(queries, gallery, float(epsilon))
            expected = vote_counts_loop(queries, gallery, float(epsilon))
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected), epsilon


def test_vote_counts_overflow_is_silent():
    """Finite entries whose squares overflow vote without a numpy warning,
    which would be a stray stderr line in a run."""
    gallery = Gallery((GalleryEntry("a", np.zeros(128)),
                       GalleryEntry("b", np.full(128, 1e200))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        votes = vote_counts(np.full((2, 128), 1e200), gallery, 0.5)
    assert votes.tolist() == [[0, 1], [0, 1]]


def test_vote_counts_at_epsilon_votes_like_the_loop():
    """With epsilon equal to a query's distance from an entry, or one double
    below it, the entry casts no vote; one double above it, one vote."""
    gallery = Gallery((GalleryEntry("a", vec(0.1, 0.2)),))
    query = vec(0.1, 0.2) + np.random.default_rng(3).normal(size=128)
    (distance,) = loop_distances(query[None], gallery)[0]
    for epsilon, votes in [(distance, 0), (np.nextafter(distance, 0.0), 0),
                           (np.nextafter(distance, np.inf), 1)]:
        assert vote_counts(query[None], gallery, epsilon).tolist() == [[votes]]
        assert vote_counts_loop(query[None], gallery, epsilon).tolist() == [[votes]]


def test_empty_gallery_rejected():
    with pytest.raises(ConfigError):
        Gallery(())


def filter_frames(embeddings, gallery, target_label, config):
    """Indices of the frames the identity filter keeps, and its tally.

    A None embedding is a frame without one.
    """
    has = np.array([e is not None for e in embeddings], dtype=bool)
    rows = np.array([vec() if e is None else e for e in embeddings]).reshape(-1, 128)
    target = gallery.label_codes[0].index(target_label)
    keep, tally = route_frames(classify_codes(rows, gallery, config), has, target, config)
    return np.flatnonzero(keep).tolist(), tally


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
    embeddings = []
    expected = []
    for i in range(10):
        is_target = i % 3 != 0
        center = target_center if is_target else other_center
        embeddings.append(center + rng.normal(scale=0.01, size=128))
        if is_target:
            expected.append(i)
    kept, tally = filter_frames(embeddings, gallery, "chair", IdentityConfig(epsilon=0.5))
    assert kept == expected
    assert tally["kept"] == len(expected)
    assert tally["rejected"] == 10 - len(expected)
    assert tally["total"] == 10


def test_filter_single_entry_distance_zero_keeps_all():
    gallery = Gallery((GalleryEntry("chair", vec()),))
    kept, tally = filter_frames([vec()] * 5, gallery, "chair", IdentityConfig(epsilon=0.1))
    assert len(kept) == 5
    assert tally["kept"] == 5


def test_filter_is_idempotent():
    rng = np.random.default_rng(5)
    gallery = Gallery(
        (GalleryEntry("chair", vec(0.0)), GalleryEntry("reporter", vec(8.0)))
    )
    embeddings = [
        vec(0.0) + rng.normal(scale=0.02, size=128) for _ in range(6)
    ] + [vec(8.0)]
    config = IdentityConfig(epsilon=0.5)
    once, _ = filter_frames(embeddings, gallery, "chair", config)
    twice, tally = filter_frames([embeddings[i] for i in once], gallery, "chair", config)
    assert twice == list(range(len(once)))
    assert tally["rejected"] == 0


def test_filter_no_embedding_policies():
    gallery = Gallery((GalleryEntry("chair", vec()),))
    embeddings = [vec(), None]
    dropped, tally = filter_frames(
        embeddings, gallery, "chair", IdentityConfig(epsilon=0.5, no_embedding_policy="drop")
    )
    assert dropped == [0]
    assert tally["no_embedding"] == 1
    kept, tally = filter_frames(
        embeddings, gallery, "chair",
        IdentityConfig(epsilon=0.5, no_embedding_policy="assume_target"),
    )
    assert kept == [0, 1]
    assert tally["no_embedding"] == 1


def test_filter_missing_target_label_is_config_error(small_fixture, tmp_path):
    gallery_path = tmp_path / "gallery.json"
    gallery_path.write_text(dump_gallery(Gallery((GalleryEntry("reporter", vec()),))),
                            encoding="utf-8")
    cfg = load_run_config(
        write_run_config(tmp_path / "config.json", small_fixture, gallery=str(gallery_path))
    )
    with pytest.raises(ConfigError, match="no entries for target label 'chair'"):
        run_stages(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()  # checked before anything is written


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
        assert classify_one(query, gallery, config) == brute_force_classify(
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
        # Each row is classified on its own.
        assert got == [classify_one(q, gallery, config) for q in queries]
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
    # Codes index ("chair", "reporter"); -1 is unknown, and a frame without
    # an embedding has its code ignored.
    codes = np.array([0, -1, 1, 0, 0, -1])
    has = np.array([True, True, True, True, False, False])
    config = IdentityConfig(0.5, no_embedding_policy=policy)
    keep, tally = route_frames(codes, has, 0, config)
    assume = policy == "assume_target"
    assert keep.tolist() == [True, False, False, True, assume, assume]
    assert list(tally.items()) == [("kept", 2), ("rejected", 1), ("unknown", 1),
                                   ("no_embedding", 2), ("written", 4 if assume else 2),
                                   ("total", 6)]
    with pytest.raises(ValueError):
        route_frames(codes[:1], has, 0, config)


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(st.tuples(st.integers(-1, 3), st.booleans()), max_size=30),
    target=st.integers(0, 3),
    policy=st.sampled_from(NO_EMBEDDING_POLICIES),
)
@example(frames=[], target=0, policy="drop")
@example(frames=[], target=0, policy="assume_target")
@example(frames=[(-1, True)] * 4, target=0, policy="drop")
@example(frames=[(-1, True)] * 4, target=0, policy="assume_target")
@example(frames=[(0, False), (-1, False), (2, False)], target=0, policy="drop")
@example(frames=[(0, False), (-1, False), (2, False)], target=0, policy="assume_target")
def test_route_frames_matches_the_loop(frames, target, policy):
    """The array routing gives the per-frame loop's mask and tally, every
    count a Python int, so that write_json writes it as a number."""
    codes = np.array([code for code, _ in frames], dtype=np.int64)
    has = np.array([has for _, has in frames], dtype=bool)
    keep, tally = route_frames(codes, has, target, IdentityConfig(0.5, no_embedding_policy=policy))
    expected_keep, expected_tally = route_frames_loop(codes.tolist(), has.tolist(), target, policy)
    assert keep.dtype == bool and keep.tolist() == expected_keep
    assert list(tally.items()) == list(expected_tally.items())
    assert all(type(count) is int for count in tally.values())


def test_gallery_file_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    gallery = Gallery(
        tuple(GalleryEntry(f"l{i}", rng.normal(size=128)) for i in range(4))
    )
    path = tmp_path / "gallery.json"
    path.write_text(dump_gallery(gallery, meta={"config_hash": "x"}), encoding="utf-8")
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
    for epsilon in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="epsilon must be finite"):
            IdentityConfig(epsilon=epsilon)
    with pytest.raises(ConfigError):
        IdentityConfig(epsilon=0.5, min_votes=0)
    with pytest.raises(ConfigError):
        IdentityConfig(epsilon=0.5, no_embedding_policy="bogus")
