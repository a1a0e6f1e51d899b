import hashlib
import json
import math
from datetime import date, datetime, timedelta, timezone, tzinfo
from pathlib import Path

import numpy as np
import pytest

from earstudy import (
    AttentionConfig,
    ConfigError,
    EarSeries,
    IdentityConfig,
    ScenarioError,
    batch_ear,
    integrate_attention,
)
from earstudy.attention import benchmark_variables, estimate_fps, read_segments_csv
from earstudy.geometry import write_landmark_stream
from earstudy.market import (
    PRICE_COLUMNS,
    ConferenceTimeline,
    PriceSeries,
    event_window_stats,
)
from earstudy.output import write_csv
from earstudy.pipeline import load_registry
from earstudy.synth import (
    GallerySpec,
    PriceSpec,
    ReadingEpisode,
    ScenarioSpec,
    ScriptInterval,
    build_fixture,
    cluster_center,
    gen_gallery,
    gen_landmark_stream,
    gen_price_series,
    gen_transcript,
    minute_stamps,
    planted_study_scenarios,
    run_synth,
)
from earstudy.schema import read, to_json

from oracles import analytic_attention, classify_batch

TZ = timezone(timedelta(hours=-4))


def scenario(**overrides):
    defaults = dict(
        conference_id="conf-t",
        seed=42,
        date=date(2020, 1, 15),
        fps=5.0,
        conference_length_s=300.0,
        reading_episodes=(ReadingEpisode(100.0, 130.0, 0.15),),
        baseline_ear=0.30,
        blink_rate_hz=0.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def ear_values(batch):
    values, usable = batch_ear(batch.points)
    assert usable.all()
    return values.tolist()


def test_landmark_stream_levels_match_script_exactly():
    spec = scenario()
    _, batch, truth = gen_landmark_stream(spec)
    values = ear_values(batch)
    for v in values:
        assert min(abs(v - 0.30), abs(v - 0.15)) < 1e-12
    n_episode = sum(1 for v in values if abs(v - 0.15) < 1e-12)
    assert abs(n_episode / spec.fps - 30.0) <= 1.0 / spec.fps + 1e-9
    assert truth.n_frames == len(batch)
    assert truth.n_target_frames == len(batch)


def test_landmark_stream_timestamps_on_interval_end_grid():
    spec = scenario(fps=2.0, conference_length_s=10.0, reading_episodes=())
    frame_indices, batch, _ = gen_landmark_stream(spec)
    assert frame_indices.tolist() == list(range(20))
    assert batch.timestamps.tolist() == pytest.approx(
        [(k + 1) * 0.5 for k in range(20)]
    )
    assert batch.timestamps[-1] <= spec.conference_length_s + 1e-12


def test_landmark_stream_gaps_emit_no_frames():
    spec = scenario(gap_intervals=((200.0, 240.0),))
    frame_indices, batch, truth = gen_landmark_stream(spec)
    for t in batch.timestamps.tolist():
        mid = t - 0.5 / spec.fps
        assert not (200.0 <= mid < 240.0)
    full_indices, full, _ = gen_landmark_stream(scenario())
    assert len(full) - len(batch) == int(40 * spec.fps)
    # frames keep their grid index across the gap
    assert set(full_indices.tolist()) - set(frame_indices.tolist()) == set(
        range(int(200 * spec.fps), int(240 * spec.fps))
    )


def stream_text(spec):
    frame_indices, batch, _ = gen_landmark_stream(spec)
    return write_landmark_stream(spec.conference_id, frame_indices, batch)


def test_landmark_stream_deterministic():
    spec = scenario(blink_rate_hz=0.5)
    assert stream_text(spec) == stream_text(spec)


# sha256 of the landmark JSONL of the scenario below.  Only a deliberate
# change of the generator or of the record encoding may change it.
PINNED_SHA256 = "145d00dc88c3ada22df5241a6555f45ba9f50b2a8d5d732b43de3284d32661ad"


def test_landmark_stream_bytes_are_pinned():
    spec = scenario(
        conference_id="conf-pin",
        seed=7,
        fps=2.0,
        conference_length_s=60.0,
        reading_episodes=(ReadingEpisode(30.0, 40.0, 0.15),),
        blink_rate_hz=0.5,
        gap_intervals=((20.0, 25.0),),
        identity_script=(ScriptInterval(5.0, 12.0, "reporter"),),
    )
    _, _, truth = gen_landmark_stream(spec)
    assert (truth.n_frames, truth.n_target_frames, truth.n_blink_frames) == (110, 96, 26)
    assert hashlib.sha256(stream_text(spec).encode()).hexdigest() == PINNED_SHA256


def test_landmark_stream_rejects_label_outside_gallery():
    spec = scenario(identity_script=(ScriptInterval(10.0, 20.0, "reporter"),))
    with pytest.raises(ScenarioError, match=r"\['reporter'\] not in gallery labels"):
        gen_landmark_stream(spec, GallerySpec(labels=("chair",)))


def test_landmark_stream_blinks_only_on_baseline_frames():
    spec = scenario(blink_rate_hz=1.0, conference_length_s=600.0,
                    reading_episodes=(ReadingEpisode(100.0, 400.0, 0.15),))
    _, batch, truth = gen_landmark_stream(spec)
    values = ear_values(batch)
    n_zero = sum(1 for v in values if v < 1e-12)
    assert n_zero == truth.n_blink_frames
    assert n_zero > 0
    # episode frames are never blinked out
    n_episode = sum(1 for v in values if abs(v - 0.15) < 1e-12)
    assert abs(n_episode / spec.fps - 300.0) <= 1.0 / spec.fps + 1e-9


def test_landmark_stream_identity_script_clusters():
    spec = scenario(
        conference_length_s=60.0,
        reading_episodes=(),
        identity_script=(ScriptInterval(20.0, 40.0, "reporter"),),
    )
    gspec = GallerySpec(labels=("chair", "reporter"), seed=3)
    _, batch, truth = gen_landmark_stream(spec, gspec)
    gallery, _ = gen_gallery(gspec.labels, gspec.cluster_radius, gspec.seed,
                             separation=gspec.separation)
    config = IdentityConfig(epsilon=0.5)
    labels = classify_batch(batch.embeddings, gallery, config)
    timestamps = batch.timestamps.tolist()
    for t, label in zip(timestamps, labels):
        mid = t - 0.5 / spec.fps
        expected = "reporter" if 20.0 <= mid < 40.0 else "chair"
        assert label == expected
    assert truth.n_target_frames == sum(
        1 for t in timestamps if not (20.0 <= t - 0.1 < 40.0)
    )
    assert truth.target_seconds == pytest.approx(40.0)


def test_round_trip_through_attention_pipeline():
    spec = scenario(fps=15.0)
    _, batch, truth = gen_landmark_stream(spec)
    series = EarSeries(spec.conference_id, batch.timestamps, ear_values(batch),
                       estimate_fps(batch.timestamps))
    assert series.nominal_fps == pytest.approx(15.0, rel=1e-9)
    cfg = AttentionConfig(threshold=0.2)
    integral, reading = integrate_attention(series, cfg)
    expected_integral, expected_reading = analytic_attention(truth, 0.2)
    step = 1.0 / spec.fps
    assert abs(integral - expected_integral) <= step * cfg.threshold + 1e-9
    assert abs(reading - expected_reading) <= step + 1e-9


def test_analytic_attention_threshold_cases():
    spec = scenario(
        reading_episodes=(
            ReadingEpisode(10.0, 40.0, 0.15),
            ReadingEpisode(50.0, 60.0, 0.10),
        )
    )
    _, _, truth = gen_landmark_stream(spec)
    integral, reading = analytic_attention(truth, 0.12)
    assert integral == pytest.approx(0.10 * 10.0)
    assert reading == pytest.approx(10.0)
    integral, reading = analytic_attention(truth, 0.2)
    assert integral == pytest.approx(0.15 * 30.0 + 0.10 * 10.0)
    assert reading == pytest.approx(40.0)
    # threshold above the baseline counts everything observed
    integral, reading = analytic_attention(truth, 0.5)
    assert reading == pytest.approx(truth.target_seconds)


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        scenario(reading_episodes=(ReadingEpisode(10.0, 5.0, 0.1),))
    with pytest.raises(ScenarioError):
        scenario(reading_episodes=(ReadingEpisode(0.0, 20.0, 0.1),
                                   ReadingEpisode(10.0, 30.0, 0.1)))
    with pytest.raises(ScenarioError):
        scenario(reading_episodes=(ReadingEpisode(0.0, 20.0, 0.4),))  # above baseline
    with pytest.raises(ScenarioError):
        scenario(gap_intervals=((0.0, 10.0), (5.0, 20.0)))
    with pytest.raises(ScenarioError):
        scenario(gap_intervals=((90.0, 110.0),))  # overlaps the default episode
    with pytest.raises(ScenarioError):
        scenario(identity_script=(ScriptInterval(95.0, 140.0, "reporter"),))
    with pytest.raises(ScenarioError):
        scenario(fps=0.0)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"reading_episodes": (ReadingEpisode(10.0, 5.0, 0.1),)},
         "episode (10.0, 5.0) outside conference"),
        ({"reading_episodes": (ReadingEpisode(290.0, 310.0, 0.1),)},
         "episode (290.0, 310.0) outside conference"),
        ({"reading_episodes": (ReadingEpisode(10.0, 30.0, 0.1), ReadingEpisode(0.0, 20.0, 0.1))},
         "reading episodes overlap"),
        ({"reading_episodes": (ReadingEpisode(0.0, 20.0, 0.4),)},
         "episode level 0.4 must be in [0, baseline 0.3)"),
        ({"gap_intervals": ((-1.0, 10.0),)}, "gap (-1.0, 10.0) outside conference"),
        ({"gap_intervals": ((5.0, 20.0), (0.0, 10.0))}, "gap intervals overlap"),
        ({"identity_script": (ScriptInterval(250.0, 301.0, "reporter"),)},
         "identity interval (250.0, 301.0) outside conference"),
        ({"identity_script": (ScriptInterval(0.0, 20.0, "chair"),
                              ScriptInterval(10.0, 30.0, "reporter"))},
         "identity intervals overlap"),
        ({"gap_intervals": ((90.0, 110.0),)},
         "episode (100.0, 130.0) overlaps a gap or an off-target interval"),
    ],
    ids=["episode-reversed", "episode-past-end", "episodes-overlap", "episode-level",
         "gap-before-start", "gaps-overlap", "identity-past-end", "identity-overlap",
         "episode-in-gap"],
)
def test_scenario_interval_messages(overrides, message):
    """Each list of intervals is checked inside the conference, then apart."""
    with pytest.raises(ScenarioError) as info:
        scenario(**overrides)
    assert str(info.value) == f"conf-t: {message}"


def test_fractional_length_segments_lie_inside_the_registry_q_and_a(tmp_path):
    """The registry's instants are whole microseconds: a Q&A of 100/3 s
    reads back as 33.333333 s, while the last segment ends at
    33.333333333333336 s.  The segments still lie inside the Q&A."""
    spec = ScenarioSpec(conference_id="conf-f", seed=1, date=date(2020, 1, 15), fps=3.0,
                        conference_length_s=100 / 3)
    build_fixture([spec], GallerySpec(), tmp_path)
    [record] = load_registry(tmp_path / "registry.json")
    segments = read_segments_csv(record.segments, record.conference_id)
    assert record.qa_duration_s() == 33.333333
    assert segments.segments[-1][1] == 100 / 3
    variables = benchmark_variables(gen_transcript(spec), segments, record.qa_duration_s())
    assert variables["log_chair_speech"] == math.log(100 / 3)


def test_scenario_timeline_span_checked():
    qa = datetime(2020, 1, 15, 14, 30, tzinfo=TZ)
    with pytest.raises(ScenarioError):
        scenario(
            timeline=ConferenceTimeline(qa, qa + timedelta(seconds=200),
                                        qa.replace(hour=16, minute=0))
        )


def test_default_timeline_checked():
    """Without a timeline, a Q&A that ends after the 16:00 close is refused."""
    with pytest.raises(ScenarioError) as info:
        scenario(conference_length_s=7200.0, reading_episodes=())
    assert str(info.value) == (
        "conf-t: default timeline: expected qa_start < conference_end < trading_close, "
        "got 2020-01-15 14:30:00-04:00 / 2020-01-15 16:30:00-04:00 / 2020-01-15 16:00:00-04:00"
    )


def test_scenario_file_timeline_order_message(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "conference_id": "c1", "seed": 1, "date": "2020-01-15", "fps": 1.0,
        "conference_length_s": 60.0,
        "timeline": {"qa_start": "2020-01-15T14:30:00-04:00",
                     "conference_end": "2020-01-15T14:31:00-04:00",
                     "trading_close": "2020-01-15T14:00:00-04:00"},
    }))
    with pytest.raises(ScenarioError) as info:
        run_synth(path, tmp_path / "fx")
    assert str(info.value) == (
        f"scenario file {path}: timeline: expected qa_start < conference_end < "
        "trading_close, got 2020-01-15 14:30:00-04:00 / 2020-01-15 14:31:00-04:00 / "
        "2020-01-15 14:00:00-04:00"
    )
    assert not (tmp_path / "fx").exists()


def test_gallery_separation_validation():
    with pytest.raises(ScenarioError):
        gen_gallery(["a", "b"], cluster_radius=0.4, seed=1, separation=1.0)


def test_gallery_queries_classify_to_their_cluster():
    labels = ["alpha", "beta", "gamma"]
    gallery, queries = gen_gallery(labels, cluster_radius=0.05, seed=11, separation=1.0)
    config = IdentityConfig(epsilon=0.5)
    assert len(queries) == 12
    got = classify_batch(np.array([query for _, query in queries]), gallery, config)
    assert got == [label for label, _ in queries]


def test_gallery_zero_epsilon_all_unknown():
    gallery, queries = gen_gallery(["a", "b"], cluster_radius=0.05, seed=2)
    config = IdentityConfig(epsilon=0.0)
    got = classify_batch(np.array([query for _, query in queries]), gallery, config)
    assert got == [None] * len(queries)


def test_single_label_gallery_classifies_in_ball_queries():
    gallery, queries = gen_gallery(["only"], cluster_radius=0.05, seed=5)
    config = IdentityConfig(epsilon=0.5)
    got = classify_batch(np.array([query for _, query in queries]), gallery, config)
    assert got == ["only"] * len(queries)


def default_timeline(day=15, length_min=45):
    qa = datetime(2020, 1, day, 14, 30, tzinfo=TZ)
    return ConferenceTimeline(qa, qa + timedelta(minutes=length_min),
                              qa.replace(hour=16, minute=0))


def test_price_series_zero_vol_exact_drift():
    spec = scenario(
        conference_length_s=2700.0,
        reading_episodes=(),
        timeline=default_timeline(),
        price_spec=PriceSpec(base_price=100.0, minute_vol=0.0,
                             drift_during_qa=0.001, vol_after_factor=1.0),
    )
    bars, truth = gen_price_series(spec)
    assert truth.n_qa_steps == 45
    assert truth.expected_return_during == pytest.approx(0.045)
    series = PriceSeries(*zip(*bars))
    stats = event_window_stats(series, spec.timeline, spec.conference_id)
    assert stats["return_during"] == pytest.approx(0.045, rel=1e-9)
    assert stats["return_after"] == pytest.approx(0.0, abs=1e-12)
    assert stats["vol_before"] == 0.0
    assert stats["vol_after"] == 0.0


def test_price_series_zero_everything_is_flat():
    spec = scenario(
        conference_length_s=2700.0,
        reading_episodes=(),
        timeline=default_timeline(),
        price_spec=PriceSpec(base_price=100.0, minute_vol=0.0,
                             drift_during_qa=0.0, vol_after_factor=1.0),
    )
    bars, _ = gen_price_series(spec)
    assert all(b.price == pytest.approx(100.0, abs=1e-12) for b in bars)


def test_price_series_vol_factor_shows_up_in_realized_ratio():
    ratios = []
    for seed in range(10):
        spec = scenario(
            conference_id=f"conf-{seed}",
            seed=seed,
            conference_length_s=2700.0,
            reading_episodes=(),
            timeline=default_timeline(length_min=45),
            price_spec=PriceSpec(base_price=100.0, minute_vol=0.002,
                                 drift_during_qa=0.0, vol_after_factor=0.5),
        )
        bars, _ = gen_price_series(spec)
        stats = event_window_stats(PriceSeries(*zip(*bars)), spec.timeline, spec.conference_id)
        ratios.append(stats["vol_after"] / stats["vol_before"])
    assert abs(np.mean(ratios) - 0.5) < 0.1


# sha256 of the price CSV of the scenario below, as the per-minute walk wrote
# it.  The Q&A starts and ends off the minute grid, and every step kind (before,
# during with drift, after with scaled volatility) occurs.
PRICE_PINNED_SHA256 = "17055e488cc1b571060e6220886b61cd705c831ed9cd7b861008c06d43e3b057"


def test_price_csv_bytes_are_pinned(tmp_path):
    qa = datetime(2020, 1, 15, 14, 30, 20, tzinfo=TZ)
    spec = scenario(
        conference_id="conf-pin",
        seed=11,
        conference_length_s=2730.0,
        reading_episodes=(),
        timeline=ConferenceTimeline(qa, qa + timedelta(seconds=2730),
                                    qa.replace(hour=16, minute=0, second=0)),
        price_spec=PriceSpec(base_price=123.4, minute_vol=0.003,
                             drift_during_qa=0.0007, vol_after_factor=0.6),
    )
    bars, truth = gen_price_series(spec)
    assert (truth.n_bars, truth.n_qa_steps) == (210, 45)
    times, prices = zip(*bars)
    stamps = minute_stamps(times[0], len(times))
    assert stamps == list(map(datetime.isoformat, times))
    path = tmp_path / "prices.csv"
    write_csv(path, PRICE_COLUMNS, zip(stamps, prices), "0" * 12)
    # The pin covers the header and the rows, after the stamp line.
    stamp, rows = path.read_bytes().split(b"\n", 1)
    assert stamp.startswith(b"# config_hash=000000000000 ")
    assert hashlib.sha256(rows).hexdigest() == PRICE_PINNED_SHA256


def test_price_series_deterministic():
    spec = scenario(timeline=default_timeline(), conference_length_s=2700.0,
                    reading_episodes=())
    a, _ = gen_price_series(spec)
    b, _ = gen_price_series(spec)
    assert a == b


@pytest.mark.parametrize("start", [
    datetime(2020, 1, 15, 12, 30, tzinfo=TZ),  # on the minute grid
    datetime(2020, 1, 15, 12, 30, 20, tzinfo=TZ),  # off it, as in the price pin
    datetime(2020, 1, 15, 12, 30, 20, 250000, tzinfo=TZ),
    datetime(2020, 1, 15, 12, 30, 0, 7, tzinfo=TZ),
    datetime(2020, 1, 15, 23, 58, 59, tzinfo=timezone.utc),  # crosses midnight
    datetime(2020, 2, 28, 23, 0, tzinfo=timezone(timedelta(hours=5, minutes=30))),
    datetime(2020, 1, 15, 9, 45, 1, tzinfo=timezone(timedelta(hours=-4))),
    datetime(1899, 12, 31, 23, 0, 30, tzinfo=timezone(timedelta(hours=1, seconds=15))),
])
def test_minute_stamps_match_isoformat(start):
    for n in (0, 1, 150, 3000):  # 3000 minutes cross at least two midnights
        expected = [(start + k * timedelta(minutes=1)).isoformat() for k in range(n)]
        assert minute_stamps(start, n) == expected


def test_cluster_center_is_shared_read_only():
    """Repeated calls share one array, so no caller may write to it."""
    center = cluster_center("chair", 1.0)
    assert cluster_center("chair", 1.0) is center
    with pytest.raises(ValueError):
        center[0] = 0.0


class _HourAhead(tzinfo):
    """A tzinfo that is not a datetime.timezone, as zoneinfo's are not."""

    def utcoffset(self, dt):
        return timedelta(hours=1)

    def dst(self, dt):
        return timedelta(0)


def test_timeline_needs_fixed_offsets():
    qa = datetime(2020, 1, 15, 14, 30, tzinfo=_HourAhead())
    timeline = ConferenceTimeline(qa, qa + timedelta(minutes=5), qa.replace(hour=16))
    with pytest.raises(ScenarioError) as info:
        scenario(timeline=timeline, conference_length_s=300.0, reading_episodes=())
    assert str(info.value) == "conf-t: timeline instants need fixed offsets"
    # A naive instant has no offset at all, so the timeline itself refuses it.
    with pytest.raises(ConfigError) as info:
        ConferenceTimeline(qa.replace(tzinfo=None), qa + timedelta(minutes=5), qa.replace(hour=16))
    assert str(info.value) == "timeline qa_start 2020-01-15 14:30:00 lacks a UTC offset"


def tree_sha256(root: Path) -> str:
    """sha256 over every file's path relative to root, its size and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(rel), rel, len(data)))
        digest.update(data)
    return digest.hexdigest()


def off_grid_suite() -> dict:
    """Three conferences whose explicit -04:00 timelines start off the
    minute grid, one of them at half a second."""
    starts = [datetime(2019, 3, 20, 14, 30, 20, tzinfo=TZ),
              datetime(2019, 5, 1, 10, 15, 45, 500000, tzinfo=TZ),
              datetime(2019, 6, 19, 13, 2, 7, tzinfo=TZ)]
    suite = []
    for i, (qa, length) in enumerate(zip(starts, [630.0, 845.25, 512.0])):
        suite.append({
            "conference_id": f"off-{i + 1}", "seed": 40 + i, "date": qa.date().isoformat(),
            "fps": 2.0, "conference_length_s": length,
            "reading_episodes": [{"start_s": 100.0, "end_s": 160.0, "ear_level": 0.15}],
            "identity_script": [{"start_s": 10.0, "end_s": 30.0, "label": "reporter"}],
            "blink_rate_hz": 0.2,
            "price_spec": {"base_price": 2500.0 + i, "minute_vol": 0.002,
                           "drift_during_qa": 0.0004 * (i - 1), "vol_after_factor": 0.7},
            "timeline": {
                "qa_start": qa.isoformat(),
                "conference_end": (qa + timedelta(seconds=length)).isoformat(),
                "trading_close": qa.replace(hour=16, minute=0, second=0,
                                            microsecond=0).isoformat(),
            },
        })
    return {"scenarios": suite, "gallery": {"labels": ["chair", "reporter"], "seed": 5}}


# sha256 (tree_sha256) of whole synth fixture trees, as the per-bar datetime
# and nested-list writers wrote them.
@pytest.mark.parametrize("scenario_file, pinned", [
    ({"study": {"seed": 2024, "n_conferences": 4}},
     "5d8f18ad4531dad2394390d315582ab35c4aaa184b9772c21d77f5857595dfc7"),
    (off_grid_suite(), "f93c0f4a4d0256f5fbab88e72db0b1002e040ebb059252d3389d4939a09ae46f"),
], ids=["study-4", "off-grid-suite"])
def test_fixture_tree_bytes_are_pinned(tmp_path, scenario_file, pinned):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_file))
    run_synth(path, tmp_path / "fixture")
    assert tree_sha256(tmp_path / "fixture") == pinned


def test_scenario_json_round_trip():
    spec = scenario(
        gap_intervals=((200.0, 220.0),),
        identity_script=(ScriptInterval(10.0, 20.0, "reporter"),),
        timeline=default_timeline(length_min=5),
        conference_length_s=300.0,
        reading_episodes=(ReadingEpisode(100.0, 130.0, 0.15),),
    )
    assert read(ScenarioSpec, to_json(spec), "scenario", ScenarioError) == spec


def test_planted_study_scenarios_shape():
    scenarios, gallery_spec, truth = planted_study_scenarios(seed=9, n_conferences=45)
    assert len(scenarios) == 45
    assert gallery_spec.labels == ("chair", "reporter")
    per_conf = truth["per_conference"]
    assert len(per_conf) == 45
    # deltas agree with consecutive log-attention differences
    values = [per_conf[s.conference_id]["target_log_attention"] for s in scenarios]
    for i, s in enumerate(scenarios):
        delta = per_conf[s.conference_id]["delta_log_attention"]
        if i == 0:
            assert delta is None
        else:
            assert delta == pytest.approx(values[i] - values[i - 1])
    # drift encodes the planted slope
    for i, s in enumerate(scenarios[1:], start=1):
        info = per_conf[s.conference_id]
        assert s.price_spec.drift_during_qa == pytest.approx(
            0.005 * info["delta_log_attention"] / info["qa_minutes"]
        )
        assert s.price_spec.vol_after_factor < 1.0
    # episode durations match the log-attention targets
    for s in scenarios:
        ep = s.reading_episodes[0]
        expected = math.exp(per_conf[s.conference_id]["target_log_attention"])
        assert ep.ear_level * (ep.end_s - ep.start_s) == pytest.approx(expected)


def test_planted_study_deterministic():
    a, _, _ = planted_study_scenarios(seed=4, n_conferences=5)
    b, _, _ = planted_study_scenarios(seed=4, n_conferences=5)
    assert a == b
