import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earstudy import (
    AttentionConfig,
    ConfigError,
    DataError,
    DomainError,
    EarSeries,
    InsufficientDataError,
    MalformedRecordError,
    SpeakerSegments,
    benchmark_variables,
    delta_series,
    integrate_attention,
    log_attention_level,
)
from earstudy.attention import (
    EAR_COLUMNS,
    SEGMENT_COLUMNS,
    estimate_fps,
    read_segments_csv,
    summarize_conference,
)
from earstudy.output import write_csv

from oracles import read_ear_rows


def series(values, fps=2.0, start=None, conference_id="c"):
    """Series sampled on the (k+1)/fps grid unless start is given."""
    step = 1.0 / fps
    first = step if start is None else start
    timestamps = first + step * np.arange(len(values))
    return EarSeries(conference_id, timestamps, values, fps)


def sample_trace(episodes, baseline, length, fps):
    """Piecewise-constant trace sampled at interval midpoints."""
    step = 1.0 / fps
    values = []
    for k in range(round(length * fps)):
        mid = (k + 0.5) * step
        level = baseline
        for start, end, lv in episodes:
            if start <= mid < end:
                level = lv
                break
        values.append(level)
    return series(values, fps=fps)


CONFIG = AttentionConfig(threshold=0.2)


@pytest.mark.parametrize("name", ["threshold", "gap_factor", "floor_value"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_attention_config_rejects_non_finite(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        AttentionConfig(**{name: value})


def test_integrate_worked_example():
    s = series([0.30, 0.15, 0.10, 0.25], fps=2.0)
    integral, reading = integrate_attention(s, CONFIG)
    assert integral == pytest.approx(0.125, abs=1e-15)
    assert reading == pytest.approx(1.0, abs=1e-15)


def test_integrate_all_above_threshold_is_zero():
    integral, reading = integrate_attention(series([0.3, 0.25, 0.4]), CONFIG)
    assert integral == 0.0
    assert reading == 0.0


def test_integrate_gap_contributes_nothing():
    values = [0.30, 0.15, 0.10, 0.25]
    base = series(values, fps=2.0)
    shifted = EarSeries("c", base.timestamps + [0.0, 0.0, 30.0, 30.0], base.values, 2.0)
    assert integrate_attention(shifted, CONFIG) == integrate_attention(base, CONFIG)
    assert len(shifted.gap_spans(CONFIG.gap_factor)) == 1


def test_integrate_empty_series_errors():
    with pytest.raises(DataError):
        integrate_attention(EarSeries("c", [], [], 2.0), CONFIG)


def test_series_rejects_nonincreasing_timestamps():
    with pytest.raises(MalformedRecordError):
        EarSeries("c", [1.0, 1.0], [0.3, 0.2], 2.0)


@pytest.mark.parametrize("timestamps", [[1.0, math.nan], [math.nan, 1.0]])
def test_series_rejects_nan_timestamp(timestamps):
    with pytest.raises(MalformedRecordError, match="timestamps not strictly increasing"):
        EarSeries("c", timestamps, [0.3, 0.2], 2.0)


def test_series_rejects_negative_values():
    with pytest.raises(MalformedRecordError):
        EarSeries("c", [1.0], [-0.1], 2.0)


def test_log_level_identities():
    assert log_attention_level(1.0, CONFIG) == 0.0
    assert log_attention_level(math.e, CONFIG) == pytest.approx(1.0, abs=1e-15)


def test_log_level_zero_errors_under_error_policy():
    with pytest.raises(DomainError, match="conf-x"):
        log_attention_level(0.0, CONFIG, "conf-x")


def test_log_level_floor_policy():
    cfg = AttentionConfig(threshold=0.2, floor_policy="epsilon_floor", floor_value=1e-6)
    assert log_attention_level(0.0, cfg) == pytest.approx(math.log(1e-6))
    assert log_attention_level(5.0, cfg) == pytest.approx(math.log(5.0))


def test_delta_constant_series():
    assert delta_series([1.0, 1.0, 1.0]).tolist() == [0.0, 0.0]


def test_delta_definition():
    assert delta_series([0.0, 0.5, 0.2]) == pytest.approx([0.5, -0.3], abs=1e-15)


def test_delta_log_equals_log_ratio():
    rng = np.random.default_rng(2)
    lams = rng.uniform(0.1, 50.0, size=20)
    deltas = delta_series(np.log(lams))
    ratios = np.log(lams[1:] / lams[:-1])
    assert deltas == pytest.approx(ratios, abs=1e-12)


def test_delta_requires_two_values():
    with pytest.raises(InsufficientDataError):
        delta_series([1.0])


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=30))
@settings(max_examples=100, deadline=None)
def test_delta_inverts_cumulative_sum(increments):
    arr = np.asarray(increments)
    assert delta_series(np.cumsum(arr)) == pytest.approx(arr[1:], abs=1e-9)


def segments(*rows):
    return SpeakerSegments("c", tuple(rows))


def test_benchmark_question_count():
    got = benchmark_variables("A? B? C.", segments((0.0, 300.0, "chair")), 600.0)
    assert got.log_n_questions == pytest.approx(math.log(2), abs=1e-15)


def test_benchmark_single_chair_segment():
    got = benchmark_variables("?", segments((0.0, 300.0, "chair")), 600.0)
    assert got.log_chair_speech == pytest.approx(math.log(300.0), abs=1e-15)


def test_benchmark_chair_segment_sum():
    segs = segments((0.0, 100.0, "chair"), (100.0, 160.0, "reporter"), (160.0, 400.0, "chair"))
    got = benchmark_variables("?", segs, 400.0)
    assert got.log_chair_speech == pytest.approx(math.log(340.0), abs=1e-12)
    assert got.log_qa_duration == pytest.approx(math.log(400.0), abs=1e-15)


def test_benchmark_zero_questions_errors():
    with pytest.raises(DomainError):
        benchmark_variables("no questions here.", segments((0.0, 10.0, "chair")), 60.0)


def test_benchmark_zero_chair_time_errors():
    with pytest.raises(DomainError):
        benchmark_variables("?", segments((0.0, 10.0, "reporter")), 60.0)


def test_benchmark_bad_window_errors():
    with pytest.raises(ConfigError):
        benchmark_variables("?", segments((0.0, 10.0, "chair")), 0.0)


def test_segments_validation():
    with pytest.raises(MalformedRecordError):
        segments((0.0, 10.0, "chair"), (5.0, 15.0, "reporter"))
    with pytest.raises(MalformedRecordError):
        segments((10.0, 10.0, "chair"))
    with pytest.raises(MalformedRecordError):
        segments((0.0, 10.0, "audience"))


@given(
    st.lists(st.floats(0.0, 0.6), min_size=1, max_size=50),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=100, deadline=None)
def test_integral_monotone_in_threshold(values, c, bump):
    s = series(values, fps=5.0)
    lo_cfg = AttentionConfig(threshold=c)
    hi_cfg = AttentionConfig(threshold=c + bump + 1e-9)
    lo_int, lo_read = integrate_attention(s, lo_cfg)
    hi_int, hi_read = integrate_attention(s, hi_cfg)
    assert hi_int >= lo_int - 1e-15
    assert hi_read >= lo_read


@given(
    st.lists(st.floats(0.0, 0.6), min_size=1, max_size=50),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_integral_bounds(values, c):
    s = series(values, fps=5.0)
    integral, reading = integrate_attention(s, AttentionConfig(threshold=c))
    assert integral <= c * reading + 1e-12
    assert reading <= s.observed_s + 1e-12
    assert s.observed_s <= s.end_s + 1e-9


def test_riemann_convergence_on_piecewise_trace():
    episodes = [(40.0, 100.3, 0.12), (150.7, 200.0, 0.15)]
    cfg = AttentionConfig(threshold=0.2)
    lam = {}
    for fps in (10.0, 20.0):
        integral, _ = integrate_attention(sample_trace(episodes, 0.3, 300.0, fps), cfg)
        lam[fps] = integral
    assert abs(lam[20.0] - lam[10.0]) < 0.01 * lam[10.0]


def test_planted_recovery_within_discretization_bound():
    episodes = [(30.0, 75.5, 0.15), (120.0, 180.25, 0.15), (200.0, 230.0, 0.15)]
    total = sum(e - s for s, e, _ in episodes)
    fps = 5.0
    cfg = AttentionConfig(threshold=0.2)
    integral, reading = integrate_attention(sample_trace(episodes, 0.3, 300.0, fps), cfg)
    step = 1.0 / fps
    assert abs(reading - total) <= len(episodes) * step + 1e-9
    assert abs(integral - 0.15 * total) <= len(episodes) * step * cfg.threshold + 1e-9


def test_estimate_fps_median_spacing():
    timestamps = np.append(0.1 * np.arange(1, 11), 5.0)  # one gap must not bias the median
    assert estimate_fps(timestamps) == pytest.approx(10.0, rel=1e-9)
    with pytest.raises(InsufficientDataError):
        estimate_fps(timestamps[:1])


def test_estimate_fps_median_is_np_median_bitwise():
    """The median spacing is np.median's to the bit, for odd and even
    counts, tied spacings, and a NaN (which makes it NaN)."""
    rng = np.random.default_rng(3)
    for n in range(2, 401):
        for timestamps in (np.cumsum(rng.exponential(0.04, n)), np.round(np.arange(n) / 30.0, 2)):
            expected = np.float64(1.0 / float(np.median(np.diff(timestamps))))
            assert np.float64(estimate_fps(timestamps)).tobytes() == expected.tobytes(), n
    assert math.isnan(estimate_fps(np.array([0.0, 1.0, math.nan, 3.0, 2.0, 1.0])))


def test_summarize_conference_fields():
    s = series([0.30, 0.15, 0.10, 0.25], fps=2.0)
    summary = summarize_conference(s, CONFIG)
    assert summary.attention_integral == pytest.approx(0.125)
    assert summary.log_attention == pytest.approx(math.log(0.125))
    assert summary.n_samples == 4
    assert summary.end_s == 2.0
    assert summary.observed_s == pytest.approx(2.0)


def test_ear_csv_round_trip_exact(tmp_path):
    timestamps = 0.5 * np.arange(1, 11)
    values = 0.1 + 0.01 * np.arange(10)
    path = tmp_path / "ear.csv"
    write_csv(path, EAR_COLUMNS, zip(timestamps.tolist(), values.tolist()), "abc")
    assert read_ear_rows(path) == (timestamps.tolist(), values.tolist())


def test_segments_csv_round_trip(tmp_path):
    segs = segments((0.0, 100.0, "chair"), (100.0, 160.0, "reporter"))
    path = tmp_path / "segments.csv"
    write_csv(path, SEGMENT_COLUMNS, segs.segments, "x")
    loaded = read_segments_csv(path, "c")
    assert loaded.segments == segs.segments

