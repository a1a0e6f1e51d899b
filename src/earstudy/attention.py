"""Per-conference attention measures from gap-aware EAR time series.

The attention integral accumulates sub-threshold EAR values over the
conference as a left Riemann sum with a fixed step of one nominal frame
interval, so camera-away gaps (stretches with no samples) contribute
nothing.  Its natural log is first-differenced across consecutive
conferences to obtain a stationary regressor.

The module reads speaker segments (read_segments_csv) and writes no file:
the pipeline writes the EAR series with output.write_csv and EAR_COLUMNS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import output
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    InsufficientDataError,
    MalformedRecordError,
)

FLOOR_POLICIES = ("error", "epsilon_floor")
SPEAKER_TAGS = ("chair", "reporter")


@dataclass(frozen=True)
class AttentionConfig:
    """Threshold and gap handling for the attention integral.

    threshold is the EAR level below which the speaker counts as looking
    down; 0.2 is the conventional closed-eye boundary in the blink-detection
    literature.  Spacings larger than gap_factor nominal frame intervals are
    treated as gaps.  floor_policy governs conferences whose integral is 0:
    "error" refuses to take the log, "epsilon_floor" substitutes floor_value.
    """

    threshold: float = 0.2
    gap_factor: float = 3.0
    floor_policy: str = "error"
    floor_value: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("threshold", "gap_factor", "floor_value"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.threshold <= 0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")
        if self.gap_factor <= 1:
            raise ConfigError(f"gap_factor must be > 1, got {self.gap_factor}")
        if self.floor_policy not in FLOOR_POLICIES:
            raise ConfigError(
                f"floor_policy must be one of {FLOOR_POLICIES}, got {self.floor_policy!r}"
            )
        if self.floor_policy == "epsilon_floor" and self.floor_value <= 0:
            raise ConfigError(f"floor_value must be positive, got {self.floor_value}")


@dataclass(frozen=True, eq=False)
class EarSeries:
    """One conference's EAR samples as two float64 columns at a nominal
    frame rate: timestamps strictly increasing, values finite and >= 0."""

    conference_id: str
    timestamps: np.ndarray
    values: np.ndarray
    nominal_fps: float

    def __post_init__(self) -> None:
        if self.nominal_fps <= 0:
            raise ConfigError(f"nominal_fps must be positive, got {self.nominal_fps}")
        timestamps = np.asarray(self.timestamps, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if timestamps.ndim != 1 or timestamps.shape != values.shape:
            raise ValueError(f"{timestamps.shape} timestamps but {values.shape} values")
        if not np.all(np.diff(timestamps) > 0):  # also false for a NaN
            raise MalformedRecordError(
                f"conference {self.conference_id!r}: timestamps not strictly increasing"
            )
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise MalformedRecordError(
                f"conference {self.conference_id!r}: EAR values must be finite and >= 0"
            )
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def step(self) -> float:
        return 1.0 / self.nominal_fps

    def gap_spans(self, gap_factor: float) -> list[tuple[float, float]]:
        """Inter-sample spans wider than gap_factor nominal frame intervals."""
        ts = self.timestamps
        cut = gap_factor * self.step
        return [(float(ts[i]), float(ts[i + 1])) for i in np.nonzero(np.diff(ts) > cut)[0]]

    @property
    def end_s(self) -> float:
        if not len(self):
            raise DataError(f"conference {self.conference_id!r}: empty EAR series")
        return float(self.timestamps[-1])

    @property
    def observed_s(self) -> float:
        """Total sampled time: one nominal frame interval per sample."""
        return len(self) * self.step


@dataclass(frozen=True)
class BenchmarkVariables:
    """Log complexity proxies: question count, Q&A length, chair speech time."""

    log_n_questions: float
    log_qa_duration: float
    log_chair_speech: float


@dataclass(frozen=True)
class ConferenceAttention:
    """Attention summary for one conference, ready for the event study."""

    conference_id: str
    attention_integral: float
    log_attention: float
    reading_time_s: float
    end_s: float
    observed_s: float
    n_samples: int
    n_gaps: int


@dataclass(frozen=True)
class SpeakerSegments:
    """Non-overlapping, time-ordered speaker turns within one conference."""

    conference_id: str
    segments: tuple[tuple[float, float, str], ...]

    def __post_init__(self) -> None:
        prev_end = -math.inf
        for start, end, tag in self.segments:
            if tag not in SPEAKER_TAGS:
                raise MalformedRecordError(
                    f"conference {self.conference_id!r}: unknown speaker tag {tag!r}"
                )
            if end <= start:
                raise MalformedRecordError(
                    f"conference {self.conference_id!r}: segment ends at or before its start"
                )
            if start < prev_end:
                raise MalformedRecordError(
                    f"conference {self.conference_id!r}: segments overlap or are out of order"
                )
            prev_end = end

    def speaker_seconds(self, tag: str) -> float:
        return sum(end - start for start, end, t in self.segments if t == tag)


def integrate_attention(
    series: EarSeries, config: AttentionConfig
) -> tuple[float, float]:
    """Attention integral and sub-threshold time for one conference.

    Returns (integral, reading_time_s): the integral sums value * step over
    samples strictly below the threshold; reading_time_s counts step seconds
    per such sample.  Gaps contribute nothing because only samples are
    summed.
    """
    if not len(series):
        raise DataError(f"conference {series.conference_id!r}: empty EAR series")
    values = series.values
    below = values < config.threshold
    integral = float(values[below].sum() * series.step)
    reading_time = float(below.sum() * series.step)
    return integral, reading_time


def log_attention_level(
    integral: float, config: AttentionConfig, conference_id: str = ""
) -> float:
    """Natural log of the attention integral, honoring the floor policy."""
    if integral > 0 and math.isfinite(integral):
        if config.floor_policy == "epsilon_floor":
            return math.log(max(integral, config.floor_value))
        return math.log(integral)
    if config.floor_policy == "epsilon_floor":
        return math.log(config.floor_value)
    raise DomainError(
        f"conference {conference_id!r}: attention integral {integral} has no log; "
        "configure an epsilon_floor policy or exclude the conference"
    )


def delta_series(values: Sequence[float]) -> np.ndarray:
    """First differences of a date-ordered per-conference sequence.

    The output has one fewer element than the input; the first conference
    has no delta.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InsufficientDataError(
            f"need at least 2 ordered values to difference, got {arr.size}"
        )
    return np.diff(arr)


def benchmark_variables(
    transcript: str,
    segments: SpeakerSegments,
    qa_duration_s: float,
) -> BenchmarkVariables:
    """Log question count, log Q&A duration, log chair speaking time."""
    if qa_duration_s <= 0:
        raise ConfigError(
            f"conference {segments.conference_id!r}: qa_duration_s must be positive"
        )
    n_questions = transcript.count("?")
    if n_questions == 0:
        raise DomainError(
            f"conference {segments.conference_id!r}: transcript contains no questions; "
            "log question count undefined"
        )
    chair_seconds = segments.speaker_seconds("chair")
    if chair_seconds <= 0:
        raise DomainError(
            f"conference {segments.conference_id!r}: no chair speaking time; "
            "log duration undefined"
        )
    return BenchmarkVariables(
        log_n_questions=math.log(n_questions),
        log_qa_duration=math.log(qa_duration_s),
        log_chair_speech=math.log(chair_seconds),
    )


def estimate_fps(timestamps: Sequence[float] | np.ndarray) -> float:
    """Nominal frame rate as the reciprocal of the median sample spacing."""
    if len(timestamps) < 2:
        raise InsufficientDataError(
            f"need at least 2 samples to estimate the frame rate, got {len(timestamps)}"
        )
    # np.median's value (NaN if a NaN sorts last) without importing numpy.ma.
    spacings = np.sort(np.diff(timestamps)).tolist()
    mid = len(spacings) // 2
    med = spacings[mid] if len(spacings) % 2 else (spacings[mid - 1] + spacings[mid]) / 2.0
    if math.isnan(spacings[-1]):
        med = math.nan
    if med <= 0:
        raise MalformedRecordError("non-increasing timestamps in EAR samples")
    return 1.0 / med


def summarize_conference(series: EarSeries, config: AttentionConfig) -> ConferenceAttention:
    integral, reading_time = integrate_attention(series, config)
    return ConferenceAttention(
        conference_id=series.conference_id,
        attention_integral=integral,
        log_attention=log_attention_level(integral, config, series.conference_id),
        reading_time_s=reading_time,
        end_s=series.end_s,
        observed_s=series.observed_s,
        n_samples=len(series),
        n_gaps=len(series.gap_spans(config.gap_factor)),
    )


# ---------------------------------------------------------------------------
# CSV columns, in the format of output.write_csv/read_csv: EAR series
# ("timestamp_s,ear"), written only, and speaker segments
# ("start_s,end_s,speaker"), read and written.
# ---------------------------------------------------------------------------

EAR_COLUMNS = ("timestamp_s", "ear")
SEGMENT_COLUMNS = ("start_s", "end_s", "speaker")


def read_segments_csv(path: str | Path, conference_id: str) -> SpeakerSegments:
    rows = output.read_csv(
        path,
        SEGMENT_COLUMNS,
        lambda row: (float(row[0]), float(row[1]), row[2].strip()),
        "segment",
    )
    return SpeakerSegments(conference_id, tuple(rows))
