"""Per-conference attention measures from gap-aware EAR time series.

The attention integral accumulates sub-threshold EAR values over the
conference as a left Riemann sum with a fixed step of one nominal frame
interval, the video's (estimate_fps, over the whole landmark stream), so
camera-away gaps (stretches with no samples) contribute nothing.  Its
natural log is first-differenced across consecutive conferences to obtain
a stationary regressor.

The module reads speaker segments (read_segments_csv, through
output.read_columns) and writes no file:
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
# How far a segment may end past the Q&A: the registry's instants are whole
# microseconds, so a 100/3 s Q&A reads back as 33.333333 s.  synth allows the
# same between a timeline's span and conference_length_s.
QA_LENGTH_SLACK_S = 1e-6


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

    def floors(self, integral: float) -> bool:
        """Whether the floor policy logs floor_value in place of integral:
        under "epsilon_floor", for an integral below floor_value or not
        finite."""
        return self.floor_policy == "epsilon_floor" and not (
            self.floor_value <= integral < math.inf)


@dataclass(frozen=True, eq=False)
class EarSeries:
    """One conference's EAR samples as two float64 columns at a nominal
    frame rate: timestamps strictly increasing, values finite and >= 0."""

    conference_id: str
    timestamps: np.ndarray
    values: np.ndarray
    nominal_fps: float

    def __post_init__(self) -> None:
        if not 0 < self.nominal_fps < math.inf:  # also true for a NaN
            raise ConfigError(f"nominal_fps must be positive and finite, got {self.nominal_fps}")
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

    def n_gaps(self, gap_factor: float) -> int:
        """How many inter-sample spans are wider than gap_factor nominal
        frame intervals."""
        return int(np.count_nonzero(np.diff(self.timestamps) > gap_factor * self.step))


@dataclass(frozen=True)
class SpeakerSegments:
    """Non-overlapping, time-ordered speaker turns with finite bounds
    within one conference."""

    conference_id: str
    segments: tuple[tuple[float, float, str], ...]

    def __post_init__(self) -> None:
        prev_end = -math.inf
        for start, end, tag in self.segments:
            if not (math.isfinite(start) and math.isfinite(end)):
                raise MalformedRecordError(
                    f"conference {self.conference_id!r}: segment bounds must be finite"
                )
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
    if config.floors(integral):
        return math.log(config.floor_value)
    if integral > 0 and math.isfinite(integral):
        return math.log(integral)
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
) -> dict[str, float]:
    """attention.csv's log question count, log Q&A duration and log chair
    speaking time."""
    if qa_duration_s <= 0:
        raise ConfigError(
            f"conference {segments.conference_id!r}: qa_duration_s must be positive"
        )
    turns = segments.segments  # time-ordered: the first starts first, the last ends last
    if turns and (turns[0][0] < 0 or turns[-1][1] > qa_duration_s + QA_LENGTH_SLACK_S):
        raise MalformedRecordError(f"conference {segments.conference_id!r}: segments run "
                                   f"outside the Q&A (0 to {qa_duration_s} s)")
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
    return {
        "log_n_questions": math.log(n_questions),
        "log_qa_duration": math.log(qa_duration_s),
        "log_chair_speech": math.log(chair_seconds),
    }


def estimate_fps(timestamps: Sequence[float] | np.ndarray) -> float:
    """A video's frame rate from the finite, non-decreasing timestamps of
    its whole landmark stream: the reciprocal of the median positive
    spacing.  The records of one frame share a timestamp, so a spacing of 0
    is not a frame interval."""
    spacings = np.diff(timestamps)
    # np.median's value without importing numpy.ma.
    spacings = np.sort(spacings[spacings > 0]).tolist()
    if not spacings:
        raise InsufficientDataError("need at least 2 distinct timestamps to estimate the "
                                    f"frame rate, got {min(len(timestamps), 1)}")
    mid = len(spacings) // 2
    return 1.0 / (spacings[mid] if len(spacings) % 2
                  else (spacings[mid - 1] + spacings[mid]) / 2.0)


def summarize_conference(series: EarSeries, config: AttentionConfig) -> dict:
    """attention.csv's fields of one EAR series: observed_s is one nominal
    frame interval per sample, and end_s the last sample's time."""
    integral, reading_time = integrate_attention(series, config)
    return {
        "conference_id": series.conference_id,
        "attention_integral": integral,
        "log_attention": log_attention_level(integral, config, series.conference_id),
        "reading_time_s": reading_time,
        "end_s": float(series.timestamps[-1]),
        "observed_s": len(series) * series.step,
        "n_samples": len(series),
        "n_gaps": series.n_gaps(config.gap_factor),
    }


# ---------------------------------------------------------------------------
# CSV columns, in output.write_csv's format: EAR series ("timestamp_s,ear"),
# written only; speaker segments ("start_s,end_s,speaker"), read through
# output.read_columns and written; and the attention table, one row per
# conference: summarize_conference's and benchmark_variables's fields, the
# registry date, and the first difference of each log column ("delta_" and
# its name; None for the first conference).
# ---------------------------------------------------------------------------

EAR_COLUMNS = ("timestamp_s", "ear")
SEGMENT_COLUMNS = ("start_s", "end_s", "speaker")
ATTENTION_COLUMNS = (
    "conference_id", "date", "attention_integral", "log_attention",
    "delta_log_attention", "reading_time_s", "end_s", "observed_s",
    "n_samples", "n_gaps", "log_n_questions", "log_qa_duration",
    "log_chair_speech", "delta_log_n_questions", "delta_log_qa_duration",
    "delta_log_chair_speech",
)


def _segment(row: list[str]) -> tuple[float, float, str]:
    return float(row[0]), float(row[1]), row[2].strip()


def read_segments_csv(path: str | Path, conference_id: str) -> SpeakerSegments:
    cells = output.read_columns(path, SEGMENT_COLUMNS, _segment, "segment")
    rows = output.check_rows(path, map(list, zip(*cells)), _segment, "segment")
    return SpeakerSegments(conference_id, tuple(rows))
