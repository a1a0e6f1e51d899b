"""Seeded synthetic fixtures: landmark streams, galleries, and price paths.

Every generator is a pure function of its spec and seed (PCG64 streams via
numpy's Generator, which is explicitly specified and platform-stable), so
fixtures are byte-reproducible.  Landmark geometry inverts the EAR formula
with a fixed 30 px horizontal eye span and symmetric lids, so a scripted
EAR level maps to exact vertical lid offsets.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import asdict, dataclass, field
from datetime import date as dt_date
from datetime import datetime, time, timedelta, timezone
from functools import lru_cache
from itertools import accumulate, repeat
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .attention import SEGMENT_COLUMNS
from .errors import ConfigError, ScenarioError
from .geometry import (
    EMBEDDING_DIM,
    LEFT_EYE_INDICES,
    RIGHT_EYE_INDICES,
    LandmarkBatch,
    write_landmark_stream,
)
from .identity import Gallery, GalleryEntry, dump_gallery
from .market import PRICE_COLUMNS, ConferenceTimeline, PriceBar
from .output import (
    FILE_ID_RULE,
    config_digest,
    is_file_id,
    meta_dict,
    write_csv,
    write_json,
    write_text,
)
from .schema import FileId, read, read_json, to_json

EYE_SPAN_PX = 30.0
DEFAULT_TZ = timezone(timedelta(hours=-4))
# The largest x for which math.exp(x) does not overflow.
_MAX_LOG_PRICE = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ReadingEpisode:
    start_s: float
    end_s: float
    ear_level: float


@dataclass(frozen=True)
class ScriptInterval:
    start_s: float
    end_s: float
    label: str


class Gap(NamedTuple):
    start_s: float
    end_s: float


@dataclass(frozen=True)
class PriceSpec:
    base_price: float = 3000.0
    minute_vol: float = 0.001
    drift_during_qa: float = 0.0
    vol_after_factor: float = 1.0


@dataclass(frozen=True)
class GallerySpec:
    labels: tuple[str, ...] = ("chair", "reporter")
    cluster_radius: float = 0.05
    separation: float = 1.0
    entries_per_label: int = 8
    queries_per_label: int = 4
    seed: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic conference: EAR script, identity script, and prices."""

    conference_id: FileId
    seed: int
    date: dt_date
    fps: float
    conference_length_s: float
    reading_episodes: tuple[ReadingEpisode, ...] = ()
    baseline_ear: float = 0.30
    blink_rate_hz: float = 0.0
    gap_intervals: tuple[Gap, ...] = ()
    identity_script: tuple[ScriptInterval, ...] = ()
    target_label: str = "chair"
    n_questions: int = 20
    price_spec: PriceSpec = field(default_factory=PriceSpec)
    timeline: ConferenceTimeline | None = None

    def __post_init__(self) -> None:
        validate_scenario(self)

    def resolved_timeline(self) -> ConferenceTimeline:
        if self.timeline is not None:
            return self.timeline
        return _default_timeline(self.date, self.conference_length_s)


def _default_timeline(day: dt_date, length_s: float) -> ConferenceTimeline:
    """A Q&A from 14:30 at DEFAULT_TZ lasting length_s, and a 16:00 close."""
    qa_start = datetime.combine(day, time(14, 30), tzinfo=DEFAULT_TZ)
    return ConferenceTimeline(
        qa_start, qa_start + timedelta(seconds=length_s), qa_start.replace(hour=16, minute=0)
    )


@dataclass(frozen=True)
class LandmarkTruth:
    """Exact script bookkeeping for one generated landmark stream."""

    conference_id: str
    fps: float
    baseline_ear: float
    episodes: tuple[ReadingEpisode, ...]
    target_seconds: float
    n_frames: int
    n_target_frames: int
    n_blink_frames: int


@dataclass(frozen=True)
class PriceTruth:
    """Population parameters behind one generated price path."""

    conference_id: str
    minute_vol: float
    vol_after_factor: float
    drift_during_qa: float
    n_qa_steps: int
    expected_return_during: float
    n_bars: int


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def _merge_intervals(intervals: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _measure(intervals: Sequence[tuple[float, float]]) -> float:
    return sum(end - start for start, end in _merge_intervals(intervals))


def _overlaps(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def validate_scenario(spec: ScenarioSpec) -> None:
    if not is_file_id(spec.conference_id):
        raise ScenarioError(f"conference_id {spec.conference_id!r} must be {FILE_ID_RULE}")
    for name in ("fps", "conference_length_s", "baseline_ear", "blink_rate_hz"):
        if not math.isfinite(getattr(spec, name)):
            raise ScenarioError(f"{spec.conference_id}: {name} must be finite")
    if spec.seed < 0:
        raise ScenarioError(f"{spec.conference_id}: seed must be nonnegative")
    if spec.fps <= 0:
        raise ScenarioError(f"{spec.conference_id}: fps must be positive")
    if spec.conference_length_s <= 0:
        raise ScenarioError(f"{spec.conference_id}: conference_length_s must be positive")
    if spec.baseline_ear <= 0:
        raise ScenarioError(f"{spec.conference_id}: baseline_ear must be positive")
    if spec.blink_rate_hz < 0:
        raise ScenarioError(f"{spec.conference_id}: blink_rate_hz must be nonnegative")
    if spec.n_questions < 1:
        raise ScenarioError(f"{spec.conference_id}: n_questions must be >= 1")
    ps = spec.price_spec
    for name in ("base_price", "minute_vol", "vol_after_factor", "drift_during_qa"):
        if not math.isfinite(getattr(ps, name)):
            raise ScenarioError(f"{spec.conference_id}: price_spec.{name} must be finite")
    if ps.base_price <= 0:
        raise ScenarioError(f"{spec.conference_id}: base_price must be positive")
    if ps.minute_vol < 0 or ps.vol_after_factor < 0:
        raise ScenarioError(f"{spec.conference_id}: volatilities must be nonnegative")

    length = spec.conference_length_s
    episodes = sorted(spec.reading_episodes, key=lambda e: e.start_s)
    for ep in episodes:
        if not (0 <= ep.start_s < ep.end_s <= length):
            raise ScenarioError(
                f"{spec.conference_id}: episode ({ep.start_s}, {ep.end_s}) outside conference"
            )
        if not (0 <= ep.ear_level < spec.baseline_ear):
            raise ScenarioError(
                f"{spec.conference_id}: episode level {ep.ear_level} must be in "
                f"[0, baseline {spec.baseline_ear})"
            )
    for first, second in zip(episodes, episodes[1:]):
        if second.start_s < first.end_s:
            raise ScenarioError(f"{spec.conference_id}: reading episodes overlap")

    gaps = sorted(spec.gap_intervals)
    for start, end in gaps:
        if not (0 <= start < end <= length):
            raise ScenarioError(
                f"{spec.conference_id}: gap ({start}, {end}) outside conference"
            )
    for first, second in zip(gaps, gaps[1:]):
        if second[0] < first[1]:
            raise ScenarioError(f"{spec.conference_id}: gap intervals overlap")

    non_target = [
        (iv.start_s, iv.end_s) for iv in spec.identity_script if iv.label != spec.target_label
    ]
    for iv in spec.identity_script:
        if not (0 <= iv.start_s < iv.end_s <= length):
            raise ScenarioError(
                f"{spec.conference_id}: identity interval ({iv.start_s}, {iv.end_s}) "
                "outside conference"
            )
    script = sorted(spec.identity_script, key=lambda iv: iv.start_s)
    for first, second in zip(script, script[1:]):
        if second.start_s < first.end_s:
            raise ScenarioError(f"{spec.conference_id}: identity intervals overlap")

    # Episodes must stay observable: on target-labeled time and outside gaps,
    # otherwise the analytic ground truth would not match the stream.
    blocked = non_target + list(gaps)
    for ep in episodes:
        for block in blocked:
            if _overlaps((ep.start_s, ep.end_s), block):
                raise ScenarioError(
                    f"{spec.conference_id}: episode ({ep.start_s}, {ep.end_s}) overlaps "
                    "a gap or an off-target interval"
                )

    try:
        tl = spec.resolved_timeline()
    except (ConfigError, OverflowError) as exc:  # only a default timeline raises
        raise ScenarioError(f"{spec.conference_id}: default timeline: {exc}") from None
    for instant in vars(tl).values():
        if not isinstance(instant.tzinfo, timezone):  # as minute_stamps needs
            raise ScenarioError(f"{spec.conference_id}: timeline instants need fixed offsets")
    if tl.qa_start.date() != spec.date:  # as the registry needs
        raise ScenarioError(f"{spec.conference_id}: timeline qa_start is not on {spec.date}")
    span = (tl.conference_end - tl.qa_start).total_seconds()
    if abs(span - length) > 1e-6:
        raise ScenarioError(
            f"{spec.conference_id}: timeline span {span}s disagrees with "
            f"conference_length_s {length}"
        )


# ---------------------------------------------------------------------------
# Identity cluster geometry
# ---------------------------------------------------------------------------


def _label_seed(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


@lru_cache(maxsize=256)
def cluster_center(label: str, separation: float) -> np.ndarray:
    """Deterministic per-label cluster center, independent of the label set.

    Random 128-dim unit directions are nearly orthogonal (pairwise distance
    ~ sqrt(2)), so scaling by separation/sqrt(2) puts any two labels about
    `separation` apart.  Calls with the same arguments share one read-only
    array: synth asks for each center once per conference.
    """
    rng = np.random.Generator(np.random.PCG64(_label_seed(label)))
    direction = rng.normal(size=EMBEDDING_DIM)
    direction /= np.linalg.norm(direction)
    center = direction * (separation / math.sqrt(2.0))
    center.setflags(write=False)
    return center


def _check_separation(labels: Sequence[str], separation: float, cluster_radius: float) -> None:
    centers = [cluster_center(label, separation) for label in labels]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            dist = float(np.linalg.norm(centers[i] - centers[j]))
            if dist <= 4.0 * cluster_radius:
                raise ScenarioError(
                    f"cluster centers for {labels[i]!r} and {labels[j]!r} are only "
                    f"{dist:.4f} apart; need > {4.0 * cluster_radius:.4f}"
                )


def _cluster_draw(
    rng: np.random.Generator, center: np.ndarray, cluster_radius: float
) -> np.ndarray:
    scale = cluster_radius / math.sqrt(EMBEDDING_DIM)
    return center + rng.normal(scale=scale, size=EMBEDDING_DIM)


def gen_gallery(
    labels: Sequence[str],
    cluster_radius: float,
    seed: int,
    separation: float = 1.0,
    entries_per_label: int = 8,
    queries_per_label: int = 4,
) -> tuple[Gallery, list[tuple[str, np.ndarray]]]:
    """Per-label Gaussian clusters plus held-out queries labeled by cluster."""
    if not labels:
        raise ScenarioError("gallery needs at least one label")
    if cluster_radius <= 0:
        raise ScenarioError("cluster_radius must be positive")
    if seed < 0:
        raise ScenarioError("gallery seed must be nonnegative")
    _check_separation(list(labels), separation, cluster_radius)

    rng = np.random.Generator(np.random.PCG64(seed))
    entries: list[GalleryEntry] = []
    queries: list[tuple[str, np.ndarray]] = []
    for label in labels:
        center = cluster_center(label, separation)
        for _ in range(entries_per_label):
            entries.append(GalleryEntry(label, _cluster_draw(rng, center, cluster_radius)))
        for _ in range(queries_per_label):
            queries.append((label, _cluster_draw(rng, center, cluster_radius)))
    return Gallery(tuple(entries)), queries


# ---------------------------------------------------------------------------
# Landmark stream generation
# ---------------------------------------------------------------------------


def _face_template() -> np.ndarray:
    """Fixed (68, 2) base face with both eyes closed: lids on the corner line."""
    pts: list[tuple[float, float]] = []
    for i in range(17):  # jaw arc
        angle = math.pi * (1.0 - i / 16.0)
        pts.append((150.0 + 90.0 * math.cos(angle), 180.0 + 95.0 * math.sin(angle)))
    for i in range(10):  # brows
        side = 0 if i < 5 else 1
        pts.append((95.0 + 80.0 * side + 12.0 * (i % 5), 120.0))
    for i in range(9):  # nose bridge and base
        pts.append((150.0 + (i - 4) * 4.0, 150.0 + min(i, 4) * 8.0))
    for x0, y0 in ((105.0, 160.0), (165.0, 160.0)):  # left and right eye
        pts += [(x0 + dx, y0) for dx in (0.0, 10.0, 20.0, EYE_SPAN_PX, 20.0, 10.0)]
    for i in range(20):  # mouth ring
        angle = 2.0 * math.pi * i / 20.0
        pts.append((150.0 + 28.0 * math.cos(angle), 235.0 + 12.0 * math.sin(angle)))
    return np.array(pts)


_TEMPLATE = _face_template()
_EYE_ROWS = list(LEFT_EYE_INDICES + RIGHT_EYE_INDICES)
# Each eye landmark's lid offset in units of h: corners 0, upper lid +1, lower lid -1.
_LID_SIGN = np.array([0.0, 1.0, 1.0, 0.0, -1.0, -1.0] * 2)


def points_for_levels(levels: np.ndarray) -> np.ndarray:
    """(N, 68, 2) faces; face i's eyes both have EAR exactly levels[i].

    Horizontal span fixed at EYE_SPAN_PX with symmetric lids at vertical
    offset h, so EAR = 4h / (2 * span) and h = ear_level * span / 2.
    """
    h = np.asarray(levels, dtype=float) * EYE_SPAN_PX / 2.0
    points = np.repeat(_TEMPLATE[np.newaxis], len(h), axis=0)
    points[:, _EYE_ROWS, 1] += _LID_SIGN * h[:, np.newaxis]
    return points


def _inside(midpoints: np.ndarray, start: float, end: float) -> np.ndarray:
    return (start <= midpoints) & (midpoints < end)


def script_labels(spec: ScenarioSpec) -> set[str]:
    """The target's label and every label of the identity script."""
    return {spec.target_label} | {iv.label for iv in spec.identity_script}


def check_gallery_labels(spec: ScenarioSpec, gallery_spec: GallerySpec) -> None:
    """Raise ScenarioError if the scenario names a label the gallery lacks."""
    missing = script_labels(spec) - set(gallery_spec.labels)
    if missing:
        raise ScenarioError(
            f"{spec.conference_id}: labels {sorted(missing)} not in gallery labels"
        )


def gen_landmark_stream(
    spec: ScenarioSpec,
    gallery_spec: GallerySpec | None = None,
) -> tuple[np.ndarray, LandmarkBatch, LandmarkTruth]:
    """Frame indices and frames whose EAR follows the scenario script exactly.

    Frame k carries the timestamp (k+1)/fps (the end of its frame interval)
    and takes the script level prevailing at the interval midpoint; gap
    intervals emit no frames.  Embeddings are drawn from the scripted
    identity's cluster.  Blinks (single-frame EAR 0 dips) only occur on
    baseline target frames so episode bookkeeping stays exact.
    """
    gspec = gallery_spec or GallerySpec(labels=tuple(sorted(script_labels(spec))))
    _check_separation(list(gspec.labels), gspec.separation, gspec.cluster_radius)
    check_gallery_labels(spec, gspec)
    labels = list(gspec.labels)

    ss_embed, ss_blink = np.random.SeedSequence(spec.seed).spawn(2)
    rng_embed = np.random.Generator(np.random.PCG64(ss_embed))
    rng_blink = np.random.Generator(np.random.PCG64(ss_blink))

    dt = 1.0 / spec.fps
    timestamps = np.arange(1, round(spec.conference_length_s * spec.fps) + 1) * dt
    midpoints = timestamps - dt / 2.0
    observed = np.ones(len(timestamps), dtype=bool)
    for start, end in spec.gap_intervals:
        observed &= ~_inside(midpoints, start, end)
    frame_indices = np.flatnonzero(observed)
    timestamps, midpoints = timestamps[observed], midpoints[observed]

    label_rows = np.full(len(timestamps), labels.index(spec.target_label))
    for iv in spec.identity_script:
        label_rows[_inside(midpoints, iv.start_s, iv.end_s)] = labels.index(iv.label)
    on_target = label_rows == labels.index(spec.target_label)
    levels = np.full(len(timestamps), spec.baseline_ear)
    blink_eligible = on_target.copy()
    for ep in spec.reading_episodes:
        in_episode = _inside(midpoints, ep.start_s, ep.end_s)
        levels[in_episode] = ep.ear_level
        blink_eligible &= ~in_episode
    n_blinks = 0
    if spec.blink_rate_hz > 0:
        # One uniform draw per eligible frame, in frame order.
        draws = rng_blink.random(np.count_nonzero(blink_eligible))
        blinks = np.flatnonzero(blink_eligible)[draws < spec.blink_rate_hz * dt]
        levels[blinks] = 0.0
        n_blinks = len(blinks)

    centers = np.array([cluster_center(label, gspec.separation) for label in labels])
    noise = rng_embed.normal(
        scale=gspec.cluster_radius / math.sqrt(EMBEDDING_DIM),
        size=(len(timestamps), EMBEDDING_DIM),
    )
    batch = LandmarkBatch(
        timestamps=timestamps,
        points=points_for_levels(levels),
        embeddings=np.round(centers[label_rows] + noise, 5),
        has_embedding=np.ones(len(timestamps), dtype=bool),
    )

    non_target = [
        (iv.start_s, iv.end_s) for iv in spec.identity_script if iv.label != spec.target_label
    ]
    truth = LandmarkTruth(
        conference_id=spec.conference_id,
        fps=spec.fps,
        baseline_ear=spec.baseline_ear,
        episodes=tuple(sorted(spec.reading_episodes, key=lambda e: e.start_s)),
        target_seconds=spec.conference_length_s - _measure(non_target + list(spec.gap_intervals)),
        n_frames=len(batch),
        n_target_frames=int(np.count_nonzero(on_target)),
        n_blink_frames=n_blinks,
    )
    return frame_indices, batch, truth


# ---------------------------------------------------------------------------
# Price path generation
# ---------------------------------------------------------------------------


def gen_price_series(spec: ScenarioSpec) -> tuple[list[PriceBar], PriceTruth]:
    """Minute bars from 120 minutes before the Q&A through the close."""
    window_open, prices, truth = _walk_prices(spec)
    times = accumulate(repeat(timedelta(minutes=1), len(prices) - 1), initial=window_open)
    return list(map(PriceBar, times, prices)), truth


def _walk_prices(spec: ScenarioSpec) -> tuple[datetime, list[float], PriceTruth]:
    """The first bar's time, one price per minute from then on, and the truth.

    Log prices follow a random walk with per-minute volatility; the scripted
    drift applies only to steps lying inside the Q&A window, and volatility
    after the conference end is scaled by vol_after_factor.
    """
    tl = spec.resolved_timeline()
    ps = spec.price_spec
    window_open = tl.window_open
    n_steps = int((tl.trading_close - window_open).total_seconds() // 60)
    seq = np.random.SeedSequence(spec.seed)
    rng = np.random.Generator(np.random.PCG64(seq.spawn(3)[2]))
    shocks = rng.normal(size=n_steps)

    # Step k runs from minute k to minute k + 1 after window_open; instants
    # are compared as whole microseconds from window_open.
    def offset(instant: datetime) -> int:
        return (instant - window_open) // timedelta(microseconds=1)

    step_start = np.arange(n_steps, dtype=np.int64) * 60_000_000
    in_qa = (step_start >= offset(tl.qa_start)) & (
        step_start + 60_000_000 <= offset(tl.conference_end)
    )
    after = step_start >= offset(tl.conference_end)
    vol = np.where(after, ps.minute_vol * ps.vol_after_factor, ps.minute_vol)
    drift = np.where(in_qa, ps.drift_during_qa, 0.0)
    # cumsum adds in order, so each log price is the sum the walk accumulates.
    # A sum that overflows to inf or NaN fails the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = drift + vol * shocks
        log_prices = np.cumsum(np.concatenate(([math.log(ps.base_price)], steps)))
    if not log_prices.max() <= _MAX_LOG_PRICE:
        raise ScenarioError(f"{spec.conference_id}: the price walk overflows")
    prices = [float(ps.base_price), *map(math.exp, log_prices[1:].tolist())]
    n_qa_steps = int(np.count_nonzero(in_qa))

    truth = PriceTruth(
        conference_id=spec.conference_id,
        minute_vol=ps.minute_vol,
        vol_after_factor=ps.vol_after_factor,
        drift_during_qa=ps.drift_during_qa,
        n_qa_steps=n_qa_steps,
        expected_return_during=ps.drift_during_qa * n_qa_steps,
        n_bars=len(prices),
    )
    return window_open, prices, truth


_CLOCK = [f"T{hour:02}:{minute:02}" for hour in range(24) for minute in range(60)]


def minute_stamps(start: datetime, n: int) -> list[str]:
    """(start + k minutes).isoformat() for k in range(n), from text tables.

    start's tzinfo must be a datetime.timezone, so that every minute has
    the same offset.  Every minute then shares the text after its
    "YYYY-MM-DDTHH:MM": seconds, any microseconds, and the offset.
    """
    tail = start.isoformat()[16:]
    first = start.hour * 60 + start.minute  # minutes into start's day
    days = [(start.date() + timedelta(d)).isoformat() for d in range((first + n - 1) // 1440 + 1)]
    return [days[m // 1440] + _CLOCK[m % 1440] + tail for m in range(first, first + n)]


# ---------------------------------------------------------------------------
# Transcript and speaker-segment scripts
# ---------------------------------------------------------------------------


def gen_transcript(spec: ScenarioSpec) -> str:
    lines = [f"Press conference {spec.conference_id}, prepared remarks omitted."]
    for i in range(spec.n_questions):
        lines.append(f"REPORTER {i + 1}: Could you expand on point {i + 1}?")
        lines.append(f"CHAIR: On point {i + 1}, the committee sees this as noted before.")
    return "\n".join(lines) + "\n"


def speaker_segments_rows(spec: ScenarioSpec) -> list[tuple[float, float, str]]:
    """Chair/reporter turns: reporter during off-target intervals, chair elsewhere."""
    rows: list[tuple[float, float, str]] = []
    cursor = 0.0
    for iv in sorted(spec.identity_script, key=lambda i: i.start_s):
        tag = "chair" if iv.label == spec.target_label else "reporter"
        if iv.start_s > cursor:
            rows.append((cursor, iv.start_s, "chair"))
        rows.append((iv.start_s, iv.end_s, tag))
        cursor = iv.end_s
    if cursor < spec.conference_length_s:
        rows.append((cursor, spec.conference_length_s, "chair"))
    # merge adjacent same-tag rows for tidiness
    merged: list[tuple[float, float, str]] = []
    for row in rows:
        if merged and merged[-1][2] == row[2] and merged[-1][1] == row[0]:
            merged[-1] = (merged[-1][0], row[1], row[2])
        else:
            merged.append(row)
    return merged


# ---------------------------------------------------------------------------
# Planted-effect study suites
# ---------------------------------------------------------------------------


def planted_study_scenarios(
    seed: int = 0,
    n_conferences: int = 45,
    effect_slope: float = 0.005,
    effect_intercept: float = 0.0,
    target_r2: float = 0.3,
    episode_ear: float = 0.15,
    vol_drop_slope: float = -0.25,
    blink_rate_hz: float = 0.2,
) -> tuple[list[ScenarioSpec], GallerySpec, dict]:
    """Conference suite with a linear return effect planted on the
    log-difference of the attention integral.

    Per-minute Q&A drift carries the deterministic effect while the walk's
    own volatility provides the regression noise, calibrated so the
    population R^2 of the during-return regression is approximately
    target_r2.  The post-conference volatility factor falls with the same
    regressor, planting a negative volatility-change relationship.
    """
    if seed < 0:
        raise ScenarioError("a planted study needs a nonnegative seed")
    if n_conferences < 3:
        raise ScenarioError("a planted study needs at least 3 conferences")
    if not 0.0 < target_r2 <= 1.0:
        raise ScenarioError("target_r2 must be in (0, 1]")
    if not episode_ear > 0.0:
        raise ScenarioError("episode_ear must be positive")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    u_half_width = 1.15
    mean_episode_s = 95.0
    log_mean = math.log(episode_ear * mean_episode_s)
    var_delta = 2.0 * u_half_width**2 / 3.0
    signal_sd = abs(effect_slope) * math.sqrt(var_delta)
    noise_sd = signal_sd * math.sqrt((1.0 - target_r2) / target_r2)
    mean_qa_minutes = 11.0
    minute_vol = noise_sd / math.sqrt(mean_qa_minutes)

    scenarios: list[ScenarioSpec] = []
    per_conference: dict[str, dict] = {}
    prev_log_attention: float | None = None

    for i in range(n_conferences):
        conf_id = f"conf-{i + 1:03d}"
        conf_date = dt_date(2011, 4, 27) + timedelta(days=49 * i)
        qa_minutes = int(rng.integers(8, 15))
        length_s = 60.0 * qa_minutes

        u = float(rng.uniform(-u_half_width, u_half_width))
        log_attention = log_mean + u
        episode_seconds = math.exp(log_attention) / episode_ear

        n_interludes = int(rng.integers(3, 6))
        slot = 120.0 / n_interludes
        interludes = []
        for j in range(n_interludes):
            dur = float(rng.uniform(8.0, min(20.0, slot - 2.0)))
            interludes.append(ScriptInterval(j * slot, j * slot + dur, "reporter"))
        episode = ReadingEpisode(130.0, 130.0 + episode_seconds, episode_ear)

        if prev_log_attention is None:
            delta = None
            drift = 0.0
            vol_after_factor = 0.7
        else:
            delta = log_attention - prev_log_attention
            drift = (effect_intercept + effect_slope * delta) / qa_minutes
            vol_after_factor = float(np.clip(0.7 * (1.0 + vol_drop_slope * delta), 0.2, 0.95))
        prev_log_attention = log_attention

        scenarios.append(
            ScenarioSpec(
                conference_id=conf_id,
                seed=int(np.random.SeedSequence([seed, 100 + i]).generate_state(1)[0]),
                date=conf_date,
                fps=1.0,
                conference_length_s=length_s,
                reading_episodes=(episode,),
                baseline_ear=0.30,
                blink_rate_hz=blink_rate_hz,
                identity_script=tuple(interludes),
                target_label="chair",
                n_questions=int(rng.integers(12, 41)),
                price_spec=PriceSpec(
                    base_price=3000.0,
                    minute_vol=minute_vol,
                    drift_during_qa=drift,
                    vol_after_factor=vol_after_factor,
                ),
                timeline=_default_timeline(conf_date, length_s),
            )
        )
        per_conference[conf_id] = {
            "target_log_attention": log_attention,
            "delta_log_attention": delta,
            "drift_during_qa": drift,
            "vol_after_factor": vol_after_factor,
            "qa_minutes": qa_minutes,
        }

    gallery_spec = GallerySpec(
        labels=("chair", "reporter"),
        seed=int(np.random.SeedSequence([seed, 1]).generate_state(1)[0]),
    )
    study_truth = {
        "effect_slope": effect_slope,
        "effect_intercept": effect_intercept,
        "target_r2": target_r2,
        "minute_vol": minute_vol,
        "vol_drop_slope": vol_drop_slope,
        "per_conference": per_conference,
    }
    return scenarios, gallery_spec, study_truth


# ---------------------------------------------------------------------------
# Scenario JSON (de)serialization
# ---------------------------------------------------------------------------


class _Suite(NamedTuple):
    scenarios: tuple[ScenarioSpec, ...]
    gallery: GallerySpec = GallerySpec()


class _Study(NamedTuple):
    study: object


def load_scenario_file(path: str | Path) -> tuple[list[ScenarioSpec], GallerySpec, dict | None]:
    """Parse a scenario JSON file: single scenario, suite, or planted study.

    A file that cannot be read, or that does not describe scenarios, raises
    ScenarioError naming the file.
    """
    raw = read_json(path, "scenario file", ScenarioError)
    source = f"scenario file {path}"
    if isinstance(raw, dict) and "study" in raw:
        study = read(_Study, raw, source, ScenarioError).study
        return read(planted_study_scenarios, study, source, ScenarioError, where="study")
    if isinstance(raw, dict) and "scenarios" in raw:
        scenarios, gallery_spec = read(_Suite, raw, source, ScenarioError)
    else:
        gallery = raw.pop("gallery", None) if isinstance(raw, dict) else None
        scenarios = (read(ScenarioSpec, raw, source, ScenarioError),)
        gallery_spec = GallerySpec(labels=tuple(sorted(script_labels(scenarios[0]))))
        if gallery is not None:
            gallery_spec = read(GallerySpec, gallery, source, ScenarioError, where="gallery")
    return list(scenarios), gallery_spec, None


# ---------------------------------------------------------------------------
# Fixture directories (the synth subcommand)
# ---------------------------------------------------------------------------


def build_fixture(
    scenarios: Sequence[ScenarioSpec],
    gallery_spec: GallerySpec,
    out_dir: Path,
    study_truth: dict | None = None,
) -> None:
    """Write a complete fixture directory for a scenario suite."""
    ids = [s.conference_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate conference ids in scenario suite")
    digest = config_digest(
        {
            "scenarios": [to_json(s) for s in scenarios],
            "gallery": asdict(gallery_spec),
        }
    )

    # The label check and the price walk are the steps that can fail for a
    # later conference, so they run before the first write: a scenario error
    # leaves no file behind.
    for spec in scenarios:
        check_gallery_labels(spec, gallery_spec)
    walks = [_walk_prices(spec) for spec in scenarios]
    gallery, _queries = gen_gallery(**asdict(gallery_spec))
    write_text(out_dir / "gallery.json", dump_gallery(gallery, meta_dict(digest)), digest)

    registry_entries = []
    truths: dict[str, dict] = {}
    for spec, (window_open, prices, price_truth) in zip(scenarios, walks):
        cid = spec.conference_id
        frame_indices, batch, landmark_truth = gen_landmark_stream(spec, gallery_spec)
        # Each file's path in the fixture, which the registry also records.
        files = {"landmarks": f"landmarks/{cid}.jsonl", "transcript": f"transcripts/{cid}.txt",
                 "segments": f"segments/{cid}.csv", "prices": f"prices/{cid}.csv"}
        write_text(out_dir / files["landmarks"],
                   write_landmark_stream(cid, frame_indices, batch, meta_dict(digest)), digest)
        write_text(out_dir / files["transcript"], gen_transcript(spec), digest)
        segments = [(float(start), float(end), tag)
                    for start, end, tag in speaker_segments_rows(spec)]
        write_csv(out_dir / files["segments"], SEGMENT_COLUMNS, segments, digest)
        write_csv(out_dir / files["prices"], PRICE_COLUMNS,
                  zip(minute_stamps(window_open, len(prices)), prices), digest)
        timeline = spec.resolved_timeline()
        registry_entries.append(
            {
                "conference_id": cid,
                "date": spec.date.isoformat(),
                "qa_start": timeline.qa_start.isoformat(),
                "conference_end": timeline.conference_end.isoformat(),
                "trading_close": timeline.trading_close.isoformat(),
                **files,
            }
        )
        truths[cid] = {
            "landmarks": asdict(landmark_truth),
            "prices": asdict(price_truth),
            "n_questions": spec.n_questions,
        }

    write_json(out_dir / "registry.json", {"conferences": registry_entries}, digest)
    truth_payload: dict = {"conferences": truths}
    if study_truth is not None:
        truth_payload["study"] = study_truth
    write_json(out_dir / "ground_truth.json", truth_payload, digest)


def run_synth(scenario_path: Path, out_dir: Path) -> None:
    scenarios, gallery_spec, study_truth = load_scenario_file(scenario_path)
    build_fixture(scenarios, gallery_spec, out_dir, study_truth)
