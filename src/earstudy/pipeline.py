"""The pipeline: identify -> attention -> eventstudy, run in that order.

identify turns each landmark stream into the target speaker's EAR series,
with the video's frame rate read from the whole stream, running its vote
and EAR kernels once per block of streams (KERNEL_BLOCK_FRAMES); attention
turns those series into the attention table; eventstudy turns that table into window statistics and regression
results, and stops the run when a dependent is constant (a slope of 0/0
has no test).  The stages are
pure: each returns what it computed, with its diagnostics, and writes
nothing.  write_outputs writes every stage file once all three have
returned, so a run that fails leaves only run_config.json under --out.
Each stage excludes a conference whose input fails it on one path,
_each_conference, which records and logs its reason and goes on; the next
stage runs only over the conferences that the stage before it kept.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field
from functools import lru_cache
from datetime import date as dt_date
from datetime import datetime, time
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from . import attention as att
from . import geometry, identity, market, output, regression, schema
from .errors import ConfigError, DataError, DegenerateRegressorError, InsufficientDataError
from .schema import FileId

log = logging.getLogger(__name__)

DEPENDENT_COLUMNS = ("return_during", "return_after", "vol_change_x100")
COVARIATE_COLUMNS = (
    "delta_log_attention",
    "delta_log_n_questions",
    "delta_log_qa_duration",
    "delta_log_chair_speech",
)


@dataclass(frozen=True)
class MarketConfig:
    trading_close: time = time(16, 0)


@dataclass(frozen=True)
class ConferenceRecord:
    """One registry row: where a conference's data lives and when it ran.

    date orders the first differences and qa_start places the price
    windows, so the two must agree: qa_start falls on date in its offset.
    """

    conference_id: FileId
    date: dt_date
    qa_start: datetime
    conference_end: datetime
    landmarks: Path
    transcript: Path
    segments: Path
    prices: Path
    trading_close: datetime | None = None

    def __post_init__(self) -> None:
        if self.qa_start >= self.conference_end:
            raise DataError("qa_start must precede conference_end")
        if self.qa_start.date() != self.date:
            raise DataError(f"date {self.date} differs from qa_start's date "
                            f"{self.qa_start.date()}")

    def qa_duration_s(self) -> float:
        return (self.conference_end - self.qa_start).total_seconds()


class _Registry(NamedTuple):
    conferences: tuple[ConferenceRecord, ...]
    meta: object = None


@dataclass(frozen=True)
class RunConfig:
    registry: Path
    gallery: Path
    target_label: str
    identity: identity.IdentityConfig
    attention: att.AttentionConfig = field(default_factory=att.AttentionConfig)
    market: MarketConfig = field(default_factory=MarketConfig)

    def digest_payload(self) -> dict:
        """The hashed configuration.

        The registry and gallery enter by the sha256 of their bytes, not by
        path, so the same inputs in another directory give the same hash.
        """
        settings = schema.to_json(self)
        del settings["registry"], settings["gallery"]
        return {
            "registry_sha256": _file_sha256(self.registry, "registry"),
            "gallery_sha256": _file_sha256(self.gallery, "gallery file"),
            **settings,
        }


def _file_sha256(path: Path, what: str) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a run-config JSON file."""
    path = Path(path)
    raw = schema.read_json(path, "config", ConfigError)
    return schema.read(RunConfig, raw, f"config {path}", ConfigError, path.parent)


def load_registry(path: str | Path) -> list[ConferenceRecord]:
    """The registry's conferences in date order, then id order."""
    path = Path(path)
    raw = schema.read_json(path, "registry", DataError)
    records = schema.read(_Registry, raw, f"registry {path}", DataError, path.parent).conferences
    if not records:
        raise DataError(f"registry {path} lists no conferences")
    first: dict[str, int] = {}
    for i, record in enumerate(records):
        if first.setdefault(record.conference_id, i) != i:
            raise DataError(f"registry {path}: conferences[{i}]: "
                            f"duplicate id {record.conference_id!r}")
    return sorted(records, key=lambda r: (r.date, r.conference_id))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


# Read as (N, 12, 2), left eye first: the only points identify converts.
EYE_POINTS = geometry.LEFT_EYE_INDICES + geometry.RIGHT_EYE_INDICES
# A stage's results: each kept conference's EAR series as (timestamps,
# values, the video's frame rate), each kept conference's attention row, and
# each dependent's regressions, one per covariate.
Series = dict[ConferenceRecord, tuple[np.ndarray, np.ndarray, float]]
Rows = dict[ConferenceRecord, dict]
Results = dict[str, list[regression.RegressionResult]]


# Frames that stage_identify queues before it runs the vote and EAR kernels
# once over the whole queue.  A kernel call has a fixed cost of tens of
# microseconds, so short conferences share one; the queue stays small,
# because a run's peak RSS grows with it (on perfbench's planted_study,
# 39.2 MB at 256 frames and 58.1 MB with the whole study queued).
KERNEL_BLOCK_FRAMES = 256


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated; a single one as it is, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _split(array: np.ndarray, lengths: list[int]) -> list[np.ndarray]:
    """Views of array's consecutive parts of the given lengths."""
    return np.split(array, np.cumsum(lengths[:-1], dtype=int))


def _identify_block(
    batches: list[geometry.LandmarkBatch], gallery: identity.Gallery, target: int,
    config: identity.IdentityConfig,
) -> list[tuple[np.ndarray, np.ndarray, dict]]:
    """Each batch's EAR timestamps, values and routing tally, from one vote
    and one EAR call over all of them.

    Both kernels compute each row on its own (every vote is the norm's, and
    every distance math.hypot's), so each batch's part equals what the
    kernels give on that batch alone.
    """
    codes = identity.classify_codes(_joined([b.embeddings for b in batches]), gallery, config)
    routed = [identity.route_frames(part, b.has_embedding, target, config)
              for part, b in zip(_split(codes, list(map(len, batches))), batches)]
    eyes = _joined([b.points[keep] for b, (keep, _) in zip(batches, routed)])
    values, usable = geometry.batch_ear(eyes, range(6), range(6, 12))
    written = [tally["written"] for _, tally in routed]
    return [(b.timestamps[keep][ok], v[ok], tally)
            for b, (keep, tally), v, ok in zip(batches, routed, _split(values, written),
                                               _split(usable, written))]


def stage_identify(
    cfg: RunConfig, records: list[ConferenceRecord], gallery: identity.Gallery,
) -> tuple[Series, dict]:
    """Each landmark stream's target-speaker frames as an EAR series, with
    the video's frame rate, and the identify diagnostics.

    The rate comes from the timestamps of every record in the stream
    (attention.estimate_fps), not from the frames the filter keeps.  The
    streams are read in registry order, and the kernels run over blocks of
    consecutive streams of at least KERNEL_BLOCK_FRAMES frames (the last
    block may hold fewer); a stream that fills a block alone is a block of
    its own.  Only the read can exclude a conference: a bad landmark file,
    or fewer than 2 distinct timestamps.  A series may be empty (see the
    tally), and attention then excludes it.
    """
    series: Series = {}
    conferences: dict[str, dict] = {}
    exclusions: list[dict] = []
    target = gallery.label_codes[0].index(cfg.target_label)

    def read(record: ConferenceRecord) -> tuple[geometry.LandmarkBatch, float]:
        batch = geometry.read_landmark_batch(record.landmarks, record.conference_id, EYE_POINTS)
        return batch, att.estimate_fps(batch.timestamps)

    def close_block(queue: list[tuple[ConferenceRecord, geometry.LandmarkBatch, float]]) -> None:
        results = _identify_block([batch for _, batch, _ in queue], gallery, target, cfg.identity)
        for (record, _, fps), (timestamps, values, tally) in zip(queue, results):
            series[record] = timestamps, values, fps
            count = len(timestamps)
            conferences[record.conference_id] = {
                **tally, "n_samples": count, "dropped_degenerate": tally["written"] - count}

    queue: list[tuple[ConferenceRecord, geometry.LandmarkBatch, float]] = []
    for record, (batch, fps) in _each_conference(cfg, records, read, "EAR series", exclusions):
        if queue and len(batch) >= KERNEL_BLOCK_FRAMES:  # a block of its own
            close_block(queue)
            queue = []
        queue.append((record, batch, fps))
        if sum(len(queued) for _, queued, _ in queue) >= KERNEL_BLOCK_FRAMES:
            close_block(queue)
            queue = []
    if queue:
        close_block(queue)
    return series, {"conferences": conferences, "exclusions": exclusions}


def stage_attention(cfg: RunConfig, series: Series) -> tuple[Rows, dict]:
    """The attention table from stage_identify's EAR series.

    Returns its rows, one dict per surviving conference in date order keyed
    by its record, and the attention diagnostics.
    """
    floored: list[str] = []
    exclusions: list[dict] = []

    def attention_row(record: ConferenceRecord) -> dict:
        summary = att.summarize_conference(
            att.EarSeries(record.conference_id, *series[record]), cfg.attention)
        if cfg.attention.floors(summary["attention_integral"]):
            floored.append(record.conference_id)
        transcript = output.read_text(record.transcript)
        segments = att.read_segments_csv(record.segments, record.conference_id)
        benchmark = att.benchmark_variables(transcript, segments, record.qa_duration_s())
        return {**summary, "date": record.date.isoformat(), **benchmark}

    rows = dict(_each_conference(cfg, series, attention_row, "attention table", exclusions))
    # First differences across surviving conferences in date order; the
    # first survivor has no delta.
    table = list(rows.values())
    for delta_column in COVARIATE_COLUMNS:
        source = delta_column.removeprefix("delta_")
        deltas = att.delta_series([r[source] for r in table]).tolist() if len(table) > 1 else []
        for row, delta in zip(table, [None, *deltas]):
            row[delta_column] = delta
    return rows, {"exclusions": exclusions, "floored": floored, "n_rows": len(rows)}


_T = TypeVar("_T")


def _each_conference(
    cfg: RunConfig, records: Iterable[ConferenceRecord], body: Callable[[ConferenceRecord], _T],
    excluded_from: str, exclusions: list[dict],
) -> Iterator[tuple[ConferenceRecord, _T]]:
    """(record, body(record)) for each record in turn, as each is computed.

    A record whose body raises an input error (DataError, ConfigError,
    OSError) is excluded instead: its reason, with the record's files named
    relative to the registry's directory, goes into exclusions and is
    logged as a warning, and the next record runs.  Reasons then do not
    depend on where --out and the inputs lie.
    """
    for record in records:
        try:
            result = body(record)
        except (DataError, ConfigError, OSError) as exc:
            reason = str(exc)
            base = cfg.registry.resolve().parent
            for path in (record.landmarks, record.transcript, record.segments, record.prices):
                reason = reason.replace(str(path), os.path.relpath(path, base))
            exclusions.append({"conference_id": record.conference_id, "reason": reason})
            log.warning("conference %s excluded from %s: %s",
                        record.conference_id, excluded_from, reason)
        else:
            yield record, result


def stage_eventstudy(cfg: RunConfig, rows: Rows) -> tuple[list[dict], Results, dict]:
    """The window rows and regressions for stage_attention's rows, and the
    eventstudy diagnostics; fewer than 3 usable conferences raise
    InsufficientDataError."""
    exclusions: list[dict] = []
    # Only the last price file read is held: conferences that share a file
    # in date order read it once.
    read_prices = lru_cache(maxsize=1)(market.read_price_csv)

    def window_row(record: ConferenceRecord) -> dict:
        close = record.trading_close or datetime.combine(
            record.date, cfg.market.trading_close, tzinfo=record.qa_start.tzinfo)
        timeline = market.ConferenceTimeline(record.qa_start, record.conference_end, close)
        stats = market.event_window_stats(read_prices(record.prices), timeline,
                                          record.conference_id)
        return {**rows[record], **stats, "vol_change_x100": stats["vol_change"] * 100.0}

    window_rows = [row for _, row in _each_conference(cfg, rows, window_row, "event study",
                                                      exclusions)]
    # The first attention row alone has no deltas, and then none at all.
    usable = [r for r in window_rows if r["delta_log_attention"] is not None]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"only {len(usable)} usable conferences with deltas and price coverage; "
            "need at least 3"
        )

    results: Results = {dependent: [] for dependent in DEPENDENT_COLUMNS}
    for dependent, models in results.items():
        for covariate in COVARIATE_COLUMNS:
            try:
                data = regression.RegressionInput(y=np.array([r[dependent] for r in usable]),
                                                  x=np.array([r[covariate] for r in usable]))
            except DegenerateRegressorError as exc:
                raise DegenerateRegressorError(f"{dependent} on {covariate}: {exc}") from exc
            models.append(regression.ols_univariate(data))

    diagnostics = {
        "exclusions": exclusions,
        "n_windows": len(window_rows),
        "n_regression_rows": len(usable),
        "standard_errors": "classical homoskedastic",
    }
    return window_rows, results, diagnostics


def write_outputs(
    out_dir: Path, digest: str, identified: tuple[Series, dict],
    attended: tuple[Rows, dict], studied: tuple[list[dict], Results, dict],
) -> list[str]:
    """Write every stage file, stamped with digest, from the three stages'
    return values; returns the rendered tables.  The one place that lays
    out --out."""
    series, identify_diagnostics = identified
    for record, (timestamps, values, _) in series.items():
        output.write_csv(out_dir / "ear" / f"{record.conference_id}.csv", att.EAR_COLUMNS,
                         zip(timestamps.tolist(), values.tolist()), digest)
    output.write_json(out_dir / "diagnostics" / "identify.json", identify_diagnostics, digest)

    rows, attention_diagnostics = attended
    output.write_csv(out_dir / "attention.csv", att.ATTENTION_COLUMNS,
                     map(itemgetter(*att.ATTENTION_COLUMNS), rows.values()), digest)
    output.write_json(out_dir / "diagnostics" / "attention.json", attention_diagnostics, digest)

    window_rows, results, eventstudy_diagnostics = studied
    output.write_csv(out_dir / "windows.csv", market.WINDOW_COLUMNS,
                     map(itemgetter(*market.WINDOW_COLUMNS), window_rows), digest)
    tables = out_dir / "tables"
    texts: list[str] = []
    for dependent, models in results.items():
        text = regression.render_table(models, dependent, COVARIATE_COLUMNS)
        texts.append(text)
        table = regression.table_rows(models, dependent, COVARIATE_COLUMNS)
        output.write_text(tables / f"{dependent}.txt",
                          f"# {output.meta_line(digest)}\n" + text, digest)
        output.write_csv(tables / f"{dependent}.csv", list(table[0]),
                         [tuple(row.values()) for row in table], digest)
        output.write_json(tables / f"{dependent}.json", {"models": table}, digest)
    output.write_json(out_dir / "diagnostics" / "eventstudy.json", eventstudy_diagnostics, digest)
    return texts


STAGE_FUNCTIONS = {
    "identify": stage_identify,
    "attention": stage_attention,
    "eventstudy": stage_eventstudy,
}


def run_stages(cfg: RunConfig, out_dir: Path) -> list[str]:
    """Run identify, attention and eventstudy, one after another, then
    write_outputs.

    The registry and the gallery are loaded, and the inputs hashed, once,
    before anything is written, so an input error leaves --out untouched.
    run_config.json is written before the stages, so that an unwritable
    --out, or one made under another config, fails first.
    The stages are called through STAGE_FUNCTIONS, so that a profiler (the
    tracer in perfbench/) can time each by replacing its entry.  Returns the
    rendered regression tables; nothing is printed.
    """
    payload = cfg.digest_payload()
    digest = output.config_digest(payload)
    records = load_registry(cfg.registry)
    gallery = identity.load_gallery(cfg.gallery)
    if cfg.target_label not in gallery.labels:
        raise ConfigError(
            f"gallery {cfg.gallery} has no entries for target label {cfg.target_label!r}"
        )
    output.write_json(out_dir / "run_config.json", {"config": payload}, digest)
    identified = STAGE_FUNCTIONS["identify"](cfg, records, gallery)
    attended = STAGE_FUNCTIONS["attention"](cfg, identified[0])
    studied = STAGE_FUNCTIONS["eventstudy"](cfg, attended[0])
    return write_outputs(out_dir, digest, identified, attended, studied)
