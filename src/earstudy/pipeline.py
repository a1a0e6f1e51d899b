"""The pipeline: identify -> attention -> eventstudy, run in that order.

identify turns each landmark stream into the target speaker's EAR series;
attention turns those series into the attention table; eventstudy turns
that table into window statistics and regression results.  The stages are
pure: each returns what it computed, with its diagnostics, and writes
nothing.  write_outputs writes every stage file once all three have
returned, so a run that fails leaves only run_config.json under --out.
attention and eventstudy exclude a conference that fails them, with a
logged reason, rather than abort the run.  identify does abort it: a bad
landmark line is a data error (exit 2) and a landmark file that cannot be
read a configuration error (exit 1); ROADMAP item 2(a) would make both
exclusions.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field
from datetime import date as dt_date
from datetime import datetime, time
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import attention as att
from . import geometry, identity, market, output, regression, schema
from .errors import ConfigError, DataError, InsufficientDataError
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
# A stage's results: each conference's EAR series as (timestamps, values),
# and each dependent's regressions, one per covariate.
Series = dict[str, tuple[np.ndarray, np.ndarray]]
Results = dict[str, list[regression.RegressionResult]]


def stage_identify(
    cfg: RunConfig, records: list[ConferenceRecord], gallery: identity.Gallery,
) -> tuple[Series, dict]:
    """Each landmark stream's target-speaker frames as an EAR series, and
    the identify diagnostics."""
    series: Series = {}
    conferences: dict[str, dict] = {}
    warnings: list[tuple[str, str]] = []
    target = gallery.label_codes[0].index(cfg.target_label)
    for record in records:
        try:
            batch = geometry.read_landmark_batch(record.landmarks, EYE_POINTS)
        except OSError as exc:
            raise ConfigError(f"cannot read landmark file {record.landmarks}: {exc}") from exc
        codes = identity.classify_codes(batch.embeddings, gallery, cfg.identity)
        keep, tally = identity.route_frames(codes, batch.has_embedding, target, cfg.identity)
        values, usable = geometry.batch_ear(batch.points[keep], range(6), range(6, 12))
        timestamps, values = batch.timestamps[keep][usable], values[usable]
        series[record.conference_id] = timestamps, values
        count = len(timestamps)
        info = {**tally, "n_samples": count, "dropped_degenerate": tally["written"] - count}
        if tally["written"] == 0:
            info["warning"] = "no frames classified as target"
            warnings.append((record.conference_id, "no frames kept by identity filter"))
        elif count == 0:
            info["warning"] = "no usable EAR frame"
            warnings.append((record.conference_id, "every kept frame has a degenerate eye"))
        conferences[record.conference_id] = info
    # Logged only after every file has been read, so that a data error in a
    # later file stays the failing run's one line on stderr.
    for conference_id, warning in warnings:
        log.warning("conference %s: %s", conference_id, warning)
    return series, {"conferences": conferences}


ATTENTION_COLUMNS = (
    "conference_id", "date", "attention_integral", "log_attention",
    "delta_log_attention", "reading_time_s", "end_s", "observed_s",
    "n_samples", "n_gaps", "log_n_questions", "log_qa_duration",
    "log_chair_speech", "delta_log_n_questions", "delta_log_qa_duration",
    "delta_log_chair_speech",
)
DELTA_SOURCES = {
    "delta_log_attention": "log_attention",
    "delta_log_n_questions": "log_n_questions",
    "delta_log_qa_duration": "log_qa_duration",
    "delta_log_chair_speech": "log_chair_speech",
}
WINDOW_COLUMNS = (
    "conference_id", "date", "return_during", "return_after", "vol_before",
    "vol_after", "vol_change", "n_returns_before", "n_returns_after",
)


def stage_attention(
    cfg: RunConfig, records: list[ConferenceRecord], series: Series,
) -> tuple[list[dict], dict]:
    """The attention table from stage_identify's EAR series.

    Returns its rows, one dict per surviving conference in date order, and
    the attention diagnostics.
    """
    rows: list[dict] = []
    exclusions: list[dict] = []
    floored: list[str] = []

    for record in records:
        timestamps, values = series[record.conference_id]
        try:
            summary = att.summarize_conference(
                att.EarSeries(record.conference_id, timestamps, values,
                              att.estimate_fps(timestamps)),
                cfg.attention,
            )
            if (
                cfg.attention.floor_policy == "epsilon_floor"
                and summary.attention_integral < cfg.attention.floor_value
            ):
                floored.append(record.conference_id)
            transcript = output.read_text(record.transcript)
            segments = att.read_segments_csv(record.segments, record.conference_id)
            benchmark = att.benchmark_variables(transcript, segments, record.qa_duration_s())
        except (DataError, OSError) as exc:
            reason = _path_free(exc, cfg.registry, record.transcript, record.segments)
            exclusions.append({"conference_id": record.conference_id, "reason": reason})
            log.warning("conference %s excluded from attention table: %s",
                        record.conference_id, reason)
            continue
        rows.append({
            **vars(summary),  # the fields, in order, uncopied
            "date": record.date.isoformat(),
            **vars(benchmark),
        })

    # First differences across surviving conferences in date order; the
    # first survivor has no delta.
    for delta_col, source in DELTA_SOURCES.items():
        deltas = att.delta_series([r[source] for r in rows]).tolist() if len(rows) > 1 else []
        for row, delta in zip(rows, [None, *deltas]):
            row[delta_col] = delta
    return rows, {"exclusions": exclusions, "floored": floored, "n_rows": len(rows)}


def _path_free(exc: Exception, registry: Path, *paths: Path) -> str:
    """exc's message, with each of paths named relative to the registry's
    directory.

    Exclusion reasons then do not depend on where --out and the inputs lie.
    """
    reason = str(exc)
    base = registry.resolve().parent
    for path in paths:
        reason = reason.replace(str(path), os.path.relpath(path, base))
    return reason


def stage_eventstudy(
    cfg: RunConfig, records: list[ConferenceRecord], rows: list[dict],
) -> tuple[list[dict], Results, dict]:
    """The window rows and regressions for stage_attention's rows, and the
    eventstudy diagnostics; fewer than 3 usable conferences raise
    InsufficientDataError."""
    by_id = {r.conference_id: r for r in records}
    window_rows: list[dict] = []
    exclusions: list[dict] = []
    # Only the last price file read is held: conferences that share a file
    # in date order read it once.
    prices_path: Path | None = None
    prices: market.PriceSeries | None = None
    for row in rows:
        record = by_id[row["conference_id"]]
        close = record.trading_close
        if close is None:
            close = datetime.combine(
                record.date, cfg.market.trading_close, tzinfo=record.qa_start.tzinfo
            )
        try:
            timeline = market.ConferenceTimeline(record.qa_start, record.conference_end, close)
            if record.prices != prices_path:
                prices = market.read_price_csv(record.prices)
                prices_path = record.prices
            stats = market.event_window_stats(prices, timeline, record.conference_id)
        except (DataError, ConfigError, OSError) as exc:
            reason = _path_free(exc, cfg.registry, record.prices)
            exclusions.append({"conference_id": row["conference_id"], "reason": reason})
            log.warning("conference %s excluded from event study: %s",
                        row["conference_id"], reason)
            continue
        window_rows.append({
            **row,
            **vars(stats),
            "vol_change_x100": stats.vol_change * 100.0,
        })

    usable = [r for r in window_rows if r["delta_log_attention"] is not None]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"only {len(usable)} usable conferences with deltas and price coverage; "
            "need at least 3"
        )

    results: Results = {dependent: [] for dependent in DEPENDENT_COLUMNS}
    for dependent, models in results.items():
        for covariate in COVARIATE_COLUMNS:
            y, x, labels = zip(*[(r[dependent], r[covariate], r["conference_id"])
                                 for r in usable if r[covariate] is not None])
            models.append(regression.ols_univariate(
                regression.RegressionInput(y=np.array(y), x=np.array(x), labels=labels)))

    diagnostics = {
        "exclusions": exclusions,
        "n_windows": len(window_rows),
        "n_regression_rows": len(usable),
        "standard_errors": "classical homoskedastic",
    }
    return window_rows, results, diagnostics


def write_outputs(
    out_dir: Path, digest: str, identified: tuple[Series, dict],
    attended: tuple[list[dict], dict], studied: tuple[list[dict], Results, dict],
) -> list[str]:
    """Write every stage file, stamped with digest, from the three stages'
    return values; returns the rendered tables.  The one place that lays
    out --out."""
    series, identify_diagnostics = identified
    for conference_id, (timestamps, values) in series.items():
        output.write_csv(out_dir / "ear" / f"{conference_id}.csv", att.EAR_COLUMNS,
                         zip(timestamps.tolist(), values.tolist()), digest)
    output.write_json(out_dir / "diagnostics" / "identify.json", identify_diagnostics, digest)

    rows, attention_diagnostics = attended
    output.write_csv(out_dir / "attention.csv", ATTENTION_COLUMNS,
                     map(itemgetter(*ATTENTION_COLUMNS), rows), digest)
    output.write_json(out_dir / "diagnostics" / "attention.json", attention_diagnostics, digest)

    window_rows, results, eventstudy_diagnostics = studied
    output.write_csv(out_dir / "windows.csv", WINDOW_COLUMNS,
                     map(itemgetter(*WINDOW_COLUMNS), window_rows), digest)
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
    attended = STAGE_FUNCTIONS["attention"](cfg, records, identified[0])
    studied = STAGE_FUNCTIONS["eventstudy"](cfg, records, attended[0])
    return write_outputs(out_dir, digest, identified, attended, studied)
