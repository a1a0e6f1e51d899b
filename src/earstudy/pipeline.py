"""The pipeline: identify -> attention -> eventstudy, run in that order.

identify turns each landmark stream into the target speaker's EAR series,
ear/<id>.csv; attention reads those files and returns the attention table
it writes; eventstudy takes that table in memory.  Each stage writes its
own files plus diagnostics.  Conferences that fail a stage are excluded
with a logged reason rather than aborting the run.
"""

from __future__ import annotations

import hashlib
import io
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


def stage_identify(
    cfg: RunConfig, out_dir: Path, records: list[ConferenceRecord], digest: str,
    gallery: identity.Gallery,
) -> dict:
    """Each landmark stream's target-speaker frames as an EAR series, ear/<id>.csv."""
    conferences: dict[str, dict] = {}
    warnings: list[tuple[str, str]] = []
    for record in records:
        if not record.landmarks.exists():
            raise ConfigError(f"landmark file not found: {record.landmarks}")
        try:
            batch = geometry.read_landmark_batch(record.landmarks, EYE_POINTS)
        except OSError as exc:
            raise ConfigError(f"cannot read landmark file {record.landmarks}: {exc}") from exc
        labels = identity.classify_batch(batch.embeddings, gallery, cfg.identity)
        keep, diag = identity.route_frames(
            labels, batch.has_embedding.tolist(), cfg.target_label, cfg.identity
        )
        keep = np.array(keep, dtype=bool)
        values, usable = geometry.batch_ear(batch.points[keep], range(6), range(6, 12))
        buf = io.StringIO()
        count = att.write_ear_csv(batch.timestamps[keep][usable], values[usable], buf,
                                  meta_line=output.meta_line(digest))
        output.write_text(out_dir / "ear" / f"{record.conference_id}.csv",
                          buf.getvalue(), digest)
        info = {**diag.as_dict(), "n_samples": count, "dropped_degenerate": diag.written - count}
        if diag.written == 0:
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

    diagnostics = {"conferences": conferences}
    output.write_json(out_dir / "diagnostics" / "identify.json", diagnostics, digest)
    return diagnostics


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
    cfg: RunConfig, out_dir: Path, records: list[ConferenceRecord], digest: str
) -> list[dict]:
    """The attention table from ear/<id>.csv, written as attention.csv.

    Returns its rows, one dict per surviving conference in date order.
    """
    rows: list[dict] = []
    exclusions: list[dict] = []
    floored: list[str] = []

    for record in records:
        ear_path = out_dir / "ear" / f"{record.conference_id}.csv"
        if not ear_path.exists():
            raise ConfigError(
                f"missing EAR series for {record.conference_id!r}: "
                "run the identify stage first"
            )
        try:
            timestamps, values = att.read_ear_csv(ear_path)
            series = att.EarSeries(
                record.conference_id, timestamps, values, att.estimate_fps(timestamps)
            )
            summary = att.summarize_conference(series, cfg.attention)
            if (
                cfg.attention.floor_policy == "epsilon_floor"
                and summary.attention_integral < cfg.attention.floor_value
            ):
                floored.append(record.conference_id)
            transcript = output.read_text(record.transcript)
            segments = att.read_segments_csv(record.segments, record.conference_id)
            benchmark = att.benchmark_variables(
                transcript, segments, 0.0, record.qa_duration_s()
            )
        except (DataError, OSError) as exc:
            reason = _path_free(exc, out_dir, cfg.registry, ear_path, record.transcript,
                                record.segments)
            exclusions.append({"conference_id": record.conference_id, "reason": reason})
            log.warning("conference %s excluded from attention table: %s",
                        record.conference_id, reason)
            continue
        rows.append({
            **vars(summary),  # the fields, in order, uncopied
            "date": record.date.isoformat(),
            "log_n_questions": benchmark.n_questions_log,
            "log_qa_duration": benchmark.duration_qa_log,
            "log_chair_speech": benchmark.duration_chair_speech_log,
        })

    # First differences across surviving conferences in date order; the
    # first survivor has no delta.
    for delta_col, source in DELTA_SOURCES.items():
        deltas = att.delta_series([r[source] for r in rows]).tolist() if len(rows) > 1 else []
        for row, delta in zip(rows, [None, *deltas]):
            row[delta_col] = delta

    buf = io.StringIO()
    output.write_csv(buf, ATTENTION_COLUMNS, map(itemgetter(*ATTENTION_COLUMNS), rows),
                     output.meta_line(digest))
    output.write_text(out_dir / "attention.csv", buf.getvalue(), digest)

    diagnostics = {"exclusions": exclusions, "floored": floored, "n_rows": len(rows)}
    output.write_json(out_dir / "diagnostics" / "attention.json", diagnostics, digest)
    return rows


def _path_free(exc: Exception, out_dir: Path, registry: Path, *paths: Path) -> str:
    """exc's message, with each of paths named relative to out_dir when it
    lies there, else relative to the registry's directory.

    Exclusion reasons then do not depend on where --out and the inputs lie.
    """
    reason = str(exc)
    for path in paths:
        base = out_dir if path.is_relative_to(out_dir) else registry.resolve().parent
        reason = reason.replace(str(path), os.path.relpath(path, base))
    return reason


def stage_eventstudy(
    cfg: RunConfig, out_dir: Path, records: list[ConferenceRecord], digest: str,
    rows: list[dict],
) -> list[str]:
    """Window statistics and the regression tables for stage_attention's rows;
    returns the table texts."""
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
            timeline = market.build_timeline(record.qa_start, record.conference_end, close)
            if record.prices != prices_path:
                prices = market.read_price_csv(record.prices)
                prices_path = record.prices
            stats = market.event_window_stats(prices, timeline, record.conference_id)
        except (DataError, ConfigError, OSError) as exc:
            reason = _path_free(exc, out_dir, cfg.registry, record.prices)
            exclusions.append({"conference_id": row["conference_id"], "reason": reason})
            log.warning("conference %s excluded from event study: %s",
                        row["conference_id"], reason)
            continue
        window_rows.append({
            **row,
            **vars(stats),
            "vol_change_x100": stats.vol_change * 100.0,
        })

    buf = io.StringIO()
    output.write_csv(buf, WINDOW_COLUMNS, map(itemgetter(*WINDOW_COLUMNS), window_rows),
                     output.meta_line(digest))
    output.write_text(out_dir / "windows.csv", buf.getvalue(), digest)

    usable = [r for r in window_rows if r["delta_log_attention"] is not None]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"only {len(usable)} usable conferences with deltas and price coverage; "
            "need at least 3"
        )

    texts: list[str] = []
    for dependent in DEPENDENT_COLUMNS:
        results = []
        for covariate in COVARIATE_COLUMNS:
            pairs = [
                (r[dependent], r[covariate], r["conference_id"])
                for r in usable
                if r[covariate] is not None
            ]
            data = regression.RegressionInput(
                y=np.array([p[0] for p in pairs]),
                x=np.array([p[1] for p in pairs]),
                labels=tuple(p[2] for p in pairs),
            )
            results.append(regression.ols_univariate(data))
        text = regression.render_table(results, dependent, COVARIATE_COLUMNS)
        texts.append(text)
        rows_out = regression.table_rows(results, dependent, COVARIATE_COLUMNS)

        output.write_text(
            out_dir / "tables" / f"{dependent}.txt",
            f"# {output.meta_line(digest)}\n" + text,
            digest,
        )
        csv_buf = io.StringIO()
        regression.write_table_csv(rows_out, csv_buf, meta_line=output.meta_line(digest))
        output.write_text(out_dir / "tables" / f"{dependent}.csv", csv_buf.getvalue(), digest)
        output.write_json(out_dir / "tables" / f"{dependent}.json", {"models": rows_out}, digest)

    diagnostics = {
        "exclusions": exclusions,
        "n_windows": len(window_rows),
        "n_regression_rows": len(usable),
        "standard_errors": "classical homoskedastic",
    }
    output.write_json(out_dir / "diagnostics" / "eventstudy.json", diagnostics, digest)
    return texts


STAGE_FUNCTIONS = {
    "identify": stage_identify,
    "attention": stage_attention,
    "eventstudy": stage_eventstudy,
}


def run_stages(cfg: RunConfig, out_dir: Path) -> list[str]:
    """Run identify, attention and eventstudy, one after another.

    The registry and the gallery are loaded, and the inputs hashed, once,
    before anything is written, so an input error leaves --out untouched.
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
    STAGE_FUNCTIONS["identify"](cfg, out_dir, records, digest, gallery)
    rows = STAGE_FUNCTIONS["attention"](cfg, out_dir, records, digest)
    return STAGE_FUNCTIONS["eventstudy"](cfg, out_dir, records, digest, rows)
