"""Per-layer spans for one in-process ``earstudy run``.

The tracer replaces public functions of the earstudy modules with timing
wrappers for the duration of one run.  The pipeline calls these functions
through module attributes (``geometry.read_landmark_stream``,
``output.write_text``, ...), so the wrappers see every call without any
change to the package.  A span's self time is its duration minus the spans
that ran inside it.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, function, span) timed by the plain wrapper; functions sharing a
# span are summed.  The landmark reader, the identity filter, the price
# reader and the file writer get wrappers that also count their work.
SPANS = (
    ("pipeline", "load_registry", "pipeline.registry_load"),
    ("geometry", "write_landmark_stream", "geometry.encode"),
    ("geometry", "frame_ear", "geometry.ear"),
    ("identity", "load_gallery", "identity.gallery_load"),
    ("attention", "write_ear_csv", "attention.ear_csv_write"),
    ("attention", "read_ear_csv", "attention.ear_csv_read"),
    ("attention", "series_from_samples", "attention.integral"),
    ("attention", "integrate_attention", "attention.integral"),
    ("attention", "log_attention_level", "attention.integral"),
    ("attention", "read_segments_csv", "attention.covariates"),
    ("attention", "benchmark_variables", "attention.covariates"),
    ("market", "build_timeline", "market.windows"),
    ("market", "event_window_stats", "market.windows"),
    ("regression", "ols_univariate", "regression.ols"),
    ("regression", "render_table", "regression.render"),
    ("regression", "table_rows", "regression.render"),
    ("regression", "write_table_csv", "regression.render"),
    ("regression", "write_table_json", "regression.render"),
)
STAGES = ("identify", "ear", "attention", "eventstudy")


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._children: list[float] = []  # child time of each open span

    def _open(self) -> float:
        self._children.append(0.0)
        return perf_counter()

    def _close(self, name: str, started: float) -> None:
        elapsed = perf_counter() - started
        child = self._children.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        self.calls[name] += 1
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            started = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, started)

        return traced

    def wrap_stream(self, fn):
        """Time each ``next()`` of the lazy landmark reader as a parse span."""

        def traced(path):
            frames = fn(path)
            while True:
                started = self._open()
                try:
                    frame = next(frames)
                except StopIteration:
                    return
                finally:
                    self._close("geometry.parse", started)
                self.counts["frames_parsed"] += 1
                yield frame

        return traced

    def wrap_filter(self, fn):
        traced = self.wrap("identity.vote", fn)

        def counted(*args, **kwargs):
            kept, diag = traced(*args, **kwargs)
            self.counts["frames_in"] += diag.total
            self.counts["frames_kept"] += len(kept)
            return kept, diag

        return counted

    def wrap_price_parse(self, fn):
        traced = self.wrap("market.price_parse", fn)

        def counted(path):
            series = traced(path)
            self.counts["bars_parsed"] += len(series.bars)
            return series

        return counted

    def wrap_write(self, fn):
        traced = self.wrap("output.write", fn)

        def counted(path: Path, *args, **kwargs) -> None:
            traced(path, *args, **kwargs)
            self.counts["bytes_written"] += path.stat().st_size

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch the earstudy modules for the duration of the block."""
        from earstudy import attention, geometry, identity, market, output, pipeline, regression

        modules = {
            "attention": attention, "geometry": geometry, "identity": identity,
            "market": market, "output": output, "pipeline": pipeline,
            "regression": regression,
        }
        wrappers = [(modules[mod], fn, lambda f, span=span: self.wrap(span, f))
                    for mod, fn, span in SPANS]
        wrappers += [
            (geometry, "read_landmark_stream", self.wrap_stream),
            (identity, "filter_speaker_frames", self.wrap_filter),
            (market, "read_price_csv", self.wrap_price_parse),
            (output, "write_text", self.wrap_write),
        ]
        # A function a later version removes simply reads as zero time.
        patches = [(module, name, make(getattr(module, name)))
                   for module, name, make in wrappers if hasattr(module, name)]
        stage_table = dict(pipeline.STAGE_FUNCTIONS)
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            for stage, fn in stage_table.items():
                pipeline.STAGE_FUNCTIONS[stage] = self.wrap(f"pipeline.{stage}", fn)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)
            pipeline.STAGE_FUNCTIONS.update(stage_table)

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values, named as in BENCHMARK.json."""
        t, c, n = self.total, self.counts, self.calls
        values = {f"pipeline.{stage}_s": t[f"pipeline.{stage}"] for stage in STAGES}
        values.update({
            "pipeline.registry_load_s": t["pipeline.registry_load"],
            "pipeline.registry_loads": n["pipeline.registry_load"],
            "geometry.parse_s": t["geometry.parse"],
            "geometry.frames_parsed": c["frames_parsed"],
            "geometry.parse_frames_per_s": _ratio(c["frames_parsed"], t["geometry.parse"]),
            "geometry.encode_s": t["geometry.encode"],
            "geometry.ear_s": t["geometry.ear"],
            "geometry.ear_calls": n["geometry.ear"],
            "identity.vote_s": self.self_time["identity.vote"],
            "identity.gallery_load_s": t["identity.gallery_load"],
            "identity.frames_in": c["frames_in"],
            "identity.frames_kept": c["frames_kept"],
            "identity.kept_ratio": _ratio(c["frames_kept"], c["frames_in"]),
            "attention.ear_csv_write_s": t["attention.ear_csv_write"],
            "attention.ear_csv_read_s": t["attention.ear_csv_read"],
            "attention.integral_s": t["attention.integral"],
            "attention.covariates_s": t["attention.covariates"],
            "market.price_parse_s": t["market.price_parse"],
            "market.bars_parsed": c["bars_parsed"],
            "market.windows_s": t["market.windows"],
            "regression.ols_s": t["regression.ols"],
            "regression.ols_calls": n["regression.ols"],
            "regression.render_s": t["regression.render"],
            "output.write_s": t["output.write"],
            "output.files_written": n["output.write"],
            "output.bytes_written": c["bytes_written"],
        })
        return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(argv: list[str]) -> tuple[int, float, Tracer]:
    """Run ``earstudy`` in this process under the tracer, stdout discarded.

    Returns the exit code, the wall time of ``cli.main`` and the tracer.
    """
    from earstudy import cli

    tracer = Tracer()
    with tracer.installed(), open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(devnull):
        started = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - started
    return code, wall, tracer
