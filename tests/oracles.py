"""Independent reference implementations used to check the package.

These deliberately avoid the code paths under test: a stdlib-json landmark
reader with per-field checks, the EAR over plain (x, y) tuples,
plain-python distance sums, the vote as one norm per gallery entry, the
identity filter's routing frame by frame, a design-matrix normal-equations
OLS solve, scipy's t distribution, adaptive Simpson quadrature of the t
density, a two-pass RMS, a row-by-row price reader with event windows over
plain lists, the CSV rows as the stdlib csv module reads them, and the
continuous-limit attention of a synthetic conference's planted episodes.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right

import numpy as np
import scipy.stats

from earstudy.market import parse_instant


class RejectedLine(Exception):
    """The first line of a landmark stream that breaks the format."""

    def __init__(self, path, line_no: int):
        super().__init__(f"{path}: line {line_no}")
        self.path = path
        self.line_no = line_no


def _is_number(value) -> bool:
    """A JSON number that is a finite double."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the double range
        return False


def _frame_record_ok(record) -> bool:
    """The README's landmark record format, field by field."""
    if not isinstance(record, dict):
        return False
    index = record.get("frame_index")
    points = record.get("points")
    embedding = record.get("embedding")
    return (
        type(record.get("conference_id")) is str
        # the integers orjson decodes as integers
        and type(index) is int and -2**63 <= index < 2**64
        and _is_number(record.get("timestamp_s")) and record["timestamp_s"] >= 0
        and type(points) is list and len(points) == 68
        and all(type(p) is list and len(p) == 2 and all(map(_is_number, p)) for p in points)
        and (embedding is None or (type(embedding) is list and len(embedding) == 128
                                   and all(map(_is_number, embedding))))
    )


def read_landmark_columns(path) -> dict:
    """timestamp_s, points and embedding (None when absent) of each frame record.

    Reads with the stdlib json module and raises RejectedLine for the first
    line that is not UTF-8 JSON, breaks the record format or goes back in
    time within its conference.
    """
    columns: dict = {"timestamp_s": [], "points": [], "embedding": []}
    latest: dict = {}
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except ValueError:
                raise RejectedLine(path, line_no) from None
            if isinstance(record, dict) and "_meta" in record:
                continue
            if not _frame_record_ok(record):
                raise RejectedLine(path, line_no)
            conference, time = record["conference_id"], record["timestamp_s"]
            if time < latest.get(conference, time):
                raise RejectedLine(path, line_no)
            latest[conference] = time
            columns["timestamp_s"].append(float(time))
            columns["points"].append([(float(x), float(y)) for x, y in record["points"]])
            embedding = record.get("embedding")
            columns["embedding"].append(
                None if embedding is None else [float(v) for v in embedding]
            )
    return columns


def eye_aspect_ratio(eye) -> float:
    """EAR of six (x, y) points, corner-lid-lid-corner-lid-lid.

    Raises ZeroDivisionError when the corners coincide.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4), (x5, y5), (x6, y6) = eye
    vertical = math.hypot(x2 - x6, y2 - y6) + math.hypot(x3 - x5, y3 - y5)
    return vertical / (2.0 * math.hypot(x1 - x4, y1 - y4))


def frame_aspect_ratio(points, left, right) -> float:
    """Mean EAR of the two eyes at the given landmark indices of a frame."""
    left_ear = eye_aspect_ratio([points[i] for i in left])
    return (left_ear + eye_aspect_ratio([points[i] for i in right])) / 2.0


def python_norm(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def brute_force_classify(query, entries, epsilon, min_votes):
    """Exhaustive-distance plurality vote; entries are (label, vector) pairs."""
    counts: dict[str, int] = {}
    for label, vector in entries:
        counts.setdefault(label, 0)
        if python_norm(query, vector) < epsilon:
            counts[label] += 1
    best = max(counts.values())
    winners = [label for label, count in counts.items() if count == best]
    if best < min_votes or len(winners) != 1:
        return None
    return winners[0]


def vote_counts_loop(embeddings, gallery, epsilon) -> np.ndarray:
    """identity.vote_counts as one norm per gallery entry: (N, L) votes."""
    embeddings = np.asarray(embeddings, dtype=float)
    names, codes = gallery.label_codes
    counts = np.zeros((len(embeddings), len(names)), dtype=int)
    for row, code in zip(gallery.matrix, codes.tolist()):
        counts[:, code] += np.linalg.norm(embeddings - row, axis=1) < epsilon
    return counts


def route_frames_loop(codes, has_embedding, target, no_embedding_policy):
    """The identity filter's routing one frame at a time: whether each frame
    is kept, and the tally in the order diagnostics/identify.json lists it.

    codes[i] is frame i's label code, negative when unknown.  It is ignored
    for a frame without an embedding, which is kept only under the
    "assume_target" policy.
    """
    tally = dict.fromkeys(("kept", "rejected", "unknown", "no_embedding"), 0)
    keep = []
    for code, has in zip(codes, has_embedding, strict=True):
        if not has:
            tally["no_embedding"] += 1
            keep.append(no_embedding_policy == "assume_target")
        elif code < 0:
            tally["unknown"] += 1
            keep.append(False)
        elif code == target:
            tally["kept"] += 1
            keep.append(True)
        else:
            tally["rejected"] += 1
            keep.append(False)
    tally["written"] = sum(keep)
    tally["total"] = len(keep)
    return keep, tally


def ols_normal_equations(x, y) -> dict:
    """Two-regressor (intercept + slope) OLS via the design-matrix normal
    equations, with inference from the inverse Gram matrix."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    design = np.column_stack([np.ones(n), x])
    gram = design.T @ design
    coef = np.linalg.solve(gram, design.T @ y)
    resid = y - design @ coef
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    df = n - 2
    s2 = ssr / df
    cov = s2 * np.linalg.inv(gram)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = coef / se
        r2 = 1.0 - ssr / sst if sst > 0 else 1.0
        f = (sst - ssr) / (ssr / df) if ssr > 0 else math.inf
    p = t_two_sided_p_scipy(t, df)
    return {
        "alpha": float(coef[0]),
        "beta": float(coef[1]),
        "se_alpha": float(se[0]),
        "se_beta": float(se[1]),
        "t_alpha": float(t[0]),
        "t_beta": float(t[1]),
        "p_alpha": float(p[0]),
        "p_beta": float(p[1]),
        "r2": float(r2),
        "adj_r2": float(1.0 - (1.0 - r2) * (n - 1) / df),
        "resid_se": float(math.sqrt(s2)),
        "f_stat": float(f),
        "n": n,
    }


def t_two_sided_p_scipy(t, df):
    """2*P(T_df > |t|) from scipy.stats, elementwise over an array of t."""
    return 2.0 * scipy.stats.t.sf(np.abs(t), df)


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, whole, m, fm, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive(f, a, fa, m, fm, left, lm, flm, tol / 2.0, depth - 1) + _adaptive(
        f, m, fm, b, fb, right, rm, frm, tol / 2.0, depth - 1
    )


def integrate(f, a, b, tol=1e-12):
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, whole, m, fm, tol, 60)


def t_two_sided_p_quadrature(t_value: float, df: int) -> float:
    """2*P(T_df > |t|) by integrating the density from 0 to |t|.

    The normalizing constant comes from log-gamma; the proper integral is
    evaluated with adaptive Simpson quadrature.
    """
    t_abs = abs(float(t_value))
    if t_abs == 0.0:
        return 1.0
    const = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(
        df * math.pi
    )

    def density(u: float) -> float:
        return const * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    return 1.0 - 2.0 * integrate(density, 0.0, t_abs)


def rms_two_pass(values) -> float:
    """Root mean square via an explicit two-pass python loop."""
    acc = 0.0
    count = 0
    for v in values:
        acc += float(v) * float(v)
        count += 1
    return math.sqrt(acc / count)


def read_csv_rows(path) -> tuple[list | None, list]:
    """The header and data rows of a CSV file, read with the stdlib csv module.

    The file is read in universal-newline mode, "#" lines are dropped
    before the csv module sees them, and blank rows are skipped.  The
    header is None for a file with no other line.
    """
    with open(path, encoding="utf-8") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(rows, None)
        return header, [row for row in rows if row]


def read_price_rows(path) -> tuple[list, list]:
    """Timestamps and prices of a price CSV, one row at a time.

    Uses the stdlib csv module, parse_instant and float; "#" lines, the
    header and blank rows are skipped.
    """
    times, prices = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        next(rows)
        for row in rows:
            if row:
                times.append(parse_instant(row[0]))
                prices.append(float(row[1]))
    return times, prices


def event_windows(times, prices, timeline) -> dict:
    """The EventWindowStats fields over plain lists of bars.

    A price is that of the latest bar at or before an instant; a window's
    returns are those between bars in (open, close], in the order numpy
    takes the log, differences and RMS, so every field matches bit for bit.
    """

    def price_at(t):
        return prices[bisect_right(times, t) - 1]

    def returns(t_from, t_to):
        window = prices[bisect_right(times, t_from):bisect_right(times, t_to)]
        return np.diff(np.log(np.array(window)))

    def rms(values):
        return float(np.sqrt(np.mean(values**2)))

    before = returns(timeline.window_open, timeline.qa_start)
    after = returns(timeline.conference_end, timeline.trading_close)
    vol_before, vol_after = rms(before), rms(after)
    return {
        "return_during": math.log(price_at(timeline.conference_end)
                                  / price_at(timeline.qa_start)),
        "return_after": math.log(price_at(timeline.trading_close)
                                 / price_at(timeline.conference_end)),
        "vol_before": vol_before,
        "vol_after": vol_after,
        "vol_change": vol_after - vol_before,
        "n_returns_before": len(before),
        "n_returns_after": len(after),
    }


def read_ear_rows(path) -> tuple[list, list]:
    """Timestamps and EAR values of an EAR CSV, read with the stdlib csv module."""
    timestamps, values = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        next(rows)
        for row in rows:
            if row:
                timestamps.append(float(row[0]))
                values.append(float(row[1]))
    return timestamps, values


def attention_row(timestamps, values, threshold, gap_factor) -> dict | None:
    """The attention.csv fields of one conference, by a loop over its samples.

    The nominal frame interval is the reciprocal of the frame rate, which is
    the reciprocal of the median sample spacing.  Each sample below the
    threshold adds value * step to the integral (summed with math.fsum) and
    step to the reading time; a spacing wider than gap_factor steps is a gap.
    None when there are fewer than 2 samples, and log_attention is None when
    the integral is 0.
    """
    if len(timestamps) < 2:
        return None
    spacings = sorted(b - a for a, b in zip(timestamps, timestamps[1:]))
    mid = len(spacings) // 2
    median = spacings[mid] if len(spacings) % 2 else (spacings[mid - 1] + spacings[mid]) / 2
    step = 1.0 / (1.0 / median)
    below = [v for v in values if v < threshold]
    integral = math.fsum(below) * step
    return {
        "attention_integral": integral,
        "log_attention": math.log(integral) if integral > 0 else None,
        "reading_time_s": len(below) * step,
        "end_s": timestamps[-1],
        "observed_s": len(timestamps) * step,
        "n_samples": len(timestamps),
        "n_gaps": sum(b - a > gap_factor * step for a, b in zip(timestamps, timestamps[1:])),
    }


def analytic_attention(truth, threshold: float) -> tuple[float, float]:
    """Continuous-limit attention integral and sub-threshold time of a
    synth.LandmarkTruth.

    Blink dips carry one frame each and vanish in the continuous limit, so
    they are ignored here; recovery tests use blink-free scenarios.
    """
    episode_seconds = sum(e.end_s - e.start_s for e in truth.episodes)
    integral = sum(
        e.ear_level * (e.end_s - e.start_s) for e in truth.episodes if e.ear_level < threshold
    )
    reading = sum(
        (e.end_s - e.start_s) for e in truth.episodes if e.ear_level < threshold
    )
    if truth.baseline_ear < threshold:
        baseline_seconds = truth.target_seconds - episode_seconds
        integral += truth.baseline_ear * baseline_seconds
        reading += baseline_seconds
    return integral, reading
