"""Event timelines and intraday return/volatility windows from 1-minute bars.

Each conference's timeline holds three instants, the Q&A start, the
conference end and the trading close, and opens its pre-event window two
hours before the Q&A.  Log returns are measured during the Q&A and from
its end to the close; realized volatility is the root mean square of the
1-minute log returns whose endpoints both fall inside the (open, close]
window being measured.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from operator import attrgetter, lt, methodcaller
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import orjson

from . import output
from .errors import ConfigError, CoverageError, MalformedRecordError

PRE_WINDOW = timedelta(minutes=120)


class PriceBar(NamedTuple):
    timestamp: datetime
    price: float


class PriceSeries:
    """Minute bars as two columns: aware datetimes in strictly increasing
    order, and positive finite float64 prices.

    The columns are checked in bulk; a series that breaks a rule raises
    MalformedRecordError naming its first bad bar.
    """

    __slots__ = ("times", "prices")

    def __init__(self, times: Iterable[datetime], prices: Sequence[float] | np.ndarray) -> None:
        times = tuple(times)
        prices = np.array(prices, dtype=np.float64)
        if prices.shape != (len(times),):
            raise ValueError(f"{len(times)} times but prices of shape {prices.shape}")
        prices.setflags(write=False)
        if not (
            None not in map(attrgetter("tzinfo"), times)
            and _positive_finite(prices)
            and all(map(lt, times, times[1:]))
        ):
            raise MalformedRecordError(_first_bad_bar(times, prices))
        self.times = times
        self.prices = prices

    @classmethod
    def _ordered(cls, times: tuple[datetime, ...], prices: np.ndarray) -> PriceSeries:
        """A series of aware times that the caller has proven strictly
        increasing, and a float64 array of one price per time; only the
        prices are checked."""
        prices.setflags(write=False)
        if not _positive_finite(prices):
            raise MalformedRecordError(_first_bad_bar(times, prices))
        series = object.__new__(cls)
        series.times = times
        series.prices = prices
        return series

    @property
    def bars(self) -> tuple[PriceBar, ...]:
        return tuple(map(PriceBar, self.times, self.prices.tolist()))


def _positive_finite(prices: np.ndarray) -> bool:
    return bool(((prices > 0) & (prices < math.inf)).all())


def _first_bad_bar(times: tuple[datetime, ...], prices: np.ndarray) -> str:
    """The rule that the first bad bar of a rejected series breaks."""
    prev: datetime | None = None
    for timestamp, price in zip(times, prices.tolist()):
        if timestamp.tzinfo is None:
            return f"price bar at {timestamp} lacks a timezone designator"
        if not math.isfinite(price):
            return f"non-finite price {price} at {timestamp}"
        if price <= 0:
            return f"non-positive price {price} at {timestamp}"
        if prev is not None and timestamp <= prev:
            return f"price timestamps not strictly increasing at {timestamp}"
        prev = timestamp
    raise AssertionError("a series that fails the bulk checks has a bad bar")


@dataclass(frozen=True)
class ConferenceTimeline:
    """The Q&A start, the conference end and the trading close, in order,
    each with a UTC offset; the pre-event window opens PRE_WINDOW before
    the Q&A."""

    qa_start: datetime
    conference_end: datetime
    trading_close: datetime

    def __post_init__(self) -> None:
        for name, instant in vars(self).items():
            if instant.utcoffset() is None:
                raise ConfigError(f"timeline {name} {instant} lacks a UTC offset")
        if not (self.qa_start < self.conference_end < self.trading_close):
            raise ConfigError(
                f"expected qa_start < conference_end < trading_close, got "
                f"{self.qa_start} / {self.conference_end} / {self.trading_close}"
            )

    @property
    def window_open(self) -> datetime:
        return self.qa_start - PRE_WINDOW


def price_at(series: PriceSeries, t: datetime) -> float:
    """Price of the latest bar at or before t."""
    idx = bisect_right(series.times, t) - 1
    if idx < 0:
        raise CoverageError(f"no price bar at or before {t.isoformat()}")
    return float(series.prices[idx])


def window_log_return(series: PriceSeries, t_from: datetime, t_to: datetime) -> float:
    """Natural-log return between the prices prevailing at two instants."""
    if t_from >= t_to:
        raise ConfigError(f"return window is empty or reversed: {t_from} .. {t_to}")
    return math.log(price_at(series, t_to) / price_at(series, t_from))


def window_returns(series: PriceSeries, t_from: datetime, t_to: datetime) -> np.ndarray:
    """Per-bar log returns whose endpoints both lie in (t_from, t_to].

    The half-open convention keeps a return straddling the window opening
    from leaking outside variance into the window.
    """
    if t_from >= t_to:
        raise ConfigError(f"volatility window is empty or reversed: {t_from} .. {t_to}")
    lo = bisect_right(series.times, t_from)
    hi = bisect_right(series.times, t_to)
    prices = series.prices[lo:hi]
    if prices.size < 2:
        raise CoverageError(
            f"window ({t_from.isoformat()}, {t_to.isoformat()}] contains "
            f"{prices.size} bar(s); need at least 2 for one return"
        )
    return np.diff(np.log(prices))


def _rms(returns: np.ndarray) -> float:
    return float(np.sqrt(np.mean(returns**2)))


def realized_vol(series: PriceSeries, t_from: datetime, t_to: datetime) -> float:
    """Root mean square of the window's 1-minute log returns."""
    return _rms(window_returns(series, t_from, t_to))


def event_window_stats(
    series: PriceSeries, timeline: ConferenceTimeline, conference_id: str
) -> dict:
    """windows.csv's during/after returns and before/after volatilities of
    one conference; its row takes conference_id and date from the
    attention table."""
    try:
        returns_before = window_returns(series, timeline.window_open, timeline.qa_start)
        returns_after = window_returns(series, timeline.conference_end, timeline.trading_close)
        return_during = window_log_return(series, timeline.qa_start, timeline.conference_end)
        return_after = window_log_return(series, timeline.conference_end, timeline.trading_close)
    except CoverageError as exc:
        raise CoverageError(f"conference {conference_id!r}: {exc}") from exc
    vol_before = _rms(returns_before)
    vol_after = _rms(returns_after)
    return {
        "return_during": return_during,
        "return_after": return_after,
        "vol_before": vol_before,
        "vol_after": vol_after,
        "vol_change": vol_after - vol_before,
        "n_returns_before": len(returns_before),
        "n_returns_after": len(returns_after),
    }


WINDOW_COLUMNS = (
    "conference_id", "date", "return_during", "return_after", "vol_before",
    "vol_after", "vol_change", "n_returns_before", "n_returns_after",
)


# ---------------------------------------------------------------------------
# Price CSV: header "timestamp,price", ISO-8601 timestamps with an explicit
# offset, one row per minute bar.
# ---------------------------------------------------------------------------


def parse_instant(text: str) -> datetime:
    """ISO-8601 instant with a required timezone designator."""
    cleaned = text.strip().replace("Z", "+00:00")
    try:
        value = datetime.fromisoformat(cleaned)
    except ValueError as exc:
        raise MalformedRecordError(f"invalid timestamp {text!r}") from exc
    if value.tzinfo is None:
        raise MalformedRecordError(f"timestamp {text!r} lacks a timezone designator")
    return value


PRICE_COLUMNS = ("timestamp", "price")


def _check_price_row(row: list[str]) -> None:
    parse_instant(row[0]), float(row[1])


# A stamp in the form "YYYY-MM-DDTHH:MM:SS±HH:MM", ASCII digits only, once
# every digit reads as "0" and "+" as "-".  fromisoformat takes any character
# between date and time, so a looser form would let text order and instant
# order part.
_STAMP_LINE = b"0000-00-00T00:00:00-00:00\n"
_TO_STAMP_SHAPE = bytes.maketrans(b"0123456789+", b"0000000000-")


def _stamps_order_as_text(stamps: list[str]) -> bool:
    """Whether every stamp is in the canonical form with one shared offset,
    so that byte order is instant order, and the stamps strictly increase
    as bytes."""
    n = len(stamps)
    data = "\n".join(stamps).encode() + b"\n"
    # In the canonical shape every line is 26 bytes, so data[k::26] is
    # column k: bytes 19-24 hold the offset.
    if not (
        data.translate(_TO_STAMP_SHAPE) == _STAMP_LINE * n
        and all(data[k::26] == data[k:k + 1] * n for k in range(19, 25))
        # Where fromisoformat takes hour 24, it reads as the next day's 00.
        and b"T24" not in data
    ):
        return False
    lines = np.frombuffer(data, "S26")
    return bool((lines[1:] > lines[:-1]).all())


def _price_column(texts: list[str]) -> np.ndarray:
    """float() of each price cell, as float64.

    One orjson parse reads the column when it gives one float per cell:
    then every cell is a JSON number with optional surrounding whitespace,
    which float() reads to the same double.  An int ("-0" would lose its
    sign) or any text that JSON rejects ("nan", "+1.5", ".5", "1_000.5",
    non-ASCII digits) sends the column through float() cell by cell.
    """
    try:
        values = orjson.loads("[" + ",".join(texts) + "]")
    except orjson.JSONDecodeError:
        values = None
    if values is None or len(values) != len(texts) or set(map(type, values)) - {float}:
        values = list(map(float, texts))
    return np.array(values, dtype=np.float64)


def _price_series(stamps: list[str], prices: list[str]) -> PriceSeries:
    """The series of a price file's stamp and price cells."""
    # parse_instant's steps over the whole column: every "Z" reads as
    # "+00:00" (fromisoformat alone would also take a "Z" between date and
    # time), and the strip is needed only when the raw text fails, as
    # fromisoformat takes no surrounding space.
    if "Z" in "".join(stamps):
        stamps = list(map(methodcaller("replace", "Z", "+00:00"), stamps))
    try:
        times = tuple(map(datetime.fromisoformat, stamps))
    except ValueError:
        times = tuple(map(datetime.fromisoformat, map(str.strip, stamps)))
    column = _price_column(prices)
    if _stamps_order_as_text(stamps):
        return PriceSeries._ordered(times, column)
    return PriceSeries(times, column)


def read_price_csv(path: str | Path) -> PriceSeries:
    """The price file as a checked series, its cells read by
    output.read_columns and converted a column at a time.

    A file with a row that parse_instant or float rejects raises the error
    that row gives, naming the first such row; a file whose rows all read
    raises PriceSeries's error for its first bad bar.  A file whose stamps
    are all "YYYY-MM-DDTHH:MM:SS±HH:MM" with one offset is proven in order
    from its text; any other file is checked on its datetimes.
    """
    cells = output.read_columns(path, PRICE_COLUMNS, _check_price_row, "price")
    try:
        return _price_series(*cells)
    except (ValueError, MalformedRecordError):
        output.check_rows(path, map(list, zip(*cells)), _check_price_row, "price")
        raise
