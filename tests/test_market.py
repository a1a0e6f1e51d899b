import json
import math
import shutil
from dataclasses import asdict
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earstudy import (
    ConferenceTimeline,
    ConfigError,
    CoverageError,
    MalformedRecordError,
    PriceSeries,
    event_window_stats,
    price_at,
    realized_vol,
    window_log_return,
)
from earstudy.market import (
    PRICE_COLUMNS,
    _first_bad_bar,
    parse_instant,
    read_price_csv,
    window_returns,
)
from earstudy.output import write_csv
from earstudy.pipeline import load_registry, load_run_config, run_stages
from earstudy.synth import build_fixture, planted_study_scenarios

from conftest import write_run_config
from oracles import event_windows, read_price_rows, rms_two_pass

TZ = timezone(timedelta(hours=-4))


def at(hour, minute, day=15):
    return datetime(2019, 5, day, hour, minute, tzinfo=TZ)


def minute_bars(start, prices):
    return PriceSeries([start + timedelta(minutes=k) for k in range(len(prices))], prices)


def bars_from_returns(start, returns, base=100.0):
    log_prices = np.concatenate([[math.log(base)], math.log(base) + np.cumsum(returns)])
    return minute_bars(start, np.exp(log_prices))


def test_conference_timeline_worked_example():
    tl = ConferenceTimeline(at(14, 30), at(15, 15), at(16, 0))
    assert tl.window_open == at(12, 30)
    assert tl.qa_start == at(14, 30)
    assert tl.trading_close - tl.conference_end == timedelta(minutes=45)


def test_conference_timeline_rejects_bad_order():
    with pytest.raises(ConfigError):
        ConferenceTimeline(at(14, 30), at(16, 30), at(16, 0))
    with pytest.raises(ConfigError):
        ConferenceTimeline(at(14, 30), at(14, 30), at(16, 0))


def test_price_at_last_at_or_before():
    series = PriceSeries([at(14, 29), at(14, 31)], [100.0, 102.0])
    assert price_at(series, at(14, 30)) == 100.0
    assert price_at(series, at(14, 31)) == 102.0
    with pytest.raises(CoverageError):
        price_at(series, at(14, 28))


def test_window_log_return_values():
    series = minute_bars(at(14, 0), [100.0, 105.0])
    got = window_log_return(series, at(14, 0), at(14, 1))
    assert got == pytest.approx(math.log(1.05), abs=1e-15)
    assert got == pytest.approx(0.048790, abs=1e-6)

    flat = minute_bars(at(14, 0), [100.0, 100.0])
    assert window_log_return(flat, at(14, 0), at(14, 1)) == 0.0

    e_jump = minute_bars(at(14, 0), [100.0, 100.0 * math.e])
    assert window_log_return(e_jump, at(14, 0), at(14, 1)) == pytest.approx(1.0, abs=1e-15)


def test_realized_vol_zero_returns():
    series = minute_bars(at(14, 0), [100.0] * 10)
    assert realized_vol(series, at(14, 0), at(14, 9)) == 0.0


def test_realized_vol_equal_magnitudes():
    series = bars_from_returns(at(14, 0), [0.01, -0.01])
    assert realized_vol(series, at(13, 59), at(14, 2)) == pytest.approx(0.01, abs=1e-12)


def test_realized_vol_constant_return_is_abs():
    for r in (0.004, -0.003):
        series = bars_from_returns(at(14, 0), [r] * 30)
        assert realized_vol(series, at(13, 59), at(14, 30)) == pytest.approx(abs(r), abs=1e-12)


def test_realized_vol_needs_one_return():
    series = minute_bars(at(14, 0), [100.0, 101.0, 102.0])
    with pytest.raises(CoverageError):
        realized_vol(series, at(14, 1), at(14, 2))  # only the 14:02 bar inside


def test_window_returns_half_open_convention():
    series = minute_bars(at(14, 0), [100.0, 101.0, 102.0, 103.0])
    # bar exactly at the window opening is excluded, so the first return
    # inside (14:00, 14:02] is 14:01 -> 14:02
    returns = window_returns(series, at(14, 0), at(14, 2))
    assert len(returns) == 1
    assert returns[0] == pytest.approx(math.log(102.0 / 101.0), abs=1e-15)


def test_return_additivity_on_bar():
    rng = np.random.default_rng(9)
    series = bars_from_returns(at(13, 0), rng.normal(0, 0.002, size=120))
    a = window_log_return(series, at(13, 10), at(13, 50))
    b = window_log_return(series, at(13, 50), at(14, 30))
    total = window_log_return(series, at(13, 10), at(14, 30))
    assert a + b == pytest.approx(total, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_realized_vol_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    returns = rng.normal(0, 0.005, size=40)
    base = bars_from_returns(at(13, 0), returns)
    scaled = PriceSeries(base.times, base.prices * scale)
    lo, hi = at(13, 0), at(13, 40)
    assert realized_vol(scaled, lo, hi) == pytest.approx(
        realized_vol(base, lo, hi), rel=1e-9, abs=1e-15
    )


def test_realized_vol_matches_two_pass_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        returns = rng.normal(0, 0.01, size=int(rng.integers(2, 60)))
        series = bars_from_returns(at(13, 0), returns)
        lo = at(12, 59)
        hi = at(13, 0) + timedelta(minutes=len(returns))
        got = realized_vol(series, lo, hi)
        assert got == pytest.approx(rms_two_pass(returns), rel=1e-9, abs=1e-12)


def full_day_series(vol_before=0.0, vol_after=0.0, drift_qa=0.0, seed=0):
    """Bars from 12:30 to 16:00 around a 14:30-15:15 conference."""
    rng = np.random.default_rng(seed)
    tl = ConferenceTimeline(at(14, 30), at(15, 15), at(16, 0))
    steps = []
    t = tl.window_open
    while t < tl.trading_close:
        nxt = t + timedelta(minutes=1)
        in_qa = t >= tl.qa_start and nxt <= tl.conference_end
        after = t >= tl.conference_end
        vol = vol_after if after else vol_before
        steps.append((drift_qa if in_qa else 0.0) + vol * rng.normal())
        t = nxt
    return bars_from_returns(tl.window_open, steps), tl


def test_event_window_stats_constant_path():
    series, tl = full_day_series()
    stats = event_window_stats(series, tl, "c")
    assert stats.return_during == 0.0
    assert stats.return_after == 0.0
    assert stats.vol_before == 0.0
    assert stats.vol_after == 0.0
    assert stats.vol_change == 0.0


def test_event_window_stats_planted_drift():
    series, tl = full_day_series(drift_qa=0.001)
    stats = event_window_stats(series, tl, "c")
    assert stats.return_during == pytest.approx(0.001 * 45, rel=1e-9)
    assert stats.return_after == pytest.approx(0.0, abs=1e-15)


def test_event_window_stats_vol_drop():
    series, tl = full_day_series(vol_before=0.002, vol_after=0.0005, seed=4)
    stats = event_window_stats(series, tl, "c")
    assert stats.vol_change < 0
    assert stats.n_returns_before == 119
    assert stats.n_returns_after == 44


def test_event_window_stats_deterministic():
    series, tl = full_day_series(vol_before=0.002, vol_after=0.001, drift_qa=0.0005, seed=8)
    first = event_window_stats(series, tl, "c")
    second = event_window_stats(series, tl, "c")
    assert first == second


def test_event_window_stats_coverage_error_names_window():
    series = minute_bars(at(14, 0), [100.0] * 30)  # no pre-window coverage
    tl = ConferenceTimeline(at(14, 30), at(15, 15), at(16, 0))
    with pytest.raises(CoverageError, match="c"):
        event_window_stats(series, tl, "c")


def test_price_series_validation():
    with pytest.raises(MalformedRecordError):
        PriceSeries([datetime(2019, 5, 15, 14, 0)], [100.0])  # naive
    with pytest.raises(MalformedRecordError):
        PriceSeries([at(14, 0)], [-5.0])
    with pytest.raises(MalformedRecordError):
        PriceSeries([at(14, 0), at(14, 0)], [100.0, 101.0])


def test_parse_instant():
    got = parse_instant("2019-05-15T14:30:00-04:00")
    assert got == at(14, 30)
    assert parse_instant("2019-05-15T18:30:00Z") == at(14, 30)
    with pytest.raises(MalformedRecordError):
        parse_instant("2019-05-15T14:30:00")
    with pytest.raises(MalformedRecordError):
        parse_instant("not a time")


def test_price_csv_round_trip(tmp_path):
    series = minute_bars(at(14, 0), [100.0, 100.5, 101.25])
    path = tmp_path / "prices.csv"
    write_csv(path, PRICE_COLUMNS,
              zip(map(datetime.isoformat, series.times), series.prices.tolist()), "ff")
    loaded = read_price_csv(path)
    assert loaded.bars == series.bars


def test_mixed_offsets_are_ordered_by_instant(tmp_path):
    """A file that changes offset is ordered by instant, not by wall clock."""
    path = tmp_path / "prices.csv"
    # 16:30Z, 16:31Z, 16:32Z: the wall clock goes back, the instants go on.
    path.write_text("timestamp,price\n2011-06-15T12:30:00-04:00,100\n"
                    "2011-06-15T12:31:00-04:00,101\n2011-06-15T11:32:00-05:00,102\n")
    assert [t.isoformat() for t in read_price_csv(path).times][-1] == (
        "2011-06-15T11:32:00-05:00"
    )
    # 16:30Z, 17:31Z, 15:32Z: the wall clock goes on, the instants go back.
    path.write_text("timestamp,price\n2011-06-15T12:30:00-04:00,100\n"
                    "2011-06-15T12:31:00-05:00,101\n2011-06-15T12:32:00-03:00,102\n")
    with pytest.raises(MalformedRecordError) as info:
        read_price_csv(path)
    assert str(info.value) == (
        "price timestamps not strictly increasing at 2011-06-15 12:32:00-03:00"
    )


@pytest.mark.parametrize("stamps", [
    ["2019-05-15T18:30:00Z", "2019-05-15T18:31:00Z"],
    [" 2019-05-15T14:30:00-04:00", "2019-05-15T14:31:00-04:00\t"],
    ["2019-05-15T14:30:00-04:00", " 2019-05-15T18:31:00Z "],
    ["2019-05-15T14:30-04:00", "2019-05-15T18:31:00.500Z"],
], ids=["z", "spaces", "z-and-spaces", "short-forms"])
def test_price_stamps_read_as_parse_instant_reads_them(tmp_path, stamps):
    path = tmp_path / "prices.csv"
    path.write_text("timestamp,price\n" + "".join(f"{s},100\n" for s in stamps))
    times = read_price_csv(path).times
    expected = [parse_instant(s) for s in stamps]
    assert [(t.isoformat(), t.tzinfo) for t in times] == [
        (t.isoformat(), t.tzinfo) for t in expected
    ]


def test_a_z_between_date_and_time_is_rejected_as_parse_instant_rejects_it(tmp_path):
    """datetime.fromisoformat takes any character between date and time,
    "Z" too; parse_instant reads every "Z" as "+00:00" and fails."""
    stamp = "2019-05-15Z18:30:00+00:00"
    with pytest.raises(MalformedRecordError) as expected:
        parse_instant(stamp)
    path = tmp_path / "prices.csv"
    path.write_text(f"timestamp,price\n{stamp},100\n")
    with pytest.raises(MalformedRecordError) as info:
        read_price_csv(path)
    assert str(info.value) == str(expected.value) == f"invalid timestamp {stamp!r}"


def write_prices(path, bars):
    path.write_text("timestamp,price\n" + "".join(f"{t},{p}\n" for t, p in bars),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("cell", [
    "1e5", "1E-3", "+1.5", ".5", "5.", "1_000.5", " 2.5", "\u0661\u0662\u0663.\u0665", "100",
    "100000000000000000000000", "1e400",
])
def test_price_cells_read_as_float_reads_them(tmp_path, cell):
    """Each price is float() of its cell, whether JSON reads the cell as a
    float, as an int or not at all."""
    path = write_prices(tmp_path / "prices.csv", [
        ("2011-06-15T12:30:00-04:00", "100.5"),
        ("2011-06-15T12:31:00-04:00", cell),
        ("2011-06-15T12:32:00-04:00", "101.25"),
    ])
    if math.isinf(float(cell)):
        with pytest.raises(MalformedRecordError) as info:
            read_price_csv(path)
        assert str(info.value) == "non-finite price inf at 2011-06-15 12:31:00-04:00"
    else:
        got = read_price_csv(path).prices.tolist()
        assert [p.hex() for p in got] == [float(c).hex() for c in ("100.5", cell, "101.25")]


# Stamp columns, and the reader's error for each or None when the bars are
# in order.  fromisoformat takes any character between date and time, a
# digit or a space too, so stamps outside the canonical "T" form can order
# one way as text and the other way as instants.
STAMP_ORDERS = {
    "canonical-increasing": (
        ["2011-06-15T12:30:00-04:00", "2011-06-15T12:31:00-04:00", "2011-06-16T09:00:00-04:00"],
        None,
    ),
    "canonical-repeat": (
        ["2011-06-15T12:30:00-04:00", "2011-06-15T12:31:00-04:00", "2011-06-15T12:31:00-04:00"],
        "price timestamps not strictly increasing at 2011-06-15 12:31:00-04:00",
    ),
    "digit-separators": (
        ["2011-06-15312:31:00-04:00", "2011-06-15512:30:00-04:00"],
        "price timestamps not strictly increasing at 2011-06-15 12:30:00-04:00",
    ),
    "space-then-t-back-in-time": (
        ["2011-06-15 12:33:00-04:00", "2011-06-15T12:32:30-04:00"],
        "price timestamps not strictly increasing at 2011-06-15 12:32:30-04:00",
    ),
    "t-then-space-forward-in-time": (
        ["2011-06-15T12:32:30-04:00", "2011-06-15 12:33:00-04:00"],
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(STAMP_ORDERS))
def test_stamp_text_order_agrees_with_instant_order(tmp_path, case):
    stamps, reason = STAMP_ORDERS[case]
    path = write_prices(tmp_path / "prices.csv", [(s, "100.5") for s in stamps])
    if reason is None:
        assert read_price_csv(path).times == tuple(map(datetime.fromisoformat, stamps))
    else:
        with pytest.raises(MalformedRecordError) as info:
            read_price_csv(path)
        assert str(info.value) == reason


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from([-4, 1])),
    min_size=1, max_size=6,
))
@settings(max_examples=100, deadline=None)
def test_canonical_stamps_are_accepted_exactly_when_instants_increase(tmp_path_factory, bars):
    """Bars k minutes after 15:00Z, each written in one of two offsets."""
    start = datetime(2011, 6, 15, 15, 0, tzinfo=timezone.utc)
    times = tuple(
        (start + timedelta(minutes=k)).astimezone(timezone(timedelta(hours=h)))
        for k, h in bars
    )
    prices = np.full(len(times), 100.5)
    path = write_prices(tmp_path_factory.mktemp("order") / "prices.csv",
                        [(t.isoformat(), "100.5") for t in times])
    assert all(len(t.isoformat()) == 25 for t in times)
    if all(a < b for a, b in zip(times, times[1:])):
        series = read_price_csv(path)
        assert [(t.isoformat(), t.utcoffset()) for t in series.times] == [
            (t.isoformat(), t.utcoffset()) for t in times
        ]
    else:
        with pytest.raises(MalformedRecordError) as info:
            read_price_csv(path)
        assert str(info.value) == _first_bad_bar(times, prices)


def test_price_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,px\n2019-05-15T14:00:00-04:00,100\n")
    with pytest.raises(MalformedRecordError):
        read_price_csv(path)


def test_price_path_matches_row_oracle(small_fixture):
    """Columns and window statistics equal a row-by-row read, bit for bit."""
    for record in load_registry(small_fixture / "registry.json"):
        series = read_price_csv(record.prices)
        times, prices = read_price_rows(record.prices)
        assert list(map(datetime.isoformat, series.times)) == list(
            map(datetime.isoformat, times)
        )
        assert [p.hex() for p in series.prices.tolist()] == [p.hex() for p in prices]
        timeline = ConferenceTimeline(record.qa_start, record.conference_end, record.trading_close)
        stats = asdict(event_window_stats(series, timeline, record.conference_id))
        for name, expected in event_windows(times, prices, timeline).items():
            assert type(stats[name]) is type(expected), name
            assert float(stats[name]).hex() == float(expected).hex(), name


# Malformed price files: edits (data row, column, new cell, or None to cut
# the row there) of conf-002's prices, whose third data row is 12:32, and
# the exclusion reason the row-by-row reader gave.  A reason names the first
# bad row, but a row that cannot be read is found before a bar that breaks
# a rule.
MALFORMED_PRICES = {
    "unparsable-time": ([(2, 0, "not-a-time")], "invalid timestamp 'not-a-time'"),
    "naive-time": (
        [(2, 0, "2011-06-15T12:32:00")],
        "timestamp '2011-06-15T12:32:00' lacks a timezone designator",
    ),
    "repeated-time": (
        [(2, 0, "2011-06-15T12:31:00-04:00")],
        "price timestamps not strictly increasing at 2011-06-15 12:31:00-04:00",
    ),
    "unparsable-price": (
        [(2, 1, "abc")],
        "{path}: bad price row ['2011-06-15T12:32:00-04:00', 'abc']",
    ),
    "missing-price": ([(2, 1, None)], "{path}: bad price row ['2011-06-15T12:32:00-04:00']"),
    "zero-price": ([(2, 1, "0")], "non-positive price 0.0 at 2011-06-15 12:32:00-04:00"),
    "negative-zero-price": (
        [(2, 1, "-0")],
        "non-positive price -0.0 at 2011-06-15 12:32:00-04:00",
    ),
    "negative-price": (
        [(2, 1, "-1.5")],
        "non-positive price -1.5 at 2011-06-15 12:32:00-04:00",
    ),
    "nan-price": ([(2, 1, "nan")], "non-finite price nan at 2011-06-15 12:32:00-04:00"),
    "infinite-price": ([(2, 1, "inf")], "non-finite price inf at 2011-06-15 12:32:00-04:00"),
    "bad-price-then-bad-time": (
        [(2, 1, "abc"), (4, 0, "not-a-time")],
        "{path}: bad price row ['2011-06-15T12:32:00-04:00', 'abc']",
    ),
    "repeat-then-zero": (
        [(2, 0, "2011-06-15T12:31:00-04:00"), (5, 1, "0")],
        "price timestamps not strictly increasing at 2011-06-15 12:31:00-04:00",
    ),
    "zero-then-naive": (
        [(2, 1, "0"), (4, 0, "2011-06-15T12:34:00")],
        "timestamp '2011-06-15T12:34:00' lacks a timezone designator",
    ),
}


@pytest.fixture(scope="module")
def price_fixture(tmp_path_factory):
    """A five-conference study, and its event-study exclusions when intact."""
    root = tmp_path_factory.mktemp("price_fixture")
    scenarios, gallery_spec, truth = planted_study_scenarios(seed=301, n_conferences=5)
    build_fixture(scenarios, gallery_spec, root / "fixture", truth)
    cfg = load_run_config(write_run_config(root / "config.json", root / "fixture"))
    run_stages(cfg, root / "out")
    diag = json.loads((root / "out" / "diagnostics" / "eventstudy.json").read_text())
    return root / "fixture", diag["exclusions"]


@pytest.mark.parametrize("case", sorted(MALFORMED_PRICES))
def test_malformed_prices_exclude_their_conference(price_fixture, tmp_path, case):
    intact, exclusions = price_fixture
    edits, reason = MALFORMED_PRICES[case]
    fixture = shutil.copytree(intact, tmp_path / "fixture")
    path = fixture / "prices" / "conf-002.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]  # after the meta line and header
    for row, column, cell in edits:
        if cell is None:
            del rows[row][column:]
        else:
            rows[row][column] = cell
    path.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")

    cfg = load_run_config(write_run_config(tmp_path / "config.json", fixture))
    run_stages(cfg, tmp_path / "out")
    diag = json.loads((tmp_path / "out" / "diagnostics" / "eventstudy.json").read_text())
    # The diagnostics name the file relative to the registry's directory.
    excluded = {"conference_id": "conf-002", "reason": reason.format(path="prices/conf-002.csv")}
    expected = exclusions + [excluded]
    assert sorted(diag["exclusions"], key=str) == sorted(expected, key=str)
    with pytest.raises(MalformedRecordError) as info:
        read_price_csv(path)
    assert str(info.value) == reason.format(path=path)


def test_bad_row_is_named_before_later_bytes_that_are_not_utf8(price_fixture, tmp_path):
    """The rows ahead of an undecodable block are still checked first."""
    path = tmp_path / "prices.csv"
    lines = (price_fixture[0] / "prices" / "conf-002.csv").read_bytes().splitlines(True)
    lines[4] = lines[4].replace(b"-04:00,", b"-04:00,abc")
    lines[-1] = b"\xff" + lines[-1]
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedRecordError, match=r"bad price row \['2011-06-15T12:32:00"):
        read_price_csv(path)
    lines[4] = b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedRecordError, match="not valid UTF-8"):
        read_price_csv(path)
