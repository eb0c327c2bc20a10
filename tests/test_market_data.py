import io
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzsig.fixtures import portfolio_fixture, random_walk_series
from fuzzsig.market_data import (
    MarketDataError,
    PriceBar,
    PriceSeries,
    aggregate_periods,
    parse_csv,
    serialize_csv,
    validate,
)

from oracles import reparse_rows

HEADER = "symbol,date,open,high,low,close,volume\n"


def bar(day, o=10.0, h=11.0, lo=9.0, c=10.5, v=100.0):
    return PriceBar(day, o, h, lo, c, v)


def make_series(n, symbol="T", start=date(2020, 1, 1)):
    return PriceSeries(symbol, tuple(bar(start + timedelta(days=i)) for i in range(n)))


class TestParseCsv:
    def test_single_valid_row(self):
        text = HEADER + "DANGCEM,2017-01-03,215.0,220.0,210.0,218.0,50000\n"
        series = parse_csv(text)
        assert len(series) == 1
        assert series[0].symbol == "DANGCEM"
        assert len(series[0].bars) == 1
        b = series[0].bars[0]
        assert (b.open, b.high, b.low, b.close, b.volume) == (215.0, 220.0, 210.0, 218.0, 50000.0)
        assert b.date == date(2017, 1, 3)

    def test_low_above_high_rejected_with_row_number(self):
        text = HEADER + "X,2020-01-01,10,9,12,10,0\n"
        with pytest.raises(MarketDataError, match="row 2"):
            parse_csv(text)

    def test_high_below_close_rejected(self):
        text = HEADER + "X,2020-01-01,10,10.2,9.5,10.4,0\n"
        with pytest.raises(MarketDataError, match="row 2"):
            parse_csv(text)

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(MarketDataError, match="not UTF-8"):
            parse_csv(HEADER.encode() + b"X,2020-01-01,10,11,9,10,\xff\n")

    def test_oversized_field_rejected_with_row_number(self):
        with pytest.raises(MarketDataError, match="row 3: field larger than field limit"):
            parse_csv(HEADER + "X,2020-01-01,10,11,9,10,0\n"
                      + "X" * 200_000 + ",2020-01-02\n")

    def test_nonpositive_price_rejected(self):
        text = HEADER + "X,2020-01-01,0,1,0,1,0\n"
        with pytest.raises(MarketDataError, match="strictly positive"):
            parse_csv(text)

    def test_negative_volume_rejected(self):
        text = HEADER + "X,2020-01-01,10,11,9,10,-1\n"
        with pytest.raises(MarketDataError, match="volume"):
            parse_csv(text)

    @pytest.mark.parametrize("field", ["open", "high", "low", "close", "volume"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_field_rejected_with_row_number(self, field, value):
        cells = dict(zip(("open", "high", "low", "close", "volume"),
                         ("10", "11", "9", "10.5", "100")))
        cells[field] = value
        text = HEADER + "A,2020-01-01,10,11,9,10.5,100\n" + \
            "A,2020-01-02," + ",".join(cells.values()) + "\n"
        with pytest.raises(MarketDataError, match="row 3: .*finite"):
            parse_csv(text)

    def test_duplicate_symbol_date_rejected(self):
        text = HEADER + "X,2020-01-01,10,11,9,10,0\nX,2020-01-01,10,11,9,10,5\n"
        with pytest.raises(MarketDataError, match="row 3.*duplicate"):
            parse_csv(text)

    def test_bad_header_rejected(self):
        with pytest.raises(MarketDataError, match="header"):
            parse_csv("sym,date,o,h,l,c,v\n")

    def test_malformed_row_names_row(self):
        text = HEADER + "X,2020-01-01,10,11,9,10,0\nX,2020-01-02,10,11\n"
        with pytest.raises(MarketDataError, match="row 3"):
            parse_csv(text)

    def test_bad_date_names_row(self):
        text = HEADER + "X,01/02/2020,10,11,9,10,0\n"
        with pytest.raises(MarketDataError, match="row 2.*date"):
            parse_csv(text)

    def test_accepts_bytes_and_file_objects(self):
        text = HEADER + "X,2020-01-01,10,11,9,10,0\n"
        assert parse_csv(text.encode()) == parse_csv(io.BytesIO(text.encode()))
        assert parse_csv(io.StringIO(text)) == parse_csv(text)

    def test_rows_sorted_by_date_within_symbol(self):
        text = (HEADER
                + "X,2020-01-02,10,11,9,10,0\n"
                + "X,2020-01-01,10,11,9,10,0\n")
        (series,) = parse_csv(text)
        assert [b.date.day for b in series.bars] == [1, 2]

    def test_ten_symbols_match_line_level_reparse(self):
        # 10 symbols x 780 daily rows against a naive split-and-compare oracle
        basket = portfolio_fixture(seed=11, symbols=10, periods=52)
        text = serialize_csv(basket).decode()
        parsed = parse_csv(text)
        expected = reparse_rows(text)
        assert len(parsed) == 10
        for series in parsed:
            rows = expected[series.symbol]
            assert len(series.bars) == 780 == len(rows)
            for b, (day, o, h, lo, c, v) in zip(series.bars, rows):
                assert b.date.isoformat() == day
                assert (b.open, b.high, b.low, b.close, b.volume) == (o, h, lo, c, v)

    def test_parse_serialize_parse_fixed_point(self):
        basket = portfolio_fixture(seed=3, symbols=3, periods=10)
        once = parse_csv(serialize_csv(basket))
        twice = parse_csv(serialize_csv(once))
        assert once == twice


class TestAggregatePeriods:
    def test_identity_for_one_day_periods(self):
        series = make_series(30)
        assert aggregate_periods(series, 1) == series

    def test_780_daily_bars_make_52_periods(self):
        series = random_walk_series("S", seed=5, periods=52, days_per_period=15)
        assert len(series.bars) == 780
        assert len(aggregate_periods(series, 15).bars) == 52

    def test_30_bars_against_hand_fold(self):
        start = date(2020, 1, 1)
        bars = []
        for i in range(30):
            px = 100.0 + i
            bars.append(PriceBar(start + timedelta(days=i), px, px + 2.0, px - 1.5, px + 1.0, 10.0 * i))
        series = PriceSeries("S", tuple(bars))
        out = aggregate_periods(series, 15)
        assert len(out.bars) == 2
        for j in range(2):
            chunk = bars[15 * j:15 * (j + 1)]
            got = out.bars[j]
            assert got.open == chunk[0].open
            assert got.close == chunk[-1].close
            assert got.date == chunk[-1].date
            assert got.high == max(b.high for b in chunk)
            assert got.low == min(b.low for b in chunk)
            assert got.volume == sum(b.volume for b in chunk)

    def test_trailing_partial_period_dropped(self):
        series = make_series(34)
        assert len(aggregate_periods(series, 15).bars) == 2

    def test_too_short_series_errors(self):
        with pytest.raises(MarketDataError, match="shorter than one"):
            aggregate_periods(make_series(14), 15)

    def test_bad_period_length_errors(self):
        with pytest.raises(MarketDataError, match="days_per_period"):
            aggregate_periods(make_series(20), 0)

    @given(n_bars=st.integers(1, 120), dpp=st.integers(1, 20), seed=st.integers(0, 10_000))
    def test_length_and_extrema_match_brute_force(self, n_bars, dpp, seed):
        full = random_walk_series("S", seed=seed, periods=8, days_per_period=15)
        series = PriceSeries("S", full.bars[:n_bars])
        if n_bars // dpp == 0:
            with pytest.raises(MarketDataError):
                aggregate_periods(series, dpp)
            return
        out = aggregate_periods(series, dpp)
        assert len(out.bars) == n_bars // dpp
        for j, got in enumerate(out.bars):
            chunk = series.bars[dpp * j:dpp * (j + 1)]
            assert got.high == max(b.high for b in chunk)
            assert got.low == min(b.low for b in chunk)
            assert got.open == chunk[0].open
            assert got.close == chunk[-1].close


class TestValidate:
    def test_valid_series_has_empty_report(self):
        report = validate(make_series(10))
        assert report.ok
        assert report.findings == ()

    def test_unsorted_dates_cites_both_dates(self):
        d1, d2 = date(2020, 1, 5), date(2020, 1, 2)
        series = PriceSeries("S", (bar(d1), bar(d2)))
        report = validate(series)
        assert not report.ok
        (finding,) = report.findings
        assert finding.code == "dates_not_increasing"
        assert "2020-01-05" in finding.message and "2020-01-02" in finding.message

    def test_empty_series_reported(self):
        report = validate(PriceSeries("S", ()))
        assert [f.code for f in report.findings] == ["empty_series"]

    def test_nan_bar_is_a_finding(self):
        series = make_series(3)
        bars = list(series.bars)
        bars[1] = bar(bars[1].date, c=float("nan"))
        report = validate(PriceSeries("T", tuple(bars)))
        assert [(f.index, f.code) for f in report.findings] == [(1, "nonfinite_value")]

    @given(seed=st.integers(0, 5_000))
    def test_corrupted_series_matches_per_invariant_scan(self, seed):
        import random

        rng = random.Random(seed)
        base = random_walk_series("S", seed=seed, periods=3, days_per_period=10).bars
        bars = []
        for i, b in enumerate(base):
            o, h, lo, c, v = b.open, b.high, b.low, b.close, b.volume
            day = b.date
            roll = rng.random()
            if roll < 0.15:
                lo = max(o, c) + 1.0  # break the low bound
            elif roll < 0.3:
                v = -abs(v) - 1.0
            elif roll < 0.4:
                o = -o
            elif roll < 0.5 and i > 0:
                day = bars[-1].date  # stall the clock
            bars.append(PriceBar(day, o, h, lo, c, v))
        series = PriceSeries("S", tuple(bars))
        got = {(f.index, f.code) for f in validate(series).findings}

        expected = set()
        for i, b in enumerate(bars):
            if min(b.open, b.high, b.low, b.close) <= 0:
                expected.add((i, "nonpositive_price"))
            if b.volume < 0:
                expected.add((i, "negative_volume"))
            if b.low > min(b.open, b.close) or b.high < max(b.open, b.close):
                expected.add((i, "ohlc_bounds"))
            if i and b.date <= bars[i - 1].date:
                expected.add((i, "dates_not_increasing"))
        assert got == expected
