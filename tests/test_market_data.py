import dataclasses
import io
import random
import tracemalloc
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzsig.market_data as market_data
from fuzzsig.fixtures import portfolio_fixture, random_walk_series
from fuzzsig.indicators import indicator_frame
from fuzzsig.market_data import (
    CSV_HEADER,
    Bars,
    MarketDataError,
    PriceBar,
    PriceSeries,
    aggregate_block,
    aggregate_periods,
    parse_csv,
    serialize_csv,
    validate,
)

from oracles import reparse_rows, scanned_unordered_dates

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

    def test_symbol_and_date_cells_are_stripped(self):
        (series,) = parse_csv(HEADER + " X , 2020-01-02 ,10,11,9,10,0\nX,2020-01-03,10,11,9,10,0\n")
        assert series.symbol == "X"
        assert [b.date for b in series.bars] == [date(2020, 1, 2), date(2020, 1, 3)]

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


def good_rows(n, symbol="A", start=date(2020, 1, 1)):
    return [f"{symbol},{(start + timedelta(days=i)).isoformat()},10,11,9,10.5,100"
            for i in range(n)]


def put(lines, faults):
    lines = list(lines)
    for i, line in faults.items():
        lines[i] = line
    return lines


OVERSIZED = "X" * 200_000 + ",2021-01-01,10,11,9,10.5,100"
# A and B alternate, each with its dates descending
INTERLEAVED = [row for pair in zip(good_rows(600, "A")[::-1], good_rows(600, "B")[::-1])
               for row in pair]

# Faulty inputs and the exact error the row-by-row parser gave for each. The
# long inputs put a fault past the first thousand rows, behind an earlier one,
# or a csv error after a row fault, so only the earliest fault may be named.
FAULTY = {
    "field_count": (good_rows(3) + ["A,2020-02-01,10,11,9"],
                    "row 5: expected 7 fields, got 5"),
    "empty_symbol": (good_rows(2) + ["  ,2020-02-01,10,11,9,10.5,100"],
                     "row 4: empty symbol"),
    # a symbol that would break line-oriented output (plotdata) apart
    "non_printing_symbol": (good_rows(2) + ['"AB\nC\tD",2020-02-01,10,11,9,10.5,100'],
                            "row 4: symbol 'AB\\nC\\tD' holds a non-printing character"),
    "bad_date": (good_rows(2) + ["A,2020-02-30,10,11,9,10.5,100"],
                 "row 4: bad ISO date '2020-02-30'"),
    # date.fromisoformat takes both of these from Python 3.11 on
    "basic_format_date": (good_rows(2) + ["A,20170103,10,11,9,10.5,100"],
                          "row 4: bad ISO date '20170103'"),
    "week_date": (good_rows(2) + ["A, 2017-W01-3 ,10,11,9,10.5,100"],
                  "row 4: bad ISO date ' 2017-W01-3 '"),
    "non_numeric": (good_rows(1) + ["A,2020-02-01,10,11,9,ten,100"],
                    "row 3: non-numeric price/volume field"),
    "nan": (["A,2020-01-01,10,nan,9,10.5,100"],
            "row 2: prices and volume must be finite, got open=10.0 high=nan low=9.0 "
            "close=10.5 volume=100.0"),
    "inf_volume": (["A,2020-01-01,10,11,9,10.5,inf"],
                   "row 2: prices and volume must be finite, got open=10.0 high=11.0 low=9.0 "
                   "close=10.5 volume=inf"),
    "negative_volume": (["A,2020-01-01,10,11,9,10.5,-1"],
                        "row 2: volume must be >= 0, got -1.0"),
    "zero_price": (["A,2020-01-01,0,11,0,10.5,100"],
                   "row 2: prices must be strictly positive, got open=0.0 high=11.0 low=0.0 "
                   "close=10.5"),
    "bounds": (["A,2020-01-01,10,11,10.2,10.5,100"],
               "row 2: low/high must bracket open/close, got open=10.0 high=11.0 low=10.2 "
               "close=10.5"),
    "duplicate": (good_rows(3) + good_rows(3)[1:2],
                  "row 5: duplicate entry for A on 2020-01-02"),
    "second_chunk": (put(good_rows(1500), {1300: "A,2020-13-01,10,11,9,10.5,100"}),
                     "row 1302: bad ISO date '2020-13-01'"),
    "third_chunk": (put(good_rows(2500), {2400: "A,2026-01-01,10,11,12,10.5,100"}),
                    "row 2402: low/high must bracket open/close, got open=10.0 high=11.0 "
                    "low=12.0 close=10.5"),
    "earliest_across_chunks": (
        put(good_rows(1500), {1200: "A,x,10,11,9,10.5,100", 3: "A,2020-01-04,10,9,9,10.5,100"}),
        "row 5: low/high must bracket open/close, got open=10.0 high=9.0 low=9.0 close=10.5"),
    "earliest_in_chunk": (
        put(good_rows(20), {10: "A,2020-01-11,10,11,9,?,100", 8: ",2020-01-09,10,11,9,10.5,100"}),
        "row 10: empty symbol"),
    "csv_error_after_row_fault": (
        put(good_rows(2000), {4: "A,2020-01-05,10,11,9,10.5,-5", 1800: OVERSIZED}),
        "row 6: volume must be >= 0, got -5.0"),
    "csv_error_later_chunk": (put(good_rows(1500), {1400: OVERSIZED}),
                              "row 1402: field larger than field limit (131072)"),
    "csv_error_before_duplicate": (put(good_rows(2000), {1500: OVERSIZED}) + good_rows(1),
                                   "row 1502: field larger than field limit (131072)"),
    "blank_rows": (good_rows(2) + ["", "", ""] + ["A,2020-03-01,10,11,9,10.5"],
                   "row 7: expected 7 fields, got 6"),
    "blank_first_chunk": (
        [""] * 1100 + good_rows(2) + ["A,2020-03-01,10,11,9,10.5,nan"],
        "row 1104: prices and volume must be finite, got open=10.0 high=11.0 low=9.0 "
        "close=10.5 volume=nan"),
    # a quoted newline makes the record number (row faults) and the physical
    # line number (csv errors) differ
    "quoted_newline_row_fault": (
        ['B,2020-01-01,"10\n",11,9,10.5,100'] + good_rows(3) + ["A,2020-03-01,1,1,1,1,1,1"],
        "row 6: expected 7 fields, got 8"),
    "quoted_newline_csv_error": (
        ['B,2020-01-01,"10\n",11,9,10.5,100'] + good_rows(3) + [OVERSIZED],
        "row 7: field larger than field limit (131072)"),
    "duplicate_across_chunks": (good_rows(1500) + good_rows(1500)[100:101],
                                "row 1502: duplicate entry for A on 2020-04-10"),
    "duplicate_by_spacing": (good_rows(2) + [" A , 2020-01-02 ,10,11,9,10.5,100"],
                             "row 4: duplicate entry for A on 2020-01-02"),
    "interleaved_unsorted_duplicate": (INTERLEAVED + ["B,2020-06-01,10,11,9,10.5,100"],
                                       "row 1202: duplicate entry for B on 2020-06-01"),
}


class TestParseErrorParity:
    @pytest.mark.parametrize("name", sorted(FAULTY))
    def test_message_matches_row_by_row_parser(self, name):
        lines, message = FAULTY[name]
        with pytest.raises(MarketDataError) as info:
            parse_csv(HEADER + "\n".join(lines) + "\n")
        assert str(info.value) == message

    def test_fast_reader_decodes_dates_as_arrays(self, monkeypatch):
        calls = []
        original = market_data._iso_date

        def counted(cell):
            calls.append(cell)
            return original(cell)

        monkeypatch.setattr(market_data, "_iso_date", counted)
        text = HEADER + "\n".join(good_rows(1500, "A") + good_rows(1500, "B")) + "\n"
        expected = csv_module_outcome(text)
        assert len(calls) == 1500  # the csv-module reader checks each distinct cell once
        calls.clear()
        with mock.patch.object(market_data, "_csv_series", _no_csv_module):
            assert outcome(text) == expected
        assert calls == []

    def test_interleaved_unsorted_symbols_group_and_sort(self):
        a, b = parse_csv(HEADER + "\n".join(INTERLEAVED) + "\n")
        assert (a.symbol, b.symbol) == ("A", "B")
        assert a == parse_csv(HEADER + "\n".join(good_rows(600, "A")) + "\n")[0]
        assert [x.date for x in b.bars] == [x.date for x in a.bars]


def hexes(bars):
    return [(b.date, *map(float.hex, (b.open, b.high, b.low, b.close, b.volume))) for b in bars]


def outcome(data):
    """parse_csv's series as exact bits, or its MarketDataError text."""
    try:
        return [(s.symbol, *(column.tobytes() for column in (s.bars.date, *s.bars.columns())))
                for s in parse_csv(data)]
    except MarketDataError as exc:
        return str(exc)


def csv_module_outcome(data):
    """outcome() with the np.loadtxt path switched off."""
    with mock.patch.object(market_data, "_loadtxt_series", lambda data: None):
        return outcome(data)


def _no_csv_module(*args):
    raise AssertionError("the csv-module parser ran")


_PADS = [" ", "\t", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u200b"]


def _odd_cells(column, cell):
    """Other spellings of `cell` in `column`, and cells that are wrong there."""
    if column == 0:
        return [f" {cell}", "", "  ", "A" * 15, "B" * 16, "C" * 17, "株" * 15, "株" * 16,
                "\U0001f600" * 16, f" {'D' * 14} ", "\xc4", "株" * 3, "A\x00",
                "A B", '"A"', "#A", '"AB\nC\tD"', "A\tB", "A\u2028B", "A\x85B", "\u200bA",
                "A\xa0B"]
    if column == 1:
        return [f" {cell}", f"{cell} ", f"{cell}0", f"{cell} x", "2020-02-30", "20200101",
                "2020-1-01", "\x002020-01-0"]
    return [f"+{cell}", f"{cell}e0", f"{cell}.0", f"{cell[0]}_{cell[1:]}", "1_000", "nan", "inf",
            "-0", ".5", "5.", "1e5", "0x1p3", "1e400", "1e-400", "\u0661\u0662", "", "  ", "1 0",
            "\x00", '"7"']


@st.composite
def hazard_documents(draw):
    """A valid OHLCV CSV with up to three hazards: odd cells, lines and line ends."""
    lines = [",".join(CSV_HEADER)]
    for i in range(draw(st.integers(0, 60))):
        day = (date(2020, 1, 1) + timedelta(days=i)).isoformat()
        lines.append(",".join((draw(st.sampled_from("AB")), day, "10", "11", "9", "10.5", "100")))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["cell", "pad", "line", "end", "header"] if i else ["header"]))
        if kind == "header":
            lines[0] = draw(st.sampled_from([f" {lines[0]}", f"\ufeff{lines[0]}",
                                             f'"symbol"{lines[0][6:]}']))
        elif kind == "line":  # a blank or repeated line
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", "\u3000", *lines])))
            ends.insert(i, "\n")
        elif kind == "end":
            ends[i] = "\r"
        else:
            cells = lines[i].split(",")
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = (draw(st.sampled_from(_odd_cells(k, cells[k]))) if kind == "cell"
                        else draw(st.sampled_from(_PADS)) + cells[k]
                        + draw(st.sampled_from(["", *_PADS])))
            lines[i] = ",".join(cells)
    if draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(map(str.__add__, lines, ends))


def _date_cell(year, month, day):
    return f"{year:04d}-{month:02d}-{day:02d}"


@st.composite
def calendar_documents(draw):
    """Rows whose date cells draw years 0000-9999, months 00-13 and days 00-32.

    Century and leap years, and the days that end a month, are drawn more often.
    """
    years = st.one_of(st.sampled_from([0, 1, 1900, 2000, 2004, 2100, 9999]),
                      st.integers(0, 9999))
    days = st.one_of(st.integers(28, 31), st.integers(0, 32))
    cells = draw(st.lists(st.builds(_date_cell, years, st.integers(0, 13), days),
                          min_size=1, max_size=4))
    rows = [f"{draw(st.sampled_from('AB'))},{cell},10,11,9,10.5,100" for cell in cells]
    return HEADER + "\n".join(rows) + "\n"


class TestLoadtxtPath:
    @settings(max_examples=300)
    @given(text=calendar_documents(), chunk=st.sampled_from([64, market_data._TEXT_CHUNK]))
    def test_date_cells_decode_as_the_csv_module_parser_reads_them(self, text, chunk):
        with mock.patch.object(market_data, "_TEXT_CHUNK", chunk):  # 64: a chunk per row
            assert outcome(text) == csv_module_outcome(text)

    @settings(max_examples=200)
    @given(text=hazard_documents(), chunk=st.sampled_from([64, 128, market_data._TEXT_CHUNK]),
           as_bytes=st.booleans())
    def test_matches_the_csv_module_parser(self, text, chunk, as_bytes):
        data = text.encode() if as_bytes else text
        with mock.patch.object(market_data, "_TEXT_CHUNK", chunk):
            assert outcome(data) == csv_module_outcome(data)

    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n"])
    def test_blank_bodies_give_no_series_and_no_warning(self, body):
        assert parse_csv(HEADER + body) == []

    def test_each_odd_cell_alone_matches_the_csv_module_parser(self):
        lines = [HEADER.strip(), *good_rows(3)]
        cells = lines[2].split(",")
        for k, cell in enumerate(cells):
            pads = [f"{pad}{cell}{pad}" for pad in _PADS]
            for odd in [*_odd_cells(k, cell), *pads]:
                row = ",".join([*cells[:k], odd, *cells[k + 1:]])
                text = "\n".join([*lines[:2], row, *lines[3:]]) + "\n"
                assert outcome(text) == csv_module_outcome(text), (k, odd)

    @pytest.mark.parametrize("symbol", ["Q" * 15, "株" * 15, "\U0001f600" * 15, "Q" * 16,
                                        "株" * 16, "\U0001f600" * 16, f" {'Q' * 14} "])
    def test_only_symbol_cells_below_16_characters_take_the_loadtxt_path(self, monkeypatch,
                                                                         symbol):
        # the 16th code point of a cell shorter than 16 characters is 0
        text = "\n".join([HEADER.strip(), *good_rows(3, symbol)]) + "\n"
        expected = csv_module_outcome(text)
        assert expected[0][0] == symbol.strip()
        if len(symbol) < market_data._SYMBOL_WIDTH:
            monkeypatch.setattr(market_data, "_csv_series", _no_csv_module)
            assert outcome(text) == expected
        else:
            assert market_data._loadtxt_series(text) is None

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_is_taken_for_serialized_fixtures(self, monkeypatch, line_end):
        basket = portfolio_fixture(seed=5, symbols=3, periods=20)
        data = serialize_csv(basket).replace(b"\n", line_end.encode())
        monkeypatch.setattr(market_data, "_csv_series", _no_csv_module)
        parsed = parse_csv(data)
        assert [s.symbol for s in parsed] == [s.symbol for s in basket]
        for got, series in zip(parsed, basket):
            assert hexes(got.bars) == hexes(series.bars)

    def test_several_chunks_with_a_symbol_across_a_cut(self, monkeypatch):
        basket = portfolio_fixture(seed=9, symbols=8, periods=52)
        text = serialize_csv(basket).decode()
        assert len(text) > 2 * market_data._TEXT_CHUNK
        body = text.index("\n") + 1
        cut = text.rfind("\n", body, body + market_data._TEXT_CHUNK)  # the first chunk's end
        last_line, next_line = text[:cut].rsplit("\n", 1)[1], text[cut + 1:]
        assert last_line.split(",")[0] == next_line.split(",")[0]
        expected = csv_module_outcome(text)
        monkeypatch.setattr(market_data, "_csv_series", _no_csv_module)
        assert outcome(text) == expected

    def test_peak_memory_stays_under_twice_the_text(self):
        # the chunks fill one set of columns, which every series views read-only
        text = serialize_csv(portfolio_fixture(1, 128, 52, 15)).decode()
        assert text.count("\n") > 99_000
        tracemalloc.start()
        try:
            series = parse_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text)
        for s in series:
            assert not any(column.flags.writeable for column in s.bars.columns())

    @pytest.mark.parametrize("fault", ["duplicate", "bad_cell", "long_line", "lone_cr"])
    def test_faults_in_a_later_chunk_get_the_csv_module_error(self, fault):
        basket = portfolio_fixture(seed=9, symbols=8, periods=52)
        header, *rows = serialize_csv(basket).decode().splitlines()
        if fault == "duplicate":
            rows.append(rows[100])
        elif fault == "bad_cell":
            rows[-10] = rows[-10].replace(",", ",1_0x", 1)
        elif fault == "long_line":
            rows[-10] += " " * market_data._TEXT_CHUNK
        else:
            rows[-10] = rows[-10].replace(",", "\r,", 1)
        text = "\n".join([header, *rows]) + "\n"
        expected = csv_module_outcome(text)
        assert isinstance(expected, str)
        assert outcome(text) == expected


class TestByteOrderMark:
    @pytest.mark.parametrize("encode", [str.encode, str])
    def test_one_leading_mark_is_dropped(self, encode):
        text = HEADER + "X,2020-01-01,10,11,9,10,0\n"
        assert parse_csv(encode("\ufeff" + text)) == parse_csv(text)

    @pytest.mark.parametrize("text, message", [
        ("\ufeff\ufeff" + HEADER, "bad header"),
        (" \ufeff" + HEADER, "bad header"),
        (HEADER + "X,\ufeff2020-01-01,10,11,9,10,0\n", "row 2: bad ISO date"),
        (HEADER + "X,2020-01-01,\ufeff10,11,9,10,0\n", "row 2: non-numeric"),
    ])
    def test_a_mark_anywhere_else_is_an_error(self, text, message):
        for data in (text, text.encode()):
            with pytest.raises(MarketDataError, match=message):
                parse_csv(data)


class TestColumns:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_shuffled_rows_parse_to_the_fixture_bit_for_bit(self, seed):
        basket = portfolio_fixture(seed=seed, symbols=4, periods=20)
        header, *rows = serialize_csv(basket).decode().splitlines()
        random.Random(seed).shuffle(rows)
        parsed = {s.symbol: s for s in parse_csv("\n".join([header, *rows]) + "\n")}
        for series in basket:
            got = parsed[series.symbol].bars
            assert isinstance(got, Bars)
            assert hexes(got) == hexes(series.bars)

    @given(volumes=st.lists(st.floats(0.0, 1e9), min_size=1, max_size=120),
           dpp=st.integers(1, 20))
    def test_aggregate_equals_a_hand_fold(self, volumes, dpp):
        start = date(2021, 3, 1)
        bars = [PriceBar(start + timedelta(days=i), 10.0 + i % 3, 12.5 + i % 5, 9.0 - i % 2,
                         11.0 + i % 4 / 3, v) for i, v in enumerate(volumes)]
        if len(bars) < dpp:
            return
        expected = []
        for j in range(len(bars) // dpp):
            chunk = bars[j * dpp:(j + 1) * dpp]
            total = 0.0
            for b in chunk:  # left to right
                total += b.volume
            expected.append(PriceBar(chunk[-1].date, chunk[0].open, max(b.high for b in chunk),
                                     min(b.low for b in chunk), chunk[-1].close, total))
        assert hexes(aggregate_periods(PriceSeries("S", bars), dpp).bars) == hexes(expected)

    def test_sequence_behaviour(self):
        bars = random_walk_series("S", seed=4, periods=2, days_per_period=10).bars
        listed = list(bars)
        assert isinstance(bars, Bars) and len(bars) == 20
        assert bars[-1] == listed[-1] and bars[-20] == listed[0]
        assert type(bars[3].close) is float
        with pytest.raises(IndexError):
            bars[20]
        head = bars[2:7]
        assert isinstance(head, Bars) and list(head) == listed[2:7]
        assert np.shares_memory(head.close, bars.close)
        assert list(bars[::-3]) == listed[::-3]
        assert bars[:5] + bars[5:] == bars
        assert bars[:5] + tuple(listed[5:]) == bars == tuple(listed[:5]) + bars[5:]
        assert bars == listed and bars == tuple(listed) and hash(bars) == hash(tuple(listed))
        assert bars != listed[:-1]
        moved = dataclasses.replace(bars[4], close=bars[4].high)
        assert moved.close == listed[4].high and bars[4] == listed[4]

    @given(start=st.none() | st.integers(-25, 25), stop=st.none() | st.integers(-25, 25),
           step=st.none() | st.integers(-4, 4).filter(bool))
    def test_slice_equals_the_checked_construction_and_shares_memory(self, start, stop, step):
        bars = random_walk_series("S", seed=4, periods=2, days_per_period=10).bars
        index = slice(start, stop, step)
        part = bars[index]
        built = Bars(bars.date[index].copy(), *(column[index].copy() for column in bars.columns()))
        assert type(part) is Bars and part == built
        assert part.date.tobytes() == built.date.tobytes()
        for column, whole, dtype in zip((part.date, *part.columns()), (bars.date, *bars.columns()),
                                        ("datetime64[D]", *["float64"] * 5)):
            assert column.dtype == np.dtype(dtype) and not column.flags.writeable
            with pytest.raises(ValueError):
                column[:] = whole[:1]
            assert len(column) == 0 or np.shares_memory(column, whole)

    def test_series_converts_bars_once(self):
        bars = make_series(5).bars
        assert isinstance(bars, Bars)
        assert PriceSeries("T", bars).bars is bars
        assert PriceSeries("T", ()).bars == ()

    def test_columns_are_read_only(self):
        series = random_walk_series("S", seed=2, periods=40)
        for column in series.bars.columns():
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        frame = indicator_frame(aggregate_periods(series, 15))
        with pytest.raises(ValueError):
            frame.close[0] = 1.0

    def test_dates_come_from_any_iterable_and_leave_as_date_objects(self):
        days = [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 6)]
        close = [1.0, 2.0, 3.0]
        bars = Bars(iter(days), close, close, close, close, close)
        assert bars.date.dtype == np.dtype("datetime64[D]") and not bars.date.flags.writeable
        for dates in (tuple(days), (d for d in days), map(date.isoformat, days),
                      np.array(days, "datetime64[D]"), {d: None for d in days}.keys()):
            assert Bars(dates, close, close, close, close, close) == bars
        assert [type(b.date) for b in bars] == [date] * 3 and bars.date.tolist() == days
        assert type(bars[1].date) is date and bars[-1].date == days[-1]
        assert (bars + bars[:0]).date.tobytes() == bars.date.tobytes()

    @pytest.mark.parametrize("bad", [None, np.datetime64("NaT"), "NaT", "10000-01-01",
                                     np.datetime64("-0001-12-31")])
    def test_a_date_outside_datetime_date_is_rejected_with_its_index(self, bad):
        close = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match=r"^bar 1: date \S+ is outside "
                                             r"0001-01-01\.\.9999-12-31$"):
            Bars([date(2020, 1, 1), bad, date(2020, 1, 3)], close, close, close, close, close)

    def test_caller_arrays_are_copied(self):
        close = np.array([1.0, 2.0])
        bars = Bars((date(2020, 1, 1), date(2020, 1, 2)), close, close, close, close, close)
        close[0] = 5.0
        assert bars.close[0] == 1.0
        with pytest.raises(ValueError, match="shape"):
            Bars((date(2020, 1, 1),), close, close, close, close, close)


class TestAggregatePeriods:
    def test_identity_for_one_day_periods(self):
        series = make_series(30)
        assert aggregate_periods(series, 1) == series

    def test_one_day_periods_return_the_series_itself(self):
        series = random_walk_series("S", seed=6, periods=40, days_per_period=1)
        out = aggregate_periods(series, 1)
        assert out is series
        assert list(out.bars) == list(series.bars)
        with pytest.raises(MarketDataError, match="^E: 0 bars is shorter than one 1-bar period$"):
            aggregate_periods(PriceSeries("E", ()), 1)
        with pytest.raises(MarketDataError, match="^days_per_period must be >= 1, got 0$"):
            aggregate_periods(series, 0)

    @pytest.mark.parametrize("dpp", [1, 15])
    @pytest.mark.parametrize("column, value", [
        ("open", float("nan")), ("high", float("inf")), ("low", float("-inf")),
        ("close", float("nan")), ("volume", float("inf")),
    ])
    def test_nonfinite_value_names_the_first_bad_bar(self, dpp, column, value):
        series = make_series(30)
        bars = list(series.bars)
        for i in (7, 21):
            bars[i] = dataclasses.replace(bars[i], **{column: value})
        got = {"open": 10.0, "high": 11.0, "low": 9.0, "close": 10.5, "volume": 100.0,
               column: value}
        message = ("T: bar 7 (2020-01-08): prices and volume must be finite, got "
                   + " ".join(f"{name}={x}" for name, x in got.items()))
        with pytest.raises(MarketDataError) as caught:
            aggregate_periods(PriceSeries("T", bars), dpp)
        assert str(caught.value) == message

    @pytest.mark.parametrize("dpp", [1, 15])
    @pytest.mark.parametrize("moves, message", [
        (((7, 8), (8, 7)), "T: bar 8 (2020-01-08): bar dates must increase strictly: "
                           "2020-01-09 then 2020-01-08"),
        (((7, 6),), "T: bar 7 (2020-01-07): bar dates must increase strictly: "
                    "2020-01-07 then 2020-01-07"),
    ])
    def test_date_out_of_order_names_the_first_bad_bar(self, dpp, moves, message):
        series = make_series(30)
        bars = list(series.bars)
        for i, j in (*moves, (21, 20)):  # bar i takes bar j's date
            bars[i] = dataclasses.replace(bars[i], date=series.bars.date[j])
        redated = PriceSeries("T", bars)
        with pytest.raises(MarketDataError) as caught:
            aggregate_periods(redated, dpp)
        assert str(caught.value) == message
        assert message.endswith(validate(redated).findings[0].message)

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

    @pytest.mark.parametrize("dpp", [1, 5, 15])
    def test_block_rows_equal_the_one_series_periods(self, dpp):
        # raw lengths differ by less than one period; the last series has a NaN
        # volume in its last bar, past its last whole period when dpp > 1
        basket = [PriceSeries(s.symbol, s.bars[:10 * dpp + extra]) for s, extra in zip(
            portfolio_fixture(seed=6, symbols=4, periods=11, days_per_period=dpp),
            (0, dpp - 1, dpp // 2, dpp - 1))]
        bars = list(basket[3].bars)
        bars[-1] = dataclasses.replace(bars[-1], volume=float("nan"))
        basket[3] = PriceSeries(basket[3].symbol, bars)
        periods, faults = aggregate_block(basket, dpp)
        with pytest.raises(MarketDataError) as caught:
            aggregate_periods(basket[3], dpp)
        assert {i: str(exc) for i, exc in faults.items()} == {3: str(caught.value)}
        assert periods["close"].shape == (3, 10)
        for row, series in enumerate(basket[:3]):
            one = aggregate_periods(series, dpp).bars
            for name, column in zip(("date", "open", "high", "low", "close", "volume"),
                                    (one.date, *one.columns())):
                assert periods[name][row].dtype == column.dtype
                assert periods[name][row].tobytes() == column.tobytes()

    def test_block_needs_one_period_count(self):
        with pytest.raises(ValueError, match=r"one period count, got \[1, 2\]"):
            aggregate_block([make_series(29), make_series(30)], 15)
        periods, faults = aggregate_block([make_series(14), make_series(0)], 15, ("close",))
        assert periods["close"].shape == (0, 0)
        assert [str(faults[i]) for i in (0, 1)] == [
            "T: 14 bars is shorter than one 15-bar period",
            "T: 0 bars is shorter than one 15-bar period"]


@st.composite
def date_order_baskets(draw):
    """(d, n, basket): series of n d-bar periods, some with repeated or backward dates.

    The series share one run of dates from 2020-01-01 (a first date may move
    later), so the pairs of dates that straddle two series in the block's
    concatenated date column would fail the order check unless excused.
    """
    d = draw(st.sampled_from([1, 5, 15]))
    n = draw(st.integers(1, 4))  # periods; one-bar series at d = 1 and n = 1
    basket = []
    for k in range(draw(st.integers(1, 6))):
        length = n * d + draw(st.integers(0, d - 1))
        dates = [date(2020, 1, 1) + timedelta(days=i) for i in range(length)]
        for _ in range(draw(st.integers(0, 2)) if length > 1 else 0):
            step = timedelta(days=draw(st.integers(0, 3)))  # 0 repeats a date
            where = draw(st.sampled_from(["first", "inner", "last"]))
            if where == "first":
                dates[0] = dates[1] + step
            else:
                i = length - 1 if where == "last" else draw(st.integers(1, length - 1))
                dates[i] = dates[i - 1] - step
        prices = [10.0] * length
        basket.append(PriceSeries(f"S{k}", Bars(dates, prices, prices, prices, prices, prices)))
    return d, n, draw(st.permutations(basket))


class TestDateOrder:
    @settings(max_examples=200)
    @given(case=date_order_baskets())
    def test_block_and_validate_match_a_per_pair_scan(self, case):
        d, n, basket = case
        periods, faults = aggregate_block(basket, d)
        faults = {i: str(exc) for i, exc in faults.items()}
        for i, series in enumerate(basket):
            dates = series.bars.date.tolist()
            late = scanned_unordered_dates(dates)
            problems = [f"bar dates must increase strictly: {dates[j - 1].isoformat()} then "
                        f"{dates[j].isoformat()}" for j in late]
            if late:
                j = late[0]
                assert faults.pop(i) == f"{series.symbol}: bar {j} ({dates[j]}): {problems[0]}"
            assert [(f.index, f.code, f.message) for f in validate(series).findings] == [
                (j, "dates_not_increasing", problem) for j, problem in zip(late, problems)]
        assert faults == {}
        kept = sum(not scanned_unordered_dates(s.bars.date.tolist()) for s in basket)
        assert periods["date"].shape == periods["close"].shape == (kept, n)


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
