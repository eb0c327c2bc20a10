"""OHLCV ingestion, validation, and aggregation into fixed-length trading periods.

A PriceSeries stores its bars as columns (Bars): a tuple of dates and one
read-only float64 array per price and for the volume. PriceBar objects are
built only when a caller indexes or iterates the bars.

parse_csv has two readers. It tokenizes its input with np.loadtxt,
_TEXT_CHUNK characters at a time, cut after a line end, when all of these
hold; otherwise the csv module reads the input one record at a time, checks
each row and collects it. Both readers give the same series, and every error
comes from the csv-module reader, which stops at the first faulty row:

- the header line is exactly `symbol,date,open,high,low,close,volume`;
- the input holds no '"', NUL or \\x1c-\\x1f, and any '\\r' is part of '\\r\\n';
- every line fits in a chunk (so no field exceeds csv.field_size_limit());
- np.loadtxt accepts every record: seven fields, five of them floats;
- every symbol cell has fewer than 16 characters and is not blank after
  str.strip, and every date cell is exactly 10 characters and a valid
  YYYY-MM-DD date;
- every bar passes the bar checks and no (symbol, date) pair repeats.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from datetime import date
from itertools import repeat

import numpy as np

CSV_HEADER = ("symbol", "date", "open", "high", "low", "close", "volume")
_COLUMNS = ("open", "high", "low", "close", "volume")  # the float columns of a Bars


class MarketDataError(ValueError):
    """Malformed, inconsistent, or insufficient market data."""


@dataclass(frozen=True, slots=True)
class PriceBar:
    date: date
    open: float
    high: float
    low: float
    close: float
    volume: float


def _column(values, length: int) -> np.ndarray:
    column = np.asarray(values, dtype=np.float64)
    if column.shape != (length,):
        raise ValueError(f"a bar column needs shape ({length},), got {column.shape}")
    if column.flags.writeable:  # copy rather than alias an array someone can still write
        column = column.copy()
        column.flags.writeable = False
    return column


@dataclass(frozen=True, slots=True, eq=False)
class Bars(Sequence):
    """An immutable sequence of PriceBar stored as columns.

    `date` is a tuple of dates; the other fields are read-only float64 arrays
    of the same length. An int index builds one PriceBar of Python floats, a
    slice is a Bars of read-only views of these columns (built without
    repeating the construction checks), and `+` concatenates. A Bars equals
    any PriceBar sequence holding the same bars.
    """

    date: tuple[date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self) -> None:
        dates = tuple(self.date)
        object.__setattr__(self, "date", dates)
        for name in _COLUMNS:
            object.__setattr__(self, name, _column(getattr(self, name), len(dates)))

    @classmethod
    def of(cls, bars: Sequence[PriceBar]) -> Bars:
        """`bars` itself if it is a Bars, else its bars copied into columns."""
        if isinstance(bars, Bars):
            return bars
        bars = tuple(bars)
        values = np.array([(b.open, b.high, b.low, b.close, b.volume) for b in bars],
                          dtype=np.float64).reshape(len(bars), len(_COLUMNS))
        return cls(tuple(b.date for b in bars), *values.T)

    def columns(self) -> tuple[np.ndarray, ...]:
        """open, high, low, close, volume."""
        return self.open, self.high, self.low, self.close, self.volume

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # views of checked read-only columns: __post_init__ has nothing to check or copy
            part = object.__new__(Bars)
            for name, values in zip(("date", *_COLUMNS), (self.date, *self.columns())):
                object.__setattr__(part, name, values[index])
            return part
        return PriceBar(self.date[index], *(float(column[index]) for column in self.columns()))

    def __iter__(self) -> Iterator[PriceBar]:
        return map(PriceBar, self.date, *(column.tolist() for column in self.columns()))

    def __add__(self, other: Sequence[PriceBar]) -> Bars:
        if not isinstance(other, Sequence):
            return NotImplemented
        other = Bars.of(other)
        return Bars(self.date + other.date,
                    *map(np.concatenate, zip(self.columns(), other.columns())))

    def __radd__(self, other: Sequence[PriceBar]) -> Bars:
        return Bars.of(other) + self if isinstance(other, Sequence) else NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Bars):
            return self.date == other.date and all(
                map(np.array_equal, self.columns(), other.columns()))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True, slots=True)
class PriceSeries:
    symbol: str
    bars: Bars  # any PriceBar sequence is converted to Bars once, on construction

    def __post_init__(self) -> None:
        object.__setattr__(self, "bars", Bars.of(self.bars))

    def __len__(self) -> int:
        return len(self.bars)


@dataclass(frozen=True, slots=True)
class Finding:
    symbol: str
    index: int | None
    code: str
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def _bar_problems(bar: PriceBar) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []
    if not all(map(math.isfinite, (bar.open, bar.high, bar.low, bar.close, bar.volume))):
        # NaN fails every comparison below, so it must be caught here
        problems.append(("nonfinite_value", f"prices and volume must be finite, got "
                         f"open={bar.open} high={bar.high} low={bar.low} close={bar.close} "
                         f"volume={bar.volume}"))
    if min(bar.open, bar.high, bar.low, bar.close) <= 0.0:
        problems.append((
            "nonpositive_price",
            f"prices must be strictly positive, got open={bar.open} high={bar.high} "
            f"low={bar.low} close={bar.close}",
        ))
    if bar.volume < 0:
        problems.append(("negative_volume", f"volume must be >= 0, got {bar.volume}"))
    if bar.low > min(bar.open, bar.close) or bar.high < max(bar.open, bar.close):
        problems.append((
            "ohlc_bounds",
            f"low/high must bracket open/close, got open={bar.open} high={bar.high} "
            f"low={bar.low} close={bar.close}",
        ))
    return problems


def _date_order_problem(dates: Sequence[date], i: int) -> str:
    return (f"bar dates must increase strictly: {dates[i - 1].isoformat()} "
            f"then {dates[i].isoformat()}")


def _iso_date(cell: str) -> date:
    """The date of a YYYY-MM-DD cell, surrounding whitespace allowed; else ValueError.

    date.fromisoformat alone also takes 20170103 and 2017-W01-3 from Python 3.11 on.
    """
    text = cell.strip()
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return date.fromisoformat(text)


# Characters of CSV text per np.loadtxt call, and so the longest line the
# loadtxt path takes. It equals the csv module's default field size limit, so
# no field the loadtxt path reads is one the csv-module parser would reject; a
# lower limit set with csv.field_size_limit shortens the chunks to match.
_TEXT_CHUNK = 1 << 17
_HEADER_LINE = ",".join(CSV_HEADER)
# Characters np.loadtxt reads unlike the csv module or float(): '"' quotes to
# csv; a U cell drops a trailing NUL; csv ends a line at a lone '\r'; numpy's
# float parser skips \x1c-\x1f as whitespace, float() does not.
_NOT_LOADTXT = '"\x00\r\x1c\x1d\x1e\x1f'
# The loadtxt record: a symbol cell shorter than 16 characters, a date cell of
# 10 (the 11th character shows a longer cell), and the five floats.
_SYMBOL_WIDTH = 16
_RECORD = np.dtype([("symbol", f"U{_SYMBOL_WIDTH}"), ("date", "U11"),
                    ("values", np.float64, (len(_COLUMNS),))])


def _bars_ok(o, h, lo, c, v) -> bool:
    """Whether every bar passes _bar_problems, checked on whole columns."""
    # the chained test accepts exactly the bars _bar_problems accepts (NaN fails it)
    return bool(((0.0 < lo) & (lo <= o) & (o <= h) & (h < np.inf) & (lo <= c) & (c <= h)
                 & (0.0 <= v) & (v < np.inf)).all())


def _series(chunks: list[tuple[np.ndarray, ...]], codes: dict[str, int],
            days: dict[str, int]) -> list[PriceSeries] | None:
    """Per-symbol series from (symbol code, date ordinal, open..volume) chunks.

    Rows are grouped by symbol code and sorted by date; None if two rows share
    a symbol and a date. `days` maps date cells to the ordinals the chunks hold.
    """
    if not chunks:
        return []
    code, ordinal, *columns = map(np.concatenate, zip(*chunks))
    order = np.lexsort((ordinal, code))  # stable: by symbol code, then by date
    code, ordinal = code[order], ordinal[order]
    if ((code[1:] == code[:-1]) & (ordinal[1:] == ordinal[:-1])).any():
        return None
    columns = [column[order] for column in columns]
    day_of = {n: date.fromordinal(n) for n in set(days.values())}
    dates = list(map(day_of.__getitem__, ordinal.tolist()))
    edges = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist(), len(code)]
    return [PriceSeries(symbol, Bars(tuple(dates[a:b]), *(column[a:b] for column in columns)))
            for symbol, a, b in zip(codes, edges, edges[1:])]


def _loadtxt_chunk(text: str, codes: dict[str, int], days: dict[str, int]):
    """(symbol codes, date ordinals, open..volume) of the records in `text`, or None.

    `text` is whole lines. None if it holds a character of _NOT_LOADTXT (a
    '\\r\\n' line end aside), np.loadtxt rejects it, or a cell fails a check
    the csv-module parser makes.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(char in text for char in _NOT_LOADTXT):
        return None
    if not text.lstrip("\n"):  # blank lines only; loadtxt would warn
        return np.empty(0, np.int64), np.empty(0, np.int64), *np.empty((len(_COLUMNS), 0))
    try:
        table = np.loadtxt(io.StringIO(text), dtype=_RECORD, delimiter=",", comments=None,
                           quotechar=None, ndmin=1)
    except ValueError:  # a wrong field count, or a value np.loadtxt does not take
        return None
    symbol, day = table["symbol"], table["date"]
    values = table["values"].T.copy()
    if not ((np.strings.str_len(symbol) < _SYMBOL_WIDTH).all()
            and (np.strings.str_len(day) == 10).all() and _bars_ok(*values)):
        return None
    # symbols come in runs; each run's first cell stands for the run
    starts = np.flatnonzero(np.concatenate(([True], symbol[1:] != symbol[:-1])))
    run_cells = symbol[starts].tolist()
    cell_code = {}
    for cell in dict.fromkeys(run_cells):  # in order of first appearance
        name = cell.strip()
        if not name:
            return None
        cell_code[cell] = codes.setdefault(name, len(codes))
    run_code = np.fromiter(map(cell_code.__getitem__, run_cells), np.int64, len(run_cells))
    cells = day.tolist()
    try:
        for cell in set(cells).difference(days):
            days[cell] = _iso_date(cell).toordinal()
    except ValueError:
        return None
    return (np.repeat(run_code, np.diff(starts, append=len(symbol))),
            np.fromiter(map(days.__getitem__, cells), np.int64, len(cells)), *values)


def _loadtxt_series(data: str) -> list[PriceSeries] | None:
    """parse_csv's result for `data`, tokenized by np.loadtxt; None to use the csv module.

    `data` is read _TEXT_CHUNK characters at a time, cut after a '\\n'. None
    unless the header is exact, every line fits in a chunk and every chunk
    passes _loadtxt_chunk, and no (symbol, date) pair repeats.
    """
    start = data.find("\n") + 1 or len(data)
    if data[:start] not in (_HEADER_LINE, _HEADER_LINE + "\n", _HEADER_LINE + "\r\n"):
        return None
    limit = min(_TEXT_CHUNK, csv.field_size_limit())
    codes: dict[str, int] = {}
    days: dict[str, int] = {}
    chunks = []
    while start < len(data):
        end = (len(data) if len(data) - start <= limit
               else data.rfind("\n", start, start + limit) + 1)
        if end <= start:  # a line longer than the chunk
            return None
        chunk = _loadtxt_chunk(data[start:end], codes, days)
        if chunk is None:
            return None
        chunks.append(chunk)
        start = end
    return _series(chunks, codes, days)


def _csv_series(data: str) -> list[PriceSeries]:
    """parse_csv's result for `data`, read with the csv module one record at a time.

    Raises MarketDataError for the first faulty row, checked in this order:
    field count, symbol, date, numbers, the bar checks, then a repeated
    (symbol, date). A csv.Error names the physical line the reader stopped at.
    """
    reader = csv.reader(io.StringIO(data))
    try:
        header = next(reader)
    except StopIteration:
        raise MarketDataError("empty input: missing CSV header") from None
    except csv.Error as exc:
        raise MarketDataError(f"row 1: {exc}") from None
    if tuple(cell.strip() for cell in header) != CSV_HEADER:
        raise MarketDataError(
            f"bad header: expected {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    codes: dict[str, int] = {}
    days: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    records: list[float] = []
    try:
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise MarketDataError(
                    f"row {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            symbol, cell, o, h, lo, c, v = row
            symbol = symbol.strip()
            if not symbol:
                raise MarketDataError(f"row {line}: empty symbol")
            ordinal = days.get(cell)
            if ordinal is None:
                try:
                    ordinal = days[cell] = _iso_date(cell).toordinal()
                except ValueError:
                    raise MarketDataError(f"row {line}: bad ISO date {cell!r}") from None
            try:
                o, h, lo, c, v = float(o), float(h), float(lo), float(c), float(v)
            except ValueError:
                raise MarketDataError(f"row {line}: non-numeric price/volume field") from None
            # the scalar form of _bars_ok's test, so equal to "_bar_problems finds none"
            if not (0.0 < lo <= o <= h < math.inf and lo <= c <= h and 0.0 <= v < math.inf):
                _, message = _bar_problems(PriceBar(date.fromordinal(ordinal), o, h, lo, c, v))[0]
                raise MarketDataError(f"row {line}: {message}")
            key = (codes.setdefault(symbol, len(codes)), ordinal)
            if key in seen:
                raise MarketDataError(f"row {line}: duplicate entry for {symbol} on "
                                      f"{date.fromordinal(ordinal).isoformat()}")
            seen.add(key)
            records += (*key, o, h, lo, c, v)  # flat: np.array reads it faster than tuples
    except csv.Error as exc:  # e.g. a field above the csv module's size limit
        raise MarketDataError(f"row {reader.line_num}: {exc}") from None
    table = np.array(records, dtype=np.float64).reshape(-1, len(CSV_HEADER))
    code, ordinal = table[:, :2].T.astype(np.int64)  # ints below 2**53, so exact
    return _series([(code, ordinal, *table[:, 2:].T)], codes, days)


def parse_csv(stream) -> list[PriceSeries]:
    """Parse `symbol,date,open,high,low,close,volume` rows into per-symbol series.

    Accepts bytes, str, or a file object; one leading byte-order mark is
    dropped. Rows are grouped by symbol (in order of first appearance) and
    sorted by date. Every bar is checked on the way in; errors name the
    offending row (the header is row 1). np.loadtxt tokenizes the input when
    it can (_loadtxt_series); otherwise, and whenever a check fails, the
    csv module reads it one record at a time (_csv_series) and raises the
    error for the earliest faulty row.
    """
    data = stream.read() if hasattr(stream, "read") else stream
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarketDataError(f"input is not UTF-8 text: {exc}") from None
    data = data.removeprefix("\ufeff")
    series = _loadtxt_series(data)
    return _csv_series(data) if series is None else series


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def serialize_csv(series_list: list[PriceSeries]) -> bytes:
    """Inverse of parse_csv; parse(serialize(parse(x))) == parse(x)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for series in series_list:
        bars = series.bars
        writer.writerows(zip(repeat(series.symbol), map(date.isoformat, bars.date),
                             *(map(_fmt, column.tolist()) for column in bars.columns())))
    return out.getvalue().encode("utf-8")


def aggregate_periods(series: PriceSeries, days_per_period: int = 15) -> PriceSeries:
    """Collapse consecutive chunks of `days_per_period` bars into one bar each.

    Open is the first open, high the max high, low the min low, close the last
    close, volume the sum, date the last date. A trailing partial chunk is
    dropped; "days" count trading rows, not calendar days. One-bar periods
    are the bars themselves, so `series` is returned as it is. A non-finite
    price or volume, or a date not after the one before it, which parse_csv
    rejects but a library caller can pass, raises MarketDataError naming the
    first such bar.
    """
    if days_per_period < 1:
        raise MarketDataError(f"days_per_period must be >= 1, got {days_per_period}")
    bars, d = series.bars, days_per_period
    n = len(bars) // d
    if n == 0:
        raise MarketDataError(
            f"{series.symbol}: {len(bars)} bars is shorter than one {d}-bar period"
        )
    finite = np.isfinite(np.stack(bars.columns()))
    if not finite.all():
        i = int(np.argmin(finite.all(axis=0)))
        _, message = _bar_problems(bars[i])[0]
        raise MarketDataError(f"{series.symbol}: bar {i} ({bars.date[i].isoformat()}): {message}")
    dates = bars.date
    if not all(map(operator.lt, dates, dates[1:])):
        i = next(i for i in range(1, len(dates)) if dates[i] <= dates[i - 1])
        raise MarketDataError(f"{series.symbol}: bar {i} ({dates[i].isoformat()}): "
                              f"{_date_order_problem(dates, i)}")
    if d == 1:
        return series
    m = n * d

    def chunks(column: np.ndarray) -> np.ndarray:
        return column[:m].reshape(n, d)

    return PriceSeries(series.symbol, Bars(
        date=bars.date[d - 1:m:d],
        open=bars.open[:m:d],
        high=chunks(bars.high).max(axis=1),
        low=chunks(bars.low).min(axis=1),
        close=bars.close[d - 1:m:d],
        # cumsum adds left to right; np.sum and Python 3.12's float sum do not
        volume=chunks(bars.volume).cumsum(axis=1)[:, -1],
    ))


def validate(series: PriceSeries) -> ValidationReport:
    """Report every violated bar/series invariant without raising."""
    findings: list[Finding] = []
    if not series.bars:
        findings.append(Finding(series.symbol, None, "empty_series", "series has no bars"))
    for i, bar in enumerate(series.bars):
        for code, msg in _bar_problems(bar):
            findings.append(Finding(series.symbol, i, code, msg))
    dates = series.bars.date
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            findings.append(Finding(series.symbol, i, "dates_not_increasing",
                                    _date_order_problem(dates, i)))
    return ValidationReport(tuple(findings))
