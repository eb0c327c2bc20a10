"""OHLCV ingestion, validation, and aggregation into fixed-length trading periods.

A PriceSeries stores its bars as columns (Bars): a tuple of dates and one
read-only float64 array per price and for the volume. PriceBar objects are
built only when a caller indexes or iterates the bars.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from datetime import date
from itertools import chain, islice, repeat

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
    slice is a Bars of views, and `+` concatenates. A Bars equals any PriceBar
    sequence holding the same bars.
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
            return Bars(self.date[index], *(column[index] for column in self.columns()))
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


# CSV records parse_csv converts at a time: enough to amortize each numpy call,
# few enough that one chunk's cells stay small next to the parsed columns.
_CHUNK_ROWS = 1024


def _chunk_columns(rows: list[list[str]], codes: dict[str, int]):
    """(dates, symbol codes, date ordinals, open..volume) of non-blank records.

    None if any record fails a check; _first_fault then names the row. Symbols
    get codes in order of first appearance.
    """
    width = len(CSV_HEADER)
    if not set(map(len, rows)) <= {width}:
        return None
    cells = list(chain.from_iterable(rows))
    symbols = list(map(str.strip, cells[0::width]))
    if not all(symbols):
        return None
    date_cells = cells[1::width]
    try:
        distinct = list(set(date_cells))
        days = dict(zip(distinct, map(date.fromisoformat, map(str.strip, distinct))))
        o, h, lo, c, v = (np.fromiter(map(float, cells[k::width]), np.float64, len(rows))
                          for k in range(2, width))
    except ValueError:
        return None
    # the chained test accepts exactly the bars _bar_problems accepts (NaN fails it)
    if not ((0.0 < lo) & (lo <= o) & (o <= h) & (h < np.inf) & (lo <= c) & (c <= h)
            & (0.0 <= v) & (v < np.inf)).all():
        return None
    for symbol in dict.fromkeys(symbols):
        codes.setdefault(symbol, len(codes))
    dates = list(map(days.__getitem__, date_cells))
    code = np.fromiter(map(codes.__getitem__, symbols), np.int64, len(rows))
    ordinal = np.fromiter(map(date.toordinal, dates), np.int64, len(rows))
    return dates, code, ordinal, o, h, lo, c, v


def _first_fault(data: str) -> MarketDataError:
    """The error for the earliest faulty row of `data`, checked one row at a time."""
    reader = csv.reader(io.StringIO(data))
    seen: set[tuple[str, date]] = set()
    try:
        next(reader)  # the header, already checked
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                return MarketDataError(
                    f"row {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            symbol = row[0].strip()
            if not symbol:
                return MarketDataError(f"row {line}: empty symbol")
            try:
                day = date.fromisoformat(row[1].strip())
            except ValueError:
                return MarketDataError(f"row {line}: bad ISO date {row[1]!r}")
            try:
                problems = _bar_problems(PriceBar(day, *map(float, row[2:])))
            except ValueError:
                return MarketDataError(f"row {line}: non-numeric price/volume field")
            if problems:
                return MarketDataError(f"row {line}: {problems[0][1]}")
            if (symbol, day) in seen:
                return MarketDataError(
                    f"row {line}: duplicate entry for {symbol} on {day.isoformat()}")
            seen.add((symbol, day))
    except csv.Error as exc:  # e.g. a field above the csv module's size limit
        return MarketDataError(f"row {reader.line_num}: {exc}")
    raise RuntimeError("parse_csv: the column checks rejected rows the row checks accept")


def parse_csv(stream) -> list[PriceSeries]:
    """Parse `symbol,date,open,high,low,close,volume` rows into per-symbol series.

    Accepts bytes, str, or a file object. Rows are grouped by symbol (in order of
    first appearance) and sorted by date. Every bar is checked on the way in;
    errors name the offending row (the header is row 1). Records are converted
    _CHUNK_ROWS at a time into columns; any fault sends the input to
    _first_fault, which words the error for the earliest faulty row.
    """
    data = stream.read() if hasattr(stream, "read") else stream
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarketDataError(f"input is not UTF-8 text: {exc}") from None
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
    dates: list[date] = []
    chunks: list[tuple[np.ndarray, ...]] = []
    try:
        while records := list(islice(reader, _CHUNK_ROWS)):
            chunk = _chunk_columns(list(filter(None, records)), codes)
            if chunk is None:
                raise _first_fault(data)
            dates += chunk[0]
            chunks.append(chunk[1:])
    except csv.Error:
        raise _first_fault(data) from None
    if not dates:
        return []
    code, ordinal, *columns = map(np.concatenate, zip(*chunks))
    order = np.lexsort((ordinal, code))  # stable: by symbol code, then by date
    code, ordinal = code[order], ordinal[order]
    if ((code[1:] == code[:-1]) & (ordinal[1:] == ordinal[:-1])).any():
        raise _first_fault(data)
    columns = [column[order] for column in columns]
    dates = list(map(dates.__getitem__, order.tolist()))
    edges = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist(), len(code)]
    return [PriceSeries(symbol, Bars(tuple(dates[a:b]), *(column[a:b] for column in columns)))
            for symbol, a, b in zip(codes, edges, edges[1:])]


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
    dropped; "days" count trading rows, not calendar days.
    """
    if days_per_period < 1:
        raise MarketDataError(f"days_per_period must be >= 1, got {days_per_period}")
    bars, d = series.bars, days_per_period
    n = len(bars) // d
    if n == 0:
        raise MarketDataError(
            f"{series.symbol}: {len(bars)} bars is shorter than one {d}-bar period"
        )
    m = n * d

    def chunks(column: np.ndarray) -> np.ndarray:
        return column[:m].reshape(n, d)

    return PriceSeries(series.symbol, Bars(
        date=bars.date[d - 1:m:d],
        open=bars.open[:m:d],
        high=chunks(bars.high).max(axis=1),
        low=chunks(bars.low).min(axis=1),
        close=bars.close[d - 1:m:d],
        # cumsum adds left to right, in the order of the builtin sum it replaces
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
            findings.append(Finding(
                series.symbol, i, "dates_not_increasing",
                f"bar dates must increase strictly: {dates[i - 1].isoformat()} "
                f"then {dates[i].isoformat()}",
            ))
    return ValidationReport(tuple(findings))
