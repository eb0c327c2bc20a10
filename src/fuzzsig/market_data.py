"""OHLCV ingestion, bar checks, and aggregation into fixed-length trading periods.

A PriceSeries stores its bars as a table of columns (Bars): one read-only
array per field, datetime64[D] for the date and float64 for each price and
the volume. Callers read whole columns; there is no per-bar object.

parse_csv keeps one copy of the rows: one set of key columns (symbol code,
date ordinal) and one (5, rows) array of values, filled in input order and
permuted in place only when the rows are not already grouped by symbol and
sorted by date. Every parsed series holds read-only views of that array and
of one date column made from the ordinals, so one kept PriceSeries keeps the
whole parsed table alive.

parse_csv has two readers. It tokenizes its input with np.loadtxt,
_TEXT_CHUNK characters at a time, cut after a line end, when all of these
hold; otherwise the csv module reads the input one record at a time, checks
each row and collects it. Both readers give the same series, and every error
comes from the csv-module reader, which stops at the first faulty row:

- the header line is exactly `symbol,date,open,high,low,close,volume`;
- the input holds no '"', NUL or \\x1c-\\x1f, and any '\\r' is part of '\\r\\n';
- every line fits in a chunk (so no field exceeds csv.field_size_limit());
- np.loadtxt accepts every record: seven fields, five of them floats;
- every symbol cell has fewer than 16 characters and, after str.strip, is
  not blank and holds only printing characters (str.isprintable, so an
  inner tab or no-break space fails), and every date cell is exactly 10
  characters and a valid YYYY-MM-DD date;
- every bar keeps the bar rule and no (symbol, date) pair repeats.

The bar rule is written twice, once per shape of input: _bars_ok tests whole
columns and _bar_problem one bar, returning the message of the first rule it
breaks (a non-finite value, a price not above zero, a negative volume, a low
or high that does not bracket the open and close). Every error worded for a
bad bar is _bar_problem's text.

The np.loadtxt reader decodes date cells as arrays: each cell's YYYYMMDD
number splits into year, month and day, and the day must lie in its month,
whose first day and length come from datetime64 once per month the chunk
spans. The csv-module reader checks each distinct cell with _iso_date.

aggregate_block collapses N series with the same number of periods into
(N, periods) columns, one field at a time, and returns each failing series'
error by its index. A series built in code can hold bars parse_csv rejects,
so aggregation applies the same bar rule, on the N series' concatenated
columns, and _unordered finds every date that is not after the one before it.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterable, Sequence
from datetime import date
from itertools import repeat

import numpy as np

from ._frozen import Frozen, Value

CSV_HEADER = ("symbol", "date", "open", "high", "low", "close", "volume")
_COLUMNS = ("open", "high", "low", "close", "volume")  # the float columns of a Bars
_FIELDS = ("date", *_COLUMNS)
_DAY = np.dtype("datetime64[D]")
# the days a datetime.date can hold (date ordinals 1 on), so every bar date converts to one
_FIRST_DAY, _LAST_DAY = np.datetime64(date.min, "D"), np.datetime64(date.max, "D")


class MarketDataError(ValueError):
    """Malformed, inconsistent, or insufficient market data."""


def _column(values, dtype, length: int | None = None) -> np.ndarray:
    """`values` as a read-only 1-D array of `dtype`, with `length` items if given."""
    if not isinstance(values, (np.ndarray, Sequence)):  # e.g. a generator: read it once
        values = list(values)
    column = np.asarray(values, dtype=dtype)
    if column.ndim != 1 or length not in (None, len(column)):
        raise ValueError(f"a bar column needs shape ({'n' if length is None else length},), "
                         f"got {column.shape}")
    if column.flags.writeable:  # copy rather than alias an array someone can still write
        column = column.copy()
        column.flags.writeable = False
    return column


class Bars(Frozen):
    """Price bars as a read-only table of columns.

    Every field is a read-only array of the same length: `date` is
    datetime64[D] and the others are float64. Any iterable of dates (date
    objects, datetime64 values or ISO strings) builds the date column; a NaT
    or a day a datetime.date cannot hold is a ValueError naming its index. A
    slice is a Bars of read-only views of these columns (built without
    repeating the construction checks); an int index is a TypeError. `+`
    concatenates two Bars. Two Bars are equal when every column holds equal
    values, and equal Bars hash equal.
    """

    __slots__ = _fields = _FIELDS

    def __init__(self, date, open, high, low, close, volume) -> None:
        dates = _column(date, _DAY)
        inside = (_FIRST_DAY <= dates) & (dates <= _LAST_DAY)  # False for NaT
        if not inside.all():
            i = int(np.argmin(inside))
            raise ValueError(f"bar {i}: date {dates[i]} is outside {_FIRST_DAY}..{_LAST_DAY}")
        object.__setattr__(self, "date", dates)
        for name, column in zip(_COLUMNS, (open, high, low, close, volume)):
            object.__setattr__(self, name, _column(column, np.float64, len(dates)))

    def columns(self) -> tuple[np.ndarray, ...]:
        """open, high, low, close, volume."""
        return self.open, self.high, self.low, self.close, self.volume

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, index: slice) -> Bars:
        if not isinstance(index, slice):
            raise TypeError(f"Bars take a slice, not {type(index).__name__}; read a bar's "
                            f"values from the columns")
        # views of checked read-only columns: __init__ has nothing to check or copy
        part = object.__new__(Bars)
        for name in _FIELDS:
            object.__setattr__(part, name, getattr(self, name)[index])
        return part

    def __add__(self, other: Bars) -> Bars:
        if not isinstance(other, Bars):
            return NotImplemented
        return Bars(*(np.concatenate((getattr(self, name), getattr(other, name)))
                      for name in _FIELDS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bars):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _FIELDS)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into the 0.0 it equals
        return hash((self.date.tobytes(), *((column + 0.0).tobytes() for column in self.columns())))


class PriceSeries(Value):
    __slots__ = _fields = ("symbol", "bars")

    def __init__(self, symbol: str, bars: Bars) -> None:
        if not isinstance(bars, Bars):
            raise TypeError(f"PriceSeries bars must be a Bars, got {type(bars).__name__}")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "bars", bars)


def _unordered(dates: np.ndarray) -> np.ndarray:
    """The indices i >= 1 whose date is not after the one at i - 1, in order."""
    return np.flatnonzero(dates[1:] <= dates[:-1]) + 1


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
# Where a record's date cell starts, in 4-byte code points, and the positions and
# place values of its YYYYMMDD digits.
_DATE_AT = _RECORD.fields["date"][1] // 4
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]
_DATE_WEIGHTS = np.array([10_000_000, 1_000_000, 100_000, 10_000, 1_000, 100, 10, 1])


def _bar_problem(o: float, h: float, lo: float, c: float, v: float) -> str | None:
    """The message of the first bar rule a bar breaks, or None when it keeps them all.

    The rules, in order: every price and the volume finite, every price
    strictly positive, the volume not negative, and low and high bracketing
    open and close. A bar keeps them all exactly when _bars_ok holds for it.
    """
    # the scalar form of _bars_ok's chained test (NaN fails it)
    if 0.0 < lo <= o <= h < math.inf and lo <= c <= h and 0.0 <= v < math.inf:
        return None
    if not all(map(math.isfinite, (o, h, lo, c, v))):
        # NaN fails every comparison below, so it must be caught here
        return (f"prices and volume must be finite, got open={o} high={h} low={lo} close={c} "
                f"volume={v}")
    if min(o, h, lo, c) <= 0.0:
        return f"prices must be strictly positive, got open={o} high={h} low={lo} close={c}"
    if v < 0.0:
        return f"volume must be >= 0, got {v}"
    return f"low/high must bracket open/close, got open={o} high={h} low={lo} close={c}"


def _bars_ok(column) -> np.ndarray:
    """Per bar, whether it keeps every bar rule (_bar_problem), tested on whole columns.

    column(name) gives the values of one of _COLUMNS. It is asked for low,
    open, high, close and volume in that order, and at most three of them
    are held at once.
    """
    lo, o = column("low"), column("open")
    ok = (0.0 < lo) & (lo <= o)
    h = column("high")
    ok &= (o <= h) & (h < np.inf)
    del o
    c = column("close")
    ok &= (lo <= c) & (c <= h)
    del lo, h, c
    v = column("volume")
    ok &= (0.0 <= v) & (v < np.inf)
    return ok


def _series(code: np.ndarray, ordinal: np.ndarray, values: np.ndarray,
            symbols: Iterable[str]) -> list[PriceSeries] | None:
    """Per-symbol series from the parsed rows; None if two rows share a symbol and a date.

    Row i holds symbol code code[i] (codes count the `symbols` from 0), date
    ordinal ordinal[i] and the bar values[:, i] (open..volume). Rows are
    grouped by symbol code and sorted by date, permuting `values` in place when
    they are not already in that order; `values` and the date column are then
    made read-only and every series holds views of them.
    """
    if not len(code):
        return []
    same = code[1:] == code[:-1]
    # codes that never decrease, with dates rising strictly within each code, are
    # already in order and cannot repeat a (symbol, date) pair
    if not ((code[1:] > code[:-1]) | (same & (ordinal[1:] > ordinal[:-1]))).all():
        order = np.lexsort((ordinal, code))  # stable: by symbol code, then by date
        code, ordinal = code[order], ordinal[order]
        same = code[1:] == code[:-1]
        if (same & (ordinal[1:] == ordinal[:-1])).any():
            return None
        for column in values:  # one column at a time, so one column is the extra memory
            column[:] = column[order]
    day = (_FIRST_DAY - 1) + ordinal  # date ordinal 1 is _FIRST_DAY
    values.flags.writeable = day.flags.writeable = False
    table = Bars(day, *values)
    edges = [0, *(np.flatnonzero(~same) + 1).tolist(), len(code)]
    return [PriceSeries(symbol, table[a:b]) for symbol, a, b in zip(symbols, edges, edges[1:])]


def _loadtxt_chunk(text: str, codes: dict[str, int], code: np.ndarray, ordinal: np.ndarray,
                   values: np.ndarray) -> int | None:
    """Fill the leading rows of the key columns and values with the records of `text`.

    `text` is whole lines. Returns the number of records, or None if `text`
    holds a character of _NOT_LOADTXT (a '\\r\\n' line end aside), np.loadtxt
    rejects it, or a cell fails a check the csv-module parser makes. `codes`
    maps symbols to codes and grows with each chunk. Date cells are decoded
    as arrays: each cell's YYYYMMDD number splits into year, month and day,
    which must name a day of the calendar, as _iso_date requires.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(char in text for char in _NOT_LOADTXT):
        return None
    if not text.lstrip("\n"):  # blank lines only; loadtxt would warn
        return 0
    try:
        table = np.loadtxt(io.StringIO(text), dtype=_RECORD, delimiter=",", comments=None,
                           quotechar=None, ndmin=1)
    except ValueError:  # a wrong field count, or a value np.loadtxt does not take
        return None
    rows, symbol = len(table), table["symbol"]
    chunk = values[:, :rows]
    chunk[...] = table["values"].T
    # each record's code points: a symbol cell, which holds no NUL, is shorter than
    # 16 characters when its 16th is 0; date digits below '0' wrap to large values
    points = table.view(np.uint32).reshape(rows, -1)
    cell = points[:, _DATE_AT:_DATE_AT + 11]
    digits = cell[:, _DATE_DIGITS] - np.uint32(ord("0"))
    if points[:, _SYMBOL_WIDTH - 1].any() or not (
            (digits <= 9).all() and (cell[:, [4, 7]] == ord("-")).all()
            and not cell[:, 10].any() and _bars_ok(dict(zip(_COLUMNS, chunk)).get).all()):
        return None
    # symbols come in runs; each run's first cell stands for the run
    starts = np.flatnonzero(np.concatenate(([True], symbol[1:] != symbol[:-1])))
    run_cells = symbol[starts].tolist()
    cell_code = {}
    for name in dict.fromkeys(run_cells):  # in order of first appearance
        stripped = name.strip()
        if not (stripped and stripped.isprintable()):
            return None
        cell_code[name] = codes.setdefault(stripped, len(codes))
    run_code = np.fromiter(map(cell_code.__getitem__, run_cells), np.int64, len(run_cells))
    code[:rows] = np.repeat(run_code, np.diff(starts, append=rows))
    # every cell is YYYY-MM-DD, so its YYYYMMDD number names it
    year, month_day = np.divmod(digits.astype(np.int64) @ _DATE_WEIGHTS, 10_000)
    month, day = np.divmod(month_day, 100)
    if not ((year >= 1) & (1 <= month) & (month <= 12) & (day >= 1)).all():
        return None
    # the first day of every month from the chunk's first to the one after its last,
    # converted once per month rather than once per cell (a datetime64[M] value
    # counts months from 1970-01)
    months = (year - 1970) * 12 + (month - 1)
    low = months.min()
    starts = np.arange(low, months.max() + 2).astype("datetime64[M]").astype(_DAY)
    at = months - low
    if not (day <= (starts[1:] - starts[:-1]).astype(np.int64)[at]).all():
        return None
    # _FIRST_DAY is date ordinal 1
    ordinal[:rows] = (starts[at] - (_FIRST_DAY - 1)).astype(np.int64) + (day - 1)
    return rows


def _loadtxt_series(data: str) -> list[PriceSeries] | None:
    """parse_csv's result for `data`, tokenized by np.loadtxt; None to use the csv module.

    `data` is read _TEXT_CHUNK characters at a time, cut after a '\\n', into one
    set of key and value columns sized for its line count. None unless the
    header is exact, every line fits in a chunk and every chunk passes
    _loadtxt_chunk, and no (symbol, date) pair repeats.
    """
    start = data.find("\n") + 1 or len(data)
    if data[:start] not in (_HEADER_LINE, _HEADER_LINE + "\n", _HEADER_LINE + "\r\n"):
        return None
    limit = min(_TEXT_CHUNK, csv.field_size_limit())
    capacity = data.count("\n", start) + 1  # no fewer than the records
    code, ordinal = np.empty(capacity, np.int64), np.empty(capacity, np.int64)
    values = np.empty((len(_COLUMNS), capacity))
    codes: dict[str, int] = {}
    rows = 0
    while start < len(data):
        end = (len(data) if len(data) - start <= limit
               else data.rfind("\n", start, start + limit) + 1)
        if end <= start:  # a line longer than the chunk
            return None
        filled = _loadtxt_chunk(data[start:end], codes, code[rows:], ordinal[rows:],
                                values[:, rows:])
        if filled is None:
            return None
        rows += filled
        start = end
    return _series(code[:rows], ordinal[:rows], values[:, :rows], codes)


def _csv_series(data: str) -> list[PriceSeries]:
    """parse_csv's result for `data`, read with the csv module one record at a time.

    Raises MarketDataError for the first faulty row, checked in this order:
    field count, symbol, date, numbers, the bar rule, then a repeated
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
            if not symbol.isprintable():
                raise MarketDataError(
                    f"row {line}: symbol {symbol!r} holds a non-printing character")
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
            problem = _bar_problem(o, h, lo, c, v)
            if problem is not None:
                raise MarketDataError(f"row {line}: {problem}")
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
    return _series(code, ordinal, table[:, 2:].T.copy(), codes)


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
        writer.writerows(zip(repeat(series.symbol), np.datetime_as_string(bars.date).tolist(),
                             *(map(_fmt, column.tolist()) for column in bars.columns())))
    return out.getvalue().encode("utf-8")


def _period_fault(series: PriceSeries, d: int) -> MarketDataError | None:
    """Why `series` cannot be aggregated into d-bar periods, or None.

    Checked in this order: fewer bars than one period, the first bar that
    breaks a bar rule (worded by _bar_problem), the first date not after the
    one before it.
    """
    bars = series.bars
    if len(bars) < d:
        return MarketDataError(
            f"{series.symbol}: {len(bars)} bars is shorter than one {d}-bar period")
    ok = _bars_ok(lambda name: getattr(bars, name))
    if not ok.all():
        i = int(np.argmin(ok))
        problem = _bar_problem(*(column[i].item() for column in bars.columns()))
        return MarketDataError(f"{series.symbol}: bar {i} ({bars.date[i]}): {problem}")
    unordered = _unordered(bars.date)
    if len(unordered):
        i = int(unordered[0])
        return MarketDataError(f"{series.symbol}: bar {i} ({bars.date[i]}): bar dates must "
                               f"increase strictly: {bars.date[i - 1]} then {bars.date[i]}")
    return None


def aggregate_block(
    series_list: Sequence[PriceSeries],
    days_per_period: int,
    fields: Sequence[str] = _FIELDS,
) -> tuple[dict[str, np.ndarray], dict[int, MarketDataError]]:
    """Collapse consecutive chunks of `days_per_period` bars into one period each, for N series.

    Open is the first open, high the max high, low the min low, close the last
    close, volume the sum, date the last date. A trailing partial chunk is
    dropped; "days" count trading rows, not calendar days. Every series must
    give the same number n of periods, so raw lengths may differ by less than
    one period.

    Returns the periods of the series that pass, in order, as an (N, n) array
    per name in `fields` (datetime64[D] for "date"), and for each series that
    fails, its index and its MarketDataError: too few bars for one period, the
    first bar that breaks the bar rule (in _bar_problem's words), or the first
    date not after the one before it, checked in that order. parse_csv
    rejects the last two, but a library caller can pass them, and both are
    found on the N series' concatenated columns, at most three of them at a
    time. Each field is stacked and reduced on its own, so the extra memory
    of the aggregation is one column of the block at a time.
    """
    d = days_per_period
    if d < 1:
        raise MarketDataError(f"days_per_period must be >= 1, got {d}")
    counts = {len(series.bars) // d for series in series_list}
    if len(counts) > 1:
        raise ValueError(f"a block needs one period count, got {sorted(counts)}")
    n = counts.pop() if counts else 0
    bars = [series.bars for series in series_list]
    if n == 0:
        suspect = set(range(len(bars)))
    else:  # every series has bars, so each start is a distinct position
        starts = np.cumsum([0, *map(len, bars[:-1])])
        unordered = _unordered(np.concatenate([b.date for b in bars]))
        owner = np.searchsorted(starts, unordered, side="right") - 1
        # the pair at a series' start straddles two series: its first date follows no other
        suspect = set(owner[unordered != starts[owner]].tolist())
        ok = _bars_ok(lambda name: np.concatenate([getattr(b, name) for b in bars]))
        suspect.update(np.flatnonzero(~np.logical_and.reduceat(ok, starts)).tolist())
    faults = {i: _period_fault(series_list[i], d) for i in sorted(suspect)}
    kept = [b for i, b in enumerate(bars) if i not in faults]
    rows, m = len(kept), n * d
    periods = {}
    for name in fields:
        columns = [getattr(b, name) for b in kept]
        dtype = _DAY if name == "date" else np.float64
        if name in ("date", "open", "close"):  # the date and the close are the last bar's
            first = 0 if name == "open" else d - 1
            periods[name] = np.array([c[first:m:d] for c in columns], dtype).reshape(rows, n)
        else:
            chunks = np.array([c[:m] for c in columns], dtype).reshape(rows, n, d)
            periods[name] = (chunks.max(axis=2) if name == "high" else
                             chunks.min(axis=2) if name == "low" else
                             # cumsum adds left to right; np.sum and Python 3.12's float sum do not
                             chunks.cumsum(axis=2)[..., -1])
    return periods, faults
