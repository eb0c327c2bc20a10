"""OHLCV ingestion, validation, and aggregation into fixed-length trading periods."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from operator import attrgetter

CSV_HEADER = ("symbol", "date", "open", "high", "low", "close", "volume")


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


@dataclass(frozen=True, slots=True)
class PriceSeries:
    symbol: str
    bars: tuple[PriceBar, ...]

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


# Distinct date cells parse_csv remembers: a portfolio's symbols share their
# dates, while a single long history would only grow the dictionary.
_DATE_CACHE = 4096


def parse_csv(stream) -> list[PriceSeries]:
    """Parse `symbol,date,open,high,low,close,volume` rows into per-symbol series.

    Accepts bytes, str, or a file object. Rows are grouped by symbol (in order of
    first appearance) and sorted by date. Every bar is checked on the way in;
    errors name the offending row (the header is row 1).
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
    groups: dict[str, list[PriceBar]] = {}
    seen: set[tuple[str, date]] = set()
    days: dict[str, date] = {}  # raw date cell -> parsed date, for the first _DATE_CACHE cells
    try:
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise MarketDataError(
                    f"row {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            symbol = row[0].strip()
            if not symbol:
                raise MarketDataError(f"row {line}: empty symbol")
            day = days.get(row[1])
            if day is None:
                try:
                    day = date.fromisoformat(row[1].strip())
                except ValueError:
                    raise MarketDataError(f"row {line}: bad ISO date {row[1]!r}") from None
                if len(days) < _DATE_CACHE:
                    days[row[1]] = day
            try:
                o, h, lo, c, v = map(float, row[2:])
            except ValueError:
                raise MarketDataError(f"row {line}: non-numeric price/volume field") from None
            bar = PriceBar(day, o, h, lo, c, v)
            # accepts exactly the bars _bar_problems accepts (NaN fails every comparison)
            if not (0.0 < lo <= o <= h < math.inf and lo <= c <= h and 0.0 <= v < math.inf):
                raise MarketDataError(f"row {line}: {_bar_problems(bar)[0][1]}")
            key = (symbol, day)
            if key in seen:
                raise MarketDataError(
                    f"row {line}: duplicate entry for {symbol} on {day.isoformat()}")
            seen.add(key)
            groups.setdefault(symbol, []).append(bar)
    except csv.Error as exc:  # e.g. a field above the csv module's size limit
        raise MarketDataError(f"row {reader.line_num}: {exc}") from None
    return [PriceSeries(sym, tuple(sorted(bars, key=attrgetter("date"))))
            for sym, bars in groups.items()]


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def serialize_csv(series_list: list[PriceSeries]) -> bytes:
    """Inverse of parse_csv; parse(serialize(parse(x))) == parse(x)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for series in series_list:
        for b in series.bars:
            writer.writerow([
                series.symbol, b.date.isoformat(),
                _fmt(b.open), _fmt(b.high), _fmt(b.low), _fmt(b.close), _fmt(b.volume),
            ])
    return out.getvalue().encode("utf-8")


def aggregate_periods(series: PriceSeries, days_per_period: int = 15) -> PriceSeries:
    """Collapse consecutive chunks of `days_per_period` bars into one bar each.

    Open is the first open, high the max high, low the min low, close the last
    close, volume the sum, date the last date. A trailing partial chunk is
    dropped; "days" count trading rows, not calendar days.
    """
    if days_per_period < 1:
        raise MarketDataError(f"days_per_period must be >= 1, got {days_per_period}")
    n = len(series.bars) // days_per_period
    if n == 0:
        raise MarketDataError(
            f"{series.symbol}: {len(series.bars)} bars is shorter than one "
            f"{days_per_period}-bar period"
        )
    out = []
    for i in range(n):
        chunk = series.bars[i * days_per_period:(i + 1) * days_per_period]
        out.append(PriceBar(
            date=chunk[-1].date,
            open=chunk[0].open,
            high=max(b.high for b in chunk),
            low=min(b.low for b in chunk),
            close=chunk[-1].close,
            volume=sum(b.volume for b in chunk),
        ))
    return PriceSeries(series.symbol, tuple(out))


def validate(series: PriceSeries) -> ValidationReport:
    """Report every violated bar/series invariant without raising."""
    findings: list[Finding] = []
    if not series.bars:
        findings.append(Finding(series.symbol, None, "empty_series", "series has no bars"))
    for i, bar in enumerate(series.bars):
        for code, msg in _bar_problems(bar):
            findings.append(Finding(series.symbol, i, code, msg))
    for i in range(1, len(series.bars)):
        prev, cur = series.bars[i - 1], series.bars[i]
        if cur.date <= prev.date:
            findings.append(Finding(
                series.symbol, i, "dates_not_increasing",
                f"bar dates must increase strictly: {prev.date.isoformat()} "
                f"then {cur.date.isoformat()}",
            ))
    return ValidationReport(tuple(findings))
