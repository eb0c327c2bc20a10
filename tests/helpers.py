"""Test-only builders: bars from rows, edited series, one series' period bars,
trend-ramp price series, one membership function's grades, an aggregate on a
weighted grid, and a count of coverage checks.

A Bars is a table of columns, so tests that think in rows build one with
bars_of and change single cells with with_cells. The ramps give the pipeline
inputs whose signal is known in advance: a flat series sits at every layer's
neutral point, an uptrend reads Buy and a downtrend Sell. They are dated from
fuzzsig.fixtures' start day, like the seeded walks.
"""

from __future__ import annotations

import numpy as np

from fuzzsig import fuzzy
from fuzzsig.fixtures import _dates
from fuzzsig.fuzzy import grade_terms, term_table
from fuzzsig.inference import AggregatedOutput
from fuzzsig.market_data import Bars, PriceSeries, aggregate_block


FIELDS = ("date", "open", "high", "low", "close", "volume")


def bars_of(rows) -> Bars:
    """A Bars of (date, open, high, low, close, volume) row tuples; no rows, no bars."""
    columns = list(zip(*rows))
    return Bars(*(columns or [()] * len(FIELDS)))


def with_cells(series: PriceSeries, **cells: dict) -> PriceSeries:
    """A copy of `series` whose named columns hold new values at the given indices.

    with_cells(s, close={-1: 9.0}) replaces the last close; a date cell takes
    anything a datetime64[D] array does.
    """
    columns = {name: getattr(series.bars, name).copy() for name in FIELDS}
    for name, changes in cells.items():
        for i, value in changes.items():
            columns[name][i] = value
    return PriceSeries(series.symbol, Bars(**columns))


def aggregate_periods(series: PriceSeries, days_per_period: int = 15) -> PriceSeries:
    """The one-series aggregate_block as a series of period bars; a failing series raises."""
    periods, faults = aggregate_block([series], days_per_period)
    if faults:
        raise faults[0]
    return PriceSeries(series.symbol, Bars(*(periods[name][0] for name in FIELDS)))


def grade(mf, x, delta: float | None = None):
    """mf's grade at x, or its (lower, upper) pair under a footprint blur of delta.

    The one-term grade_terms: a float x gives floats, an array x arrays of its shape.
    """
    arr = np.asarray(x, dtype=float)
    [grades] = grade_terms(term_table((mf,)), arr.reshape(1, -1), delta)
    if delta is None:
        return grades.item() if arr.ndim == 0 else grades.reshape(arr.shape)
    lower, upper = (g.item() if arr.ndim == 0 else g.reshape(arr.shape) for g in grades)
    return lower, upper


def aggregate(grid, lower, upper, interval: bool) -> AggregatedOutput:
    """An AggregatedOutput of (N, grid) envelopes, with the trapezoid weights of `grid`."""
    weights = np.ones(len(grid))
    weights[[0, -1]] = 0.5
    return AggregatedOutput(grid, weights, lower, upper, interval)


def coverage_checks(monkeypatch) -> list[str]:
    """The names of the variables whose coverage grid is graded from now on, in order."""
    checked, check = [], fuzzy._check_coverage

    def counted(name, domain, terms):
        checked.append(name)
        return check(name, domain, terms)

    monkeypatch.setattr(fuzzy, "_check_coverage", counted)
    return checked


def flat_series(
    symbol: str = "FLAT",
    periods: int = 52,
    days_per_period: int = 15,
    price: float = 100.0,
) -> PriceSeries:
    """Constant price, zero range: every pipeline layer sits at its neutral point."""
    days = _dates(periods * days_per_period)
    prices = [price] * len(days)
    return PriceSeries(symbol, Bars(days, prices, prices, prices, prices, [1000.0] * len(days)))


def trending_series(
    symbol: str,
    periods: int = 52,
    days_per_period: int = 15,
    *,
    total_change: float = 1.0,
    wick_up: float = 0.10,
    wick_down: float = 0.10,
    start_price: float = 100.0,
) -> PriceSeries:
    """Monotone closes along a quadratic path ending at (1 + total_change) x start.

    The quadratic shape makes the move accelerate in absolute price units, so
    the MACD line outruns its signal line in the trend direction; the wick
    proportions decide where the close sits inside the bar range, which keeps
    the stochastic off its pinned extremes during a sustained trend.
    """
    total = periods * days_per_period
    opens, highs, lows, closes = [], [], [], []
    prev_close = start_price
    for i in range(total):
        frac = (i + 1) / total
        close = start_price * (1.0 + total_change * frac * frac)
        open_ = prev_close if i else close
        opens.append(open_)
        highs.append(max(open_, close) * (1.0 + wick_up))
        lows.append(min(open_, close) * (1.0 - wick_down))
        closes.append(close)
        prev_close = close
    return PriceSeries(symbol, Bars(_dates(total), opens, highs, lows, closes, [1000.0] * total))


def uptrend_series(symbol: str = "UP", periods: int = 52, days_per_period: int = 15) -> PriceSeries:
    return trending_series(symbol, periods, days_per_period,
                           total_change=1.0, wick_up=0.16, wick_down=0.05)


def downtrend_series(symbol: str = "DOWN", periods: int = 52, days_per_period: int = 15) -> PriceSeries:
    return trending_series(symbol, periods, days_per_period,
                           total_change=-0.5, wick_up=0.02, wick_down=0.20)
