"""Deterministic synthetic OHLCV fixtures: trend ramps and seeded regime walks.

The published evaluation data is not redistributable, so golden files are
produced from these generators instead; everything here is reproducible from a
seed alone. Each generator builds its five price and volume columns as lists
and its dates as one datetime64[D] range, and hands them to Bars, with no
PriceBar or date object per day.
"""

from __future__ import annotations

import random
from datetime import date

import numpy as np

from .market_data import Bars, PriceSeries

FIXTURE_START = date(2017, 1, 3)
DEFAULT_SEED = 2017


def _dates(count: int) -> np.ndarray:
    return np.datetime64(FIXTURE_START, "D") + np.arange(count)


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


def random_walk_series(
    symbol: str,
    seed: int,
    periods: int = 52,
    days_per_period: int = 15,
    legs: int = 4,
) -> PriceSeries:
    """Seeded random walk whose drift switches between trend regimes.

    Only Random.random() is drawn, keeping the stream stable across Python
    versions. Prices are rounded to 4 decimals, volumes are integers.
    """
    rng = random.Random(seed)
    total_days = periods * days_per_period
    leg_length = max(total_days // legs, 1)
    drifts = [(rng.random() - 0.5) * 0.008 for _ in range(legs)]
    start_price = round(20.0 + 180.0 * rng.random(), 4)
    opens, highs, lows, closes, volumes = [], [], [], [], []
    close = start_price
    prev_close = start_price
    for i in range(total_days):
        drift = drifts[min(i // leg_length, legs - 1)]
        noise = (rng.random() - 0.5) * 0.02
        close = round(max(close * (1.0 + drift + noise), 0.01), 4)
        open_ = prev_close if i else close
        # draw order: noise, high wick, low wick, volume
        opens.append(open_)
        highs.append(round(max(open_, close) * (1.0 + rng.random() * 0.04), 4))
        lows.append(round(min(open_, close) * (1.0 - rng.random() * 0.04), 4))
        closes.append(close)
        volumes.append(float(50_000 + int(rng.random() * 950_000)))
        prev_close = close
    return PriceSeries(symbol, Bars(_dates(total_days), opens, highs, lows, closes, volumes))


def portfolio_fixture(
    seed: int = DEFAULT_SEED,
    symbols: int = 10,
    periods: int = 52,
    days_per_period: int = 15,
) -> list[PriceSeries]:
    """A basket of seeded regime walks, one series per synthetic ticker."""
    return [
        random_walk_series(f"SYN{i:02d}", seed * 1000 + i, periods, days_per_period)
        for i in range(symbols)
    ]
