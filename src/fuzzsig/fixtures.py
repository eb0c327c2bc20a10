"""Deterministic synthetic OHLCV fixtures: seeded regime walks.

The published evaluation data is not redistributable, so golden files are
produced from these generators instead; everything here is reproducible from a
seed alone. Each walk builds its five price and volume columns as lists and
its dates as one datetime64[D] range, and hands them to Bars, with no date
object per day.
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
