"""Technical indicators on period bars: moving averages, MACD, RSI, stochastic, Williams.

indicator_frame computes every series once over all bars; snapshot is its last row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market_data import PriceSeries


class InsufficientHistoryError(ValueError):
    """Series too short for the requested indicator window."""


@dataclass(frozen=True)
class MacdTriple:
    """MACD line, its trigger-period EMA, and their difference, time-aligned."""

    macd_line: np.ndarray
    signal_line: np.ndarray
    histogram: np.ndarray


@dataclass(frozen=True)
class StochasticPair:
    """%K and its d-point moving average %D, both in [0, 100].

    percent_k[i] covers input index k-1+i, percent_d[j] covers k+d-2+j.
    """

    percent_k: np.ndarray
    percent_d: np.ndarray


@dataclass(frozen=True)
class IndicatorSnapshot:
    """Latest value of every indicator plus the latest close, for one series."""

    macd_line: float
    signal_line: float
    histogram: float
    rsi: float
    stochastic_k: float
    williams: float
    close: float


@dataclass(frozen=True)
class IndicatorFrame:
    """Every indicator over all period bars; see indicator_frame."""

    close: np.ndarray
    macd_line: np.ndarray
    signal_line: np.ndarray
    histogram: np.ndarray
    rsi: np.ndarray
    percent_k: np.ndarray
    percent_d: np.ndarray
    williams: np.ndarray
    binding: str  # the indicator that needs the most bars, and that bar count
    needed: int

    def row(self, t: int) -> IndicatorSnapshot:
        """The snapshot of bars 0..t; raises until every indicator has its history."""
        if t + 1 < self.needed:
            raise InsufficientHistoryError(
                f"snapshot needs at least {self.needed} period bars "
                f"({self.binding} is the binding indicator), got {t + 1}"
            )
        columns = (self.macd_line, self.signal_line, self.histogram, self.rsi,
                   self.percent_k, self.williams, self.close)
        return IndicatorSnapshot(*(float(column[t]) for column in columns))


def _require(length: int, needed: int, what: str) -> None:
    if length < needed:
        raise InsufficientHistoryError(f"{what} needs at least {needed} values, got {length}")


def sma(closes, n: int) -> np.ndarray:
    """Simple moving average; output[t] is the mean of the n values ending at t.

    Defined from input index n-1 onward (output length = len - n + 1).
    """
    c = np.asarray(closes, dtype=float)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    _require(len(c), n, f"SMA({n})")
    # per-window means (not a running sum) so each value only sees its window
    return sliding_window_view(c, n).mean(axis=1)


def ema(closes, n: int) -> np.ndarray:
    """Exponential moving average seeded with the SMA of the first n values.

    Thereafter out[t] = alpha * close[t] + (1 - alpha) * out[t-1] with
    alpha = 2 / (n + 1). Same alignment as sma().
    """
    c = np.asarray(closes, dtype=float)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    _require(len(c), n, f"EMA({n})")
    alpha = 2.0 / (n + 1.0)
    out = np.empty(len(c) - n + 1)
    out[0] = c[:n].mean()
    for i in range(n, len(c)):
        out[i - n + 1] = alpha * c[i] + (1.0 - alpha) * out[i - n]
    return out


def macd(closes, short: int = 12, long: int = 26, trigger: int = 9) -> MacdTriple:
    """MACD line = EMA(short) - EMA(long); signal = EMA(trigger) of the line.

    All three outputs are truncated to the signal line's support, so the
    minimum input length is long + trigger - 1.
    """
    c = np.asarray(closes, dtype=float)
    if not short < long:
        raise ValueError(f"short period must be below long period, got {short}/{long}")
    _require(len(c), long + trigger - 1, f"MACD({short},{long},{trigger})")
    line_full = ema(c, short)[long - short:] - ema(c, long)
    signal = ema(line_full, trigger)
    line = line_full[trigger - 1:]
    return MacdTriple(macd_line=line, signal_line=signal, histogram=line - signal)


def _rsi_series(closes: np.ndarray, n: int) -> np.ndarray:
    """RSI of every n-change window; out[i] covers closes i .. i+n."""
    changes = np.diff(closes)
    gain = sliding_window_view(np.clip(changes, 0.0, None), n).mean(axis=1)
    loss = sliding_window_view(np.clip(-changes, 0.0, None), n).mean(axis=1)
    flat = loss == 0.0
    out = 100.0 - 100.0 / (1.0 + gain / np.where(flat, 1.0, loss))
    out[flat] = np.where(gain[flat] == 0.0, 50.0, 100.0)
    return out


def rsi(closes, n: int = 21) -> float:
    """Relative strength index over the last n close-to-close changes.

    Average gain and loss are plain means over the window (zeros counted).
    Flat windows return the neutral 50; all-gain 100; all-loss 0.
    """
    c = np.asarray(closes, dtype=float)
    _require(len(c), n + 1, f"RSI({n})")
    return float(_rsi_series(c[-(n + 1):], n)[-1])


def _hlc(highs, lows, closes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h, lo, c = (np.asarray(x, dtype=float) for x in (highs, lows, closes))
    if not (len(h) == len(lo) == len(c)):
        raise ValueError("highs, lows, and closes must share length")
    return h, lo, c


def _percent_k(h: np.ndarray, lo: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """%K of every k-bar window; out[i] covers bars i .. i+k-1."""
    hh = sliding_window_view(h, k).max(axis=1)
    ll = sliding_window_view(lo, k).min(axis=1)
    span = hh - ll
    safe = np.where(span == 0.0, 1.0, span)
    return np.where(span == 0.0, 50.0, 100.0 * (c[k - 1:] - ll) / safe)


def _williams(h: np.ndarray, lo: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Williams %R of every n-bar window: the same-window %K shifted to [-100, 0]."""
    return _percent_k(h, lo, c, n) - 100.0


def stochastic(highs, lows, closes, k: int = 10, d: int = 3) -> StochasticPair:
    """Position of the close inside the trailing k-period high-low range, 0-100.

    %D is the d-point simple average of %K. A degenerate range (highest high
    equal to lowest low) reads as the neutral 50.
    """
    h, lo, c = _hlc(highs, lows, closes)
    _require(len(c), k + d - 1, f"stochastic({k},{d})")
    pk = _percent_k(h, lo, c, k)
    return StochasticPair(percent_k=pk, percent_d=sma(pk, d))


def williams(highs, lows, closes, n: int = 30) -> float:
    """Distance of the latest close below the trailing n-period highest high.

    Scaled to [-100, 0]; a degenerate range reads as the neutral -50.
    Computed as the exact complement of the same-window %K.
    """
    h, lo, c = _hlc(highs, lows, closes)
    _require(len(c), n, f"Williams({n})")
    return float(_williams(h[-n:], lo[-n:], c[-n:], n)[-1])


def indicator_frame(
    periods: PriceSeries,
    *,
    macd_short: int = 12,
    macd_long: int = 26,
    macd_trigger: int = 9,
    rsi_window: int = 21,
    stochastic_k: int = 10,
    stochastic_d: int = 3,
    williams_window: int = 30,
) -> IndicatorFrame:
    """Every indicator over all period bars, time-aligned: row t sees bars 0..t only.

    Each column is NaN until its window fills (MACD from row long+trigger-2,
    RSI from row n, %K from k-1, %D from k+d-2, Williams from n-1), so short
    series give NaN columns rather than errors.
    """
    h, lo, c = periods.bars.high, periods.bars.low, periods.bars.close
    rows, empty = len(c), np.empty(0)

    def aligned(values: np.ndarray) -> np.ndarray:
        out = np.full(rows, np.nan)
        out[rows - len(values):] = values
        return out

    triple = macd(c, macd_short, macd_long, macd_trigger) \
        if rows >= macd_long + macd_trigger - 1 else MacdTriple(empty, empty, empty)
    pk = _percent_k(h, lo, c, stochastic_k) if rows >= stochastic_k else empty
    # Minimum bar counts for a full row. MACD requires one genuine recursion
    # step past the signal line's SMA seed, hence long + trigger, not - 1.
    requirements = {"MACD": macd_long + macd_trigger, "RSI": rsi_window + 1,
                    "stochastic": stochastic_k + stochastic_d - 1, "Williams": williams_window}
    binding, needed = max(requirements.items(), key=lambda kv: (kv[1], kv[0]))
    return IndicatorFrame(
        close=c,
        macd_line=aligned(triple.macd_line),
        signal_line=aligned(triple.signal_line),
        histogram=aligned(triple.histogram),
        rsi=aligned(_rsi_series(c, rsi_window) if rows > rsi_window else empty),
        percent_k=aligned(pk),
        percent_d=aligned(sma(pk, stochastic_d) if len(pk) >= stochastic_d else empty),
        williams=aligned(_williams(h, lo, c, williams_window)
                         if rows >= williams_window else empty),
        binding=binding,
        needed=needed,
    )


def snapshot(
    series: PriceSeries,
    *,
    macd_short: int = 12,
    macd_long: int = 26,
    macd_trigger: int = 9,
    rsi_window: int = 21,
    stochastic_k: int = 10,
    stochastic_d: int = 3,
    williams_window: int = 30,
) -> IndicatorSnapshot:
    """Latest value of each indicator bundled with the latest close: the frame's last row."""
    frame = indicator_frame(
        series, macd_short=macd_short, macd_long=macd_long, macd_trigger=macd_trigger,
        rsi_window=rsi_window, stochastic_k=stochastic_k, stochastic_d=stochastic_d,
        williams_window=williams_window,
    )
    return frame.row(len(series.bars) - 1)
