"""Technical indicators on period bars: moving averages, MACD, RSI, stochastic, Williams.

Every series function takes its prices with time along the last axis: a 1-D
array for one series, or an (N, T) array for a block of N series with the same
number of periods. Windows reduce along that axis. The EMA steps over time
with one operation per period, a numpy scalar for one series and a vector
across the N rows for a block, the same IEEE products and sums, so each block
row equals the one-series result bit for bit. indicator_block computes every
series once over a block, and indicator_frame is its one-series case. snapshot
computes only the last row, from the scalar rsi/williams building blocks and
one float pass for MACD; it equals the frame's last row bit for bit at a cost
of one pass over the closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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
    """Latest value of every indicator plus the latest close, for one series.

    snapshot gives floats; a one-series frame's row gives np.float64 values,
    a float subclass; a block frame's row holds a length-N array per field.
    """

    macd_line: float
    signal_line: float
    histogram: float
    rsi: float
    stochastic_k: float
    williams: float
    close: float


@dataclass(frozen=True)
class IndicatorFrame:
    """Every indicator over all period bars, (T,) or (N, T); see indicator_block."""

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
        """The snapshot of bars 0..t; raises until every indicator has its history.

        np.float64 values for one series, length-N views for a block.
        """
        if t + 1 < self.needed:
            raise _history_error(self.binding, self.needed, t + 1)
        columns = (self.macd_line, self.signal_line, self.histogram, self.rsi,
                   self.percent_k, self.williams, self.close)
        return IndicatorSnapshot(*(column.T[t] for column in columns))


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
    _require(c.shape[-1], n, f"SMA({n})")
    # per-window means (not a running sum) so each value only sees its window
    return sliding_window_view(c, n, axis=-1).mean(axis=-1)


def ema(closes, n: int) -> np.ndarray:
    """Exponential moving average seeded with the SMA of the first n values.

    Thereafter out[t] = alpha * close[t] + (1 - alpha) * out[t-1] with
    alpha = 2 / (n + 1). Same alignment as sma(). Each period is one step:
    a numpy scalar for one series, a vector across the rows for a block.
    """
    c = np.asarray(closes, dtype=float)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    _require(c.shape[-1], n, f"EMA({n})")
    alpha = 2.0 / (n + 1.0)
    keep = 1.0 - alpha

    def step(previous, close):
        return alpha * close + keep * previous

    # one step per period, each a scalar or a vector across the rows
    steps = accumulate(c.T[n:], step, initial=c[..., :n].mean(axis=-1))
    # C order keeps time contiguous, so later window sums add in the 1-D order
    return np.ascontiguousarray(np.array(list(steps)).T)


def macd(closes, short: int = 12, long: int = 26, trigger: int = 9) -> MacdTriple:
    """MACD line = EMA(short) - EMA(long); signal = EMA(trigger) of the line.

    All three outputs are truncated to the signal line's support, so the
    minimum input length is long + trigger - 1.
    """
    c = np.asarray(closes, dtype=float)
    if not short < long:
        raise ValueError(f"short period must be below long period, got {short}/{long}")
    _require(c.shape[-1], long + trigger - 1, f"MACD({short},{long},{trigger})")
    line_full = ema(c, short)[..., long - short:] - ema(c, long)
    signal = ema(line_full, trigger)
    line = line_full[..., trigger - 1:]
    return MacdTriple(macd_line=line, signal_line=signal, histogram=line - signal)


def _rsi_series(closes: np.ndarray, n: int) -> np.ndarray:
    """RSI of every n-change window; out[i] covers closes i .. i+n."""
    changes = np.diff(closes, axis=-1)
    gain = sliding_window_view(np.clip(changes, 0.0, None), n, axis=-1).mean(axis=-1)
    loss = sliding_window_view(np.clip(-changes, 0.0, None), n, axis=-1).mean(axis=-1)
    flat = loss == 0.0
    out = 100.0 - 100.0 / (1.0 + gain / np.where(flat, 1.0, loss))
    out[flat] = np.where(gain[flat] == 0.0, 50.0, 100.0)
    return out


def rsi(closes, n: int = 21) -> float:
    """Relative strength index over the last n close-to-close changes.

    Average gain and loss are plain means over the window (zeros counted).
    Flat windows return the neutral 50; all-gain 100; all-loss 0. A 1-D mean
    sums in the order each sliding-window row does, so this equals the last
    value of the frame's RSI column bit for bit.
    """
    c = np.asarray(closes, dtype=float)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    _require(len(c), n + 1, f"RSI({n})")
    changes = np.diff(c[-(n + 1):])
    gain = np.clip(changes, 0.0, None).mean().item()
    loss = np.clip(-changes, 0.0, None).mean().item()
    if loss == 0.0:
        return 50.0 if gain == 0.0 else 100.0
    return 100.0 - 100.0 / (1.0 + gain / loss)


def _hlc(highs, lows, closes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h, lo, c = (np.asarray(x, dtype=float) for x in (highs, lows, closes))
    if not (h.shape == lo.shape == c.shape):
        raise ValueError("highs, lows, and closes must share length")
    return h, lo, c


def _percent_k(h: np.ndarray, lo: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """%K of every k-bar window; out[i] covers bars i .. i+k-1."""
    hh = sliding_window_view(h, k, axis=-1).max(axis=-1)
    ll = sliding_window_view(lo, k, axis=-1).min(axis=-1)
    span = hh - ll
    safe = np.where(span == 0.0, 1.0, span)
    return np.where(span == 0.0, 50.0, 100.0 * (c[..., k - 1:] - ll) / safe)


def _williams(h: np.ndarray, lo: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Williams %R of every n-bar window: the same-window %K shifted to [-100, 0]."""
    return _percent_k(h, lo, c, n) - 100.0


def _percent_k_last(h: np.ndarray, lo: np.ndarray, close: float, k: int) -> float:
    """The last value of _percent_k, from the last k bars alone."""
    # numpy's max and min, like the window reductions, carry a NaN through;
    # Python's max and min would skip one or not depending on where it sits
    hh, ll = h[-k:].max().item(), lo[-k:].min().item()
    span = hh - ll
    return 50.0 if span == 0.0 else 100.0 * (close - ll) / span


def stochastic(highs, lows, closes, k: int = 10, d: int = 3) -> StochasticPair:
    """Position of the close inside the trailing k-period high-low range, 0-100.

    %D is the d-point simple average of %K. A degenerate range (highest high
    equal to lowest low) reads as the neutral 50.
    """
    h, lo, c = _hlc(highs, lows, closes)
    _require(c.shape[-1], k + d - 1, f"stochastic({k},{d})")
    pk = _percent_k(h, lo, c, k)
    return StochasticPair(percent_k=pk, percent_d=sma(pk, d))


def williams(highs, lows, closes, n: int = 30) -> float:
    """Distance of the latest close below the trailing n-period highest high.

    Scaled to [-100, 0]; a degenerate range reads as the neutral -50.
    Computed as the exact complement of the same-window %K.
    """
    h, lo, c = _hlc(highs, lows, closes)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    _require(len(c), n, f"Williams({n})")
    return _percent_k_last(h, lo, c[-1].item(), n) - 100.0


def _binding(macd_long: int, macd_trigger: int, rsi_window: int, stochastic_k: int,
             stochastic_d: int, williams_window: int) -> tuple[str, int]:
    """The indicator that needs the most bars for a full row, and that bar count."""
    # MACD requires one genuine recursion step past the signal line's SMA seed,
    # hence long + trigger, not - 1.
    requirements = {"MACD": macd_long + macd_trigger, "RSI": rsi_window + 1,
                    "stochastic": stochastic_k + stochastic_d - 1, "Williams": williams_window}
    return max(requirements.items(), key=lambda kv: (kv[1], kv[0]))


def _history_error(binding: str, needed: int, got: int) -> InsufficientHistoryError:
    return InsufficientHistoryError(
        f"snapshot needs at least {needed} period bars "
        f"({binding} is the binding indicator), got {got}"
    )


def indicator_block(
    high: np.ndarray,
    low: np.ndarray,
    close: np.ndarray,
    *,
    macd_short: int = 12,
    macd_long: int = 26,
    macd_trigger: int = 9,
    rsi_window: int = 21,
    stochastic_k: int = 10,
    stochastic_d: int = 3,
    williams_window: int = 30,
) -> IndicatorFrame:
    """Every indicator over the bars of (T,) or (N, T) price columns, time-aligned.

    Column t sees bars 0..t only. Each column is NaN until its window fills
    (MACD from long+trigger-2, RSI from n, %K from k-1, %D from k+d-2,
    Williams from n-1), so short series give NaN columns rather than errors.
    Row i of an (N, T) block equals the frame of series i alone, bit for bit.
    """
    h, lo, c = _hlc(high, low, close)
    rows, empty = c.shape[-1], np.empty(0)

    def aligned(values: np.ndarray) -> np.ndarray:
        out = np.full(c.shape, np.nan)
        out[..., rows - values.shape[-1]:] = values
        return out

    triple = macd(c, macd_short, macd_long, macd_trigger) \
        if rows >= macd_long + macd_trigger - 1 else MacdTriple(empty, empty, empty)
    pk = _percent_k(h, lo, c, stochastic_k) if rows >= stochastic_k else empty
    binding, needed = _binding(macd_long, macd_trigger, rsi_window, stochastic_k,
                               stochastic_d, williams_window)
    return IndicatorFrame(
        close=c,
        macd_line=aligned(triple.macd_line),
        signal_line=aligned(triple.signal_line),
        histogram=aligned(triple.histogram),
        rsi=aligned(_rsi_series(c, rsi_window) if rows > rsi_window else empty),
        percent_k=aligned(pk),
        percent_d=aligned(sma(pk, stochastic_d) if pk.shape[-1] >= stochastic_d else empty),
        williams=aligned(_williams(h, lo, c, williams_window)
                         if rows >= williams_window else empty),
        binding=binding,
        needed=needed,
    )


def indicator_frame(periods: PriceSeries, **windows: int) -> IndicatorFrame:
    """Every indicator over all period bars: the one-series indicator_block.

    `windows` are indicator_block's keyword arguments.
    """
    bars = periods.bars
    return indicator_block(bars.high, bars.low, bars.close, **windows)


def _macd_last(c: np.ndarray, short: int, long: int, trigger: int) -> tuple[float, float]:
    """The last MACD line and signal line values of closes c, in one float pass.

    EMA(short), EMA(long) and the trigger EMA of their difference step
    together over the closes; only the trigger EMA's seed window is kept, as a
    list. The seeds are ema's numpy means and every step is ema's IEEE
    `scaled + keep * previous`, so both values equal macd(c)'s last ones bit
    for bit. Needs long + trigger - 1 closes.
    """
    a_short, a_long, a_trigger = (2.0 / (n + 1.0) for n in (short, long, trigger))
    k_short, k_long, k_trigger = 1.0 - a_short, 1.0 - a_long, 1.0 - a_trigger
    closes = c.tolist()
    fast = c[:short].mean().item()
    for x in closes[short:long]:
        fast = a_short * x + k_short * fast
    slow = c[:long].mean().item()
    line = [fast - slow]  # the signal line's seed window
    for x in closes[long:long + trigger - 1]:
        fast = a_short * x + k_short * fast
        slow = a_long * x + k_long * slow
        line.append(fast - slow)
    last, signal = line[-1], np.array(line).mean().item()
    for x in closes[long + trigger - 1:]:
        fast = a_short * x + k_short * fast
        slow = a_long * x + k_long * slow
        last = fast - slow
        signal = a_trigger * last + k_trigger * signal
    return last, signal


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
    """Latest value of each indicator bundled with the latest close.

    The windows are indicator_block's. Only the last row is computed: MACD in
    one float pass over the closes, RSI from the last rsi_window + 1 closes,
    %K and Williams from their last k and n bars. It equals
    indicator_frame(series).row(len - 1) bit for bit, NaN included, and raises
    the same InsufficientHistoryError while the series is too short. A window
    below 1, or macd_short >= macd_long, is a ValueError.
    """
    windows = (macd_short, macd_long, macd_trigger, rsi_window, stochastic_k,
               stochastic_d, williams_window)
    if min(windows) < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    if not macd_short < macd_long:
        raise ValueError(f"short period must be below long period, got {macd_short}/{macd_long}")
    binding, needed = _binding(macd_long, macd_trigger, rsi_window, stochastic_k,
                               stochastic_d, williams_window)
    bars = series.bars
    if len(bars) < needed:
        raise _history_error(binding, needed, len(bars))
    h, lo, c = bars.high, bars.low, bars.close
    close = c[-1].item()
    line, signal = _macd_last(c, macd_short, macd_long, macd_trigger)
    return IndicatorSnapshot(
        macd_line=line,
        signal_line=signal,
        histogram=line - signal,
        rsi=rsi(c, rsi_window),
        stochastic_k=_percent_k_last(h, lo, close, stochastic_k),
        williams=williams(h, lo, c, williams_window),
        close=close,
    )
