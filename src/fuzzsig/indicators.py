"""Technical indicators on period bars: moving averages, MACD, RSI, stochastic, Williams.

Every series function takes its prices with time along the last axis: a 1-D
array for one series, or an (N, T) array for a block of N series with the same
number of periods. Windows reduce along that axis. The EMA steps over time
with one operation per period, a numpy scalar for one series and a vector
across the N rows for a block, the same IEEE products and sums, so each block
row equals the one-series result bit for bit. The window max and min of %K
and Williams come from per-block prefix and suffix runs, O(T) for any window
(_window_runs). indicator_block computes every series once, for one series
or a block: the indicators, signal and portfolio paths. snapshot computes
only the last row: RSI, %K and Williams in O(window) steps, and MACD in float
EMA steps that resume from the state the previous call left (_macd_entry)
when its closes begin with that call's, and otherwise start from the state
ema and macd reach over the first long + trigger - 1 closes. It serves the
backtest, which scores every prefix of one series in turn and so steps each
close once, and equals the frame's last row bit for bit. Its last-row steps
call the ufuncs that numpy's mean, clip, diff, max and min end in, on the
same operands, so they keep the wrappers' bits. Both paths cap %K at 100,
which a close at its window's high can otherwise exceed by one ulp, so
Williams (%K - 100) never rises above 0.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._frozen import Frozen
from .market_data import PriceSeries


class InsufficientHistoryError(ValueError):
    """Series too short for the requested indicator window."""


class MacdTriple(NamedTuple):
    """MACD line, its trigger-period EMA, and their difference, time-aligned."""

    macd_line: np.ndarray
    signal_line: np.ndarray
    histogram: np.ndarray


class IndicatorSnapshot(NamedTuple):
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


class IndicatorFrame(Frozen):
    """Every indicator over all period bars, (T,) or (N, T); see indicator_block.

    `binding` names the indicator that needs the most bars, and `needed` is that bar count.
    """

    __slots__ = _fields = ("close", "macd_line", "signal_line", "histogram", "rsi", "percent_k",
                           "percent_d", "williams", "binding", "needed")

    def __init__(self, close: np.ndarray, macd_line: np.ndarray, signal_line: np.ndarray,
                 histogram: np.ndarray, rsi: np.ndarray, percent_k: np.ndarray,
                 percent_d: np.ndarray, williams: np.ndarray, binding: str, needed: int) -> None:
        object.__setattr__(self, "close", close)
        object.__setattr__(self, "macd_line", macd_line)
        object.__setattr__(self, "signal_line", signal_line)
        object.__setattr__(self, "histogram", histogram)
        object.__setattr__(self, "rsi", rsi)
        object.__setattr__(self, "percent_k", percent_k)
        object.__setattr__(self, "percent_d", percent_d)
        object.__setattr__(self, "williams", williams)
        object.__setattr__(self, "binding", binding)
        object.__setattr__(self, "needed", needed)

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
    a numpy scalar for one series, a vector across the rows for a block. A
    block of one row steps as its one series, since a length-1 vector step
    costs several scalar ones, and is reshaped back.
    """
    c = np.asarray(closes, dtype=float)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    _require(c.shape[-1], n, f"EMA({n})")
    if c.ndim > 1 and c.size == c.shape[-1]:
        return ema(c.reshape(-1), n).reshape(*c.shape[:-1], -1)
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


def _rsi_last(c: np.ndarray, n: int) -> float:
    """The last value of _rsi_series, from the last n + 1 closes alone.

    A 1-D sum adds in the order each sliding-window row does, so this equals
    the frame's last RSI bit for bit. The ufuncs are the ones numpy's
    wrappers call: np.diff subtracts these slices, np.clip with no upper
    bound is np.maximum, and a float64 mean is np.add.reduce and one divide
    by the count; calling them directly skips the wrappers' Python cost.
    """
    changes = c[-n:] - c[-(n + 1):-1]
    gain = np.add.reduce(np.maximum(changes, 0.0)).item() / n
    loss = np.add.reduce(np.maximum(-changes, 0.0)).item() / n
    if loss == 0.0:
        return 50.0 if gain == 0.0 else 100.0
    return 100.0 - 100.0 / (1.0 + gain / loss)


def _window_runs(op: np.ufunc, x: np.ndarray, k: int) -> np.ndarray:
    """op (np.maximum or np.minimum) over every k-wide window along the last axis.

    out[..., i] covers x[..., i .. i+k-1]. The axis is cut into k-wide blocks
    and op runs forward and backward within each block; a window is the tail
    of one block and the head of the next, so it is op of one backward and
    one forward run (van Herk, Pattern Recognition Letters 13, 1992). That is
    O(T) for any k. The padding of a last partial block is never read. Max and
    min never round and carry a NaN through, so every value equals the
    window's own reduction; only a zero extreme of a window holding both
    +0.0 and -0.0 may take the other sign, which numpy's reduction picks by
    SIMD lane.
    """
    t = x.shape[-1]
    blocks = -(-t // k)
    if blocks * k > t:
        x = np.concatenate((x, np.zeros(x.shape[:-1] + (blocks * k - t,))), axis=-1)
    runs = x.reshape(*x.shape[:-1], blocks, k)
    ahead = op.accumulate(runs, axis=-1).reshape(x.shape)
    behind = op.accumulate(runs[..., ::-1], axis=-1)[..., ::-1].reshape(x.shape)
    return op(behind[..., :t - k + 1], ahead[..., k - 1:t])


def _percent_k(h: np.ndarray, lo: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """%K of every k-bar window; out[i] covers bars i .. i+k-1."""
    hh = _window_runs(np.maximum, h, k)
    ll = _window_runs(np.minimum, lo, k)
    span = hh - ll
    safe = np.where(span == 0.0, 1.0, span)
    rise = c[..., k - 1:] - ll
    # a window min of zeros of both signs may be either zero; + 0.0 makes a
    # zero rise +0.0 as in _percent_k_last (in place: no extra temporary)
    rise += 0.0
    # a close at the window's high can round 100 * rise / span one ulp above 100
    return np.where(span == 0.0, 50.0, np.minimum(100.0 * rise / safe, 100.0))


def _percent_k_last(h: np.ndarray, lo: np.ndarray, close: float, k: int) -> float:
    """The last value of _percent_k, from the last k bars alone.

    ndarray.max and .min are np.maximum.reduce and np.minimum.reduce, called
    here directly. They carry a NaN through, like the window runs; Python's
    max and min would skip one or not depending on where it sits. Max and
    min never round, so hh and ll equal the frame's but for the sign of a
    zero, and the numerator's + 0.0 makes a zero %K +0.0 on both paths. Both
    cap %K at 100.0, which a close at the window's high can round one ulp
    above; a NaN stays NaN.
    """
    hh = np.maximum.reduce(h[-k:]).item()
    ll = np.minimum.reduce(lo[-k:]).item()
    span = hh - ll
    if span == 0.0:
        return 50.0
    pk = 100.0 * (close - ll + 0.0) / span
    return 100.0 if pk > 100.0 else pk


@lru_cache(maxsize=64, typed=True)
def _binding(macd_short: int, macd_long: int, macd_trigger: int, rsi_window: int,
             stochastic_k: int, stochastic_d: int, williams_window: int) -> tuple[str, int]:
    """The indicator that needs the most bars for a full row, and that bar count.

    A window below 1, or macd_short >= macd_long, is a ValueError, raised
    on every call: the cache keeps results, never exceptions.
    """
    windows = (macd_short, macd_long, macd_trigger, rsi_window, stochastic_k,
               stochastic_d, williams_window)
    if min(windows) < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    if not macd_short < macd_long:
        raise ValueError(f"short period must be below long period, got {macd_short}/{macd_long}")
    # MACD requires one genuine recursion step past the signal line's SMA seed,
    # hence long + trigger, not - 1. No row carries %D, so its window binds nothing.
    requirements = {"MACD": macd_long + macd_trigger, "RSI": rsi_window + 1,
                    "stochastic": stochastic_k, "Williams": williams_window}
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

    Column t sees bars 0..t only. RSI averages the gains and losses of the
    last n changes (zeros counted), 50 on a flat window; %K is the close's
    place in the last k bars' range, at most 100, and Williams the
    same-window %K - 100, 50 and -50 on a flat range; %D is the d-point SMA
    of %K. Each column is
    NaN until its window fills (MACD from long+trigger-2, RSI from n, %K from
    k-1, %D from k+d-2, Williams from n-1), so short series give NaN columns
    rather than errors; a window below 1, or macd_short >= macd_long, is a
    ValueError. Row i of an (N, T) block equals the frame of series i alone,
    bit for bit.
    """
    binding, needed = _binding(macd_short, macd_long, macd_trigger, rsi_window, stochastic_k,
                               stochastic_d, williams_window)
    h, lo, c = (np.asarray(x, dtype=float) for x in (high, low, close))
    if not (h.shape == lo.shape == c.shape):
        raise ValueError("highs, lows, and closes must share length")
    rows, empty = c.shape[-1], np.empty(0)

    def aligned(values: np.ndarray) -> np.ndarray:
        out = np.full(c.shape, np.nan)
        out[..., rows - values.shape[-1]:] = values
        return out

    triple = macd(c, macd_short, macd_long, macd_trigger) \
        if rows >= macd_long + macd_trigger - 1 else MacdTriple(empty, empty, empty)
    pk = _percent_k(h, lo, c, stochastic_k) if rows >= stochastic_k else empty
    return IndicatorFrame(
        close=c,
        macd_line=aligned(triple.macd_line),
        signal_line=aligned(triple.signal_line),
        histogram=aligned(triple.histogram),
        rsi=aligned(_rsi_series(c, rsi_window) if rows > rsi_window else empty),
        percent_k=aligned(pk),
        percent_d=aligned(sma(pk, stochastic_d) if pk.shape[-1] >= stochastic_d else empty),
        williams=aligned(_percent_k(h, lo, c, williams_window) - 100.0
                         if rows >= williams_window else empty),
        binding=binding,
        needed=needed,
    )


# The EMA state _macd_last reached after the closes it was last given: its
# windows, those closes as bytes, and (fast, slow, MACD line, signal).
_macd_entry: tuple[tuple[int, int, int], bytes, tuple[float, float, float, float]] | None = None


def _macd_last(c: np.ndarray, short: int, long: int, trigger: int) -> tuple[float, float]:
    """The last MACD line and signal line values of float64 closes c, bit for bit macd(c)'s.

    The state after the first long + trigger - 1 closes (fast and slow EMA,
    MACD line, signal) comes from ema and macd themselves, which raise
    InsufficientHistoryError for fewer closes. The later closes are float
    steps of ema's IEEE `scaled + keep * previous`, in ema's order.

    The backtest asks for every prefix of one series in turn, so the state
    after the closes of the last call is kept (_macd_entry). A call with the
    same windows whose closes begin with exactly those bytes resumes from it
    and steps over the new closes alone; any other call seeds afresh, so
    seeding runs once per backtest. Matching bytes rather than values keeps
    -0.0 apart from +0.0 and one NaN payload apart from another. The entry
    holds a copy, never a view of c, and a call that races another in a
    second thread can only miss it.
    """
    global _macd_entry
    windows, data, entry = (short, long, trigger), c.tobytes(), _macd_entry
    if entry is not None and entry[0] == windows and data.startswith(entry[1]):
        fast, slow, last, signal = entry[2]
        start = len(entry[1]) // c.itemsize
    else:
        start = long + trigger - 1
        seed = c[:start]
        triple = macd(seed, short, long, trigger)
        fast, slow, last, signal = (x[-1].item() for x in (
            ema(seed, short), ema(seed, long), triple.macd_line, triple.signal_line))
    a_short, a_long, a_trigger = (2.0 / (n + 1.0) for n in windows)
    k_short, k_long, k_trigger = 1.0 - a_short, 1.0 - a_long, 1.0 - a_trigger
    for x in c[start:].tolist():
        fast = a_short * x + k_short * fast
        slow = a_long * x + k_long * slow
        last = fast - slow
        signal = a_trigger * last + k_trigger * signal
    _macd_entry = (windows, data, (fast, slow, last, signal))
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

    The windows are indicator_block's, and so are their ValueErrors. Only
    the last row is computed: MACD in float EMA steps, over the new closes
    alone when the closes extend the previous call's and otherwise from
    macd's state after its first long + trigger - 1 closes (_macd_last), RSI
    from the last rsi_window + 1 closes, %K and Williams from their last k
    and n bars, with %K capped at 100 as in the frame. It equals the
    indicator_block frame's row(len - 1) of the series' high, low and close
    bit for bit, NaN and the sign of a zero included, and raises the same
    InsufficientHistoryError while the series is too short.
    """
    binding, needed = _binding(macd_short, macd_long, macd_trigger, rsi_window, stochastic_k,
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
        rsi=_rsi_last(c, rsi_window),
        stochastic_k=_percent_k_last(h, lo, close, stochastic_k),
        williams=_percent_k_last(h, lo, close, williams_window) - 100.0,
        close=close,
    )
