"""Independent brute-force oracles the implementation is checked against.

Each oracle deliberately takes a different computational route from the
package code: naive per-window loops instead of cumulative sums, the
closed-form geometric expansion instead of the EMA recursion, a loop over
every switch point instead of the Karnik-Mendel cumulative sums. The
exceptions are scalar_fold_ema, windowed_extremes, shape_grade /
shape_grade_bounds and scalar_scale_secondary / scalar_level: bit-level
references, not second routes.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def naive_sma(closes, n: int) -> list[float]:
    closes = list(map(float, closes))
    return [sum(closes[t - n + 1:t + 1]) / n for t in range(n - 1, len(closes))]


def closed_form_ema(closes, n: int) -> list[float]:
    """EMA via explicit geometric weighting of the history, not the recursion.

    out[t] = (1-a)^(t-n+1) * seed + a * sum_{i=n..t} (1-a)^(t-i) * x[i]
    with seed the mean of the first n values and a = 2 / (n + 1).
    """
    x = np.asarray(closes, dtype=float)
    alpha = 2.0 / (n + 1.0)
    seed = float(x[:n].mean())
    out = []
    for t in range(n - 1, len(x)):
        m = t - (n - 1)  # recursion steps taken
        weights = alpha * (1.0 - alpha) ** np.arange(m - 1, -1, -1)
        out.append((1.0 - alpha) ** m * seed + float(np.dot(weights, x[n:t + 1])))
    return out


def scalar_fold_ema(closes, n: int) -> np.ndarray:
    """The EMA recursion folded over numpy float64 scalars, one step per value.

    The seed is the numpy mean of the first n values and each step is
    alpha * close + (1 - alpha) * previous in numpy scalar arithmetic, so a
    one-series EMA stepped in any other float type must match it bit for bit.
    """
    x = np.asarray(closes, dtype=float)
    alpha = 2.0 / (n + 1.0)
    keep = 1.0 - alpha
    out = [x[:n].mean()]
    for close in x[n:]:
        out.append(alpha * close + keep * out[-1])
    return np.array(out)


def composed_macd(closes, short: int = 12, long: int = 26, trigger: int = 9):
    """MACD triple assembled from the closed-form EMA oracle."""
    fast = closed_form_ema(closes, short)
    slow = closed_form_ema(closes, long)
    line_full = [f - s for f, s in zip(fast[long - short:], slow)]
    signal = closed_form_ema(line_full, trigger)
    line = line_full[trigger - 1:]
    hist = [a - b for a, b in zip(line, signal)]
    return line, signal, hist


def tallied_rsi(closes, n: int = 21) -> float:
    closes = list(map(float, closes))
    window = closes[-(n + 1):]
    gains = 0.0
    losses = 0.0
    for prev, cur in zip(window, window[1:]):
        change = cur - prev
        if change > 0:
            gains += change
        elif change < 0:
            losses += -change
    avg_gain = gains / n
    avg_loss = losses / n
    if avg_gain == 0.0 and avg_loss == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def scanned_stochastic(highs, lows, closes, k: int = 10, d: int = 3):
    """%K/%D via per-window extremum scans and naive window means."""
    highs = list(map(float, highs))
    lows = list(map(float, lows))
    closes = list(map(float, closes))
    pk = []
    for t in range(k - 1, len(closes)):
        hh = max(highs[t - k + 1:t + 1])
        ll = min(lows[t - k + 1:t + 1])
        if hh == ll:
            pk.append(50.0)
        else:
            pk.append(100.0 * (closes[t] - ll) / (hh - ll))
    pd = [sum(pk[i - d + 1:i + 1]) / d for i in range(d - 1, len(pk))]
    return pk, pd


def windowed_extremes(x, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of every k-wide window along the last axis, one reduction per window.

    The formula indicators._percent_k used before its O(T) block runs; out[..., i]
    covers x[..., i .. i+k-1].
    """
    windows = sliding_window_view(np.asarray(x, dtype=float), k, axis=-1)
    return windows.max(axis=-1), windows.min(axis=-1)


def scanned_williams(highs, lows, closes, n: int = 30) -> float:
    """Literal formula: (highest high - close) / (highest high - lowest low) * -100."""
    hh = max(map(float, highs[-n:]))
    ll = min(map(float, lows[-n:]))
    c = float(closes[-1])
    if hh == ll:
        return -50.0
    return (hh - c) / (hh - ll) * (-100.0)


def enumerated_km(grid, lower, upper) -> tuple[float, float]:
    """Exhaustive switch-point search over every embedded weight assignment.

    y_l minimizes and y_r maximizes the weighted centroid over assignments
    that flip between the upper and lower grades at one index (including the
    all-lower and all-upper boundary assignments).
    """
    x = np.asarray(grid, dtype=float)
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    n = len(x)
    y_l = np.inf
    y_r = -np.inf
    for k in range(-1, n):
        w_left = np.concatenate((up[:k + 1], lo[k + 1:]))
        total = w_left.sum()
        if total > 0:
            y_l = min(y_l, float(np.dot(x, w_left) / total))
        w_right = np.concatenate((lo[:k + 1], up[k + 1:]))
        total = w_right.sum()
        if total > 0:
            y_r = max(y_r, float(np.dot(x, w_right) / total))
    return y_l, y_r


def _points(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def shape_grade(mf, x):
    """Per-shape membership formulas, the bit-exact reference for the grading kernel.

    Each shape is evaluated with its own masks, the way the shapes graded
    before they shared one kernel; Gaussians use math.exp per element. A
    float x gives a float, an array an array of its shape.
    """
    from fuzzsig.fuzzy import Gaussian, LeftShoulder, RightShoulder, Triangular

    arr, scalar = _points(x)
    out = np.zeros_like(arr)
    if isinstance(mf, Triangular):
        if mf.peak > mf.left:
            m = (arr >= mf.left) & (arr < mf.peak)
            out[m] = (arr[m] - mf.left) / (mf.peak - mf.left)
        if mf.right > mf.peak:
            m = (arr > mf.peak) & (arr <= mf.right)
            out[m] = (mf.right - arr[m]) / (mf.right - mf.peak)
        out[arr == mf.peak] = 1.0
    elif isinstance(mf, LeftShoulder):
        out[arr <= mf.plateau_end] = 1.0
        if mf.foot > mf.plateau_end:
            m = (arr > mf.plateau_end) & (arr < mf.foot)
            out[m] = (mf.foot - arr[m]) / (mf.foot - mf.plateau_end)
    elif isinstance(mf, RightShoulder):
        out[arr >= mf.plateau_start] = 1.0
        if mf.plateau_start > mf.foot:
            m = (arr > mf.foot) & (arr < mf.plateau_start)
            out[m] = (arr[m] - mf.foot) / (mf.plateau_start - mf.foot)
    elif isinstance(mf, Gaussian):
        z = (arr - mf.center) / mf.width
        out = np.array([math.exp(v) for v in (-0.5 * z * z).tolist()])
    else:
        raise TypeError(f"unsupported shape {type(mf)!r}")
    return float(out[0]) if scalar else out


def shape_grade_bounds(mf, x, delta: float):
    """Per-shape (lower, upper) grades under a footprint blur of delta (see shape_grade).

    Linear shapes: the smaller and larger grade at x - delta and x + delta,
    the upper forced to 1 where the blur window reaches the plateau.
    Gaussians: the grades at widths max(width - delta, 1e-12) and width + delta.
    """
    from fuzzsig.fuzzy import Gaussian, LeftShoulder, RightShoulder, Triangular

    if isinstance(mf, Gaussian):
        narrow = Gaussian(mf.center, max(mf.width - delta, 1e-12))
        return shape_grade(narrow, x), shape_grade(Gaussian(mf.center, mf.width + delta), x)
    left, right = shape_grade(mf, x - delta), shape_grade(mf, x + delta)
    if isinstance(mf, Triangular):
        upper = np.where(np.logical_and(x - delta <= mf.peak, mf.peak <= x + delta),
                         1.0, np.maximum(left, right))
    elif isinstance(mf, LeftShoulder):
        upper = np.where(x - delta <= mf.plateau_end, 1.0, left)
    elif isinstance(mf, RightShoulder):
        upper = np.where(x + delta >= mf.plateau_start, 1.0, right)
    else:
        raise TypeError(f"unsupported shape {type(mf)!r}")
    lower = np.minimum(left, right)
    if np.ndim(x) == 0:
        return float(lower), float(upper)
    return lower, upper


def swept_mf_bounds(mf, x: float, delta: float, steps: int = 1000) -> tuple[float, float]:
    """Grid sweep over the blurred parameter set of a membership function.

    Piecewise-linear shapes shift their breakpoints together through
    [-delta, +delta]; Gaussians sweep their width through the same band.
    """
    from fuzzsig.fuzzy import Gaussian, LeftShoulder, RightShoulder, Triangular

    values = []
    if isinstance(mf, Gaussian):
        for i in range(steps + 1):
            width = mf.width - delta + (2.0 * delta) * i / steps
            width = max(width, 1e-12)
            values.append(shape_grade(Gaussian(mf.center, width), x))
    else:
        for i in range(steps + 1):
            shift = -delta + (2.0 * delta) * i / steps
            if isinstance(mf, Triangular):
                shifted = Triangular(mf.left + shift, mf.peak + shift, mf.right + shift)
            elif isinstance(mf, LeftShoulder):
                shifted = LeftShoulder(mf.plateau_end + shift, mf.foot + shift)
            elif isinstance(mf, RightShoulder):
                shifted = RightShoulder(mf.foot + shift, mf.plateau_start + shift)
            else:
                raise TypeError(f"unsupported shape {type(mf)!r}")
            values.append(shape_grade(shifted, x))
    return min(values), max(values)


def stacked_inputs(grades, interval: bool) -> np.ndarray:
    """The grade array of {variable: {term: (lower, upper)}}, stacked in ANTECEDENT_TERMS order.

    Each pair holds floats (one row) or length-N arrays (N rows). Interval
    grades give (terms, 2, N); type-1 ones keep the upper grades only, (terms, 1, N).
    """
    from fuzzsig.inference import ANTECEDENT_TERMS

    keys = [(name, term) for name, terms in ANTECEDENT_TERMS.items() for term in terms]
    stacked = np.array([grades[name][term] for name, term in keys],
                       dtype=float).reshape(len(keys), 2, -1)
    return stacked if interval else stacked[:, 1:]


def max_of_clips(grades, rule_base, output_var, grid_points: int = 1001):
    """fire_rules' (lower, upper) envelopes as one max over an array of every clip.

    The consequent strengths and output grades are computed as fire_rules
    computes them; the clips are then built as one (consequents, halves, N,
    grid_points) array and reduced over consequents from an initial 0.0.
    `grades` must be stacked in ANTECEDENT_TERMS order.
    """
    from fuzzsig.inference import _output_grades

    antecedents, starts, labels = rule_base.index
    strengths = np.maximum.reduceat(grades[antecedents].min(axis=0), starts, axis=0)
    _, mu = _output_grades(output_var, grid_points, labels)
    envelopes = np.minimum(mu.reshape(-1, 1, 1, grid_points), strengths[..., None]).max(
        axis=0, initial=0.0)
    return envelopes[0], envelopes[-1]


def term_grades(stacked, row: int = 0) -> dict[str, dict[str, tuple[float, float]]]:
    """One row of a grade array in STACKED_TERMS order as {variable: {term: (lower, upper)}} floats."""
    from fuzzsig.fuzzy import STACKED_TERMS

    grades: dict[str, dict[str, tuple[float, float]]] = {}
    for (name, term), pair in zip(STACKED_TERMS, stacked[:, :, row].tolist(), strict=True):
        grades.setdefault(name, {})[term] = (pair[0], pair[-1])
    return grades


def brute_force_aggregate(stacked, rule_base, output_var, grid, row: int = 0):
    """Per-gridpoint double loop over rules for one input row, independent of fire_rules' order.

    Each rule's (lower, upper) strength is the min of its antecedent grades,
    and each output term is graded over the grid by shape_grade, once.
    """
    grades = term_grades(stacked, row)
    mus = {label: shape_grade(mf, np.asarray(grid, dtype=float)).tolist()
           for label, mf in output_var.terms}
    strengths = []
    for rule in rule_base.rules:
        pairs = [grades[name][getattr(rule, name)] for name in ("macd", "rsi", "so", "wa")]
        strengths.append((min(p[0] for p in pairs), min(p[1] for p in pairs),
                          mus[rule.consequent.value.lower()]))
    lower = []
    upper = []
    for j in range(len(grid)):
        best_lo = 0.0
        best_hi = 0.0
        for s_lo, s_hi, mu in strengths:
            best_lo = max(best_lo, min(s_lo, mu[j]))
            best_hi = max(best_hi, min(s_hi, mu[j]))
        lower.append(best_lo)
        upper.append(best_hi)
    return np.array(lower), np.array(upper)


class ReferenceFailure(Exception):
    """reference_signal's row fails at `stage`, a PipelineError stage name."""

    def __init__(self, stage: str):
        super().__init__(stage)
        self.stage = stage


def reference_signal(series, cfg) -> tuple[float, tuple[float, float] | None]:
    """One series' crisp output and centroid interval (None at delta 0), by the oracles alone.

    The chain: the period bars of helpers.aggregate_periods; composed_macd,
    tallied_rsi, scanned_stochastic and scanned_williams on them;
    tanh(gain * histogram / close), scalar_scale_secondary and %K / 100; each
    term's shape_grade, or shape_grade_bounds at delta > 0, stacked by
    stacked_inputs; brute_force_aggregate over cfg.rule_base; the
    half-weight trapezoid weights; then enumerated_km's midpoint at delta > 0
    or the weighted mean at delta 0. No grade_inputs or fire_rules call is on
    the route. A row that fails raises ReferenceFailure with its stage.
    """
    from fuzzsig.fuzzy import LinguisticVariable
    from helpers import aggregate_periods

    try:
        periods = aggregate_periods(series, cfg.days_per_period).bars
    except ValueError:
        raise ReferenceFailure("aggregation") from None
    highs, lows, closes = periods.high.tolist(), periods.low.tolist(), periods.close.tolist()
    count = len(closes)
    # the MACD histogram needs two values: one EMA step past the signal line's seed
    if (count < cfg.macd_long + cfg.macd_trigger or count <= cfg.rsi_window
            or count < cfg.stochastic_k or count < cfg.williams_window):
        raise ReferenceFailure("indicators")
    *_, histogram = composed_macd(closes, cfg.macd_short, cfg.macd_long, cfg.macd_trigger)
    percent_k, _ = scanned_stochastic(highs, lows, closes, cfg.stochastic_k, cfg.stochastic_d)
    try:
        inputs = {
            "macd": math.tanh(cfg.histogram_gain * histogram[-1] / closes[-1]),
            "rsi": scalar_scale_secondary("rsi", tallied_rsi(closes, cfg.rsi_window),
                                          cfg.divisor),
            "so": percent_k[-1] / 100.0,
            "wa": scalar_scale_secondary(
                "wa", scanned_williams(highs, lows, closes, cfg.williams_window), cfg.divisor),
        }
    except (ZeroDivisionError, ValueError):
        raise ReferenceFailure("fuzzification") from None
    delta = cfg.delta
    grades = {name: {label: shape_grade_bounds(mf, x, delta) if delta > 0
                     else (shape_grade(mf, x),) * 2 for label, mf in cfg.mf_table[name]}
              for name, x in inputs.items()}
    grid = np.linspace(0.0, 1.0, cfg.grid_points)
    output_var = LinguisticVariable("signal", (0.0, 1.0), cfg.mf_table["signal"])
    lower, upper = brute_force_aggregate(stacked_inputs(grades, delta > 0), cfg.rule_base,
                                         output_var, grid)
    weights = np.ones(len(grid))
    weights[[0, -1]] = 0.5
    lower, upper = lower * weights, upper * weights
    if not upper.any():
        raise ReferenceFailure("type reduction" if delta > 0 else "defuzzification")
    if delta > 0:
        y_l, y_r = enumerated_km(grid, lower, upper)
        return 0.5 * (y_l + y_r), (y_l, y_r)
    return float(np.dot(grid, upper) / upper.sum()), None


def reparse_rows(text: str) -> dict[str, list[tuple[str, float, float, float, float, float]]]:
    """Minimal line-splitting re-parse of the input CSV, for cross-checking."""
    lines = text.strip().split("\n")
    assert lines[0] == "symbol,date,open,high,low,close,volume"
    rows: dict[str, list] = {}
    for line in lines[1:]:
        sym, day, o, h, lo, c, v = line.split(",")
        rows.setdefault(sym, []).append(
            (day, float(o), float(h), float(lo), float(c), float(v))
        )
    for sym in rows:
        rows[sym].sort(key=lambda r: r[0])
    return rows


def scanned_unordered_dates(dates) -> list[int]:
    """Each i >= 1 whose date is not after the one before it, one comparison per pair."""
    return [i for i, later in enumerate(map(operator.lt, dates, dates[1:]), start=1)
            if not later]


def scalar_scale_secondary(kind: str, raw: float, divisor: float) -> float:
    """The one-value tuning rule: |raw| / divisor, after the range and divisor checks.

    kind is "rsi" (RSI in [0, 100]) or "wa" (Williams in [-100, 0]); the
    checks raise the ValueError texts the column version must keep.
    """
    if kind == "rsi":
        if not 0.0 <= raw <= 100.0:
            raise ValueError(f"RSI out of range [0, 100]: {raw}")
    elif kind == "wa":
        if not -100.0 <= raw <= 0.0:
            raise ValueError(f"Williams value out of range [-100, 0]: {raw}")
    else:
        raise ValueError(f"unknown secondary kind: {kind!r}")
    if divisor <= 0:
        raise ValueError(f"divisor must be positive, got {divisor}")
    return abs(raw) / divisor


def scalar_level(scaled: float, levels: tuple[float, float]) -> str:
    """High above the golden level, Medium from the mid level up to it, Low below."""
    mid, golden = levels
    if scaled > golden:
        return "High"
    if scaled >= mid:
        return "Medium"
    return "Low"
