"""Fibonacci-ratio tuning of the secondary indicators (RSI and Williams), on columns.

scale_secondaries divides |RSI| and |Williams| by the divisor, for fuzzification
and the `indicators` table; level_labels cuts them into Low, Medium and High at
two retracement levels, 0.382 and 0.618 by default.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_DIVISOR = 89.0

_LOW_END, _HIGH_END = np.array([[[0.0], [-100.0]], [[100.0], [0.0]]])  # RSI, Williams


def golden_ratio() -> float:
    """Reciprocal of (1 + sqrt(5)) / 2, about 0.6180."""
    return 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0)


def scale_secondaries(
    rsi, williams, divisor: float = DEFAULT_DIVISOR
) -> tuple[np.ndarray, np.ndarray, dict[int, ValueError]]:
    """|RSI| / divisor and |Williams| / divisor, with each failing row's error.

    rsi and williams are floats (one row) or equal-length arrays. A row's first
    failed check gives its ValueError: RSI in [0, 100] (NaN fails), a positive
    divisor, Williams in [-100, 0]. A passing row's scaled values lie in
    [0, 100/divisor]; a failed row's are meaningless.
    """
    raw = np.array([rsi, williams], dtype=float).reshape(2, -1)
    with np.errstate(all="ignore"):  # failed rows are reported below
        rsi_scaled, wa_scaled = np.abs(raw) / divisor
    inside = (raw >= _LOW_END) & (raw <= _HIGH_END)  # NaN is outside
    if np.count_nonzero(inside) == inside.size and divisor > 0:
        return rsi_scaled, wa_scaled, {}
    faults = {}
    for i in (~inside.all(axis=0) | (divisor <= 0)).nonzero()[0].tolist():
        row_rsi, row_williams = raw[:, i].tolist()
        faults[i] = ValueError(
            f"RSI out of range [0, 100]: {row_rsi}" if not inside[0, i] else
            f"divisor must be positive, got {divisor}" if divisor <= 0 else
            f"Williams value out of range [-100, 0]: {row_williams}")
    return rsi_scaled, wa_scaled, faults


def level_labels(scaled, levels: tuple[float, float]) -> np.ndarray:
    """Crisp diagnostic labels of scaled secondary values, one str per value.

    levels is the (medium, high) pair of cuts, 0.382 and the golden 0.618 by
    default. High above levels[1], Medium from levels[0] up to levels[1]
    inclusive, Low below. For reporting only; inference uses the graded
    membership functions instead.
    """
    mid, golden = levels
    return np.where(scaled > golden, "High", np.where(scaled >= mid, "Medium", "Low"))
