"""Membership functions, linguistic variables, and fuzzification of snapshots.

Triangular-family shapes serve RSI and the stochastic, Gaussians serve MACD and
Williams. Every shape also exposes an interval ([lower, upper]) grade under a
footprint-of-uncertainty blur: a breakpoint shift of +/- delta for the
piecewise-linear shapes, a width spread of +/- delta for Gaussians. Grades
take a float (and give floats) or an array of points (and give arrays), so a
block of rows is graded in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .indicators import IndicatorSnapshot
from .tuning import DEFAULT_DIVISOR, SecondaryKind, scale_secondary

COVERAGE_FLOOR = 0.05
_COVERAGE_GRID = 1001
_MIN_GAUSSIAN_WIDTH = 1e-12


def _eval_scalar_or_array(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _bounds(x, lo, hi):
    """The (lower, upper) pair as floats for a scalar x, as arrays otherwise."""
    if np.ndim(x) == 0:
        return float(lo), float(hi)
    return lo, hi


@dataclass(frozen=True)
class Triangular:
    """Linear rise from left to 1 at peak, linear fall to right, 0 outside."""

    left: float
    peak: float
    right: float

    def __post_init__(self) -> None:
        if not self.left <= self.peak <= self.right:
            raise ValueError(f"need left <= peak <= right, got {self}")

    def grade(self, x):
        arr, scalar = _eval_scalar_or_array(x)
        out = np.zeros_like(arr)
        if self.peak > self.left:
            m = (arr >= self.left) & (arr < self.peak)
            out[m] = (arr[m] - self.left) / (self.peak - self.left)
        if self.right > self.peak:
            m = (arr > self.peak) & (arr <= self.right)
            out[m] = (self.right - arr[m]) / (self.right - self.peak)
        out[arr == self.peak] = 1.0
        return float(out[0]) if scalar else out

    def grade_bounds(self, x, delta: float):
        # Unimodal, so the envelope extremes sit at the shifted endpoints,
        # except that the peak dominates whenever the blur window reaches it.
        left, right = self.grade(x - delta), self.grade(x + delta)
        reaches_peak = np.logical_and(x - delta <= self.peak, self.peak <= x + delta)
        return _bounds(x, np.minimum(left, right),
                       np.where(reaches_peak, 1.0, np.maximum(left, right)))


@dataclass(frozen=True)
class LeftShoulder:
    """Full membership up to plateau_end, falling linearly to 0 at foot."""

    plateau_end: float
    foot: float

    def __post_init__(self) -> None:
        if not self.plateau_end <= self.foot:
            raise ValueError(f"need plateau_end <= foot, got {self}")

    def grade(self, x):
        arr, scalar = _eval_scalar_or_array(x)
        out = np.zeros_like(arr)
        out[arr <= self.plateau_end] = 1.0
        if self.foot > self.plateau_end:
            m = (arr > self.plateau_end) & (arr < self.foot)
            out[m] = (self.foot - arr[m]) / (self.foot - self.plateau_end)
        return float(out[0]) if scalar else out

    def grade_bounds(self, x, delta: float):
        left, right = self.grade(x - delta), self.grade(x + delta)
        return _bounds(x, np.minimum(left, right),
                       np.where(x - delta <= self.plateau_end, 1.0, left))


@dataclass(frozen=True)
class RightShoulder:
    """Zero membership up to foot, rising linearly to 1 at plateau_start."""

    foot: float
    plateau_start: float

    def __post_init__(self) -> None:
        if not self.foot <= self.plateau_start:
            raise ValueError(f"need foot <= plateau_start, got {self}")

    def grade(self, x):
        arr, scalar = _eval_scalar_or_array(x)
        out = np.zeros_like(arr)
        out[arr >= self.plateau_start] = 1.0
        if self.plateau_start > self.foot:
            m = (arr > self.foot) & (arr < self.plateau_start)
            out[m] = (arr[m] - self.foot) / (self.plateau_start - self.foot)
        return float(out[0]) if scalar else out

    def grade_bounds(self, x, delta: float):
        left, right = self.grade(x - delta), self.grade(x + delta)
        return _bounds(x, np.minimum(left, right),
                       np.where(x + delta >= self.plateau_start, 1.0, right))


@dataclass(frozen=True)
class Gaussian:
    """exp(-((x - center) / width)^2 / 2); strictly positive, 1 at center."""

    center: float
    width: float

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self}")

    def grade(self, x):
        arr, scalar = _eval_scalar_or_array(x)
        z = (arr - self.center) / self.width
        out = np.exp(-0.5 * z * z)
        return float(out[0]) if scalar else out

    def grade_bounds(self, x, delta: float):
        # Width blur only: the center never moves, so x == center stays [1, 1].
        hi = Gaussian(self.center, self.width + delta).grade(x)
        lo = Gaussian(self.center, max(self.width - delta, _MIN_GAUSSIAN_WIDTH)).grade(x)
        return lo, hi


MembershipFunction = Triangular | LeftShoulder | RightShoulder | Gaussian


@dataclass(frozen=True)
class FootprintOfUncertainty:
    """Non-negative blur applied to every membership function; 0 means type-1."""

    delta: float = 0.05

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")


@functools.lru_cache(maxsize=256)
def _check_coverage(name: str, domain: tuple[float, float],
                    terms: tuple[tuple[str, MembershipFunction], ...]) -> None:
    """Raise ValueError unless the terms cover the domain (see LinguisticVariable).

    The verdict depends only on these frozen values, so it is cached by value.
    lru_cache keeps no exceptions, so a bad table raises the same text each time.
    """
    lo, hi = domain
    if not lo < hi:
        raise ValueError(f"{name!r}: domain must be a proper interval, got {domain}")
    if not terms:
        raise ValueError(f"{name!r}: needs at least one term")
    grid = np.linspace(lo, hi, _COVERAGE_GRID)
    grades = np.array([mf.grade(grid) for _, mf in terms])
    cover = grades.max(axis=0)
    worst = int(np.argmin(cover))  # the first NaN, if a grade is NaN
    if not cover[worst] >= COVERAGE_FLOOR:
        nonfinite = ~np.isfinite(grades[:, worst])
        if nonfinite.any():
            raise ValueError(
                f"{name!r}: term {terms[int(np.argmax(nonfinite))][0]!r} "
                f"has a non-finite grade at x={grid[worst]:.4f}"
            )
        raise ValueError(
            f"{name!r}: terms cover x={grid[worst]:.4f} at grade "
            f"{cover[worst]:.4f}, below the {COVERAGE_FLOOR} floor"
        )


@dataclass(frozen=True)
class LinguisticVariable:
    """Named domain interval with labelled term membership functions.

    Construction verifies coverage: the strongest term grade must be finite
    and stay at or above COVERAGE_FLOOR at every point of a 1001-point domain
    grid. A NaN grade of any term fails it, naming the term. The grid is
    graded once per distinct (name, domain, terms) in a process; later
    constructions reuse the verdict, and a failing table raises every time.
    """

    name: str
    domain: tuple[float, float]
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self) -> None:
        # tuples throughout, so the variable and its verdict hash by value
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "terms", tuple(map(tuple, self.terms)))
        _check_coverage(self.name, self.domain, self.terms)

    def term_names(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.terms)

    def mf(self, label: str) -> MembershipFunction:
        for name, mf in self.terms:
            if name == label:
                return mf
        raise ValueError(f"{self.name!r} has no term {label!r}")


@dataclass(frozen=True)
class FuzzifiedInputs:
    """Per-variable, per-term membership grades as (lower, upper) pairs.

    Each grade is a float for one row, or a length-N array for a block of N
    rows. For type-1 evaluation (interval=False) lower equals upper exactly.
    """

    grades: dict[str, dict[str, tuple[float, float]]]
    interval: bool


def default_mf_table() -> dict[str, tuple[tuple[str, MembershipFunction], ...]]:
    """Canonical term tables for the four inputs and the output."""
    return {
        "macd": (
            ("low", Gaussian(-0.5, 0.3)),
            ("high", Gaussian(0.5, 0.3)),
        ),
        "rsi": (
            ("low", LeftShoulder(0.236, 0.382)),
            ("medium", Triangular(0.236, 0.5, 0.764)),
            ("high", RightShoulder(0.5, 0.618)),
        ),
        "so": (
            ("low", LeftShoulder(0.2, 0.5)),
            ("medium", Triangular(0.2, 0.5, 0.8)),
            ("high", RightShoulder(0.5, 0.8)),
        ),
        "wa": (
            ("low", Gaussian(0.236, 0.22)),
            ("high", Gaussian(0.618, 0.22)),
        ),
        "signal": (
            ("sell", LeftShoulder(0.3, 0.45)),
            ("hold", Triangular(0.35, 0.5, 0.65)),
            ("buy", RightShoulder(0.55, 0.7)),
        ),
    }


VARIABLE_ORDER = ("macd", "rsi", "so", "wa", "signal")


def default_variables(
    *, divisor: float = DEFAULT_DIVISOR, mf_table=None
) -> tuple[LinguisticVariable, ...]:
    """The four input variables plus the output variable over their domains.

    RSI and Williams live on [0, 100/divisor] (divisor-scaled absolute values),
    the stochastic on [0, 1] (%K / 100), MACD on [-1, 1] (tanh-squashed
    histogram), and the output on [0, 1].
    """
    table = default_mf_table() if mf_table is None else mf_table
    secondary_top = 100.0 / divisor
    domains = {
        "macd": (-1.0, 1.0),
        "rsi": (0.0, secondary_top),
        "so": (0.0, 1.0),
        "wa": (0.0, secondary_top),
        "signal": (0.0, 1.0),
    }
    return tuple(
        LinguisticVariable(name, domains[name], tuple(table[name]))
        for name in VARIABLE_ORDER
    )


def _row_fault(histogram: float, close: float, rsi: float, williams: float,
               divisor: float, histogram_gain: float) -> Exception | None:
    """The first error the one-row float arithmetic raises on these values, if any."""
    try:
        histogram_gain * histogram / close  # ZeroDivisionError on a zero close
        scale_secondary(SecondaryKind.RSI, rsi, divisor)
        scale_secondary(SecondaryKind.WA, williams, divisor)
    except (ArithmeticError, ValueError) as exc:
        return exc
    return None


def normalize_rows(
    snap: IndicatorSnapshot,
    *,
    divisor: float = DEFAULT_DIVISOR,
    histogram_gain: float = 50.0,
) -> tuple[dict[str, np.ndarray], dict[int, Exception]]:
    """Map raw indicator rows onto the input variables' normalized domains.

    The snapshot's fields are floats (one row) or length-N arrays (a block).
    MACD is tanh(gain * histogram / close), through math.tanh per element so
    the values do not depend on numpy's SIMD kernels; RSI and Williams are
    |value| / divisor and the stochastic %K / 100. Returns the normalized
    columns and, for each row that fails (a zero close, RSI outside [0, 100],
    Williams outside [-100, 0]), the error that row's values raise alone. A
    failed row's normalized values are meaningless.
    """
    histogram, close, rsi, k, williams = np.array(
        [snap.histogram, snap.close, snap.rsi, snap.stochastic_k, snap.williams],
        dtype=float).reshape(5, -1)
    with np.errstate(all="ignore"):  # failed rows raise below, as the float arithmetic would
        ratio = histogram_gain * histogram / close
        normalized = {
            "macd": np.array([math.tanh(x) for x in ratio.tolist()]),
            "rsi": np.abs(rsi) / divisor,
            "so": k / 100.0,
            "wa": np.abs(williams) / divisor,
        }
    suspect = ~((close != 0.0) & (rsi >= 0.0) & (rsi <= 100.0)
                & (williams >= -100.0) & (williams <= 0.0)) | (divisor <= 0)
    faults = {i: fault for i in np.flatnonzero(suspect).tolist()
              if (fault := _row_fault(histogram[i].item(), close[i].item(), rsi[i].item(),
                                      williams[i].item(), divisor, histogram_gain))}
    return normalized, faults


def fuzzify(
    snap: IndicatorSnapshot,
    variables: tuple[LinguisticVariable, ...],
    *,
    divisor: float = DEFAULT_DIVISOR,
    histogram_gain: float = 50.0,
    fou: FootprintOfUncertainty | None = None,
) -> FuzzifiedInputs:
    """Grade every input variable's terms at the snapshot's normalized values.

    The one-row case of normalize_rows then grade_inputs: `snap` holds floats,
    and a row that fails normalization raises its error. With fou=None the
    grades are type-1 (degenerate pairs); with a footprint they are [lower,
    upper] intervals, even at delta = 0.
    """
    normalized, faults = normalize_rows(snap, divisor=divisor, histogram_gain=histogram_gain)
    if faults:
        raise faults[0]
    return grade_inputs({name: x.item() for name, x in normalized.items()}, variables, fou)


def grade_inputs(
    normalized: dict[str, float] | dict[str, np.ndarray],
    variables: tuple[LinguisticVariable, ...],
    fou: FootprintOfUncertainty | None = None,
) -> FuzzifiedInputs:
    """Grade the input variables' terms at normalized values (see fuzzify).

    The values are floats for one row, giving float grades, or equal-length
    arrays for a block of rows, giving array grades.
    """
    grades = {}
    for var in variables:
        if var.name not in normalized:
            continue
        x = normalized[var.name]
        per_term = {}
        for label, mf in var.terms:
            if fou is None:
                g = mf.grade(x)
                per_term[label] = (g, g)
            else:
                per_term[label] = mf.grade_bounds(x, fou.delta)
        grades[var.name] = per_term
    return FuzzifiedInputs(grades=grades, interval=fou is not None)
