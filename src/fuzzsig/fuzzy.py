"""Membership functions, linguistic variables, and fuzzification of indicator rows.

Triangular-family shapes serve RSI and the stochastic, Gaussians serve MACD and
Williams. Every shape also has an interval ([lower, upper]) grade under a
footprint-of-uncertainty blur: a breakpoint shift of +/- delta for the
piecewise-linear shapes, a width spread of +/- delta for Gaussians.

Fuzzification is normalize_rows, then grade_inputs, on N >= 1 indicator
rows: a block frame's last column (signal, portfolio) or a backtest prefix's
snapshot. All membership math is one array kernel, grade_terms, over a
TermTable: the linear shapes as trapezoids (a, b, c, d), the Gaussians as
centres and widths. grade_inputs grades the input terms in one call on a
(terms, N) array, in STACKED_TERMS order: type-1 at delta None, intervals at
a float footprint width delta >= 0. Gaussians take math.exp per element, so
no grade depends on numpy's SIMD kernels.

ResolvedConfig builds the tables the grading reads once per config object:
input_terms, the input TermTable, and output_table, the OutputTable of the
output grid, its trapezoid weights and the consequent grades. default_variables
builds the linguistic variables once per distinct (divisor, membership-function
table) in a process, through _variables, the one cache left here until the
benchmark stops pinning its call count; configs built from default_mf_table
share its shapes, which the cache keys match by identity. Variables and
membership functions compare by type and fields, and hash their fields once
and keep the value (never in a pickle or a copy, since str hashes are salted
per process).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._frozen import Value
from .indicators import IndicatorSnapshot
from .tuning import DEFAULT_DIVISOR, scale_secondaries

COVERAGE_FLOOR = 0.05
_COVERAGE_GRID = 1001
_MIN_GAUSSIAN_WIDTH = 1e-12
OUTPUT_DOMAIN = (0.0, 1.0)


class Triangular(Value):
    """Linear rise from left to 1 at peak, linear fall to right, 0 outside."""

    __slots__ = _fields = ("left", "peak", "right")

    def __init__(self, left: float, peak: float, right: float) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "right", right)
        if not left <= peak <= right:
            raise ValueError(f"need left <= peak <= right, got {self}")


class LeftShoulder(Value):
    """Full membership up to plateau_end, falling linearly to 0 at foot."""

    __slots__ = _fields = ("plateau_end", "foot")

    def __init__(self, plateau_end: float, foot: float) -> None:
        object.__setattr__(self, "plateau_end", plateau_end)
        object.__setattr__(self, "foot", foot)
        if not plateau_end <= foot:
            raise ValueError(f"need plateau_end <= foot, got {self}")


class RightShoulder(Value):
    """Zero membership up to foot, rising linearly to 1 at plateau_start."""

    __slots__ = _fields = ("foot", "plateau_start")

    def __init__(self, foot: float, plateau_start: float) -> None:
        object.__setattr__(self, "foot", foot)
        object.__setattr__(self, "plateau_start", plateau_start)
        if not foot <= plateau_start:
            raise ValueError(f"need foot <= plateau_start, got {self}")


class Gaussian(Value):
    """exp(-((x - center) / width)^2 / 2); strictly positive, 1 at center.

    The footprint blurs the width only: the center never moves, so x == center
    stays [1, 1].
    """

    __slots__ = _fields = ("center", "width")

    def __init__(self, center: float, width: float) -> None:
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", width)
        if not width > 0:
            raise ValueError(f"width must be positive, got {self}")


MembershipFunction = Triangular | LeftShoulder | RightShoulder | Gaussian


def _linear_row(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """A trapezoid's breakpoints (a, b, c, d) and its edges' (origin, width) pairs.

    An edge without width covers no point. Its ramp is +inf at every point of
    the shape's support [a, d], so it is never the smaller one: it starts at
    -inf with width 1 for a rise (at +inf with width -1 when a is -inf), and
    mirrored for a fall.
    """
    inf = math.inf
    rise = (a, b - a) if b > a else (inf, -1.0) if a == -inf else (-inf, 1.0)
    fall = (d, d - c) if d > c else (-inf, -1.0) if d == inf else (inf, 1.0)
    return (a, b, c, d, *rise, *fall)


class TermTable(NamedTuple):
    """Parameter columns of a tuple of membership functions, one (terms, 1) column each.

    A linear shape is a trapezoid (a, b, c, d): rising on [a, b), 1 on [b, c],
    falling on (c, d] and 0 elsewhere. Triangular(l, p, r) is (l, p, p, r),
    LeftShoulder(e, f) is (-inf, -inf, e, f) and RightShoulder(f, s) is
    (f, s, inf, inf). A Gaussian's trapezoid is all NaN, which grades 0
    everywhere; `gaussian` (the rows of the Gaussian mask) selects the rows
    whose grades come from `center` and `width`, both (Gaussians, 1).
    """

    gaussian: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    rise_from: np.ndarray
    rise: np.ndarray
    fall_to: np.ndarray
    fall: np.ndarray
    center: np.ndarray
    width: np.ndarray


def term_table(mfs: tuple[MembershipFunction, ...]) -> TermTable:
    """The TermTable of these membership functions, read-only.

    ResolvedConfig holds the tables built from its membership functions:
    input_terms, and the output grades of output_table.
    """
    inf, nan = math.inf, math.nan
    corners = {
        Triangular: lambda mf: (mf.left, mf.peak, mf.peak, mf.right),
        LeftShoulder: lambda mf: (-inf, -inf, mf.plateau_end, mf.foot),
        RightShoulder: lambda mf: (mf.foot, mf.plateau_start, inf, inf),
        Gaussian: lambda mf: (nan, nan, nan, nan),
    }
    trapezoids = np.array([_linear_row(*corners[type(mf)](mf)) for mf in mfs],
                          dtype=float).reshape(-1, 8).T
    gaussians = [mf for mf in mfs if isinstance(mf, Gaussian)]
    shapes = np.array([(mf.center, mf.width) for mf in gaussians], dtype=float).reshape(-1, 2).T
    columns = [column[:, None] for column in (*trapezoids, *shapes)]
    gaussian = np.array([i for i, mf in enumerate(mfs) if isinstance(mf, Gaussian)],
                        dtype=np.intp)
    for column in (gaussian, *columns):
        column.flags.writeable = False
    return TermTable(gaussian, *columns)


def _linear_grades(t: TermTable, x: np.ndarray) -> np.ndarray:
    """Trapezoid grades at x, (terms, M): each row's own points, 0 on Gaussian rows.

    The grade is min(rising ramp, falling ramp, 1) on [a, d], and 0 off it or
    at NaN. Each ramp is below 1 only on its own edge and at least 1 beyond
    it, so the minimum is the edge's ramp, or 1 on the plateau: bit for bit
    the piecewise formula. That holds for finite breakpoints; an edge that
    reaches an infinite one (no config file can give it) ramps at 0 or NaN
    everywhere, beyond the edge too. Off its edge a narrow ramp may
    overflow, which grade_terms silences.
    """
    ramps = np.minimum((x - t.rise_from) / t.rise, (t.fall_to - x) / t.fall)
    return np.where((x >= t.a) & (x <= t.d), np.minimum(ramps, 1.0), 0.0)


def _gaussian_grades(z: np.ndarray) -> np.ndarray:
    """exp(-z^2 / 2) per element, through math.exp; an exponent overflowed to -inf grades 0.

    grade_terms, the caller, silences that overflow.
    """
    exponent = (-0.5 * z * z).ravel().tolist()
    return np.fromiter(map(math.exp, exponent), float, len(exponent)).reshape(z.shape)


def grade_terms(table: TermTable, x: np.ndarray, delta: float | None) -> np.ndarray:
    """Every term's grade at its own points x, a (terms, N) array.

    delta None gives (terms, N) grades. A delta gives (terms, 2, N) (lower,
    upper) pairs under the footprint blur:
    - a linear term is graded at x - delta and x + delta; the lower grade is
      the smaller, the upper is 1 where [x - delta, x + delta] meets its
      plateau [b, c] and the larger one elsewhere;
    - a Gaussian is graded at widths max(width - delta, 1e-12) (lower) and
      width + delta (upper), around the same centre.
    The linear formula runs on every row, and the Gaussian rows are then
    overwritten. A NaN point grades 0 on a linear term and NaN on a Gaussian.
    Overflow is silent (a ramp off its edge, a far Gaussian's z^2), and so is
    a NaN from an infinite point or breakpoint.
    """
    gaussian = table.gaussian
    with np.errstate(over="ignore", invalid="ignore"):
        if delta is None:
            out = _linear_grades(table, x)
            if len(gaussian):
                out[gaussian] = _gaussian_grades((x.take(gaussian, axis=0) - table.center)
                                                 / table.width)
            return out
        # (terms, 2, N): each point shifted by -delta, then by +delta
        shifts = np.array([[-delta], [delta]])
        shifted = x[:, None, :] + shifts
        left, right = _linear_grades(table, shifted.reshape(len(x), -1)).reshape(
            shifted.shape).transpose(1, 0, 2)
        out = np.empty(shifted.shape)
        np.minimum(left, right, out=out[:, 0])
        np.maximum(left, right, out=out[:, 1])
        out[:, 1][(shifted[:, 0] <= table.c) & (shifted[:, 1] >= table.b)] = 1.0
        if len(gaussian):
            widths = table.width[:, None] + shifts  # (Gaussians, 2, 1)
            np.maximum(widths[:, 0], _MIN_GAUSSIAN_WIDTH, out=widths[:, 0])
            out[gaussian] = _gaussian_grades((x.take(gaussian, axis=0) - table.center)[:, None]
                                             / widths)
        return out


class OutputTable(NamedTuple):
    """The output grid, its trapezoid quadrature weights and consequent grades on it, read-only.

    The weights are 1, and 0.5 at both ends of the grid (the uniform step
    cancels in every centroid); `grades` is (consequents, grid points).
    """

    grid: np.ndarray
    weights: np.ndarray
    grades: np.ndarray


def output_table(terms: tuple[tuple[str, MembershipFunction], ...], labels: tuple[str, ...],
                 grid_points: int) -> OutputTable:
    """The OutputTable of the output terms named by `labels`, in that order, on OUTPUT_DOMAIN."""
    grid = np.linspace(*OUTPUT_DOMAIN, grid_points)
    weights = np.ones(grid_points)
    weights[0] = weights[-1] = 0.5
    mfs = dict(terms)
    grades = grade_terms(term_table(tuple(mfs[label] for label in labels)),
                         np.broadcast_to(grid, (len(labels), grid_points)), None)
    for array in (grid, weights, grades):
        array.flags.writeable = False
    return OutputTable(grid, weights, grades)


def _check_coverage(name: str, domain: tuple[float, float],
                    terms: tuple[tuple[str, MembershipFunction], ...]) -> None:
    """Raise ValueError unless the terms cover the domain (see LinguisticVariable)."""
    lo, hi = domain
    if not lo < hi:
        raise ValueError(f"{name!r}: domain must be a proper interval, got {domain}")
    if not terms:
        raise ValueError(f"{name!r}: needs at least one term")
    grid = np.linspace(lo, hi, _COVERAGE_GRID)
    grades = grade_terms(term_table(tuple(mf for _, mf in terms)),
                         np.broadcast_to(grid, (len(terms), len(grid))), None)
    cover = grades.max(axis=0)
    worst = int(np.argmin(cover))  # the first NaN, if a grade is NaN
    if not cover[worst] >= COVERAGE_FLOOR:
        nonfinite = ~np.isfinite(grades[:, worst])
        if nonfinite.any():
            raise ValueError(
                f"{name!r}: term {terms[int(np.argmax(nonfinite))][0]!r} "
                f"has a non-finite grade at x={grid[worst]:.6g}"
            )
        raise ValueError(
            f"{name!r}: terms cover x={grid[worst]:.6g} at grade "
            f"{cover[worst]:.4f}, below the {COVERAGE_FLOOR} floor"
        )


class LinguisticVariable(Value):
    """Named domain interval with labelled term membership functions.

    Construction verifies coverage: the strongest term grade must be finite
    and stay at or above COVERAGE_FLOOR at every point of a 1001-point domain
    grid. A NaN grade of any term fails it, naming the term. Each construction
    grades the grid; default_variables' cache (_variables) holds the variables
    it builds, so a process grades each of their grids once.
    """

    __slots__ = _fields = ("name", "domain", "terms")

    def __init__(self, name: str, domain: tuple[float, float],
                 terms: tuple[tuple[str, MembershipFunction], ...]) -> None:
        # tuples throughout, so the variable hashes by value
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "domain", tuple(domain))
        object.__setattr__(self, "terms", tuple(map(tuple, terms)))
        _check_coverage(self.name, self.domain, self.terms)


_DEFAULT_MF_TABLE = {
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


def default_mf_table() -> dict[str, tuple[tuple[str, MembershipFunction], ...]]:
    """Canonical term tables for the four inputs and the output: a new dict over shared tuples."""
    return dict(_DEFAULT_MF_TABLE)


VARIABLE_ORDER = ("macd", "rsi", "so", "wa", "signal")

# The (variable, term) of each row of grade_inputs' grades: the default table's
# input terms, in table order
STACKED_TERMS = tuple((name, label) for name in VARIABLE_ORDER[:-1]
                      for label, _ in _DEFAULT_MF_TABLE[name])


def default_variables(
    *, divisor: float = DEFAULT_DIVISOR, mf_table=None
) -> tuple[LinguisticVariable, ...]:
    """The four input variables plus the output variable over their domains.

    RSI and Williams live on [0, 100/divisor] (divisor-scaled absolute values),
    the stochastic on [0, 1] (%K / 100), MACD on [-1, 1] (tanh-squashed
    histogram), and the output on [0, 1]. Equal (divisor, table) arguments
    share one tuple, built once per process; a table that fails the coverage
    check raises on every call.
    """
    table = default_mf_table() if mf_table is None else mf_table
    tables = tuple([table[name] for name in VARIABLE_ORDER])
    try:
        return _variables(divisor, tables)
    except TypeError:  # terms given as lists: the cache key needs tuples
        return _variables(divisor, tuple(tuple(map(tuple, terms)) for terms in tables))


@functools.lru_cache(maxsize=64)
def _variables(divisor: float, tables: tuple[tuple[tuple[str, MembershipFunction], ...], ...]
               ) -> tuple[LinguisticVariable, ...]:
    """default_variables' tuple for these term tables, in VARIABLE_ORDER; built once per pair."""
    secondary_top = 100.0 / divisor
    domains = {
        "macd": (-1.0, 1.0),
        "rsi": (0.0, secondary_top),
        "so": (0.0, 1.0),
        "wa": (0.0, secondary_top),
        "signal": OUTPUT_DOMAIN,
    }
    return tuple(LinguisticVariable(name, domains[name], terms)
                 for name, terms in zip(VARIABLE_ORDER, tables))


def normalize_rows(
    snap: IndicatorSnapshot,
    *,
    divisor: float = DEFAULT_DIVISOR,
    histogram_gain: float = 50.0,
) -> tuple[dict[str, np.ndarray], dict[int, Exception]]:
    """Map raw indicator rows onto the input variables' normalized domains.

    The snapshot's fields are floats (one row) or length-N arrays (a block).
    MACD is tanh(gain * histogram / close), in Python floats per element, so
    the values do not depend on numpy's SIMD kernels and a zero close raises
    its own ZeroDivisionError rather than a numpy warning; RSI and Williams
    are scaled by tuning.scale_secondaries and the stochastic is %K / 100.
    Returns the normalized columns and each failing row's error: the
    ZeroDivisionError of a zero close, else the row's scale_secondaries
    fault. A failed row's normalized values are meaningless.
    """
    histogram, close, k = np.array([snap.histogram, snap.close, snap.stochastic_k],
                                   dtype=float).reshape(3, -1)
    rsi, wa, faults = scale_secondaries(snap.rsi, snap.williams, divisor)
    gain = float(histogram_gain)  # a numpy scalar would divide by zero with a warning
    macd = []
    for i, (h, c) in enumerate(zip(histogram.tolist(), close.tolist())):
        try:
            macd.append(math.tanh(gain * h / c))
        except ZeroDivisionError as exc:
            faults[i] = exc
            macd.append(math.nan)
    normalized = {
        "macd": np.array(macd),
        "rsi": rsi,
        "so": k / 100.0,
        "wa": wa,
    }
    return normalized, faults


def grade_inputs(
    normalized: dict[str, float] | dict[str, np.ndarray],
    table: TermTable,
    delta: float | None = None,
) -> np.ndarray:
    """Grade the input terms at normalized values (see normalize_rows).

    `table` is the input terms' TermTable in STACKED_TERMS order
    (ResolvedConfig.input_terms). The values are equal-length arrays, one
    value per row; a float is a one-row block. Returns N rows' grades in
    STACKED_TERMS order: (terms, 1, N) type-1 grades at delta None, (terms, 2,
    N) (lower, upper) intervals at a footprint width delta >= 0, even 0. One
    grade_terms call grades every term at its input's column. Raises
    ValueError when delta is not None or >= 0 (NaN is neither), when
    `normalized` lacks an input, or when an input's values have more than one
    dimension.
    """
    if delta is not None and not delta >= 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    for name in VARIABLE_ORDER[:-1]:
        if name not in normalized:
            raise ValueError(f"no values for input variable {name!r}")
        if np.ndim(normalized[name]) > 1:
            raise ValueError(f"{name} values must be a float or a 1-D array, got shape "
                             f"{np.shape(normalized[name])}")
    x = np.array([normalized[name] for name, _ in STACKED_TERMS], dtype=float).reshape(
        len(STACKED_TERMS), -1)
    grades = grade_terms(table, x, delta)
    return grades if delta is not None else grades[:, None]  # type-1: stacked once
