import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fuzzsig
from fuzzsig import _frozen, fuzzy, inference
from fuzzsig.config import ResolvedConfig, parse_config_text
from fuzzsig.evaluate import backtest
from fuzzsig.fixtures import random_walk_series
from fuzzsig.fuzzy import (
    STACKED_TERMS,
    Gaussian,
    LeftShoulder,
    LinguisticVariable,
    RightShoulder,
    Triangular,
    VARIABLE_ORDER,
    _variables,
    default_mf_table,
    default_variables,
    grade_inputs,
    grade_terms,
    normalize_rows,
    term_table,
)
from fuzzsig.indicators import IndicatorSnapshot, snapshot

from helpers import aggregate_periods, coverage_checks, flat_series, grade
from oracles import shape_grade, shape_grade_bounds, swept_mf_bounds, term_grades

unit = st.floats(0.0, 1.0, allow_nan=False)


def sorted_triple(draw_from=unit):
    return st.tuples(draw_from, draw_from, draw_from).map(sorted)


@st.composite
def any_shape(draw):
    """Arbitrary shapes, degenerate edges included (zero-width ramps allowed)."""
    kind = draw(st.sampled_from(["tri", "left", "right", "gauss"]))
    if kind == "tri":
        a, b, c = draw(sorted_triple())
        return Triangular(a, b, c)
    if kind == "left":
        a, b = sorted(draw(st.tuples(unit, unit)))
        return LeftShoulder(a, b)
    if kind == "right":
        a, b = sorted(draw(st.tuples(unit, unit)))
        return RightShoulder(a, b)
    return Gaussian(draw(unit), draw(st.floats(0.01, 1.0)))


@st.composite
def smooth_shape(draw):
    """Shapes with bounded slopes so a finite parameter sweep can track them."""
    kind = draw(st.sampled_from(["tri", "left", "right", "gauss"]))
    gap = st.floats(0.1, 0.6)
    start = st.floats(0.0, 0.4)
    if kind == "tri":
        a = draw(start)
        b = a + draw(gap)
        return Triangular(a, b, b + draw(gap))
    if kind == "left":
        a = draw(start)
        return LeftShoulder(a, a + draw(gap))
    if kind == "right":
        a = draw(start)
        return RightShoulder(a, a + draw(gap))
    return Gaussian(draw(unit), draw(st.floats(0.08, 1.0)))


class TestShapes:
    def test_triangular_peak_is_one(self):
        assert grade(Triangular(0.236, 0.5, 0.618), 0.5) == 1.0

    def test_gaussian_center_is_one(self):
        assert grade(Gaussian(0.3, 0.15), 0.3) == 1.0

    def test_triangular_linear_interpolation(self):
        # (0.35 - 0.2) / (0.5 - 0.2)
        assert grade(Triangular(0.2, 0.5, 0.8), 0.35) == pytest.approx(0.5, rel=1e-12)

    def test_triangular_zero_outside_support(self):
        mf = Triangular(0.2, 0.5, 0.8)
        assert grade(mf, 0.1) == 0.0
        assert grade(mf, 0.9) == 0.0

    def test_shoulders(self):
        left = LeftShoulder(0.3, 0.45)
        assert grade(left, 0.0) == 1.0
        assert grade(left, 0.3) == 1.0
        assert grade(left, 0.375) == pytest.approx(0.5, rel=1e-12)
        assert grade(left, 0.45) == 0.0
        right = RightShoulder(0.55, 0.7)
        assert grade(right, 1.0) == 1.0
        assert grade(right, 0.7) == 1.0
        assert grade(right, 0.625) == pytest.approx(0.5, rel=1e-12)
        assert grade(right, 0.55) == 0.0

    def test_invalid_orderings_rejected(self):
        with pytest.raises(ValueError):
            Triangular(0.5, 0.3, 0.8)
        with pytest.raises(ValueError):
            LeftShoulder(0.5, 0.3)
        with pytest.raises(ValueError):
            RightShoulder(0.9, 0.3)
        with pytest.raises(ValueError):
            Gaussian(0.5, 0.0)

    @given(mf=any_shape(), x=st.floats(-0.5, 1.5))
    def test_grades_stay_in_unit_interval(self, mf, x):
        assert 0.0 <= grade(mf, x) <= 1.0

    def test_triangular_integrates_to_half_base(self):
        mf = Triangular(0.1, 0.45, 0.9)
        grid = np.linspace(0.0, 1.0, 1001)
        area = np.trapezoid(grade(mf, grid), grid)
        assert area == pytest.approx((0.9 - 0.1) / 2.0, abs=1e-3)


class TestIntervalGrades:
    def test_zero_delta_collapses_exactly(self):
        for mf in (Triangular(0.2, 0.5, 0.8), LeftShoulder(0.3, 0.45),
                   RightShoulder(0.55, 0.7), Gaussian(0.5, 0.15)):
            for x in np.linspace(-0.2, 1.2, 57):
                lo, hi = grade(mf, float(x), 0.0)
                g = grade(mf, float(x))
                assert lo == g and hi == g

    def test_gaussian_center_unaffected_by_width_blur(self):
        lo, hi = grade(Gaussian(0.5, 0.15), 0.5, 0.05)
        assert (lo, hi) == (1.0, 1.0)

    def test_triangular_interval_matches_parameter_sweep(self):
        mf = Triangular(0.2, 0.5, 0.8)
        lo, hi = grade(mf, 0.35, 0.05)
        slo, shi = swept_mf_bounds(mf, 0.35, 0.05, steps=1000)
        assert lo == pytest.approx(slo, abs=1e-3)
        assert hi == pytest.approx(shi, abs=1e-3)
        # hand values: window [0.30, 0.40] of the rising edge
        assert lo == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert hi == pytest.approx(2.0 / 3.0, rel=1e-12)

    @given(mf=smooth_shape(), x=st.floats(-0.5, 1.5), delta=st.floats(0.0, 0.2))
    def test_interval_matches_sweep_everywhere(self, mf, x, delta):
        lo, hi = grade(mf, x, delta)
        slo, shi = swept_mf_bounds(mf, x, delta, steps=400)
        # slope <= 10 and sweep step <= 1e-3 bound the discrepancy near 1e-2
        assert lo <= hi
        assert lo == pytest.approx(slo, abs=2e-2)
        assert hi == pytest.approx(shi, abs=2e-2)
        assert hi >= shi - 1e-12  # implementation envelope must contain the sweep
        assert lo <= slo + 1e-12

    @given(mf=any_shape(), xs=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=70),
           delta=st.sampled_from([0.0, 0.05, 0.3]))
    def test_array_bounds_equal_scalar_bounds_bitwise(self, mf, xs, delta):
        lo, hi = grade(mf, np.array(xs), delta)
        assert lo.shape == hi.shape == (len(xs),)
        for x, a, b in zip(xs, lo.tolist(), hi.tolist()):
            scalar = grade(mf, x, delta)
            assert all(type(g) is float for g in scalar)
            assert (a.hex(), b.hex()) == tuple(g.hex() for g in scalar)

    @given(mf=any_shape(), x=st.floats(-0.5, 1.5),
           d1=st.floats(0.0, 0.2), d2=st.floats(0.0, 0.2))
    def test_monotone_in_delta(self, mf, x, d1, d2):
        small, big = sorted((d1, d2))
        lo1, hi1 = grade(mf, x, small)
        lo2, hi2 = grade(mf, x, big)
        assert lo2 <= lo1 + 1e-15
        assert hi2 >= hi1 - 1e-15
        assert 0.0 <= lo1 <= hi1 <= 1.0


# breakpoints drawn from a few values, so that shapes often have degenerate edges
corner = st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.75, 1.0]) | unit


@st.composite
def any_term(draw):
    """A shape of any kind with breakpoints from `corner`: left == peak, foot == plateau_start, ..."""
    kind = draw(st.sampled_from(["tri", "left", "right", "gauss"]))
    if kind == "tri":
        return Triangular(*sorted(draw(st.tuples(corner, corner, corner))))
    if kind == "left":
        return LeftShoulder(*sorted(draw(st.tuples(corner, corner))))
    if kind == "right":
        return RightShoulder(*sorted(draw(st.tuples(corner, corner))))
    return Gaussian(draw(corner), draw(st.sampled_from([0.05, 0.22, 0.3]) | st.floats(0.01, 1.0)))


def breakpoints(mf):
    return [float(v) for v in mf._values()]


def hexes(values):
    return [v.hex() for v in np.ravel(values).tolist()]


@st.composite
def graded_points(draw, mfs, delta, size):
    """`size` points at the terms' breakpoints, at a breakpoint +/- delta, NaN or anywhere."""
    near = sorted({p + s for mf in mfs for p in breakpoints(mf) for s in (-delta, 0.0, delta)})
    point = st.sampled_from(near) | st.just(math.nan) | st.floats(-0.5, 1.5)
    return draw(st.lists(point, min_size=size, max_size=size))


DELTAS = [None, 0.0, 0.05, 0.15, 0.4]


class TestGradingKernel:
    """grade_terms, grade_inputs and one-term grade_terms against the per-shape oracle, bit for bit."""

    @given(data=st.data(), tables=st.lists(st.lists(any_term(), min_size=1, max_size=4),
                                           min_size=1, max_size=3),
           delta=st.sampled_from(DELTAS), rows=st.sampled_from([1, 64]))
    def test_grade_terms_equals_the_shape_formulas(self, data, tables, delta, rows):
        # each table's terms grade one shared column of points, as grade_inputs gathers them
        blur = 0.0 if delta is None else delta
        columns = [np.array(data.draw(graded_points(mfs, blur, rows))) for mfs in tables]
        terms = [(x, mf) for x, mfs in zip(columns, tables) for mf in mfs]
        graded = grade_terms(term_table(tuple(mf for _, mf in terms)),
                             np.array([x for x, _ in terms]), delta)
        assert graded.shape == ((len(terms), rows) if delta is None else (len(terms), 2, rows))
        for (x, mf), got in zip(terms, graded):
            if delta is None:
                assert hexes(got) == hexes(shape_grade(mf, x))
            else:
                want = shape_grade_bounds(mf, x, delta)
                assert (hexes(got[0]), hexes(got[1])) == (hexes(want[0]), hexes(want[1]))

    @pytest.mark.parametrize("delta", [None, 0.0, 0.05])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_grade_inputs_gathers_each_term_s_input_in_stacked_order(self, delta, rows):
        values = {"macd": [-0.4, 0.1, 0.7], "rsi": [0.3, 0.55, 1.1],
                  "so": [0.25, 0.5, 0.9], "wa": [0.1, 0.4, 0.7]}
        normalized = ({name: v[0] for name, v in values.items()} if rows is None
                      else {name: np.array(v) for name, v in values.items()})
        graded = grade_inputs(normalized, default_variables(), delta)
        # a float input is a one-row block
        assert graded.shape == (len(STACKED_TERMS), 1 if delta is None else 2, rows or 1)
        assert STACKED_TERMS == (("macd", "low"), ("macd", "high"), ("rsi", "low"),
                                 ("rsi", "medium"), ("rsi", "high"), ("so", "low"),
                                 ("so", "medium"), ("so", "high"), ("wa", "low"), ("wa", "high"))
        mfs = {(var.name, label): mf for var in default_variables() for label, mf in var.terms}
        for key, pair in zip(STACKED_TERMS, graded, strict=True):
            x = np.array(values[key[0]][:rows or 1])
            if delta is None:
                want = (shape_grade(mfs[key], x),) * 2
            else:
                want = shape_grade_bounds(mfs[key], x, delta)
            assert (hexes(pair[0]), hexes(pair[-1])) == (hexes(want[0]), hexes(want[1]))

    def test_grade_inputs_without_an_input_variable_is_an_error(self):
        with pytest.raises(ValueError, match=r"^no values for input variable 'macd'$"):
            grade_inputs({"volume": 0.5}, default_variables())

    def test_grade_inputs_rejects_values_of_more_than_one_dimension(self):
        # a (2, 3) array per variable used to be flattened into six rows
        with pytest.raises(ValueError, match=r"^macd values must be a float or a 1-D array, "
                                             r"got shape \(2, 3\)$"):
            grade_inputs({n: np.full((2, 3), 0.5) for n in ("macd", "rsi", "so", "wa")},
                         default_variables())

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_grade_inputs_rejects_a_negative_or_nan_delta(self, delta):
        with pytest.raises(ValueError, match=f"^delta must be >= 0, got {delta}$"):
            grade_inputs({"rsi": 0.5}, default_variables(), delta)

    def test_the_footprint_is_the_float_delta_and_grading_keeps_no_value_cache(self):
        with pytest.raises(AttributeError):
            fuzzsig.FootprintOfUncertainty
        assert not hasattr(ResolvedConfig(), "footprint")
        for uncached in (fuzzy._check_coverage, fuzzy.term_table):
            assert not hasattr(uncached, "cache_info")

    @given(data=st.data(), mf=any_term(), delta=st.sampled_from(DELTAS[1:]),
           rows=st.sampled_from([None, 1, 64]))
    def test_one_term_grades_equal_the_shape_formulas(self, data, mf, delta, rows):
        points = data.draw(graded_points([mf], delta, rows or 1))
        x = points[0] if rows is None else np.array(points)
        g = grade(mf, x)
        lower, upper = grade(mf, x, delta)
        if rows is None:
            assert type(g) is float and type(lower) is float and type(upper) is float
        else:
            assert g.shape == lower.shape == upper.shape == (rows,)
        assert hexes(g) == hexes(shape_grade(mf, x))
        want_lower, want_upper = shape_grade_bounds(mf, x, delta)
        assert (hexes(lower), hexes(upper)) == (hexes(want_lower), hexes(want_upper))


class TestDefaultVariables:
    def test_term_counts(self):
        labels = {v.name: tuple(label for label, _ in v.terms) for v in default_variables()}
        assert labels["macd"] == ("low", "high")
        assert labels["rsi"] == ("low", "medium", "high")
        assert labels["so"] == ("low", "medium", "high")
        assert labels["wa"] == ("low", "high")

    def test_output_variable_terms_and_domain(self):
        out = {v.name: v for v in default_variables()}["signal"]
        assert tuple(label for label, _ in out.terms) == ("sell", "hold", "buy")
        assert out.domain == (0.0, 1.0)

    def test_every_variable_passes_coverage_on_1001_grid(self):
        for var in default_variables():
            grid = np.linspace(var.domain[0], var.domain[1], 1001)
            cover = np.max([grade(mf, grid) for _, mf in var.terms], axis=0)
            assert cover.min() >= 0.05

    def test_uncovered_variable_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            LinguisticVariable("x", (0.0, 1.0), (("only", Triangular(0.4, 0.5, 0.6)),))

    @pytest.mark.parametrize("mf", [Gaussian(float("nan"), 0.3),
                                    Triangular(-float("inf"), 0.5, 1.0)])
    def test_nonfinite_grades_rejected_naming_the_term(self, mf):
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="'x': term 'a' has a non-finite grade"):
            LinguisticVariable("x", (0.0, 1.0), (("a", mf), ("b", Gaussian(0.5, 0.3))))

    @pytest.mark.parametrize("terms", [
        (("only", Triangular(0.4, 0.5, 0.6)),),
        (("a", Gaussian(float("nan"), 0.3)), ("b", Gaussian(0.5, 0.3))),
    ])
    def test_a_rejected_table_raises_the_same_text_on_every_construction(self, terms):
        # each construction grades the grid afresh
        messages = []
        for _ in range(2):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError) as caught:
                LinguisticVariable("x", (0.0, 1.0), terms)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_coverage_is_graded_once_per_distinct_table(self, monkeypatch):
        # the second call reuses the first call's variables, so nothing is graded again
        checked = coverage_checks(monkeypatch)
        _variables.cache_clear()
        first = default_variables()
        assert default_variables() is first
        assert checked == list(VARIABLE_ORDER)
        assert _variables.cache_info().maxsize is not None  # bounded

    def test_equal_tables_share_one_tuple_with_one_hash(self):
        table = default_mf_table()
        copied = {name: tuple((label, copy.copy(mf)) for label, mf in terms)
                  for name, terms in table.items()}
        listed = {name: [list(pair) for pair in terms] for name, terms in table.items()}
        a = default_variables(mf_table=table)
        for other in (default_variables(), default_variables(mf_table=copied),
                      default_variables(mf_table=listed), default_variables(divisor=89)):
            assert other is a
            assert hash(other) == hash(a)

    @pytest.mark.parametrize("make", [lambda: ResolvedConfig(delta=0),
                                      lambda: parse_config_text("fuzzy.delta = 0\n")],
                             ids=["constructed", "parsed"])
    def test_configs_built_apart_share_the_default_membership_functions(self, make,
                                                                         monkeypatch):
        # equal configs hold the same membership-function objects, so the caches keyed
        # on them match by identity and compare no shape by value. An equal table built
        # apart, cached first by another test, would be compared by value: the caches
        # start empty here
        assert make().mf_table["rsi"][0] is default_mf_table()["rsi"][0]
        for cache in (fuzzy._variables, fuzzy._input_terms, inference._output_grades):
            cache.cache_clear()
        series = random_walk_series("EQ", 7, periods=80)
        backtest(series, make())
        compared = []
        value_eq = _frozen.Value.__eq__
        monkeypatch.setattr(_frozen.Value, "__eq__",
                            lambda a, b: compared.append(a) or value_eq(a, b))
        assert len(backtest(series, make()).records) > 40
        assert compared == []

    def test_one_changed_gaussian_width_gives_another_tuple(self):
        table = default_mf_table()
        table["wa"] = (("low", Gaussian(0.236, 0.23)), table["wa"][1])
        changed = default_variables(mf_table=table)
        assert changed != default_variables()
        assert changed[3] != default_variables()[3]
        assert changed[:3] == default_variables()[:3]

    def test_shapes_of_other_types_with_the_same_parameters_differ(self):
        # shapes compare by type, as tuples would not: _variables keys its cache on them
        shapes = [LeftShoulder(0.2, 0.5), RightShoulder(0.2, 0.5), Gaussian(0.2, 0.5)]
        for i, a in enumerate(shapes):
            for b in shapes[i + 1:]:
                assert a != b and b != a
        table = default_mf_table()
        assert table["so"][0] == ("low", LeftShoulder(0.2, 0.5))
        table["so"] = (("low", Gaussian(0.2, 0.5)), *table["so"][1:])
        changed = default_variables(mf_table=table)
        assert changed is not default_variables()
        assert changed[2].terms[0] == ("low", Gaussian(0.2, 0.5))
        assert default_variables()[2].terms[0] == ("low", LeftShoulder(0.2, 0.5))

    def test_a_rejected_table_raises_the_same_text_on_every_call(self):
        table = default_mf_table()
        table["rsi"] = (("low", LeftShoulder(0.1, 0.2)), *table["rsi"][1:])  # a gap below medium
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError) as caught:
                default_variables(mf_table=table)
            messages.append(str(caught.value))
        assert messages == [messages[0]] * 3
        assert "'rsi': terms cover x=" in messages[0]

    @pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy,
                                       lambda v: tuple(map(copy.copy, v))])
    def test_a_copied_variable_hashes_afresh(self, clone):
        fresh = default_variables()
        # built apart from the cached tuple, each keeping a hash made under another salt
        salted = tuple(LinguisticVariable(var.name, var.domain, var.terms) for var in fresh)
        for var in salted:
            object.__setattr__(var, "_hash", hash(var) + 1)
        copied = clone(salted)
        assert [hash(var) for var in copied] == [hash(var) for var in fresh]
        assert copied == fresh
        assert hash(copied) == hash(fresh)
        assert [hash(mf) for var in copied for _, mf in var.terms] == \
            [hash(mf) for var in fresh for _, mf in var.terms]

    def test_a_variable_pickled_under_another_hash_seed_hashes_as_built_here(self):
        # str hashes are salted per process: a kept hash must not travel in the pickle
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        code = ("import pickle, sys; from fuzzsig.fuzzy import default_variables; "
                "v = default_variables(); hash(v); sys.stdout.buffer.write(pickle.dumps(v))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             check=True).stdout
        loaded = pickle.loads(out)
        assert loaded == default_variables()
        assert hash(loaded) == hash(default_variables())
        assert {loaded[0]: "found"}[default_variables()[0]] == "found"

    def test_list_arguments_become_tuples(self):
        var = LinguisticVariable("x", [0.0, 1.0], [["a", Gaussian(0.5, 0.3)]])
        assert var == LinguisticVariable("x", (0.0, 1.0), (("a", Gaussian(0.5, 0.3)),))
        assert hash(var) == hash(LinguisticVariable("x", (0.0, 1.0), (("a", Gaussian(0.5, 0.3)),)))


def flat_snapshot():
    return snapshot(aggregate_periods(flat_series(periods=40), 15))


def graded(snap, delta=None):
    """One row's fuzzification, as recommend_rows does it: normalize_rows, then grade_inputs."""
    normalized, faults = normalize_rows(snap)
    assert not faults
    return grade_inputs(normalized, default_variables(), delta)


class TestFuzzify:
    def test_rsi_89_grades(self):
        snap = flat_snapshot()._replace(rsi=89.0)
        out = term_grades(graded(snap))
        assert out["rsi"]["high"] == (1.0, 1.0)
        assert out["rsi"]["medium"] == (0.0, 0.0)
        assert out["rsi"]["low"] == (0.0, 0.0)

    def test_percent_k_50_is_pure_medium(self):
        snap = flat_snapshot()
        assert snap.stochastic_k == 50.0
        out = term_grades(graded(snap))
        assert out["so"]["medium"] == (1.0, 1.0)
        assert out["so"]["low"] == (0.0, 0.0)
        assert out["so"]["high"] == (0.0, 0.0)

    def test_neutral_macd_grades_are_symmetric(self):
        snap = flat_snapshot()
        assert snap.histogram == 0.0
        out = term_grades(graded(snap))
        assert out["macd"]["high"] == out["macd"]["low"]

    def test_interval_mode_flags_and_nests_type1(self):
        snap = flat_snapshot()
        plain = graded(snap)
        assert plain.shape == (len(STACKED_TERMS), 1, 1)
        blurred = graded(snap, 0.05)
        assert blurred.shape == (len(STACKED_TERMS), 2, 1)
        blurred_grades = term_grades(blurred)
        for var, terms in term_grades(plain).items():
            for term, (g, _) in terms.items():
                lo, hi = blurred_grades[var][term]
                assert lo <= g <= hi

    def test_normalization_values(self):
        snap = flat_snapshot()
        normalized, faults = normalize_rows(snap)
        assert not faults
        normalized = {name: x.item() for name, x in normalized.items()}
        assert normalized["macd"] == 0.0
        assert normalized["so"] == 0.5
        assert normalized["rsi"] == pytest.approx(50.0 / 89.0, rel=1e-12)
        assert normalized["wa"] == pytest.approx(50.0 / 89.0, rel=1e-12)


def block_snapshot(**columns):
    """A block snapshot: the flat snapshot's values, with the given columns replaced."""
    n = len(next(iter(columns.values())))
    base = {name: np.full(n, value)
            for name, value in flat_snapshot()._asdict().items()}
    return IndicatorSnapshot(**{**base, **{k: np.asarray(v, dtype=float)
                                           for k, v in columns.items()}})


def one_row(block, i):
    return IndicatorSnapshot(*(float(x[i]) for x in block))


class TestNormalizeRows:
    def test_rows_equal_one_row_calls_and_faults_keep_their_notes(self):
        # RSI is checked before Williams, and a zero close fails the MACD ratio first
        block = block_snapshot(
            histogram=[0.3, -0.2, 0.1, 0.0, 0.4, 0.5],
            close=[10.0, 12.0, 9.0, 0.0, 11.0, 8.0],
            rsi=[55.0, 101.0, 40.0, 50.0, -1.0, 60.0],
            williams=[-20.0, -30.0, 0.25, -40.0, 3.0, -100.0],
        )
        normalized, faults = normalize_rows(block, divisor=89.0, histogram_gain=50.0)
        assert sorted(faults) == [1, 2, 3, 4]
        for i in range(6):
            snap = one_row(block, i)
            if i not in faults:
                want, none = normalize_rows(snap, divisor=89.0, histogram_gain=50.0)
                assert not none
                assert {k: x[i].hex() for k, x in normalized.items()} == \
                    {k: v.item().hex() for k, v in want.items()}
                continue
            _, alone = normalize_rows(snap, divisor=89.0, histogram_gain=50.0)
            assert list(alone) == [0]
            assert (type(alone[0]), str(alone[0])) == (type(faults[i]), str(faults[i]))
        assert str(faults[1]) == "RSI out of range [0, 100]: 101.0"
        assert str(faults[2]) == "Williams value out of range [-100, 0]: 0.25"
        assert str(faults[3]) == "float division by zero"
        assert str(faults[4]) == "RSI out of range [0, 100]: -1.0"

    def test_bad_divisor_fails_every_row_with_its_note(self):
        block = block_snapshot(rsi=[20.0, 200.0])
        _, faults = normalize_rows(block, divisor=0.0)
        assert [str(faults[i]) for i in (0, 1)] == [
            "divisor must be positive, got 0.0", "RSI out of range [0, 100]: 200.0"]

    def test_macd_input_is_math_tanh_per_element(self):
        x = np.random.default_rng(11).uniform(-4.0, 4.0, 20_000)
        want = [math.tanh(v) for v in x.tolist()]
        if all(a == b for a, b in zip(np.tanh(x).tolist(), want)):
            pytest.skip("np.tanh equals math.tanh on every sampled input on this CPU")
        normalized, faults = normalize_rows(
            block_snapshot(histogram=x, close=np.ones_like(x)), histogram_gain=1.0)
        assert not faults
        assert [v.hex() for v in normalized["macd"].tolist()] == [v.hex() for v in want]
