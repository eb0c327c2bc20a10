import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzsig.config import ResolvedConfig
from fuzzsig.fixtures import portfolio_fixture
from fuzzsig.fuzzy import (
    STACKED_TERMS,
    LinguisticVariable,
    default_variables,
    grade_inputs,
    normalize_rows,
)
from fuzzsig.indicators import IndicatorSnapshot, indicator_block, snapshot
from fuzzsig.inference import (
    ANTECEDENT_TERMS,
    BLOCK_ROWS,
    VOTES,
    AggregatedOutput,
    InferenceError,
    PipelineError,
    Rule,
    RuleBase,
    Signal,
    _output_grades,
    _switch_points,
    build_rule_base,
    classify_signal,
    defuzzify,
    fire_rules,
    km_type_reduce,
    recommend,
    recommend_rows,
    rules_from_csv,
    rules_to_csv,
)

from helpers import aggregate_periods, downtrend_series, flat_series, grade, uptrend_series
from oracles import brute_force_aggregate, enumerated_km, max_of_clips, stacked_inputs

OUTPUT_VAR = next(v for v in default_variables() if v.name == "signal")


def random_grades(rng, interval=False):
    grades = {}
    for name, terms in ANTECEDENT_TERMS.items():
        per_term = {}
        for term in terms:
            a, b = sorted((rng.random(), rng.random()))
            per_term[term] = (a, b) if interval else (b, b)
        grades[name] = per_term
    return grades


def random_inputs(rng, interval=False):
    return stacked_inputs(random_grades(rng, interval), interval)


def singleton_grades(macd, rsi, so, wa):
    return {
        name: {term: ((1.0, 1.0) if term == pick else (0.0, 0.0))
               for term in ANTECEDENT_TERMS[name]}
        for name, pick in zip(("macd", "rsi", "so", "wa"), (macd, rsi, so, wa))
    }


def singleton_inputs(macd, rsi, so, wa):
    return stacked_inputs(singleton_grades(macd, rsi, so, wa), interval=False)


class TestRuleBase:
    def test_exactly_36_distinct_exhaustive_antecedents(self):
        base = build_rule_base()
        assert len(base.rules) == 36
        antecedents = {rule.antecedent() for rule in base.rules}
        assert len(antecedents) == 36
        product = set(itertools.product(
            ANTECEDENT_TERMS["macd"], ANTECEDENT_TERMS["rsi"],
            ANTECEDENT_TERMS["so"], ANTECEDENT_TERMS["wa"]))
        assert antecedents == product

    def test_hand_evaluated_votes(self):
        base = {rule.antecedent(): rule for rule in build_rule_base().rules}
        top = base[("high", "high", "low", "high")]
        assert top.score == 6 and top.consequent is Signal.BUY
        bottom = base[("low", "low", "high", "low")]
        assert bottom.score == -6 and bottom.consequent is Signal.SELL
        mixed = base[("high", "medium", "high", "low")]
        assert mixed.score == -1 and mixed.consequent is Signal.HOLD

    def test_consequent_split_is_symmetric(self):
        base = build_rule_base()
        counts = {s: sum(r.consequent is s for r in base.rules) for s in Signal}
        assert counts[Signal.BUY] == counts[Signal.SELL] == counts[Signal.HOLD] == 12

    def test_bad_parameters_rejected(self):
        with pytest.raises(InferenceError):
            build_rule_base(primary_weight=0)
        with pytest.raises(InferenceError):
            build_rule_base(buy_at=-2, sell_at=2)


class TestFireRules:
    def test_zero_inputs_give_zero_aggregate(self):
        grades = {name: {t: (0.0, 0.0) for t in terms}
                  for name, terms in ANTECEDENT_TERMS.items()}
        inputs = stacked_inputs(grades, interval=False)
        agg = fire_rules(inputs, build_rule_base(), OUTPUT_VAR)
        assert not np.any(agg.upper)
        assert not np.any(agg.lower)

    def test_single_rule_at_full_strength_reproduces_consequent(self):
        inputs = singleton_inputs("low", "low", "medium", "low")  # score -4, Sell
        agg = fire_rules(inputs, build_rule_base(), OUTPUT_VAR)
        expected = grade(dict(OUTPUT_VAR.terms)["sell"], agg.grid)
        assert np.array_equal(agg.upper, [expected])

    def test_matches_per_gridpoint_double_loop(self):
        rng = random.Random(99)
        base = build_rule_base()
        for interval in (False, True):
            inputs = random_inputs(rng, interval=interval)
            agg = fire_rules(inputs, base, OUTPUT_VAR, grid_points=201)
            lo, hi = brute_force_aggregate(inputs, base, OUTPUT_VAR, agg.grid)
            assert np.allclose(agg.lower, lo, rtol=0, atol=0)
            assert np.allclose(agg.upper, hi, rtol=0, atol=0)

    @pytest.mark.parametrize("interval", [False, True])
    @pytest.mark.parametrize("rows", [1, 9])
    def test_folded_clips_match_one_max_over_all_clips(self, interval, rows):
        # signed zeros and NaN grades included: the fold must keep each bit of the one-array max
        rng = np.random.default_rng(rows + interval)
        pool = np.array([0.0, -0.0, np.nan, 0.25, 0.5, 1.0, *rng.random(4)])
        sell_only = RuleBase(tuple(r for r in build_rule_base().rules
                                   if r.consequent is Signal.SELL))
        for base in (build_rule_base(), sell_only, RuleBase(())):
            for _ in range(20):
                grades = {name: {t: tuple(rng.choice(pool, (2, rows))) for t in terms}
                          for name, terms in ANTECEDENT_TERMS.items()}
                inputs = stacked_inputs(grades, interval)
                agg = fire_rules(inputs, base, OUTPUT_VAR, grid_points=101)
                lower, upper = max_of_clips(inputs, base, OUTPUT_VAR, grid_points=101)
                assert agg.lower.tobytes() == lower.tobytes()
                assert agg.upper.tobytes() == upper.tobytes()

    def test_rule_order_shuffle_is_bit_identical(self):
        rng = random.Random(5)
        base = build_rule_base()
        inputs = random_inputs(rng, interval=True)
        agg = fire_rules(inputs, base, OUTPUT_VAR)
        shuffled = list(base.rules)
        rng.shuffle(shuffled)
        agg2 = fire_rules(inputs, RuleBase(tuple(shuffled)), OUTPUT_VAR)
        assert np.array_equal(agg.upper, agg2.upper)
        assert np.array_equal(agg.lower, agg2.lower)
        assert np.array_equal(defuzzify(agg), defuzzify(agg2))

    def test_unknown_term_rejected(self):
        inputs = singleton_inputs("low", "low", "low", "low")
        bad = RuleBase((Rule("low", "weird", "low", "low", Signal.SELL),))
        with pytest.raises(InferenceError, match="unknown"):
            fire_rules(inputs, bad, OUTPUT_VAR)

    def test_inputs_lacking_a_variable_rejected(self):
        values = {name: 0.5 for name in ANTECEDENT_TERMS if name != "so"}
        with pytest.raises(ValueError, match=r"^no values for input variable 'so'$"):
            grade_inputs(values, default_variables())

    def test_votes_name_the_stacked_terms_in_their_order(self):
        # RuleBase.index reads rule terms against the rows grade_inputs writes
        assert tuple((name, term) for name, votes in VOTES.items()
                     for term in votes) == STACKED_TERMS

    @pytest.mark.parametrize("delta", [None, 0.05])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_variables_with_reordered_terms_grade_like_the_default_order(self, delta, rows):
        # grade_inputs finds each term by (variable, term): neither the order of the
        # variables nor that of their terms moves a grade bit
        variables = default_variables()
        reordered = tuple(LinguisticVariable(v.name, v.domain, v.terms[::-1])
                          for v in variables[::-1])
        rng = np.random.default_rng(rows or 0)
        values = {name: rng.random(rows or 1) for name in ANTECEDENT_TERMS}
        normalized = {k: v[0].item() for k, v in values.items()} if rows is None else values
        grades = grade_inputs(normalized, variables, delta)
        assert grades.shape == (len(STACKED_TERMS), 1 if delta is None else 2, rows or 1)
        assert grade_inputs(normalized, reordered, delta).tobytes() == grades.tobytes()
        base = build_rule_base()
        agg = fire_rules(grades, base, OUTPUT_VAR)
        again = fire_rules(grade_inputs(normalized, reordered, delta), base, OUTPUT_VAR)
        assert again.upper.tobytes() == agg.upper.tobytes()
        assert again.lower.tobytes() == agg.lower.tobytes()

    def test_extra_term_rows_rejected(self):
        grades = stacked_inputs(singleton_grades("low", "low", "low", "low"), interval=True)
        extra = np.concatenate((grades, grades[:1]))
        message = "grades must be a (10, 1 or 2, N) array, got shape (11, 2, 1)"
        with pytest.raises(InferenceError, match=f"^{re.escape(message)}$"):
            fire_rules(extra, build_rule_base(), OUTPUT_VAR)

    def test_variables_lacking_a_term_fail_at_fuzzification(self, monkeypatch):
        variables = tuple(
            LinguisticVariable(v.name, v.domain, tuple(("mid" if label == "medium" else label, mf)
                                                       for label, mf in v.terms))
            if v.name == "rsi" else v for v in default_variables())
        renamed = "no membership function for input term ('rsi', 'medium')"
        with pytest.raises(ValueError, match=f"^{re.escape(renamed)}$"):
            grade_inputs({name: 0.5 for name in ANTECEDENT_TERMS}, variables)
        with pytest.raises(ValueError, match=re.escape(
                "no membership function for input term ('so', 'low')")):
            grade_inputs({name: 0.5 for name in ANTECEDENT_TERMS},
                         tuple(v for v in default_variables() if v.name != "so"))
        snap = snapshot(aggregate_periods(flat_series(periods=40), 15))
        # validate keeps such a table out of a config, so the config's builder is patched
        monkeypatch.setattr(ResolvedConfig, "build_variables", lambda cfg: variables)
        [result] = recommend_rows(["FLAT"], snap, ResolvedConfig())
        assert isinstance(result, PipelineError) and result.stage == "fuzzification"
        assert str(result) == f"fuzzification: {renamed}"

    def test_output_variable_lacking_a_consequent_term_rejected(self):
        renamed = tuple(("up" if label == "buy" else label, mf) for label, mf in OUTPUT_VAR.terms)
        output_var = LinguisticVariable("signal", OUTPUT_VAR.domain, renamed)
        inputs = singleton_inputs("low", "low", "low", "low")
        for _ in range(2):  # the output grades are cached, the failure is not
            with pytest.raises(InferenceError, match="output variable has no term 'buy'"):
                fire_rules(inputs, build_rule_base(), output_var)

    def test_output_grid_and_grades_are_shared_read_only(self):
        inputs = singleton_inputs("high", "low", "high", "low")
        first = fire_rules(inputs, build_rule_base(), OUTPUT_VAR, grid_points=101)
        second = fire_rules(inputs, build_rule_base(), OUTPUT_VAR, grid_points=101)
        assert first.grid is second.grid
        grid, mu = _output_grades(OUTPUT_VAR, 101, ("sell", "hold", "buy"))
        for shared in (first.grid, grid, mu):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.5
        assert _output_grades.cache_info().maxsize is not None  # bounded

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.3])
    def test_block_rows_match_oracle_on_fixture_grades(self, delta):
        # one block of fuzzified fixture snapshots: every row of the (rows, grid)
        # envelopes equals the per-gridpoint oracle and the firing of its one-row block
        blur = delta if delta else None
        variables = default_variables()
        snaps = [snapshot(aggregate_periods(s, 15))
                 for s in portfolio_fixture(seed=8, symbols=12, periods=40)]
        rows = [grade_inputs(normalize_rows(snap)[0], variables, blur) for snap in snaps]
        block = grade_inputs(
            {name: np.concatenate([normalize_rows(snap)[0][name] for snap in snaps])
             for name in ANTECEDENT_TERMS}, variables, blur)
        base = build_rule_base()
        agg = fire_rules(block, base, OUTPUT_VAR, grid_points=201)
        assert agg.lower.shape == agg.upper.shape == (len(snaps), 201)
        for i, inputs in enumerate(rows):
            one = fire_rules(inputs, base, OUTPUT_VAR, grid_points=201)
            assert one.lower.shape == one.upper.shape == (1, 201)
            lo, hi = brute_force_aggregate(block, base, OUTPUT_VAR, agg.grid, row=i)
            for envelope, row, expected in ((agg.lower, one.lower, lo), (agg.upper, one.upper, hi)):
                assert envelope[i].tobytes() == row[0].tobytes() == expected.tobytes()


def interval_aggregate(rng, points=101):
    """A one-row interval aggregate: (1, points) envelopes."""
    grid = np.linspace(0.0, 1.0, points)
    upper = rng.random((1, points))
    lower = upper * rng.random((1, points))
    return AggregatedOutput(grid=grid, lower=lower, upper=upper, interval=True)


class TestKmTypeReduce:
    @pytest.mark.parametrize("pick, empty, want", [(np.argmin, np.inf, [1, 0, 3, 1]),
                                                   (np.argmax, -np.inf, [1, 3, 0, 1])])
    def test_the_all_tail_switch_point_ranks_last(self, pick, empty, want):
        # j = 0 takes every weight from the tail: it wins only where it beats every
        # interior j outright. Row 0 ties everywhere, rows 1 and 2 mirror each
        # other, and row 3's NaN weights score as no weight at every j.
        x = np.array([0.0, 0.5, 1.0])
        head = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        tail = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        head[3, 1] = tail[3, 1] = np.nan
        assert _switch_points(x, head, tail, pick, empty).tolist() == want
        # a NaN grid point makes every score NaN; pick takes the first interior one
        nan_x = np.array([0.0, np.nan, 1.0])
        assert _switch_points(nan_x, head[:1], tail[:1], pick, empty).tolist() == [1]

    def test_degenerate_intervals_equal_type1_centroid(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            grid = np.linspace(0.0, 1.0, 101)
            mu = rng.random(101)
            agg = AggregatedOutput(grid=grid, lower=mu[None], upper=mu[None], interval=True)
            [y_l], [y_r] = km_type_reduce(agg)
            centroid = float(np.trapezoid(grid * mu, grid) / np.trapezoid(mu, grid))
            assert y_l == pytest.approx(centroid, abs=1e-9)
            assert y_r == pytest.approx(centroid, abs=1e-9)

    def test_symmetric_set_reduces_symmetrically(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            half = rng.random(50)
            lower_half = half * rng.random(50)
            mid_u, mid_l = rng.random(), 0.0
            upper = np.concatenate((half, [max(mid_u, 1e-3)], half[::-1]))
            lower = np.concatenate((lower_half, [mid_l], lower_half[::-1]))
            agg = AggregatedOutput(grid=np.linspace(0, 1, 101),
                                   lower=lower[None], upper=upper[None], interval=True)
            [y_l], [y_r] = km_type_reduce(agg)
            assert y_l + y_r == pytest.approx(1.0, abs=1e-9)

    def test_matches_switch_point_enumeration(self):
        # the sampled set carries trapezoid quadrature weights; the oracle
        # searches the same set with an explicit loop over switch points
        rng = np.random.default_rng(31)
        cases = [(interval_aggregate(rng), None) for _ in range(50)]
        # lower = 0 leaves both sides of many switch points without any weight;
        # at hold clipped at 0.35, total minus prefix would leave residue there
        grid = np.linspace(0.0, 1.0, 1001)
        zeros = np.zeros((1, len(grid)))
        for upper, expected in (
            (np.minimum(grade(dict(OUTPUT_VAR.terms)["sell"], grid), 0.5), (0.0, 0.449)),
            (np.minimum(grade(dict(OUTPUT_VAR.terms)["buy"], grid), 0.5), (0.551, 1.0)),
            (np.minimum(grade(dict(OUTPUT_VAR.terms)["hold"], grid), 0.35), (0.35, 0.649)),
            (np.where(grid == 0.0, 1.0, 0.0), (0.0, 0.0)),  # mass at one end only
        ):
            cases.append((AggregatedOutput(grid, zeros, upper[None], interval=True), expected))
        for agg, expected in cases:
            quad = np.ones(len(agg.grid))
            quad[0] = quad[-1] = 0.5
            [y_l], [y_r] = km_type_reduce(agg)
            e_l, e_r = enumerated_km(agg.grid, quad * agg.lower[0], quad * agg.upper[0])
            assert y_l == pytest.approx(e_l, abs=1e-9)
            assert y_r == pytest.approx(e_r, abs=1e-9)
            if expected is not None:
                assert (y_l, y_r) == pytest.approx(expected, abs=1e-9)

    def test_all_zero_aggregate_errors(self):
        zeros = np.zeros((1, 101))
        agg = AggregatedOutput(np.linspace(0, 1, 101), zeros, zeros, interval=True)
        with pytest.raises(InferenceError, match="no rule fired"):
            km_type_reduce(agg)

    def test_block_rows_equal_one_row_results_bitwise(self):
        rng = np.random.default_rng(41)
        # a 9-row block against 9 one-row blocks
        rows = [interval_aggregate(rng) for _ in range(9)]
        block = AggregatedOutput(rows[0].grid, np.concatenate([a.lower for a in rows]),
                                 np.concatenate([a.upper for a in rows]), interval=True)
        y_l, y_r = km_type_reduce(block)
        assert [(a.hex(), b.hex()) for a, b in zip(y_l.tolist(), y_r.tolist())] == \
            [tuple(y.item().hex() for y in km_type_reduce(a)) for a in rows]
        type1 = AggregatedOutput(block.grid, block.lower, block.upper, interval=False)
        assert [c.hex() for c in defuzzify(type1).tolist()] == \
            [defuzzify(AggregatedOutput(a.grid, a.lower, a.upper, interval=False)).item().hex()
             for a in rows]

    def test_block_with_one_dead_row_errors(self):
        rng = np.random.default_rng(43)
        rows = [interval_aggregate(rng) for _ in range(3)]
        upper = np.concatenate([a.upper for a in rows])
        upper[1] = 0.0
        block = AggregatedOutput(rows[0].grid, np.zeros_like(upper), upper, interval=True)
        with pytest.raises(InferenceError, match="no rule fired"):
            km_type_reduce(block)
        with pytest.raises(InferenceError, match="no rule fired"):
            defuzzify(AggregatedOutput(block.grid, block.lower, block.upper, interval=False))


class TestDefuzzify:
    def test_hold_term_alone_centers_at_half(self):
        grid = np.linspace(0.0, 1.0, 1001)
        mu = grade(dict(OUTPUT_VAR.terms)["hold"], grid)[None]
        agg = AggregatedOutput(grid, mu, mu, interval=False)
        [crisp] = defuzzify(agg)
        assert crisp == pytest.approx(0.5, abs=1e-6)

    def test_symmetric_aggregate_centers_at_half(self):
        rng = np.random.default_rng(41)
        half = rng.random(500)
        mu = np.concatenate((half, [rng.random()], half[::-1]))[None]
        agg = AggregatedOutput(np.linspace(0, 1, 1001), mu, mu, interval=False)
        [crisp] = defuzzify(agg)
        assert crisp == pytest.approx(0.5, abs=1e-6)

    def test_matches_fine_grid_refinement(self):
        rng = np.random.default_rng(43)
        base = build_rule_base()
        for _ in range(20):
            inputs = random_inputs(random.Random(int(rng.integers(1 << 30))))
            coarse = fire_rules(inputs, base, OUTPUT_VAR, grid_points=1001)
            fine = fire_rules(inputs, base, OUTPUT_VAR, grid_points=100001)
            [crisp_coarse], [crisp_fine] = defuzzify(coarse), defuzzify(fine)
            assert crisp_coarse == pytest.approx(crisp_fine, abs=1e-4)

    def test_all_zero_errors(self):
        zeros = np.zeros((1, 101))
        agg = AggregatedOutput(np.linspace(0, 1, 101), zeros, zeros, interval=False)
        with pytest.raises(InferenceError, match="no rule fired"):
            defuzzify(agg)


class TestClassifySignal:
    @pytest.mark.parametrize("crisp,expected", [
        (0.3, Signal.SELL),
        (0.4, Signal.HOLD),
        (0.7, Signal.BUY),
        (0.0, Signal.SELL),
        (0.39999, Signal.SELL),
        (0.59999, Signal.HOLD),
        (0.6, Signal.BUY),
        (1.0, Signal.BUY),
    ])
    def test_fixture_mapping(self, crisp, expected):
        assert classify_signal(crisp) is expected

    def test_out_of_range_rejected(self):
        with pytest.raises(InferenceError):
            classify_signal(-0.01)
        with pytest.raises(InferenceError):
            classify_signal(1.01)

    @given(crisp=st.floats(0.0, 1.0))
    def test_total_on_unit_interval(self, crisp):
        assert classify_signal(crisp) in set(Signal)


class TestConsequentOrdering:
    def test_singleton_activations_order_by_consequent(self):
        base = build_rule_base()
        for rule in base.rules:
            inputs = singleton_inputs(*rule.antecedent())
            agg = fire_rules(inputs, base, OUTPUT_VAR)
            [crisp] = defuzzify(agg)
            if rule.consequent is Signal.SELL:
                assert crisp < 0.4
            elif rule.consequent is Signal.BUY:
                assert crisp > 0.6
            else:
                assert 0.4 < crisp < 0.6


class TestRecommend:
    def test_uptrend_is_buy(self):
        rec = recommend(uptrend_series())
        assert rec.signal is Signal.BUY

    def test_downtrend_is_sell(self):
        rec = recommend(downtrend_series())
        assert rec.signal is Signal.SELL

    def test_flat_series_is_neutral_hold(self):
        rec = recommend(flat_series())
        assert rec.crisp == pytest.approx(0.5, abs=1e-6)
        assert rec.signal is Signal.HOLD
        y_l, y_r = rec.centroid_interval
        assert y_l <= 0.5 <= y_r

    def test_directional_sanity_without_footprint(self):
        cfg = ResolvedConfig(delta=0.0)
        assert recommend(uptrend_series(), cfg).signal is Signal.BUY
        assert recommend(downtrend_series(), cfg).signal is Signal.SELL
        flat = recommend(flat_series(), cfg)
        assert flat.crisp == pytest.approx(0.5, abs=1e-6)
        assert flat.centroid_interval is None

    def test_pipeline_is_deterministic(self):
        a = recommend(uptrend_series())
        b = recommend(uptrend_series())
        assert a == b

    def test_errors_name_their_stage(self):
        from fuzzsig.inference import PipelineError
        from fuzzsig.market_data import PriceSeries

        tiny = PriceSeries("T", uptrend_series().bars[:10])
        with pytest.raises(PipelineError, match="aggregation"):
            recommend(tiny)
        short = PriceSeries("T", uptrend_series().bars[:300])
        with pytest.raises(PipelineError, match="indicators"):
            recommend(short)

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2])
    def test_pipeline_equals_the_public_one_row_chain(self, delta):
        # recommend runs rows through recommend_rows; the public layers on each
        # row's one-row block, and on one block of all the rows, give the same bits
        cfg = ResolvedConfig(delta=delta)
        variables, base = cfg.build_variables(), cfg.rule_base
        output_var = next(v for v in variables if v.name == "signal")
        scale = {"divisor": cfg.divisor, "histogram_gain": cfg.histogram_gain}

        def chain(inputs):
            agg = fire_rules(inputs, base, output_var, cfg.grid_points)
            crisp = defuzzify(agg).tolist()
            if not delta:
                return [(c, None) for c in crisp]
            y_l, y_r = km_type_reduce(agg)
            return list(zip(crisp, zip(y_l.tolist(), y_r.tolist())))

        basket = portfolio_fixture(seed=37, symbols=20, periods=52)
        snaps = [snapshot(aggregate_periods(series, cfg.days_per_period), **cfg.indicator_windows)
                 for series in basket]
        columns = IndicatorSnapshot(*np.array(snaps).T)
        normalized, faults = normalize_rows(columns, **scale)
        assert not faults
        blur = delta if delta else None
        block = chain(grade_inputs(normalized, variables, blur))
        for series, snap, (crisp, interval) in zip(basket, snaps, block):
            [alone] = chain(grade_inputs(normalize_rows(snap, **scale)[0], variables, blur))
            assert (crisp.hex(), interval) == (alone[0].hex(), alone[1])
            rec = recommend(series, cfg)
            assert rec.crisp.hex() == crisp.hex()
            assert rec.centroid_interval == interval
            if interval is not None:
                assert [y.hex() for y in rec.centroid_interval] == [y.hex() for y in interval]
                assert [y.hex() for y in alone[1]] == [y.hex() for y in interval]
            assert rec.signal is classify_signal(crisp)


def _outcome(result):
    """A recommend_rows result as comparable bits: crisp and interval by float.hex."""
    if isinstance(result, PipelineError):
        return (type(result), result.stage, str(result))
    interval = result.centroid_interval
    return (result.symbol, result.crisp.hex(), result.signal,
            None if interval is None else tuple(y.hex() for y in interval))


class TestRecommendRows:
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_float_row_equals_length_one_arrays(self, delta):
        cfg = ResolvedConfig(delta=delta)
        for series in portfolio_fixture(seed=43, symbols=8, periods=52):
            snap = snapshot(aggregate_periods(series, cfg.days_per_period))
            arrays = IndicatorSnapshot(*(np.array([x]) for x in snap))
            [floats] = recommend_rows([series.symbol], snap, cfg)
            [block] = recommend_rows([series.symbol], arrays, cfg)
            assert not isinstance(floats, PipelineError)
            assert _outcome(floats) == _outcome(block)
            assert (floats.centroid_interval is None) == (delta == 0.0)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_block_rows_equal_each_row_alone(self, delta):
        # two BLOCK_ROWS chunks plus two rows, with normalization faults at the
        # chunk edges: the faulted rows leave before chunking, so every later
        # row moves to another chunk position and must keep its bits
        assert BLOCK_ROWS == 64
        one_rule = rules_from_csv("macd,rsi,so,wa,consequent\nlow,medium,medium,low,hold\n")
        cfg = ResolvedConfig(delta=delta, days_per_period=1, rule_table=one_rule)
        basket = portfolio_fixture(seed=31, symbols=130, periods=38, days_per_period=1)
        h, lo, c = (np.stack([getattr(s.bars, name) for s in basket])
                    for name in ("high", "low", "close"))
        columns = {name: np.array(x)
                   for name, x in indicator_block(h, lo, c).row(37)._asdict().items()}
        columns["rsi"][0] = 101.0
        columns["close"][63] = 0.0
        columns["williams"][64] = 0.25
        columns["rsi"][129] = -1.0
        snap = IndicatorSnapshot(**columns)
        symbols = [s.symbol for s in basket]
        results = recommend_rows(symbols, snap, cfg)
        assert len(results) == len(symbols)
        for i, result in enumerate(results):
            row = IndicatorSnapshot(*(float(x[i]) for x in snap))
            [alone] = recommend_rows([symbols[i]], row, cfg)
            assert _outcome(result) == _outcome(alone)
        notes = {i: str(r) for i, r in enumerate(results) if isinstance(r, PipelineError)}
        assert [notes[i] for i in (0, 63, 64, 129)] == [
            "fuzzification: RSI out of range [0, 100]: 101.0",
            "fuzzification: float division by zero",
            "fuzzification: Williams value out of range [-100, 0]: 0.25",
            "fuzzification: RSI out of range [0, 100]: -1.0",
        ]
        stage = "type reduction" if delta else "defuzzification"
        unfired = [i for i, note in notes.items() if note.startswith(f"{stage}: no rule fired")]
        assert unfired and len(notes) == 4 + len(unfired) < len(results)


class TestTypeReductionCollapse:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_zero_delta_interval_path_equals_type1(self, seed):
        rng = random.Random(seed)
        base = build_rule_base()
        grades = random_grades(rng, interval=False)
        [crisp_t1] = defuzzify(fire_rules(stacked_inputs(grades, False), base, OUTPUT_VAR))
        [crisp_iv] = defuzzify(fire_rules(stacked_inputs(grades, True), base, OUTPUT_VAR))
        assert crisp_iv == pytest.approx(crisp_t1, abs=1e-9)


class TestRulesCsv:
    def test_round_trip(self):
        base = build_rule_base()
        text = rules_to_csv(base)
        parsed = rules_from_csv(text)
        assert [r.antecedent() for r in parsed.rules] == [r.antecedent() for r in base.rules]
        assert [r.consequent for r in parsed.rules] == [r.consequent for r in base.rules]
        assert all(r.score is None for r in parsed.rules)

    def test_score_column_ignored_on_import(self):
        text = rules_to_csv(build_rule_base())
        assert text.splitlines()[0] == "macd,rsi,so,wa,consequent,score"
        assert len(rules_from_csv(text).rules) == 36

    def test_duplicate_antecedent_rejected(self):
        text = ("macd,rsi,so,wa,consequent\n"
                "low,low,low,low,sell\n"
                "low,low,low,low,buy\n")
        with pytest.raises(InferenceError, match="duplicate"):
            rules_from_csv(text)

    def test_unknown_term_rejected(self):
        text = "macd,rsi,so,wa,consequent\nlow,low,low,sideways,sell\n"
        with pytest.raises(InferenceError, match="term"):
            rules_from_csv(text)

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(InferenceError, match="rule table is not UTF-8 text: .*0xff"):
            rules_from_csv(b"macd,rsi,so,wa,consequent\n\xff,low,low,low,sell\n")

    @pytest.mark.parametrize("encode", [str.encode, str])
    def test_one_leading_byte_order_mark_is_dropped(self, encode):
        text = rules_to_csv(build_rule_base())
        assert rules_from_csv(encode("\ufeff" + text)) == rules_from_csv(text)

    @pytest.mark.parametrize("text, message", [
        ("\ufeff\ufeffmacd,rsi,so,wa,consequent\n", "header must start with"),
        (" \ufeffmacd,rsi,so,wa,consequent\n", "header must start with"),
        ("macd,rsi,so,wa,consequent\n\ufefflow,low,low,low,sell\n",
         "rule row 2: macd has no term '\\\\ufefflow'"),
    ])
    def test_a_byte_order_mark_anywhere_else_is_an_error(self, text, message):
        for data in (text, text.encode()):
            with pytest.raises(InferenceError, match=message):
                rules_from_csv(data)

    def test_partial_user_base_fires(self):
        text = "macd,rsi,so,wa,consequent\nhigh,high,medium,low,buy\n"
        base = rules_from_csv(text)
        rec = recommend(uptrend_series(), ResolvedConfig(rule_table=base))
        assert rec.signal is Signal.BUY
