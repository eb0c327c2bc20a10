"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts
(or add -s to see the PASS lines directly).
"""

import math
import random
import time

import numpy as np

from fuzzsig.config import ResolvedConfig
from fuzzsig.evaluate import backtest, emit_report, run_portfolio
from fuzzsig.fixtures import random_walk_series
from fuzzsig.fuzzy import (
    Gaussian,
    LeftShoulder,
    RightShoulder,
    Triangular,
    default_variables,
    grade_inputs,
    normalize_rows,
)
from fuzzsig.indicators import (
    IndicatorSnapshot,
    ema,
    indicator_block,
    macd,
    sma,
)
from fuzzsig.inference import (
    ANTECEDENT_TERMS,
    AggregatedOutput,
    RuleBase,
    Signal,
    build_rule_base,
    classify_signal,
    defuzzify,
    fire_rules,
    km_type_reduce,
    recommend,
)
from fuzzsig.market_data import PriceSeries, parse_csv
from fuzzsig.tuning import golden_ratio

from conftest import DATA_DIR
from helpers import downtrend_series, flat_series, grade, uptrend_series
from oracles import (
    closed_form_ema,
    composed_macd,
    enumerated_km,
    naive_sma,
    scanned_stochastic,
    scanned_williams,
    stacked_inputs,
    tallied_rsi,
)

VARIABLES = default_variables()
OUTPUT_VAR = next(v for v in VARIABLES if v.name == "signal")


def ok(number: int, text: str) -> None:
    print(f"PASS criterion {number:02d}: {text}")


def random_ohlc(rng: np.random.Generator, length: int):
    steps = 1.0 + (rng.random(length) - 0.5) * 0.06
    closes = 50.0 * np.cumprod(steps)
    highs = closes * (1.0 + rng.random(length) * 0.1)
    lows = closes * (1.0 - rng.random(length) * 0.1)
    return highs, lows, closes


def random_snapshot(rng: np.random.Generator) -> IndicatorSnapshot:
    close = float(10.0 + rng.random() * 490.0)
    hist = float((rng.random() - 0.5) * 0.06) * close
    return IndicatorSnapshot(
        macd_line=hist, signal_line=0.0, histogram=hist,
        rsi=float(rng.random() * 100.0),
        stochastic_k=float(rng.random() * 100.0),
        williams=float(-rng.random() * 100.0),
        close=close,
    )


def graded(snap: IndicatorSnapshot, delta: float | None):
    """The fuzzified inputs of one indicator row: normalize_rows, then grade_inputs."""
    normalized, faults = normalize_rows(snap)
    assert not faults
    return grade_inputs(normalized, VARIABLES, delta)


def test_criterion_01_indicator_oracle_equivalence():
    """1000 seeded random series, lengths 35-300, vs brute-force oracles at 1e-9."""
    master = np.random.default_rng(20170103)
    tol = dict(rtol=1e-9, atol=1e-9)
    for _ in range(1000):
        length = int(master.integers(35, 301))
        highs, lows, closes = random_ohlc(master, length)
        assert np.allclose(sma(closes, 26), naive_sma(closes, 26), **tol)
        assert np.allclose(ema(closes, 12), closed_form_ema(closes, 12), **tol)
        triple = macd(closes)
        line, signal, hist = composed_macd(closes)
        assert np.allclose(triple.macd_line, line, **tol)
        assert np.allclose(triple.signal_line, signal, **tol)
        assert np.allclose(triple.histogram, hist, **tol)
        frame = indicator_block(highs, lows, closes)
        assert math.isclose(frame.rsi[-1], tallied_rsi(closes, 21), rel_tol=1e-9, abs_tol=1e-9)
        pk, pd = scanned_stochastic(highs, lows, closes)
        assert np.allclose(frame.percent_k[9:], pk, **tol)
        assert np.allclose(frame.percent_d[11:], pd, **tol)
        assert math.isclose(frame.williams[-1], scanned_williams(highs, lows, closes),
                            rel_tol=1e-9, abs_tol=1e-9)
    ok(1, "sma/ema/macd/rsi/stochastic/williams match oracles on 1000 series")


def test_criterion_02_range_invariants():
    """RSI, %K, %D in [0,100]; WA in [-100,0]; grades and crisp outputs in [0,1]."""
    rng = np.random.default_rng(8128)
    for _ in range(300):
        length = int(rng.integers(35, 150))
        frame = indicator_block(*random_ohlc(rng, length))
        for column, low, high in ((frame.rsi[21:], 0.0, 100.0), (frame.percent_k[9:], 0.0, 100.0),
                                  (frame.percent_d[11:], 0.0, 100.0),
                                  (frame.williams[29:], -100.0, 0.0)):
            assert np.all((column >= low) & (column <= high))
    shapes = [Triangular(0.2, 0.5, 0.8), LeftShoulder(0.3, 0.45),
              RightShoulder(0.55, 0.7), Gaussian(0.5, 0.15)]
    for _ in range(2000):
        mf = shapes[int(rng.integers(len(shapes)))]
        x = float(rng.random() * 3.0 - 1.0)
        delta = float(rng.random() * 0.2)
        g = grade(mf, x)
        lo, hi = grade(mf, x, delta)
        assert 0.0 <= g <= 1.0
        assert 0.0 <= lo <= hi <= 1.0
    base = build_rule_base()
    for _ in range(100):
        snap = random_snapshot(rng)
        for delta in (None, 0.05):
            [crisp] = defuzzify(fire_rules(graded(snap, delta), base, OUTPUT_VAR))
            assert 0.0 <= crisp <= 1.0
    ok(2, "indicator, grade, and crisp-output ranges hold under fuzzing")


def test_criterion_03_complementarity_identity():
    """Equal lookback windows: %K + |WA| == 100 exactly, every tested series."""
    rng = np.random.default_rng(61803)
    for _ in range(500):
        window = int(rng.integers(5, 40))
        length = window + int(rng.integers(0, 30))
        frame = indicator_block(*random_ohlc(rng, length), stochastic_k=window,
                                williams_window=window)
        pk, wa = frame.percent_k[window - 1:], frame.williams[window - 1:]
        assert np.all(pk + np.abs(wa) == 100.0)
    ok(3, "%K + |WA| == 100 exactly on 500 series with matched windows")


def test_criterion_04_golden_ratio():
    """0.6180 at 4 decimal places and a root of x^2 + x - 1 within 1e-12."""
    g = golden_ratio()
    assert round(g, 4) == 0.618
    assert abs(g * g + g - 1.0) < 1e-12
    ok(4, "golden ratio equals 0.6180 (4 dp) and solves x^2 + x - 1 = 0")


def test_criterion_05_type_reduction_collapse():
    """delta=0 interval pipeline equals type-1 within 1e-9; KM matches enumeration."""
    rng = np.random.default_rng(271828)
    base = build_rule_base()
    for _ in range(100):
        snap = random_snapshot(rng)
        [crisp_plain] = defuzzify(fire_rules(graded(snap, None), base, OUTPUT_VAR))
        [crisp_interval] = defuzzify(fire_rules(graded(snap, 0.0), base, OUTPUT_VAR))
        assert abs(crisp_plain - crisp_interval) <= 1e-9
    quad = np.ones(101)
    quad[0] = quad[-1] = 0.5
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(100):
        upper = rng.random(101)
        lower = upper * rng.random(101)
        agg = AggregatedOutput(grid=grid, lower=lower[None], upper=upper[None], interval=True)
        [y_l], [y_r] = km_type_reduce(agg)
        e_l, e_r = enumerated_km(grid, quad * lower, quad * upper)
        assert abs(y_l - e_l) <= 1e-9
        assert abs(y_r - e_r) <= 1e-9
    ok(5, "zero-delta pipeline collapses to type-1; KM matches switch enumeration")


def test_criterion_06_centroid_refinement():
    """1001-point centroid within 1e-4 of a 100001-point refinement."""
    rng = random.Random(314159)
    base = build_rule_base()
    for _ in range(100):
        grades = {
            name: {term: (lambda g: (g, g))(rng.random()) for term in terms}
            for name, terms in ANTECEDENT_TERMS.items()
        }
        inputs = stacked_inputs(grades, interval=False)
        [coarse] = defuzzify(fire_rules(inputs, base, OUTPUT_VAR, grid_points=1001))
        [fine] = defuzzify(fire_rules(inputs, base, OUTPUT_VAR, grid_points=100001))
        assert abs(coarse - fine) <= 1e-4
    ok(6, "1001-point centroid within 1e-4 of the 100001-point refinement")


def test_criterion_07_rule_base_structure():
    """36 distinct exhaustive antecedents, hand-scored votes, shuffle invariance."""
    import itertools

    base = build_rule_base()
    antecedents = {r.antecedent() for r in base.rules}
    assert len(base.rules) == 36 and len(antecedents) == 36
    assert antecedents == set(itertools.product(
        ANTECEDENT_TERMS["macd"], ANTECEDENT_TERMS["rsi"],
        ANTECEDENT_TERMS["so"], ANTECEDENT_TERMS["wa"]))
    by_key = {r.antecedent(): r for r in base.rules}
    assert by_key[("high", "high", "low", "high")].score == 6
    assert by_key[("high", "high", "low", "high")].consequent is Signal.BUY
    assert by_key[("low", "low", "high", "low")].score == -6
    assert by_key[("low", "low", "high", "low")].consequent is Signal.SELL
    assert by_key[("high", "medium", "high", "low")].score == -1
    assert by_key[("high", "medium", "high", "low")].consequent is Signal.HOLD

    rng = random.Random(99)
    for trial in range(10):
        grades = {
            name: {term: (lambda a, b: (min(a, b), max(a, b)))(rng.random(), rng.random())
                   for term in terms}
            for name, terms in ANTECEDENT_TERMS.items()
        }
        inputs = stacked_inputs(grades, interval=True)
        shuffled = list(base.rules)
        rng.shuffle(shuffled)
        [crisp_a] = defuzzify(fire_rules(inputs, base, OUTPUT_VAR))
        [crisp_b] = defuzzify(fire_rules(inputs, RuleBase(tuple(shuffled)), OUTPUT_VAR))
        assert crisp_a == crisp_b
    ok(7, "generated base is exhaustive, vote examples hold, shuffling is bit-identical")


def test_criterion_08_classification_fixtures():
    """Reference mapping: 0.3 to Sell, 0.4 to Hold, 0.7 to Buy."""
    assert classify_signal(0.3) is Signal.SELL
    assert classify_signal(0.4) is Signal.HOLD
    assert classify_signal(0.7) is Signal.BUY
    ok(8, "crisp 0.3/0.4/0.7 classify as Sell/Hold/Buy")


def test_criterion_09_directional_sanity():
    """Uptrend fixture is Buy, downtrend Sell, constant series 0.5 +/- 1e-6 Hold."""
    for cfg in (ResolvedConfig(), ResolvedConfig(delta=0.0)):
        assert recommend(uptrend_series(), cfg).signal is Signal.BUY
        assert recommend(downtrend_series(), cfg).signal is Signal.SELL
        flat = recommend(flat_series(), cfg)
        assert abs(flat.crisp - 0.5) <= 1e-6
        assert flat.signal is Signal.HOLD
    ok(9, "uptrend Buy, downtrend Sell, flat 0.5 Hold (delta 0.05 and 0)")


def test_criterion_10_consequent_ordering():
    """Singleton activation of one rule lands its crisp in the consequent's band."""
    base = build_rule_base()
    for rule in base.rules:
        grades = {
            name: {term: ((1.0, 1.0) if term == pick else (0.0, 0.0))
                   for term in ANTECEDENT_TERMS[name]}
            for name, pick in zip(("macd", "rsi", "so", "wa"), rule.antecedent())
        }
        inputs = stacked_inputs(grades, interval=False)
        [crisp] = defuzzify(fire_rules(inputs, base, OUTPUT_VAR))
        if rule.consequent is Signal.SELL:
            assert crisp < 0.4
        elif rule.consequent is Signal.BUY:
            assert crisp > 0.6
        else:
            assert 0.4 < crisp < 0.6
    ok(10, "Sell-only < 0.4, Hold-only in (0.4, 0.6), Buy-only > 0.6")


def test_criterion_11_golden_regression():
    """Bundled 10x52 fixture reproduces the frozen report byte-for-byte, under 1s."""
    basket = parse_csv((DATA_DIR / "portfolio_fixture.csv").read_bytes())
    started = time.perf_counter()
    report = run_portfolio(basket)
    payload = emit_report(report, "csv")
    elapsed = time.perf_counter() - started
    assert payload == (DATA_DIR / "golden_portfolio.csv").read_bytes()
    assert elapsed < 1.0
    ok(11, f"golden report reproduced byte-for-byte in {elapsed * 1000:.0f} ms")


def test_criterion_12_no_lookahead():
    """Every backtest signal equals recommend() on the truncated prefix."""
    cfg = ResolvedConfig()
    checked = 0
    for seed in range(20):
        series = random_walk_series("S", seed=1000 + seed, periods=45)
        stats = backtest(series, cfg)
        for record in stats.records:
            cutoff = (record.period_index + 1) * cfg.days_per_period
            prefix = PriceSeries(series.symbol, series.bars[:cutoff])
            again = recommend(prefix, cfg)
            assert again.signal is record.signal
            checked += 1
    assert checked >= 40
    ok(12, f"backtest equals prefix recommendation at {checked} signal periods")
