"""Every portfolio row against reference_signal, an end-to-end chain of the oracles.

The reference takes its own route from the period bars to the crisp output
(see tests/oracles.py): neither grade_inputs nor fire_rules is on it, so it
also checks the grade array that carries the term grades between them. The
rows are checked on the bundled fixture, on drawn baskets under the default
config, and on drawn baskets under drawn configs.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzsig.config import ConfigError, ResolvedConfig
from fuzzsig.evaluate import run_portfolio
from fuzzsig.fixtures import random_walk_series
from fuzzsig.inference import PipelineError, recommend_block
from fuzzsig.market_data import parse_csv

from conftest import DATA_DIR
from oracles import ReferenceFailure, reference_signal, uncovered_variable

DELTAS = [0.0, 0.05, 0.15]
TOLERANCE = 1e-9


def expected_signal(crisp: float) -> str:
    """Sell below 0.4, Hold below 0.6, Buy from 0.6 up."""
    return "Sell" if crisp < 0.4 else "Hold" if crisp < 0.6 else "Buy"


def check_rows(series_list, cfg) -> list[str]:
    """Assert each run_portfolio row equals its reference, and that the package warns of
    nothing; returns each row's outcome."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_portfolio(series_list, cfg)
        results = recommend_block(series_list, cfg)
    assert [str(w.message) for w in caught] == []
    outcomes = []
    for series, row, result in zip(series_list, report.rows, results, strict=True):
        try:
            crisp, interval = reference_signal(series, cfg)
        except ReferenceFailure as failure:
            assert row.crisp is None and row.note.startswith(f"{failure.stage}: ")
            assert isinstance(result, PipelineError) and result.stage == failure.stage
            outcomes.append(failure.stage)
            continue
        assert row.note is None
        assert row.crisp == pytest.approx(crisp, rel=0, abs=TOLERANCE)
        if interval is None:
            assert result.centroid_interval is None
        else:
            assert result.centroid_interval == pytest.approx(interval, rel=0, abs=TOLERANCE)
        if min(abs(crisp - 0.4), abs(crisp - 0.6)) > TOLERANCE:
            assert row.signal.value == expected_signal(crisp)
        outcomes.append(row.signal.value)
    return outcomes


@pytest.mark.parametrize("delta", DELTAS)
def test_fixture_rows_match_the_reference(delta):
    with open(DATA_DIR / "portfolio_fixture.csv", "rb") as fh:
        basket = parse_csv(fh.read())
    outcomes = check_rows(basket, ResolvedConfig(delta=delta))
    assert len(outcomes) == 10 and set(outcomes) <= {"Sell", "Hold", "Buy"}


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), delta=st.sampled_from(DELTAS))
def test_basket_rows_match_the_reference(seed, delta):
    # weekly days under 15-day periods: 1 to 120 weeks make 0 to 56 periods, so rows
    # fail at aggregation and at the indicators as well as reach a signal
    weeks = [1, 20, 60, 76, 90, 120]
    basket = [random_walk_series(f"B{i:02d}", seed + i, periods=n, days_per_period=7)
              for i, n in enumerate(weeks * 2)]
    outcomes = check_rows(basket, ResolvedConfig(delta=delta, grid_points=201))
    assert outcomes[:2] == ["aggregation", "indicators"]


# the narrowest Gaussian width of the default table: delta must stay below it
GAUSSIAN_BOUND = 0.22


@st.composite
def drawn_configs(draw) -> ResolvedConfig:
    """Windows 1-40 with short < long, delta 0 or below the Gaussian bound, 3 to 301 grid
    points, vote weights and thresholds, ascending levels and divisors 1e-3 to 1e6."""
    short = draw(st.integers(1, 39))
    windows = {name: draw(st.integers(1, 40)) for name in (
        "days_per_period", "macd_trigger", "rsi_window", "stochastic_k", "stochastic_d",
        "williams_window")}
    primary, secondary = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    top = 2 * (primary + secondary) + 1  # one past the largest vote score
    sell_at = draw(st.integers(-top, top - 1))
    levels = draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2, unique=True))
    return ResolvedConfig(
        **windows, macd_short=short, macd_long=draw(st.integers(short + 1, 40)),
        primary_weight=primary, secondary_weight=secondary,
        sell_at=sell_at, buy_at=draw(st.integers(sell_at + 1, top)),
        levels=tuple(sorted(levels)),
        divisor=draw(st.sampled_from([1e-3, 1e6]) | st.floats(-3.0, 6.0).map(lambda e: 10**e)),
        delta=draw(st.just(0.0) | st.floats(0.0, GAUSSIAN_BOUND, exclude_max=True)),
        grid_points=draw(st.integers(3, 301)),
    )


@settings(max_examples=50)
@given(cfg=drawn_configs(), seed=st.integers(0, 2**32 - 1),
       periods=st.lists(st.integers(0, 90), min_size=1, max_size=4))
def test_rows_under_drawn_configs_match_the_reference(cfg, seed, periods):
    # whole periods plus one to four stray days: rows fail at aggregation, and up to
    # 90 periods reach every window
    basket = [random_walk_series(f"C{i}", seed + i, periods=n * cfg.days_per_period + i + 1,
                                 days_per_period=1)
              for i, n in enumerate(periods)]
    # the default Williams terms cover [0, 100 / divisor] only for divisors from about 86.5
    gap = uncovered_variable(cfg)
    if gap is None:
        check_rows(basket, cfg)
    else:
        with pytest.raises(ConfigError, match=f"^fuzzy variable '{gap}': "):
            run_portfolio(basket, cfg)
