"""Every portfolio row against reference_signal, an end-to-end chain of the oracles.

The reference takes its own route from the period bars to the crisp output
(see tests/oracles.py): neither grade_inputs nor fire_rules is on it, so it
also checks the grade array that carries the term grades between them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzsig.config import ResolvedConfig
from fuzzsig.evaluate import run_portfolio
from fuzzsig.fixtures import random_walk_series
from fuzzsig.inference import PipelineError, recommend_block
from fuzzsig.market_data import parse_csv

from conftest import DATA_DIR
from oracles import ReferenceFailure, reference_signal

DELTAS = [0.0, 0.05, 0.15]
TOLERANCE = 1e-9


def expected_signal(crisp: float) -> str:
    """Sell below 0.4, Hold below 0.6, Buy from 0.6 up."""
    return "Sell" if crisp < 0.4 else "Hold" if crisp < 0.6 else "Buy"


def check_rows(series_list, cfg) -> list[str]:
    """Assert each run_portfolio row equals its reference; returns each row's outcome."""
    report = run_portfolio(series_list, cfg)
    results = recommend_block(series_list, cfg)
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
