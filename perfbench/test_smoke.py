"""Smoke test of the benchmark harness at tiny sizes. It asserts no timings."""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))

from fuzzsig.fixtures import portfolio_fixture, random_walk_series  # noqa: E402
from fuzzsig.market_data import PriceSeries  # noqa: E402

SEED = 3
TINY = {
    "portfolio_wide": {"symbols": 3, "periods": 40},
    "screen_daily": {"symbols": 3, "periods": 40},
    "backtest_long": {"periods": 40},
}


def tiny(name: str):
    return dataclasses.replace(bench.WORKLOADS[name], digest=None, **TINY[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_at_tiny_size(name, trace):
    w = tiny(name)
    out = bench.run_workload(w, SEED, seconds=0, trace=trace, min_passes=1)
    result = out["result"]
    assert result["correct"], out["report"]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == w.items * (2 if trace else 1)
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_trace_counts_backtest_prefixes():
    w = tiny("backtest_long")
    metrics = bench.run_workload(w, SEED, seconds=0, trace=True, min_passes=1)["result"]["metrics"]
    count = {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}
    prefixes = w.periods - 1
    assert count["indicators.snapshot.calls"] == prefixes
    assert count["indicators.snapshot.bars_in"] == prefixes * (prefixes + 1) // 2
    assert count["inference.recommend_periods.errors"] == bench.SNAPSHOT_PERIODS - 1
    assert count["fuzzy.default_variables.calls"] == w.items
    assert count["inference.km_type_reduce.calls"] == 0
    assert count["market_data.parse_csv.rows"] == w.periods * w.days_per_period


def _basket(w):
    return portfolio_fixture(SEED, w.symbols, w.periods, w.days_per_period)


def test_duplicate_row_fails_every_item_of_the_pass():
    w = tiny("portfolio_wide")
    basket = _basket(w)
    first = basket[0]
    basket[0] = PriceSeries(first.symbol, first.bars + first.bars[-1:])
    out = bench.run_workload(w, SEED, seconds=0, trace=False, min_passes=1, basket=basket)
    assert not out["result"]["correct"]
    assert out["result"]["attempted"] == w.items
    assert out["result"]["failed"] == w.items
    assert out["report"]["failed_frac"] == 1.0
    assert any(p.startswith("exit 1:") for p in out["report"]["problems"])


def test_short_symbol_fails_only_its_row():
    w = tiny("portfolio_wide")
    basket = _basket(w)
    basket[1] = random_walk_series(basket[1].symbol, SEED, periods=20)
    out = bench.run_workload(w, SEED, seconds=0, trace=False, min_passes=1, basket=basket)
    assert not out["result"]["correct"]
    assert out["result"]["attempted"] == w.items
    assert out["result"]["failed"] == 1
    assert out["report"]["failed_frac"] == pytest.approx(1 / w.items)


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backtest_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
