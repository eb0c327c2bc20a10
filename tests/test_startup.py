"""What a CLI process imports, and the package names that load on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzsig
from conftest import DATA_DIR

# the names `fuzzsig/__init__.py` imported eagerly, by module
EXPORTS = {
    "config": ["ConfigError", "ResolvedConfig", "load_config_file", "parse_config_text"],
    "evaluate": ["BacktestRecord", "BacktestStats", "PortfolioReport", "ReportRow", "backtest",
                 "emit_report", "parse_report", "run_portfolio"],
    "fuzzy": ["FootprintOfUncertainty", "FuzzifiedInputs", "Gaussian", "LeftShoulder",
              "LinguisticVariable", "RightShoulder", "Triangular", "default_variables"],
    "indicators": ["IndicatorFrame", "IndicatorSnapshot", "InsufficientHistoryError",
                   "MacdTriple", "ema", "indicator_block", "indicator_frame", "macd", "sma",
                   "snapshot"],
    "inference": ["AggregatedOutput", "InferenceError", "PipelineError", "Recommendation",
                  "Rule", "RuleBase", "Signal", "build_rule_base", "classify_signal",
                  "defuzzify", "fire_rules", "km_type_reduce", "recommend", "rules_from_csv",
                  "rules_to_csv"],
    "market_data": ["Bars", "MarketDataError", "PriceBar", "PriceSeries", "ValidationReport",
                    "aggregate_block", "aggregate_periods", "parse_csv", "serialize_csv",
                    "validate"],
    "tuning": ["golden_ratio", "level_labels", "scale_secondaries"],
}

# what only some commands use: portfolio and backtest, fixtures, the config
# fingerprint, the JSON formats
LATE_MODULES = {"fuzzsig.evaluate", "fuzzsig.fixtures", "hashlib", "json"}


def imported_modules(*argv: str) -> set[str]:
    """The modules a fresh `python -X importtime -m fuzzsig.cli ARGV` process imports."""
    src = str(Path(fuzzsig.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("FUZZSIG_CONFIG", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fuzzsig.cli", *argv],
                          env=env, capture_output=True, text=True, check=True)
    # lines read "import time: <self us> | <cumulative us> | <indented module name>"
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ("rules", "dump"),
    ("signal", str(DATA_DIR / "portfolio_fixture.csv"), "--symbol", "SYN00"),
], ids=["rules-dump", "signal"])
def test_command_imports_only_what_it_runs(argv):
    modules = imported_modules(*argv)
    assert {"fuzzsig.config", "fuzzsig.inference"} <= modules  # the trace reads names
    assert modules & LATE_MODULES == set()


@pytest.mark.parametrize("argv, unused", [
    (("portfolio", str(DATA_DIR / "portfolio_fixture.csv")), {"json"}),
    (("backtest", str(DATA_DIR / "portfolio_fixture.csv"), "--symbol", "SYN00"),
     {"json", "decimal"}),
], ids=["portfolio-csv", "backtest-csv"])
def test_csv_reports_load_no_json_and_backtests_no_decimal(argv, unused):
    # json serves the json format and parse_report, decimal the 1 dp column
    modules = imported_modules(*argv)
    assert "fuzzsig.evaluate" in modules
    assert modules & unused == set()


class TestPackageNames:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_resolves_to_its_module_attribute(self, module):
        defining = importlib.import_module(f"fuzzsig.{module}")
        for name in EXPORTS[module]:
            assert name in fuzzsig.__all__
            assert name in dir(fuzzsig)
            assert getattr(fuzzsig, name) is getattr(defining, name)

    def test_all_holds_exactly_the_exported_names(self):
        assert sorted(fuzzsig.__all__) == sorted(n for names in EXPORTS.values() for n in names)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            fuzzsig.no_such_name
