"""What a CLI process imports, and the package names that load on first use."""

import importlib
import subprocess
import sys

import pytest

import fuzzsig
from conftest import DATA_DIR, cli_env

# the names `fuzzsig/__init__.py` imported eagerly, by module
EXPORTS = {
    "config": ["ConfigError", "ResolvedConfig", "load_config_file", "parse_config_text"],
    "evaluate": ["BacktestRecord", "BacktestStats", "PortfolioReport", "ReportRow", "backtest",
                 "emit_report", "run_portfolio"],
    "fuzzy": ["FuzzifiedInputs", "Gaussian", "LeftShoulder", "LinguisticVariable",
              "RightShoulder", "Triangular", "default_variables"],
    "indicators": ["IndicatorFrame", "IndicatorSnapshot", "InsufficientHistoryError",
                   "MacdTriple", "ema", "indicator_block", "macd", "sma", "snapshot"],
    "inference": ["AggregatedOutput", "InferenceError", "PipelineError", "Recommendation",
                  "Rule", "RuleBase", "Signal", "build_rule_base", "classify_signal",
                  "defuzzify", "fire_rules", "km_type_reduce", "recommend", "rules_from_csv",
                  "rules_to_csv"],
    "market_data": ["Bars", "MarketDataError", "PriceSeries", "aggregate_block", "parse_csv",
                    "serialize_csv"],
    "tuning": ["golden_ratio", "level_labels", "scale_secondaries"],
}

# what only some commands use: portfolio and backtest, fixtures, the config
# fingerprint, the JSON formats
LATE_MODULES = {"fuzzsig.evaluate", "fuzzsig.fixtures", "hashlib", "json"}


def imported_modules(*argv: str) -> set[str]:
    """The modules a fresh `python -X importtime -m fuzzsig.cli ARGV` process imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "fuzzsig.cli", *argv],
                          env=cli_env(), capture_output=True, text=True, check=True)
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
    (("portfolio", str(DATA_DIR / "portfolio_fixture.csv")), {"json", "hashlib"}),
    (("backtest", str(DATA_DIR / "portfolio_fixture.csv"), "--symbol", "SYN00"),
     {"json", "decimal"}),
], ids=["portfolio-csv", "backtest-csv"])
def test_csv_reports_load_no_json_and_backtests_no_decimal(argv, unused):
    # json serves the json format, decimal the 1 dp column, hashlib the json fingerprint
    modules = imported_modules(*argv)
    assert "fuzzsig.evaluate" in modules
    assert modules & unused == set()


def test_resolved_config_is_the_only_dataclass():
    # dataclasses generates and compiles a class's methods in every process that
    # imports it; ResolvedConfig keeps it for its field metadata, the config schema
    code = ("import dataclasses, sys; import fuzzsig.cli, fuzzsig.evaluate, fuzzsig.fixtures\n"
            "print(sorted(f'{name}.{cls.__qualname__}' for name, module in sys.modules.items()\n"
            "             if name.startswith('fuzzsig') for cls in vars(module).values()\n"
            "             if isinstance(cls, type) and cls.__module__ == name\n"
            "             and dataclasses.is_dataclass(cls)))")
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "['fuzzsig.config.ResolvedConfig']"


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
