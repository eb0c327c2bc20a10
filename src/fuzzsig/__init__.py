"""Fuzzy-inference trading signals from OHLCV price history.

Pipeline: aggregate daily bars into trading periods, compute MACD / RSI /
stochastic / Williams, scale the secondaries by the Fibonacci divisor, fuzzify
against the linguistic variables, fire the 36-rule Mamdani base (optionally
with an interval type-2 footprint of uncertainty), type-reduce and defuzzify
to a crisp value in [0, 1], and classify it as Sell, Hold, or Buy.

The public names below load their module on first use (PEP 562), so
importing the package, or running one CLI command, loads only the modules
that are used: `fuzzsig.run_portfolio` imports fuzzsig.evaluate, and
`rules dump` never does.
"""

from importlib import import_module

_MODULE_NAMES = {
    "config": ("ConfigError", "ResolvedConfig", "load_config_file", "parse_config_text"),
    "evaluate": ("BacktestRecord", "BacktestStats", "PortfolioReport", "ReportRow", "backtest",
                 "emit_report", "run_portfolio"),
    "fuzzy": ("Gaussian", "LeftShoulder", "LinguisticVariable", "RightShoulder", "Triangular",
              "default_variables"),
    "indicators": ("IndicatorFrame", "IndicatorSnapshot", "InsufficientHistoryError",
                   "MacdTriple", "ema", "indicator_block", "macd", "sma", "snapshot"),
    "inference": ("AggregatedOutput", "InferenceError", "PipelineError", "Recommendation",
                  "Rule", "RuleBase", "Signal", "build_rule_base", "classify_signal",
                  "defuzzify", "fire_rules", "km_type_reduce", "recommend", "rules_from_csv",
                  "rules_to_csv"),
    "market_data": ("Bars", "MarketDataError", "PriceSeries", "aggregate_block", "parse_csv",
                    "serialize_csv"),
    "tuning": ("golden_ratio", "level_labels", "scale_secondaries"),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
