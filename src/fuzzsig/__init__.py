"""Fuzzy-inference trading signals from OHLCV price history.

Pipeline: aggregate daily bars into trading periods, compute MACD / RSI /
stochastic / Williams, scale the secondaries by the Fibonacci divisor, fuzzify
against the linguistic variables, fire the 36-rule Mamdani base (optionally
with an interval type-2 footprint of uncertainty), type-reduce and defuzzify
to a crisp value in [0, 1], and classify it as Sell, Hold, or Buy.
"""

from .config import ConfigError, ResolvedConfig, load_config_file, parse_config_text
from .evaluate import (
    BacktestRecord,
    BacktestStats,
    PortfolioReport,
    ReportRow,
    backtest,
    emit_report,
    parse_report,
    run_portfolio,
)
from .fuzzy import (
    FootprintOfUncertainty,
    FuzzifiedInputs,
    Gaussian,
    LeftShoulder,
    LinguisticVariable,
    RightShoulder,
    Triangular,
    default_variables,
    fuzzify,
)
from .indicators import (
    IndicatorFrame,
    IndicatorSnapshot,
    InsufficientHistoryError,
    MacdTriple,
    StochasticPair,
    ema,
    indicator_frame,
    macd,
    rsi,
    sma,
    snapshot,
    stochastic,
    williams,
)
from .inference import (
    AggregatedOutput,
    InferenceError,
    PipelineError,
    Recommendation,
    Rule,
    RuleBase,
    Signal,
    build_rule_base,
    classify_signal,
    defuzzify,
    fire_rules,
    km_type_reduce,
    recommend,
    rules_from_csv,
    rules_to_csv,
)
from .market_data import (
    Bars,
    MarketDataError,
    PriceBar,
    PriceSeries,
    ValidationReport,
    aggregate_periods,
    parse_csv,
    serialize_csv,
    validate,
)
from .tuning import (
    FibLevels,
    Level,
    ScaledSecondary,
    SecondaryKind,
    classify_level,
    golden_ratio,
    scale_secondary,
)

__version__ = "0.1.0"
