"""Portfolio-level evaluation, rolling no-lookahead backtests, and report emission.

json and decimal load on first use, by the json format, parse_report and
format_1dp, so a backtest loads neither and a csv report no json.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date

from .config import ResolvedConfig
from .indicators import InsufficientHistoryError
from .inference import PipelineError, RuleBase, Signal, recommend_block, recommend_periods
from .market_data import PriceSeries, aggregate_periods

REPORT_CSV_HEADER = ("symbol", "fuzzy_output", "signal")


@dataclass(frozen=True)
class ReportRow:
    symbol: str
    crisp: float | None
    signal: Signal | None
    note: str | None = None


@dataclass(frozen=True)
class PortfolioReport:
    rows: tuple[ReportRow, ...]
    generated_at: date
    config_fingerprint: str


@dataclass(frozen=True)
class BacktestRecord:
    period_index: int
    date: date
    signal: Signal
    next_return: float


@dataclass(frozen=True)
class BacktestStats:
    symbol: str
    records: tuple[BacktestRecord, ...]
    buy_hit_rate: float | None
    sell_hit_rate: float | None


def format_1dp(crisp: float) -> str:
    """Half-up rounding of the crisp output to one decimal place."""
    from decimal import ROUND_HALF_UP, Decimal

    return str(Decimal(repr(crisp)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def run_portfolio(
    series_list: list[PriceSeries],
    config: ResolvedConfig | None = None,
    rule_base: RuleBase | None = None,
) -> PortfolioReport:
    """One recommendation row per input symbol, in input order.

    Per-symbol pipeline failures become row notes instead of aborting the
    batch. The symbols are evaluated in blocks (recommend_block), which builds
    the variables and rule base once from the config; a table that fails the
    coverage check is a ConfigError for the whole batch. The report is dated
    by the latest bar across the inputs, keeping identical inputs
    byte-identical on re-runs.
    """
    if not any(series.bars for series in series_list):
        raise ValueError("empty input: no series to evaluate")
    cfg = config if config is not None else ResolvedConfig()
    results = recommend_block(series_list, cfg, rule_base)
    rows = [ReportRow(series.symbol, None, None, note=str(result))
            if isinstance(result, PipelineError)
            else ReportRow(series.symbol, result.crisp, result.signal)
            for series, result in zip(series_list, results)]
    as_of = max(s.bars.date[-1] for s in series_list if s.bars).item()
    return PortfolioReport(tuple(rows), as_of, cfg.fingerprint())


def backtest(
    series: PriceSeries,
    config: ResolvedConfig | None = None,
    rule_base: RuleBase | None = None,
) -> BacktestStats:
    """Rolling evaluation: the signal at period t sees bars up to t only.

    Each signal is paired with the simple close-to-close return into t+1.
    The hit rates count Buy signals preceding positive returns and Sell
    signals preceding negative ones (None when a side never fired). The rule
    base is built once from the config unless given. Fewer than two signals
    raise InsufficientHistoryError, naming the last failed period and its
    PipelineError.
    """
    cfg = config if config is not None else ResolvedConfig()
    periods = aggregate_periods(series, cfg.days_per_period)
    if rule_base is None:
        rule_base = cfg.build_rule_base()
    bars = periods.bars
    dates, closes = bars.date.tolist(), bars.close.tolist()
    records: list[BacktestRecord] = []
    last_failure = ""
    for t in range(len(bars) - 1):
        prefix = PriceSeries(periods.symbol, bars[:t + 1])
        try:
            rec = recommend_periods(prefix, cfg, rule_base)
        except PipelineError as exc:
            last_failure = f"; period {t} failed at {exc}"
            continue
        records.append(BacktestRecord(
            period_index=t,
            date=dates[t],
            signal=rec.signal,
            next_return=(closes[t + 1] - closes[t]) / closes[t],
        ))
    if len(records) < 2:
        raise InsufficientHistoryError(
            f"{series.symbol}: backtest needs signals at >= 2 periods, got {len(records)}"
            f"{last_failure}"
        )
    buys = [r for r in records if r.signal is Signal.BUY]
    sells = [r for r in records if r.signal is Signal.SELL]
    buy_rate = sum(r.next_return > 0 for r in buys) / len(buys) if buys else None
    sell_rate = sum(r.next_return < 0 for r in sells) / len(sells) if sells else None
    return BacktestStats(series.symbol, tuple(records), buy_rate, sell_rate)


def emit_report(report: PortfolioReport, format: str = "csv") -> bytes:
    """Serialize a report.

    csv mirrors the one-decimal output table; json keeps full precision plus
    the as-of date and config fingerprint; plotdata emits tab-separated
    (symbol, crisp) pairs for external charting. Failed rows carry their note
    in csv/json and are skipped in plotdata.
    """
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(REPORT_CSV_HEADER)
        for row in report.rows:
            if row.crisp is None:
                writer.writerow([row.symbol, "", f"error: {row.note}"])
            else:
                writer.writerow([row.symbol, format_1dp(row.crisp), row.signal.value])
        return out.getvalue().encode("utf-8")
    if format == "json":
        import json

        payload = {
            "as_of": report.generated_at.isoformat(),
            "config_fingerprint": report.config_fingerprint,
            "rows": [
                {
                    "symbol": row.symbol,
                    "fuzzy_output": row.crisp,
                    "fuzzy_output_1dp": None if row.crisp is None else format_1dp(row.crisp),
                    "signal": None if row.signal is None else row.signal.value,
                    "note": row.note,
                }
                for row in report.rows
            ],
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if format == "plotdata":
        return "".join(f"{row.symbol}\t{row.crisp!r}\n"
                       for row in report.rows if row.crisp is not None).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")


def parse_report(data: bytes | str) -> PortfolioReport:
    """Inverse of the json emission; round-trips a report losslessly."""
    import json

    if isinstance(data, bytes):
        data = data.decode("utf-8")
    payload = json.loads(data)
    signals = {s.value: s for s in Signal}
    rows = tuple(
        ReportRow(
            symbol=entry["symbol"],
            crisp=entry["fuzzy_output"],
            signal=None if entry["signal"] is None else signals[entry["signal"]],
            note=entry["note"],
        )
        for entry in payload["rows"]
    )
    return PortfolioReport(
        rows=rows,
        generated_at=date.fromisoformat(payload["as_of"]),
        config_fingerprint=payload["config_fingerprint"],
    )
