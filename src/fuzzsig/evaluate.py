"""Portfolio-level evaluation, rolling no-lookahead backtests, and report emission.

json and decimal load on first use, by the json format and format_1dp, so a
backtest loads neither and a csv report no json. hashlib loads only for the
json report, the one that prints the config fingerprint.
"""

from __future__ import annotations

import csv
import io
from datetime import date
from typing import NamedTuple

from .config import ResolvedConfig
from .indicators import InsufficientHistoryError
from .inference import PipelineError, Signal, recommend_block, recommend_periods
from .market_data import Bars, PriceSeries, aggregate_block

REPORT_CSV_HEADER = ("symbol", "fuzzy_output", "signal")


class ReportRow(NamedTuple):
    symbol: str
    crisp: float | None
    signal: Signal | None
    note: str | None = None


class PortfolioReport(NamedTuple):
    rows: tuple[ReportRow, ...]
    generated_at: date
    config: ResolvedConfig

    @property
    def config_fingerprint(self) -> str:
        return self.config.fingerprint()


class BacktestRecord(NamedTuple):
    period_index: int
    date: date
    signal: Signal
    next_return: float


class BacktestStats(NamedTuple):
    symbol: str
    records: tuple[BacktestRecord, ...]
    buy_hit_rate: float | None
    sell_hit_rate: float | None


def format_1dp(crisp: float) -> str:
    """Half-up rounding of the crisp output to one decimal place."""
    from decimal import ROUND_HALF_UP, Decimal

    return str(Decimal(repr(crisp)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def run_portfolio(series_list: list[PriceSeries],
                  config: ResolvedConfig | None = None) -> PortfolioReport:
    """One recommendation row per input symbol, in input order.

    Per-symbol pipeline failures become row notes instead of aborting the
    batch. The symbols are evaluated in blocks (recommend_block); a table that
    fails the coverage check is a ConfigError for the whole batch. The report
    is dated by the latest bar, so identical inputs give identical bytes.
    """
    if not any(series.bars for series in series_list):
        raise ValueError("empty input: no series to evaluate")
    cfg = config if config is not None else ResolvedConfig()
    results = recommend_block(series_list, cfg)
    rows = [ReportRow(series.symbol, None, None, note=str(result))
            if isinstance(result, PipelineError)
            else ReportRow(series.symbol, result.crisp, result.signal)
            for series, result in zip(series_list, results)]
    as_of = max(s.bars.date[-1] for s in series_list if s.bars).item()
    return PortfolioReport(tuple(rows), as_of, cfg)


def backtest(series: PriceSeries, config: ResolvedConfig | None = None) -> BacktestStats:
    """Rolling evaluation: the signal at period t sees bars up to t only.

    Each signal is paired with the simple close-to-close return into t+1.
    The hit rates count Buy signals preceding positive returns and Sell
    signals preceding negative ones (None when a side never fired). Fewer
    than two signals raise InsufficientHistoryError, naming the last failed
    period and its PipelineError.
    """
    cfg = config if config is not None else ResolvedConfig()
    periods, faults = aggregate_block([series], cfg.days_per_period)
    if faults:
        raise faults[0]
    bars = Bars(**{name: column[0] for name, column in periods.items()})
    dates, closes = bars.date.tolist(), bars.close.tolist()
    records: list[BacktestRecord] = []
    last_failure = ""
    for t in range(len(bars) - 1):
        prefix = PriceSeries(series.symbol, bars[:t + 1])
        try:
            rec = recommend_periods(prefix, cfg)
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

