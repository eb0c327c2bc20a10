"""Command-line front door: indicator dumps, signals, portfolio runs, backtests.

Each command returns its whole output as UTF-8 bytes with `\n` line ends, and
run() writes them in one call to the binary `.buffer` of standard output once
the command has returned. So the bytes do not depend on the locale or
PYTHONIOENCODING, a failing command writes nothing to stdout, and run() needs
a stdout stream that has a `.buffer`.

The `indicators` table labels whole columns (tuning.scale_secondaries). A
command imports what only some commands use (fuzzsig.evaluate,
fuzzsig.fixtures, json) when it runs, so a process loads what it needs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import os
import sys

import numpy as np

from .config import DEFAULT_CONFIG, ConfigError, ResolvedConfig, load_config_file
from .inference import PipelineError, period_frames, recommend, rules_from_csv, rules_to_csv
from .market_data import MarketDataError, PriceSeries, parse_csv, serialize_csv
from .tuning import level_labels, scale_secondaries

CONFIG_ENV_VAR = "FUZZSIG_CONFIG"


def _add_common(parser: argparse.ArgumentParser, delta: bool = True) -> None:
    """--config and --period-days, and --delta where the footprint reaches the output."""
    parser.add_argument("--config", metavar="FILE",
                        help=f"config file (default: ${CONFIG_ENV_VAR} if set)")
    if delta:
        parser.add_argument("--delta", type=float, metavar="D",
                            help="override fuzzy.delta (0 disables the type-2 footprint)")
    parser.add_argument("--period-days", type=int, metavar="N",
                        help="override data.days_per_period")


def _count(text: str) -> int:
    """argparse type of a positive integer; anything else exits 2 with usage."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzsig",
        description="Fuzzy-inference buy/hold/sell signals from OHLCV CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indicators", help="per-period indicator table")
    p.add_argument("csv", help="input OHLCV CSV file")
    p.add_argument("--symbol", help="restrict to one symbol")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p, delta=False)

    p = sub.add_parser("signal", help="one recommendation for one symbol")
    p.add_argument("csv", help="input OHLCV CSV file")
    p.add_argument("--symbol", required=True)
    p.add_argument("--rules", metavar="FILE", help="user-supplied rule table CSV")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p)

    p = sub.add_parser("portfolio", help="recommendation report for every symbol")
    p.add_argument("csv", help="input OHLCV CSV file")
    p.add_argument("--rules", metavar="FILE", help="user-supplied rule table CSV")
    p.add_argument("--format", choices=("csv", "json", "plotdata"), default="csv")
    _add_common(p)

    p = sub.add_parser("backtest", help="rolling no-lookahead evaluation of one symbol")
    p.add_argument("csv", help="input OHLCV CSV file")
    p.add_argument("--symbol", required=True)
    p.add_argument("--rules", metavar="FILE", help="user-supplied rule table CSV")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("rules", help="rule-base inspection")
    p.add_argument("action", choices=("dump",))
    _add_common(p)

    p = sub.add_parser("fixtures", help="synthetic fixture generation")
    p.add_argument("action", choices=("generate",))
    p.add_argument("--seed", type=int)  # None: fixtures.DEFAULT_SEED
    p.add_argument("--symbols", type=_count, default=10)
    p.add_argument("--periods", type=_count, default=52)
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    _add_common(p, delta=False)

    return parser


def _load_rules(args: argparse.Namespace):
    path = getattr(args, "rules", None)
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return rules_from_csv(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise MarketDataError(f"cannot read {path!r}: {exc}") from None


def _resolve_config(args: argparse.Namespace) -> ResolvedConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config_file(path) if path else DEFAULT_CONFIG
    flags = {"delta": getattr(args, "delta", None),
             "days_per_period": getattr(args, "period_days", None),
             "rule_table": _load_rules(args)}
    overrides = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _load_series(path: str) -> list[PriceSeries]:
    try:
        with open(path, "rb") as fh:
            return parse_csv(fh)
    except OSError as exc:
        raise MarketDataError(f"cannot read {path!r}: {exc}") from None


def _pick_symbol(series_list: list[PriceSeries], symbol: str) -> PriceSeries:
    for series in series_list:
        if series.symbol == symbol:
            return series
    known = ", ".join(s.symbol for s in series_list) or "none"
    raise MarketDataError(f"symbol {symbol!r} not in input (have: {known})")


_INDICATOR_COLUMNS = ("symbol", "period", "date", "close", "macd", "macd_signal",
                      "macd_histogram", "rsi", "rsi_level", "percent_k", "percent_d",
                      "williams", "williams_level")


def _indicator_rows(series_list: list[PriceSeries], cfg: ResolvedConfig) -> list[dict]:
    """One dict per period of each series, in input order, keyed by _INDICATOR_COLUMNS.

    A NaN cell is None and has no level. The first failing series in input
    order raises: its aggregation error, else its earliest period's RSI or
    Williams fault, RSI first.
    """
    def cells(column, blank=None) -> list[list]:  # None where `blank`, else the cell, is NaN
        return np.where(np.isnan(column if blank is None else blank), None, column).tolist()

    errors, blocks = period_frames(series_list, cfg, ("date", "high", "low", "close"))
    tables = {}
    for kept, periods, frame in blocks:
        # a blank cell is scaled as 0.0, which cannot fail
        rsi_scaled, wa_scaled, faults = scale_secondaries(
            *(np.where(np.isnan(x), 0.0, x) for x in (frame.rsi, frame.williams)), cfg.divisor)
        for cell, exc in faults.items():  # in cell order: a row's earliest period first
            errors.setdefault(kept[cell // frame.close.shape[1]], exc)
        if errors:
            continue
        rsi_level, wa_level = (level_labels(x, cfg.levels).reshape(frame.close.shape)
                               for x in (rsi_scaled, wa_scaled))
        columns = ([[day.isoformat() for day in row] for row in periods["date"].tolist()],
                   frame.close.tolist(), cells(frame.macd_line), cells(frame.signal_line),
                   cells(frame.histogram), cells(frame.rsi), cells(rsi_level, frame.rsi),
                   cells(frame.percent_k), cells(frame.percent_d), cells(frame.williams),
                   cells(wa_level, frame.williams))
        for j, i in enumerate(kept):
            symbol = itertools.repeat(series_list[i].symbol)
            tables[i] = [dict(zip(_INDICATOR_COLUMNS, row))
                         for row in zip(symbol, itertools.count(), *(c[j] for c in columns))]
    if errors:
        raise errors[min(errors)]
    return [row for i in range(len(series_list)) for row in tables[i]]


def _csv(header, rows) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def _json(payload) -> bytes:
    import json  # loaded only by the commands that print JSON

    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _cmd_indicators(args, cfg: ResolvedConfig) -> bytes:
    series_list = _load_series(args.csv)
    if args.symbol:
        series_list = [_pick_symbol(series_list, args.symbol)]
    if not any(series.bars for series in series_list):
        raise ValueError("empty input: no series to evaluate")
    rows = _indicator_rows(series_list, cfg)
    if args.format == "json":
        return _json(rows)
    return _csv(_INDICATOR_COLUMNS, (
        ["" if row[c] is None else repr(row[c]) if isinstance(row[c], float) else row[c]
         for c in _INDICATOR_COLUMNS] for row in rows))


def _cmd_signal(args, cfg: ResolvedConfig) -> bytes:
    rec = recommend(_pick_symbol(_load_series(args.csv), args.symbol), cfg)
    if args.format == "json":
        return _json({
            "symbol": rec.symbol,
            "fuzzy_output": rec.crisp,
            "signal": rec.signal.value,
            "centroid_interval": rec.centroid_interval,
            "config_fingerprint": cfg.fingerprint(),
        })
    line = f"{rec.symbol} fuzzy_output={rec.crisp:.6f} signal={rec.signal.value}"
    if rec.centroid_interval is not None:
        y_l, y_r = rec.centroid_interval
        line += f" centroid_interval=[{y_l:.6f}, {y_r:.6f}]"
    return (line + "\n").encode("utf-8")


def _cmd_portfolio(args, cfg: ResolvedConfig) -> bytes:
    from .evaluate import emit_report, run_portfolio

    return emit_report(run_portfolio(_load_series(args.csv), cfg), args.format)


def _cmd_backtest(args, cfg: ResolvedConfig) -> bytes:
    from .evaluate import backtest

    stats = backtest(_pick_symbol(_load_series(args.csv), args.symbol), cfg)
    if args.format == "json":
        return _json({
            "symbol": stats.symbol,
            "buy_hit_rate": stats.buy_hit_rate,
            "sell_hit_rate": stats.sell_hit_rate,
            "records": [
                {"period_index": r.period_index, "date": r.date.isoformat(),
                 "signal": r.signal.value, "next_return": r.next_return}
                for r in stats.records
            ],
        })
    return _csv(("symbol", "period_index", "date", "signal", "next_return"),
                ((stats.symbol, r.period_index, r.date.isoformat(), r.signal.value,
                  repr(r.next_return)) for r in stats.records))


def _cmd_rules(args, cfg: ResolvedConfig) -> bytes:
    echo = "".join(f"# {line}\n" for line in cfg.canonical_lines() if line.startswith("fuzzy."))
    return (echo + rules_to_csv(cfg.rule_base)).encode("utf-8")


def _cmd_fixtures(args, cfg: ResolvedConfig) -> bytes:
    """The fixture CSV, or nothing once it is written to --out."""
    from .fixtures import DEFAULT_SEED, portfolio_fixture

    seed = DEFAULT_SEED if args.seed is None else args.seed
    data = serialize_csv(portfolio_fixture(seed=seed, symbols=args.symbols,
                                           periods=args.periods,
                                           days_per_period=cfg.days_per_period))
    if not args.out:
        return data
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise MarketDataError(f"cannot write {args.out!r}: {exc}") from None
    return b""


_COMMANDS = {
    "indicators": _cmd_indicators,
    "signal": _cmd_signal,
    "portfolio": _cmd_portfolio,
    "backtest": _cmd_backtest,
    "rules": _cmd_rules,
    "fixtures": _cmd_fixtures,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        output = _COMMANDS[args.command](args, _resolve_config(args))
    except (ConfigError, MarketDataError, PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(output)
    return 0


def main() -> None:
    """The console script and `python -m fuzzsig.cli`: run, flush, then end the process.

    os._exit skips interpreter teardown (module cleanup, freeing the parsed
    table and numpy's objects) and every atexit handler; the CLI registers
    none, starts no thread and closes each file it opens. A failed write to
    stdout, in run() or at the flush, prints one error line and exits 1; any
    other exception escaping run() takes Python's normal path.
    """
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:  # run() turns every file error but a stdout write into exit 1
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
