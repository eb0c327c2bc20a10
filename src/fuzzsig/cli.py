"""Command-line front door: indicator dumps, signals, portfolio runs, backtests.

A command imports what only some commands use (fuzzsig.evaluate,
fuzzsig.fixtures, json) when it runs, so each process loads what its command
needs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import os
import sys

from .config import ConfigError, ResolvedConfig, load_config_file
from .indicators import indicator_frame
from .inference import PipelineError, recommend, rules_from_csv, rules_to_csv
from .market_data import MarketDataError, PriceSeries, aggregate_periods, parse_csv, serialize_csv
from .tuning import FibLevels, SecondaryKind, classify_level, scale_secondary

CONFIG_ENV_VAR = "FUZZSIG_CONFIG"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help=f"config file (default: ${CONFIG_ENV_VAR} if set)")
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
    _add_common(p)

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
    _add_common(p)

    return parser


def _resolve_config(args: argparse.Namespace) -> ResolvedConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_config_file(path) if path else ResolvedConfig()
    flags = {"delta": getattr(args, "delta", None),
             "days_per_period": getattr(args, "period_days", None)}
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


def _load_rules(args: argparse.Namespace):
    path = getattr(args, "rules", None)
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return rules_from_csv(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise MarketDataError(f"cannot read {path!r}: {exc}") from None


def _indicator_rows(series: PriceSeries, cfg: ResolvedConfig) -> list[dict]:
    periods = aggregate_periods(series, cfg.days_per_period)
    frame = indicator_frame(periods, **cfg.indicator_windows)
    levels = FibLevels(*cfg.levels)

    def value(column, t: int) -> float | None:
        x = float(column[t])
        return None if math.isnan(x) else x

    def level(kind: SecondaryKind, raw: float | None) -> str | None:
        if raw is None:
            return None
        return classify_level(scale_secondary(kind, raw, cfg.divisor), levels).value

    rows = []
    for t, bar in enumerate(periods.bars):
        rsi, williams = value(frame.rsi, t), value(frame.williams, t)
        rows.append({
            "symbol": periods.symbol,
            "period": t,
            "date": bar.date.isoformat(),
            "close": bar.close,
            "macd": value(frame.macd_line, t),
            "macd_signal": value(frame.signal_line, t),
            "macd_histogram": value(frame.histogram, t),
            "rsi": rsi,
            "rsi_level": level(SecondaryKind.RSI, rsi),
            "percent_k": value(frame.percent_k, t),
            "percent_d": value(frame.percent_d, t),
            "williams": williams,
            "williams_level": level(SecondaryKind.WA, williams),
        })
    return rows


def _write_json(payload) -> None:
    import json  # loaded only by the commands that print JSON

    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


_INDICATOR_COLUMNS = ("symbol", "period", "date", "close", "macd", "macd_signal",
                      "macd_histogram", "rsi", "rsi_level", "percent_k", "percent_d",
                      "williams", "williams_level")


def _cmd_indicators(args, cfg: ResolvedConfig) -> int:
    series_list = _load_series(args.csv)
    if args.symbol:
        series_list = [_pick_symbol(series_list, args.symbol)]
    rows = [row for series in series_list for row in _indicator_rows(series, cfg)]
    if args.format == "json":
        _write_json(rows)
    else:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_INDICATOR_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else repr(row[c]) if isinstance(row[c], float)
                             else row[c] for c in _INDICATOR_COLUMNS])
        sys.stdout.write(out.getvalue())
    return 0


def _cmd_signal(args, cfg: ResolvedConfig) -> int:
    series = _pick_symbol(_load_series(args.csv), args.symbol)
    rec = recommend(series, cfg, _load_rules(args))
    if args.format == "json":
        payload = {
            "symbol": rec.symbol,
            "fuzzy_output": rec.crisp,
            "signal": rec.signal.value,
            "centroid_interval": rec.centroid_interval,
            "config_fingerprint": cfg.fingerprint(),
        }
        _write_json(payload)
    else:
        line = f"{rec.symbol} fuzzy_output={rec.crisp:.6f} signal={rec.signal.value}"
        if rec.centroid_interval is not None:
            y_l, y_r = rec.centroid_interval
            line += f" centroid_interval=[{y_l:.6f}, {y_r:.6f}]"
        sys.stdout.write(line + "\n")
    return 0


def _cmd_portfolio(args, cfg: ResolvedConfig) -> int:
    from .evaluate import emit_report, run_portfolio

    series_list = _load_series(args.csv)
    report = run_portfolio(series_list, cfg, rule_base=_load_rules(args))
    sys.stdout.buffer.write(emit_report(report, args.format))
    return 0


def _cmd_backtest(args, cfg: ResolvedConfig) -> int:
    from .evaluate import backtest

    series = _pick_symbol(_load_series(args.csv), args.symbol)
    stats = backtest(series, cfg, _load_rules(args))
    if args.format == "json":
        payload = {
            "symbol": stats.symbol,
            "buy_hit_rate": stats.buy_hit_rate,
            "sell_hit_rate": stats.sell_hit_rate,
            "records": [
                {"period_index": r.period_index, "date": r.date.isoformat(),
                 "signal": r.signal.value, "next_return": r.next_return}
                for r in stats.records
            ],
        }
        _write_json(payload)
    else:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("symbol", "period_index", "date", "signal", "next_return"))
        for r in stats.records:
            writer.writerow((stats.symbol, r.period_index, r.date.isoformat(),
                             r.signal.value, repr(r.next_return)))
        sys.stdout.write(out.getvalue())
    return 0


def _cmd_rules(args, cfg: ResolvedConfig) -> int:
    for line in cfg.canonical_lines():
        if line.startswith("fuzzy."):
            sys.stdout.write(f"# {line}\n")
    sys.stdout.write(rules_to_csv(cfg.build_rule_base(), include_scores=True))
    return 0


def _cmd_fixtures(args, cfg: ResolvedConfig) -> int:
    from .fixtures import DEFAULT_SEED, portfolio_fixture

    seed = DEFAULT_SEED if args.seed is None else args.seed
    series_list = portfolio_fixture(seed=seed, symbols=args.symbols,
                                    periods=args.periods,
                                    days_per_period=cfg.days_per_period)
    data = serialize_csv(series_list)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise MarketDataError(f"cannot write {args.out!r}: {exc}") from None
    else:
        sys.stdout.buffer.write(data)
    return 0


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
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError, MarketDataError, PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
