"""Run one fuzzsig CLI command with its layer functions timed from outside.

    python3 perfbench/traced.py SPANS.json portfolio data.csv [flags...]

Each function in TARGETS is wrapped wherever a fuzzsig module holds a
reference to it: callers import these functions by name, so patching only the
defining module would record nothing. The command then runs through
fuzzsig.cli.run(argv) under a root span named "cli.run". Spans stay in memory
and are written to SPANS.json when the command returns.

A span is [name, start, end, parent index or -1, raised, size], where size is
the rows parse_csv returned or the period bars snapshot was given (also
when it raised), else 0.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

TARGETS = (
    ("market_data", "parse_csv"),
    ("market_data", "aggregate_periods"),
    ("indicators", "snapshot"),
    ("fuzzy", "default_variables"),
    ("fuzzy", "fuzzify"),
    ("inference", "build_rule_base"),
    ("inference", "fire_rules"),
    ("inference", "km_type_reduce"),
    ("inference", "defuzzify"),
    ("inference", "recommend_periods"),
    ("evaluate", "run_portfolio"),
    ("evaluate", "backtest"),
    ("evaluate", "emit_report"),
)

SIZES = {
    "market_data.parse_csv": lambda args, result: sum(len(s.bars) for s in result or ()),
    "indicators.snapshot": lambda args, result: len(args[0].bars),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        size = SIZES.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, False, 0]
            open_.append(len(spans))
            spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()
                if size is not None:
                    span[5] = size(args, result)

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in each loaded fuzzsig module; return the targets not found."""
    import fuzzsig.cli  # noqa: F401  (loads every module the CLI calls into)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "fuzzsig" or name.startswith("fuzzsig."))]
    missing = []
    for module_name, attr in TARGETS:
        original = getattr(sys.modules.get(f"fuzzsig.{module_name}"), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(f"{module_name}.{attr}", original)
        for module in modules:
            if vars(module).get(attr) is original:
                setattr(module, attr, wrapped)
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    import fuzzsig.cli

    code = tracer.wrap("cli.run", fuzzsig.cli.run)(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"missing": missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
