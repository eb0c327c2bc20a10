#!/usr/bin/env python3
"""Check that every function under src/fuzzsig is entered by some CLI command.

Run from anywhere, with no arguments:

    python3 scripts/reach.py

It runs a fixed matrix of fuzzsig CLI calls in this process, under
sys.setprofile: every command and format, delta 0, 0.05 and 0.15, one-day
periods, a config file, rule tables, the bundled fixture, a 20-symbol basket,
a symbol outside ASCII and malformed inputs. It also reads one public name of
the package and calls dir() on it. Every def under src/fuzzsig (found with
ast) must be entered, or be in KEEP with its reason. The script exits 1 and
names each function that was never entered, each KEEP entry that names no
function or one that was entered, and each call that exited with a code other
than the expected one. Its input and output files live in a temporary
directory.

Under `python -X dev -W error scripts/reach.py` each warning a call raises is
an error, and one raised where nothing can catch it, such as the
ResourceWarning of a file left open, is a problem that names the call.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fuzzsig"
FIXTURE = ROOT / "tests" / "data" / "portfolio_fixture.csv"

# Functions no CLI command enters that stay, by module.qualname, with the reason.
KEEP = {
    "_frozen.Frozen.__reduce__": "copies and pickles rebuild a value type through __init__, "
                                 "which keeps the per-process salted hash out of them",
    "_frozen.Frozen.__setattr__": "makes the value types' attributes read-only; no command "
                                  "assigns one",
    "cli.main": "the console script of pyproject.toml; it ends the process with os._exit, "
                "so the matrix calls cli.run and tests/test_exit.py runs main in subprocesses",
    "market_data.Bars.__add__": "concatenates two Bars column by column; the benchmark's "
                                "smoke test builds its duplicate-row basket with it",
    "market_data.Bars.__eq__": "two Bars are equal when every column is: series equality, "
                               "and the serialize_csv round trip",
    "market_data.Bars.__hash__": "hashes the column values, so equal Bars hash equal",
    "tuning.golden_ratio": "the paper's golden ratio, which acceptance criterion 4 checks",
}

HEADER = "symbol,date,open,high,low,close,volume\n"
GOOD_ROW = "SYN,2017-01-03,10,11,9,10.5,1000\n"
# Each one fails a different check of parse_csv.
MALFORMED = {
    "bad_header.csv": "sym,date,open,high,low,close,volume\n" + GOOD_ROW,
    "bad_number.csv": HEADER + "SYN,2017-01-03,10,eleven,9,10.5,1000\n",
    "bad_date.csv": HEADER + "SYN,2017-02-30,10,11,9,10.5,1000\n",
    "bad_bar.csv": HEADER + "SYN,2017-01-03,10,11,10.2,9.5,1000\n",
    "duplicate.csv": HEADER + GOOD_ROW + GOOD_ROW,
}
CONFIG = """\
# a comment line
data.days_per_period = 10
indicators.rsi_window = 14
tuning.levels = 0.4, 0.6
fuzzy.delta = 0.1
fuzzy.wa.high = gaussian 0.618 0.25
rules.buy_at = 3
"""
BAD_CONFIG = "fuzzy.delta = -1\n"
BAD_MF_CONFIG = "fuzzy.rsi.medium = triangular 0.6 0.5 0.4\n"
BAD_RULES = "macd,rsi,so,wa,consequent\nlow,low,low,nope,sell\n"


def functions() -> dict[tuple[str, int], str]:
    """Every def under PACKAGE: (file, first line, decorators included) -> module.qualname."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node: ast.AST, scope: list[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[str(path), line] = ".".join([module, *scope, child.name])
                    visit(child, [*scope, child.name])
                elif isinstance(child, ast.ClassDef):
                    visit(child, [*scope, child.name])
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def matrix(cli, tmp: Path, problems: list[str]) -> None:
    """The fixed command matrix, with its files written under tmp."""
    fixture, basket, short = str(FIXTURE), str(tmp / "basket.csv"), str(tmp / "short.csv")
    accented = str(tmp / "accented.csv")

    def call(*argv: str, expected: int = 0) -> bytes:
        """cli.run(argv)'s stdout, with stderr captured; a wrong exit code is a problem.

        So is an exception that nothing could catch, such as a finalizer's.
        """
        # ascii: a command that wrote text, not UTF-8 bytes, fails on the non-ASCII symbol
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        sys.unraisablehook = lambda hook: problems.append(
            f"{hook.exc_type.__name__}: {hook.exc_value}: fuzzsig {' '.join(argv)}")
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.run(list(argv))
        finally:
            sys.unraisablehook = sys.__unraisablehook__
        out.flush()
        if code != expected:
            problems.append(f"exit {code}, expected {expected}: fuzzsig {' '.join(argv)}\n"
                            f"    {err.getvalue().strip()}")
        return out.buffer.getvalue()

    call("fixtures", "generate", "--symbols", "20", "--out", basket)
    call("fixtures", "generate", "--seed", "5", "--symbols", "2", "--periods", "3",
         "--period-days", "5")
    # SYN00 cut short of one period, SYN01 of the indicators' history; SYN02 whole
    lines = call("fixtures", "generate", "--symbols", "3", "--periods", "40").decode(
        "utf-8").splitlines(keepends=True)
    Path(short).write_text("".join(lines[:11] + lines[601:901] + lines[1201:]),
                           encoding="utf-8")
    Path(accented).write_text(lines[0] + "".join(line.replace("SYN02,", "\u00c4BC,")
                                                 for line in lines[1201:]), encoding="utf-8")
    for name, text in MALFORMED.items():
        (tmp / name).write_text(text, encoding="utf-8")
    (tmp / "fuzzsig.cfg").write_text(CONFIG, encoding="utf-8")
    (tmp / "bad.cfg").write_text(BAD_CONFIG, encoding="utf-8")
    (tmp / "bad_mf.cfg").write_text(BAD_MF_CONFIG, encoding="utf-8")
    dump = call("rules", "dump").decode("utf-8").splitlines(keepends=True)
    rules = [line for line in dump if not line.startswith("#")]
    (tmp / "rules.csv").write_text("".join(rules), encoding="utf-8")
    (tmp / "one_rule.csv").write_text("".join(rules[:2]), encoding="utf-8")
    (tmp / "bad_rules.csv").write_text(BAD_RULES, encoding="utf-8")
    config, rules_csv = str(tmp / "fuzzsig.cfg"), str(tmp / "rules.csv")

    for delta in ("0", "0.05", "0.15"):
        call("rules", "dump", "--delta", delta)
        for fmt in ("csv", "json", "plotdata"):
            call("portfolio", fixture, "--format", fmt, "--delta", delta)
        for fmt in ("text", "json"):
            call("signal", fixture, "--symbol", "SYN03", "--format", fmt, "--delta", delta)
        for fmt in ("csv", "json"):
            call("backtest", fixture, "--symbol", "SYN01", "--format", fmt, "--delta", delta)
    for fmt in ("csv", "json"):
        call("indicators", fixture, "--symbol", "SYN02", "--format", fmt)
    call("indicators", fixture)
    call("signal", accented, "--symbol", "\u00c4BC")
    call("backtest", accented, "--symbol", "\u00c4BC")
    call("indicators", accented)
    call("indicators", short, "--symbol", "SYN01", "--format", "json")
    call("portfolio", basket)
    call("portfolio", basket, "--delta", "0")
    call("portfolio", short)
    call("portfolio", short, "--delta", "0")
    call("portfolio", fixture, "--period-days", "1")
    call("portfolio", fixture, "--period-days", "1", "--delta", "0")
    call("signal", fixture, "--symbol", "SYN00", "--period-days", "1")
    call("backtest", fixture, "--symbol", "SYN04", "--period-days", "1", "--delta", "0")
    call("indicators", fixture, "--symbol", "SYN05", "--period-days", "1")
    call("rules", "dump", "--config", config)
    call("portfolio", fixture, "--config", config)
    call("signal", fixture, "--symbol", "SYN06", "--config", config, "--format", "json")
    call("backtest", fixture, "--symbol", "SYN07", "--config", config)
    call("indicators", fixture, "--symbol", "SYN08", "--config", config)
    call("portfolio", fixture, "--rules", rules_csv)
    call("portfolio", fixture, "--rules", str(tmp / "one_rule.csv"), "--delta", "0")
    call("portfolio", fixture, "--rules", str(tmp / "one_rule.csv"))
    call("signal", fixture, "--symbol", "SYN09", "--rules", rules_csv, "--delta", "0")
    call("backtest", fixture, "--symbol", "SYN09", "--rules", rules_csv)

    # failures: each exits 1 with its error, or 2 with argparse's usage
    for name in MALFORMED:
        call("portfolio", str(tmp / name), expected=1)
    call("portfolio", str(tmp / "missing.csv"), expected=1)
    call("signal", fixture, "--symbol", "NOPE", expected=1)
    call("signal", short, "--symbol", "SYN00", expected=1)
    call("backtest", short, "--symbol", "SYN01", expected=1)
    call("portfolio", fixture, "--config", str(tmp / "bad.cfg"), expected=1)
    call("rules", "dump", "--config", str(tmp / "bad_mf.cfg"), expected=1)
    call("portfolio", fixture, "--config", str(tmp / "missing.cfg"), expected=1)
    call("portfolio", fixture, "--rules", str(tmp / "bad_rules.csv"), expected=1)
    call("portfolio", fixture, "--rules", str(tmp / "missing_rules.csv"), expected=1)
    call("portfolio", fixture, "--delta", "-1", expected=1)
    call("fixtures", "generate", "--out", str(tmp / "no_dir" / "out.csv"), expected=1)
    call("fixtures", "generate", "--symbols", "0", expected=2)
    call("portfolio", expected=2)


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ.pop("FUZZSIG_CONFIG", None)  # the matrix names its config files itself
    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="fuzzsig-reach-") as tmp:
        sys.setprofile(profile)
        try:
            import fuzzsig
            import fuzzsig.cli

            fuzzsig.ResolvedConfig  # loads through the package's PEP 562 __getattr__
            dir(fuzzsig)
            matrix(fuzzsig.cli, Path(tmp), problems)
        finally:
            sys.setprofile(None)
    if Path(fuzzsig.__file__).resolve().parent != PACKAGE:
        problems.append(f"imported fuzzsig from {fuzzsig.__file__}, not {PACKAGE}")

    defined = functions()
    names = set(defined.values())
    never = sorted(f"{name} ({Path(path).relative_to(ROOT)}:{line})"
                   for (path, line), name in defined.items()
                   if (path, line) not in entered and name not in KEEP)
    problems += [f"never entered: {entry}" for entry in never]
    problems += [f"KEEP names no function: {name}" for name in sorted(KEEP.keys() - names)]
    problems += [f"KEEP entry is entered: {name}" for (path, line), name in defined.items()
                 if name in KEEP and (path, line) in entered]
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"all {len(defined)} functions under {PACKAGE.relative_to(ROOT)} are entered "
          f"or kept ({len(KEEP)} kept)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
