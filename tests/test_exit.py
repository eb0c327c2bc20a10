"""How a CLI process ends: main() flushes both streams, then calls os._exit.

A `python -m fuzzsig.cli` process must print what cli.run prints in process,
byte for byte, and exit with its code; its stdout is UTF-8 under any
PYTHONIOENCODING. os._exit skips atexit handlers and thread joins, so none
may exist; and a stdout write that fails gives one error line and exit 1
under either buffering.
"""

import json
import os
import subprocess
import sys

import pytest

from fuzzsig.cli import run

from conftest import DATA_DIR, cli_env

FIXTURE = str(DATA_DIR / "portfolio_fixture.csv")


def cli_process(argv, stdout=subprocess.PIPE, **env_changes) -> subprocess.CompletedProcess:
    # a fixed width keeps argparse's usage lines alike in and out of process
    return subprocess.run([sys.executable, "-m", "fuzzsig.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=cli_env(COLUMNS="80", **env_changes),
                          timeout=120)


@pytest.mark.parametrize("argv, code", [
    (["rules", "dump"], 0),
    (["signal", FIXTURE, "--symbol", "SYN03"], 0),
    (["signal", FIXTURE, "--symbol", "SYN03", "--format", "json"], 0),
    (["portfolio", FIXTURE], 0),
    (["portfolio", FIXTURE, "--format", "json"], 0),
    (["portfolio", FIXTURE, "--format", "plotdata"], 0),
    (["backtest", FIXTURE, "--symbol", "SYN07"], 0),
    (["backtest", FIXTURE, "--symbol", "SYN07", "--format", "json"], 0),
    (["indicators", FIXTURE], 0),
    (["indicators", FIXTURE, "--format", "json"], 0),
    (["fixtures", "generate", "--symbols", "3"], 0),
    (["signal", FIXTURE, "--symbol", "NOPE"], 1),
    (["rules", "nope"], 2),
], ids=["rules-dump", "signal-text", "signal-json", "portfolio-csv", "portfolio-json",
        "portfolio-plotdata", "backtest-csv", "backtest-json", "indicators-csv",
        "indicators-json", "fixtures-generate", "unknown-symbol", "usage"])
def test_process_prints_what_run_prints(argv, code, capsysbinary, monkeypatch):
    # buffered stdout, where a missing flush would drop the tail
    proc = cli_process(argv, PYTHONUNBUFFERED=None)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("FUZZSIG_CONFIG", raising=False)
    assert run(argv) == code
    captured = capsysbinary.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert captured.out if code == 0 else captured.err


def test_stdout_bytes_do_not_depend_on_its_encoding(tmp_path):
    # every command writes UTF-8 to the binary stdout, whatever PYTHONIOENCODING says
    with open(FIXTURE, encoding="utf-8") as fh:
        header, *rows = fh
    basket = tmp_path / "basket.csv"
    basket.write_text(header + "".join(row.replace("SYN00,", "\u00c4BC,") for row in rows
                                       if row.startswith("SYN00,")), encoding="utf-8")
    path, symbol = str(basket), ["--symbol", "\u00c4BC"]
    for argv, shown in [(["signal", path, *symbol], b"\xc3\x84BC"),
                        (["signal", path, *symbol, "--format", "json"], b'"\\u00c4BC"'),
                        (["backtest", path, *symbol], b"\xc3\x84BC"),
                        (["indicators", path], b"\xc3\x84BC"),
                        (["portfolio", path], b"\xc3\x84BC"),
                        (["rules", "dump"], b"\nmacd,rsi,so,wa,consequent,score\n")]:
        procs = [cli_process(argv, PYTHONIOENCODING=encoding)
                 for encoding in (None, "ascii", "latin-1")]
        assert [(p.returncode, p.stdout, p.stderr) for p in procs] == [
            (0, procs[0].stdout, b"")] * 3, argv
        assert shown in procs[0].stdout, argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["rules", "dump"], ["portfolio", FIXTURE]],
                         ids=["rules-dump", "portfolio"])
def test_failed_stdout_write_is_one_error_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = cli_process(argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"]


PRECONDITION = """\
import atexit, importlib, io, json, pkgutil, sys, threading
callbacks = atexit._ncallbacks()
import fuzzsig
for module in pkgutil.iter_modules(fuzzsig.__path__):
    importlib.import_module("fuzzsig." + module.name)
from fuzzsig.cli import run
fixture, config = sys.argv[1:]
calls = [["rules", "dump", "--config", config],
         ["signal", fixture, "--symbol", "SYN00", "--format", "json"],
         ["portfolio", fixture, "--format", "json"],
         ["backtest", fixture, "--symbol", "SYN00", "--format", "json"],
         ["indicators", fixture, "--format", "json"],
         ["fixtures", "generate", "--symbols", "2", "--periods", "40"]]
out, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
codes = [run(argv) for argv in calls]
sys.stdout = out
print(json.dumps({"codes": codes, "callbacks": [callbacks, atexit._ncallbacks()],
                  "threads": threading.active_count()}))
"""


def test_cli_leaves_nothing_for_interpreter_teardown(tmp_path):
    # what os._exit would skip: an atexit handler, or a thread left running
    config = tmp_path / "conf.txt"
    config.write_text("fuzzy.delta = 0.1\n")
    proc = subprocess.run([sys.executable, "-c", PRECONDITION, FIXTURE, str(config)],
                          capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    assert state["codes"] == [0] * 6
    assert state["callbacks"][1] == state["callbacks"][0]
    assert state["threads"] == 1
