#!/usr/bin/env python3
"""Split a fresh fuzzsig CLI process into four phases, and print their medians.

    python3 scripts/phases.py COMMAND...
    python3 scripts/phases.py rules dump
    python3 scripts/phases.py backtest tests/data/portfolio_fixture.csv --symbol SYN00

Each run starts a fresh interpreter with a `-c` driver that imports numpy,
then fuzzsig.cli, then calls fuzzsig.cli.main() with COMMAND, as
`python -m fuzzsig.cli COMMAND` would. The driver stamps the clock at each
step on its first stderr line (time.perf_counter reads one clock in every
process), and this script stamps the start and the exit:

- start_ms: from spawning the process to the driver's first line
- numpy_ms: `import numpy`
- fuzzsig_ms: `import fuzzsig.cli` with numpy already loaded
- run_exit_ms: main(), flush and exit, until the process is reaped

One warm-up run comes first. The command's stdout is discarded; a run that
exits non-zero stops the script with its stderr. The last stdout line is
one JSON object with the median of each phase and of their total, over
RUNS runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
PHASES = ("start_ms", "numpy_ms", "fuzzsig_ms", "run_exit_ms")
RUNS = 15

DRIVER = """\
import sys, time
t1 = time.perf_counter()
import numpy
t2 = time.perf_counter()
import fuzzsig.cli
t3 = time.perf_counter()
sys.stderr.write(f"{t1!r} {t2!r} {t3!r}\\n")
sys.argv[0] = "fuzzsig"
fuzzsig.cli.main()
"""


def one_run(command: list[str], env: dict[str, str]) -> list[float]:
    """The four phases of one process, in ms."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", DRIVER, *command], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    t4 = perf_counter()
    if proc.returncode != 0:
        sys.exit(f"`fuzzsig {' '.join(command)}` exited {proc.returncode}:\n{proc.stderr}")
    t1, t2, t3 = map(float, proc.stderr.split("\n", 1)[0].split())
    return [1000 * (b - a) for a, b in ((t0, t1), (t1, t2), (t2, t3), (t3, t4))]


def main() -> None:
    command = sys.argv[1:]
    if not command:
        sys.exit("usage: phases.py COMMAND...  (a fuzzsig command, such as: rules dump)")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    one_run(command, env)  # warm-up
    runs = [one_run(command, env) for _ in range(RUNS)]
    medians = {name: round(statistics.median(column), 1)
               for name, column in zip(PHASES, zip(*runs))}
    medians["total_ms"] = round(statistics.median(sum(run) for run in runs), 1)
    print(json.dumps({"command": " ".join(command), "runs": RUNS, **medians}))


if __name__ == "__main__":
    main()
