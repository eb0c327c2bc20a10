#!/usr/bin/env python3
"""fuzzsig benchmark: the CLI timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload portfolio_wide --seed 7 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it measures the checkout it sits in.
The workload's OHLCV CSV is built from --seed with fuzzsig.fixtures, then
`python -m fuzzsig.cli ...` of the checkout runs as a fresh process, one at a
time, until --seconds have passed. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced passes with traced ones (perfbench/traced.py)
and reports the per-layer metrics. Every pass's stdout is checked. The last
stdout line is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 7
MIN_PASSES = 3
PASS_TIMEOUT_S = 150.0
CAL_REF_S = 0.4  # calibrate.py's time on the reference host: the unit of scaled times
SIGNALS = ("Buy", "Hold", "Sell")
# The default config's snapshot needs 35 period bars (MACD 26 + trigger 9), so a
# backtest over P periods scores the prefixes ending at periods 34 .. P-2.
SNAPSHOT_PERIODS = 35
HEADERS = {
    "portfolio": ["symbol", "fuzzy_output", "signal"],
    "backtest": ["symbol", "period_index", "date", "signal", "next_return"],
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # subcommand and its own options
    flags: tuple[str, ...]  # config overrides, also given to `rules dump`
    symbols: int
    periods: int
    days_per_period: int
    digest: str | None  # sha256 of the CLI's stdout at DEFAULT_SEED

    @property
    def kind(self) -> str:
        return self.command[0]

    @property
    def items(self) -> int:
        """Report rows or backtest records one pass should produce."""
        return self.symbols if self.kind == "portfolio" else self.periods - SNAPSHOT_PERIODS


WORKLOADS = {w.name: w for w in (
    # The paper's scan: parse_csv dominates.
    Workload("portfolio_wide", ("portfolio",), (), 200, 52, 15,
             "9ccae52ff3779b1f33917afb24b5873b704be73c8cbc5a7cfff30403d9d913da"),
    # Short daily histories: the per-symbol pipeline (variables, fuzzify, fire, KM) dominates.
    Workload("screen_daily", ("portfolio",), ("--period-days", "1"), 1000, 60, 1,
             "5c6b4d372e164ded65168bd0c5f85514f205c033e30e4d9d941e7cbf9437bfab"),
    # One long type-1 backtest: snapshot over every prefix dominates; KM never runs.
    Workload("backtest_long", ("backtest", "--symbol", "SYN00"), ("--delta", "0"), 1, 1040, 15,
             "068158cbbcb41e3db24b747279a7ebc1f0686a6093927ad58583996397f9d0fa"),
)}

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "market_data.parse_csv.rows": "count",
    "market_data.parse_csv.self_s": "s",
    "market_data.parse_csv.us_per_row": "us/row",
    "market_data.aggregate_periods.calls": "count",
    "market_data.aggregate_periods.self_s": "s",
    "indicators.snapshot.calls": "count",
    "indicators.snapshot.bars_in": "count",
    "indicators.snapshot.self_s": "s",
    "indicators.snapshot.us_per_call": "us/call",
    "fuzzy.default_variables.calls": "count",
    "fuzzy.default_variables.self_s": "s",
    "fuzzy.fuzzify.calls": "count",
    "fuzzy.fuzzify.self_s": "s",
    "inference.build_rule_base.calls": "count",
    "inference.build_rule_base.self_s": "s",
    "inference.fire_rules.calls": "count",
    "inference.fire_rules.self_s": "s",
    "inference.km_type_reduce.calls": "count",
    "inference.defuzzify.calls": "count",
    "inference.type_reduce.self_s": "s",
    "inference.recommend_periods.calls": "count",
    "inference.recommend_periods.self_s": "s",
    "inference.recommend_periods.errors": "count",
    "evaluate.self_s": "s",
    "cli.run.self_s": "s",
    "cli.cpu_s": "s",
    "market_data.share": "ratio",
    "indicators.share": "ratio",
    "fuzzy.share": "ratio",
    "inference.share": "ratio",
    "evaluate.share": "ratio",
    "cli.share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
MODULES = ("market_data", "indicators", "fuzzy", "inference", "evaluate", "cli")


@dataclass(frozen=True)
class Pass:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int | None  # None when it was killed at the timeout
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FUZZSIG_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], timeout: float = PASS_TIMEOUT_S) -> Pass:
    """Run argv to completion: wall time until exit with stdout drained, plus rusage."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    try:
        pending = list(chunks)
        while pending:
            remaining = start + timeout - perf_counter()
            if remaining <= 0:
                return Pass(perf_counter() - start, 0.0, 0.0, None, b"", b"timed out")
            ready, _, _ = select.select(pending, [], [], remaining)
            for stream in ready:
                data = os.read(stream.fileno(), 1 << 16)
                if data:
                    chunks[stream].append(data)
                else:
                    pending.remove(stream)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Pass(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]))


def check_output(w: Workload, stdout: bytes) -> tuple[int, str | None]:
    """Items that failed in one pass's stdout, and what makes the whole pass wrong."""
    try:
        table = list(csv.reader(stdout.decode("utf-8").splitlines()))
    except UnicodeDecodeError:
        return w.items, "stdout is not UTF-8"
    header, rows = (table[0], table[1:]) if table else ([], [])
    if header != HEADERS[w.kind]:
        return w.items, f"unexpected header {header}"
    if len(rows) != w.items:
        return w.items, f"{len(rows)} rows, expected {w.items}"
    column = header.index("signal")
    failed = 0
    for row in rows:
        signal = row[column] if len(row) == len(header) else ""
        if w.kind == "portfolio" and signal.startswith("error: "):
            failed += 1
        elif signal not in SIGNALS:
            return w.items, f"bad row {row}"
    return failed, None


class Tally:
    """Scores passes against the warm-up pass's stdout."""

    def __init__(self, w: Workload, reference: bytes) -> None:
        self.w = w
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, None] = {}

    def problem(self, text: str) -> None:
        self.problems.setdefault(text)

    def score(self, p: Pass) -> int:
        """Items the pass completed; the rest count as failed."""
        items = self.w.items
        self.attempted += items
        if p.returncode != 0:
            last = p.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            self.problem(f"exit {p.returncode}: {' '.join(last)}")
            failed = items
        elif p.stdout != self.reference:
            self.problem("stdout differs between passes")
            failed = items
        else:
            failed, wrong = check_output(self.w, p.stdout)
            if wrong:
                self.problem(wrong)
        self.failed += failed
        return items - failed


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per function: calls, summed self time, spans that raised, summed size."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, raised, size) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0, "size": 0})
        s["calls"] += 1
        s["self_s"] += end - start - covered[i]
        s["errors"] += raised
        s["size"] += size
    return stats


def layer_values(stats: dict[str, dict[str, float]], trace_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except those from untraced passes."""
    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    for name, s in stats.items():
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.self_s"] = s["self_s"]
    rows = get("market_data.parse_csv", "size")
    snapshots = get("indicators.snapshot", "calls")
    values["market_data.parse_csv.rows"] = rows
    values["market_data.parse_csv.us_per_row"] = \
        1e6 * get("market_data.parse_csv", "self_s") / rows if rows else 0.0
    values["indicators.snapshot.bars_in"] = get("indicators.snapshot", "size")
    values["indicators.snapshot.us_per_call"] = \
        1e6 * get("indicators.snapshot", "self_s") / snapshots if snapshots else 0.0
    values["inference.recommend_periods.errors"] = get("inference.recommend_periods", "errors")
    # Exactly one of KM and the type-1 centroid runs on a workload, and exactly
    # one of the portfolio and backtest entry points, so their times are summed.
    values["inference.type_reduce.self_s"] = \
        get("inference.km_type_reduce", "self_s") + get("inference.defuzzify", "self_s")
    values["evaluate.self_s"] = sum(s["self_s"] for n, s in stats.items()
                                    if n.startswith("evaluate."))
    for module in MODULES:
        self_s = sum(s["self_s"] for n, s in stats.items() if n.startswith(module + "."))
        values[f"{module}.share"] = self_s / trace_wall
    values["trace.wall_s"] = trace_wall
    return {k: values.get(k, 0) for k in PER_LAYER}


def write_input(w: Workload, seed: int, path: Path, basket=None) -> float:
    """Write the workload's CSV (built from the seed unless a basket is given); return seconds."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fuzzsig.fixtures import portfolio_fixture
    from fuzzsig.market_data import serialize_csv

    start = perf_counter()
    if basket is None:
        basket = portfolio_fixture(seed, w.symbols, w.periods, w.days_per_period)
    path.write_bytes(serialize_csv(basket))
    return perf_counter() - start


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def same_output(runs: list[Pass]) -> bool:
    return all(r.returncode == 0 and r.stdout and r.stdout == runs[0].stdout for r in runs)


def measure_end_to_end(w: Workload, cli: list[str], tally: Tally, seconds: float,
                       min_passes: int) -> tuple[dict, dict, dict]:
    """Timed passes, each after a `rules dump` and between two calibration runs.

    Host speed drifts by tens of percent within minutes, and all processes
    drift together. Each pass and its `rules dump` are therefore scaled by
    CAL_REF_S over the mean time of the calibration runs on either side.
    """
    calibration = [sys.executable, str(HERE / "calibrate.py")]
    rules_dump = [sys.executable, "-m", "fuzzsig.cli", "rules", "dump", *w.flags]
    cals, setups, passes = [run_child(calibration)], [], []
    started = perf_counter()
    while len(passes) < min_passes or perf_counter() - started < seconds:
        setups.append(run_child(rules_dump))
        passes.append(run_child(cli))
        cals.append(run_child(calibration))
    if not same_output(cals):
        tally.problem("calibration run failed or changed its output")
    if not same_output(setups):
        tally.problem("rules dump failed or changed its output")
    scales = [2 * CAL_REF_S / (a.wall_s + b.wall_s) for a, b in zip(cals, cals[1:])]
    done = [tally.score(p) for p in passes]
    wall = [p.wall_s * k for p, k in zip(passes, scales)]
    samples = {
        "wall_s": wall,
        "items_per_s": [d / t for d, t in zip(done, wall)],
        "setup_s": [r.wall_s * k for r, k in zip(setups, scales)],
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    unscaled = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(r.wall_s for r in setups),
        "calibration_s": statistics.median(c.wall_s for c in cals),
    }
    return ({k: statistics.median(v) for k, v in samples.items()},
            {k: len(v) for k, v in samples.items()},
            {"unscaled_medians": unscaled, "wall_s_tail": tail(wall)})


def measure_layers(w: Workload, cli: list[str], tally: Tally, seconds: float,
                   min_passes: int, csv_path: Path) -> tuple[dict, dict, dict]:
    """Traced passes alternating with untraced ones; medians of every layer metric."""
    spans_path = csv_path.with_name("spans.json")
    traced = [sys.executable, str(HERE / "traced.py"), str(spans_path),
              *w.command, *w.flags, str(csv_path)]
    samples: dict[str, list[float]] = {}
    missing: set[str] = set()
    walls, cpus = [], []
    started = perf_counter()
    while len(walls) < min_passes or perf_counter() - started < seconds:
        spans_path.unlink(missing_ok=True)
        t = run_child(traced)
        tally.score(t)
        if spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            missing.update(spans["missing"])
            for k, v in layer_values(span_stats(spans["spans"]), t.wall_s).items():
                samples.setdefault(k, []).append(v)
        p = run_child(cli)
        tally.score(p)
        walls.append(p.wall_s)
        cpus.append(p.cpu_s)
    for k, v in samples.items():
        if PER_LAYER[k] == "count" and len(set(v)) > 1:
            tally.problem(f"{k} changed between traced passes: {sorted(set(v))}")
    values = {k: statistics.median(samples[k]) if k in samples else 0.0 for k in PER_LAYER}
    values["cli.cpu_s"] = statistics.median(cpus)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
    counts = {k: len(samples.get(k, ())) for k in PER_LAYER}
    counts["cli.cpu_s"] = len(cpus)
    counts["trace.overhead_s"] = counts["trace.wall_s"]
    return values, counts, {"missing_trace_targets": sorted(missing)}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 min_passes: int = MIN_PASSES, basket=None) -> dict:
    """Measure one workload; returns the result object plus a report for people."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        csv_path = scratch / "input.csv"
        generate_s = write_input(w, seed, csv_path, basket)
        input_bytes = csv_path.stat().st_size
        cli = [sys.executable, "-m", "fuzzsig.cli", *w.command, *w.flags, str(csv_path)]
        warm = run_child(cli)  # compiles .pyc; its stdout is the reference
        digest = hashlib.sha256(warm.stdout).hexdigest()
        tally = Tally(w, warm.stdout)
        if w.digest is not None and seed == DEFAULT_SEED and digest != w.digest:
            tally.problem(f"stdout sha256 {digest} is not the pinned {w.digest}")
        if trace:
            values, counts, extra = measure_layers(w, cli, tally, seconds, min_passes, csv_path)
        else:
            values, counts, extra = measure_end_to_end(w, cli, tally, seconds, min_passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    return {
        "result": {
            "correct": not tally.problems and tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
        "report": {
            "workload": w.name,
            "seed": seed,
            "trace": int(trace),
            "problems": list(tally.problems),
            "failed_frac": tally.failed / tally.attempted,
            "stdout_sha256": digest,
            "samples": counts,
            "input": {"bytes": input_bytes, "generate_s": generate_s},
            **extra,
        },
    }


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzsig" / "cli.py").is_file():
        print(f"error: no fuzzsig sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result, report = out["result"], out["report"]
    report["environment"] = environment(args.seed)
    for text in report["problems"]:
        print(f"problem: {text}", file=sys.stderr)
    for name in report.get("missing_trace_targets", ()):
        print(f"warning: trace target {name} not found; its metrics read 0", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:40} {m['value']:>14.6g} {m['unit']:8} n={report['samples'][name]}")
    print(f"{'failed_frac':40} {report['failed_frac']:>14.6g} {'ratio':8} "
          f"({result['failed']} of {result['attempted']} items)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
