"""Every config value and CLI option moves some output, or ALLOWED says why it may not.

One case per key of config._SETTINGS, and one per element of a tuple value. Each
value is perturbed on its own (ints by +-1, floats by x1.1 and x0.9, a tuple
element by x1.05 and x0.95) and written as a one-line --config file. Three
commands run on the bundled fixture: `portfolio --format json`, `indicators` and
`rules dump`. The json `config_fingerprint` and `rules dump`'s `# fuzzy.` echo
lines render the config itself, so they are masked. A case passes when some
perturbation that loads moves some stdout byte of a command that succeeds.

One case per membership-function parameter (`fuzzy.<variable>.<term>`, 29 in
all), perturbed by x1.01 and x0.99 in a one-line config. On the bundled fixture
six such shifts of `fuzzy.rsi` and `fuzzy.so` breakpoints move no byte, so
these cases score a 200-symbol seeded basket with run_portfolio at a footprint
width of 0 and 0.05, and pass when some crisp value changes by any bit.

One case per option of each subcommand, read from cli.build_parser(). FLAGS
lists the argv each command starts from and the values to try for each of
its options. A case passes when some value, added to the start argv, moves
that command's stdout, unmasked, and the command succeeds.
"""

import argparse
import contextlib
import dataclasses
import io
import itertools
import re

import pytest

from fuzzsig.cli import build_parser, run
from fuzzsig.config import (_KIND, _SETTINGS, ConfigError, ResolvedConfig, format_mf,
                            parse_config_text)
from fuzzsig.evaluate import run_portfolio
from fuzzsig.fixtures import portfolio_fixture
from fuzzsig.inference import ANTECEDENT_TERMS

from conftest import DATA_DIR

FIXTURE = str(DATA_DIR / "portfolio_fixture.csv")
COMMANDS = (["portfolio", FIXTURE, "--format", "json"], ["indicators", FIXTURE], ["rules", "dump"])

# command -> the argv its cases start from, and option -> the values to try;
# {config}, {rules} and {out} name files the flag_files fixture writes
FLAGS = {
    "indicators": (["indicators", FIXTURE], {
        "--symbol": ["SYN01"], "--format": ["json"], "--config": ["{config}"],
        "--period-days": ["5"]}),
    "signal": (["signal", FIXTURE, "--symbol", "SYN00"], {
        "--symbol": ["SYN01"], "--rules": ["{rules}"], "--format": ["json"],
        "--config": ["{config}"], "--delta": ["0", "0.1"], "--period-days": ["5"]}),
    "portfolio": (["portfolio", FIXTURE], {
        "--rules": ["{rules}"], "--format": ["json", "plotdata"], "--config": ["{config}"],
        "--delta": ["0", "0.1"], "--period-days": ["5"]}),
    "backtest": (["backtest", FIXTURE, "--symbol", "SYN00"], {
        "--symbol": ["SYN01"], "--rules": ["{rules}"], "--format": ["json"],
        "--config": ["{config}"], "--delta": ["0", "0.1"], "--period-days": ["5"]}),
    "rules": (["rules", "dump"], {
        "--config": ["{config}"], "--delta": ["0", "0.1"], "--period-days": ["5", "1"]}),
    "fixtures": (["fixtures", "generate", "--symbols", "2"], {
        "--seed": ["8"], "--symbols": ["3"], "--periods": ["40"], "--out": ["{out}"],
        "--config": ["{config}"], "--period-days": ["5"]}),
}

# case ("key", "key[i]" or "command --option") -> why that value may move no output byte
ALLOWED: dict[str, str] = {
    "rules --period-days": "data.* settings are not echoed and build no rule; the benchmark "
                           "harness runs `rules dump` with each workload's flags, "
                           "`--period-days 1` among them",
}

_ECHO = re.compile(rb'^# fuzzy\..*\n|"config_fingerprint": "[0-9a-f]*"', re.MULTILINE)


def _cases() -> dict[str, list[str]]:
    """Each scalar value's case id and the config line of each of its perturbations."""
    defaults, cases = ResolvedConfig(), {}
    for key, name in _SETTINGS.items():
        value = getattr(defaults, name)
        if _KIND[name] is tuple:
            for i in range(len(value)):
                cases[f"{key}[{i}]"] = [
                    f"{key} = " + ", ".join(repr(x * factor if j == i else x)
                                            for j, x in enumerate(value))
                    for factor in (1.05, 0.95)]
        elif _KIND[name] is int:
            cases[key] = [f"{key} = {value + step}" for step in (1, -1)]
        else:
            cases[key] = [f"{key} = {value * factor!r}" for factor in (1.1, 0.9)]
    return cases


def _mf_cases() -> dict[str, list[str]]:
    """Each membership-function parameter's case id and the config line of each perturbation."""
    cases = {}
    for var, terms in ResolvedConfig().mf_table.items():
        for label, mf in terms:
            shape, *params = format_mf(mf).split()
            for i in range(len(params)):
                cases[f"fuzzy.{var}.{label}[{i}]"] = [
                    f"fuzzy.{var}.{label} = {shape} " + " ".join(
                        repr(float(x) * factor) if j == i else x for j, x in enumerate(params))
                    for factor in (1.01, 0.99)]
    return cases


def _flag_cases() -> list[str]:
    """Each subcommand option of build_parser() as "command --option"."""
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return [f"{name} {action.option_strings[-1]}" for name, parser in commands.items()
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


CASES = _cases()
MF_CASES = _mf_cases()
FLAG_CASES = _flag_cases()
DELTAS = (0.0, 0.05)


def _loads(line: str) -> bool:
    try:
        parse_config_text(line)
    except ConfigError:
        return False
    return True


def _stdout(argv: list[str]) -> bytes | None:
    """One in-process CLI run's stdout, or None if it fails."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # run writes bytes to its buffer
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return out.buffer.getvalue() if code == 0 else None


@pytest.fixture(scope="module")
def outputs_of(tmp_path_factory):
    """Each command's stdout, config echo masked, under a config file of one line."""
    path = tmp_path_factory.mktemp("effects") / "one.conf"

    def outputs(line: str) -> list[bytes | None]:
        path.write_text(line + "\n")
        return [None if out is None else _ECHO.sub(b"", out)
                for out in (_stdout([*argv, "--config", str(path)]) for argv in COMMANDS)]

    return outputs


@pytest.fixture(scope="module")
def baseline(outputs_of):
    outputs = outputs_of("")
    assert None not in outputs
    return outputs


@pytest.fixture(scope="module")
def basket():
    return portfolio_fixture(7, 200, 52, 15)


@pytest.fixture(scope="module")
def crisp_baseline(basket):
    return _crisp_bits(basket, ResolvedConfig())


def _crisp_bits(basket, cfg: ResolvedConfig) -> list[list[str | None]]:
    """The basket's crisp values as float.hex, one list per footprint width in DELTAS."""
    return [[None if row.crisp is None else row.crisp.hex() for row in
             run_portfolio(basket, dataclasses.replace(cfg, delta=delta)).rows]
            for delta in DELTAS]


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    """The files FLAGS names: a config that moves every command, and an all-buy rule table."""
    tmp = tmp_path_factory.mktemp("flags")
    (tmp / "flags.conf").write_text("data.days_per_period = 5\nfuzzy.delta = 0.1\n")
    (tmp / "buy.csv").write_text("macd,rsi,so,wa,consequent\n" + "".join(
        ",".join((*terms, "buy\n"))
        for terms in itertools.product(*ANTECEDENT_TERMS.values())))
    return {"config": tmp / "flags.conf", "rules": tmp / "buy.csv", "out": tmp / "out.csv"}


def test_allowed_names_only_real_values():
    assert ALLOWED.keys() <= CASES.keys() | MF_CASES.keys() | set(FLAG_CASES)


def test_flag_table_lists_every_option_of_the_parser():
    assert sorted(f"{command} {option}" for command, (_, values) in FLAGS.items()
                  for option in values) == sorted(FLAG_CASES)


def test_membership_function_cases_cover_every_parameter():
    assert len(MF_CASES) == 29


@pytest.mark.parametrize("case", CASES)
def test_value_moves_an_output(case, outputs_of, baseline):
    loaded = [line for line in CASES[case] if _loads(line)]
    assert loaded, f"{case}: no perturbation loads: {CASES[case]}"
    moved = any(out is not None and out != base
                for line in loaded for out, base in zip(outputs_of(line), baseline))
    if case in ALLOWED:
        assert not moved, f"{case} moves an output now; drop its ALLOWED entry"
    else:
        assert moved, f"{case}: no perturbation in {loaded} moves a byte of any command"


@pytest.mark.parametrize("case", MF_CASES)
def test_membership_function_parameter_moves_a_crisp_value(case, basket, crisp_baseline):
    loaded = [parse_config_text(line) for line in MF_CASES[case] if _loads(line)]
    assert loaded, f"{case}: no perturbation loads: {MF_CASES[case]}"
    moved = any(_crisp_bits(basket, cfg) != crisp_baseline for cfg in loaded)
    if case in ALLOWED:
        assert not moved, f"{case} moves a crisp value now; drop its ALLOWED entry"
    else:
        assert moved, f"{case}: no perturbation in {MF_CASES[case]} moves a crisp value"


@pytest.mark.parametrize("case", FLAG_CASES)
def test_flag_moves_its_command_s_stdout(case, flag_files):
    command, option = case.split()
    start, values = FLAGS[command]
    base = _stdout(start)
    assert base is not None, start
    moved = any(out is not None and out != base for out in (
        _stdout([*start, option, value.format(**flag_files)]) for value in values[option]))
    if case in ALLOWED:
        assert not moved, f"{case} moves its command's stdout now; drop its ALLOWED entry"
    else:
        assert moved, f"{case}: no value in {values[option]} moves a byte of stdout"
