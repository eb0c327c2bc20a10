"""Every config value moves some output, or ALLOWED says why it may not.

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
"""

import contextlib
import dataclasses
import io
import re

import pytest

from fuzzsig.cli import run
from fuzzsig.config import (_KIND, _SETTINGS, ConfigError, ResolvedConfig, format_mf,
                            parse_config_text)
from fuzzsig.evaluate import run_portfolio
from fuzzsig.fixtures import portfolio_fixture

from conftest import DATA_DIR

FIXTURE = str(DATA_DIR / "portfolio_fixture.csv")
COMMANDS = (["portfolio", FIXTURE, "--format", "json"], ["indicators", FIXTURE], ["rules", "dump"])

# case ("key" or "key[i]") -> why that value may move no output byte
ALLOWED: dict[str, str] = {}

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


CASES = _cases()
MF_CASES = _mf_cases()
DELTAS = (0.0, 0.05)


def _loads(line: str) -> bool:
    try:
        parse_config_text(line)
    except ConfigError:
        return False
    return True


def _stdout(argv: list[str]) -> bytes | None:
    """One in-process CLI run's stdout with the config echo masked, or None if it fails."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")  # portfolio writes bytes to its buffer
    with contextlib.redirect_stdout(out):
        code = run(argv)
        out.flush()
    return _ECHO.sub(b"", raw.getvalue()) if code == 0 else None


@pytest.fixture(scope="module")
def outputs_of(tmp_path_factory):
    """Each command's masked stdout under a config file of one line."""
    path = tmp_path_factory.mktemp("effects") / "one.conf"

    def outputs(line: str) -> list[bytes | None]:
        path.write_text(line + "\n")
        return [_stdout([*argv, "--config", str(path)]) for argv in COMMANDS]

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


def test_allowed_names_only_real_values():
    assert ALLOWED.keys() <= CASES.keys() | MF_CASES.keys()


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
