"""Every scalar config value moves some output byte, or ALLOWED says why it may not.

One case per key of config._SETTINGS, and one per element of a tuple value. Each
value is perturbed on its own (ints by +-1, floats by x1.1 and x0.9, a tuple
element by x1.05 and x0.95) and written as a one-line --config file. Three
commands run on the bundled fixture: `portfolio --format json`, `indicators` and
`rules dump`. The json `config_fingerprint` and `rules dump`'s `# fuzzy.` echo
lines render the config itself, so they are masked. A case passes when some
perturbation that loads moves some stdout byte of a command that succeeds.

Membership-function keys (`fuzzy.<variable>.<term>`) are out of scope. They are
used, but whether a small breakpoint shift shows depends on the data: on the
bundled fixture and these three commands, a +-0.01 shift moves nothing but the
echo for every breakpoint of the `fuzzy.so` terms and for all of the `fuzzy.rsi`
breakpoints but `fuzzy.rsi.low`'s foot. A Hypothesis property over drawn configs
and baskets is the place for them.
"""

import contextlib
import io
import re

import pytest

from fuzzsig.cli import run
from fuzzsig.config import _KIND, _SETTINGS, ConfigError, ResolvedConfig, parse_config_text

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


CASES = _cases()


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


def test_allowed_names_only_real_values():
    assert ALLOWED.keys() <= CASES.keys()


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
