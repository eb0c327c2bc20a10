import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import fuzzsig

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# fresh random examples, with a reproducing blob for each failure:
# HYPOTHESIS_PROFILE=ci runs the properties on draws the default never makes
settings.register_profile("ci", settings.get_profile("default"), derandomize=False,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DATA_DIR = Path(__file__).parent / "data"


def cli_env(**changes: str | None) -> dict[str, str]:
    """This environment for a child `python -m fuzzsig.cli`: the fuzzsig the tests
    import on its path, no $FUZZSIG_CONFIG, and each change set (or removed if None)."""
    src = str(Path(fuzzsig.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for name, value in {"FUZZSIG_CONFIG": None, **changes}.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def pinned(*cases: tuple) -> list:
    """pytest params of (..., digest) cases, each named by its values before the digest,
    a flag list as its flags run together (["--delta", "0"] is "delta0", [] "default"),
    so that a new digest leaves the test's name as it was."""
    def name(value) -> str:
        if isinstance(value, list):
            return "".join(flag.removeprefix("--") for flag in value) or "default"
        return value

    return [pytest.param(*case, id="-".join(map(name, case[:-1]))) for case in cases]


# sha256 of `portfolio tests/data/portfolio_fixture.csv --format json` under each
# flag set: full-precision crisp values, which the golden CSV's 1 dp cannot see
PORTFOLIO_JSON_PINS = [
    (["--delta", "0"], "521d61a9a2df0a7df4ef04fff2857e85bd3e82f2372c1f576b828a530ee403c4"),
    ([], "10ce23533ad31523226c7d664e98bebe6e82bf14e9a396a43a5c759b8537af5b"),
    (["--delta", "0.15"], "cc08f9b0965e54969073553add005acedab45aa3bab1042bed18431541a66011"),
]
