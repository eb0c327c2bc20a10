import os
import sys
from pathlib import Path

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


# sha256 of `portfolio tests/data/portfolio_fixture.csv --format json` under each
# flag set: full-precision crisp values, which the golden CSV's 1 dp cannot see
PORTFOLIO_JSON_PINS = [
    (["--delta", "0"], "771231f5462f17e82f0c83a966b2520d2030a918ec9dc1ba71f33fcebcfc0478"),
    ([], "c71698f047ad49e919db5bd7f6b496d42689b1add0dbac712a06c34ff20bd3fa"),
    (["--delta", "0.15"], "516d69c0c8de7dc5e84504b735415dde94a8c9a7ae6937d054db0a1fb08c7223"),
]
