"""The repository's pytest configuration reports failing tests; it does not crash on them."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_a_deprecation_still_fails():
    warnings.warn("deprecated", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # reporting a failing example makes Hypothesis import libcst, which warns
    # with a DeprecationWarning of its own; every other deprecation still fails
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1, output
    assert "2 failed" in proc.stdout, output
