"""Every function under src/fuzzsig is entered by some CLI command, or kept for a stated reason."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def test_every_src_function_is_reached_from_the_cli():
    # under dev mode with warnings as errors: cli.main ends with os._exit, which
    # closes no file, so every path must close its own
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(SCRIPT)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
