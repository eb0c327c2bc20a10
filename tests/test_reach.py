"""Every function under src/fuzzsig is entered by some CLI command, or kept for a stated reason."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def test_every_src_function_is_reached_from_the_cli():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
