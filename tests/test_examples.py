"""The runnable examples run clean and verify exactly-once.

``paper_experiments.py`` is left out: it runs every paper figure, and
three Fig. 17 claims fail at every scale tried (ROADMAP item 2).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["quickstart.py", "shopping_cart.py", "travel_booking.py"])
def test_example_runs_and_verifies_exactly_once(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.strip().splitlines()[-1]
    assert "exactly-once" in last and last.endswith("verified."), last
