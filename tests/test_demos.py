"""Smoke test of the demos.

Each demo runs as its own process from an empty directory, so any file
it writes lands there, and must exit cleanly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "price_single_option.py",
    "strike_table.py",
    "cancellation_blowup.py",
    "convergence_curves.py",
    "damping_range_surface.py",
])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
