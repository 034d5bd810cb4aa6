"""The benchmark's own smoke test, run as its own process.

``perfbench/smoke.py`` runs every workload for a couple of operations,
untraced and traced, and checks the metrics and the output checker.  An
engine API change that breaks the benchmark, or removes a name its
tracer wraps, fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "no longer defined" not in done.stderr, done.stderr
