"""scripts/bench_pairs.py, run as its own process: one 1-s ``chain`` pair of
this checkout against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_chain_pair_of_this_checkout_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "chain", "--pairs", "1", "--seconds", "1", "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    # one run per side, the parent first in an even pair, each run correct
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 0 seed 3 parent",
                                                          "pair 0 seed 3 change"]
    assert "correct=" not in done.stdout
    assert lines[2] == "chain: 1 pairs of 1-s runs, seeds 3-3"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert len(lines) == 3 + len(metrics)
    for metric, line in zip(metrics, lines[3:]):
        assert line.startswith(f"{metric['name']} ({metric['unit']}, {metric['better']} is better)")
        assert "change wins " in line and " of 1" in line
