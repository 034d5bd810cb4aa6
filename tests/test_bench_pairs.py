"""scripts/bench_pairs.py: one 1-s ``chain`` pair of this checkout against
itself, run as its own process, and its order, control and verdicts in
process."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_chain_pair_of_this_checkout_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "chain", "--pairs", "1", "--seconds", "1", "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    # one run per side, the parent first in pair 0, each run correct
    assert [line.split(":")[0] for line in lines[:3]] == ["pair 0 seed 3 parent",
                                                          "pair 0 seed 3 change",
                                                          "pair 0 seed 3 control"]
    assert "correct=" not in done.stdout
    assert lines[3] == "chain: 1 pairs of 1-s runs, seeds 3-3"
    assert len(lines) == 4 + len(METRICS)
    for metric, line in zip(METRICS, lines[4:]):
        assert line.startswith(f"{metric['name']} ({metric['unit']}, {metric['better']} is better)")
        assert "change wins " in line and " of 1" in line and ", control " in line


def test_the_control_is_a_fresh_copy_of_the_parent_and_the_order_rotates(
        bench_pairs, tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "__pycache__").mkdir(parents=True)
        (checkout / "mark.txt").write_text(checkout.name)
    seen = []

    def run_once(checkout, workload, seed, seconds):
        cached = (checkout / "__pycache__").exists()
        seen.append((seed, (checkout / "mark.txt").read_text(), checkout in (parent, change),
                     cached))
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {metric["name"]: {"value": 1.0} for metric in METRICS}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "chain", "--pairs", "3",
                             "--seconds", "1", "--seed", "7"]) == 0
    # pair i runs parent, change, control rotated by i; the control reads
    # the parent's files from a directory of its own, without its caches
    parent_run, change_run, control_run = ("parent", True, True), ("change", True, True), (
        "parent", False, False)
    assert [run[1:] for run in seen] == [parent_run, change_run, control_run,
                                         change_run, control_run, parent_run,
                                         control_run, parent_run, change_run]
    assert [run[0] for run in seen] == [7] * 3 + [8] * 3 + [9] * 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "pair 0 seed 7 parent", "pair 0 seed 7 change", "pair 0 seed 7 control"]


@pytest.mark.parametrize("control, verdict", [
    (104.0, "gain, within bound"),  # the change beats the copies' difference
    (88.0, "within bound"),  # two copies of the parent differ by 12%, more than the change's 10%
    (112.0, "within bound"),
])
def test_a_gain_must_exceed_what_the_control_reads(bench_pairs, control, verdict):
    metric = {"name": "prices_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
    parent = [99.0, 100.0, 101.0] * 4
    change = [109.0, 110.0, 111.0] * 4
    line = bench_pairs.summary(metric, parent, change, [control] * 12)
    assert line.endswith(f"control {control:g} {(control - 100.0) / 100.0:+.2%}; {verdict}")


def test_a_lower_is_better_gain_is_also_gated_by_the_control(bench_pairs):
    metric = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}
    parent, change = [10.0] * 10, [9.0] * 10
    assert bench_pairs.summary(metric, parent, change, [10.5] * 10).endswith("; gain, within bound")
    assert bench_pairs.summary(metric, parent, change, [8.5] * 10).endswith("; within bound")
