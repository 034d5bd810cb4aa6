"""Run the benchmark of two checkouts in interleaved pairs, with a control, and compare them.

    python scripts/bench_pairs.py PARENT CHANGE --workload chain --pairs 10 --seconds 25 --seed 100

PARENT and CHANGE are checkout directories.  The script first copies
PARENT to a fresh temporary directory, the control.  Pair i runs
``perfbench/run.py --workload W --seed S0+i --seconds S --trace 0`` once
from each of the three checkouts, in the order parent, change, control
rotated by i (the parent first in pair 0, the change in pair 1, the
control in pair 2), and reads each run's last line of standard output, a
JSON object.  Per end-to-end metric of this checkout's BENCHMARK.json it
prints each side's median and quartiles, the change's median against the
parent's, the control's median against the parent's (what two identical
trees read on this host), the pairs the change wins (ties count for
neither) and two verdicts: ``gain`` where the change wins at least 9 in 10
pairs and its median is better than the parent's by more than the
distance between the parent's quartiles and by more than the control's
median differs from the parent's, and ``within bound`` where its median is
no worse than the parent's by more than the metric's bound.  Every run
that was not ``correct`` or had ``failed > 0`` is printed too.  A run that
exits with an error, or prints no JSON line, ends the script with that
run's output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change", "control")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object of one benchmark run from checkout."""
    # the run imports the checkout's own src/, whatever the caller's path holds
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: {' '.join(command)} in {checkout} exited with "
                         f"{done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def summary(metric: dict, parent: list, change: list, control: list) -> str:
    """One line comparing the change's values of metric with the parent's,
    pair by pair, and the control's median with the parent's."""
    higher = metric["better"] == "higher"
    p25, p50, p75 = np.percentile(parent, [25, 50, 75])
    c25, c50, c75 = np.percentile(change, [25, 50, 75])
    k50 = np.median(control)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    gain = (c50 - p50) if higher else (p50 - c50)
    noise = abs(k50 - p50)
    worse = -gain / p50 if p50 else 0.0
    verdicts = []
    if wins >= 0.9 * len(parent) and gain > p75 - p25 and gain > noise:
        verdicts.append("gain")
    verdicts.append("within bound" if worse <= metric["bound"] else
                    f"WORSE than its bound {metric['bound']:.0%}")
    return (f"{metric['name']} ({metric['unit']}, {metric['better']} is better): "
            f"parent {p50:.6g} [{p25:.6g}, {p75:.6g}], change {c50:.6g} [{c25:.6g}, {c75:.6g}], "
            f"{(c50 - p50) / p50:+.2%}, change wins {wins} of {len(parent)}, "
            f"parent quartile spread {p75 - p25:.3g}, control {k50:.6g} "
            f"{(k50 - p50) / p50:+.2%}; {', '.join(verdicts)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        # the control is a fresh copy of the parent, with none of its caches
        checkouts = {"parent": args.parent, "change": args.change,
                     "control": Path(scratch) / "control"}
        shutil.copytree(args.parent, checkouts["control"], ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in SIDES[i % 3:] + SIDES[:i % 3]:
                result = run_once(checkouts[side], args.workload, seed, args.seconds)
                runs[side].append(result)
                values = " ".join(
                    f"{metric['name']}={result['metrics'][metric['name']]['value']:.6g}"
                    for metric in metrics)
                print(f"pair {i} seed {seed} {side}: {values}", flush=True)
                if not result["correct"] or result["failed"] > 0:
                    print(f"pair {i} seed {seed} {side}: correct={result['correct']}, "
                          f"failed={result['failed']} of {result['attempted']}")

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g}-s runs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    for metric in metrics:
        print(summary(metric, *([run["metrics"][metric["name"]]["value"] for run in runs[side]]
                                for side in SIDES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
