"""cospricer benchmark: one closed-loop client over the public harness API.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; the package is imported from
``src/``.  One client, one thread: the next operation starts only after
the previous one returns.  BLAS/OpenMP pools are pinned to one thread
and no worker is started.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` measures untraced for half of ``--seconds``, then
replays the same operations with every layer wrapped, requires the
replayed prices to equal the untraced ones bit for bit, and reports the
per-layer metrics.  Returned values are checked outside the latency timer.
Human-readable lines come first; the last line of standard output is
one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
WORKLOADS = ("chain", "reference", "oracles")


def bootstrap() -> None:
    """Pin thread pools and put the checkout's sources on the path.

    Must run before NumPy is imported.  Exits with status 2 when the
    directory holds no cospricer sources.
    """
    if not (SRC / "cospricer" / "__init__.py").is_file():
        print(f"perfbench: no cospricer sources under {SRC}; run from a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(PINNED_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import bench  # imports NumPy, so only after bootstrap

    result, lines = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
