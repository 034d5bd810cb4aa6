"""Measurement loop, set-up timing and result assembly for run.py.

On a 2-vCPU KVM guest (Intel Xeon) whose cores are shared with other
guests, speed drifts by 10-25% over tens of seconds.
Operation latencies are therefore scaled to a nominal host speed:
after each operation the loop times a fixed calibration kernel of
interpreted and vector work, and a latency t becomes
t * CAL_NOMINAL_S / c, where c is the median kernel time among the
neighbouring samples.  The kernel is the benchmark's own code, so a
change to the program does not move it.  Raw latencies are printed too.
Set-up time is reported raw: it is mostly a fresh interpreter's import,
which a short kernel burst tracked worse than no scaling at all.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import check
import tracing
import workloads
from cospricer.errors import PricingError
from run import PINNED_THREADS, SRC

# every run holds at least this many operations, so the p90 latency has
# at least ten samples beyond it
MIN_OPS = 100
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cospricer.harness; print(time.perf_counter() - t)"
)

CAL_X = np.linspace(0.0, 3.0, 4000)
# kernel time that defines the nominal host speed: its median on a quiet
# 2-vCPU Intel Xeon KVM guest, where the bounds were set
CAL_NOMINAL_S = 0.08e-3
# calibration samples on each side of an operation that set its scale
CAL_HALF_WINDOW = 8


def _kernel() -> None:
    for i in range(300):
        math.sin(i)
    np.exp(1j * CAL_X).real.sum()


def calibrate() -> float:
    """Seconds a fixed kernel of interpreted and vector work takes.

    The fastest of three back-to-back runs, so the cache state an
    operation leaves behind does not count.
    """
    best = math.inf
    for _ in range(3):
        started = perf_counter()
        _kernel()
        best = min(best, perf_counter() - started)
    return best


def speed_scales(cal: list) -> list:
    """Per-sample factor CAL_NOMINAL_S / (median of neighbouring kernel times)."""
    w = CAL_HALF_WINDOW
    return [
        CAL_NOMINAL_S / statistics.median(cal[max(0, i - w): i + w + 1])
        for i in range(len(cal))
    ]


def cold_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, env=os.environ,
    )
    return float(done.stdout.split()[-1])


def setup_once(workload, seed: int):
    """Import, input generation, check-value preparation and warm-up.

    Returns (seconds, checker, stream).
    """
    import_s = cold_import_s()
    started = perf_counter()
    stream = workloads.Stream(workload, seed)
    checker = check.Checker()
    for op in workload.warmup():
        workload.call(op)
    return import_s + perf_counter() - started, checker, stream


def fingerprint(outcome) -> bytes:
    """The bytes the traced and untraced runs must agree on."""
    if isinstance(outcome, Exception):
        return repr(outcome).encode()
    return outcome.values.tobytes()


class Phase:
    """One closed loop over operations.

    Outcomes are checked as they arrive, outside the latency timer, and
    then dropped, so memory does not grow with throughput.  With
    fingerprints set, each outcome's bytes are kept for the traced-run
    comparison.
    """

    def __init__(self, workload, ops, seconds: float, min_ops: int, checker=None,
                 on_done=None, fingerprints: bool = False):
        self.latencies, self.fingerprints, cal = [], [], []
        self.attempted = self.failed = 0
        started = perf_counter()
        for op in ops:
            if len(self.latencies) >= min_ops and perf_counter() - started >= seconds:
                break
            t0 = perf_counter()
            try:
                outcome = workload.call(op)
            except PricingError as exc:
                outcome = exc
            latency = perf_counter() - t0
            if on_done is not None:
                on_done(latency)
            if checker is not None:
                attempted, failed = check.tally(checker, workload, [(op, outcome)])
                self.attempted += attempted
                self.failed += failed
            if fingerprints:
                self.fingerprints.append(fingerprint(outcome))
            cal.append(calibrate())
            self.latencies.append(latency)
        self.scaled = [t * s for t, s in zip(self.latencies, speed_scales(cal))]

    def p_ms(self, q: int, scaled: bool = True) -> float:
        """q-th percentile (q in 1..99) of the operation latencies, in ms."""
        data = self.scaled if scaled else self.latencies
        return statistics.quantiles(data, n=100, method="inclusive")[q - 1] * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, setup_repeats: int = SETUP_REPEATS):
    """One benchmark run. Returns (result dict, human-readable lines)."""
    workload = workloads.WORKLOADS[name]
    lines = [f"host {json.dumps(host_record(seed), sort_keys=True)}"]
    setups = []
    for _ in range(setup_repeats):
        elapsed, checker, stream = setup_once(workload, seed)
        setups.append(elapsed)

    phase = Phase(workload, stream, seconds / 2 if trace else seconds, min_ops, checker,
                  fingerprints=trace)
    rss = peak_rss_mb()
    n_ops = len(phase.latencies)
    identical = True

    if trace:
        tracer = tracing.Tracer(name)
        # the stream is a function of the seed, so this replays the same operations
        same_ops = itertools.islice(workloads.Stream(workload, seed), n_ops)
        with tracer.installed():
            replay = Phase(workload, same_ops, math.inf, 0, on_done=tracer.end_op,
                           fingerprints=True)
        identical = replay.fingerprints == phase.fingerprints
        missed = tracer.warnings()
        tracing.warn(missed)
        lines += [f"warning {w}" for w in missed]
        metrics = tracer.metrics(replay.p_ms(50) / phase.p_ms(50))
        lines.append(f"{name} traced ops {len(replay.latencies)}; prices identical to untraced: "
                     f"{identical}")
        lines += [f"{name} share {layer} {share:.4f}" for layer, share in tracer.shares().items()]

    attempted, failed = phase.attempted, phase.failed
    passed = attempted - failed
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "prices_per_s": (passed / sum(phase.scaled), "1/s"),
            "op_p50_ms": (phase.p_ms(50), "ms"),
            "op_p90_ms": (phase.p_ms(90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines.append(
            f"{name} raw (unscaled) prices_per_s {passed / sum(phase.latencies):.6g} 1/s, "
            f"op_p50_ms {phase.p_ms(50, False):.6g} ms, op_p90_ms {phase.p_ms(90, False):.6g} ms"
        )
    lines.append(f"{name} ops {n_ops} (latency samples), values attempted {attempted}, "
                 f"failed {failed}")
    lines.append(f"{name} failed_fraction {failed / attempted:.6g} fraction")
    lines += [f"{name} {key} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0 and identical and n_ops >= min_ops,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines
