"""Seeded operation streams for the three benchmark workloads.

An operation is one call into the public harness API: a
``run_strike_table`` strike column or a ``run_convergence`` curve.  Each
workload draws its operations in rounds.  A round holds a fixed multiset
of (profile, method, size) cells in a seeded order, with seeded strikes
or term grids, so every seed asks for the same amount of work per round
while the inputs themselves differ.  That keeps per-operation latency
percentiles comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cospricer import harness, presets
from cospricer.cos_engine import Variant
from cospricer.errors import ConfigurationError

COS_METHODS = ("stable", "parity", "direct")
ORACLE_METHODS = ("fourier_integral", "carr_madan")

# strikes on a half-unit lattice in [60, 160]; every profile's FFT span
# covers it, and a finite lattice lets check values be reused
STRIKE_LATTICE = np.arange(60.0, 160.0 + 0.25, 0.5)


def _has_preset(profile: str, method: str) -> bool:
    try:
        presets.method_preset(profile, Variant(method))
    except ConfigurationError:
        return False
    return True


# (profile, method) pairs with a series preset; the undamped fat-tail
# pair has none and is never requested
COS_PAIRS = tuple(
    (p, m) for p in presets.PROFILE_NAMES for m in COS_METHODS if _has_preset(p, m)
)


@dataclass(frozen=True)
class Op:
    """One harness call: a strike column or a convergence curve."""

    profile: str
    method: str
    strikes: tuple = ()
    n_grid: tuple = ()


def _strike_column(rng, count: int) -> tuple:
    if count == len(presets.STRIKE_GRID):
        return presets.STRIKE_GRID
    return tuple(float(k) for k in np.sort(rng.choice(STRIKE_LATTICE, count, replace=False)))


class Chain:
    """Strike columns through one COS variant at T=1 (5 to 41 strikes).

    The 9-strike columns are the benchmark grid, so golden cells are
    checked on every round.
    """

    name = "chain"
    COUNTS = (5, 9, 17, 25, 33, 41)

    def round(self, rng) -> list:
        return [
            Op(p, m, _strike_column(rng, n)) for p, m in COS_PAIRS for n in self.COUNTS
        ]

    def warmup(self) -> list:
        return [Op(p, m, presets.STRIKE_GRID) for p, m in COS_PAIRS]

    @staticmethod
    def asked(op: Op) -> int:
        return len(op.strikes)

    @staticmethod
    def call(op: Op):
        return harness.run_strike_table(
            models=(op.profile,), strikes=op.strikes, methods=(op.method,)
        )


# recomputation gates of the bundled references; the fat-tail value is
# rounded in its 13th digit and passes only the wider gate
GATE_TOLERANCE = {"cgmy2": 2e-12}
DEFAULT_GATE_TOLERANCE = 5e-13


class Reference:
    """Convergence curves at T=1; each recomputes the 60000-term reference.

    Grids hold 3 or 6 seeded term counts ending at the pair's preset N,
    so the final error is checked at the preset.
    """

    name = "reference"
    GRID_LENGTHS = (3, 6)

    def round(self, rng) -> list:
        ops = []
        for p, m in COS_PAIRS:
            n_preset = presets.method_preset(p, Variant(m)).n_terms
            for length in self.GRID_LENGTHS:
                head = np.sort(rng.choice(np.arange(8, n_preset), length - 1, replace=False))
                ops.append(Op(p, m, n_grid=tuple(int(n) for n in head) + (n_preset,)))
        return ops

    def warmup(self) -> list:
        return [
            Op(p, m, n_grid=(8, presets.method_preset(p, Variant(m)).n_terms))
            for p, m in COS_PAIRS
        ]

    @staticmethod
    def asked(op: Op) -> int:
        return len(op.n_grid)

    @staticmethod
    def call(op: Op):
        return harness.run_convergence(
            op.profile,
            op.n_grid,
            op.method,
            reference_tolerance=GATE_TOLERANCE.get(op.profile, DEFAULT_GATE_TOLERANCE),
        )


class Oracles:
    """Strike columns (1 to 3 strikes) through both transform oracles."""

    name = "oracles"
    COUNTS = (1, 2, 3)

    def round(self, rng) -> list:
        return [
            Op(p, "oracles", _strike_column(rng, n))
            for p in presets.PROFILE_NAMES
            for n in self.COUNTS
        ]

    def warmup(self) -> list:
        return [Op(p, "oracles", (100.0,)) for p in presets.PROFILE_NAMES]

    @staticmethod
    def asked(op: Op) -> int:
        return len(ORACLE_METHODS) * len(op.strikes)

    @staticmethod
    def call(op: Op):
        return harness.run_strike_table(
            models=(op.profile,), strikes=op.strikes, methods=ORACLE_METHODS
        )


WORKLOADS = {w.name: w for w in (Chain(), Reference(), Oracles())}


class Stream:
    """Endless seeded operation stream, generated one round at a time."""

    def __init__(self, workload, seed: int):
        self._workload = workload
        self._rng = np.random.default_rng(seed)
        self._pending = []
        self._refill()

    def _refill(self) -> None:
        ops = self._workload.round(self._rng)
        self._pending = [ops[i] for i in self._rng.permutation(len(ops))][::-1]

    def __iter__(self):
        return self

    def __next__(self) -> Op:
        if not self._pending:
            self._refill()
        return self._pending.pop()
