"""Output checker, run outside the timed region.

Every value an operation returns is checked against a tolerance the
test suite already states:

* golden strike-table cells at the ``reproduce table5`` column
  tolerance, with the bounded gates of the acceptance suite (the
  heston/parity/95 boundary cell at 6e-10, heavy-tail direct at 5e-7);
* off-grid COS cells against an independent COS variant at 1e-8
  (5e-7 for heavy-tail direct);
* the Fourier integral at 1e-8 and Carr-Madan at 1e-3 against the
  stable COS price;
* convergence curves pass the harness's own reference gate, and the
  final error at the preset term count is below 1e-9 for ``stable``
  (the cross-variant tolerance for the undamped variants);
* every call price lies within the no-arbitrage bounds.

An operation that raises a ``PricingError`` fails every value it was
asked for.  Failures are counted, never dropped.
"""

from __future__ import annotations

import math

from cospricer import presets
from cospricer.cos_engine import OptionSpec, Variant, price
from cospricer.errors import PricingError

GOLDEN_TOLERANCE = 5e-10
# the one parity cell the acceptance suite bounds at 6e-10
GOLDEN_CELL_TOLERANCE = {("heston", "parity", 95.0): 6e-10}
CROSS_TOLERANCE = 1e-8
# the undamped heavy-tail series carries a ~1e-8 truncation offset
HEAVY_TAIL = ("cgmy1", "cgmy2")
HEAVY_DIRECT_TOLERANCE = 5e-7
CROSS_VARIANT = {"stable": "parity", "parity": "stable", "direct": "stable"}
FOURIER_INTEGRAL_TOLERANCE = 1e-8
CARR_MADAN_TOLERANCE = 1e-3
STABLE_FINAL_ERROR = 1e-9
# absolute slack on the no-arbitrage bounds, far below any tolerance above
ARBITRAGE_SLACK = 1e-9


def _cross_tolerance(profile: str, method: str) -> float:
    if method == "direct" and profile in HEAVY_TAIL:
        return HEAVY_DIRECT_TOLERANCE
    return CROSS_TOLERANCE


class Checker:
    """Checks operation outputs; caches independent COS check values."""

    def __init__(self):
        self.golden = presets.load_strike_table()
        self.market = presets.market_preset()
        self._cos = {}

    def cos_value(self, profile: str, method: str, strike: float) -> float:
        key = (profile, method, strike)
        if key not in self._cos:
            variant = Variant(method)
            config = presets.method_preset(profile, variant).cos_config(variant)
            model = presets.model_preset(profile)
            self._cos[key] = price(model, self.market, OptionSpec(strike=strike), config).price
        return self._cos[key]

    def within_bounds(self, value: float, strike: float) -> bool:
        m = self.market
        forward = m.spot * math.exp(-m.dividend * m.maturity)
        lower = max(forward - strike * math.exp(-m.rate * m.maturity), 0.0)
        return (
            math.isfinite(value)
            and lower - ARBITRAGE_SLACK <= value <= forward + ARBITRAGE_SLACK
        )

    def check(self, workload: str, op, result) -> list:
        """Per-value pass flags for one operation's harness result."""
        return getattr(self, f"_check_{workload}")(op, result)

    def _check_chain(self, op, result) -> list:
        out = []
        for strike, value in zip(op.strikes, result.values[:, 0, 0]):
            ok = self.within_bounds(value, strike)
            key = (op.profile, op.method, strike)
            if key in self.golden:
                tol = GOLDEN_CELL_TOLERANCE.get(key, GOLDEN_TOLERANCE)
                if op.method == "direct" and op.profile in HEAVY_TAIL:
                    tol = HEAVY_DIRECT_TOLERANCE
                want = self.golden[key]
            else:
                tol = _cross_tolerance(op.profile, op.method)
                want = self.cos_value(op.profile, CROSS_VARIANT[op.method], strike)
            out.append(ok and abs(value - want) <= tol)
        return out

    def _check_reference(self, op, result) -> list:
        # every error on the curve is measured against the recomputed reference
        anchored = self.within_bounds(result.metadata["reference_recomputed"], 100.0)
        out = [anchored and math.isfinite(v) for v in result.values]
        final = STABLE_FINAL_ERROR if op.method == "stable" else _cross_tolerance(
            op.profile, op.method
        )
        out[-1] = out[-1] and result.values[-1] < math.log10(final)
        return out

    def _check_oracles(self, op, result) -> list:
        out = []
        for strike, (integral, fft) in zip(op.strikes, result.values[:, 0, :]):
            stable = self.cos_value(op.profile, "stable", strike)
            out.append(
                self.within_bounds(integral, strike)
                and abs(integral - stable) <= FOURIER_INTEGRAL_TOLERANCE
            )
            out.append(
                self.within_bounds(fft, strike) and abs(fft - stable) <= CARR_MADAN_TOLERANCE
            )
        return out


def tally(checker: Checker, workload, records) -> tuple:
    """(attempted, failed) over (op, outcome) records.

    An outcome is the harness result or the PricingError the call raised.
    """
    attempted = failed = 0
    for op, outcome in records:
        asked = workload.asked(op)
        attempted += asked
        if isinstance(outcome, PricingError):
            failed += asked
            continue
        flags = checker.check(workload.name, op, outcome)
        failed += asked - int(sum(flags[:asked]))
    return attempted, failed
