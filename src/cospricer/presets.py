"""Bundled model profiles, method presets, and reference prices.

Four named profiles cover the benchmark set used throughout the test
suite and the reproduction harness: a square-root stochastic-volatility
model, a double-exponential jump-diffusion, and two tempered-stable
parameter sets, the second of which is deep in the fat-tail regime.
All share spot 100, rate 0.1, zero dividend, maturity 1.

Reference prices ship as CSV data files.  The strike table holds the
10-decimal call values each method is expected to reproduce; the
convergence references are 13-digit anchors computed by the undamped
put expansion with 60000 terms and cross-checked against independent
transform pricers.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .cos_engine import CosConfig, Variant
from .errors import ConfigurationError
from .models import CGMYParams, HestonParams, KouParams, MarketSpec, ModelSpec
from .transform_refs import CarrMadanConfig, IntegralConfig

__all__ = [
    "PROFILE_NAMES",
    "STRIKE_GRID",
    "MethodPreset",
    "market_preset",
    "model_preset",
    "method_preset",
    "integral_preset",
    "carr_madan_preset",
    "sweep_widths",
    "sweep_dampings",
    "STRIKE_TABLE_TOLERANCES",
    "load_strike_table",
    "load_reference_prices",
    "REFERENCE_TOLERANCE",
    "reference_gate",
]

PROFILE_NAMES = ("heston", "kou", "cgmy1", "cgmy2")

# strike grid of the benchmark call table
STRIKE_GRID = (80.0, 85.0, 90.0, 95.0, 100.0, 105.0, 110.0, 115.0, 120.0)

_MARKET = MarketSpec(spot=100.0, rate=0.1, dividend=0.0, maturity=1.0)

_MODELS = {
    "heston": HestonParams(kappa=0.85, theta=0.09, sigma=0.1, rho=-0.7, v0=0.0625),
    "kou": KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=5.0, lam=5.0),
    "cgmy1": CGMYParams(C=1.0, G=5.0, M=5.0, Y=1.5),
    "cgmy2": CGMYParams(C=1.0, G=5.0, M=5.0, Y=1.98),
}


@dataclass(frozen=True)
class MethodPreset:
    """Per-profile series settings: damping alpha, range width L, terms N."""

    damping: Optional[float]
    range_width: float
    n_terms: int

    def cos_config(self, variant: Variant) -> CosConfig:
        return CosConfig(
            n_terms=self.n_terms,
            range_width=self.range_width,
            damping=self.damping,
            variant=variant,
        )


# benchmark series settings per (profile, variant); the damped variant
# carries its alpha, the undamped ones derive alpha from the payoff
_METHOD_PRESETS = {
    ("heston", Variant.STABLE): MethodPreset(1.1, 7.0, 110),
    ("heston", Variant.PUT_CALL_PARITY): MethodPreset(None, 7.0, 110),
    ("heston", Variant.DIRECT): MethodPreset(None, 7.0, 110),
    ("kou", Variant.STABLE): MethodPreset(1.1, 7.0, 140),
    ("kou", Variant.PUT_CALL_PARITY): MethodPreset(None, 11.0, 210),
    ("kou", Variant.DIRECT): MethodPreset(None, 10.0, 210),
    ("cgmy1", Variant.STABLE): MethodPreset(1.001, 10.0, 50),
    ("cgmy1", Variant.PUT_CALL_PARITY): MethodPreset(None, 10.0, 50),
    ("cgmy1", Variant.DIRECT): MethodPreset(None, 13.0, 80),
    ("cgmy2", Variant.STABLE): MethodPreset(1.001, 17.0, 80),
    ("cgmy2", Variant.PUT_CALL_PARITY): MethodPreset(None, 10.0, 70),
    # no direct preset for cgmy2: the undamped call coefficients overflow
    # the significand on any range wide enough for its tails
}

# damped-integral alpha per profile; the fat-tail set needs alpha near 1
# to keep the exp(alpha*y) moment representable
_INTEGRAL_DAMPING = {"heston": 1.1, "kou": 1.1, "cgmy1": 1.1, "cgmy2": 1.015}

# FFT settings per profile, chosen so the frequency sum is converged
# (see the grid-spacing study in the test suite); the fat-tail set
# needs a small damping for the same moment reason as above
_CARR_MADAN = {
    "heston": CarrMadanConfig(n_fft=2 ** 16, damping=0.75, spacing=0.05),
    "kou": CarrMadanConfig(n_fft=2 ** 16, damping=0.75, spacing=0.05),
    "cgmy1": CarrMadanConfig(n_fft=2 ** 16, damping=0.75, spacing=0.05),
    "cgmy2": CarrMadanConfig(n_fft=2 ** 16, damping=0.1, spacing=0.00625),
}


def _require_profile(name: str) -> str:
    if name not in PROFILE_NAMES:
        raise ConfigurationError(
            f"unknown model profile {name!r}; expected one of {', '.join(PROFILE_NAMES)}"
        )
    return name


def market_preset(maturity: float = 1.0) -> MarketSpec:
    """Benchmark market data, optionally re-dated to another maturity."""
    return MarketSpec(
        spot=_MARKET.spot,
        rate=_MARKET.rate,
        dividend=_MARKET.dividend,
        maturity=maturity,
    )


def model_preset(name: str) -> ModelSpec:
    return _MODELS[_require_profile(name)]


def method_preset(name: str, variant: Variant) -> MethodPreset:
    _require_profile(name)
    try:
        return _METHOD_PRESETS[(name, variant)]
    except KeyError:
        raise ConfigurationError(
            f"no {variant.value} preset for profile {name!r}"
        ) from None


def integral_preset(name: str) -> IntegralConfig:
    return IntegralConfig(damping=_INTEGRAL_DAMPING[_require_profile(name)])


def carr_madan_preset(name: str) -> CarrMadanConfig:
    return _CARR_MADAN[_require_profile(name)]


def sweep_widths(name: str, points: int = 13) -> np.ndarray:
    """Default range widths of the stability and L sweeps; the fat-tail
    grid starts at its stable preset width."""
    lo, hi = (17.0, 25.0) if _require_profile(name) == "cgmy2" else (6.0, 18.0)
    return np.linspace(lo, hi, points)


def sweep_dampings(lo: float = 1.0001, hi: float = 1.2, points: int = 21) -> np.ndarray:
    """Default damping grid of the stability sweeps, from just above the
    call's integrability edge alpha = 1 to 1.2."""
    return np.linspace(lo, hi, points)


def _read_data(filename: str):
    with resources.files("cospricer.data").joinpath(filename).open(newline="") as fh:
        yield from csv.DictReader(fh)


# golden-table tolerances per method column; the bundled FFT column
# carries up to ~1.5e-3 of grid interpolation error of its own, so its
# check is loose
STRIKE_TABLE_TOLERANCES = {
    "stable": 5e-10,
    "parity": 5e-10,
    "direct": 5e-10,
    "fourier_integral": 1e-8,
    "carr_madan": 2e-3,
}


def load_strike_table() -> dict:
    """Reference call table: (model, method, strike) -> 10-decimal price."""
    out = {}
    for row in _read_data("strike_table_reference.csv"):
        key = (row["model"], row["method"], float(row["strike"]))
        out[key] = float(row["price"])
    return out


@functools.lru_cache(maxsize=None)
def _reference_prices() -> tuple:
    return tuple(
        (row["model"], float(row["price"]))
        for row in _read_data("convergence_reference.csv")
    )


def load_reference_prices() -> dict:
    """13-digit convergence anchors: model -> price at strike 100, T=1.

    The file is read once per process; each call returns a fresh dict.
    """
    return dict(_reference_prices())


# agreement required between a bundled reference and its recomputation;
# the fat-tail reference is rounded in its 13th digit, so its gate is wider
REFERENCE_TOLERANCE = 5e-13


def reference_gate(name: str) -> float:
    return 2e-12 if _require_profile(name) == "cgmy2" else REFERENCE_TOLERANCE
