"""Tests for the two transform-based cross-checks.

The damped Fourier integral is validated against the Black-Scholes
closed form before anything else relies on it; the Carr-Madan FFT is
then checked against the bundled reference prices, on and off the
log-strike grid.
"""

import math

import numpy as np
import pytest

from cospricer import (
    CarrMadanConfig,
    ComputationError,
    IntegralConfig,
    KouParams,
    ValidationError,
    price_carr_madan,
    price_fourier_integral,
)
from cospricer.presets import (
    STRIKE_GRID,
    carr_madan_preset,
    integral_preset,
    load_strike_table,
    model_preset,
)

PROFILES = ("heston", "kou", "cgmy1", "cgmy2")


def black_scholes_call(spot, strike, rate, dividend, sigma, maturity):
    """Closed-form lognormal call, the ground truth for the flat-vol limit."""
    st = sigma * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate - dividend + 0.5 * sigma * sigma) * maturity) / st
    d2 = d1 - st
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return spot * math.exp(-dividend * maturity) * cdf(d1) - strike * math.exp(
        -rate * maturity
    ) * cdf(d2)


class TestFourierIntegral:
    def test_matches_lognormal_closed_form(self, market):
        # double-exponential jumps with intensity zero reduce the model
        # to geometric Brownian motion, where the closed form is exact
        model = KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=5.0, lam=0.0)
        for strike in (80.0, 100.0, 120.0):
            want = black_scholes_call(
                market.spot, strike, market.rate, market.dividend, 0.16, market.maturity
            )
            got = price_fourier_integral(model, market, strike)
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_reference_strike_table(self, market):
        table = load_strike_table()
        for name in PROFILES:
            model = model_preset(name)
            config = integral_preset(name)
            for strike in (85.0, 100.0, 115.0):
                want = table[(name, "fourier_integral", strike)]
                got = price_fourier_integral(model, market, strike, config)
                # references carry 10 decimals, so half an ulp there is 5e-11
                assert got == pytest.approx(want, abs=5e-10), (name, strike)

    def test_damping_invariance(self, market):
        # the contour shift is free as long as the strip allows it, so
        # different dampings must agree to quadrature accuracy
        for name in ("heston", "kou"):
            model = model_preset(name)
            prices = [
                price_fourier_integral(model, market, 80.0, IntegralConfig(damping=a))
                for a in (1.05, 1.1, 1.5)
            ]
            for other in prices[1:]:
                assert other == pytest.approx(prices[0], abs=1e-9)

    def test_rejects_damping_at_or_below_one(self):
        # alpha = 1 puts a pole of the payoff transform on the contour
        with pytest.raises(ValidationError, match="damping must exceed 1"):
            IntegralConfig(damping=1.0)
        with pytest.raises(ValidationError, match="damping must exceed 1"):
            IntegralConfig(damping=0.5)

    def test_rejects_damping_outside_model_strip(self, market):
        # the up-jump rate eta1 caps the admissible contour shift at 10
        model = model_preset("kou")
        config = IntegralConfig(damping=12.0)
        with pytest.raises(ValidationError, match="characteristic-function strip"):
            price_fourier_integral(model, market, 100.0, config)

    def test_rejects_bad_strike(self, market):
        model = model_preset("heston")
        with pytest.raises(ValidationError, match="strike must be positive"):
            price_fourier_integral(model, market, -100.0)


class TestCarrMadanConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError, match="power of two"):
            CarrMadanConfig(n_fft=1000)
        with pytest.raises(ValidationError, match="power of two"):
            CarrMadanConfig(n_fft=1)

    def test_rejects_non_positive_grid(self):
        with pytest.raises(ValidationError, match="damping must be positive"):
            CarrMadanConfig(damping=0.0)
        with pytest.raises(ValidationError, match="spacing must be positive"):
            CarrMadanConfig(spacing=-0.25)

    def test_grid_geometry(self):
        # lam * eta = 2*pi / n, so the half span collapses to pi / eta
        config = CarrMadanConfig(n_fft=2 ** 16, spacing=0.25)
        assert config.strike_step == pytest.approx(2.0 * math.pi / (2 ** 16 * 0.25))
        assert config.strike_span == pytest.approx(math.pi / 0.25)


class TestCarrMadan:
    def test_on_grid_strike_matches_reference(self, market):
        # K = S0 sits exactly on the FFT log-strike grid, so no
        # interpolation error enters and the match is sharp
        table = load_strike_table()
        for name in PROFILES:
            got = price_carr_madan(
                model_preset(name), market, [100.0], carr_madan_preset(name)
            )[0]
            want = table[(name, "stable", 100.0)]
            assert got == pytest.approx(want, abs=1e-8), name

    def test_off_grid_strikes_match_reference(self, market):
        table = load_strike_table()
        strikes = [float(k) for k in STRIKE_GRID]
        for name in PROFILES:
            got = price_carr_madan(
                model_preset(name), market, strikes, carr_madan_preset(name)
            )
            assert len(got) == len(strikes)
            for strike, value in zip(strikes, got):
                want = table[(name, "stable", strike)]
                # off-grid strikes go through the local cubic fit
                assert value == pytest.approx(want, abs=1e-3), (name, strike)
                assert 0.0 < value <= market.spot
                intrinsic = market.spot * math.exp(
                    -market.dividend * market.maturity
                ) - strike * math.exp(-market.rate * market.maturity)
                assert value >= intrinsic - 1e-6

    def test_heavy_tail_rejects_default_damping(self, market):
        # the default damping needs the 1.75th exponential moment, which
        # is astronomically large for the near-second-order tempered
        # stable tail; the spot-bound guard must catch the blow-up
        model = model_preset("cgmy2")
        with pytest.raises(ComputationError, match="spot bound"):
            price_carr_madan(model, market, [100.0], CarrMadanConfig())

    def test_rejects_strike_outside_span(self, market):
        # shrink the span so the check is cheap to trip
        config = CarrMadanConfig(n_fft=16, spacing=1.0)
        model = model_preset("heston")
        with pytest.raises(ValidationError, match="log-strike span"):
            price_carr_madan(model, market, [100.0 * math.e ** 3], config)

    def test_rejects_bad_strike(self, market):
        model = model_preset("heston")
        with pytest.raises(ValidationError, match="strike must be positive"):
            price_carr_madan(model, market, [0.0])
