"""Tests for the two transform-based cross-checks.

The damped Fourier integral is validated against the Black-Scholes
closed form before anything else relies on it, and its fixed-node rule
is certified against adaptive quadrature of the same integrand; the
Carr-Madan pricer is then checked against the bundled reference prices,
on and off the log-strike grid, and its readout against a per-strike
cubic spline.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from cospricer import (
    CarrMadanConfig,
    ComputationError,
    HestonParams,
    IntegralConfig,
    KouParams,
    MarketSpec,
    ValidationError,
    char_fn,
    price_carr_madan,
    price_fourier_integral,
)
from cospricer import transform_refs
from cospricer.transform_refs import _call_spectrum
from cospricer.presets import (
    STRIKE_GRID,
    carr_madan_preset,
    integral_preset,
    load_strike_table,
    model_preset,
)

PROFILES = ("heston", "kou", "cgmy1", "cgmy2")

# half-unit strike lattice in [60, 160], inside every profile's log-strike span
LATTICE = np.arange(60.0, 160.0 + 0.25, 0.5)

# Heston parameters whose moments explode inside the maturities probed:
# E[S_T^1.75] at T* ~ 3.1 years, E[S_T^1.1] at T* ~ 8.7 years
EXPLOSIVE = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)


def explosive_market(maturity):
    return MarketSpec(spot=100.0, rate=0.05, maturity=maturity)


def quad_price(model, market, strike, config):
    """The damped integrand of price_fourier_integral, integrated by
    adaptive quadrature over [-max_frequency, max_frequency]."""
    alpha = config.damping
    x = math.log(market.spot / strike)

    def integrand(u):
        w = -u - 1j * alpha
        g_hat = 1.0 / ((alpha - 1j * u) * (alpha - 1.0 - 1j * u))
        return (g_hat * cmath.exp(1j * w * x) * char_fn(model, market, w)).real

    top = config.max_frequency
    value, _ = quad(integrand, -top, top, epsabs=1e-12, epsrel=1e-12, limit=4000,
                    points=[-50.0, 0.0, 50.0])
    return strike * math.exp(-market.rate * market.maturity) * value / (2.0 * math.pi)


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
        # K = S0 sits exactly on the log-strike grid, so no
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

    def test_strike_at_span_limit_prices(self, market):
        # on this grid the largest accepted log-moneyness lies a rounding
        # error past the last interval's left end; its readout needs the
        # grid index n, which used to raise IndexError
        config = CarrMadanConfig(n_fft=1024, spacing=0.16)
        n, lam, span = config.n_fft, config.strike_step, config.strike_span
        limit, last = span - 2.0 * lam, -span + lam * (n - 2)
        assert last < limit
        strike = market.spot * math.exp(limit)
        while not last < math.log(strike / market.spot) <= limit:
            past = math.log(strike / market.spot) > limit
            strike = math.nextafter(strike, 0.0 if past else math.inf)
        model = model_preset("kou")
        at_limit, on_grid = price_carr_madan(
            model, market, [strike, market.spot * math.exp(last)], config
        )
        assert at_limit == pytest.approx(on_grid, rel=1e-12)

    def test_rejects_bad_strike(self, market):
        model = model_preset("heston")
        with pytest.raises(ValidationError, match="strike must be positive"):
            price_carr_madan(model, market, [0.0])


class TestFourierIntegralRule:
    @pytest.mark.parametrize("name", PROFILES)
    def test_certified_against_adaptive_quadrature(self, market, name):
        model, config = model_preset(name), integral_preset(name)
        strikes = [60.0, 100.0, 160.0]
        got = price_fourier_integral(model, market, strikes, config)
        for strike, value in zip(strikes, got):
            want = quad_price(model, market, strike, config)
            assert value == pytest.approx(want, abs=1e-10), (name, strike)

    @pytest.mark.parametrize("name", PROFILES)
    def test_column_matches_batches_of_one(self, market, name):
        model, config = model_preset(name), integral_preset(name)
        # unsorted, with a duplicate
        strikes = [float(k) for k in LATTICE[::-7]] + [100.0]
        column = price_fourier_integral(model, market, strikes, config)
        assert isinstance(column, list) and len(column) == len(strikes)
        for strike, value in zip(strikes, column):
            alone = price_fourier_integral(model, market, strike, config)
            assert isinstance(alone, float)
            assert value == pytest.approx(alone, abs=1e-13), (name, strike)

    def test_empty_strike_list(self, market):
        assert price_fourier_integral(model_preset("heston"), market, []) == []

    def test_rejects_bad_strike_in_column(self, market):
        with pytest.raises(ValidationError, match="strike must be positive"):
            price_fourier_integral(model_preset("heston"), market, [100.0, math.nan])

    def test_doubling_gate_raises(self, market):
        # a nearly deterministic log-return: the transform barely decays,
        # so 16 nodes per panel cannot follow exp(-i*u*x) at a far strike
        # and the 32-point rerun disagrees
        model = KouParams(sigma=0.01, p=0.4, eta1=10.0, eta2=5.0, lam=0.0)
        with pytest.raises(ComputationError, match="16- and 32-point rules differ"):
            price_fourier_integral(model, market, [100.0, 60.0])

    @pytest.mark.parametrize("top", [0.01, 0.001])
    def test_frequency_truncation_raises(self, market, top):
        # the fat tail's transform has barely decayed at these cuts; the
        # truncated integral used to return 40.5 and 4.34 against 99.9999
        model, config = model_preset("cgmy2"), integral_preset("cgmy2")
        config = IntegralConfig(damping=config.damping, max_frequency=top)
        with pytest.raises(ComputationError, match="truncated too early"):
            price_fourier_integral(model, market, 100.0, config)

    @pytest.mark.parametrize("name", PROFILES)
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_every_preset_column_prices(self, name, maturity):
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        model, config = model_preset(name), integral_preset(name)
        prices = price_fourier_integral(model, market, list(LATTICE), config)
        # the fat tail's calls sit at the spot itself, to roundoff
        assert all(0.0 < p <= market.spot * (1.0 + 1e-9) for p in prices)

    def test_exploded_moment_rejected(self):
        # past the explosion of E[S_T^1.1] the closed form returns a complex
        # "moment" and the integral used to price 54.23, below the bound 63.21
        market = explosive_market(20.0)
        with pytest.raises(ValidationError, match="not real, positive and finite"):
            price_fourier_integral(EXPLOSIVE, market, 100.0)

    def test_finite_moment_prices_within_bounds(self):
        # before the explosion time the same model prices inside the bounds
        market = explosive_market(5.0)
        lower = market.spot - 100.0 * math.exp(-market.rate * market.maturity)
        assert lower < price_fourier_integral(EXPLOSIVE, market, 100.0) < market.spot


class TestCarrMadanReadout:
    @pytest.mark.parametrize("name", PROFILES)
    def test_matches_natural_cubic_spline(self, market, name):
        model, config = model_preset(name), carr_madan_preset(name)
        got = price_carr_madan(model, market, LATTICE, config)
        grid_k = -config.strike_span + config.strike_step * np.arange(config.n_fft)
        j = np.searchsorted(grid_k, np.log(LATTICE / market.spot))
        nodes = np.unique(j[:, None] + np.arange(-2, 2))
        spectrum = np.full(config.n_fft, np.nan)
        spectrum[nodes] = _call_spectrum(model, market, config, nodes)
        prices = market.spot * np.exp(-config.damping * grid_k) / math.pi * spectrum
        for strike, value in zip(LATTICE, got):
            k = math.log(strike / market.spot)
            j = int(np.searchsorted(grid_k, k))
            sel = slice(j - 2, j + 2)
            spline = CubicSpline(grid_k[sel], prices[sel], bc_type="natural")
            assert value == pytest.approx(float(spline(k)), abs=1e-12), (name, strike)

    @pytest.mark.parametrize("name", PROFILES)
    def test_exact_on_grid(self, market, name):
        model, config = model_preset(name), carr_madan_preset(name)
        nodes = config.n_fft // 2 + np.arange(-2, 2)
        assert -config.strike_span + config.strike_step * nodes[2] == 0.0
        spectrum = _call_spectrum(model, market, config, nodes)
        value = price_carr_madan(model, market, [market.spot], config)[0]
        assert value == market.spot * (1.0 / math.pi * spectrum[2])

    @pytest.mark.parametrize("name", PROFILES)
    def test_column_matches_strikes_alone(self, monkeypatch, market, name):
        def no_fft(*args, **kwargs):
            raise AssertionError("the readout must not run an FFT")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        model, config = model_preset(name), carr_madan_preset(name)
        # unsorted, with a duplicate, and with strikes a fraction of a grid
        # step from K = 100 that read three or all four of its grid values
        lam = config.strike_step
        strikes = [float(k) for k in LATTICE[::-7]] + [100.0, 100.0]
        strikes += [100.0 * math.exp(0.3 * lam), 100.0 * math.exp(-0.6 * lam)]
        column = price_carr_madan(model, market, strikes, config)
        for strike, value in zip(strikes, column):
            alone = price_carr_madan(model, market, [strike], config)[0]
            assert value == pytest.approx(alone, rel=1e-13, abs=0.0), (name, strike)

    def test_empty_column_evaluates_no_phi(self, monkeypatch, market):
        calls = []

        def spy(*args):
            calls.append(args)
            return char_fn(*args)

        monkeypatch.setattr(transform_refs, "char_fn", spy)
        model = model_preset("kou")
        assert price_carr_madan(model, market, []) == []
        assert price_fourier_integral(model, market, []) == []
        assert calls == []
        # the spy sees a priced column
        price_carr_madan(model, market, [100.0])
        price_fourier_integral(model, market, [100.0])
        assert len(calls) == 2

    def test_exploded_moment_rejected(self):
        # past the explosion of E[S_T^1.75] Carr-Madan used to price 18.54,
        # below the no-arbitrage bound 22.12
        market = explosive_market(5.0)
        with pytest.raises(ValidationError, match="not real, positive and finite"):
            price_carr_madan(EXPLOSIVE, market, [100.0])
