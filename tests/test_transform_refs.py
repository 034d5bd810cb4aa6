"""Tests for the two transform-based cross-checks.

The damped Fourier integral is validated against the Black-Scholes
closed form before anything else relies on it, and its fixed-node rule
is certified against adaptive quadrature of the same integrand; the
Carr-Madan pricer is then checked against the bundled reference prices
and the Fourier integral at every strike, and its Simpson sum against a
direct sum in extended precision.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from cospricer import (
    CarrMadanConfig,
    CGMYParams,
    ComputationError,
    CosConfig,
    HestonParams,
    IntegralConfig,
    KouParams,
    MarketSpec,
    OptionSpec,
    ValidationError,
    Variant,
    char_fn,
    price,
    price_carr_madan,
    price_fourier_integral,
)
from cospricer import models, transform_refs
from cospricer.transform_refs import _damped_calls
from cospricer.presets import (
    STRIKE_GRID,
    carr_madan_preset,
    integral_preset,
    load_strike_table,
    market_preset,
    model_preset,
)

from test_live_band import CountingCharFn, full_grid_spectrum, simpson_terms

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


@pytest.mark.parametrize("pricer", [price_carr_madan, price_fourier_integral])
def test_malformed_strike_column_is_a_validation_error(pricer, market):
    # these used to escape as a TypeError or a ValueError
    malformed = ["abc", [100.0, None], [100.0, "abc"], [[100.0, 110.0]]]
    if pricer is price_carr_madan:
        # it prices a column only, and a string's characters are not one
        malformed += [100.0, "125"]
    for strikes in malformed:
        with pytest.raises(ValidationError, match="strikes must be a sequence of numbers"):
            pricer(model_preset("kou"), market, strikes)


@pytest.mark.parametrize("pricer, config, match", [
    (price_carr_madan, IntegralConfig(), "must be a CarrMadanConfig, got IntegralConfig"),
    (price_carr_madan, None, "must be a CarrMadanConfig, got NoneType"),
    (price_fourier_integral, CarrMadanConfig(), "must be an IntegralConfig, got CarrMadanConfig"),
    (price_fourier_integral, CosConfig(64, 10.0), "must be an IntegralConfig, got CosConfig"),
], ids=["carr-madan-integral", "carr-madan-none", "integral-carr-madan", "integral-cos"])
def test_wrong_config_type_is_a_validation_error(pricer, config, match, market):
    # each once escaped as an AttributeError (strike_span, max_frequency)
    with pytest.raises(ValidationError, match=match):
        pricer(model_preset("kou"), market, [100.0], config)


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

    @pytest.mark.parametrize("top", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_max_frequency(self, top):
        with pytest.raises(ValidationError,
                           match=f"max_frequency must be positive and finite, got {top}"):
            IntegralConfig(max_frequency=top)

    def test_rejects_damping_outside_model_strip(self, market):
        # the up-jump rate eta1 caps the admissible contour shift at 10
        model = model_preset("kou")
        config = IntegralConfig(damping=12.0)
        with pytest.raises(ValidationError, match="admissible interval"):
            price_fourier_integral(model, market, 100.0, config)

    def test_rejects_bad_strike(self, market):
        model = model_preset("heston")
        with pytest.raises(ValidationError, match="strike must be positive"):
            price_fourier_integral(model, market, -100.0)


class TestCarrMadanConfig:
    def test_rejects_non_positive_grid(self):
        with pytest.raises(ValidationError, match="damping must be positive"):
            CarrMadanConfig(damping=0.0)
        with pytest.raises(ValidationError, match="spacing must be positive"):
            CarrMadanConfig(spacing=-0.25)

    def test_grid_geometry(self):
        # the Simpson sum is 2*pi/eta-periodic in the log-strike
        config = CarrMadanConfig(spacing=0.25)
        assert config.strike_span == math.pi / 0.25


class TestCarrMadan:
    def test_on_grid_strike_matches_reference(self, market):
        # K = S0 alone, a one-strike column
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
                # every strike is summed at its own log-moneyness
                assert value == pytest.approx(want, abs=1e-8), (name, strike)
                assert 0.0 < value <= market.spot
                intrinsic = market.spot * math.exp(
                    -market.dividend * market.maturity
                ) - strike * math.exp(-market.rate * market.maturity)
                assert value >= intrinsic - 1e-6

    @pytest.mark.parametrize("name", PROFILES)
    def test_lattice_matches_fourier_integral(self, market, name):
        # the two oracles share only the model layer, so agreement at
        # every strike of a dense column checks both
        model = model_preset(name)
        got = price_carr_madan(model, market, LATTICE, carr_madan_preset(name))
        want = price_fourier_integral(model, market, list(LATTICE), integral_preset(name))
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-10, name

    @pytest.mark.parametrize("name", ["heston", "kou", "cgmy1"])
    def test_default_config_matches_fourier_integral(self, market, name):
        # the default is these profiles' preset: a coarser spacing, 0.25,
        # prices all three 2.6893e-3 low with no error
        model = model_preset(name)
        [got] = price_carr_madan(model, market, [100.0])
        assert abs(got - price_fourier_integral(model, market, 100.0)) <= 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="the cgmy2 preset returns 99.99917912834 where the Fourier integral "
        "gives 100.00000000008, both inside the no-arbitrage bounds. The cause is "
        "phi's own rounding, amplified by the sum, not the Simpson step: with a "
        "40-digit phi on the same step and band the sum gives 100 - 1.6e-20, and "
        "halving the step gives 99.99924 (ROADMAP item 3)",
    )
    def test_cgmy2_preset_matches_fourier_integral_at_four_years(self):
        model, market = model_preset("cgmy2"), market_preset(4.0)
        [got] = price_carr_madan(model, market, [100.0], carr_madan_preset("cgmy2"))
        want = price_fourier_integral(model, market, 100.0, integral_preset("cgmy2"))
        assert abs(got - want) <= 1e-6

    def test_heavy_tail_rejects_default_damping(self, market):
        # the default damping needs the 1.75th exponential moment, which
        # is astronomically large for the near-second-order tempered
        # stable tail; the spot-bound guard must catch the blow-up
        model = model_preset("cgmy2")
        with pytest.raises(ComputationError, match="spot bound"):
            price_carr_madan(model, market, [100.0], CarrMadanConfig())

    def test_above_dividend_discounted_spot_rejected(self):
        # with q > 0 the upper bound is S0*e^(-qT) = 36.78794, which the
        # Fourier integral meets; the sum used to return 36.9113, under S0
        model = model_preset("cgmy2")
        market = MarketSpec(spot=100.0, rate=0.1, dividend=0.2, maturity=5.0)
        with pytest.raises(ComputationError, match="spot bound S0\\*e\\^\\(-qT\\) = 36.7879"):
            price_carr_madan(model, market, [100.0], carr_madan_preset("cgmy2"))
        bound = market.spot * math.exp(-market.dividend * market.maturity)
        got = price_fourier_integral(model, market, 100.0, integral_preset("cgmy2"))
        assert got == pytest.approx(bound, abs=1e-9)

    @pytest.mark.parametrize(
        "name, log_strike",
        [("kou", -60.0), ("kou", -40.0), ("heston", -40.0), ("kou", -30.0), ("heston", -30.0)],
    )
    def test_deep_in_the_money_below_lower_bound_rejected(self, market, name, log_strike):
        # the sum's rounding times exp(-damping*k) used to come back as
        # -1.0e15 (kou, k=-60), 99.884 (heston, k=-40) and 99.99997
        # (heston, k=-30), all below the lower bound of about 100
        strike = market.spot * math.exp(log_strike)
        with pytest.raises(ComputationError, match="lower bound"):
            price_carr_madan(model_preset(name), market, [strike], carr_madan_preset(name))

    @pytest.mark.parametrize("strike", [60.0, 100.0, 160.0])
    def test_shift_near_jump_decay_rejected(self, market, strike):
        # a shift of 9.5, inside eta1 = 10, used to return -1.5e17, -2.0e15
        # and -3.9e13 where the Fourier integral gives 48.578, 23.934, 6.189
        config = CarrMadanConfig(damping=8.5, spacing=0.05)
        with pytest.raises(ComputationError, match="lower bound"):
            price_carr_madan(model_preset("kou"), market, [strike], config)

    @pytest.mark.parametrize("name", PROFILES)
    @pytest.mark.parametrize("log_strike", [-20.0, -10.0])
    def test_deep_in_the_money_within_bounds_prices(self, market, name, log_strike):
        strike = market.spot * math.exp(log_strike)
        [call] = price_carr_madan(model_preset(name), market, [strike], carr_madan_preset(name))
        lower = market.spot - strike * math.exp(-market.rate * market.maturity)
        assert lower - 1e-9 * market.spot <= call <= market.spot

    @pytest.mark.parametrize("name, maturity, strike", [
        ("heston", 1e-5, 100.5), ("heston", 1e-5, 100.0), ("kou", 1e-5, 100.0),
        ("cgmy1", 1e-5, 100.0), ("kou", 1e-4, 100.0),
    ])
    def test_band_cut_by_the_frequency_cap_rejected(self, name, maturity, strike):
        # the 2^16-point cap used to end these bands above their rounding
        # floor, and the sums came back, in this order, 2.25e-6 (where
        # parity and the Fourier integral agree on 1.62e-12), 3.7e-5,
        # 4.9e-4, 1.7e-6 and 3.4e-10 high, all inside the no-arbitrage bounds
        market = market_preset(maturity)
        with pytest.raises(ComputationError, match="point cap before its rounding floor"):
            price_carr_madan(model_preset(name), market, [strike], carr_madan_preset(name))

    @pytest.mark.parametrize("name", ["heston", "cgmy1"])
    def test_short_maturity_inside_the_cap_prices(self, name):
        model, market = model_preset(name), market_preset(1e-4)
        [got] = price_carr_madan(model, market, [100.0], carr_madan_preset(name))
        want = price_fourier_integral(model, market, 100.0, IntegralConfig(max_frequency=2e5))
        assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("name, rate, dividend, maturity", [
        ("kou", -0.75, -1.0, 600.0), ("heston", -0.75, -1.0, 600.0), ("cgmy1", -0.75, -2.0, 180.0),
    ])
    def test_overflowing_transform_is_named_non_finite(self, name, rate, dividend, maturity):
        # e^(-rT)*phi overflows: this used to leak three NumPy warnings and
        # then blame the damping for a nan price
        market = MarketSpec(spot=100.0, rate=rate, dividend=dividend, maturity=maturity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComputationError, match="non-finite price at strike 100"):
                price_carr_madan(model_preset(name), market, [100.0], carr_madan_preset(name))

    def test_rejects_strike_outside_span(self, market):
        # widen the step so the span, pi, is cheap to leave
        config = CarrMadanConfig(spacing=1.0)
        model = model_preset("heston")
        with pytest.raises(ValidationError, match="log-strike span"):
            price_carr_madan(model, market, [100.0 * math.e ** 3.2], config)

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
        # "moment" and the integral used to price 54.23, below the bound 63.21;
        # the strip at T = 20 refuses the shift before any moment is read
        market = explosive_market(20.0)
        with pytest.raises(ValidationError, match=r"contour shift 1.1 lies outside the "
                                                  r"admissible interval .* at T = 20"):
            price_fourier_integral(EXPLOSIVE, market, 100.0)

    def test_underflowed_moment_is_named_as_one(self):
        # e^(-qT) = 9.9e-305 is representable, but E[(S_T/S_0)^1.1] is 0;
        # it used to be reported as an explosion, to be mended by a lower damping
        market = MarketSpec(spot=100.0, rate=0.0, dividend=0.7, maturity=1000.0)
        with pytest.raises(ValidationError, match=r"\^1.1\] underflows to 0; the drift"):
            price_fourier_integral(model_preset("kou"), market, 100.0, integral_preset("kou"))

    def test_finite_moment_prices_within_bounds(self):
        # before the explosion time the same model prices inside the bounds
        market = explosive_market(5.0)
        lower = market.spot - 100.0 * math.exp(-market.rate * market.maturity)
        assert lower < price_fourier_integral(EXPLOSIVE, market, 100.0) < market.spot

    def test_column_outside_the_bounds_refused(self, monkeypatch, market):
        # three times phi keeps the moment valid and both rules in step, and
        # moves the K=60 call from 45.86 to 137.6, above S0; K=100 stays inside
        model, config = model_preset("heston"), integral_preset("heston")
        assert price_fourier_integral(model, market, 60.0, config) < market.spot
        monkeypatch.setattr(transform_refs, "char_fn", lambda *args: 3.0 * char_fn(*args))
        with pytest.raises(ComputationError, match=(
            r"^Fourier integral at damping 1.1 gave 137.569 at strike 60, above the spot "
            r"bound S0\*e\^\(-qT\) = 100$"
        )):
            price_fourier_integral(model, market, [100.0, 60.0, 160.0], config)

    def test_non_finite_price_names_its_strike(self, monkeypatch, market):
        def nan_past_the_moment(*args):
            phi = char_fn(*args)
            phi[1:] = math.nan
            return phi

        monkeypatch.setattr(transform_refs, "char_fn", nan_past_the_moment)
        with pytest.raises(ComputationError, match="non-finite price at strike 100$"):
            price_fourier_integral(model_preset("kou"), market, [100.0, 60.0])

    @pytest.mark.xfail(
        strict=True,
        reason="at T=1e-5 the heston preset's integral is 6.3506e-8 at K=100.5, where "
        "parity gives 1.620e-12, and 3.158934e-2 at K=100 against 3.158920e-2: both "
        "inside the bounds, and both gaps under the absolute acceptance test "
        "1e-6*max(1, |integral|), so nothing refuses them (ROADMAP item 3)",
    )
    def test_short_maturity_matches_parity(self):
        model, market = model_preset("heston"), market_preset(1e-5)
        strikes = [100.0, 100.5]
        got = price_fourier_integral(model, market, strikes, integral_preset("heston"))
        config = CosConfig(n_terms=2 ** 18, range_width=40.0, variant=Variant.PUT_CALL_PARITY)
        want = price(model, market, [OptionSpec(k) for k in strikes], config).prices.tolist()
        assert got == pytest.approx(want, rel=1e-6, abs=1e-14)


def panel_edges(config):
    """Every panel edge of the Fourier integral's rule: 0, then alpha - 1
    doubling up to max_frequency."""
    edges = [0.0]
    edge = config.damping - 1.0
    while edge < config.max_frequency:
        edges.append(edge)
        edge *= 2.0
    return edges + [config.max_frequency]


class TestFourierIntegralPanelCut:
    """The Fourier integral leaves out the panels past the first edge e
    from which the envelope Psi proves that both rules' remaining terms
    sum to at most 2*e^(alpha*x)*h(e)*(max_frequency - e), with
    h(e) = Psi(e)/|(alpha - ie)(alpha - 1 - ie)|, below TAIL_SHARE of the
    first node's term; with no bound proven every panel is kept."""

    @staticmethod
    def nodes(monkeypatch, model, market, strikes, config):
        """(prices, number of phi points) of one column."""
        evaluate = CountingCharFn()
        with monkeypatch.context() as patch:
            patch.setattr(transform_refs, "char_fn", evaluate)
            prices = price_fourier_integral(model, market, strikes, config)
        [size] = evaluate.sizes
        return prices, size

    @staticmethod
    def full_size(config):
        # u = 0, 16 + 32 nodes per panel, and u = max_frequency
        return 2 + 48 * (len(panel_edges(config)) - 1)

    @pytest.mark.parametrize("name", PROFILES)
    def test_every_preset_evaluates_fewer_nodes_at_one_year(self, monkeypatch, name):
        config = integral_preset(name)
        _, size = self.nodes(monkeypatch, model_preset(name), market_preset(1.0), [100.0], config)
        assert size < self.full_size(config)

    def test_short_maturity_heston_evaluates_every_panel(self, monkeypatch):
        config = integral_preset("heston")
        _, size = self.nodes(monkeypatch, model_preset("heston"), market_preset(1e-5),
                             [100.0], config)
        assert size == self.full_size(config)

    @pytest.mark.parametrize("model", [
        HestonParams(kappa=0.85, theta=0.09, sigma=0.1, rho=-1.0, v0=0.0625),
        CGMYParams(C=1.0, G=5.0, M=5.0, Y=-1.5),
    ], ids=["heston-unit-rho", "cgmy-y-below-minus-one"])
    def test_unproven_decay_evaluates_every_panel(self, monkeypatch, model):
        # no envelope is proven for either; the CGMY column is then
        # refused, as before, because its 16- and 32-point rules differ
        evaluate = CountingCharFn()
        monkeypatch.setattr(transform_refs, "char_fn", evaluate)
        try:
            price_fourier_integral(model, market_preset(1.0), [100.0])
        except ComputationError as error:
            assert "16- and 32-point rules differ" in str(error)
        assert evaluate.sizes == [self.full_size(IntegralConfig())]

    @pytest.mark.parametrize("name", PROFILES)
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_cut_prices_within_the_tail_bound(self, monkeypatch, name, maturity):
        model, market, config = model_preset(name), market_preset(maturity), integral_preset(name)
        strikes = list(LATTICE)
        envelope = models._log_envelope
        cut, size = self.nodes(monkeypatch, model, market, strikes, config)
        # the uncut rule: an envelope that proves nothing keeps every panel
        monkeypatch.setattr(models, "_log_envelope", lambda *args: math.inf)
        full, full_size = self.nodes(monkeypatch, model, market, strikes, config)
        assert full_size == self.full_size(config) > size
        alpha, top = config.damping, config.max_frequency
        edge = panel_edges(config)[(size - 2) // 48]
        h = math.exp(envelope(model, market, alpha, edge)) / abs(
            complex(alpha, -edge) * complex(alpha - 1.0, -edge))
        x = np.log(market.spot / LATTICE)
        # in price units: K*e^(-rT)/(2*pi) times the integral's bound
        scale = LATTICE * market.discount_factor / (2.0 * math.pi) * 2.0 * np.exp(alpha * x)
        bound = scale * h * (top - edge)
        assert np.all(np.abs(np.subtract(cut, full)) <= bound + 1e-13)
        # and the bound lies below TAIL_SHARE of the first node's term
        first_weight = 0.5 * (alpha - 1.0) * np.polynomial.legendre.leggauss(32)[1][0]
        moment = math.exp(envelope(model, market, alpha, 0.0))
        first = scale * first_weight * moment / (alpha * (alpha - 1.0))
        assert np.all(bound < models.TAIL_SHARE * first)


def extended_direct_sum(model, market, config, log_strikes):
    """Re sum_p x_p e^{-i*eta*p*k} at each log-strike k, every term and
    the sum in extended precision (np.longdouble), with x_p formed in
    double on the whole capped contour, trailing zeros dropped; also
    returns sum |x_p|."""
    x = simpson_terms(model, market, config)
    x = x[: np.flatnonzero(x)[-1] + 1]
    re, im = x.real.astype(np.longdouble), x.imag.astype(np.longdouble)
    steps = np.longdouble(config.spacing) * np.arange(x.size, dtype=np.longdouble)
    sums = []
    for k in np.asarray(log_strikes, dtype=np.longdouble):
        angle = steps * k
        sums.append(np.sum(re * np.cos(angle) + im * np.sin(angle)))
    return np.array(sums, dtype=float), float(np.abs(x).sum())


class TestCarrMadanReadout:
    # the band's cut moves most with the maturity; T = 1 keeps the bare
    # profile name as its id
    @pytest.mark.parametrize("name, maturity", [
        pytest.param(name, maturity, id=name if maturity == 1.0 else f"{name}-T={maturity:g}")
        for maturity in (1.0, 0.1, 5.0) for name in PROFILES
    ])
    def test_matches_extended_precision_sum(self, name, maturity):
        model, config = model_preset(name), carr_madan_preset(name)
        market = market_preset(maturity)
        # the lattice, and log-strikes across the whole span to its ends
        lattice = np.log(LATTICE / market.spot)
        log_strikes = np.concatenate((lattice, config.strike_span * np.linspace(-1.0, 1.0, 21)))
        got = _damped_calls(model, market, config, log_strikes)
        want, scale = extended_direct_sum(model, market, config, log_strikes)
        error = np.max(np.abs(got - want))
        assert error <= 16.0 * np.finfo(float).eps * scale, (name, error / scale)
        if (name, maturity) == ("cgmy2", 5.0):
            # the preset step does not resolve this transform: the sum
            # reads 100.35-100.39 across the lattice, above the spot bound
            with pytest.raises(ComputationError, match="spot bound"):
                price_carr_madan(model, market, LATTICE, config)
            return
        # each price is that sum at its strike, scaled back
        prices = price_carr_madan(model, market, LATTICE, config)
        calls = got[: LATTICE.size]
        assert prices == (market.spot * (np.exp(-config.damping * lattice) / math.pi * calls)).tolist()

    @pytest.mark.parametrize("name", PROFILES)
    def test_exact_on_grid(self, market, name):
        # K = S0 sits at k = 0 on the old log-strike grid, where the FFT
        # over the whole capped contour gives the sum at index n/2
        model, config = model_preset(name), carr_madan_preset(name)
        spectrum, scale = full_grid_spectrum(model, market, config)
        value = price_carr_madan(model, market, [market.spot], config)[0]
        want = market.spot / math.pi * spectrum[spectrum.size // 2]
        tolerance = market.spot / math.pi * 16.0 * np.finfo(float).eps * scale
        assert value == pytest.approx(want, abs=tolerance, rel=0.0)

    @pytest.mark.parametrize("name", PROFILES)
    def test_column_matches_strikes_alone(self, monkeypatch, market, name):
        def no_fft(*args, **kwargs):
            raise AssertionError("the readout must not run an FFT")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        model, config = model_preset(name), carr_madan_preset(name)
        # unsorted, with a duplicate, and with strikes a hair from K = 100
        strikes = [float(k) for k in LATTICE[::-7]] + [100.0, 100.0]
        strikes += [100.0 * math.exp(3e-5), 100.0 * math.exp(-6e-5)]
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
        # below the no-arbitrage bound 22.12; the strip at T = 5 refuses the
        # shift before any moment is read
        market = explosive_market(5.0)
        with pytest.raises(ValidationError, match=r"contour shift 1.75 lies outside the "
                                                  r"admissible interval .* at T = 5"):
            price_carr_madan(EXPLOSIVE, market, [100.0])

    def test_underflowed_moment_is_named_as_one(self):
        # the shift is damping + 1 = 1.75; see the Fourier integral's test
        market = MarketSpec(spot=100.0, rate=0.0, dividend=0.7, maturity=1000.0)
        with pytest.raises(ValidationError, match=r"\^1.75\] underflows to 0; the drift"):
            price_carr_madan(model_preset("kou"), market, [100.0], carr_madan_preset("kou"))

    def test_overflowed_moment_is_named_as_one(self):
        # 1.75*(r - q)*T is about 1023 > 709.8, so the moment overflows; it
        # used to be reported as an explosion, after NumPy's overflow warning
        market = MarketSpec(spot=100.0, rate=1.502, dividend=-0.774, maturity=256.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"\^1.75\] overflows; the drift"):
                price_carr_madan(model_preset("kou"), market, [100.0], carr_madan_preset("kou"))
