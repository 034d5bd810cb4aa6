"""Cosine-series engine: coefficient closed forms and pricing variants."""

import collections
import itertools
import math
import re
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cospricer import cos_engine, harness, presets
from cospricer.cos_engine import (
    CosConfig,
    OptionKind,
    OptionSpec,
    PriceColumn,
    PriceResult,
    Variant,
    call_coefficients,
    chi,
    price,
    price_curve,
    price_curves,
    put_coefficients,
)
from cospricer.errors import ComputationError, ConfigurationError, PricingError, ValidationError
from cospricer.models import (
    CGMYParams,
    HestonParams,
    KouParams,
    MarketSpec,
    TruncationRange,
    char_fn,
    check_moment,
    cumulants,
    live_band,
    truncation_range,
)
from cospricer.transform_refs import price_carr_madan, price_fourier_integral

from test_models import DUCK_MARKET

STRIKES = (80.0, 85.0, 90.0, 95.0, 100.0, 105.0, 110.0, 115.0, 120.0)

# converged series settings per profile for property checks
_WIDE = {
    "heston": CosConfig(n_terms=3000, range_width=12.0),
    "kou": CosConfig(n_terms=3000, range_width=12.0),
    "cgmy1": CosConfig(n_terms=3000, range_width=12.0),
    "cgmy2": CosConfig(n_terms=3000, range_width=20.0),
}


def _variant_config(base: CosConfig, variant: Variant, damping=None) -> CosConfig:
    return CosConfig(
        n_terms=base.n_terms,
        range_width=base.range_width,
        damping=damping,
        variant=variant,
    )


class TestChi:
    def test_frozen_spot_value(self):
        got = chi(np.array([3.0]), -0.1, 0.0, 1.5, -1.5)[0]
        assert got == pytest.approx(0.44995266191878247, abs=1e-15)

    def test_against_quadrature_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a = rng.uniform(-4.0, -0.5)
            b = a + rng.uniform(1.0, 6.0)
            c = rng.uniform(a, b - 0.25)
            d = rng.uniform(c, b)
            v = rng.uniform(-1.5, 1.5)
            u = rng.uniform(0.0, 40.0)
            want, err = quad(
                lambda y: math.exp(v * y) * math.cos(u * (y - a)), c, d,
                epsabs=1e-14, epsrel=1e-14, limit=800,
            )
            got = chi(np.array([u]), v, c, d, a)[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_zero_frequency_zero_tilt_is_length(self):
        assert chi(np.array([0.0]), 0.0, -1.0, 2.5, -3.0)[0] == pytest.approx(3.5)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            chi(np.array([1.0]), 0.5, 2.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_bound(self, bad):
        for bounds in ((bad, 1.0, 0.0), (-1.0, bad, -2.0), (0.0, 1.0, bad)):
            with pytest.raises(ValidationError, match="must be finite with c <= d"):
                chi(np.array([1.0]), 0.5, *bounds)


class TestPayoffCoefficients:
    def test_call_against_quadrature_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = rng.uniform(-6.0, -0.5)
            b = rng.uniform(0.5, 4.0)
            width = b - a
            alpha = rng.uniform(0.0, 1.2)
            strike = rng.uniform(50.0, 150.0)
            k = rng.integers(0, 24)
            u = k * math.pi / width
            got = call_coefficients(np.array([u]), alpha, a, b, strike)[0]
            want, _ = quad(
                lambda y: strike * (math.exp(y) - 1.0) * math.exp(-alpha * y)
                * math.cos(u * (y - a)),
                0.0, b, epsabs=1e-14, epsrel=1e-14, limit=800,
            )
            want *= 2.0 / width
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_put_against_quadrature_randomized(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            a = rng.uniform(-6.0, -0.5)
            b = rng.uniform(0.5, 4.0)
            width = b - a
            alpha = rng.uniform(-1.2, 0.5)
            strike = rng.uniform(50.0, 150.0)
            k = rng.integers(0, 24)
            u = k * math.pi / width
            got = put_coefficients(np.array([u]), alpha, a, b, strike)[0]
            want, _ = quad(
                lambda y: strike * (1.0 - math.exp(y)) * math.exp(-alpha * y)
                * math.cos(u * (y - a)),
                a, 0.0, epsabs=1e-14, epsrel=1e-14, limit=800,
            )
            want *= 2.0 / width
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_flat_mode_closed_forms(self):
        # k = 0, [a, b] = [-1, 1], alpha = 0: the coefficient integrals have
        # elementary values K*(e - 2) and K/e
        call0 = call_coefficients(np.array([0.0]), 0.0, -1.0, 1.0, 100.0)[0]
        put0 = put_coefficients(np.array([0.0]), 0.0, -1.0, 1.0, 100.0)[0]
        assert call0 == pytest.approx(100.0 * (math.e - 2.0), rel=1e-14)
        assert put0 == pytest.approx(100.0 / math.e, rel=1e-14)

    def test_call_vanishes_when_range_below_zero(self):
        vals = call_coefficients(np.linspace(0.0, 30.0, 7), 0.7, -3.0, -0.5, 100.0)
        assert np.all(vals == 0.0)

    def test_put_vanishes_when_range_above_zero(self):
        vals = put_coefficients(np.linspace(0.0, 30.0, 7), 0.0, 0.5, 3.0, 100.0)
        assert np.all(vals == 0.0)

    def test_range_ending_or_starting_at_zero(self):
        # the edges of the rule lo < hi: [-2, 0] meets only the put payoff
        # and [0, 2] only the call's
        u = np.arange(48) * 0.41
        for alpha in (0.0, 1.1, -0.7):
            for (a, b), live, dead in (((-2.0, 0.0), put_coefficients, call_coefficients),
                                       ((0.0, 2.0), call_coefficients, put_coefficients)):
                assert np.all(dead(u, alpha, a, b, 100.0) == 0.0)
                assert live(u, alpha, a, b, 100.0)[0] != 0.0


class TestVariantIdentities:
    def test_zero_damping_equals_direct_for_puts(self, models, market):
        for name, model in models.items():
            base = _WIDE[name]
            put = OptionSpec(strike=95.0, kind=OptionKind.PUT)
            damped = price(model, market, put, _variant_config(base, Variant.STABLE, 0.0))
            direct = price(model, market, put, _variant_config(base, Variant.DIRECT))
            assert damped.price == pytest.approx(direct.price, rel=1e-14), name

    def test_zero_damping_call_kernel_equals_direct(self, models, market):
        # the public API refuses a damped call at alpha = 0 (not integrable
        # on the line), so the identity is checked at the coefficient level:
        # the damped kernel is analytic in alpha and converges linearly to
        # the undamped one (measured rel gap ~1e-8 at alpha = 1e-9)
        a, b = -2.0, 1.5
        u = np.arange(24) * math.pi / (b - a)
        for strike in (80.0, 100.0, 120.0):
            undamped = call_coefficients(u, 0.0, a, b, strike)
            shifted = call_coefficients(u, 1e-9, a, b, strike)
            np.testing.assert_allclose(undamped, shifted, rtol=1e-7)

    def test_parity_variant_equals_put_plus_forward(self, models, market):
        for name, model in models.items():
            base = _WIDE[name]
            call = OptionSpec(strike=105.0)
            put = OptionSpec(strike=105.0, kind=OptionKind.PUT)
            via_parity = price(model, market, call, _variant_config(base, Variant.PUT_CALL_PARITY))
            put_leg = price(model, market, put, _variant_config(base, Variant.DIRECT))
            forward = market.spot * math.exp(-market.dividend * market.maturity)
            strike_leg = 105.0 * math.exp(-market.rate * market.maturity)
            assert via_parity.price == pytest.approx(
                put_leg.price + forward - strike_leg, rel=1e-14
            ), name

    def test_parity_residual_across_models_and_strikes(self, models, market):
        for name, model in models.items():
            base = _WIDE[name]
            for strike in STRIKES:
                call = price(
                    model, market, OptionSpec(strike=strike),
                    _variant_config(base, Variant.STABLE, 1.1 if name != "cgmy2" else 1.015),
                ).price
                put = price(
                    model, market, OptionSpec(strike=strike, kind=OptionKind.PUT),
                    _variant_config(base, Variant.DIRECT),
                ).price
                residual = call - put - (
                    market.spot * math.exp(-market.dividend * market.maturity)
                    - strike * math.exp(-market.rate * market.maturity)
                )
                assert abs(residual) < 1e-8, (name, strike)


class TestPriceProperties:
    def test_call_decreasing_put_increasing_in_strike(self, models, market):
        for name, model in models.items():
            base = _WIDE[name]
            calls = [
                price(model, market, OptionSpec(strike=k),
                      _variant_config(base, Variant.PUT_CALL_PARITY)).price
                for k in STRIKES
            ]
            puts = [
                price(model, market, OptionSpec(strike=k, kind=OptionKind.PUT),
                      _variant_config(base, Variant.DIRECT)).price
                for k in STRIKES
            ]
            assert all(a > b for a, b in zip(calls, calls[1:])), name
            assert all(a < b for a, b in zip(puts, puts[1:])), name

    def test_no_arbitrage_bounds(self, models, market):
        forward = market.spot * math.exp(-market.dividend * market.maturity)
        for name, model in models.items():
            base = _WIDE[name]
            for strike in (80.0, 100.0, 120.0):
                call = price(model, market, OptionSpec(strike=strike),
                             _variant_config(base, Variant.PUT_CALL_PARITY)).price
                lower = max(0.0, forward - strike * math.exp(-market.rate * market.maturity))
                assert lower - 1e-9 <= call <= forward + 1e-9, (name, strike)

    def test_context_range_shifts_with_strike(self, models, market):
        model = models["heston"]
        cfg = _WIDE["heston"]
        narrow = price(model, market, OptionSpec(strike=80.0), cfg).range
        wide = price(model, market, OptionSpec(strike=120.0), cfg).range
        shift = math.log(120.0 / 80.0)
        assert narrow.a - wide.a == pytest.approx(shift, rel=1e-12)
        assert narrow.b - wide.b == pytest.approx(shift, rel=1e-12)


class TestConfigurationErrors:
    def test_stable_call_requires_alpha_above_one(self, models, market):
        cfg = CosConfig(n_terms=128, range_width=8.0, damping=0.5)
        with pytest.raises(ConfigurationError, match="alpha must exceed 1"):
            price(models["heston"], market, OptionSpec(strike=100.0), cfg)

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_stable_put_refuses_positive_alpha(self, models, market, name):
        # K*(1 - e^y)^+ * e^(-alpha*y) grows without bound as y -> -inf for
        # alpha > 0; with the call preset's alpha the cgmy2 put used to
        # come back as 6.4e80 and the kou and cgmy1 puts 1e-7 to 1e-6 off
        cfg = presets.method_preset(name, Variant.STABLE).cos_config(Variant.STABLE)
        put = OptionSpec(strike=100.0, kind=OptionKind.PUT)
        with pytest.raises(ConfigurationError, match="alpha must not exceed 0"):
            price(models[name], market, put, cfg)
        with pytest.raises(ConfigurationError, match="alpha must not exceed 0"):
            price(models[name], market, put, replace(cfg, damping=1e-9))
        assert 0.0 < price(models[name], market, put, replace(cfg, damping=0.0)).price < 100.0

    def test_parity_refuses_puts(self, models, market):
        cfg = CosConfig(n_terms=128, range_width=8.0, variant=Variant.PUT_CALL_PARITY)
        with pytest.raises(ConfigurationError, match="request the put directly"):
            price(models["heston"], market,
                  OptionSpec(strike=100.0, kind=OptionKind.PUT), cfg)

    @pytest.mark.parametrize("call, match", [
        (lambda m, mk: price(m, mk, OptionSpec(100.0),
                             presets.method_preset("heston", Variant.STABLE)),
         "config must be a CosConfig, got MethodPreset"),
        (lambda m, mk: price_curve(m, mk, OptionSpec(100.0),
                                   presets.method_preset("heston", Variant.STABLE), (8, 16)),
         "config must be a CosConfig, got MethodPreset"),
        (lambda m, mk: price(m, mk, OptionSpec(100.0), None),
         "config must be a CosConfig, got NoneType"),
        (lambda m, mk: price_curve(m, mk, OptionSpec(100.0), None, (8,)),
         "config must be a CosConfig, got NoneType"),
        (lambda m, mk: price(m, mk, [100.0], CosConfig(64, 10.0)),
         "an option must be an OptionSpec, got float"),
        (lambda m, mk: price(m, mk, 100.0, CosConfig(64, 10.0)),
         "an option must be an OptionSpec, got float"),
        (lambda m, mk: price(m, mk, [OptionSpec(100.0), "call"], CosConfig(64, 10.0)),
         "an option must be an OptionSpec, got str"),
        (lambda m, mk: price(m, "mkt", OptionSpec(100.0), CosConfig(64, 10.0)),
         "market must be a MarketSpec, got str"),
        (lambda m, mk: price(m, DUCK_MARKET, [100.0], CosConfig(64, 10.0)),
         "market must be a MarketSpec, got SimpleNamespace"),
        (lambda m, mk: price_curve(m, None, OptionSpec(100.0), CosConfig(64, 10.0), (8, 16)),
         "market must be a MarketSpec, got NoneType"),
        (lambda m, mk: price_curves(m, (mk,), [(OptionSpec(100.0), CosConfig(64, 10.0), (8,))]),
         "market must be a MarketSpec, got tuple"),
    ], ids=["price-preset", "curve-preset", "price-none", "curve-none", "batch-float",
            "float", "batch-str", "price-market-str", "price-market-duck", "curve-market",
            "curves-market"])
    def test_wrong_type_refused(self, models, market, call, match):
        # each once escaped as an AttributeError or a TypeError; the market
        # is checked before the options
        with pytest.raises(ValidationError, match=match):
            call(models["heston"], market)

    @pytest.mark.parametrize("spot, strike, config, kind", [
        (1e-200, 1e200, CosConfig(64, 10.0), OptionKind.CALL),
        (5e-324, 1e10, CosConfig(64, 10.0), OptionKind.CALL),
        (1e300, 1e-300, CosConfig(64, 10.0), OptionKind.CALL),
        (1e300, 1e-300, CosConfig(64, 10.0, variant=Variant.PUT_CALL_PARITY), OptionKind.CALL),
        (1e300, 1e-300, CosConfig(64, 10.0), OptionKind.PUT),
    ], ids=["underflow", "subnormal-spot", "overflow", "overflow-parity", "overflow-put"])
    def test_unrepresentable_log_moneyness_refused(self, models, spot, strike, config, kind):
        # S0/K of 0 once raised math.log's raw ValueError; of inf, an error
        # naming the range or the exponential rather than the strike
        market = MarketSpec(spot=spot, rate=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(
                    f"the log-moneyness of strike {strike!r} at spot {spot!r} is not a finite "
                    f"float")):
                # the first strike, at the money, is priceable, so the second is named
                price(models["kou"], market, [OptionSpec(spot, kind), OptionSpec(strike, kind)],
                      config)

    def test_damping_outside_strip_rejected(self, models, market):
        cfg = CosConfig(n_terms=128, range_width=8.0, damping=11.0)
        with pytest.raises(ValidationError, match="admissible interval"):
            price(models["kou"], market, OptionSpec(strike=100.0), cfg)

    def test_asymmetric_cgmy_call_beyond_up_jump_decay_rejected(self, market):
        # alpha = 4 exceeds the up-jump decay M = 3, so E[S^4] is infinite
        # and the damped series has no price to converge to
        model = CGMYParams(C=1.0, G=10.0, M=3.0, Y=0.5)
        cfg = CosConfig(n_terms=256, range_width=10.0, damping=4.0)
        with pytest.raises(ValidationError, match="admissible interval"):
            price(model, market, OptionSpec(strike=100.0), cfg)

    def test_kou_put_beyond_down_jump_decay_rejected(self, models, market):
        # alpha = -6 needs E[S^-6], which is infinite for the down-jump
        # rate eta2 = 5
        cfg = CosConfig(n_terms=140, range_width=7.0, damping=-6.0)
        with pytest.raises(ValidationError, match="admissible interval"):
            price(models["kou"], market, OptionSpec(strike=100.0, kind=OptionKind.PUT), cfg)

    def test_kou_call_below_up_jump_decay_accepted(self, models, market):
        # alpha = 6 < eta1 = 10 keeps E[S^6] finite, so the call is admissible
        # and matches the damped Fourier integral
        cfg = CosConfig(n_terms=140, range_width=7.0, damping=6.0)
        got = price(models["kou"], market, OptionSpec(strike=100.0), cfg).price
        want = price_fourier_integral(models["kou"], market, 100.0)
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("variant", [Variant.DIRECT, Variant.PUT_CALL_PARITY])
    @pytest.mark.parametrize("damping", [1.5, 0.0, -3.0])
    def test_undamped_variant_refuses_a_damping(self, variant, damping):
        # the damping used to be ignored: direct and parity price at alpha = 0
        with pytest.raises(ConfigurationError, match="stable variant only"):
            CosConfig(n_terms=128, range_width=8.0, damping=damping, variant=variant)

    def test_config_field_validation(self):
        with pytest.raises(ValidationError):
            CosConfig(n_terms=0, range_width=8.0)
        with pytest.raises(ValidationError):
            CosConfig(n_terms=128, range_width=-1.0)
        with pytest.raises(ValidationError):
            OptionSpec(strike=-5.0)

    @pytest.mark.parametrize("kind", ["call", "put", None])
    def test_option_kind_must_be_a_member(self, kind):
        # the engine compares kinds with `is`, so "call" used to price a put
        with pytest.raises(ValidationError, match="kind must be an OptionKind member"):
            OptionSpec(100.0, kind)

    @pytest.mark.parametrize("variant, damping", [
        ("stable", None), ("bogus", None), ("direct", None), ("stable", 1.001),
    ])
    def test_variant_must_be_a_member(self, variant, damping):
        # "stable" and "bogus" used to price the undamped direct series, and
        # "stable" with a damping to raise an AttributeError
        with pytest.raises(ValidationError, match="variant must be a Variant member"):
            CosConfig(80, 17.0, damping=damping, variant=variant)

    @pytest.mark.parametrize("damping", [math.inf, -math.inf, math.nan])
    def test_non_finite_damping_refused(self, damping):
        with pytest.raises(ValidationError, match="damping must be finite"):
            CosConfig(n_terms=128, range_width=8.0, damping=damping)

    @pytest.mark.parametrize("n_terms", [True, False, np.True_, 16.7, 0, -5, math.inf,
                                         math.nan, "16"])
    def test_n_terms_follows_the_term_count_rule(self, n_terms):
        # a bool passes isinstance(n, int) but is no term count
        with pytest.raises(ValidationError, match="n_terms must be a positive whole number"):
            CosConfig(n_terms=n_terms, range_width=8.0)

    @pytest.mark.parametrize("n_terms", [np.int64(64), np.int32(64), 64.0])
    def test_whole_n_terms_are_stored_as_int(self, n_terms):
        # NumPy integers and whole floats are term counts, as in term_counts
        config = CosConfig(n_terms=n_terms, range_width=8.0)
        assert type(config.n_terms) is int and config.n_terms == 64
        assert config == CosConfig(n_terms=64, range_width=8.0)

    def test_non_finite_series_reported(self, models, market):
        # the undamped fat-tail call overflows on a wide range; the engine
        # must fail loudly, not return garbage silently
        cfg = CosConfig(n_terms=256, range_width=25.0, variant=Variant.DIRECT)
        try:
            result = price(models["cgmy2"], market, OptionSpec(strike=100.0), cfg)
        except ComputationError:
            return
        assert abs(result.price - 99.9999055101) > 1e-2

    def test_wide_undamped_range_overflow_is_typed(self, models, market):
        # exp(b) of the call coefficients leaves the double range at L = 80
        cfg = CosConfig(n_terms=256, range_width=80.0, variant=Variant.DIRECT)
        with pytest.raises(ComputationError, match="overflows"):
            price(models["cgmy2"], market, OptionSpec(strike=100.0), cfg)
        with pytest.raises(ComputationError, match="overflows"):
            chi(np.arange(4.0), 1.0, 0.0, 800.0, -1.0)

    def test_infinite_terms_of_both_signs_are_typed(self, models, market):
        # b ~ 708 keeps exp(b) finite, but the terms reach +inf and -inf,
        # which math.fsum refuses with a ValueError of its own
        cfg = CosConfig(n_terms=210, range_width=885.0, variant=Variant.DIRECT)
        with pytest.raises(ComputationError, match="strike 100000.0"):
            price(models["kou"], market, OptionSpec(strike=1e5), cfg)

    @pytest.mark.parametrize("strikes", [(2e5, 1e5), (1e5, 2e5)])
    def test_a_column_names_its_first_refused_strike(self, models, market, strikes):
        # both strikes are refused alone; the column names the first in input order
        cfg = CosConfig(n_terms=210, range_width=885.0, variant=Variant.DIRECT)
        for strike in strikes:
            with pytest.raises(ComputationError, match=re.escape(f"strike {strike} is")):
                price(models["kou"], market, OptionSpec(strike=strike), cfg)
        with pytest.raises(ComputationError, match=re.escape(f"strike {strikes[0]} is")):
            price(models["kou"], market, [OptionSpec(strike=k) for k in strikes], cfg)


# unsorted and duplicated half-unit lattice strikes in [60, 160], plus two
# extremes whose recentred ranges lie wholly below zero (K = 1e5, calls) or
# wholly above it (K = 1e-3, puts) for the narrower profiles
_BATCH_STRIKES = (127.5, 60.0, 100.0, 1e-3, 159.5, 100.0, 83.5, 1e5, 60.0, 112.0, 95.0)

_BATCH_CASES = [
    (name, variant, kind)
    for name in presets.PROFILE_NAMES
    for variant in Variant
    for kind in OptionKind
    if not (variant is Variant.PUT_CALL_PARITY and kind is OptionKind.PUT)
    and not (name == "cgmy2" and variant is Variant.DIRECT and kind is OptionKind.CALL)
]


def _preset_config(name: str, variant: Variant, kind: OptionKind = OptionKind.CALL) -> CosConfig:
    # cgmy2 has no direct preset; its undamped put borrows the parity geometry
    source = Variant.PUT_CALL_PARITY if (name, variant) == ("cgmy2", Variant.DIRECT) else variant
    config = presets.method_preset(name, source).cos_config(variant)
    # the preset damping is a call's; a damped put needs alpha <= 0
    if variant is Variant.STABLE and kind is OptionKind.PUT:
        config = replace(config, damping=0.0)
    return config


class TestMomentCheck:
    # E[S_T^1.5] explodes at T* ~ 3.08 and E[S_T^1.1] at T* ~ 8.66
    EXPLOSIVE = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)

    @pytest.mark.parametrize("maturity, alpha", [(5.0, 1.5), (20.0, 1.1)])
    def test_exploded_moment_rejected(self, maturity, alpha):
        # past T* phi(-i*alpha) is complex; the stable call used to return
        # 20.87 at T=5 (bound 22.12) and 54.66 at T=20 (bound 63.21).  The
        # strip at T refuses alpha before any moment is read
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        cfg = CosConfig(n_terms=4096, range_width=12.0, damping=alpha)
        with pytest.raises(ValidationError, match=rf"contour shift {alpha:g} lies outside the "
                                                  rf"admissible interval .* at T = {maturity:g}"):
            price(self.EXPLOSIVE, market, OptionSpec(strike=100.0), cfg)

    def test_underflowed_moment_is_named_as_one(self, models):
        # e^(-qT) = 9.9e-305 is representable, but E[(S_T/S_0)^1.1] is 0;
        # it used to be reported as an explosion, to be mended by a lower damping
        market = MarketSpec(spot=100.0, rate=0.0, dividend=0.7, maturity=1000.0)
        config = _preset_config("kou", Variant.STABLE)
        with pytest.raises(ValidationError, match=r"\^1.1\] underflows to 0; the drift"):
            price(models["kou"], market, OptionSpec(strike=100.0), config)

    def test_overflowed_moment_is_named_as_one(self, models):
        # E[(S_T/S_0)^1.1] is e^(1.3e6) at r = 0; it used to be reported as an
        # explosion, after NumPy's overflow warning from char_fn
        market = MarketSpec(spot=100.0, rate=0.0, maturity=1e8)
        config = _preset_config("kou", Variant.STABLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"\^1.1\] overflows; the drift"):
                price(models["kou"], market, OptionSpec(strike=100.0), config)

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_the_checked_moment_is_the_bands_first_value(self, models, market, monkeypatch,
                                                         name):
        # the moment checked is the value the series sums as its first
        # term, bit for bit, not a second copy of it: compared with the
        # band's own value, since a fresh char_fn at -i*alpha may differ
        # in the sign of a zero imaginary part
        bands, checked = [], []

        def spied_char_fn(*args):
            bands.append(char_fn(*args))
            return bands[-1]

        def spied_check_moment(order, value):
            checked.append((order, np.complex128(value).tobytes()))
            return check_moment(order, value)

        monkeypatch.setattr(cos_engine, "char_fn", spied_char_fn)
        monkeypatch.setattr(cos_engine, "check_moment", spied_check_moment)
        config = _preset_config(name, Variant.STABLE)
        price(models[name], market, OptionSpec(100.0), config)
        [band] = bands
        assert checked == [(config.damping, band[:1].tobytes())]

    def test_heston_reads_one_contour_and_one_band(self, models, market, monkeypatch):
        # a damped heston price reads the model twice: one _log_cf call for
        # the cumulant contour, the 33 nodes with Im(s) <= 0 of its circle
        # and no centre node, and one vector char_fn call for the band,
        # whose first point is the moment's -i*alpha
        log_cf_points, char_fn_calls = [], []
        log_cf = HestonParams._log_cf

        def spied_log_cf(model, mkt, u):
            log_cf_points.append(np.ravel(u).tolist())
            return log_cf(model, mkt, u)

        def spied_char_fn(model, mkt, u):
            char_fn_calls.append(np.ndim(u))
            return char_fn(model, mkt, u)

        monkeypatch.setattr(HestonParams, "_log_cf", spied_log_cf)
        monkeypatch.setattr(cos_engine, "char_fn", spied_char_fn)
        price(models["heston"], market, OptionSpec(100.0), CosConfig(160, 10.0, damping=1.1))
        assert char_fn_calls == [1]
        # the contour, then the band that char_fn reads
        contour, band = log_cf_points
        assert len(contour) == 33 and -1.1j not in contour and band[0] == -1.1j

    @pytest.mark.parametrize("name", ["kou", "cgmy1"])
    def test_closed_form_cumulants_read_no_contour(self, models, market, monkeypatch, name):
        # kou's and cgmy's tilted cumulants and moment are closed forms: a
        # damped price reads the model once, by one vector char_fn call for
        # its band, and no _log_cf call reads a contour
        model = models[name]
        log_cf_points, char_fn_calls = [], []
        log_cf = type(model)._log_cf

        def spied_log_cf(model, mkt, u):
            if np.ndim(u):  # kou's envelope reads single points
                log_cf_points.append(np.ravel(u).tolist())
            return log_cf(model, mkt, u)

        def spied_char_fn(model, mkt, u):
            char_fn_calls.append(np.ndim(u))
            return char_fn(model, mkt, u)

        monkeypatch.setattr(type(model), "_log_cf", spied_log_cf)
        monkeypatch.setattr(cos_engine, "char_fn", spied_char_fn)
        price(model, market, OptionSpec(100.0), CosConfig(160, 10.0, damping=1.1))
        assert char_fn_calls == [1]
        [band] = log_cf_points
        assert band[0] == -1.1j and band[1].imag == -1.1

    def test_undamped_series_unaffected(self):
        # alpha = 0 needs only E[1] = 1, so the put still prices
        market = MarketSpec(spot=100.0, rate=0.05, maturity=20.0)
        cfg = CosConfig(n_terms=4096, range_width=12.0)
        put = price(self.EXPLOSIVE, market, OptionSpec(strike=100.0, kind=OptionKind.PUT), cfg)
        assert 0.0 < put.price < 100.0


class TestUnrepresentableSeries:
    """Inputs whose series is not a double, refused with a typed error.

    At r = 0 a long maturity makes the damped moment E[(S_T/S_0)^alpha],
    the band's first value, overflow, though the cumulants stay finite;
    the moment check refuses it.  CGMY with Y = -170 is refused earlier,
    at its cumulants: Gamma(2 - Y) overflows, so c2 and c4 are inf.
    """

    @pytest.mark.parametrize(
        "model, maturity, error, match",
        [
            (presets.model_preset("kou"), 1e8, ValidationError, r"\] overflows; the drift"),
            (presets.model_preset("cgmy1"), 1e8, ValidationError, r"\] overflows; the drift"),
            (presets.model_preset("heston"), 1e10, ValidationError, r"\] overflows; the drift"),
            (presets.model_preset("cgmy2"), 1e6, ValidationError, r"\] overflows; the drift"),
            (CGMYParams(C=1.0, G=5.0, M=5.0, Y=-170.0), 1.0, ComputationError,
             r"^the cumulants of CGMYParams tilted by exp\(1.001\*X\) are not finite floats: "
             r"c1 = 8.26397e\+203, c2 = inf, c4 = inf$"),
        ],
        ids=["kou", "cgmy1", "heston", "cgmy2", "cgmy-y-170"],
    )
    def test_typed_error_without_warnings(self, model, maturity, error, match):
        # the error comes before the series, so one preset config serves
        # every model
        market = MarketSpec(spot=100.0, rate=0.0, maturity=maturity)
        config = _preset_config("cgmy1", Variant.STABLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                price(model, market, OptionSpec(strike=100.0), config)

    @pytest.mark.parametrize("width", [882.0, 884.0])
    def test_overflowing_coefficients_raise_without_warnings(self, width):
        # undamped kou calls at K = 1e5 have summands past 1e300 inside the
        # live band; the series used to warn "overflow encountered in
        # multiply" and "invalid value" before its ComputationError
        model, market = presets.model_preset("kou"), presets.market_preset(1.0)
        for n_terms in (256, 4096, 60000, 200000):
            config = CosConfig(n_terms=n_terms, range_width=width, variant=Variant.DIRECT)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ComputationError, match=(
                        f"at strike 100000.0 is not finite, or its summands could reach "
                        f"1e300 .*n_terms={n_terms},")):
                    price(model, market, OptionSpec(strike=1e5), config)


class TestDiscountFactor:
    @pytest.mark.parametrize(
        "rate, dividend, factor, how",
        [
            (-1.0, 0.0, r"discount factor exp\(1000\)", "overflows"),
            (0.1, -1.0, r"dividend factor exp\(1000\)", "overflows"),
            (0.8, 0.8, r"discount factor exp\(-800\)", "underflows to 0"),
        ],
        ids=["stable-overflow", "parity-forward-overflow", "stable-underflow"],
    )
    def test_refused_before_the_series(self, rate, dividend, factor, how):
        # the market itself is refused, so nothing is priced at all; exp(1000)
        # used to end in an OverflowError in price() and in both oracles
        with pytest.raises(ValidationError,
                           match=f"{factor} is not a positive finite float: it {how}"):
            MarketSpec(spot=100.0, rate=rate, dividend=dividend, maturity=1000.0)

    def test_edges_of_the_double_range_are_accepted(self):
        # exp(709) is finite and exp(-745) rounds to the smallest subnormal
        for rate in (-0.709, 0.745):
            market = MarketSpec(spot=100.0, rate=rate, dividend=rate, maturity=1000.0)
            assert 0.0 < math.exp(-market.rate * market.maturity) < math.inf


class TestEveryAcceptedMarket:
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(-2.0, 2.0),
        dividend=st.floats(-2.0, 2.0),
        log10_maturity=st.floats(-3.0, math.log10(2e3)),
    )
    @example(rate=-1.0, dividend=-1.0, log10_maturity=3.0)
    def test_prices_or_raises_a_pricing_error(self, rate, dividend, log10_maturity):
        # at the example the Fourier integral used to raise an untyped
        # OverflowError from its discount factor
        try:
            market = MarketSpec(spot=100.0, rate=rate, dividend=dividend,
                                maturity=10.0 ** log10_maturity)
        except ValidationError:
            return
        option = OptionSpec(strike=100.0)
        for name in ("kou", "heston", "cgmy1"):
            model = presets.model_preset(name)
            pricers = {
                variant.value: lambda v=variant: price(
                    model, market, option, _preset_config(name, v)).price
                for variant in (Variant.STABLE, Variant.PUT_CALL_PARITY)
            }
            pricers["fourier_integral"] = lambda: price_fourier_integral(
                model, market, 100.0, presets.integral_preset(name))
            pricers["carr_madan"] = lambda: price_carr_madan(
                model, market, [100.0], presets.carr_madan_preset(name))[0]
            for method, pricer in pricers.items():
                try:
                    value = pricer()
                except PricingError:
                    continue
                assert math.isfinite(value), (name, method, market, value)


def assert_call_within_bounds_or_refused(model, market, strike, config):
    """A stable call inside [max(S e^(-qT) - K e^(-rT), 0), S e^(-qT)], up
    to 1e-9, or a PricingError."""
    try:
        call = price(model, market, OptionSpec(strike=strike), config).price
    except PricingError:
        return
    upper = market.spot * math.exp(-market.dividend * market.maturity)
    lower = max(upper - strike * math.exp(-market.rate * market.maturity), 0.0)
    assert lower - 1e-9 <= call <= upper + 1e-9


def assert_put_within_bounds_or_refused(model, market, strike, config):
    """A put inside [max(K e^(-rT) - S e^(-qT), 0), K e^(-rT)], up to 1e-9,
    or a PricingError."""
    try:
        put = price(model, market, OptionSpec(strike, OptionKind.PUT), config).price
    except PricingError:
        return
    upper = strike * math.exp(-market.rate * market.maturity)
    lower = max(upper - market.spot * math.exp(-market.dividend * market.maturity), 0.0)
    assert lower - 1e-9 <= put <= upper + 1e-9


_PARITY = CosConfig(8192, 12.0, variant=Variant.PUT_CALL_PARITY)
_PARITY_WIDE = CosConfig(65536, 40.0, variant=Variant.PUT_CALL_PARITY)


def _parity_gap(model, market, strike, config, parity=_PARITY):
    """|stable call - put-call parity call| at one strike."""
    option = OptionSpec(strike=strike)
    return abs(price(model, market, option, config).price
               - price(model, market, option, parity).price)


# explosive Heston: the moment of order alpha explodes at a maturity T*(alpha)
_EXPLOSIVE_HESTON = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)


def _explosive_market(maturity):
    return MarketSpec(spot=100.0, rate=0.05, maturity=maturity)


class TestDampedLawRange:
    """The stable series expands e^(alpha*y) f(y), so its range is sized
    from the cumulants of the law tilted by alpha, K(alpha + s).  Sized
    from f's, each of these cells came back without an error and off
    parity: kou 33.77 for 23.93, cgmy2 100.63 > S0, Heston T=5 31.309 for
    30.9956, and the cgmy2 preset at T=5, K=100 107.861 > S0 and at T=20,
    K=80, alpha=1.0001 0.0 for 100."""

    @pytest.mark.parametrize(
        "model, market, strike, config, parity",
        [
            (presets.model_preset("kou"), presets.market_preset(), 100.0,
             CosConfig(8192, 12.0, damping=8.17), _PARITY),
            (presets.model_preset("cgmy1"), presets.market_preset(), 100.0,
             CosConfig(8192, 12.0, damping=4.17), _PARITY),
            (presets.model_preset("cgmy2"), presets.market_preset(), 100.0,
             CosConfig(8192, 12.0, damping=1.05), _PARITY),
            (_EXPLOSIVE_HESTON, _explosive_market(5.0), 100.0,
             CosConfig(8192, 12.0, damping=1.1), _PARITY),
            (_EXPLOSIVE_HESTON, _explosive_market(2.0), 100.0,
             CosConfig(8192, 12.0, damping=1.5), _PARITY),
            (presets.model_preset("cgmy2"), MarketSpec(spot=100.0, rate=0.1, maturity=5.0),
             100.0, _preset_config("cgmy2", Variant.STABLE), _PARITY_WIDE),
            (presets.model_preset("cgmy2"), MarketSpec(spot=100.0, rate=0.1, maturity=20.0),
             80.0, replace(_preset_config("cgmy2", Variant.STABLE), damping=1.0001),
             _PARITY_WIDE),
        ],
        ids=["kou-8.17", "cgmy1-4.17", "cgmy2-1.05", "heston-T5-1.1", "heston-T2-1.5",
             "cgmy2-preset-T5", "cgmy2-preset-T20"],
    )
    def test_stable_call_matches_parity(self, model, market, strike, config, parity):
        assert _parity_gap(model, market, strike, config, parity) < 1e-9

    @pytest.mark.parametrize("config, centre", [
        (CosConfig(160, 10.0, damping=8.17), 8.17),
        (CosConfig(160, 10.0, variant=Variant.PUT_CALL_PARITY), 0.0),
        (CosConfig(160, 10.0, variant=Variant.DIRECT), 0.0),
    ])
    def test_range_is_sized_from_the_expanded_law(self, models, market, config, centre):
        # at K = S0 the strike's range is the base range; the undamped
        # variants size it from f itself, as they always did
        result = price(models["kou"], market, OptionSpec(100.0), config)
        want = truncation_range(cumulants(models["kou"], market, centre), 10.0)
        assert (result.range.a, result.range.b) == (want.a, want.b)


_ITEM_2 = "ROADMAP item 2 (no silent wrong price)"
_ITEM_5 = "ROADMAP item 5 (an error budget: choose L from the damped law's tail mass)"


class TestKnownWrongStablePrices:
    """Stable calls that came back wrong, with no error.

    Sizing the range from the damped law mended the two cgmy2 cells
    outside the no-arbitrage bounds (107.861 > S0 at T=5, and 0.0 at
    T=20, K=80), and forming the u = 0 term without cancellation the
    calls at a damping just above 1.  The xfails stay off parity: preset
    market at T=1, N=4096, L=12; explosive Heston at r=0.05, N=8192, L=12.
    """

    @pytest.mark.parametrize("maturity, strike, damping", [(5.0, 100.0, None),
                                                           (20.0, 80.0, 1.0001)])
    def test_call_within_bounds_or_refused(self, models, maturity, strike, damping):
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        config = _preset_config("cgmy2", Variant.STABLE)
        if damping is not None:
            config = replace(config, damping=damping)
        assert_call_within_bounds_or_refused(models["cgmy2"], market, strike, config)

    @pytest.mark.parametrize(
        "model, market, config",
        [
            pytest.param(presets.model_preset("cgmy1"), presets.market_preset(),
                         CosConfig(4096, 12.0, damping=4.95), marks=pytest.mark.xfail(
                strict=True,
                reason="returns 49.83181 against parity 49.79091: at L=12 the range is "
                "too narrow for the law tilted by 4.95; " + _ITEM_5,
            ), id="cgmy1-4.95"),
            pytest.param(presets.model_preset("kou"), presets.market_preset(),
                         CosConfig(4096, 12.0, damping=9.95), marks=pytest.mark.xfail(
                strict=True,
                reason="returns 0.0 against parity 23.93354, below the lower bound 9.52; "
                + _ITEM_2,
            ), id="kou-9.95"),
            pytest.param(presets.model_preset("cgmy2"), presets.market_preset(),
                         CosConfig(4096, 12.0, damping=1.83), marks=pytest.mark.xfail(
                strict=True,
                reason="returns -8.1e14 against parity 99.99991; " + _ITEM_2,
            ), id="cgmy2-1.83"),
            pytest.param(_EXPLOSIVE_HESTON, _explosive_market(3.0),
                         CosConfig(8192, 12.0, damping=1.5), marks=pytest.mark.xfail(
                strict=True,
                reason="returns 22.66451 against parity 22.23472, inside the bounds, "
                "just before the explosion T*(1.5) ~ 3.08; " + _ITEM_5,
            ), id="heston-T3-1.5"),
            pytest.param(_EXPLOSIVE_HESTON, _explosive_market(1.0),
                         CosConfig(8192, 12.0, damping=3.0), marks=pytest.mark.xfail(
                strict=True,
                reason="returns 11.78147 against parity 11.65765 with a valid moment "
                "(T*(3) > 1): inside the bounds but 0.12 off, so no bound check "
                "refuses it; " + _ITEM_2,
            ), id="heston-T1-3"),
        ] + [
            # the u = 0 term (e^(vd) - e^(vc))/v lost eps*e^(vd)/|v| as
            # v = 1 - alpha -> 0: 5.50e-8 (heston), 2.83e-7 (kou) and 3.08e-7
            # (cgmy1) off parity at 1 + 1e-9, 1.3e-4 to 2.8e-4 at 1 + 1e-12
            pytest.param(presets.model_preset(name), presets.market_preset(),
                         CosConfig(4096, 12.0, damping=damping), id=f"{name}-{label}")
            for name in ("heston", "kou", "cgmy1")
            for damping, label in ((1 + 1e-9, "1+1e-9"), (1 + 1e-12, "1+1e-12"))
        ],
    )
    def test_call_matches_parity(self, model, market, config):
        assert _parity_gap(model, market, 100.0, config) < 1e-9


def _pin(reason):
    # the wrong value fails the assertion; any other error is a new fault
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


class TestKnownWrongPrices:
    """Prices that come back wrong, with no error, at the preset market
    re-dated to T: the silent-wrong families that the strike lattice
    found, one cell each.  A refusal passes."""

    @pytest.mark.parametrize("name, maturity, strike, kind, config", [
        pytest.param("cgmy1", 10.0, 100.0, OptionKind.CALL,
                     _preset_config("cgmy1", Variant.DIRECT), id="cgmy1-direct-T10",
                     marks=_pin("returns -56997.66; " + _ITEM_2)),
        pytest.param("kou", 1e-3, 157.5, OptionKind.PUT, CosConfig(140, 7.0),
                     id="kou-stable-put-T1e-3", marks=_pin(
                         "returns 57.48254, under the put lower bound 57.48425: the range "
                         "and the term count are both too small; " + _ITEM_5)),
        pytest.param("kou", 1e-3, 157.5, OptionKind.CALL,
                     _preset_config("kou", Variant.PUT_CALL_PARITY), id="kou-parity-T1e-3",
                     marks=_pin("returns a negative call, -2.03e-4; " + _ITEM_5)),
        pytest.param("cgmy2", 5.0, 100.0, OptionKind.CALL, CosConfig(4096, 12.0),
                     id="cgmy2-4096-T5",
                     marks=_pin("returns 100.03211, above S0*e^(-qT) = 100; " + _ITEM_2)),
        pytest.param("cgmy2", 20.0, 100.0, OptionKind.CALL, CosConfig(4096, 12.0),
                     id="cgmy2-4096-T20", marks=_pin("returns -2.29e6; " + _ITEM_2)),
        pytest.param("cgmy2", 1.0, 100.0, OptionKind.CALL,
                     CosConfig(256, 20.0, variant=Variant.DIRECT), id="cgmy2-direct-256-L20",
                     marks=_pin("returns 2.3616e49: the undamped call coefficients cancel; "
                                + _ITEM_2)),
        pytest.param("cgmy2", 1.0, 100.0, OptionKind.CALL,
                     CosConfig(256, 60.0, variant=Variant.DIRECT), id="cgmy2-direct-256-L60",
                     marks=_pin("returns -4.662e223: the undamped call coefficients cancel; "
                                + _ITEM_2)),
        pytest.param("cgmy2", 20.0, 100.0, OptionKind.CALL, CosConfig(256, 20.0),
                     id="cgmy2-256-L20-T20", marks=_pin("returns 6.711e21; " + _ITEM_2)),
        # N = 4096 at the preset L mends all three; L = 12 alone only the kou cell
        pytest.param("cgmy1", 1e-3, 61.5, OptionKind.CALL,
                     _preset_config("cgmy1", Variant.STABLE), id="cgmy1-stable-T1e-3",
                     marks=_pin("returns 38.5054724, under the lower bound 38.5061497; "
                                + _ITEM_5)),
        pytest.param("cgmy1", 1e-3, 60.0, OptionKind.CALL,
                     _preset_config("cgmy1", Variant.DIRECT), id="cgmy1-direct-T1e-3",
                     marks=_pin("returns 40.0057417, under the lower bound 40.0059997; "
                                + _ITEM_5)),
        pytest.param("kou", 1e-3, 160.0, OptionKind.CALL,
                     _preset_config("kou", Variant.STABLE), id="kou-stable-T1e-3",
                     marks=_pin("returns a negative call, -3.3994e-5; " + _ITEM_5)),
    ])
    def test_within_bounds_or_refused(self, models, name, maturity, strike, kind, config):
        check = (assert_call_within_bounds_or_refused if kind is OptionKind.CALL
                 else assert_put_within_bounds_or_refused)
        check(models[name], presets.market_preset(maturity), strike, config)

    @pytest.mark.parametrize("damping", [
        pytest.param(-20.0, id="heston-stable-put--20", marks=_pin(
            "returns 1640.17, above the put bound K*e^(-rT) = 90.48 (1.45e20 at -22); "
            + _ITEM_2)),
        pytest.param(-24.9, id="heston-stable-put--24.9", marks=_pin(
            "returns -0.0, inside the bounds, against 6.14585 undamped; " + _ITEM_2)),
    ])
    def test_heston_stable_put_inside_the_strip(self, models, damping):
        # the strip at T = 1 is (-25.317, 84.950), so no shift check refuses
        # either damping; the undamped put is what the parity series prices
        model, market = models["heston"], presets.market_preset(1.0)
        assert_put_within_bounds_or_refused(model, market, 100.0,
                                            CosConfig(4096, 12.0, damping=damping))
        put, undamped = (price(model, market, OptionSpec(100.0, kind=OptionKind.PUT),
                               CosConfig(4096, 12.0, damping=alpha)).price
                         for alpha in (damping, 0.0))
        assert abs(put - undamped) <= 1e-9 * max(1.0, undamped)

    @_pin("reproduce fig3's cgmy2 surface spreads 7.2306e65: from alpha = 1.04 up its "
          "calls leave the bounds, growing with alpha and L; " + _ITEM_2)
    def test_fig3_cgmy2_spread_within_spot(self):
        try:
            surface = harness.run_stability_surface("cgmy2", maturity=20.0, scale_terms=True)
        except PricingError:
            return
        assert surface.value_spread <= presets.market_preset(20.0).spot

    @_pin("returns 86.19858 against parity 87.78483, inside the bounds, so only "
          "the cancellation of the undamped call coefficients shows it; " + _ITEM_2)
    def test_cgmy1_direct_preset_matches_parity_at_t5(self, models):
        config = _preset_config("cgmy1", Variant.DIRECT)
        try:
            gap = _parity_gap(models["cgmy1"], presets.market_preset(5.0), 100.0, config)
        except PricingError:
            return
        assert gap < 1e-6


def _strike_range(column, i):
    """Strike i's truncation range: the column's base range shifted by x_i."""
    shift = float(column.shifts[i])
    return TruncationRange(a=column.range.a + shift, b=column.range.b + shift)


class TestStrikeBatch:
    @pytest.mark.parametrize(
        "name, variant, kind", _BATCH_CASES,
        ids=[f"{n}-{v.value}-{k.value}" for n, v, k in _BATCH_CASES],
    )
    def test_each_element_equals_its_batch_of_one(self, models, market, name, variant, kind):
        cfg = _preset_config(name, variant, kind)
        options = [OptionSpec(strike=k, kind=kind) for k in _BATCH_STRIKES]
        column = price(models[name], market, options, cfg)
        assert isinstance(column, PriceColumn) and column.prices.shape == (len(options),)
        for i, option in enumerate(options):
            single = price(models[name], market, option, cfg)
            # the price bit for bit, and the range
            assert column.prices[i].hex() == single.price.hex(), option.strike
            assert _strike_range(column, i) == single.range, option.strike
            assert (column.n_terms, column.damping) == (single.n_terms, single.damping)

    def test_extreme_strikes_have_empty_payoff_rows(self, models, market):
        cfg = _preset_config("heston", Variant.DIRECT)
        calls = price(models["heston"], market, [OptionSpec(1e5), OptionSpec(100.0)], cfg)
        puts = price(models["heston"], market,
                     [OptionSpec(1e-3, OptionKind.PUT), OptionSpec(100.0, OptionKind.PUT)], cfg)
        assert _strike_range(calls, 0).b <= 0.0 and calls.prices[0] == 0.0
        assert _strike_range(puts, 0).a >= 0.0 and puts.prices[0] == 0.0
        assert calls.prices[1] > 0.0 and puts.prices[1] > 0.0

    @pytest.mark.parametrize("kind, strikes", [
        (OptionKind.CALL, (1e5, 2e5)), (OptionKind.PUT, (1e-3, 2e-3)),
    ])
    def test_a_column_of_empty_payoff_rows_prices_zeros(self, models, market, kind, strikes):
        # every row's payoff interval is empty: no row reaches the series
        cfg = _preset_config("heston", Variant.DIRECT)
        counts = (1, 16, cfg.n_terms, 4096)
        for strike in strikes:
            curve = price_curve(models["heston"], market, OptionSpec(strike, kind), cfg, counts)
            assert [result.price for result in curve] == [0.0] * len(counts)

    def test_single_option_gives_a_result_and_a_sequence_a_tuple(self, models, market):
        # a sequence, a tuple or a list, gives one column
        cfg = _WIDE["heston"]
        option = OptionSpec(strike=100.0)
        single = price(models["heston"], market, option, cfg)
        assert isinstance(single, PriceResult)
        for batch in ((option,), [option]):
            column = price(models["heston"], market, batch, cfg)
            assert isinstance(column, PriceColumn)
            assert column.prices.tolist() == [single.price]
            assert (column.n_terms, column.damping) == (single.n_terms, single.damping)
            assert _strike_range(column, 0) == single.range

    def test_empty_batch_rejected(self, models, market):
        with pytest.raises(ValidationError, match="at least one option"):
            price(models["heston"], market, [], _WIDE["heston"])

    def test_mixed_kinds_rejected(self, models, market):
        options = [OptionSpec(strike=100.0), OptionSpec(strike=100.0, kind=OptionKind.PUT)]
        with pytest.raises(ValidationError, match="share one kind"):
            price(models["heston"], market, options, _WIDE["heston"])

    def test_parity_refuses_a_batch_of_puts(self, models, market):
        cfg = CosConfig(n_terms=128, range_width=8.0, variant=Variant.PUT_CALL_PARITY)
        options = [OptionSpec(strike=k, kind=OptionKind.PUT) for k in (90.0, 110.0)]
        with pytest.raises(ConfigurationError, match="request the put directly"):
            price(models["heston"], market, options, cfg)


class _Counting:
    """Stands in for a class and counts the instances built through it."""

    def __init__(self, cls):
        self.cls, self.built = cls, 0

    def __call__(self, *args, **kwargs):
        self.built += 1
        return self.cls(*args, **kwargs)


class TestPriceColumn:
    """A batch is priced as one column of arrays: no PriceResult and no
    TruncationRange is built per strike, on the engine's path or on the
    strike table's."""

    @pytest.fixture
    def built(self, monkeypatch):
        counters = {name: _Counting(getattr(cos_engine, name))
                    for name in ("PriceResult", "TruncationRange")}
        for name, counter in counters.items():
            monkeypatch.setattr(cos_engine, name, counter)
        return lambda: {name: counter.built for name, counter in counters.items()}

    def test_a_batch_builds_no_per_strike_object(self, built, models, market):
        cfg = _preset_config("kou", Variant.STABLE)
        options = [OptionSpec(k) for k in np.arange(60.0, 161.0, 2.5)]
        column = price(models["kou"], market, options, cfg)
        assert column.prices.shape == (41,) and np.isfinite(column.prices).all()
        assert built() == {"PriceResult": 0, "TruncationRange": 0}
        # the counters see what one option builds: its result and its range
        price(models["kou"], market, options[0], cfg)
        assert built() == {"PriceResult": 1, "TruncationRange": 1}

    def test_a_strike_table_column_builds_no_per_strike_object(self, built):
        table = harness.run_strike_table(models=("heston",), methods=("stable",))
        assert np.isfinite(table.values).all()
        assert built() == {"PriceResult": 0, "TruncationRange": 0}

    def test_prices_and_shifts_are_read_only(self, models, market):
        options = [OptionSpec(k) for k in (90.0, 100.0, 110.0)]
        column = price(models["heston"], market, options, _WIDE["heston"])
        for values in (column.prices, column.shifts):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            column.prices = np.zeros(3)


class TestSharedPhases:
    """cos_engine._distinct keeps one row of a phase offset that is the same
    float on every row of a column, which is why _column_sums forms only one
    phase row per strike: on a preset lattice column a call's width and a
    put's zero offset each collapse to one row."""

    # half-unit strike lattice in [60, 160]
    LATTICE = np.arange(60.0, 160.0 + 0.25, 0.5)

    def _preset_ranges(self, name, variant):
        """The recentred ranges [base.a + x, base.b + x] of the lattice
        strikes, as the engine forms them for the preset."""
        model, market = presets.model_preset(name), presets.market_preset()
        width = presets.method_preset(name, variant).range_width
        base = truncation_range(cumulants(model, market), width)
        x = np.array([math.log(market.spot / k) for k in self.LATTICE])
        return base.a + x, base.b + x

    @staticmethod
    def _kept_rows(offsets) -> int:
        """The rows _distinct keeps of offsets; a collapsed row must equal
        every row it stands for, bit for bit."""
        kept = cos_engine._distinct(offsets)
        np.testing.assert_array_equal(np.broadcast_to(kept, offsets.shape), offsets)
        return kept.size

    @staticmethod
    def _distinct_floats(offsets) -> int:
        return np.unique(np.asarray(offsets, dtype=float).view(np.int64)).size

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_call_rows_share_their_width(self, name):
        a, b = self._preset_ranges(name, Variant.STABLE)
        lo = np.maximum(a, 0.0)
        assert self._kept_rows(b - a) == 1
        assert self._kept_rows(lo - a) == a.size and self._distinct_floats(lo - a) > 1

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_put_rows_start_at_a(self, name):
        a, b = self._preset_ranges(name, Variant.PUT_CALL_PARITY)
        hi = np.minimum(b, 0.0)
        assert self._kept_rows(a - a) == 1
        assert self._kept_rows(hi - a) == a.size and self._distinct_floats(hi - a) > 1

    def test_column_of_two_widths(self):
        # cgmy2's parity column: its recentred ranges round to two widths
        a, b = self._preset_ranges("cgmy2", Variant.PUT_CALL_PARITY)
        assert self._distinct_floats(b - a) == 2
        assert self._kept_rows(b - a) == a.size


def _curve_outcome(model, market, option, config, n_values):
    """price_curve's results, prices as bit patterns, or its error's type
    and message."""
    try:
        results = price_curve(model, market, option, config, n_values)
    except PricingError as exc:
        return type(exc), str(exc)
    return [(r.price.hex(), replace(r, price=0.0)) for r in results]


def _per_count_outcome(model, market, option, config, n_values):
    """The same from one price() call per term count, in input order."""
    try:
        results = [price(model, market, option, replace(config, n_terms=n)) for n in n_values]
    except PricingError as exc:
        return type(exc), str(exc)
    return [(r.price.hex(), replace(r, price=0.0)) for r in results]


def _assert_curve_is_per_count(model, market, option, config, n_values):
    got = _curve_outcome(model, market, option, config, n_values)
    assert got == _per_count_outcome(model, market, option, config, n_values), (
        model, market.maturity, option, config, n_values)
    return got


class TestPriceCurve:
    """price_curve sums prefixes of one series; each price must be the bits
    price() gives at that term count alone, and each error the one the
    first failing count, in input order, raises."""

    # unsorted, duplicated, and from one term to past every live band
    GRID = (210, 8, 64, 8, 4096, 1, 140)

    @pytest.mark.parametrize("maturity", [1e-3, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_bit_identical_to_one_price_per_count(self, name, maturity):
        model, market = presets.model_preset(name), presets.market_preset(maturity)
        for variant, kind, width in itertools.product(Variant, OptionKind, (7.0, 12.0, 30.0)):
            config = CosConfig(n_terms=1, range_width=width, variant=variant)
            for strike in (60.0, 100.0, 160.0):
                _assert_curve_is_per_count(model, market, OptionSpec(strike, kind), config,
                                           self.GRID)

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_grids_up_to_60000_terms(self, name):
        model, market = presets.model_preset(name), presets.market_preset(1.0)
        grid = (60000, 16, 60000, 4096, 16, 1, 59999)
        for variant in Variant:
            config = CosConfig(n_terms=1, range_width=12.0, variant=variant)
            got = _assert_curve_is_per_count(model, market, OptionSpec(100.0), config, grid)
            assert [r.n_terms for _, r in got] == list(grid)

    def test_counts_straddling_the_rounding_cut(self):
        # heston parity's 60000-term reference stops at its rounding floor,
        # an index that does not depend on the term count: the counts
        # around it price as they do alone
        model, market = presets.model_preset("heston"), presets.market_preset(1.0)
        step = math.pi / truncation_range(cumulants(model, market), 12.0).width
        cut = live_band(char_fn, model, market, step, 0.0, 60000, cos_engine._MAX_TERMS).size
        assert 151 < cut < live_band(char_fn, model, market, step, 0.0, 60000).size
        config = CosConfig(n_terms=1, range_width=12.0, variant=Variant.PUT_CALL_PARITY)
        _assert_curve_is_per_count(model, market, OptionSpec(100.0), config,
                                   (150, cut - 1, cut, cut + 1, 60000))

    @pytest.mark.parametrize("width", range(870, 886))
    def test_overflowing_undamped_tails(self, width):
        # kou direct calls on ranges this wide have summands near 1e300, or
        # an e^b that overflows: every term count refuses the series, the
        # curve as price() does alone, down to the u = 0 term by itself
        model, market = presets.model_preset("kou"), presets.market_preset(1.0)
        config = CosConfig(n_terms=1, range_width=float(width), variant=Variant.DIRECT)
        for strike in (60.0, 100.0, 1e5):
            option = OptionSpec(strike)
            got = _assert_curve_is_per_count(model, market, option, config,
                                             (4096, 200000, 256, 60000, 1))
            assert got[0] is ComputationError
            for n in (1, 256, 4096, 60000, 200000):
                assert _curve_outcome(model, market, option, config, (n,))[0] is ComputationError

    def test_a_failing_count_is_named_in_input_order(self):
        # at L=876, K=60 every count fails; the error names the first
        model, market = presets.model_preset("kou"), presets.market_preset(1.0)
        config = CosConfig(n_terms=1, range_width=876.0, variant=Variant.DIRECT)
        option = OptionSpec(60.0)
        for grid in ((256, 60000, 4096), (4096, 256, 60000), (60000, 4096, 256)):
            with pytest.raises(ComputationError, match=f"n_terms={grid[0]},"):
                price_curve(model, market, option, config, grid)

    def test_exploded_moment_raises_as_price_does(self):
        explosive = TestMomentCheck.EXPLOSIVE
        for maturity, alpha in ((5.0, 1.5), (20.0, 1.1)):
            market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
            config = CosConfig(n_terms=1, range_width=12.0, damping=alpha)
            got = _assert_curve_is_per_count(explosive, market, OptionSpec(100.0), config,
                                             (64, 60000))
            assert got[0] is ValidationError

    def test_config_term_count_is_not_read(self, models, market):
        option = OptionSpec(100.0)
        curves = [price_curve(models["kou"], market, option, CosConfig(n, 7.0), (32, 140))
                  for n in (1, 140, 60000)]
        assert curves[0] == curves[1] == curves[2]
        assert [r.n_terms for r in curves[0]] == [32, 140]

    def test_takes_one_option(self, models, market):
        with pytest.raises(ValidationError, match="one OptionSpec"):
            price_curve(models["kou"], market, [OptionSpec(100.0)], CosConfig(8, 7.0), (8,))

    @pytest.mark.parametrize("n_values", [(), (16.5,), (True,), (0,), 16])
    def test_bad_term_counts_rejected(self, models, market, n_values):
        with pytest.raises(ValidationError, match="term counts"):
            price_curve(models["kou"], market, OptionSpec(100.0), CosConfig(8, 7.0), n_values)


def _curves_outcome(model, market, curves):
    """price_curves' results as (price bits, n_terms, damping, range) per
    price, one list per curve, or its error's type and message."""
    try:
        got = price_curves(model, market, curves)
    except PricingError as exc:
        return type(exc), str(exc)
    return [[(r.price.hex(), r.n_terms, r.damping, r.range) for r in curve] for curve in got]


def _each_alone_outcome(model, market, curves):
    """The same from one price_curve call per curve, in input order: the
    first refused curve's error where one is refused."""
    out = []
    for curve in curves:
        try:
            got = price_curve(model, market, *curve)
        except PricingError as exc:
            return type(exc), str(exc)
        out.append([(r.price.hex(), r.n_terms, r.damping, r.range) for r in got])
    return out


def _assert_curves_are_each_alone(model, market, curves):
    got = _curves_outcome(model, market, curves)
    assert got == _each_alone_outcome(model, market, curves), (model, market.maturity)
    return got


class TestPriceCurves:
    """price_curves reads one model and market once for all its curves;
    each curve must be the bits price_curve gives it alone, and a refusal
    the one the first refused curve, in input order, raises alone."""

    # (kind, variant) -> dampings: the default, and others inside every strip
    DAMPINGS = {(OptionKind.CALL, Variant.STABLE): (None, 1.5, 3.0),
                (OptionKind.PUT, Variant.STABLE): (None, -0.5, -2.0)}
    # (strike, term counts): unsorted, duplicated, from one term to 60000
    OPTIONS = ((60.0, (210, 8, 64, 8)), (100.0, (60000, 16)), (160.0, (1, 4096)))

    def mixed_curves(self, model, market):
        """Curves of every variant, kind, damping, width and strike that
        price_curve prices alone."""
        curves = []
        for variant, kind, width in itertools.product(Variant, OptionKind, (7.0, 12.0, 30.0)):
            if variant is Variant.PUT_CALL_PARITY and kind is OptionKind.PUT:
                continue
            for damping in self.DAMPINGS.get((kind, variant), (None,)):
                config = CosConfig(n_terms=1, range_width=width, damping=damping,
                                   variant=variant)
                curves += [(OptionSpec(strike, kind), config, grid)
                           for strike, grid in self.OPTIONS]
        priced = []
        for curve in curves:
            try:
                price_curve(model, market, *curve)
            except PricingError:
                continue
            priced.append(curve)
        return priced

    @pytest.mark.parametrize("maturity", [1e-3, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_mixed_curves_are_each_curve_alone(self, name, maturity):
        model, market = presets.model_preset(name), presets.market_preset(maturity)
        curves = self.mixed_curves(model, market)
        assert len(curves) > 60
        got = _assert_curves_are_each_alone(model, market, curves)
        assert len(got) == len(curves)
        # and in another order, each curve is still its own
        _assert_curves_are_each_alone(model, market, curves[::-1])

    @pytest.mark.parametrize("maturity", [1e-3, 1.0])
    @pytest.mark.parametrize("name", ["kou", "cgmy1"])
    def test_a_lattice_slice_in_one_call(self, name, maturity):
        # every strike of the audit lattice, through the three call series
        # at their presets, is one call
        model, market = presets.model_preset(name), presets.market_preset(maturity)
        curves = []
        for variant in Variant:
            config = presets.method_preset(name, variant).cos_config(variant)
            curves += [(OptionSpec(float(strike)), config, (16, config.n_terms))
                       for strike in np.arange(60.0, 160.0 + 0.25, 0.5)]
        got = _assert_curves_are_each_alone(model, market, curves)
        assert len(got) == 603

    def test_the_first_refused_curve_raises_its_own_error(self):
        # a damping outside the strip, an exploded moment and an overflowing
        # range, each among curves that price; every order raises the error
        # its first refused curve raises alone
        explosive = TestMomentCheck.EXPLOSIVE
        market = MarketSpec(spot=100.0, rate=0.05, maturity=5.0)
        good = [(OptionSpec(100.0), CosConfig(1, 12.0, damping=1.1), (64, 256)),
                (OptionSpec(90.0), CosConfig(1, 12.0, variant=Variant.PUT_CALL_PARITY), (64,))]
        refused = {
            "moment": (OptionSpec(100.0), CosConfig(1, 12.0, damping=1.5), (64,)),
            "range": (OptionSpec(60.0), CosConfig(1, 876.0, variant=Variant.DIRECT), (256,)),
        }
        kou, kou_market = presets.model_preset("kou"), presets.market_preset(1.0)
        kou_refused = {
            "strip": (OptionSpec(100.0), CosConfig(1, 12.0, damping=12.0), (64,)),
            "range": (OptionSpec(60.0), CosConfig(1, 876.0, variant=Variant.DIRECT), (256,)),
        }
        for model, mkt, bad in ((explosive, market, refused), (kou, kou_market, kou_refused)):
            for first, second in itertools.permutations(bad.values()):
                for curves in ([good[0], first, good[1], second], [first, second, *good],
                               [*good, second, first]):
                    got = _assert_curves_are_each_alone(model, mkt, curves)
                    assert got[0] in (ValidationError, ComputationError)
        with pytest.raises(ValidationError, match="contour shift 12 lies outside"):
            price_curves(kou, kou_market, [good[0], kou_refused["strip"]])

    def test_one_model_pass(self, models, market, monkeypatch):
        # one cumulants call for every distinct damping, which checks each
        # moment on its contour, and one vector char_fn call for every band
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name if name == "cumulants" or np.ndim(args[2]) else "moment"] += 1
                return fn(*args)
            monkeypatch.setattr(cos_engine, name, wrapper)

        counted("cumulants", cos_engine.cumulants)
        counted("char_fn", cos_engine.char_fn)
        curves = [(OptionSpec(strike), CosConfig(1, width, damping=damping), (16, 140))
                  for strike in (80.0, 120.0) for width in (7.0, 12.0) for damping in (1.1, 1.5)]
        curves.append((OptionSpec(100.0), CosConfig(1, 12.0, variant=Variant.DIRECT), (60000,)))
        price_curves(models["kou"], market, curves)
        assert calls == {"cumulants": 1, "char_fn": 1}

    def test_one_curve_is_price_curve(self, models, market):
        curve = (OptionSpec(95.0), CosConfig(1, 7.0), (16, 32, 140))
        assert price_curves(models["kou"], market, [curve]) == (
            price_curve(models["kou"], market, *curve),)

    @pytest.mark.parametrize("curves, match", [
        ((), "needs at least one curve"),
        (5, "curves must be a sequence"),
        ([(OptionSpec(100.0), CosConfig(8, 7.0))], "a curve must be"),
        ([(OptionSpec(100.0), CosConfig(8, 7.0), (8,)), OptionSpec(100.0)], "a curve must be"),
        ([(OptionSpec(100.0), CosConfig(8, 7.0), (8,)), ([OptionSpec(100.0)], CosConfig(8, 7.0),
                                                        (8,))], "one OptionSpec"),
    ])
    def test_malformed_curves_refused(self, models, market, curves, match):
        with pytest.raises(ValidationError, match=match):
            price_curves(models["kou"], market, curves)
