"""Cosine-series engine: coefficient closed forms and pricing variants."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from cospricer import presets
from cospricer.cos_engine import (
    CosConfig,
    OptionKind,
    OptionSpec,
    Variant,
    call_coefficients,
    chi,
    price,
    price_curve,
    put_coefficients,
)
from cospricer.errors import ComputationError, ConfigurationError, PricingError, ValidationError
from cospricer.models import CGMYParams, HestonParams, MarketSpec, TruncationRange
from cospricer.transform_refs import price_fourier_integral

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
            tr = TruncationRange(a=a, b=b)
            got = call_coefficients(np.array([u]), alpha, tr, strike)[0]
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
            tr = TruncationRange(a=a, b=b)
            got = put_coefficients(np.array([u]), alpha, tr, strike)[0]
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
        tr = TruncationRange(a=-1.0, b=1.0)
        call0 = call_coefficients(np.array([0.0]), 0.0, tr, 100.0)[0]
        put0 = put_coefficients(np.array([0.0]), 0.0, tr, 100.0)[0]
        assert call0 == pytest.approx(100.0 * (math.e - 2.0), rel=1e-14)
        assert put0 == pytest.approx(100.0 / math.e, rel=1e-14)

    def test_call_vanishes_when_range_below_zero(self):
        tr = TruncationRange(a=-3.0, b=-0.5)
        vals = call_coefficients(np.linspace(0.0, 30.0, 7), 0.7, tr, 100.0)
        assert np.all(vals == 0.0)

    def test_put_vanishes_when_range_above_zero(self):
        tr = TruncationRange(a=0.5, b=3.0)
        vals = put_coefficients(np.linspace(0.0, 30.0, 7), 0.0, tr, 100.0)
        assert np.all(vals == 0.0)


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
        tr = TruncationRange(a=-2.0, b=1.5)
        u = np.arange(24) * math.pi / tr.width
        for strike in (80.0, 100.0, 120.0):
            undamped = call_coefficients(u, 0.0, tr, strike)
            shifted = call_coefficients(u, 1e-9, tr, strike)
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
        narrow = price(model, market, OptionSpec(strike=80.0), cfg).context
        wide = price(model, market, OptionSpec(strike=120.0), cfg).context
        shift = math.log(120.0 / 80.0)
        assert narrow.range.a - wide.range.a == pytest.approx(shift, rel=1e-12)
        assert narrow.range.b - wide.range.b == pytest.approx(shift, rel=1e-12)


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

    def test_damping_outside_strip_rejected(self, models, market):
        cfg = CosConfig(n_terms=128, range_width=8.0, damping=11.0)
        with pytest.raises(ConfigurationError, match="admissible interval"):
            price(models["kou"], market, OptionSpec(strike=100.0), cfg)

    def test_asymmetric_cgmy_call_beyond_up_jump_decay_rejected(self, market):
        # alpha = 4 exceeds the up-jump decay M = 3, so E[S^4] is infinite
        # and the damped series has no price to converge to
        model = CGMYParams(C=1.0, G=10.0, M=3.0, Y=0.5)
        cfg = CosConfig(n_terms=256, range_width=10.0, damping=4.0)
        with pytest.raises(ConfigurationError, match="admissible interval"):
            price(model, market, OptionSpec(strike=100.0), cfg)

    def test_kou_put_beyond_down_jump_decay_rejected(self, models, market):
        # alpha = -6 needs E[S^-6], which is infinite for the down-jump
        # rate eta2 = 5
        cfg = CosConfig(n_terms=140, range_width=7.0, damping=-6.0)
        with pytest.raises(ConfigurationError, match="admissible interval"):
            price(models["kou"], market, OptionSpec(strike=100.0, kind=OptionKind.PUT), cfg)

    def test_kou_call_below_up_jump_decay_accepted(self, models, market):
        # alpha = 6 < eta1 = 10 keeps E[S^6] finite, so the call is admissible
        # and matches the damped Fourier integral
        cfg = CosConfig(n_terms=140, range_width=7.0, damping=6.0)
        got = price(models["kou"], market, OptionSpec(strike=100.0), cfg).price
        want = price_fourier_integral(models["kou"], market, 100.0)
        assert got == pytest.approx(want, abs=1e-6)

    def test_config_field_validation(self):
        with pytest.raises(ValidationError):
            CosConfig(n_terms=0, range_width=8.0)
        with pytest.raises(ValidationError):
            CosConfig(n_terms=128, range_width=-1.0)
        with pytest.raises(ValidationError):
            OptionSpec(strike=-5.0)

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
        # 20.87 at T=5 (bound 22.12) and 54.66 at T=20 (bound 63.21)
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        cfg = CosConfig(n_terms=4096, range_width=12.0, damping=alpha)
        with pytest.raises(ValidationError, match="not real, positive and finite"):
            price(self.EXPLOSIVE, market, OptionSpec(strike=100.0), cfg)

    def test_undamped_series_unaffected(self):
        # alpha = 0 needs only E[1] = 1, so the put still prices
        market = MarketSpec(spot=100.0, rate=0.05, maturity=20.0)
        cfg = CosConfig(n_terms=4096, range_width=12.0)
        put = price(self.EXPLOSIVE, market, OptionSpec(strike=100.0, kind=OptionKind.PUT), cfg)
        assert 0.0 < put.price < 100.0


class TestStrikeBatch:
    @pytest.mark.parametrize(
        "name, variant, kind", _BATCH_CASES,
        ids=[f"{n}-{v.value}-{k.value}" for n, v, k in _BATCH_CASES],
    )
    def test_each_element_equals_its_batch_of_one(self, models, market, name, variant, kind):
        cfg = _preset_config(name, variant, kind)
        options = [OptionSpec(strike=k, kind=kind) for k in _BATCH_STRIKES]
        batch = price(models[name], market, options, cfg)
        assert isinstance(batch, tuple) and len(batch) == len(options)
        for option, result in zip(options, batch):
            # dataclass equality: the price bit for bit, and the context
            assert result == price(models[name], market, option, cfg), option.strike

    def test_extreme_strikes_have_empty_payoff_rows(self, models, market):
        cfg = _preset_config("heston", Variant.DIRECT)
        calls = price(models["heston"], market, [OptionSpec(1e5), OptionSpec(100.0)], cfg)
        puts = price(models["heston"], market,
                     [OptionSpec(1e-3, OptionKind.PUT), OptionSpec(100.0, OptionKind.PUT)], cfg)
        assert calls[0].context.range.b <= 0.0 and calls[0].price == 0.0
        assert puts[0].context.range.a >= 0.0 and puts[0].price == 0.0
        assert calls[1].price > 0.0 and puts[1].price > 0.0

    def test_single_option_gives_a_result_and_a_sequence_a_tuple(self, models, market):
        cfg = _WIDE["heston"]
        option = OptionSpec(strike=100.0)
        single = price(models["heston"], market, option, cfg)
        assert single == price(models["heston"], market, (option,), cfg)[0]
        assert price(models["heston"], market, [option], cfg) == (single,)

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


class TestBroadcastCoefficients:
    """Row-wise bounds and strikes give the scalar results bit for bit."""

    U = np.arange(48) * 0.41

    def _ranges(self):
        gen = np.random.default_rng(11)
        ranges = [
            TruncationRange(a=a, b=a + w)
            for a, w in zip(gen.uniform(-8.0, 2.0, 10), gen.uniform(0.5, 9.0, 10))
        ]
        # wholly below and wholly above zero: zero call and put rows
        return ranges + [TruncationRange(a=-3.0, b=-0.5), TruncationRange(a=0.5, b=3.0)]

    def test_chi_rows(self):
        gen = np.random.default_rng(12)
        a = gen.uniform(-5.0, 0.0, 9)
        c = a + gen.uniform(0.0, 2.0, 9)
        d = c + gen.uniform(0.0, 3.0, 9)
        for v in (0.0, -1.1, 0.5):
            rows = chi(self.U, v, c, d, a)
            assert rows.shape == (9, self.U.size)
            for k in range(9):
                np.testing.assert_array_equal(rows[k], chi(self.U, v, c[k], d[k], a[k]))

    @pytest.mark.parametrize("coefficients", [call_coefficients, put_coefficients])
    def test_payoff_rows(self, coefficients):
        ranges = self._ranges()
        strikes = np.linspace(40.0, 200.0, len(ranges))
        for alpha in (0.0, 1.1, -0.7):
            rows = coefficients(self.U, alpha, ranges, strikes)
            assert rows.shape == (len(ranges), self.U.size)
            for rng, strike, row in zip(ranges, strikes, rows):
                np.testing.assert_array_equal(row, coefficients(self.U, alpha, rng, strike))
        assert (rows == 0.0).all(axis=1).any()  # one range misses the payoff


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

    @pytest.mark.parametrize("width", range(870, 886))
    def test_overflowing_undamped_tails(self, width):
        # kou direct calls on ranges this wide overflow payoff coefficients
        # past the live band: some term counts keep the full grid and fail,
        # some cut it and price, so the first failing count varies
        model, market = presets.model_preset("kou"), presets.market_preset(1.0)
        config = CosConfig(n_terms=1, range_width=float(width), variant=Variant.DIRECT)
        for strike in (60.0, 100.0, 1e5):
            _assert_curve_is_per_count(model, market, OptionSpec(strike), config,
                                       (4096, 200000, 256, 60000))

    def test_a_failing_count_is_named_in_input_order(self):
        # at L=876, K=60 the 4096- and 60000-term series fail and 256 prices
        model, market = presets.model_preset("kou"), presets.market_preset(1.0)
        config = CosConfig(n_terms=1, range_width=876.0, variant=Variant.DIRECT)
        option = OptionSpec(60.0)
        for grid, first in (((256, 60000, 4096), 60000), ((256, 4096, 60000), 4096)):
            with pytest.raises(ComputationError, match=f"n_terms={first},"):
                price_curve(model, market, option, config, grid)
        assert price_curve(model, market, option, config, (256,))[0].n_terms == 256

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
