"""Cosine-series engine: coefficient closed forms and pricing variants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cospricer.cos_engine import (
    CosConfig,
    OptionKind,
    OptionSpec,
    Variant,
    call_coefficients,
    chi,
    price,
    put_coefficients,
)
from cospricer.errors import ComputationError, ConfigurationError, ValidationError
from cospricer.models import CGMYParams, TruncationRange
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
