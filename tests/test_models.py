"""Characteristic functions, cumulants, and truncation ranges.

Spot values tagged as frozen were computed once with 50-digit
arbitrary-precision arithmetic from the closed-form log-CF of each
model and are hardcoded; the suite checks the double-precision
implementation against them.
"""

import cmath
import math

import numpy as np
import pytest

from cospricer.errors import DomainError, ValidationError
from cospricer.models import (
    CGMYParams,
    HestonParams,
    KouParams,
    MarketSpec,
    char_fn,
    cumulants,
    damping_bounds,
    truncation_range,
)

# frozen arbitrary-precision values of phi(1) at the benchmark market
PHI_AT_ONE = {
    "heston": 0.96196477576541472 + 0.062850263506391125j,
    "kou": 0.86235905454364295 - 0.012009554874893503j,
    "cgmy1": 0.34842661828261219 - 0.29031559781058606j,
    "cgmy2": -1.2830275923403373e-21 + 9.8646473703092713e-22j,
}

# frozen arbitrary-precision cumulants (c1, c2, c4) at the benchmark market
CUMULANTS_EXACT = {
    "heston": (0.064262405512594127, 0.073367991105320357, 0.00087385846889283144),
    "kou": (-0.035022222222222222, 0.3056, 0.12),
    "cgmy1": (-0.69467066037553843, 1.5853309190424044, 0.047559927571272132),
    "cgmy2": (-47.779350561927613, 95.752136239735672, 0.078133743171624308),
}

# the finite-difference c4 is the least accurate piece per model; the
# fat-tail set amplifies fourth-difference noise the most
C4_RTOL = {"heston": 5e-4, "kou": 5e-5, "cgmy1": 5e-4, "cgmy2": 5e-2}


class TestCharacteristicFunctionAxioms:
    def test_phi_at_zero_is_one(self, models, market):
        for model in models.values():
            assert char_fn(model, market, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_modulus_bounded_by_one_on_real_axis(self, models, market):
        rng = np.random.default_rng(7)
        u = rng.uniform(-200.0, 200.0, size=200)
        for model in models.values():
            vals = np.asarray([char_fn(model, market, float(x)) for x in u])
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_hermitian_symmetry(self, models, market):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.0, 150.0, size=100)
        for model in models.values():
            for x in u:
                left = char_fn(model, market, float(x))
                right = char_fn(model, market, -float(x))
                assert left == pytest.approx(right.conjugate(), abs=1e-14)

    def test_martingale_identity(self, models, market):
        # discounted-forward normalization: phi(-i) = exp((r - q) T)
        target = math.exp((market.rate - market.dividend) * market.maturity)
        for name, model in models.items():
            got = char_fn(model, market, -1j)
            assert got.imag == pytest.approx(0.0, abs=1e-10 * target)
            assert got.real == pytest.approx(target, rel=1e-10), name

    def test_frozen_spot_values(self, models, market):
        for name, model in models.items():
            got = char_fn(model, market, 1.0)
            want = PHI_AT_ONE[name]
            scale = max(abs(want), 1e-300)
            assert abs(got - want) / scale < 5e-13, name


class TestKouDegeneratesToBlackScholes:
    def test_cf_matches_lognormal_without_jumps(self, market):
        kou0 = KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=5.0, lam=0.0)
        t, sig = market.maturity, 0.16
        drift = market.rate - market.dividend - 0.5 * sig * sig
        for u in np.linspace(-100.0, 100.0, 81):
            want = cmath.exp(1j * u * drift * t - 0.5 * sig * sig * u * u * t)
            got = char_fn(kou0, market, float(u))
            assert abs(got - want) <= 1e-14

    def test_cumulants_without_jumps(self, market):
        kou0 = KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=5.0, lam=0.0)
        c = cumulants(kou0, market)
        assert c.c1 == pytest.approx(0.0872, rel=1e-8)
        assert c.c2 == pytest.approx(0.0256, rel=1e-8)
        assert c.c4 == pytest.approx(0.0, abs=1e-8)


class TestCumulants:
    def test_against_frozen_exact_values(self, models, market):
        for name, model in models.items():
            c = cumulants(model, market)
            e1, e2, e4 = CUMULANTS_EXACT[name]
            assert c.c1 == pytest.approx(e1, rel=1e-8), name
            assert c.c2 == pytest.approx(e2, rel=1e-8), name
            assert c.c4 == pytest.approx(e4, rel=C4_RTOL[name]), name

    def test_range_spread_accuracy(self, models, market):
        # the quantity the truncation range actually consumes
        for name, model in models.items():
            c = cumulants(model, market)
            e1, e2, e4 = CUMULANTS_EXACT[name]
            want = math.sqrt(e2 + math.sqrt(e4))
            got = math.sqrt(c.c2 + math.sqrt(c.c4))
            assert got == pytest.approx(want, rel=1e-4), name

    def test_c1_against_coarse_log_cf_difference(self, models, market):
        # independent first difference of Im log phi at h = 1e-4
        h = 1e-4
        for name, model in models.items():
            phi_p = char_fn(model, market, h)
            phi_m = char_fn(model, market, -h)
            approx = (cmath.log(phi_p) - cmath.log(phi_m)).imag / (2.0 * h)
            c = cumulants(model, market)
            scale = max(abs(approx), 1.0)
            assert abs(c.c1 - approx) / scale < 1e-6, name

    def test_c2_against_richardson_pair(self, models, market):
        # second difference of log phi at h and h/2, one Richardson step
        for name, model in models.items():
            def second_diff(h):
                lp = cmath.log(char_fn(model, market, h))
                lm = cmath.log(char_fn(model, market, -h))
                return -(lp - 2.0 * cmath.log(char_fn(model, market, 0.0)) + lm).real / (h * h)

            h = 1e-3 if name != "cgmy2" else 1e-4
            coarse, fine = second_diff(h), second_diff(h / 2.0)
            approx = (4.0 * fine - coarse) / 3.0
            c = cumulants(model, market)
            assert c.c2 == pytest.approx(approx, rel=1e-5), name

    def test_c2_and_c4_are_nonnegative(self, models, market):
        for model in models.values():
            c = cumulants(model, market)
            assert c.c2 >= 0.0
            assert c.c4 >= 0.0


class TestTruncationRange:
    def test_symmetric_about_first_cumulant(self, models, market):
        for model in models.values():
            c = cumulants(model, market)
            rng = truncation_range(c, 10.0)
            mid = 0.5 * (rng.a + rng.b)
            assert mid == pytest.approx(c.c1, abs=1e-12 * max(1.0, abs(c.c1)))

    def test_width_grows_linearly_with_multiplier(self, models, market):
        for model in models.values():
            c = cumulants(model, market)
            w6 = truncation_range(c, 6.0).width
            w12 = truncation_range(c, 12.0).width
            assert w12 == pytest.approx(2.0 * w6, rel=1e-12)

    def test_wider_multiplier_contains_narrower(self, models, market):
        for model in models.values():
            c = cumulants(model, market)
            inner = truncation_range(c, 6.0)
            outer = truncation_range(c, 8.0)
            assert outer.a < inner.a and inner.b < outer.b


class TestValidationAndStrips:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            HestonParams(kappa=0.85, theta=-0.09, sigma=0.1, rho=-0.7, v0=0.0625)
        with pytest.raises(ValidationError):
            KouParams(sigma=0.16, p=1.4, eta1=10.0, eta2=5.0, lam=5.0)
        with pytest.raises(ValidationError):
            # eta1 <= 1 breaks E[e^Y] for the upward jumps
            KouParams(sigma=0.16, p=0.4, eta1=0.9, eta2=5.0, lam=5.0)
        with pytest.raises(ValidationError):
            CGMYParams(C=1.0, G=5.0, M=5.0, Y=2.1)
        with pytest.raises(ValidationError):
            MarketSpec(spot=-1.0, rate=0.1, dividend=0.0, maturity=1.0)

    def test_kou_strip_enforced(self, market):
        kou = KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=5.0, lam=5.0)
        # Im(u) must stay inside (-eta1, eta2)
        assert np.isfinite(char_fn(kou, market, 1.0 + 4.9j).real)
        with pytest.raises(DomainError):
            char_fn(kou, market, 1.0 + 5.5j)
        with pytest.raises(DomainError):
            char_fn(kou, market, 1.0 - 10.5j)

    def test_cgmy_strip_enforced(self, market):
        cgmy = CGMYParams(C=1.0, G=5.0, M=5.0, Y=1.5)
        assert np.isfinite(char_fn(cgmy, market, 1.0 - 4.9j).real)
        with pytest.raises(DomainError):
            char_fn(cgmy, market, 1.0 - 5.1j)

    def test_damping_bounds_per_model(self, models):
        lo, hi = damping_bounds(models["kou"])
        assert (lo, hi) == (-5.0, 10.0)
        lo, hi = damping_bounds(models["cgmy1"])
        assert (lo, hi) == (-5.0, 5.0)
        lo, hi = damping_bounds(models["heston"])
        assert lo < 0.0 < hi
