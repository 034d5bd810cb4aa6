"""Characteristic functions, cumulants, and truncation ranges.

Spot values tagged as frozen were computed once with 50-digit
arbitrary-precision arithmetic from the closed-form log-CF of each
model and are hardcoded; the suite checks the double-precision
implementation against them.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from cospricer import models as models_module
from cospricer.errors import ComputationError, ValidationError
from cospricer.models import (
    CGMYParams,
    Cumulants,
    HestonParams,
    KouParams,
    MarketSpec,
    TruncationRange,
    _log_cf,
    char_fn,
    check_call_prices,
    check_moment,
    cumulants,
    damping_bounds,
    moment_is_valid,
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

# c4 is the least accurate cumulant: the contour's rounding, eps times
# max|log phi| on the circle over r^4, is largest against heston's small c4
C4_RTOL = {"heston": 1e-9, "kou": 1e-13, "cgmy1": 1e-12, "cgmy2": 1e-11}

MATURITIES = (1e-4, 1e-2, 1.0, 20.0)

# E[S_T^1.1] explodes at T* ~ 8.66 for this parameter set
EXPLOSIVE_HESTON = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)


def kou_cumulants(model, market, centre=0.0):
    """Closed-form c1, c2, c4 of Kou's log-return X under the law tilted by
    exp(centre * X): a Brownian motion with drift plus compound Poisson
    jumps, Exp(eta1) up with probability p and Exp(eta2) down otherwise.
    c_n is the n-th derivative of K(s) = log E[exp(s*X)] at the centre,
    whose jump part is lam*T times
    n! * (p * eta1 / (eta1 - s)^(n+1) + (1 - p) * (-1)^n * eta2 / (eta2 + s)^(n+1))."""
    t = market.maturity
    p, e1, e2 = model.p, model.eta1, model.eta2

    def jump_moment(n):
        return math.factorial(n) * (p * e1 / (e1 - centre) ** (n + 1)
                                    + (1.0 - p) * (-1) ** n * e2 / (e2 + centre) ** (n + 1))

    compensator = p * e1 / (e1 - 1.0) + (1.0 - p) * e2 / (e2 + 1.0) - 1.0
    mu = market.rate - market.dividend - 0.5 * model.sigma ** 2 - model.lam * compensator
    return (
        (mu + model.sigma ** 2 * centre + model.lam * jump_moment(1)) * t,
        (model.sigma ** 2 + model.lam * jump_moment(2)) * t,
        model.lam * jump_moment(4) * t,
    )


def cgmy_cumulants(model, market, centre=0.0):
    """Closed-form c1, c2, c4 of CGMY under the law tilted by
    exp(centre * X): the Levy measure gives c_n = C*T*Gamma(n - Y)*
    ((M - centre)^(Y - n) + (-1)^n * (G + centre)^(Y - n)), and c1 also
    takes the martingale drift mu*T."""
    t = market.maturity
    c, g, m, y = model.C, model.G, model.M, model.Y

    def levy(n):
        return c * t * math.gamma(n - y) * ((m - centre) ** (y - n)
                                            + (-1) ** n * (g + centre) ** (y - n))

    mu = market.rate - market.dividend - c * math.gamma(-y) * (
        (m - 1.0) ** y - m ** y + (g + 1.0) ** y - g ** y
    )
    return mu * t + levy(1), levy(2), levy(4)


def heston_c1(model, market):
    t, kappa = market.maturity, model.kappa
    return ((market.rate - market.dividend) * t
            + (1.0 - math.exp(-kappa * t)) * (model.theta - model.v0) / (2.0 * kappa)
            - 0.5 * model.theta * t)


def contour_cumulants(model, market, radius, nodes=64):
    """c1, c2, c4 from the trapezoid rule on the whole circle |s| = radius,
    by a complex FFT of log phi_T(-i*s)."""
    s = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    taylor = np.fft.fft(_log_cf(model, market, -1j * s))[:5].real / nodes / radius ** np.arange(5)
    return taylor[1], 2.0 * taylor[2], 24.0 * taylor[4]


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

    @pytest.mark.parametrize("maturity", MATURITIES)
    def test_kou_against_closed_forms(self, models, maturity):
        # the finite-difference c1 was 6.1% off at T = 1e-4
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        c = cumulants(models["kou"], market)
        want = kou_cumulants(models["kou"], market)
        assert (c.c1, c.c2, c.c4) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("y", [-0.5, 0.5, 1.5, 1.98])
    @pytest.mark.parametrize("maturity", MATURITIES)
    def test_cgmy_against_closed_forms(self, maturity, y):
        # with G != M the odd jump cumulants do not cancel; the
        # finite-difference c4 of cgmy2 was 3.0% off at T = 1
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        for g, m in ((5.0, 5.0), (4.0, 7.0), (9.0, 3.0)):
            model = CGMYParams(C=1.0, G=g, M=m, Y=y)
            c = cumulants(model, market)
            want = cgmy_cumulants(model, market)
            assert (c.c1, c.c2, c.c4) == pytest.approx(want, rel=1e-9, abs=0.0), (g, m)

    @pytest.mark.parametrize("share", [0.02, 0.3, 0.6, 0.98])
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 20.0])
    def test_tilted_law_against_closed_forms(self, models, maturity, share):
        # the damped series expands the law tilted by alpha: its cumulants
        # are the derivatives of K at the centre, read on a circle whose
        # radius is a quarter of the centre's distance to the strip's edge.
        # c4 carries the rounding of K over r^4: 2.5e-8 relative for Y = 1.98
        # at 2% of the strip from its edge
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        cases = [(models["kou"], kou_cumulants)] + [
            (CGMYParams(C=1.0, G=g, M=m, Y=y), cgmy_cumulants)
            for g, m in ((5.0, 5.0), (9.0, 3.0)) for y in (0.5, 1.5, 1.98)
        ]
        for model, closed_form in cases:
            lo, hi = damping_bounds(model)
            centre = lo + share * (hi - lo)
            c = cumulants(model, market, centre)
            want = closed_form(model, market, centre)
            assert (c.c1, c.c2) == pytest.approx(want[:2], rel=1e-12, abs=0.0), (model, centre)
            assert c.c4 == pytest.approx(want[2], rel=1e-7, abs=0.0), (model, centre)

    @pytest.mark.parametrize("maturity", MATURITIES + (5.0,))
    def test_heston_c1_against_closed_form(self, models, maturity):
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        for model in (models["heston"], EXPLOSIVE_HESTON):
            c = cumulants(model, market)
            want = heston_c1(model, market)
            assert abs(c.c1 - want) <= 1e-12 * max(abs(want), math.sqrt(c.c2))

    @pytest.mark.parametrize("maturity", [1.0, 5.0, 20.0])
    def test_explosive_heston_agrees_with_a_smaller_circle(self, maturity):
        # the radius halves from 0.5 while E[exp(+-2r*X)] is not a moment
        # (at s = 1 the log-CF is 0/0): to 0.25 at T = 1 and 5, and to
        # 0.125 at T = 20.  A circle half that size sees the same Taylor
        # coefficients
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        c = cumulants(EXPLOSIVE_HESTON, market)
        want = contour_cumulants(EXPLOSIVE_HESTON, market, 0.0625)
        assert (c.c1, c.c2, c.c4) == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("centre", [12.0, -6.0, 10.0])
    def test_refuses_a_centre_outside_the_strip(self, models, market, centre):
        # kou's strip is (-eta2, eta1) = (-5, 10): outside it K(centre)
        # is infinite, and the contour once returned c1 = 5.62 at 12
        with pytest.raises(ValidationError,
                           match=r"lies outside the admissible interval \(-5, 10\)"):
            cumulants(models["kou"], market, centre)

    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0, 20.0])
    def test_one_log_cf_call_and_no_char_fn_call(self, models, maturity, monkeypatch):
        calls = []
        log_cf = models_module._log_cf

        def spy(*args):
            calls.append(args)
            return log_cf(*args)

        monkeypatch.setattr(models_module, "_log_cf", spy)
        monkeypatch.setattr(models_module, "char_fn", None)
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        for name, model in models.items():
            calls.clear()
            cumulants(model, market)
            assert len(calls) == 1, name


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

    @pytest.mark.parametrize("make, error, match", [
        (lambda: MarketSpec(spot=100.0, rate=math.inf), ValidationError,
         "rate must be finite"),
        (lambda: MarketSpec(spot=100.0, rate=0.1, dividend=math.nan), ValidationError,
         "dividend must be finite"),
        (lambda: HestonParams(kappa=0.85, theta=0.09, sigma=0.1, rho=-1.5, v0=0.0625),
         ValidationError, r"rho must lie in \[-1, 1\], got -1.5"),
        (lambda: _log_cf(object(), MarketSpec(spot=100.0, rate=0.1), 0.0), ValidationError,
         "unsupported model type object"),
        (lambda: Cumulants(c1=math.nan, c2=0.1, c4=0.0), ValidationError,
         "cumulant c1 must be finite"),
        (lambda: Cumulants(c1=0.0, c2=0.1, c4=math.inf), ValidationError,
         "cumulant c4 must be finite"),
        (lambda: Cumulants(c1=0.0, c2=-0.1, c4=0.0), ValidationError,
         "c2 and c4 must be nonnegative"),
        (lambda: Cumulants(c1=0.0, c2=0.1, c4=-1e-3), ValidationError,
         "c2 and c4 must be nonnegative"),
        # E[S_T^1.5] explodes at T* ~ 3.08, so every circle around 1.5
        # reaches past it at T = 5
        (lambda: cumulants(EXPLOSIVE_HESTON, MarketSpec(spot=100.0, rate=0.05, maturity=5.0),
                           1.5),
         ComputationError, r"log E\[exp\(s\*X\)\] is not finite and real near s = 0 for "
         "HestonParams"),
        (lambda: TruncationRange(a=-math.inf, b=1.0), ValidationError,
         "range endpoints must be finite"),
        (lambda: TruncationRange(a=0.0, b=math.nan), ValidationError,
         "range endpoints must be finite"),
        (lambda: TruncationRange(a=1.0, b=1.0), ValidationError,
         r"range must satisfy a < b, got \[1.0, 1.0\]"),
        (lambda: truncation_range(Cumulants(c1=0.0, c2=0.1, c4=0.0), 0.0), ValidationError,
         "range_width must be positive, got 0.0"),
        (lambda: truncation_range(Cumulants(c1=0.0, c2=0.1, c4=0.0), -2.0), ValidationError,
         "range_width must be positive, got -2.0"),
    ], ids=["rate-inf", "dividend-nan", "rho", "log_cf-model", "c1-nan", "c4-inf", "c2<0",
            "c4<0", "cumulants-give-up", "range-a-inf", "range-b-nan", "range-a=b",
            "width-0", "width<0"])
    def test_refusals(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_market_keeps_its_discount_and_dividend_factors(self):
        market = MarketSpec(spot=100.0, rate=0.07, dividend=-0.03, maturity=2.5)
        moved = replace(market, rate=-0.2, maturity=40.0)
        for m in (market, moved):
            assert m.discount_factor == math.exp(-m.rate * m.maturity)
            assert m.dividend_factor == math.exp(-m.dividend * m.maturity)
        # derived, so neither an argument nor part of the repr or equality
        assert repr(market) == "MarketSpec(spot=100.0, rate=0.07, dividend=-0.03, maturity=2.5)"
        same = MarketSpec(100.0, 0.07, -0.03, 2.5)
        object.__setattr__(same, "discount_factor", 0.5)
        assert same == market and hash(same) == hash(market) and moved != market
        with pytest.raises(TypeError):
            MarketSpec(spot=100.0, rate=0.07, discount_factor=1.0)

    @pytest.mark.parametrize(
        "name, field",
        [("heston", f) for f in ("kappa", "theta", "sigma", "v0")]
        + [("kou", f) for f in ("sigma", "eta1", "eta2", "lam")]
        + [("cgmy1", f) for f in ("C", "G", "M")],
    )
    def test_infinite_parameter_refused(self, models, name, field):
        # +inf used to pass and fail only inside the pricers, after
        # NumPy RuntimeWarnings, with a message about phi or the moment
        with pytest.raises(ValidationError, match=f"{field} must .* finite, got inf"):
            replace(models[name], **{field: math.inf})

    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_cgmy_gamma_poles_refused(self, y):
        with pytest.raises(ValidationError, match="Y must not equal 0 or 1"):
            CGMYParams(C=1.0, G=5.0, M=5.0, Y=y)

    def test_cgmy_gamma_overflow_refused(self):
        # Gamma(172) overflows a double: math.gamma raises OverflowError
        with pytest.raises(ValidationError, match="Gamma"):
            CGMYParams(C=1.0, G=5.0, M=5.0, Y=-172.0)
        assert CGMYParams(C=1.0, G=5.0, M=5.0, Y=-170.0).Y == -170.0

    def test_kou_strip_enforced(self, market):
        kou = KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=5.0, lam=5.0)
        # Im(u) must stay inside (-eta1, eta2)
        assert np.isfinite(char_fn(kou, market, 1.0 + 4.9j).real)
        with pytest.raises(ValidationError, match="admissible interval"):
            char_fn(kou, market, 1.0 + 5.5j)
        with pytest.raises(ValidationError, match="admissible interval"):
            char_fn(kou, market, 1.0 - 10.5j)

    def test_cgmy_strip_enforced(self, market):
        cgmy = CGMYParams(C=1.0, G=5.0, M=5.0, Y=1.5)
        assert np.isfinite(char_fn(cgmy, market, 1.0 - 4.9j).real)
        with pytest.raises(ValidationError, match="admissible interval"):
            char_fn(cgmy, market, 1.0 - 5.1j)

    def test_damping_bounds_per_model(self, models):
        lo, hi = damping_bounds(models["kou"])
        assert (lo, hi) == (-5.0, 10.0)
        lo, hi = damping_bounds(models["cgmy1"])
        assert (lo, hi) == (-5.0, 5.0)
        # Heston's moment explosion depends on the maturity, which
        # check_moment decides, so no shift is refused up front
        assert damping_bounds(models["heston"]) == (-math.inf, math.inf)


class TestMomentPredicate:
    def test_accepts_real_moment_with_roundoff(self):
        # valid moments come back with ~1e-17 of imaginary noise
        assert moment_is_valid(1.4231 + 2.4e-17j)
        assert moment_is_valid(2.4e27)

    def test_rejects_complex_negative_or_non_finite(self):
        for value in (1.3 + 0.38j, 1.0 + 1e-9j, -0.5, 0.0, math.inf, math.nan,
                      complex(1.0, math.nan)):
            assert not moment_is_valid(value), value

    def test_check_moment_tells_an_underflow_from_an_explosion(self):
        with pytest.raises(ValidationError, match="underflows to 0"):
            check_moment(1.1, 0j)
        # +inf is an overflow too: lowering the damping does not mend it
        for value in (math.inf, complex(math.inf, 0.0)):
            with pytest.raises(ValidationError, match=r"\^1.1\] overflows; the drift"):
                check_moment(1.1, value)
        for value in (1.3 + 0.38j, -0.5, -math.inf, complex(1.0, math.inf)):
            with pytest.raises(ValidationError, match="the moment explodes"):
                check_moment(1.1, value)

    def test_flags_heston_moment_explosion(self):
        # E[S_T^1.1] explodes at T* ~ 8.66 for this parameter set
        model = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)
        before = MarketSpec(spot=100.0, rate=0.05, maturity=5.0)
        after = MarketSpec(spot=100.0, rate=0.05, maturity=20.0)
        assert moment_is_valid(char_fn(model, before, -1.1j))
        assert not moment_is_valid(char_fn(model, after, -1.1j))


class TestCallPriceBounds:
    # S0*e^(-qT) = 81.873; the lower bound S0*e^(-qT) - K*e^(-rT) is 27.58
    # at K = 60, 36.63 at K = 50, and 0 from K = 90.48 up
    MARKET = MarketSpec(spot=100.0, rate=0.1, dividend=0.2, maturity=1.0)
    UPPER = 100.0 * math.exp(-0.2)

    def refuse(self, strikes, prices, match):
        with pytest.raises(ComputationError, match=match):
            check_call_prices(self.MARKET, strikes, prices, "pricer at damping 0.5")

    def test_each_refusal_names_the_first_strike_at_fault(self):
        self.refuse([160.0, 100.0, 60.0], [10.0, math.nan, math.inf],
                    r"^pricer at damping 0.5 gave a non-finite price at strike 100$")
        self.refuse([160.0, 100.0, 60.0], [10.0, self.UPPER + 1.0, self.UPPER + 2.0],
                    r"gave 82.8731 at strike 100, above the spot bound S0\*e\^\(-qT\) = 81.8731$")
        self.refuse([160.0, 60.0, 50.0], [1.0, 0.0, 0.0],
                    r"gave 0 at strike 60, below the no-arbitrage lower bound 27.5828$")

    def test_non_finite_before_upper_before_lower(self):
        strikes = [60.0, 100.0, 160.0]
        self.refuse(strikes, [0.0, self.UPPER + 1.0, math.nan], "non-finite price at strike 160")
        self.refuse(strikes, [0.0, self.UPPER + 1.0, 1.0], "above the spot bound")
        self.refuse(strikes, [0.0, 1.0, 1.0], "below the no-arbitrage lower bound")

    @pytest.mark.parametrize("strike", [60.0, 160.0])
    def test_each_bound_allows_1e_9_of_the_spot(self, strike):
        near, far = 0.5e-9 * self.MARKET.spot, 2e-9 * self.MARKET.spot
        lower = max(self.UPPER - strike * math.exp(-0.1), 0.0)
        for bound, sign in ((self.UPPER, 1.0), (lower, -1.0)):
            check_call_prices(self.MARKET, [strike], [bound + sign * near], "pricer")
            self.refuse([strike], [bound + sign * far], "bound")
