"""Characteristic functions, cumulants, and truncation ranges.

Spot values tagged as frozen were computed once with 50-digit
arbitrary-precision arithmetic from the closed-form log-CF of each
model and are hardcoded; the suite checks the double-precision
implementation against them.
"""

import cmath
import math
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from cospricer import models as models_module
from cospricer.cos_engine import CosConfig, OptionKind, OptionSpec, Variant, price
from cospricer.errors import ComputationError, ValidationError
from cospricer.models import (
    CGMYParams,
    Cumulants,
    HestonParams,
    KouParams,
    MarketSpec,
    TruncationRange,
    _cexpm1,
    _real_log,
    char_fn,
    check_call_prices,
    check_damping,
    check_moment,
    cumulants,
    damping_bounds,
    live_band,
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
    taylor = np.fft.fft(model._log_cf(market, -1j * s))[:5].real / nodes / radius ** np.arange(5)
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
        # are the derivatives of K at the centre.  A contour circle a quarter
        # of the centre's distance to the strip's edge read c4 to 2.5e-8
        # relative for Y = 1.98 at 2% of the strip from its edge
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        cases = [(models["kou"], kou_cumulants)] + [
            (CGMYParams(C=1.0, G=g, M=m, Y=y), cgmy_cumulants)
            for g, m in ((5.0, 5.0), (9.0, 3.0)) for y in (0.5, 1.5, 1.98)
        ]
        for model, closed_form in cases:
            lo, hi = damping_bounds(model, market)
            centre = lo + share * (hi - lo)
            c = cumulants(model, market, centre)
            want = closed_form(model, market, centre)
            assert (c.c1, c.c2) == pytest.approx(want[:2], rel=1e-12, abs=0.0), (model, centre)
            assert c.c4 == pytest.approx(want[2], rel=1e-12, abs=0.0), (model, centre)

    @pytest.mark.parametrize("maturity", MATURITIES + (5.0,))
    def test_heston_c1_against_closed_form(self, models, maturity):
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        for model in (models["heston"], EXPLOSIVE_HESTON):
            c = cumulants(model, market)
            want = heston_c1(model, market)
            assert abs(c.c1 - want) <= 1e-12 * max(abs(want), math.sqrt(c.c2))

    @pytest.mark.parametrize("maturity", [1.0, 5.0, 20.0])
    def test_explosive_heston_agrees_with_a_smaller_circle(self, maturity):
        # the radius is 0.5 at T = 1, whose strip (-4.69, 3.07) holds [-1, 1],
        # and a quarter of the distance to the strip's nearer edge at T = 5
        # (-0.948) and T = 20 (-0.406).  A circle a quarter of the first
        # size sees the same Taylor coefficients
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

    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_a_tuple_of_centres_is_each_one_centre_call(self, models, maturity, monkeypatch):
        # one _log_cf call reads heston's circle of every centre, whether
        # its radius is 0.5 or sized from the strip's edge, as the explosive
        # heston's centres 0.4 and 1.1 are at T = 5 (0.1 and 0 are not).
        # Kou's and CGMY's closed forms read no _log_cf
        calls = []

        def spy(log_cf):
            def counted(*args):
                calls.append(args)
                return log_cf(*args)
            return counted

        for cls in (HestonParams, KouParams, CGMYParams):
            monkeypatch.setattr(cls, "_log_cf", spy(cls._log_cf))
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        cases = [(models["heston"], (0.0, 1.1, 2.5, 1.1)),
                 (models["kou"], (1.1, 0.0, -2.0, 1.1, 9.5)),
                 (models["cgmy1"], (1.1, 0.0, -0.9, 4.9)),
                 (models["cgmy2"], (0.0, 1.1)),
                 (EXPLOSIVE_HESTON, (0.1, 0.4, 0.0, 1.1))]
        for model, centres in cases:
            calls.clear()
            got = cumulants(model, market, centres)
            batch_calls = len(calls)
            calls.clear()
            want = [cumulants(model, market, centre) for centre in centres]
            assert [(c.c1.hex(), c.c2.hex(), c.c4.hex()) for c in got] == [
                (c.c1.hex(), c.c2.hex(), c.c4.hex()) for c in want], (model, centres)
            if isinstance(model, HestonParams):
                assert (batch_calls, len(calls)) == (1, len(centres)), (model, centres)
            else:
                assert batch_calls == len(calls) == 0, (model, centres)

    def test_a_tuple_of_centres_refuses_as_its_first_refused_centre(self, models):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=5.0)
        with pytest.raises(ValidationError, match=r"contour shift 12 lies outside"):
            cumulants(models["kou"], market, (1.1, 12.0, -6.0))
        with pytest.raises(ValidationError, match=r"contour shift 1.3 lies outside the "
                                                  r"admissible interval \(-0.948285, 1.24523\)"):
            cumulants(EXPLOSIVE_HESTON, market, (0.1, 1.3, 0.5))

    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0, 20.0])
    def test_one_log_cf_call_and_no_char_fn_call(self, models, maturity, monkeypatch):
        # heston's contour is one _log_cf call; kou's and cgmy's closed
        # forms make none
        calls = []

        def spy(log_cf):
            def counted(*args):
                calls.append(args)
                return log_cf(*args)
            return counted

        for cls in (HestonParams, KouParams, CGMYParams):
            monkeypatch.setattr(cls, "_log_cf", spy(cls._log_cf))
        monkeypatch.setattr(models_module, "char_fn", None)
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        for name, model in models.items():
            calls.clear()
            cumulants(model, market, (0.0, 1.1))
            assert len(calls) == (name == "heston"), name


def _log_moment_40_digits(model, market, s):
    """K(s) = log phi_T(-i*s) = log E[exp(s*X)] of kou or cgmy, from the
    same double inputs in mpmath's working precision."""
    t, r, q = map(mpmath.mpf, (market.maturity, market.rate, market.dividend))
    if isinstance(model, KouParams):
        sigma, p, e1, e2, lam = map(mpmath.mpf, (model.sigma, model.p, model.eta1, model.eta2,
                                                  model.lam))

        def jumps(z):
            return p * e1 / (e1 - z) + (1 - p) * e2 / (e2 + z) - 1

        mu = r - q - sigma ** 2 / 2 - lam * jumps(1)
        return (mu * s + sigma ** 2 * s ** 2 / 2) * t + lam * t * jumps(s)
    c, g, m, y = map(mpmath.mpf, (model.C, model.G, model.M, model.Y))

    def psi(z):
        return (m - z) ** y - m ** y + (g + z) ** y - g ** y

    mu = r - q - c * mpmath.gamma(-y) * psi(1)
    return mu * s * t + c * t * mpmath.gamma(-y) * psi(s)


class TestClosedFormCumulants:
    """Kou's and CGMY's tilted cumulants, read from closed forms, against
    40-digit derivatives of K(s) = log phi_T(-i*s)."""

    @pytest.mark.parametrize("share", [0.02, 0.3, 0.6, 0.98])
    @pytest.mark.parametrize("maturity", [1e-3, 1.0, 20.0])
    def test_against_40_digit_derivatives(self, models, maturity, share):
        # the contour read c4 to 1.5e-8 relative for Y = 1.98 near the
        # strip's edge; the closed forms hold c1, c2 and c4 to ~1e-15
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        cases = [models["kou"]] + [CGMYParams(C=1.0, G=g, M=m, Y=y)
                                   for g, m in ((5.0, 5.0), (9.0, 3.0))
                                   for y in (-0.5, 0.5, 1.5, 1.98)]
        with mpmath.workdps(40):
            for model in cases:
                lo, hi = damping_bounds(model, market)
                centre = lo + share * (hi - lo)
                got = cumulants(model, market, centre)

                def log_moment(s):
                    return _log_moment_40_digits(model, market, s)

                want = [float(mpmath.diff(log_moment, centre, n)) for n in (1, 2, 4)]
                assert [got.c1, got.c2, got.c4] == pytest.approx(want, rel=1e-13, abs=0.0), (
                    model, centre)

    @pytest.mark.parametrize("model, centre, error, match", [
        # 1/(eta2 + centre) is 7e85, whose fifth power, in c4, overflows
        (KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=1e-70, lam=1e-20),
         math.nextafter(-1e-70, 0.0), ComputationError, r"c4 = inf"),
        # (G + centre)^(Y - 4) overflows: G + centre is 1.4e-116
        (CGMYParams(C=1.0, G=1e-100, M=5.0, Y=0.5), math.nextafter(-1e-100, 0.0),
         ComputationError, r"c4 = inf"),
        # with Y = -20 the power ** (Y - 1) raises OverflowError, so both
        # sides are inf and c1 is inf - inf
        (CGMYParams(C=1.0, G=1e-15, M=5.0, Y=-20.0), math.nextafter(-1e-15, 0.0),
         ComputationError, r"^the cumulants of CGMYParams tilted by exp\(-1e-15\*X\) are not "
         r"finite floats: c1 = nan, c2 = inf, c4 = inf$"),
        # Gamma(2 - Y) = Gamma(172) overflows, so c2 and c4 are inf
        (CGMYParams(C=1.0, G=5.0, M=5.0, Y=-170.0), -1.1, ComputationError,
         r"^the cumulants of CGMYParams tilted by exp\(-1.1\*X\) are not finite floats: "
         r"c1 = -6.14991e\+205, c2 = inf, c4 = inf$"),
    ], ids=["kou", "cgmy", "cgmy-raising", "cgmy-y-170"])
    def test_a_power_past_the_largest_float_is_a_typed_error(self, model, centre, error, match):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=1.0)
        config = CosConfig(n_terms=64, range_width=10.0, damping=centre)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                cumulants(model, market, centre)
            with pytest.raises(error, match=match):
                price(model, market, OptionSpec(100.0, kind=OptionKind.PUT), config)


def heston_log_cf_mp(model, market, u):
    """Heston's log phi_T(u) by the closed form of HestonParams._log_cf,
    evaluated from the same double inputs in mpmath's working precision."""
    kappa, theta, sigma, rho, v0, t, r, q = map(mpmath.mpf, (
        model.kappa, model.theta, model.sigma, model.rho, model.v0,
        market.maturity, market.rate, market.dividend))
    u = mpmath.mpc(u.real, u.imag)
    zeta = -(1j * u + u * u) / 2
    gam = kappa - 1j * rho * sigma * u
    xi = mpmath.sqrt(gam * gam - 2 * sigma ** 2 * zeta)
    decay = 1 - mpmath.exp(-xi * t)
    denom = 2 * xi - (xi - gam) * decay
    return (1j * u * (r - q) * t + 2 * zeta * decay * v0 / denom
            - kappa * theta / sigma ** 2 * (2 * mpmath.log(denom / (2 * xi)) + (xi - gam) * t))


def heston_log_cf_40_digits(model, market, u):
    """:func:`heston_log_cf_mp` in 40-digit arithmetic, rounded to a complex."""
    with mpmath.workdps(40):
        return complex(heston_log_cf_mp(model, market, u))


class TestHestonRemovableZero:
    """Where kappa = rho*sigma, Heston's log-CF is a 0/0 at u = -i, whose
    limit is the drift term alone: E[S_T/S_0] = e^((r - q)T)."""

    MARKET = MarketSpec(spot=100.0, rate=0.05, maturity=1.0)

    def test_char_fn_at_minus_i_is_the_forward_factor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert char_fn(EXPLOSIVE_HESTON, self.MARKET, -1j) == complex(math.exp(0.05))
            [value] = char_fn(EXPLOSIVE_HESTON, self.MARKET, np.array([-1j]))
        assert value == complex(math.exp(0.05))

    def test_cumulants_about_the_node_against_40_digit_derivatives(self):
        # the circle of radius 0.5 about 0.5 passes through s = 1, u = -i;
        # its cumulants used to be a ComputationError ("c1 = nan")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cumulants(EXPLOSIVE_HESTON, self.MARKET, 0.5)

        def log_moment(s):
            return heston_log_cf_mp(EXPLOSIVE_HESTON, self.MARKET, mpmath.mpc(0, -s)).real

        with mpmath.workdps(40):
            want = [float(mpmath.diff(log_moment, 0.5, n)) for n in (1, 2, 4)]
        assert [got.c1, got.c2, got.c4] == pytest.approx(want, rel=1e-13, abs=0.0)


class TestHestonLogInRealArithmetic:
    """Heston's log-CF takes its complex log as log|z| + i*arg(z) from real
    ufuncs (models._real_log); it keeps the closed form's accuracy on
    every contour the pricers read."""

    @staticmethod
    def contours(model, market):
        def cos_band(alpha):
            # the preset's L = 7, N = 110 series on the law tilted by alpha
            width = truncation_range(cumulants(model, market, alpha), 7.0).width
            return np.arange(110) * (math.pi / width) - 1j * alpha

        # every fifth point of the Carr-Madan band at shift 1.75
        band = live_band(char_fn, model, market, 0.05, 1.75, 2 ** 16, 2 ** 16).size
        carr_madan = np.arange(0, band, 5) * 0.05 - 1.75j
        # the Fourier integral's 32-point nodes at alpha = 1.1 up to u = 200
        x, _ = np.polynomial.legendre.leggauss(32)
        edges = np.append(0.0, 0.1 * 2.0 ** np.arange(12))
        nodes = (0.5 * (edges[1:] + edges[:-1])[:, None] + 0.5 * np.diff(edges)[:, None] * x)
        nodes = nodes.ravel()
        fourier = -nodes[nodes <= 200.0] - 1.1j
        # the cumulant circles |s| = 0.5 about the centres 0 and 1.1
        circle = np.concatenate([-1j * (centre + 0.5 * np.exp(1j * np.linspace(-math.pi, 0.0, 33)))
                                 for centre in (0.0, 1.1)])
        return {"cos alpha=0": cos_band(0.0), "cos alpha=1.1": cos_band(1.1),
                "carr-madan": carr_madan, "fourier integral": fourier, "cumulant circle": circle}

    def test_log_cf_against_40_digits(self, models, market):
        model = models["heston"]
        for name, u in self.contours(model, market).items():
            want = np.array([heston_log_cf_40_digits(model, market, z) for z in u])
            worst = np.abs(model._log_cf(market, u) - want).max()
            assert worst <= 1e-13, name

    def test_real_log_matches_numpy(self):
        # moduli over [1e-3, 1e3] and densely over [0.5, 1), where glibc's
        # clog takes its extra-precision path
        modulus = np.concatenate((np.geomspace(1e-3, 1e3, 301), np.linspace(0.5, 1.0, 200)))
        angle = np.linspace(-math.pi, math.pi, 181)
        z = np.multiply.outer(modulus, np.exp(1j * angle)).ravel()
        want = np.log(z)
        ulp = np.spacing(np.maximum(1.0, np.abs(want)))
        assert np.all(np.abs(_real_log(z) - want) <= 4.0 * ulp)

    def test_real_log_on_the_negative_real_axis(self):
        # the signed zero picks the side of the cut: arg is +pi or -pi
        # exactly, as np.log gives it.  The moduli agree to the grid's
        # 4 ulp, not bit for bit: at |z| = 0.7 np.log's real part can be
        # one ulp from the correctly rounded log(0.7)
        z = np.array([complex(-x, sign * 0.0) for x in (1e-3, 0.7, 1.0, 2.5, 1e3)
                      for sign in (1.0, -1.0)])
        got, want = _real_log(z), np.log(z)
        assert got.imag.tobytes() == want.imag.tobytes()
        assert got.imag.tolist() == [math.pi, -math.pi] * 5
        assert np.all(np.abs(got.real - want.real) <= 4.0 * np.spacing(np.maximum(1.0, np.abs(want))))


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


def per_call_log_cf(model, market, u):
    """Kou's and CGMY's log phi_T with every market-free constant computed
    on the call, as the classes did before they stored them."""
    t = market.maturity
    if isinstance(model, KouParams):
        p, e1, e2 = model.p, model.eta1, model.eta2
        jump_drift = p * e1 / (e1 - 1.0) + (1.0 - p) * e2 / (e2 + 1.0) - 1.0
        mu = market.rate - market.dividend - 0.5 * model.sigma ** 2 - model.lam * jump_drift
        jump_cf = p * e1 / (e1 - 1j * u) + (1.0 - p) * e2 / (e2 + 1j * u) - 1.0
        return 1j * u * mu * t - 0.5 * model.sigma ** 2 * u * u * t + model.lam * t * jump_cf
    c, g, m, y = model.C, model.G, model.M, model.Y
    bracket = m ** y * math.expm1(y * math.log1p(-1.0 / m)) + g ** y * math.expm1(
        y * math.log1p(1.0 / g))
    drift = market.rate - market.dividend - c * math.gamma(-y) * bracket
    psi = m ** y * _cexpm1(y * np.log(1.0 - 1j * u / m)) + g ** y * _cexpm1(
        y * np.log(1.0 + 1j * u / g))
    return 1j * u * drift * t + c * t * math.gamma(-y) * psi


class TestStoredConstants:
    """Kou's jump drift and CGMY's Gamma(-Y), M^Y, G^Y and martingale
    bracket are computed once, at construction, as MarketSpec's discount
    factors are: not arguments, and not read by ==, hash or repr."""

    JUMP_MODELS = ("kou", "cgmy1", "cgmy2")

    @pytest.mark.parametrize("name, text", [
        ("kou", "KouParams(sigma=0.16, p=0.4, eta1=10.0, eta2=5.0, lam=5.0)"),
        ("cgmy1", "CGMYParams(C=1.0, G=5.0, M=5.0, Y=1.5)"),
    ])
    def test_eq_hash_and_repr_read_the_parameters_alone(self, models, name, text):
        model = models[name]
        params = tuple(getattr(model, f.name) for f in fields(model) if f.init)
        assert repr(model) == text
        assert hash(model) == hash(params)
        assert type(model)(*params) == model
        assert [f.name for f in fields(model) if f.compare or f.repr] == [
            f.name for f in fields(model) if f.init]

    def test_replace_recomputes_them(self, models):
        assert replace(models["cgmy1"], Y=1.98)._gamma == models["cgmy2"]._gamma
        assert replace(models["kou"], p=0.5)._jump_drift == KouParams(
            sigma=0.16, p=0.5, eta1=10.0, eta2=5.0, lam=5.0)._jump_drift

    @pytest.mark.parametrize("name", JUMP_MODELS)
    @pytest.mark.parametrize("maturity", [1e-3, 1.0, 20.0])
    def test_log_cf_is_bit_for_bit_the_per_call_form(self, models, name, maturity):
        model, market = models[name], MarketSpec(100.0, 0.07, 0.02, maturity)
        lo, hi = damping_bounds(model, market)
        for alpha in (0.0, 0.5 * lo, 0.5 * hi, 0.99 * hi):
            u = np.linspace(0.0, 300.0, 257) - 1j * alpha
            assert model._log_cf(market, u).tobytes() == per_call_log_cf(
                model, market, u).tobytes()

    @pytest.mark.parametrize("y", [1.5, 1.98, 0.5, -0.9])
    def test_cgmy_envelope_is_the_per_call_log_modulus(self, market, y):
        # G != M, so a swapped power would show
        model = CGMYParams(C=1.0, G=5.0, M=7.0, Y=y)
        for alpha in (-4.0, 0.0, 1.1, 6.9):
            for u in (0.0, 0.3, 10.0, 1e4):
                per_call = per_call_log_cf(model, market, complex(u, -alpha)).real
                assert model._log_envelope(market, alpha, u) == pytest.approx(
                    per_call, rel=1e-12, abs=1e-12)


# a market of another class with every input field, but no discount factors
DUCK_MARKET = SimpleNamespace(spot=100.0, rate=0.1, dividend=0.0, maturity=1.0)


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
        (lambda: char_fn(object(), MarketSpec(spot=100.0, rate=0.1), 0.0), ValidationError,
         "unsupported model type object"),
        # an empty contour has no shift to check, but its model still is
        (lambda: char_fn(object(), MarketSpec(spot=100.0, rate=0.1), np.array([])),
         ValidationError, "unsupported model type object"),
        (lambda: damping_bounds(object(), MarketSpec(spot=100.0, rate=0.1)), ValidationError,
         "unsupported model type object"),
        (lambda: check_damping(object(), MarketSpec(spot=100.0, rate=0.1), 0.5), ValidationError,
         "unsupported model type object"),
        # the parity series reads the cumulants first; their radius was
        # once inf for a non-model, and 0 * inf raised NumPy's warning
        (lambda: price(object(), MarketSpec(spot=100.0, rate=0.1), OptionSpec(100.0),
                       CosConfig(64, 10.0, variant=Variant.PUT_CALL_PARITY)),
         ValidationError, "unsupported model type object"),
        # the model is checked before the options, so it is refused first
        (lambda: price(object(), MarketSpec(spot=100.0, rate=0.1), [100.0], CosConfig(64, 10.0)),
         ValidationError, "unsupported model type object"),
        # a market of another class, even one with a spot, rate and maturity,
        # once escaped as an AttributeError from every reader
        (lambda: char_fn(KouParams(0.16, 0.4, 10.0, 5.0, 5.0), "mkt", 0.0), ValidationError,
         "market must be a MarketSpec, got str"),
        (lambda: cumulants(KouParams(0.16, 0.4, 10.0, 5.0, 5.0), None, 1.1), ValidationError,
         "market must be a MarketSpec, got NoneType"),
        (lambda: damping_bounds(KouParams(0.16, 0.4, 10.0, 5.0, 5.0), DUCK_MARKET),
         ValidationError, "market must be a MarketSpec, got SimpleNamespace"),
        (lambda: check_damping(KouParams(0.16, 0.4, 10.0, 5.0, 5.0), DUCK_MARKET),
         ValidationError, "market must be a MarketSpec, got SimpleNamespace"),
        (lambda: Cumulants(c1=math.nan, c2=0.1, c4=0.0), ValidationError,
         "c1 must be finite, got nan"),
        (lambda: Cumulants(c1=0.0, c2=0.1, c4=math.inf), ValidationError,
         "c4 must be nonnegative and finite, got inf"),
        (lambda: Cumulants(c1=0.0, c2=-0.1, c4=0.0), ValidationError,
         "c2 must be nonnegative and finite, got -0.1"),
        (lambda: Cumulants(c1=0.0, c2=0.1, c4=-1e-3), ValidationError,
         "c4 must be nonnegative and finite, got -0.001"),
        # E[S_T^1.5] explodes at T* ~ 3.08, so at T = 5 the strip refuses
        # the centre before any contour is read
        (lambda: cumulants(EXPLOSIVE_HESTON, MarketSpec(spot=100.0, rate=0.05, maturity=5.0),
                           1.5),
         ValidationError, r"contour shift 1.5 lies outside the admissible interval "
         r"\(-0.948285, 1.24523\) for HestonParams at T = 5, so E\[\(S_T/S_0\)\^1.5\] is "
         r"infinite"),
        (lambda: TruncationRange(a=-math.inf, b=1.0), ValidationError,
         "a must be finite, got -inf"),
        (lambda: TruncationRange(a=0.0, b=math.nan), ValidationError,
         "b must be finite, got nan"),
        (lambda: TruncationRange(a=1.0, b=1.0), ValidationError,
         r"range must satisfy a < b, got \[1.0, 1.0\]"),
        (lambda: truncation_range(Cumulants(c1=0.0, c2=0.1, c4=0.0), 0.0), ValidationError,
         "range_width must be positive and finite, got 0.0"),
        (lambda: truncation_range(Cumulants(c1=0.0, c2=0.1, c4=0.0), -2.0), ValidationError,
         "range_width must be positive and finite, got -2.0"),
    ], ids=["rate-inf", "dividend-nan", "rho", "log_cf-model", "log_cf-model-empty",
            "damping_bounds-model", "check_damping-model", "price-model",
            "price-model-before-option", "log_cf-market", "cumulants-market",
            "damping_bounds-market", "check_damping-market", "c1-nan", "c4-inf",
            "c2<0", "c4<0", "cumulants-moment", "range-a-inf",
            "range-b-nan", "range-a=b", "width-0", "width<0"])
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

    @pytest.mark.parametrize("params", [dict(G=5.0, M=1e300, Y=1.5), dict(G=1e-300, M=5.0, Y=1.9)],
                             ids=["M^Y", "compensator"])
    def test_cgmy_constant_overflow_refused(self, params):
        # each once escaped from pricing as an OverflowError
        with pytest.raises(ValidationError, match=r"^M\^Y, G\^Y and the drift's compensator must "
                                                  r"be finite floats, got "):
            CGMYParams(C=1.0, **params)

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
        for maturity in (1e-3, 1.0, 20.0):
            market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
            assert damping_bounds(models["kou"], market) == (-5.0, 10.0)
            assert damping_bounds(models["cgmy1"], market) == (-5.0, 5.0)
        # Heston's moments explode at a maturity that falls as the order
        # leaves [0, 1], so its strip is finite and narrows as T grows
        wide, narrow = (damping_bounds(models["heston"], MarketSpec(spot=100.0, rate=0.1,
                                                                    maturity=maturity))
                        for maturity in (1.0, 20.0))
        assert -math.inf < wide[0] < narrow[0] < 0.0 and 1.0 < narrow[1] < wide[1] < math.inf


class TestMomentPredicate:
    def test_accepts_real_moment_with_roundoff(self):
        # valid moments come back with ~1e-17 of imaginary noise
        check_moment(1.1, 1.4231 + 2.4e-17j)
        check_moment(1.1, 2.4e27)

    def test_rejects_complex_negative_or_non_finite(self):
        cases = [(0.0, "underflows to 0"), (math.inf, "overflows; the drift")]
        cases += [(value, "is finite inside the strip, but computes as")
                  for value in (1.3 + 0.38j, 1.0 + 1e-9j, -0.5, math.nan, complex(1.0, math.nan))]
        for value, match in cases:
            with pytest.raises(ValidationError, match=match):
                check_moment(1.1, value)

    def test_check_moment_tells_an_underflow_from_an_explosion(self):
        with pytest.raises(ValidationError, match="underflows to 0"):
            check_moment(1.1, 0j)
        # +inf is an overflow too: lowering the damping does not mend it
        for value in (math.inf, complex(math.inf, 0.0)):
            with pytest.raises(ValidationError, match=r"\^1.1\] overflows; the drift"):
                check_moment(1.1, value)
        for value in (1.3 + 0.38j, -0.5, -math.inf, complex(1.0, math.inf)):
            with pytest.raises(ValidationError, match=r"\^1.1\] is finite inside the strip, "
                                                      r"but computes as .*, not real"):
                check_moment(1.1, value)

    def test_flags_heston_moment_explosion(self):
        # E[S_T^1.1] explodes at T* ~ 8.66 for this parameter set: valid
        # before, and refused by the strip after, before phi_T is read
        model = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)
        before = MarketSpec(spot=100.0, rate=0.05, maturity=5.0)
        after = MarketSpec(spot=100.0, rate=0.05, maturity=20.0)
        check_moment(1.1, char_fn(model, before, -1.1j))
        with pytest.raises(ValidationError, match=r"contour shift 1.1 lies outside the "
                                                  r"admissible interval .* at T = 20"):
            char_fn(model, after, -1.1j)


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


class TestLiveBands:
    """live_band over several contours: one evaluate call, and each band
    bit for bit its one-contour call's."""

    CONTOURS = ((0.1, 1.1, 210), (0.05, 0.0, 60000), (0.3, 1.1, 1), (0.01, -0.5, 4096),
                (2.0, 0.0, 300))

    @pytest.mark.parametrize("cap", [math.inf, 2 ** 30])
    @pytest.mark.parametrize("maturity", [1e-3, 1.0])
    def test_each_band_is_its_one_contour_call(self, models, maturity, cap):
        market = MarketSpec(spot=100.0, rate=0.1, maturity=maturity)
        sizes = []

        def evaluate(model, market, u):
            sizes.append(np.size(u))
            return char_fn(model, market, u)

        for name, model in models.items():
            sizes.clear()
            bands = live_band(evaluate, model, market, *zip(*self.CONTOURS), cap)
            assert len(sizes) == 1, name
            alone = [live_band(char_fn, model, market, *contour, cap) for contour in self.CONTOURS]
            assert [band.tobytes() for band in bands] == [band.tobytes() for band in alone], name
            assert sizes[0] >= sum(band.size for band in alone)

    def test_a_shift_outside_the_strip_is_refused_before_any_evaluation(self, models, market):
        def evaluate(*args):
            raise AssertionError("no point may be evaluated")

        with pytest.raises(ValidationError, match=r"contour shift 12 lies outside"):
            live_band(evaluate, models["kou"], market, (0.1, 0.1, 0.1), (1.1, 12.0, -6.0),
                      (64, 64, 64))
