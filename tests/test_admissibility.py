"""One admissibility rule for the contour shift.

Every pricer evaluates phi_T(u - i*shift): the shift is the damping alpha
for the cosine series and the Fourier integral, and the damping plus 1
for Carr-Madan.  All three accept a shift inside
:func:`models.damping_bounds` at the maturity T whose moment
E[(S_T/S_0)^shift] passes :func:`models.check_moment`, and refuse any
other with a ValidationError.  The strip is where the moment explodes
after T, T*(shift) > T: Heston's moment of order omega explodes at the
time T*(omega) of Andersen & Piterbarg (2007), so its strip narrows as T
grows; Kou's and CGMY's moments are finite at every maturity or at none.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cospricer import presets
from cospricer.cos_engine import CosConfig, OptionKind, OptionSpec, price
from cospricer.errors import PricingError, ValidationError
from cospricer.models import (
    CGMYParams,
    HestonParams,
    KouParams,
    MarketSpec,
    char_fn,
    check_damping,
    damping_bounds,
    moment_is_valid,
)
from cospricer.transform_refs import (
    CarrMadanConfig,
    IntegralConfig,
    price_carr_madan,
    price_fourier_integral,
)

# E[S_T^1.5] explodes at T* ~ 3.08
EXPLOSIVE = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)
# D = b^2 - sigma^2*order*(order - 1) = 0 at order 4/3, where b = -1
D_ZERO = HestonParams(kappa=1.0, theta=0.09, sigma=1.5, rho=1.0, v0=0.09)
# every positive finite float
_positive = st.floats(0.0, exclude_min=True, allow_infinity=False)


def explosion_time(model: HestonParams, order: float) -> float:
    """T*(order), the maturity at which E[S_T^order] explodes under Heston,
    in the closed form of Andersen & Piterbarg (2007); inf when it never
    does.  With k = rho*sigma*order - kappa and
    d = k^2 - sigma^2*order*(order - 1): no explosion for order in [0, 1]
    or for d >= 0, k < 0; log((k + sqrt(d))/(k - sqrt(d)))/sqrt(d) for
    d >= 0, k > 0; 2*atan2(sqrt(-d), k)/sqrt(-d) for d < 0."""
    if 0.0 <= order <= 1.0:
        return math.inf
    k = model.rho * model.sigma * order - model.kappa
    d = k * k - model.sigma ** 2 * order * (order - 1.0)
    if d >= 0.0:
        if k <= 0.0:
            return math.inf
        root = math.sqrt(d)
        return math.log((k + root) / (k - root)) / root
    root = math.sqrt(-d)
    return 2.0 * math.atan2(root, k) / root


def moment_at(model, order, maturity):
    market = MarketSpec(spot=100.0, rate=0.0, maturity=maturity)
    return char_fn(model, market, -1j * order)


class TestExplosionTime:
    """Heston's strip is where T*(order) > T: the moment is valid before
    the explosion time, and the strip refuses its order after it."""

    ORDERS = (-4.0, -1.0, 1.1, 1.5, 2.5, 4.0)

    @staticmethod
    def random_models(count=150, seed=2007):
        rng = np.random.default_rng(seed)
        return [
            HestonParams(kappa=rng.uniform(0.1, 5.0), theta=rng.uniform(0.01, 0.5),
                         sigma=rng.uniform(0.1, 2.0), rho=rng.uniform(-0.95, 0.95),
                         v0=rng.uniform(0.01, 0.5))
            for _ in range(count)
        ]

    def test_oracle_matches_the_probe(self):
        # measured on the closed form: E[S_T^1.5] is valid at T = 3.05 and
        # complex at 3.1, E[S_T^1.1] valid at 8 and complex at 10
        assert explosion_time(EXPLOSIVE, 1.5) == pytest.approx(3.08, abs=5e-3)
        assert explosion_time(EXPLOSIVE, 1.1) == pytest.approx(8.66, abs=5e-3)

    def test_moment_is_valid_before_and_not_after(self):
        finite = 0
        for model in self.random_models():
            for order in self.ORDERS:
                t_star = explosion_time(model, order)
                assert model._explosion_time(order) == pytest.approx(t_star, rel=1e-12)
                if math.isinf(t_star):
                    assert moment_is_valid(moment_at(model, order, 20.0)), (model, order)
                    continue
                finite += 1
                before = moment_at(model, order, 0.9 * t_star)
                assert moment_is_valid(before), (model, order, t_star, before)
                with pytest.raises(ValidationError, match="lies outside the admissible"):
                    moment_at(model, order, 1.1 * t_star)
        # the grid must reach both sides of the rule
        assert finite > 100

    @settings(max_examples=400, deadline=None)
    @given(model=st.builds(
        HestonParams, kappa=_positive, theta=st.floats(0.0, 1.0), sigma=_positive,
        rho=st.sampled_from((-1.0, 1.0)) | st.floats(-1.0, 1.0), v0=st.floats(0.0, 1.0)),
        order=st.floats(-1e300, 1e300))
    # the form log((-b + sqrt(D))/(-b - sqrt(D)))/sqrt(D) raised
    # ZeroDivisionError here, where D rounds to 0
    @example(model=HestonParams(kappa=1.0, theta=0.09, sigma=0.5, rho=-1.0, v0=0.09),
             order=-1e154)
    # D = 0 exactly, b = -1: T* is the limit 2/(-b) = 2
    @example(model=D_ZERO, order=4.0 / 3.0)
    def test_total(self, model, order):
        t_star = model._explosion_time(order)
        assert type(t_star) is float and t_star >= 0.0, (model, order, t_star)

    def test_limit_where_the_discriminant_vanishes(self):
        assert D_ZERO._explosion_time(4.0 / 3.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("model", [presets.model_preset("heston"), EXPLOSIVE],
                             ids=["heston", "explosive"])
    def test_riccati_blows_up_at_t_star(self, model):
        # B' = c - b*B + sigma^2*B^2/2, B(0) = 0, integrated to |B| = 1e8; past
        # it B' ~ sigma^2*B^2/2, which leaves 2/(sigma^2*1e8) to the blow-up.
        # 20 orders at and past the edges of the strip at T = 50, so T* <= 50
        lo, hi = damping_bounds(model, MarketSpec(spot=100.0, rate=0.05, maturity=50.0))
        for order in np.outer((lo, hi), np.geomspace(1.0, 10.0, 10)).ravel().tolist():
            c = 0.5 * order * (order - 1.0)
            b = model.kappa - model.rho * model.sigma * order

            def big(t, y):
                return y[0] - 1e8

            big.terminal = True
            solution = solve_ivp(lambda t, y: c - b * y + 0.5 * model.sigma ** 2 * y * y,
                                 (0.0, 100.0), [0.0], events=big, rtol=1e-11, atol=1e-12)
            [[hit]] = solution.t_events
            blow_up = hit + 2.0 / (model.sigma ** 2 * 1e8)
            assert model._explosion_time(order) == pytest.approx(blow_up, rel=1e-8), order


class TestStrip:
    """Heston's strip at T: where T*(order) > T, each edge the first float
    outward that check_damping refuses."""

    @pytest.mark.parametrize("model, maturity, edges", [
        (presets.model_preset("heston"), 1.0, (-25.317440426898607, 84.95008402289753)),
        (presets.model_preset("heston"), 20.0, (-5.111424503462286, 30.528263274463196)),
        (EXPLOSIVE, 1.0, (-4.685792938195994, 3.0666930270224193)),
        (EXPLOSIVE, 3.0, (-1.5358981757339152, 1.519288592886785)),
        (EXPLOSIVE, 5.0, (-0.9482846476460941, 1.2452250055868381)),
    ], ids=["heston-T1", "heston-T20", "explosive-T1", "explosive-T3", "explosive-T5"])
    def test_edges(self, model, maturity, edges):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        bounds = damping_bounds(model, market)
        assert bounds == pytest.approx(edges, rel=1e-12, abs=0.0)
        for edge in bounds:
            inside = math.nextafter(edge, 0.5)
            outside = math.nextafter(edge, math.copysign(math.inf, edge))
            assert model._explosion_time(inside) > maturity >= model._explosion_time(edge)
            for shift in (inside, edge, outside):
                admitted = model._explosion_time(shift) > maturity
                try:
                    check_damping(model, market, shift)
                except ValidationError:
                    assert not admitted, shift
                else:
                    assert admitted, shift

    def test_refusal_names_the_strip_and_the_maturity(self):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=3.0)
        with pytest.raises(ValidationError, match=r"^contour shift 1.52 lies outside the "
                           r"admissible interval \(-1.5359, 1.51929\) for HestonParams at "
                           r"T = 3, so E\[\(S_T/S_0\)\^1.52\] is infinite$"):
            check_damping(EXPLOSIVE, market, 0.5, 1.52)


def three_pricers(model, market, shift):
    """The call at K = 100 from each pricer at one contour shift: a price,
    or the PricingError raised."""
    pricers = {
        "cos": lambda: price(model, market, OptionSpec(strike=100.0),
                             CosConfig(n_terms=4096, range_width=12.0, damping=shift)).price,
        "fourier_integral": lambda: price_fourier_integral(
            model, market, 100.0, IntegralConfig(damping=shift)),
        "carr_madan": lambda: price_carr_madan(
            model, market, [100.0], CarrMadanConfig(damping=shift - 1.0, spacing=0.05))[0],
    }
    outcomes = {}
    for name, pricer in pricers.items():
        try:
            outcomes[name] = pricer()
        except PricingError as exc:
            outcomes[name] = exc
    return outcomes


class TestSameShiftsEverywhere:
    KOU, CGMY1, HESTON = (presets.model_preset(name) for name in ("kou", "cgmy1", "heston"))

    @pytest.mark.parametrize(
        "model, market, shift, want",
        [
            (KOU, presets.market_preset(1.0), 6.0, 23.93354001),
            (KOU, presets.market_preset(1.0), 10.0, None),  # eta1
            (KOU, presets.market_preset(1.0), 10.5, None),
            (CGMY1, presets.market_preset(1.0), 2.0, 49.79090547),
            (CGMY1, presets.market_preset(1.0), 5.0, None),  # M
            # the fixed Heston interval (-2, 2) used to refuse these in COS
            # and in the Fourier integral, though Carr-Madan priced them
            (HESTON, presets.market_preset(1.0), 3.0, 15.66210556),
            (HESTON, presets.market_preset(1.0), 4.0, 15.66210556),
            (EXPLOSIVE, MarketSpec(spot=100.0, rate=0.05, maturity=5.0), 1.5, None),
        ],
        ids=["kou-6", "kou-eta1", "kou-10.5", "cgmy1-2", "cgmy1-M", "heston-3", "heston-4",
             "explosive-T5-1.5"],
    )
    def test_accept_and_refuse_together(self, model, market, shift, want):
        # want is the price all three agree on, or None where all three
        # refuse the shift
        outcomes = three_pricers(model, market, shift)
        if want is None:
            assert all(isinstance(out, ValidationError) for out in outcomes.values()), outcomes
            return
        assert max(outcomes.values()) - min(outcomes.values()) <= 1e-8, outcomes
        for value in outcomes.values():
            assert value == pytest.approx(want, abs=1e-8), outcomes

    @pytest.mark.parametrize("shift", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 3.0, 5.0])
    def test_heston_beyond_two_matches_parity(self, shift, maturity):
        model, market = presets.model_preset("heston"), presets.market_preset(maturity)
        outcomes = three_pricers(model, market, shift)
        put = price(model, market, OptionSpec(strike=100.0, kind=OptionKind.PUT),
                    CosConfig(n_terms=4096, range_width=12.0, damping=0.0)).price
        parity = put + market.spot - 100.0 * math.exp(-market.rate * maturity)
        for value in outcomes.values():
            assert value == pytest.approx(parity, abs=1e-8)


_kou = st.builds(KouParams, sigma=st.floats(0.01, 1.0), p=st.floats(0.0, 1.0),
                 eta1=st.floats(1.5, 50.0), eta2=st.floats(0.5, 50.0), lam=st.floats(0.0, 10.0))
_cgmy = st.builds(
    CGMYParams, C=st.floats(0.1, 5.0), G=st.floats(0.5, 20.0), M=st.floats(1.5, 20.0),
    Y=st.floats(-1.5, 1.99).filter(lambda y: abs(y) > 1e-3 and abs(y - 1.0) > 1e-3),
)
_heston = st.builds(HestonParams, kappa=st.floats(0.1, 5.0), theta=st.floats(0.01, 0.5),
                    sigma=st.floats(0.05, 1.5), rho=st.floats(-0.99, 0.99),
                    v0=st.floats(0.01, 0.5))


@st.composite
def model_maturity_and_shift(draw):
    maturity = draw(st.floats(1e-3, 20.0))
    model = draw(st.one_of(_kou, _cgmy, _heston))
    lo, hi = damping_bounds(model, MarketSpec(spot=100.0, rate=0.05, maturity=maturity))
    ends = st.sampled_from((lo, hi, lo + 1e-12, hi - 1e-12))
    return model, maturity, draw(ends | st.floats(lo, hi))


class TestTypedErrorsAtTheEdges:
    @settings(max_examples=150, deadline=None)
    @given(case=model_maturity_and_shift())
    @example(case=(presets.model_preset("kou"), 1.0, 10.0))
    @example(case=(presets.model_preset("cgmy1"), 1.0, 5.0 - 1e-12))
    @example(case=(presets.model_preset("cgmy1"), 1.0, 5.0))
    def test_a_price_or_a_pricing_error(self, case):
        # Carr-Madan checked nothing before its envelope: at the kou example
        # it raised ZeroDivisionError, and at the cgmy1 ones a "math domain
        # error" ValueError
        model, maturity, shift = case
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        kind = OptionKind.CALL if shift > 0.0 else OptionKind.PUT
        pricers = {
            "cos": lambda: price(model, market, OptionSpec(strike=100.0, kind=kind),
                                 CosConfig(n_terms=512, range_width=10.0, damping=shift)).price,
            "fourier_integral": lambda: price_fourier_integral(
                model, market, 100.0, IntegralConfig(damping=shift)),
            "carr_madan": lambda: price_carr_madan(
                model, market, [100.0], CarrMadanConfig(damping=shift - 1.0))[0],
        }
        for name, pricer in pricers.items():
            try:
                value = pricer()
            except PricingError:
                continue
            assert math.isfinite(value), (name, model, shift, maturity, value)
