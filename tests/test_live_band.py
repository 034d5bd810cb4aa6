"""The live band: characteristic-function values are evaluated and summed
only up to the last one that has not underflowed.

Certification compares the engine and the Carr-Madan spectrum with
full-grid evaluators written out here (no cut, no blocks), bit for bit;
the property tests check the decay that lets the block rule stop early
and the Heston envelope that places the Heston cut.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cospricer import cos_engine, presets
from cospricer.cos_engine import CosConfig, OptionKind, OptionSpec, Variant, price
from cospricer.errors import PricingError, ValidationError
from cospricer.models import (
    CGMYParams,
    HestonParams,
    KouParams,
    MarketSpec,
    _heston_log_envelope,
    char_fn,
    check_moment,
    cumulants,
    damping_bounds,
    live_band,
    moment_is_valid,
    truncation_range,
)
from cospricer.transform_refs import _call_spectrum

STRIKES = (1e-3, 60.0, 100.0, 160.0, 1e5)

# log 2^-1075 (half the smallest subnormal) less a margin of one
ZERO_LOG = -1075.0 * math.log(2.0) - 1.0

HESTON = presets.model_preset("heston")
# E[S_T^1.5] explodes at T* ~ 3.08 and E[S_T^1.1] at T* ~ 8.66
EXPLOSIVE = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)


def with_rho(rho):
    return HestonParams(kappa=HESTON.kappa, theta=HESTON.theta, sigma=HESTON.sigma,
                        rho=rho, v0=HESTON.v0)


# (model, maturity, call damping, put damping) at the edges of the
# envelope's reach: extreme maturities, |rho| near and at 1 (where the
# whole contour is kept), alpha near the (-2, 2) bounds, and exploded
# moments, which must raise as the full grid does
HESTON_EDGES = {
    "T=1e-3": (HESTON, 1e-3, 1.1, 0.0),
    "T=20": (HESTON, 20.0, 1.1, 0.0),
    "rho=0.999": (with_rho(0.999), 1.0, 1.1, 0.0),
    "rho=-0.999": (with_rho(-0.999), 1.0, 1.1, 0.0),
    "rho=1": (with_rho(1.0), 1.0, 1.1, 0.0),
    "rho=-1": (with_rho(-1.0), 1.0, 1.1, 0.0),
    "alpha=+-1.99": (HESTON, 1.0, 1.99, -1.99),
    "alpha=+-1.99,T=5": (HESTON, 5.0, 1.99, -1.99),
    "explosive,T=5": (EXPLOSIVE, 5.0, 1.5, -1.5),
    "explosive,T=20": (EXPLOSIVE, 20.0, 1.1, -1.1),
}


def heston_market(maturity):
    return MarketSpec(spot=100.0, rate=0.05, maturity=maturity)


def full_grid_series_values(model, market, kind, alpha, base, x, ranges, strikes, counts):
    """cos_engine._series_values over every term: phi on the whole grid of
    the largest count in one call, and each count's prefix of the terms
    summed."""
    u = np.arange(max(counts)) * (math.pi / base.width)
    phi = char_fn(model, market, u - 1j * alpha)
    check_moment(alpha, phi[0])
    density = np.real(np.exp(-1j * u * base.a) * phi)
    coefficients = (
        cos_engine.call_coefficients if kind is OptionKind.CALL else cos_engine.put_coefficients
    )
    payoff = coefficients(u, alpha, ranges, strikes)
    width = np.array([r.width for r in ranges])
    terms = cos_engine._column(2.0 * cos_engine._exp_each(alpha * x) / width) * density * payoff
    terms[:, 0] *= 0.5
    discount = math.exp(-market.rate * market.maturity)
    return [
        0.5 * width * discount * np.array([cos_engine._fsum(row[:n]) for row in terms.tolist()])
        for n in counts
    ]


def full_grid_spectrum(model, market, config):
    """transform_refs._call_spectrum with phi and the transform on all
    n_fft points."""
    n, eta, alpha = config.n_fft, config.spacing, config.damping
    v = eta * np.arange(n)
    phi = char_fn(model, market, v - 1j * (alpha + 1.0))
    check_moment(alpha + 1.0, phi[0])
    psi = np.exp(-market.rate * market.maturity) * phi / (
        alpha * alpha + alpha - v * v + 1j * (2.0 * alpha + 1.0) * v
    )
    signed = np.full(n, 2.0)
    signed[1::2] = -4.0
    signed[0] = 1.0
    return np.fft.fft(psi * ((eta / 3.0) * signed)).real


def outcome(model, market, options, config):
    """The prices as bit patterns, or the type of the error raised."""
    try:
        results = price(model, market, options, config)
    except PricingError as exc:
        return type(exc)
    return tuple(r.price.hex() for r in results)


def assert_matches_full_grid(monkeypatch, model, market, options, config):
    got = outcome(model, market, options, config)
    with monkeypatch.context() as patch:
        patch.setattr(cos_engine, "_series_values", full_grid_series_values)
        want = outcome(model, market, options, config)
    assert got == want, (model, market.maturity, options, config)
    return got


class TestEngineCertification:
    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_bit_identical_to_full_grid(self, monkeypatch, name):
        model, market = presets.model_preset(name), presets.market_preset(1.0)
        cases = itertools.product(Variant, OptionKind, (7.0, 12.0, 30.0), (64, 210, 4096, 60000))
        for variant, kind, width, n_terms in cases:
            config = CosConfig(n_terms=n_terms, range_width=width, variant=variant)
            options = [OptionSpec(k, kind) for k in STRIKES]
            got = assert_matches_full_grid(monkeypatch, model, market, options, config)
            if isinstance(got, type):
                # a batch stops at its first failing strike; check each one
                for option in options:
                    assert_matches_full_grid(monkeypatch, model, market, [option], config)

    @pytest.mark.parametrize("edge", HESTON_EDGES)
    def test_heston_edges_bit_identical_to_full_grid(self, monkeypatch, edge):
        model, maturity, call_alpha, put_alpha = HESTON_EDGES[edge]
        market = heston_market(maturity)
        series = [(Variant.STABLE, OptionKind.CALL, call_alpha),
                  (Variant.STABLE, OptionKind.PUT, put_alpha),
                  (Variant.DIRECT, OptionKind.CALL, None),
                  (Variant.DIRECT, OptionKind.PUT, None),
                  (Variant.PUT_CALL_PARITY, OptionKind.CALL, None)]
        grids = [(7.0, 64), (7.0, 4096), (30.0, 64), (30.0, 4096), (12.0, 60000)]
        for (variant, kind, alpha), (width, n_terms) in itertools.product(series, grids):
            config = CosConfig(n_terms=n_terms, range_width=width, damping=alpha,
                               variant=variant)
            options = [OptionSpec(k, kind) for k in STRIKES]
            got = assert_matches_full_grid(monkeypatch, model, market, options, config)
            if isinstance(got, type):
                for option in options:
                    assert_matches_full_grid(monkeypatch, model, market, [option], config)

    def test_explosive_moment_raises_as_the_full_grid_does(self, monkeypatch):
        config = CosConfig(n_terms=60000, range_width=12.0, damping=1.5)
        got = assert_matches_full_grid(
            monkeypatch, EXPLOSIVE, heston_market(5.0), [OptionSpec(100.0)], config
        )
        assert got is ValidationError

    @pytest.mark.parametrize("width", [871.0, 872.0, 880.0, 884.0])
    @pytest.mark.parametrize("strike", [60.0, 100.0, 1e5])
    def test_overflowing_tail_still_raises(self, monkeypatch, width, strike):
        # undamped kou calls on ranges this wide overflow some payoff
        # coefficients past the live band; 0 * inf = nan there made the
        # full sum fail, and at L=871, K=60 and L=872, K=100 a cut sum
        # would instead return a finite 1e292
        model, market = presets.model_preset("kou"), presets.market_preset(1.0)
        config = CosConfig(n_terms=200000, range_width=width, variant=Variant.DIRECT)
        assert_matches_full_grid(monkeypatch, model, market, [OptionSpec(strike)], config)


class TestSpectrumCertification:
    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_bit_identical_to_full_grid(self, name, maturity):
        model, market = presets.model_preset(name), presets.market_preset(maturity)
        config = presets.carr_madan_preset(name)
        _, spectrum = _call_spectrum(model, market, config)
        assert spectrum.tobytes() == full_grid_spectrum(model, market, config).tobytes()

    @pytest.mark.parametrize("edge", HESTON_EDGES)
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_heston_edges_bit_identical_to_full_grid(self, edge, maturity):
        model, market = HESTON_EDGES[edge][0], heston_market(maturity)
        config = presets.carr_madan_preset("heston")

        def spectrum(compute):
            try:
                return compute(model, market, config).tobytes()
            except PricingError as exc:
                return type(exc)

        assert spectrum(lambda *args: _call_spectrum(*args)[1]) == spectrum(full_grid_spectrum)


def assert_first_dead_index(model, market, step, shift, size, end):
    """end is the first index k >= 1 whose envelope lies below ZERO_LOG,
    or size if there is none; the envelope does not increase, so the
    neighbours of end decide it."""

    def dead(k):
        return _heston_log_envelope(model, market, shift, k * step) < ZERO_LOG

    if end == size:
        assert size < 2 or not dead(size - 1)
    else:
        assert 1 <= end < size and dead(end)
        assert end == 1 or not dead(end - 1)


class CountingCharFn:
    def __init__(self):
        self.sizes = []

    def __call__(self, model, market, u):
        self.sizes.append(len(u))
        return char_fn(model, market, u)


def contour(model, fraction, step, size):
    """step, shift and size of a contour whose shift is the given fraction
    of the way through the damping bounds."""
    lo, hi = damping_bounds(model)
    return step, lo + fraction * (hi - lo), size


def assert_live_band(model, market, step, shift, size):
    """live_band against one call on the whole contour: the same values up
    to the last nonzero one, exact zeros after it."""
    full = char_fn(model, market, np.arange(size) * step - 1j * shift)
    band = live_band(char_fn, model, market, step, shift, size)
    assert band.tobytes() == full[: band.size].tobytes()
    assert not full[band.size :].any()
    assert band.size == 1 or band[-1] != 0.0


class TestBlocks:
    MARKET = presets.market_preset(1.0)

    def test_blocks_double_until_one_is_all_zeros(self):
        # the reference grid of the kou preset: 1484 nonzero values of 60000
        evaluate = CountingCharFn()
        model = presets.model_preset("kou")
        width = truncation_range(cumulants(model, self.MARKET), 12.0).width
        band = live_band(evaluate, model, self.MARKET, math.pi / width, 0.0, 60000)
        assert evaluate.sizes == [1024, 1024, 2048]
        assert band.size == 1484

    def test_short_grid_is_one_call(self):
        evaluate = CountingCharFn()
        live_band(evaluate, presets.model_preset("cgmy1"), self.MARKET, 0.5, 0.0, 210)
        assert evaluate.sizes == [210]

    @pytest.mark.parametrize("name", ["kou", "heston"])
    def test_cuts_after_the_last_nonzero_value(self, name):
        # near the underflow threshold roundoff could leave a subnormal
        # after an exact zero; the band keeps it
        values = np.zeros(5000, dtype=complex)
        values[:5] = [1.0, 0.5, 0.0, 5e-324, 0.0]

        def evaluate(model, market, w):
            return values[w.real.astype(int)]

        band = live_band(evaluate, presets.model_preset(name), self.MARKET, 1.0, 0.0, 5000)
        assert band.tolist() == [1.0, 0.5, 0.0, 5e-324]

    def test_keeps_the_moment_when_everything_underflows(self):
        # a drift of -1000 makes E[S_T/S_0] = e^-1000 underflow
        model = presets.model_preset("kou")
        market = MarketSpec(spot=100.0, rate=-1000.0, maturity=1.0)
        band = live_band(char_fn, model, market, 1.0, 1.0, 3)
        assert band.tolist() == [0j]

    @pytest.mark.parametrize("model", [
        with_rho(-1.0),
        CGMYParams(C=1.0, G=5.0, M=5.0, Y=-1.0),
        CGMYParams(C=1.0, G=5.0, M=5.0, Y=-1.5),
    ])
    def test_unproven_decay_is_one_full_call(self, model):
        evaluate = CountingCharFn()
        live_band(evaluate, model, self.MARKET, 0.01, 0.5, 60000)
        assert evaluate.sizes == [60000]

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_heston_with_unit_rho_is_one_full_call(self, rho):
        # the envelope is then the constant moment; here a drift of -1000
        # makes it underflow, and still the whole contour is evaluated
        evaluate = CountingCharFn()
        market = MarketSpec(spot=100.0, rate=-1000.0, maturity=1.0)
        live_band(evaluate, with_rho(rho), market, 1.0, 1.0, 3000)
        assert evaluate.sizes == [3000]

    @pytest.mark.parametrize("grid", ["reference", "reference-damped", "carr_madan"])
    def test_heston_is_one_call_before_the_envelope_cut(self, grid):
        # the 60000-term reference series (1882 nonzero values) and the
        # 65536-point Carr-Madan grid (15390 nonzero values)
        width = truncation_range(cumulants(HESTON, self.MARKET), 12.0).width
        step, shift, size = {
            "reference": (math.pi / width, 0.0, 60000),
            "reference-damped": (math.pi / width, 1.1, 60000),
            "carr_madan": (0.05, 1.75, 2 ** 16),
        }[grid]
        evaluate = CountingCharFn()
        band = live_band(evaluate, HESTON, self.MARKET, step, shift, size)
        [end] = evaluate.sizes
        assert band.size <= end < size
        assert_first_dead_index(HESTON, self.MARKET, step, shift, size, end)
        assert_live_band(HESTON, self.MARKET, step, shift, size)

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    @pytest.mark.parametrize("n_terms", [64, 4096, 60000])
    def test_matches_one_call(self, name, n_terms):
        model = presets.model_preset(name)
        for fraction in (0.2, 0.5, 0.8):
            assert_live_band(model, self.MARKET, *contour(model, fraction, 0.05, n_terms))


_fractions = st.floats(0.01, 0.99)
_maturities = st.floats(0.01, 10.0)
_kou = st.builds(
    KouParams,
    sigma=st.floats(0.01, 1.0),
    p=st.floats(0.0, 1.0),
    eta1=st.floats(1.5, 50.0),
    eta2=st.floats(0.5, 50.0),
    lam=st.floats(0.0, 10.0),
)
_cgmy = st.builds(
    CGMYParams,
    C=st.floats(0.1, 5.0),
    G=st.floats(0.5, 20.0),
    M=st.floats(1.5, 20.0),
    Y=st.floats(-0.99, 1.99).filter(lambda y: abs(y) > 1e-3 and abs(y - 1.0) > 1e-3),
)
_heston = st.builds(
    HestonParams,
    kappa=st.floats(0.1, 5.0),
    theta=st.floats(0.01, 0.5),
    sigma=st.floats(0.05, 1.0),
    rho=st.floats(-0.999, 0.999),
    v0=st.floats(0.01, 0.5),
)
_slow = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDecayProperty:
    @_slow
    @given(model=st.one_of(_kou, _cgmy), maturity=_maturities, fraction=_fractions)
    def test_modulus_does_not_increase_along_the_contour(self, model, maturity, fraction):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        lo, hi = damping_bounds(model)
        alpha = lo + fraction * (hi - lo)
        u = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 4000)))
        modulus = np.abs(char_fn(model, market, u - 1j * alpha))
        assume(np.isfinite(modulus[0]))  # an overflowing moment has no decay to check
        rise = np.diff(modulus)
        # roundoff of Re log phi, and below the smallest normal double
        # the subnormal steps
        allowed = 1e-10 * modulus[:-1] + np.finfo(float).tiny
        assert (rise <= allowed).all(), (u[1:][rise > allowed], modulus[1:][rise > allowed])

    @_slow
    @given(model=st.one_of(_kou, _cgmy), maturity=_maturities, fraction=_fractions,
           n_terms=st.integers(1, 20000), step=st.floats(1e-3, 5.0))
    def test_blocks_return_what_one_call_returns(self, model, maturity, fraction, n_terms, step):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        assert_live_band(model, market, *contour(model, fraction, step, n_terms))

    @_slow
    @given(
        model=st.one_of(
            _heston,
            st.builds(CGMYParams, C=st.floats(0.1, 5.0), G=st.floats(0.5, 20.0),
                      M=st.floats(1.5, 20.0), Y=st.floats(-5.0, -1.0)),
        ),
        n_terms=st.integers(1025, 20000),
        step=st.floats(0.01, 2.0),
    )
    def test_other_models_take_one_call(self, model, n_terms, step):
        evaluate = CountingCharFn()
        market = presets.market_preset(1.0)
        live_band(evaluate, model, market, step, 0.5, n_terms)
        if isinstance(model, HestonParams):
            # over the points before the envelope's cut
            [end] = evaluate.sizes
            assert_first_dead_index(model, market, step, 0.5, n_terms, end)
        else:
            assert evaluate.sizes == [n_terms]


class TestHestonEnvelope:
    @_slow
    @given(model=_heston, maturity=st.floats(1e-3, 20.0), alpha=st.floats(-1.9, 1.9))
    # kappa^2 < 2*sigma^2*nu near u = 0, where the bound has no real form
    @example(model=HestonParams(kappa=0.14, theta=0.057, sigma=0.48, rho=0.37, v0=0.27),
             maturity=0.31, alpha=-1.28)
    # kappa*theta/sigma^2 = 600 amplifies the rounding of both closed forms:
    # envelope[0] and log phi(-i*alpha) differ by 1.1e-12 here
    @example(model=HestonParams(kappa=3.0, theta=0.5, sigma=0.05, rho=0.75, v0=0.5),
             maturity=6.0, alpha=2.0 ** -8)
    def test_bounds_phi_and_does_not_increase(self, model, maturity, alpha):
        market = heston_market(maturity)
        u = np.concatenate(([0.0], np.geomspace(1e-3, 1e5, 2000)))
        phi = char_fn(model, market, u - 1j * alpha)
        assume(moment_is_valid(phi[0]))  # past an explosion the bound is infinite
        envelope = np.array([_heston_log_envelope(model, market, alpha, x) for x in u])
        # below the smallest normal double exp loses its relative accuracy
        # (at the bottom it rounds up to 4.9e-324), so the bound is checked
        # on normal values only
        modulus = np.abs(phi)
        normal = modulus >= np.finfo(float).tiny
        log_modulus = np.log(modulus[normal])
        allowed = envelope[normal] + 1e-10 * np.maximum(1.0, np.abs(log_modulus))
        assert (log_modulus <= allowed).all(), u[normal][log_modulus > allowed]
        # inf (no bound) may turn finite, never the other way round
        slack = np.where(np.isfinite(envelope), 1e-10 * np.maximum(1.0, np.abs(envelope)), 0.0)
        rise = np.diff(envelope)
        assert not (rise > slack[:-1]).any(), u[1:][rise > slack[:-1]]
        if math.isfinite(envelope[0]):
            # at u = 0 the bound is the moment itself, up to the rounding
            # of the two closed forms, which kappa*theta/sigma^2 amplifies
            # (char_fn alone is off by up to 8.4e-12 in this box); the
            # same slack as the bound above
            log_moment = math.log(phi[0].real)
            assert abs(envelope[0] - log_moment) <= 1e-10 * max(1.0, abs(log_moment))
