"""The live band: characteristic-function values are evaluated and summed
only up to a floor below which a proven bound puts the rest of the sum
under its rounding.

Certification compares the engine with a full-grid evaluator written
out here (no cut, each term formed and the terms summed exactly), within
that bound plus the rounding of a sum of those terms, and the Carr-Madan
sum at K = S0 with the FFT over the whole capped contour, to rounding.
On the Heston edges the engine also gives bit for bit the prices it
gives with its band's values read from the full grid.  The property
tests check the bounds on log|phi| and on the payoff coefficients that
place the cut.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cospricer import cos_engine, models, presets, transform_refs
from cospricer.cos_engine import CosConfig, OptionKind, OptionSpec, Variant, price
from cospricer.errors import ComputationError, PricingError, ValidationError
from cospricer.models import (
    CGMYParams,
    HestonParams,
    KouParams,
    MarketSpec,
    _log_envelope,
    char_fn,
    check_moment,
    cumulants,
    damping_bounds,
    live_band,
    moment_is_valid,
    truncation_range,
)
from cospricer.transform_refs import (
    _MAX_FREQUENCIES,
    CarrMadanConfig,
    _damped_calls,
    price_carr_madan,
)

STRIKES = (1e-3, 60.0, 100.0, 160.0, 1e5)

# log 2^-1075 (half the smallest subnormal) less a margin of one
ZERO_LOG = -1075.0 * math.log(2.0) - 1.0

HESTON = presets.model_preset("heston")
# E[S_T^1.5] explodes at T* ~ 3.08 and E[S_T^1.1] at T* ~ 8.66
EXPLOSIVE = HestonParams(kappa=0.5, theta=0.09, sigma=1.0, rho=0.5, v0=0.09)
# r = q = 0, so both factors are 1, but E[(S_T/S_0)^0.5] underflows to 0
# for kou and for the Heston preset at any rho
UNDERFLOW_MARKET = MarketSpec(spot=100.0, rate=0.0, maturity=1e5)


def with_rho(rho):
    return HestonParams(kappa=HESTON.kappa, theta=HESTON.theta, sigma=HESTON.sigma,
                        rho=rho, v0=HESTON.v0)


# (model, maturity, call damping, put damping) at the edges of the
# envelope's reach: extreme maturities, |rho| near and at 1 (where the
# whole contour is kept), alpha near +-2, and exploded
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


def _fsum(terms: list) -> float:
    """math.fsum, reading a sum that overflows or meets inf - inf as nan."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


# an overflowing coefficient or term reads as inf or nan, without NumPy's
# warning, as in cos_engine._series_values
@np.errstate(over="ignore", invalid="ignore")
def full_grid_series_values(model, market, kind, alpha, base, x, strikes, counts,
                            magnitudes=None):
    """cos_engine._series_values summed term by term, over every term: phi
    on the whole grid of the largest count in one call, the terms formed
    from the payoff coefficients of cos_engine.chi, and each count's
    prefix of them summed exactly by math.fsum.  magnitudes, a list,
    receives for each count and row the pair (sum |t_k|, |t_0|) of its
    terms, scaled as its sum is."""
    u = np.arange(max(counts)) * (math.pi / base.width)
    phi = char_fn(model, market, u - 1j * alpha)
    check_moment(alpha, phi[0])
    density = np.real(np.exp(-1j * u * base.a) * phi)
    coefficients = (
        cos_engine.call_coefficients if kind is OptionKind.CALL else cos_engine.put_coefficients
    )
    a, b = base.a + x, base.b + x
    payoff = np.array([coefficients(u, alpha, *row) for row in zip(a, b, strikes)])
    width = b - a
    terms = (2.0 * cos_engine._exp_each(alpha * x) / width)[:, None] * density * payoff
    terms[:, 0] *= 0.5
    scale = 0.5 * width * market.discount_factor
    if magnitudes is not None:
        for n in counts:
            magnitudes.extend(zip((scale * np.abs(terms[:, :n]).sum(axis=1)).tolist(),
                                  (scale * np.abs(terms[:, 0])).tolist()))
    return [
        scale * np.array([_fsum(row[:n]) for row in terms.tolist()]) for n in counts
    ]


def simpson_terms(model, market, config):
    """x_p, the Simpson-weighted transform that transform_refs._damped_calls
    sums, with phi on every point of the capped contour (no cut)."""
    eta, alpha = config.spacing, config.damping
    v = eta * np.arange(_MAX_FREQUENCIES)
    phi = char_fn(model, market, v - 1j * (alpha + 1.0))
    check_moment(alpha + 1.0, phi[0])
    psi = market.discount_factor * phi / (
        alpha * alpha + alpha - v * v + 1j * (2.0 * alpha + 1.0) * v
    )
    weights = np.full(v.size, 2.0)
    weights[1::2] = 4.0
    weights[0] = 1.0
    return psi * ((eta / 3.0) * weights)


def full_grid_spectrum(model, market, config):
    """The FFT of x_p * (-1)^p over the whole capped contour, whose index
    n/2 is the sum at k = 0; also returns sum |x_p|, the scale of its
    rounding."""
    terms = simpson_terms(model, market, config)
    terms[1::2] *= -1.0
    return np.fft.fft(terms).real, np.abs(terms).sum()


def carr_madan_at_the_money(model, market, config):
    """_damped_calls at k = 0, and the number of points it evaluates phi at."""
    evaluate = CountingCharFn()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform_refs, "char_fn", evaluate)
        [value] = _damped_calls(model, market, config, np.zeros(1))
    [points] = evaluate.sizes
    return value, points


def assert_at_the_money_matches_full_grid(model, market, config):
    """The sum at k = 0 within 16 eps sum |x_p| of the full-grid FFT, or
    the same error type from both; and the terms of the capped contour
    past the points the sum evaluates add up to at most 0.1 eps |x_0|.
    Only k = 0 is compared: elsewhere the grid's log-strikes carry
    rounding of their own, about eps*pi/eta."""
    try:
        spectrum, scale = full_grid_spectrum(model, market, config)
    except PricingError as exc:
        with pytest.raises(PricingError) as raised:
            _damped_calls(model, market, config, np.zeros(1))
        assert raised.type is type(exc)
        return
    got, points = carr_madan_at_the_money(model, market, config)
    error = abs(got - spectrum[spectrum.size // 2])
    eps = np.finfo(float).eps
    assert error <= 16.0 * eps * scale, (model, market.maturity, error / scale)
    terms = simpson_terms(model, market, config)
    tail = np.abs(terms[points:]).sum()
    assert tail <= 0.1 * eps * abs(terms[0]), (model, market.maturity, points, tail)


def prices(model, market, options, config):
    """The prices, or the type of the error raised."""
    try:
        column = price(model, market, options, config)
    except PricingError as exc:
        return type(exc)
    return tuple(column.prices.tolist())


def parity_rounding(market, option, config):
    """Under parity, 2 ulp of the forward and the discounted strike that
    the put is mapped with, a rounding its series does not carry; else 0."""
    if config.variant is not Variant.PUT_CALL_PARITY:
        return 0.0
    forward = market.spot * market.dividend_factor
    return 2.0 * np.spacing(max(forward, option.strike * market.discount_factor))


def assert_within_tail_bound_of_full_grid(monkeypatch, model, market, options, config):
    """The same error type as the full grid where either raises; else each
    price within 16 eps sum |t_k| (the rounding of a sum of those terms)
    plus TAIL_SHARE |t_0| (cos_engine._series_values proves TAIL_SHARE/2
    for the terms past the live band) of the full grid's exact sum, both
    from the full grid's own terms, plus parity_rounding.  Returns the
    prices or the error type."""
    got = prices(model, market, options, config)
    magnitudes = []

    def full_grid(*args):
        # the engine's own band, the last argument, is not read
        return full_grid_series_values(model, *args[:-1], magnitudes=magnitudes)

    with monkeypatch.context() as patch:
        patch.setattr(cos_engine, "_series_values", full_grid)
        want = prices(model, market, options, config)
    if isinstance(got, type) or isinstance(want, type):
        assert got == want, (model, market.maturity, options, config)
        return got
    eps = np.finfo(float).eps
    for option, value, full, (total, first) in zip(options, got, want, magnitudes):
        bound = (16.0 * eps * total + models.TAIL_SHARE * first
                 + parity_rounding(market, option, config))
        assert abs(value - full) <= bound, (model, market.maturity, option, config, value, full)
    return got


def outcome(model, market, options, config):
    """The prices as bit patterns, or the type of the error raised."""
    got = prices(model, market, options, config)
    return got if isinstance(got, type) else tuple(p.hex() for p in got)


def full_grid_band(evaluate, model, market, steps, shifts, sizes, cap=math.inf):
    """models.live_band's bands of several contours, each read from one
    evaluate call on its whole contour, cut where live_band cuts it: all
    of it where live_band keeps every point."""
    bands = live_band(evaluate, model, market, steps, shifts, sizes, cap)
    return tuple(evaluate(model, market, np.arange(size) * step - 1j * shift)[:band.size]
                 for band, step, shift, size in zip(bands, steps, shifts, sizes))


def assert_bit_identical_to_full_grid_band(monkeypatch, model, market, options, config):
    """The engine's prices, or its error type, bit for bit those it gives
    with its band's values taken from the full grid (full_grid_band).
    Returns them."""
    got = outcome(model, market, options, config)
    with monkeypatch.context() as patch:
        patch.setattr(cos_engine, "live_band", full_grid_band)
        want = outcome(model, market, options, config)
    assert got == want, (model, market.maturity, options, config)
    return got


def heston_edge_cases(edge):
    """(config, kind) for each series and grid a Heston edge is checked on:
    stable calls and puts at the edge's dampings, direct calls and puts,
    and parity calls, each on narrow to wide ranges and short to long
    grids."""
    _, _, call_alpha, put_alpha = HESTON_EDGES[edge]
    series = [(Variant.STABLE, OptionKind.CALL, call_alpha),
              (Variant.STABLE, OptionKind.PUT, put_alpha),
              (Variant.DIRECT, OptionKind.CALL, None),
              (Variant.DIRECT, OptionKind.PUT, None),
              (Variant.PUT_CALL_PARITY, OptionKind.CALL, None)]
    grids = [(7.0, 64), (7.0, 4096), (30.0, 64), (30.0, 4096), (12.0, 60000)]
    return [(CosConfig(n_terms=n_terms, range_width=width, damping=alpha, variant=variant), kind)
            for (variant, kind, alpha), (width, n_terms) in itertools.product(series, grids)]


def _has_preset(name, variant):
    try:
        presets.method_preset(name, variant)
    except PricingError:
        return False
    return True


# every (profile, variant) with a strike-table preset: all but cgmy2 direct
PRESET_CELLS = [(name, variant) for name in presets.PROFILE_NAMES for variant in Variant
                if _has_preset(name, variant)]
LATTICE = tuple(np.arange(60.0, 160.0 + 0.25, 0.5).tolist())


class TestEngineCertification:
    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_within_the_tail_bound_of_full_grid(self, monkeypatch, name):
        model, market = presets.model_preset(name), presets.market_preset(1.0)
        cases = itertools.product(Variant, OptionKind, (7.0, 12.0, 30.0), (64, 210, 4096, 60000))
        for variant, kind, width, n_terms in cases:
            config = CosConfig(n_terms=n_terms, range_width=width, variant=variant)
            options = [OptionSpec(k, kind) for k in STRIKES]
            got = assert_within_tail_bound_of_full_grid(
                monkeypatch, model, market, options, config)
            if isinstance(got, type):
                # a batch stops at its first failing strike; check each one
                for option in options:
                    assert_within_tail_bound_of_full_grid(
                        monkeypatch, model, market, [option], config)

    @pytest.mark.parametrize("edge", HESTON_EDGES)
    def test_heston_edges_within_the_tail_bound_of_full_grid(self, monkeypatch, edge):
        model, maturity, _, _ = HESTON_EDGES[edge]
        market = heston_market(maturity)
        for config, kind in heston_edge_cases(edge):
            options = [OptionSpec(k, kind) for k in STRIKES]
            got = assert_within_tail_bound_of_full_grid(
                monkeypatch, model, market, options, config)
            if isinstance(got, type):
                for option in options:
                    assert_within_tail_bound_of_full_grid(
                        monkeypatch, model, market, [option], config)

    @pytest.mark.parametrize("edge", HESTON_EDGES)
    def test_heston_edges_bit_identical_to_full_grid(self, monkeypatch, edge):
        # the band's values are the full grid's, so the cut is the only
        # difference: none where the band keeps the whole contour
        model, maturity, _, _ = HESTON_EDGES[edge]
        market = heston_market(maturity)
        for config, kind in heston_edge_cases(edge):
            options = [OptionSpec(k, kind) for k in STRIKES]
            got = assert_bit_identical_to_full_grid_band(
                monkeypatch, model, market, options, config)
            if isinstance(got, type):
                for option in options:
                    assert_bit_identical_to_full_grid_band(
                        monkeypatch, model, market, [option], config)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cell=st.sampled_from(PRESET_CELLS),
           strikes=st.lists(st.sampled_from(LATTICE), min_size=5, max_size=41, unique=True))
    def test_preset_columns_within_the_tail_bound_and_each_its_own_batch(self, cell, strikes):
        # the benchmark's strike columns: a half-unit lattice in [60, 160]
        name, variant = cell
        model, market = presets.model_preset(name), presets.market_preset(1.0)
        config = presets.method_preset(name, variant).cos_config(variant)
        options = [OptionSpec(k) for k in strikes]
        got = assert_within_tail_bound_of_full_grid(
            pytest.MonkeyPatch(), model, market, options, config)
        assert not isinstance(got, type), got
        for option, value in zip(options, got):
            assert price(model, market, option, config).price.hex() == value.hex(), option

    def test_explosive_moment_raises_as_the_full_grid_does(self, monkeypatch):
        config = CosConfig(n_terms=60000, range_width=12.0, damping=1.5)
        got = assert_within_tail_bound_of_full_grid(
            monkeypatch, EXPLOSIVE, heston_market(5.0), [OptionSpec(100.0)], config
        )
        assert got is ValidationError

    @pytest.mark.parametrize("width", [871.0, 872.0, 880.0, 884.0])
    @pytest.mark.parametrize("strike", [60.0, 100.0, 1e5])
    def test_overflowing_tail_still_raises(self, width, strike):
        # undamped kou calls on ranges this wide have summands near 1e300,
        # or an e^b that overflows: the exact sum of the full grid's rounded
        # terms is a finite 1e292 at L=871, K=60 and L=872, K=100, and no
        # price at all; the engine refuses the series at every term count
        model, market = presets.model_preset("kou"), presets.market_preset(1.0)
        for n_terms in (256, 4096, 60000, 200000):
            config = CosConfig(n_terms=n_terms, range_width=width, variant=Variant.DIRECT)
            with pytest.raises(ComputationError):
                price(model, market, OptionSpec(strike), config)


class TestSpectrumCertification:
    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_nodes_match_full_grid(self, name, maturity):
        model, market = presets.model_preset(name), presets.market_preset(maturity)
        assert_at_the_money_matches_full_grid(model, market, presets.carr_madan_preset(name))

    @pytest.mark.parametrize("edge", HESTON_EDGES)
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_heston_edges_match_full_grid(self, edge, maturity):
        model, market = HESTON_EDGES[edge][0], heston_market(maturity)
        assert_at_the_money_matches_full_grid(model, market, presets.carr_madan_preset("heston"))


def assert_first_dead_index(model, market, step, shift, size, end, floor=ZERO_LOG):
    """end is the first index k >= 1 whose bound lies below floor, or
    size if there is none; the bound does not increase, so the neighbours
    of end decide it."""

    def dead(k):
        return _log_envelope(model, market, shift, k * step) < floor

    if end == size:
        assert size < 2 or not dead(size - 1)
    else:
        assert 1 <= end < size and dead(end)
        assert end == 1 or not dead(end - 1)


class CountingCharFn:
    def __init__(self):
        self.sizes = []

    def __call__(self, model, market, u):
        self.sizes.append(np.size(u))
        return char_fn(model, market, u)


def contour(model, market, fraction, step, size):
    """step, shift and size of a contour whose shift is the given fraction
    of the way through the damping bounds at the market's maturity."""
    lo, hi = damping_bounds(model, market)
    shift = lo + fraction * (hi - lo)
    assert math.isfinite(shift)
    return step, shift, size


def assert_live_band(model, market, step, shift, size):
    """live_band against one call on the whole contour: the same values up
    to the last nonzero one, exact zeros after it."""
    full = char_fn(model, market, np.arange(size) * step - 1j * shift)
    band = live_band(char_fn, model, market, step, shift, size)
    assert band.tobytes() == full[: band.size].tobytes()
    assert not full[band.size :].any()
    assert band.size == 1 or band[-1] != 0.0


class TestLiveBand:
    MARKET = presets.market_preset(1.0)

    def test_kou_reference_contour_is_one_call(self):
        # the reference grid of the kou preset: 1484 nonzero values of 60000
        evaluate = CountingCharFn()
        model = presets.model_preset("kou")
        step = math.pi / truncation_range(cumulants(model, self.MARKET), 12.0).width
        band = live_band(evaluate, model, self.MARKET, step, 0.0, 60000)
        [end] = evaluate.sizes
        assert band.size == 1484
        assert end <= band.size + 3
        assert_first_dead_index(model, self.MARKET, step, 0.0, 60000, end)

    def test_contour_live_to_its_end_costs_one_bound_value(self, monkeypatch):
        # 210 terms of cgmy1, none of which underflows
        bounds = []

        def counting_bound(model, market, alpha, u):
            bounds.append(u)
            return _log_envelope(model, market, alpha, u)

        monkeypatch.setattr(models, "_log_envelope", counting_bound)
        evaluate = CountingCharFn()
        band = live_band(evaluate, presets.model_preset("cgmy1"), self.MARKET, 0.1, 0.0, 210)
        assert evaluate.sizes == [210]
        assert bounds == [209 * 0.1]
        assert band[-1] != 0.0

    @pytest.mark.parametrize("cap", [math.inf, transform_refs._MAX_FREQUENCIES],
                             ids=["zeros", "rounding"])
    @pytest.mark.parametrize("name, shift", [
        ("cgmy1", 5.0), ("cgmy1", 6.0), ("cgmy1", -5.0), ("kou", 10.0),
    ])
    def test_refuses_the_shift_before_any_bound(self, monkeypatch, name, shift, cap):
        # the strip ends are M = G = 5 for cgmy1 and eta1 = 10 for kou;
        # no envelope value is taken outside them
        bounds = []

        def counting_bound(model, market, alpha, u):
            bounds.append(u)
            return _log_envelope(model, market, alpha, u)

        monkeypatch.setattr(models, "_log_envelope", counting_bound)
        evaluate = CountingCharFn()
        with pytest.raises(ValidationError, match="admissible interval"):
            live_band(evaluate, presets.model_preset(name), self.MARKET, 0.1, shift, 210, cap)
        assert bounds == []
        assert evaluate.sizes == []

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
        # log E[(S_T/S_0)^0.5] is about -0.0318*T for kou, so at T = 1e5
        # the moment underflows in a market whose factors are representable
        model = presets.model_preset("kou")
        band = live_band(char_fn, model, UNDERFLOW_MARKET, 1.0, 0.5, 3)
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
        # the envelope is then the constant moment; here it underflows,
        # and still the whole contour is evaluated
        evaluate = CountingCharFn()
        assert char_fn(with_rho(rho), UNDERFLOW_MARKET, -0.5j) == 0.0
        live_band(evaluate, with_rho(rho), UNDERFLOW_MARKET, 1.0, 0.5, 3000)
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
            assert_live_band(model, self.MARKET,
                             *contour(model, self.MARKET, fraction, 0.05, n_terms))


class TestCarrMadanCut:
    # the most points each preset's sum may evaluate at T = 1, where the
    # underflow band was heston 15515, kou 4815, cgmy1 808, cgmy2 635
    AT_T1 = {"heston": 1500, "kou": 1300, "cgmy1": 200, "cgmy2": 200}

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    @pytest.mark.parametrize("maturity", [0.1, 1.0, 5.0])
    def test_stops_at_the_rounding_floor(self, name, maturity):
        model, market = presets.model_preset(name), presets.market_preset(maturity)
        config = presets.carr_madan_preset(name)
        _, points = carr_madan_at_the_money(model, market, config)
        shift = config.damping + 1.0
        # log(0.1*eps/(4*2^16)), about -50.8, below the bound at u = 0
        floor = _log_envelope(model, market, shift, 0.0) + math.log(
            0.1 * np.finfo(float).eps / (4 * 2 ** 16))
        assert_first_dead_index(model, market, config.spacing, shift, _MAX_FREQUENCIES,
                                points, floor)
        if maturity == 1.0:
            assert points <= self.AT_T1[name]

    @pytest.mark.parametrize("damping", [3.999999999, 5.0 - 1e-12 - 1.0])
    def test_cgmy_envelope_up_to_the_strip_edge(self, damping):
        # the shift damping + 1 lies within 1e-9 of M = 5: x*(2 + x) in the
        # envelope's modulus used to round to -1, and log1p(-1) raised an
        # untyped "math domain error" before any price
        model, market = presets.model_preset("cgmy1"), presets.market_preset(1.0)
        config = CarrMadanConfig(damping=damping)
        shift = config.damping + 1.0
        bound = _log_envelope(model, market, shift, 0.0)
        assert math.isfinite(bound)
        assert bound >= math.log(abs(char_fn(model, market, -1j * shift)))
        try:
            value = price_carr_madan(model, market, [100.0], config)[0]
        except PricingError:
            return
        assert math.isfinite(value)


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
        lo, hi = damping_bounds(model, market)
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
    def test_band_is_what_one_call_returns(self, model, maturity, fraction, n_terms, step):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        assert_live_band(model, market, *contour(model, market, fraction, step, n_terms))

    @_slow
    @given(model=st.one_of(_kou, _cgmy), maturity=_maturities, fraction=_fractions)
    def test_bound_is_the_log_modulus_and_does_not_increase(self, model, maturity, fraction):
        market = MarketSpec(spot=100.0, rate=0.05, maturity=maturity)
        lo, hi = damping_bounds(model, market)
        alpha = lo + fraction * (hi - lo)
        u = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 2000)))
        modulus = np.abs(char_fn(model, market, u - 1j * alpha))
        assume(np.isfinite(modulus[0]))  # an overflowing moment has no decay to check
        bound = np.array([_log_envelope(model, market, alpha, x) for x in u])
        # below the smallest normal double exp loses its relative accuracy
        normal = modulus >= np.finfo(float).tiny
        log_modulus = np.log(modulus[normal])
        gap = np.abs(bound[normal] - log_modulus)
        allowed = 1e-10 * np.maximum(1.0, np.abs(log_modulus))
        assert (gap <= allowed).all(), u[normal][gap > allowed]
        slack = 1e-10 * np.maximum(1.0, np.abs(bound[:-1]))
        rise = np.diff(bound)
        assert not (rise > slack).any(), u[1:][rise > slack]

    @_slow
    @given(
        model=st.one_of(
            _heston,
            _kou,
            _cgmy,
            st.builds(CGMYParams, C=st.floats(0.1, 5.0), G=st.floats(0.5, 20.0),
                      M=st.floats(1.5, 20.0), Y=st.floats(-5.0, -1.0)),
        ),
        fraction=_fractions,
        n_terms=st.integers(1, 20000),
        step=st.floats(0.01, 2.0),
    )
    def test_every_model_takes_one_call(self, model, fraction, n_terms, step):
        # over the points before the bound's first dead index
        evaluate = CountingCharFn()
        market = presets.market_preset(1.0)
        step, shift, size = contour(model, market, fraction, step, n_terms)
        live_band(evaluate, model, market, step, shift, size)
        [end] = evaluate.sizes
        assert_first_dead_index(model, market, step, shift, size, end)


class TestHestonEnvelope:
    # a random draw past a moment explosion: the closed form gives
    # E[S_T^alpha] = 0.666 - 0.182i, and the strip at T = 5 is (-1.254, 1.020)
    EXPLODED = HestonParams(kappa=0.42176693417594274, theta=0.19025537157657535,
                            sigma=1.3743595228104655, rho=0.9450919150886679,
                            v0=0.25699375278940806)
    EXPLODED_ALPHA = 1.4399499227823387
    REFUSAL = (r"contour shift 1.43995 lies outside the admissible interval "
               r"\(-1.25424, 1.02014\) for HestonParams at T = 5")

    def test_past_an_explosion_the_bound_is_infinite(self):
        # (1 - h)/(1 - g) < 0: the expectation behind the bound is infinite,
        # and the strip refuses the shift before phi_T is read
        market = heston_market(5.0)
        alpha = self.EXPLODED_ALPHA
        assert self.EXPLODED._explosion_time(alpha) < 5.0
        with pytest.raises(ValidationError, match=self.REFUSAL):
            char_fn(self.EXPLODED, market, -1j * alpha)
        assert self.EXPLODED._log_envelope(market, alpha, 0.5194976531371707) == math.inf

    @pytest.mark.parametrize("step, size", [(0.05, 2000), (0.01, 60000)])
    def test_past_an_explosion_the_band_is_refused(self, step, size):
        def evaluate(*args):
            raise AssertionError("no point may be evaluated")

        with pytest.raises(ValidationError, match=self.REFUSAL):
            live_band(evaluate, self.EXPLODED, heston_market(5.0), step, self.EXPLODED_ALPHA,
                      size)

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
        lo, hi = damping_bounds(model, market)
        assume(lo < alpha < hi)  # past an explosion the strip refuses the shift
        u = np.concatenate(([0.0], np.geomspace(1e-3, 1e5, 2000)))
        phi = char_fn(model, market, u - 1j * alpha)
        assume(moment_is_valid(phi[0]))  # near an edge the moment's rounding may show
        envelope = np.array([model._log_envelope(market, alpha, x) for x in u])
        # below the smallest normal double exp loses its relative accuracy
        # (at the bottom it rounds up to 4.9e-324), so the bound is checked
        # on normal values only
        modulus = np.abs(phi)
        normal = modulus >= np.finfo(float).tiny
        log_modulus = np.log(modulus[normal])
        allowed = envelope[normal] + 1e-10 * np.maximum(1.0, np.abs(log_modulus))
        assert (log_modulus <= allowed).all(), u[normal][log_modulus > allowed]
        # inf (no bound) may turn finite, never the other way round; inf
        # followed by inf is nan, which no slack fails, without the warning
        slack = np.where(np.isfinite(envelope), 1e-10 * np.maximum(1.0, np.abs(envelope)), 0.0)
        with np.errstate(invalid="ignore"):
            rise = np.diff(envelope)
        assert not (rise > slack[:-1]).any(), u[1:][rise > slack[:-1]]
        if math.isfinite(envelope[0]):
            # at u = 0 the bound is the moment itself, up to the rounding
            # of the two closed forms, which kappa*theta/sigma^2 amplifies
            # (char_fn alone is off by up to 8.4e-12 in this box); the
            # same slack as the bound above
            log_moment = math.log(phi[0].real)
            assert abs(envelope[0] - log_moment) <= 1e-10 * max(1.0, abs(log_moment))


def coefficient_rounding(alpha, lo, hi, strike, width):
    """The rounding scale of a payoff coefficient on [lo, hi]: 8 eps times
    2K/width times, for each exponent v of chi, (e^(v*lo) + e^(v*hi)) times
    1/|v| (the numerator's v-terms over v^2 + u^2, at most that for any
    u; no such term for v = 0) plus width (the phases' rounding, which
    grows with u*width, over u)."""
    total = sum(
        (math.exp(v * lo) + math.exp(v * hi)) * ((1.0 / abs(v) if v else 0.0) + width)
        for v in (1.0 - alpha, -alpha)
    )
    return 8.0 * np.finfo(float).eps * 2.0 * strike / width * total


class TestCosCut:
    """The cosine series' rounding floor (cos_engine._series_values): the
    two facts its proof rests on, and the bands it leaves."""

    # the most points each profile's 60000-term parity reference may
    # evaluate at T = 1, where the underflow band was heston 1882, kou
    # 1484, cgmy1 414, cgmy2 296
    REFERENCE_BAND = {"heston": 200, "kou": 410, "cgmy1": 100, "cgmy2": 90}

    @_slow
    @given(kind=st.sampled_from(OptionKind), width=st.floats(0.01, 80.0),
           position=st.floats(0.0, 1.0), strike=st.floats(1e-3, 1e5),
           excess=st.one_of(st.just(0.0), st.floats(1e-12, 6.0)))
    def test_payoff_coefficients_are_at_most_the_first(self, kind, width, position, strike,
                                                       excess):
        # the damped payoff is >= 0 on the live part of [a, b], so each
        # cosine moment of it is at most the k = 0 one, up to rounding;
        # alpha runs from the edge of each kind's dampings, 1 for a call
        # and 0 for a put, where one exponent of chi is 0
        a = -position * width
        b = a + width
        call = kind is OptionKind.CALL
        alpha = 1.0 + excess if call else -excess
        coefficients = cos_engine.call_coefficients if call else cos_engine.put_coefficients
        u = np.arange(1024) * (math.pi / width)
        v = coefficients(u, alpha, a, b, strike)
        lo, hi = (max(a, 0.0), b) if call else (a, min(b, 0.0))
        slack = coefficient_rounding(alpha, lo, hi, strike, width)
        eps = np.finfo(float).eps
        assert (np.abs(v[1:]) <= v[0] * (1.0 + 8.0 * eps) + slack).all(), (
            np.abs(v[1:]).max(), v[0], slack)

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    @pytest.mark.parametrize("maturity", [1e-3, 0.1, 1.0, 5.0])
    def test_envelope_at_zero_is_the_moment(self, name, maturity):
        model, market = presets.model_preset(name), presets.market_preset(maturity)
        stable = presets.method_preset(name, Variant.STABLE).damping
        for alpha in (0.0, -0.5, 1.1, stable):
            self.assert_envelope_at_zero_is_the_moment(model, market, alpha)

    @pytest.mark.parametrize("edge", ["T=1e-3", "T=20", "rho=0.999", "rho=-0.999",
                                      "alpha=+-1.99", "alpha=+-1.99,T=5"])
    def test_heston_envelope_at_zero_is_the_moment(self, edge):
        model, maturity, call_alpha, put_alpha = HESTON_EDGES[edge]
        for alpha in (0.0, call_alpha, put_alpha):
            self.assert_envelope_at_zero_is_the_moment(model, heston_market(maturity), alpha)

    @staticmethod
    def assert_envelope_at_zero_is_the_moment(model, market, alpha):
        # Psi(0) = phi(-i*alpha) to rounding; the proof spares a factor 2
        top = _log_envelope(model, market, alpha, 0.0)
        log_moment = math.log(char_fn(model, market, -1j * alpha).real)
        assert abs(top - log_moment) <= 1e-12 * max(1.0, abs(log_moment)), (
            model, market.maturity, alpha, top, log_moment)

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_reference_band(self, monkeypatch, name):
        evaluate = CountingCharFn()
        monkeypatch.setattr(cos_engine, "char_fn", evaluate)
        config = CosConfig(n_terms=60000, range_width=12.0, variant=Variant.PUT_CALL_PARITY)
        price(presets.model_preset(name), presets.market_preset(1.0), OptionSpec(100.0), config)
        [points] = evaluate.sizes
        assert points <= self.REFERENCE_BAND[name]

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_every_bound_value_passes_the_module_function(self, monkeypatch, name):
        # the tests that count bound values patch models._log_envelope, so a
        # reference price and a Carr-Madan column must reach every one of
        # the model's values through it, none from a stored copy
        model, market = presets.model_preset(name), presets.market_preset(1.0)
        calls = {"module": 0, "model": 0}
        module_bound, model_bound = models._log_envelope, type(model)._log_envelope

        def counted(key, bound):
            def wrapper(*args):
                calls[key] += 1
                return bound(*args)
            return wrapper

        monkeypatch.setattr(models, "_log_envelope", counted("module", module_bound))
        monkeypatch.setattr(type(model), "_log_envelope", counted("model", model_bound))
        config = CosConfig(n_terms=60000, range_width=12.0, variant=Variant.PUT_CALL_PARITY)
        price(model, market, OptionSpec(100.0), config)
        price_carr_madan(model, market, [100.0], presets.carr_madan_preset(name))
        assert calls["module"] == calls["model"] > 2

    @pytest.mark.parametrize("name", presets.PROFILE_NAMES)
    def test_preset_bands_are_whole(self, monkeypatch, name):
        # the strike-table presets (N <= 210) end before their floor
        model, market = presets.model_preset(name), presets.market_preset(1.0)
        options = [OptionSpec(k) for k in presets.STRIKE_GRID]
        for variant in Variant:
            try:
                config = presets.method_preset(name, variant).cos_config(variant)
            except PricingError:
                continue  # no direct preset for cgmy2
            evaluate = CountingCharFn()
            monkeypatch.setattr(cos_engine, "char_fn", evaluate)
            price(model, market, options, config)
            assert evaluate.sizes[-1] == config.n_terms, variant
