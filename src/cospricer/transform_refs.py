"""Transform-based reference pricers for cross-validation.

Two independent routes to the same European call value, each pricing a
whole strike column from shared vector work:

``price_carr_madan``
    Inversion of the damped call transform by Simpson's rule on a
    uniform frequency grid, summed directly at every strike's own
    log-moneyness: no log-strike grid, no FFT and no interpolation.
``price_fourier_integral``
    Fixed-node quadrature of the damped Fourier representation of the
    call payoff against the characteristic function: composite 16-point
    Gauss-Legendre on geometric panels, checked by re-running the same
    panels with 32 points each.

Both operate on the log-return characteristic function and are used as
oracles against the cosine-series engine; neither shares code with it
beyond the model layer.  Carr-Madan sums its transform over the live
band of phi only (:func:`models.live_band`): up to the first frequency
from which a proven bound puts the whole remaining tail of the sum below
0.1*eps of its first term, under the sum's own rounding (the per-term
bound is in ``_damped_calls``); where the contour's cap of 2^16 points
ends the band before that floor, it raises.  The Fourier integral
evaluates phi at the nodes of its panels up to the first edge e from
which the rest of the integral is proven below 0.1*eps of its first
node's term (:func:`models.envelope_cut`; the bound is
2*e^(alpha*x)*h(e)*(max_frequency - e), h in ``price_fourier_integral``),
and at max_frequency, and raises when the integrand has not decayed
there.  Both refuse a price by one rule,
:func:`models.check_call_prices`.  Neither pricer checks the contour shift
itself: ``envelope_cut`` does, through ``live_band`` for Carr-Madan.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ComputationError, ValidationError
from .models import (
    ABOVE_ONE,
    POSITIVE,
    TAIL_SHARE,
    MarketSpec,
    ModelSpec,
    char_fn,
    check_call_prices,
    check_fields,
    check_moment,
    check_numbers,
    envelope_cut,
    live_band,
)

__all__ = [
    "CarrMadanConfig",
    "IntegralConfig",
    "price_carr_madan",
    "price_fourier_integral",
]


# the frequency contour of the Carr-Madan sum is capped at this many
# points; every preset's band, cut at live_band's rounding floor, ends
# well before it at T >= 1e-4, and a band the cap cuts is refused
_MAX_FREQUENCIES = 2 ** 16


@dataclass(frozen=True)
class CarrMadanConfig:
    """Damped call transform settings.

    damping is the Carr-Madan exponent applied to the call in log-strike,
    spacing the frequency step eta of the Simpson rule.  The sum is
    2*pi/eta-periodic in the log-strike, so a strike prices only while
    |log(K/S0)| <= strike_span = pi/eta.  The defaults are the heston,
    kou and cgmy1 presets.
    """

    damping: float = 0.75
    spacing: float = 0.05

    def __post_init__(self):
        check_fields(self, damping=POSITIVE, spacing=POSITIVE)

    @property
    def strike_span(self) -> float:
        """Largest |log(K/S0)| priced."""
        return math.pi / self.spacing


@dataclass(frozen=True)
class IntegralConfig:
    """Damped Fourier-integral settings.

    damping is the contour shift alpha; max_frequency truncates the
    frequency integral.  The rule itself is fixed: 16-point
    Gauss-Legendre on panels whose edges start at alpha - 1 and double
    up to max_frequency, checked against 32 points per panel.
    """

    damping: float = 1.1
    max_frequency: float = 5000.0

    def __post_init__(self):
        check_fields(self, damping=ABOVE_ONE, max_frequency=POSITIVE)


# an overflowing transform reads as inf or nan, without NumPy's warning:
# price_carr_madan raises a computation error on a non-finite price
@np.errstate(over="ignore", invalid="ignore")
def _damped_calls(
    model: ModelSpec, market: MarketSpec, config: CarrMadanConfig, log_strikes: np.ndarray
) -> np.ndarray:
    """Re sum_p x_p e^{-i*v_p*k} at each log-strike k in ``log_strikes``;
    the call at k is S0 * exp(-damping*k)/pi times the value at k.

    x_p is the Simpson-weighted transform at v_p = eta*p on the live band
    of phi (:func:`models.live_band`, capped at _MAX_FREQUENCIES points),
    m points, cut at a rounding floor.  With Psi the envelope of |phi|
    along the contour and w(v) = 1/|(alpha + iv)(alpha + 1 + iv)|,
    neither of which increases, |x_p| <= (4*eta/3)*e^{-rT}*Psi(v_p)*w(v_p),
    while |x_0| = (eta/3)*e^{-rT}*Psi(0)*w(0), since
    Psi(0) = phi(-i(alpha + 1)) for every envelope: the Simpson weight
    ratio 4 and w(v_p) <= w(0) give |x_p| <= 4*|x_0|*Psi(v_p)/Psi(0),
    the per-term bound that live_band's floor rests on.  A band that the
    cap ends while its last term still exceeds TAIL_SHARE*|x_0| leaves
    out a tail no bound covers, so it is refused with a computation
    error.

    With p = a + B*b (B about sqrt(m)) each twiddle is the product of
    e^{-i*eta*a*k} and e^{-i*eta*B*b*k}, so one matrix product and one
    reduction give every strike for |K|*(m + B + m/B) work.
    """
    eta = config.spacing
    alpha = config.damping
    phi = live_band(char_fn, model, market, eta, alpha + 1.0, _MAX_FREQUENCIES, _MAX_FREQUENCIES)
    check_moment(alpha + 1.0, phi[0])
    v = eta * np.arange(phi.size)
    # Fourier transform of the exp(alpha*k)-damped call in log-strike k
    psi = market.discount_factor * phi / (
        alpha * alpha + alpha - v * v + 1j * (2.0 * alpha + 1.0) * v
    )
    # Simpson weights eta/3 * (1, 4, 2, 4, ..., 2, 4)
    weights = np.full(v.size, 2.0)
    weights[1::2] = 4.0
    weights[0] = 1.0
    block = math.isqrt(v.size - 1) + 1
    rows = -(-v.size // block)
    terms = np.zeros(rows * block, dtype=complex)
    terms[: v.size] = psi * ((eta / 3.0) * weights)
    if v.size == _MAX_FREQUENCIES and abs(terms[v.size - 1]) > TAIL_SHARE * abs(terms[0]):
        raise ComputationError(
            f"Carr-Madan band reaches the {_MAX_FREQUENCIES}-point cap before its "
            f"rounding floor; the transform decays too slowly for spacing {eta}"
        )

    def twiddles(steps):
        return np.exp(-1j * eta * np.multiply.outer(log_strikes, steps))

    # one row per strike, so the last sum runs along contiguous memory,
    # where NumPy adds pairwise
    inner = twiddles(block * np.arange(rows)) @ terms.reshape(rows, block)
    return (twiddles(np.arange(block)) * inner).sum(axis=1).real


def price_carr_madan(
    model: ModelSpec,
    market: MarketSpec,
    strikes: Sequence[float],
    config: CarrMadanConfig = CarrMadanConfig(),
) -> list[float]:
    """Price European calls for several strikes from one damped transform.

    Parameters
    ----------
    model, market : model parameters and market data.
    strikes : strike levels; each log-moneyness log(K/S0) must lie
        within config.strike_span = pi/spacing of zero.
    config : a CarrMadanConfig; a validation error unless it is one, its
        shift alpha + 1 lies inside :func:`models.damping_bounds` and
        E[(S_T/S_0)^(alpha+1)] is a valid moment.

    Returns
    -------
    list of float
        Call prices in strike order, each the Simpson sum of the
        inverse transform taken at the strike's own log-moneyness.  An
        empty column returns [] without evaluating phi.  A band cut by
        the frequency cap raises ComputationError, and so does a price
        that :func:`models.check_call_prices` refuses.
    """
    if not isinstance(config, CarrMadanConfig):
        raise ValidationError(f"config must be a CarrMadanConfig, got {type(config).__name__}")
    strikes = check_numbers("strikes", strikes, "strike", POSITIVE)
    if not strikes:
        return []
    log_strikes = np.log(np.asarray(strikes) / market.spot)
    span = config.strike_span
    if np.any(np.abs(log_strikes) > span):
        raise ValidationError(
            f"strike outside the Carr-Madan log-strike span (|log(K/S0)| > {span:.3f})"
        )
    calls = _damped_calls(model, market, config, log_strikes)
    prices = market.spot * (np.exp(-config.damping * log_strikes) / math.pi * calls)
    check_call_prices(market, strikes, prices, f"Carr-Madan sum at damping {config.damping}")
    return prices.tolist()


# Gauss-Legendre nodes and weights on [-1, 1]: the rule and its check
_RULE, _CHECK = (np.polynomial.legendre.leggauss(n) for n in (16, 32))


def _panel_nodes(edges: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    x, w = rule
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def price_fourier_integral(
    model: ModelSpec,
    market: MarketSpec,
    strike: Union[float, Sequence[float]],
    config: IntegralConfig = IntegralConfig(),
) -> Union[float, list[float]]:
    """Price European calls by damped Fourier quadrature.

    Evaluates

        v = exp(-r*T)/(2*pi) * integral of
            K/((alpha - i*u)(alpha - 1 - i*u))
            * exp(i*(-u - i*alpha)*x) * phi(-u - i*alpha) du

    over u in [-max_frequency, max_frequency] with x = log(S0/K).  The
    integrand is Hermitian in u, so twice its real part is integrated
    over [0, max_frequency] with 16-point Gauss-Legendre panels.  The
    panel edges start at alpha - 1, the distance from the contour to the
    payoff pole at u = -i(alpha - 1), and double up to max_frequency, so
    each panel sees that pole at the same relative distance.  The same
    panels with 32 points give the returned value.  Three column tests
    run in turn, each raising ComputationError at its first strike at
    fault: the rules differ by over 1e-6 * max(1, |integral|), the
    integrand at the cut times the cut exceeds that, and
    :func:`models.check_call_prices`.

    The panels past an edge e are left out where a proof puts them
    under the sum's rounding.  With f(u) = phi(-u - i*alpha)/
    ((alpha - i*u)(alpha - 1 - i*u)) and Psi the envelope of
    :func:`models.envelope_cut`, |f(u)| <= h(u) =
    Psi(u)/|(alpha - i*u)(alpha - 1 - i*u)|, which does not increase in
    u >= 0; a panel's weights sum to its width, so those panels add at
    most 2*e^(alpha*x)*h(e)*(max_frequency - e) to either rule.  They
    are cut from the first edge where that is below TAIL_SHARE of the
    first node's term, 2*e^(alpha*x)*W_1*Psi(0)/(alpha*(alpha - 1)),
    W_1 the first 32-point weight, as f is real and positive at u = 0;
    e^(alpha*x) cancels, so one edge serves the column.  Where no bound
    is proven every panel is kept.  phi at u = 0 and at max_frequency
    is always evaluated.

    ``strike`` is one strike (returns a float) or a sequence of strikes
    (returns a list in input order).  The characteristic function is
    evaluated once, as one vector, for the whole column, and not at all
    for an empty one.  config must be an IntegralConfig, whose damping
    alpha must lie above 1 (call payoff integrability), inside
    :func:`models.damping_bounds` and leave E[(S_T/S_0)^alpha] a valid
    moment (or a validation error is raised); the result is invariant to
    the alpha chosen, as the tests assert.
    """
    if not isinstance(config, IntegralConfig):
        raise ValidationError(f"config must be an IntegralConfig, got {type(config).__name__}")
    single = isinstance(strike, str) or not isinstance(strike, Iterable)
    strikes = check_numbers("strikes", [strike] if single else strike, "strike", POSITIVE)
    if not strikes:
        return []
    alpha = config.damping
    top = config.max_frequency
    edges = [0.0]
    edge = alpha - 1.0
    while edge < top:
        edges.append(edge)
        edge *= 2.0
    edges = np.append(edges, top)
    # the panel cut of the docstring, relative to log Psi(0)
    share = math.log(TAIL_SHARE * 0.5 * edges[1] * _CHECK[1][0] / (alpha * (alpha - 1.0)))

    def slack(c: int) -> float:
        e = edges[c]
        return share + math.log(math.hypot(alpha, e) * math.hypot(alpha - 1.0, e) / (top - e))

    cut = envelope_cut(model, market, alpha, edges.size - 1, edges.__getitem__, slack)
    edges = edges[: cut + 1]
    u_rule, w_rule = _panel_nodes(edges, _RULE)
    u_check, w_check = _panel_nodes(edges, _CHECK)
    # u = 0 rides along for the moment phi(-i*alpha) = E[(S_T/S_0)^alpha],
    # u = max_frequency for the integrand left at the cut
    u = np.concatenate(([0.0], u_rule, u_check, [top]))
    w = -u - 1j * alpha
    phi = char_fn(model, market, w)
    check_moment(alpha, phi[0])
    integrand = 1.0 / ((alpha - 1j * u) * (alpha - 1.0 - 1j * u)) * phi
    kernel = integrand[1:-1] * np.concatenate((w_rule, w_check))

    x = np.log(market.spot / np.asarray(strikes))
    terms = (kernel * np.exp(1j * np.multiply.outer(x, w[1:-1]))).real
    # 2|integrand|e^(alpha*x) bounds |2 Re(integrand * e^(i*w*x))| at the
    # cut; times the cut frequency it sizes the tail the rule never sees
    tails = 2.0 * abs(integrand[-1]) * np.exp(alpha * x) * top
    rule = 2.0 * terms[:, : u_rule.size].sum(axis=1)
    check = 2.0 * terms[:, u_rule.size :].sum(axis=1)

    tolerance = 1e-6 * np.maximum(1.0, np.abs(check))
    gaps = np.abs(check - rule)
    [bad] = np.nonzero(gaps > tolerance)
    if bad.size:
        raise ComputationError(
            f"Fourier quadrature failed to converge at strike {strikes[bad[0]]:g} "
            f"(16- and 32-point rules differ by {gaps[bad[0]]:.2e})"
        )
    [bad] = np.nonzero(tails > tolerance)
    if bad.size:
        raise ComputationError(
            f"Fourier integral truncated too early at strike {strikes[bad[0]]:g}: the "
            f"integrand at max_frequency={top:g} times the cut is {tails[bad[0]]:.2e}"
        )
    prices = np.asarray(strikes) * market.discount_factor * check / (2.0 * math.pi)
    check_call_prices(market, strikes, prices, f"Fourier integral at damping {alpha}")
    prices = prices.tolist()
    return prices[0] if single else prices
