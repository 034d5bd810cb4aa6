"""Fourier-cosine pricing of European calls and puts.

The series is evaluated in three variants sharing one kernel:

``stable``
    Damped expansion.  The payoff is multiplied by exp(-alpha*y) before the
    cosine coefficients are formed and the damping is undone inside the
    density coefficients, which keeps every summand bounded for calls.
    The damped payoff is bounded only for alpha > 1 (calls) and
    alpha <= 0 (puts), so other values are refused.
``direct``
    The classic expansion; identical to ``stable`` with alpha = 0.  For call
    payoffs the coefficients grow like exp(b), which invites catastrophic
    cancellation on wide truncation ranges.
``parity``
    Prices the undamped put and maps it to the call through put-call parity.

Every variant sums only the live band of phi(u_k - i*alpha)
(:func:`models.live_band`, capped at ``_MAX_TERMS``): phi is evaluated,
and the terms summed, only before the first k from which a proven bound
puts every remaining term of every strike's series, together, under
``models.TAIL_SHARE`` of that series' first term (the per-term bound is
in ``_series_values``).  A price therefore differs from the sum over all
n_terms by less than that share of its first term plus the sum's
rounding, and the cut does not depend on n_terms.

The frequencies u_k = k*pi/(b - a) depend on neither the term count nor
the strike.  :func:`price_curve` prices one option at several term counts
from one series, built at the largest count, each price the sum of a
prefix of it; :func:`price` is its one-count case, for a batch of strikes
whose ranges are [a + x, b + x], x each strike's log-moneyness: the series
forms these endpoints once, as arrays, one row per strike.

A strike enters its series only through one integration limit, so no
payoff coefficient is formed: each series is summed in closed form
(:func:`_column_sums`) against weight vectors that the density
coefficients give once per column.  Of a row's two phases, one has the
same offset on every row of a column (a call's upper offset is the range
width, a put's lower offset is zero), so only the other costs a cosine
and a sine per strike and term.  :func:`chi` and the payoff coefficients
are a term-by-term reference that the tests sum exactly; no price path
calls them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ComputationError, ConfigurationError, ValidationError
from .models import (
    MarketSpec,
    ModelSpec,
    TruncationRange,
    char_fn,
    check_moment,
    cumulants,
    live_band,
    truncation_range,
)

__all__ = [
    "OptionKind",
    "OptionSpec",
    "Variant",
    "CosConfig",
    "PriceResult",
    "chi",
    "call_coefficients",
    "put_coefficients",
    "price",
    "price_curve",
    "term_counts",
]

DEFAULT_CALL_DAMPING = 1.1
DEFAULT_PUT_DAMPING = 0.0

# the most terms whose band live_band cuts at the rounding floor; a
# longer series keeps the underflow floor
_MAX_TERMS = 2 ** 30


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


class Variant(Enum):
    STABLE = "stable"
    DIRECT = "direct"
    PUT_CALL_PARITY = "parity"


@dataclass(frozen=True)
class OptionSpec:
    strike: float
    kind: OptionKind = OptionKind.CALL

    def __post_init__(self):
        if not (self.strike > 0.0 and math.isfinite(self.strike)):
            raise ValidationError(f"strike must be positive and finite, got {self.strike}")
        if not isinstance(self.kind, OptionKind):
            raise ValidationError(f"kind must be an OptionKind member, got {self.kind!r}")


@dataclass(frozen=True)
class CosConfig:
    """Series configuration.

    n_terms is the number of cosine terms, a positive whole number by the
    rule of :func:`term_counts`, stored as an int; range_width the cumulant
    half-width multiplier L, damping the exponent alpha of the stable
    variant (None picks 1.1 for calls and 0 for puts; a call needs
    alpha > 1 and a put alpha <= 0, and pricing checks it against the
    model).  The other variants are undamped, so they refuse a damping.
    """

    n_terms: int
    range_width: float
    damping: Optional[float] = None
    variant: Variant = Variant.STABLE

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise ValidationError(f"variant must be a Variant member, got {self.variant!r}")
        try:
            [n_terms] = term_counts((self.n_terms,))
        except ValidationError:
            raise ValidationError(
                f"n_terms must be a positive whole number, got {self.n_terms!r}"
            ) from None
        object.__setattr__(self, "n_terms", n_terms)
        if not (self.range_width > 0.0 and math.isfinite(self.range_width)):
            raise ValidationError(f"range_width must be positive, got {self.range_width}")
        if self.damping is not None and not math.isfinite(self.damping):
            raise ValidationError("damping must be finite")
        if self.damping is not None and self.variant is not Variant.STABLE:
            raise ConfigurationError(
                f"damping {self.damping} applies to the stable variant only, "
                f"not {self.variant.value}"
            )


@dataclass(frozen=True)
class PriceResult:
    """A price and what the engine decided for it: the term count, the
    resolved damping alpha, and the strike's recentred truncation range."""

    price: float
    n_terms: int
    damping: float
    range: TruncationRange


# ---------------------------------------------------------------------------
# cosine coefficients
# ---------------------------------------------------------------------------

def _exp_each(values: np.ndarray) -> np.ndarray:
    """np.exp of every element of finite values; an overflow, which the
    caller's errstate reads as inf without a warning, is a computation error."""
    out = np.exp(values)
    if np.isinf(out).any():
        raise ComputationError(f"exp({values.max():.6g}) overflows; the truncation range "
                               f"is too wide for this series")
    return out


def _distinct(offset: np.ndarray) -> np.ndarray:
    """offset, or its first row where every row holds the same float (a
    put's c - a = 0, a column's common width): a phase formed from it
    broadcasts to the same values.  The rows are compared as bits, so that
    0.0 and -0.0 stay apart."""
    if offset.size > 1:
        bits = offset.view(np.int64)
        if (bits == bits[:1]).all():
            return offset[:1]
    return offset


def _exponential_integral(w, e_c, e_d, span):
    """The integral of exp(w*y) over [c, d], given e^(w*c), e^(w*d) and
    span = d - c, for a scalar w or an array of them: the larger
    exponential times (1 - e^(-|w|*span))/|w|, span itself at w = 0.  The
    difference (e^(w*d) - e^(w*c))/w would lose eps*e^(w*d)/|w| to
    cancellation as w -> 0, and the smaller exponential times an expm1
    could overflow where the integral does not."""
    decline = -np.abs(w)
    nonzero = decline < 0.0
    decay = np.expm1(decline * span) / np.where(nonzero, decline, -1.0)
    return np.where(nonzero, np.where(w > 0.0, e_d, e_c) * decay, span)


# an overflowing exponential reads as inf, which _exp_each refuses
@np.errstate(over="ignore")
def chi(u, v: float, c: float, d: float, a: float) -> np.ndarray:
    """Closed form of the integral of exp(v*y) * cos(u*(y - a)) over [c, d].

    Vectorized over u, for one exponent v and scalar bounds.  At u = 0 the
    integral of exp(v*y) is formed without the general expression's
    cancellation (:func:`_exponential_integral`).
    """
    u = np.asarray(u, dtype=float)
    c, d, a = float(c), float(d), float(a)
    if not (math.isfinite(c) and math.isfinite(d) and math.isfinite(a) and c <= d):
        raise ValidationError(
            f"integration bounds must be finite with c <= d, got c={c!r}, d={d!r}, a={a!r}"
        )
    (cos_c, sin_c), (cos_d, sin_d) = ((np.cos(p), np.sin(p)) for p in (u * (c - a), u * (d - a)))
    zero = u == 0.0
    if v == 0.0:
        return np.where(zero, d - c, (sin_d - sin_c) / np.where(zero, 1.0, u))
    e_c, e_d = _exp_each(np.array((v * c, v * d)))
    num = -v * e_c * cos_c - u * e_c * sin_c + v * e_d * cos_d + u * e_d * sin_d
    return np.where(zero, _exponential_integral(v, e_c, e_d, d - c), num / (v * v + u * u))


def _payoff_coefficients(u, alpha: float, a: float, b: float, strike: float, kind: OptionKind):
    """Cosine coefficients, one per frequency u, of the damped payoff of kind
    on the range [a, b]: +-K*(e^y - 1)*e^(-alpha*y) on [lo, hi] =
    [max(a, 0), b] for a call, [a, min(b, 0)] for a put, zero unless lo < hi."""
    if kind is OptionKind.CALL:
        scale, lo, hi = 2.0 * strike, max(a, 0.0), b
    else:
        scale, lo, hi = -2.0 * strike, a, min(b, 0.0)
    if not lo < hi:
        return np.zeros(np.shape(u))
    # (e^y - 1)*e^(-alpha*y) = e^((1 - alpha)*y) - e^(-alpha*y)
    return scale / (b - a) * (chi(u, 1.0 - alpha, lo, hi, a) - chi(u, -alpha, lo, hi, a))


def call_coefficients(u, alpha: float, a: float, b: float, strike: float) -> np.ndarray:
    """Cosine coefficients of the damped call payoff K*(e^y - 1)^+ * e^(-alpha*y)
    on the range [a, b] (:func:`_payoff_coefficients`)."""
    return _payoff_coefficients(u, alpha, a, b, strike, OptionKind.CALL)


def put_coefficients(u, alpha: float, a: float, b: float, strike: float) -> np.ndarray:
    """Cosine coefficients of the damped put payoff K*(1 - e^y)^+ * e^(-alpha*y)
    on the range [a, b] (:func:`_payoff_coefficients`)."""
    return _payoff_coefficients(u, alpha, a, b, strike, OptionKind.PUT)


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def _column_sums(g: np.ndarray, u: np.ndarray, alpha: float, c, d, a, ends) -> tuple:
    """Sum_{k<n} g_k*(chi(u_k, 1 - alpha) - chi(u_k, -alpha)) on each row
    [c, d] with offset a, in closed form, for every n in ends (each at
    most u.size); also a bound on the sum of the magnitudes of its
    summands.  Returns the sums and the bounds, each one row per n and
    one column per row.

    g is the density row with g_0 halved.  For an exponent w, chi's
    closed form splits each summand k >= 1 into the weights
    p_k = g_k*w/(w^2 + u_k^2) and q_k = g_k*u_k/(w^2 + u_k^2), which no
    row changes, and the cosines and sines of the row's two phases:

        sum_k g_k*chi_w(u_k) = e^(w*d)*L(d - a) - e^(w*c)*L(c - a) + g_0*I_w,
        L(theta) = sum_{k>=1} p_k*cos(u_k*theta) + q_k*sin(u_k*theta),

    I_w the integral of e^(w*y) over [c, d] (:func:`_exponential_integral`).
    A phase whose offset is the same float on every row is one row
    (:func:`_distinct`).  Each row's products are formed once, over the
    whole band, and each n reduces its own prefix of that row alone with
    NumPy's pairwise sum, so a row's sums do not depend on the other rows
    or on the other counts.  The bound is
    sum_w (e^(w*c) + e^(w*d))*sum_{1<=k<n}(|p_k| + |q_k|) + |g_0*I_w|,
    its inner sums read from one cumulative sum.
    """
    w = np.array([[1.0 - alpha], [-alpha]])
    u1 = u[1:]
    weight = g[1:] / (w * w + u1 * u1)
    p, q = weight * w, weight * u1
    # reach[n - 1] = sum_{1<=k<n} |p_k| + |q_k|
    reach = np.zeros((u.size, 2))
    np.cumsum((np.abs(p) + np.abs(q)).T, axis=0, out=reach[1:])
    # per row and exponent: (rows, 2)
    w = w[:, 0]
    e_c, e_d = _exp_each(np.array((c, d))[:, :, None] * w)
    first = g[0] * _exponential_integral(w, e_c, e_d, (d - c)[:, None])
    # the rows of both phases, one cosine and sine call and one product for
    # each row and exponent: (phase rows, 2, terms)
    offsets = _distinct(c - a), _distinct(d - a)
    phase = u1 * np.concatenate(offsets)[:, None]
    products = np.cos(phase)[:, None, :] * p + np.sin(phase)[:, None, :] * q
    # (counts, phase rows, 2); the rest is elementwise, for every count at once
    sums = np.array([np.add.reduce(products[..., : n - 1], axis=-1) for n in ends])
    split = offsets[0].size
    terms = e_d * sums[:, split:] - e_c * sums[:, :split] + first
    magnitude = (e_c + e_d) * reach[[n - 1 for n in ends], None] + np.abs(first)
    return terms[..., 0] - terms[..., 1], magnitude[..., 0] + magnitude[..., 1]


# an overflowing product or bound reads as inf or nan, without NumPy's warning
@np.errstate(over="ignore", invalid="ignore")
def _series_values(
    model: ModelSpec,
    market: MarketSpec,
    kind: OptionKind,
    alpha: float,
    base: TruncationRange,
    x: np.ndarray,
    strikes: np.ndarray,
    counts: tuple,
) -> np.ndarray:
    """Series values for the strikes with log-moneyness x, discounted: one
    row, in strike order, per term count in counts, nan where a value is
    refused.  Each strike's range is base recentred by its x,
    [a, b] = [base.a + x, base.b + x]; its damped payoff
    +-K*(e^y - 1)*e^(-alpha*y) lives on [c, d] = [max(a, 0), b] for a
    call, [a, min(b, 0)] for a put, and a row with c >= d prices 0.

    The frequencies u_k = k*pi/width do not depend on the term count, so
    the density row is formed once, at the largest count, and each count
    sums its prefix of it (:func:`_column_sums`).  The sum runs over the
    live band of phi(u_k - i*alpha) only (:func:`models.live_band`,
    capped at _MAX_TERMS terms), whose floor is proven to lie under the
    sum's rounding once every term t_k = g_k*V_k, never formed, has
    |t_k| <= 4*|t_0|*Psi(u_k)/Psi(0), Psi the envelope of |phi| that
    live_band reads:

    - a row's damped payoff is >= 0 on its [c, d] (a put's sign is in
      its scale), so each payoff coefficient V_k, 2/width times a cosine
      moment of it, has |V_k| <= V_0;
    - the density coefficient g_k = Re(e^(-i*u_k*a)*phi(u_k - i*alpha))
      is at most Psi(u_k) in modulus, and at k = 0 it is the moment
      phi(-i*alpha) = Psi(0);
    - so with t_0 halved, |t_k| <= 2*|t_0|*Psi(u_k)/Psi(0) on every
      strike row, whatever its strike.

    The factor 2 to spare covers Psi(0) exceeding the computed
    phi(-i*alpha), which it does only by rounding.

    A value is refused where the bound on the magnitudes of its summands,
    in price units, is not below 1e300: its sum cannot then be trusted to
    be finite, nor its rounding to be below the price.
    """
    step = math.pi / base.width
    phi = live_band(char_fn, model, market, step, alpha, max(counts), _MAX_TERMS)
    u = np.arange(phi.size) * step
    # x - a = -base.a for every recentred range, so one phase serves all strikes
    g = np.real(np.exp(u * (-1j * base.a)) * phi)
    g[0] *= 0.5
    a, b = base.a + x, base.b + x
    if kind is OptionKind.CALL:
        sign, c, d = 1.0, np.maximum(a, 0.0), b
    else:
        sign, c, d = -1.0, a, np.minimum(b, 0.0)
    factor = (sign * 2.0 * market.discount_factor) * strikes * _exp_each(alpha * x) / (b - a)
    live = c < d
    ends = [min(n, phi.size) for n in counts]
    sums, bounds = _column_sums(g, u, alpha, c[live], d[live], a[live], ends)
    values = np.zeros((len(counts), x.size))
    values[:, live] = np.where(np.abs(factor[live]) * bounds < 1e300, factor[live] * sums, math.nan)
    return values


def _resolve_damping(config: CosConfig, kind: OptionKind) -> float:
    """The damping alpha that config prices kind with: 0 for the undamped
    variants, else config.damping or kind's default.  A configuration error
    where the parity variant is asked for a put, or where alpha leaves the
    damped payoff unbounded: a call needs alpha > 1, a put alpha <= 0."""
    if config.variant is Variant.PUT_CALL_PARITY and kind is OptionKind.PUT:
        raise ConfigurationError("parity variant prices calls; request the put directly")
    if config.variant is not Variant.STABLE:
        return 0.0
    call = kind is OptionKind.CALL
    default = DEFAULT_CALL_DAMPING if call else DEFAULT_PUT_DAMPING
    alpha = default if config.damping is None else config.damping
    if call and alpha <= 1.0:
        raise ConfigurationError("alpha must exceed 1 for stable call pricing")
    if not call and alpha > 0.0:
        raise ConfigurationError("alpha must not exceed 0 for stable put pricing")
    return alpha


def term_counts(n_values) -> tuple:
    """n_values as a tuple of ints, refusing an empty sequence and any
    entry that is not a positive whole number (a bool is not one; 1e3 is)."""
    try:
        values = tuple(n_values)
    except TypeError:
        raise ValidationError(f"term counts must be a sequence, got {n_values!r}") from None
    if not values:
        raise ValidationError("term counts must be non-empty")
    for n in values:
        if (isinstance(n, (bool, np.bool_)) or not isinstance(n, numbers.Real)
                or not (math.isfinite(n) and n >= 1 and n == int(n))):
            raise ValidationError(f"term counts must be positive whole numbers, got {n!r}")
    return tuple(int(n) for n in values)


def _price_counts(
    model: ModelSpec,
    market: MarketSpec,
    options: tuple,
    config: CosConfig,
    counts: tuple,
) -> list:
    """One tuple of PriceResults, in option order, per term count in counts;
    config supplies every setting but the term count.

    The range is sized from the cumulants of the law the series expands,
    tilted by alpha: K(alpha + s).  Before that contour is read, a damping
    is checked on its strip (by char_fn), then on its moment, so that each
    refusal names its own fault.
    """
    if not options:
        raise ValidationError("price needs at least one option")
    kind = options[0].kind
    if any(opt.kind is not kind for opt in options):
        raise ValidationError("a batch of options must share one kind")
    alpha = _resolve_damping(config, kind)
    if alpha != 0.0:
        check_moment(alpha, char_fn(model, market, -1j * alpha))

    cums = cumulants(model, market, alpha)
    strikes = np.array([opt.strike for opt in options])
    x = np.array([math.log(market.spot / opt.strike) for opt in options])
    # the expansion variable is log-moneyness y = log(S_T/K), so the cumulant
    # window of the log return is recentered by x per strike
    base = truncation_range(cums, config.range_width)

    # parity prices the undamped put (alpha = 0) and maps it to the call
    parity = config.variant is Variant.PUT_CALL_PARITY
    series_kind = OptionKind.PUT if parity else kind
    values = np.asarray(_series_values(model, market, series_kind, alpha, base, x, strikes, counts))
    if parity:
        values = values + market.spot * market.dividend_factor - strikes * market.discount_factor

    if not np.isfinite(values).all():
        # the first refused value in row order: the first count, then the first strike
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise ComputationError(
            f"cosine series value at strike {options[col].strike} is not finite, or its "
            f"summands could reach 1e300 (variant={config.variant.value}, n_terms={counts[row]}, "
            f"range=[{base.a + x[col]:.3f}, {base.b + x[col]:.3f}])"
        )
    ranges = [TruncationRange(a=base.a + shift, b=base.b + shift) for shift in x.tolist()]
    return [tuple(PriceResult(price=value, n_terms=n, damping=alpha, range=rng)
                  for value, rng in zip(row, ranges)) for n, row in zip(counts, values.tolist())]


def price(
    model: ModelSpec,
    market: MarketSpec,
    option: Union[OptionSpec, Sequence[OptionSpec]],
    config: CosConfig,
) -> Union[PriceResult, tuple[PriceResult, ...]]:
    """Price a European option, or a batch of options, by the cosine expansion.

    option is one OptionSpec, giving one PriceResult, or a non-empty
    sequence of OptionSpecs of one kind, giving a tuple of PriceResults in
    input order.  The cumulants, the truncation range, the frequency grid
    and the characteristic function are computed once per call; each
    strike adds one cosine and one sine row of its own phase and one sum
    per row.

    Raises a configuration error when the damped variant is asked to price a
    call with alpha <= 1 or a put with alpha > 0 (the damped payoff grows
    without bound there), or when the parity variant is asked for a put; a
    validation error when alpha leaves :func:`models.damping_bounds` or its
    moment is not valid; a computation error when the exponential of a
    range end overflows, or a value's summands could reach 1e300.
    """
    options = (option,) if isinstance(option, OptionSpec) else tuple(option)
    [results] = _price_counts(model, market, options, config, (config.n_terms,))
    return results[0] if isinstance(option, OptionSpec) else results


def price_curve(
    model: ModelSpec,
    market: MarketSpec,
    option: OptionSpec,
    config: CosConfig,
    n_values: Sequence[int],
) -> tuple[PriceResult, ...]:
    """Price one option at every term count in n_values, in input order.

    config supplies every setting but the term count; its n_terms is not
    read.  The frequencies do not depend on the term count, so the whole
    curve is one series at the largest count, each price the sum of its
    prefix: every PriceResult is bit-identical to what :func:`price` gives
    at that count alone.  Errors are those of :func:`price`; a non-finite
    value names the first term count, in input order, that gives one.
    """
    if not isinstance(option, OptionSpec):
        raise ValidationError(f"price_curve prices one OptionSpec, got {type(option).__name__}")
    counts = term_counts(n_values)
    return tuple(results[0] for results in _price_counts(model, market, (option,), config, counts))
