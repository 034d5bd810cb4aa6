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
forms these endpoints once, as arrays, one payoff row per strike.

A payoff row is a difference of two :func:`chi` values that differ only in
the exponent, so one ``chi`` call forms both from one set of cosines and
sines.  Of its two phases, one has the same offset on every row of a
column (a call's upper offset is the range width, a put's lower offset is
zero), so only the other costs a cosine and a sine per strike and term.
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

def _column(values):
    """A 1-D array as a column, so that it broadcasts against a frequency row."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim else values


def _exp_each(values: np.ndarray) -> np.ndarray:
    """math.exp of every element; an overflow is a computation error.

    math.exp rather than np.exp: the two can differ in the last ulp, which
    the cancellation of the undamped call series magnifies.
    """
    try:
        out = [math.exp(v) for v in values.ravel().tolist()]
    except OverflowError:
        raise ComputationError(
            f"exp({values.max():.6g}) overflows; the truncation range is too wide "
            f"for this series"
        ) from None
    return np.array(out).reshape(values.shape)


def _cos_sin(u: np.ndarray, offset: np.ndarray) -> tuple:
    """cos and sin of the phase u*offset, one row per interval.  An offset
    column that holds the same float on every row (a put's c - a = 0, a
    column's common width) gives one row, which broadcasts to the same
    values; the rows are compared as bits, so that 0.0 and -0.0 stay apart."""
    if offset.ndim:
        bits = offset.view(np.int64)
        if (bits == bits[:1]).all():
            offset = offset[:1]
    phase = u * offset
    return np.cos(phase), np.sin(phase)


def chi(u, v, c, d, a):
    """Closed form of the integral of exp(v*y) * cos(u*(y - a)) over [c, d].

    Vectorized over u.  The bounds c, d and a are scalars, or equal-length
    1-D arrays holding one interval per row, in which case the result has
    one row per interval and one column per frequency.  v is one exponent,
    giving one array, or a sequence of them, giving a list of arrays, one
    per v: the cosines and sines of the phases u*(c - a) and u*(d - a) are
    formed once for every v, and a phase whose offset is the same on every
    row once for all rows, so each array is bit for bit that of a call for
    its v alone.  The v = 0, u = 0 limits are handled explicitly; for v != 0
    the general expression is already exact at u = 0.
    """
    u = np.asarray(u, dtype=float)
    c, d, a = _column(c), _column(d), _column(a)
    ok = np.isfinite(c) & np.isfinite(d) & np.isfinite(a) & (c <= d)
    if not ok.all():
        row = int(np.argmin(ok))
        bad_c, bad_d, bad_a = (float(np.broadcast_to(w, ok.shape).flat[row]) for w in (c, d, a))
        raise ValidationError(
            f"integration bounds must be finite with c <= d, got c={bad_c!r}, d={bad_d!r}, "
            f"a={bad_a!r}" + (f" in row {row}" if ok.ndim else "")
        )
    (cos_c, sin_c), (cos_d, sin_d) = _cos_sin(u, c - a), _cos_sin(u, d - a)

    def value(w):
        if w == 0.0:
            zero = u == 0.0
            out = (sin_d - sin_c) / np.where(zero, 1.0, u)
            return np.where(zero, d - c, out)
        ecv = _exp_each(w * c)
        edv = _exp_each(w * d)
        num = (
            -w * ecv * cos_c
            - u * ecv * sin_c
            + w * edv * cos_d
            + u * edv * sin_d
        )
        return num / (w * w + u * u)

    return [value(w) for w in v] if np.ndim(v) else value(v)


def _payoff_coefficients(u, alpha: float, a, b, strike, kind: OptionKind) -> np.ndarray:
    """Cosine coefficients of the damped payoff of kind, one row per range.

    The damped call and put payoffs are +-K*(e^y - 1)*e^(-alpha*y) on
    [lo, hi] = [max(a, 0), b] for a call, [a, min(b, 0)] for a put.  a, b
    and strike are equal-length 1-D arrays, the recentred ranges and their
    strikes, one row each, zero unless lo < hi; one column per frequency u.
    """
    a, b, strike = (np.asarray(v, dtype=float) for v in (a, b, strike))
    if kind is OptionKind.CALL:
        scale, lo, hi = 2.0 * strike, np.maximum(a, 0.0), b
    else:
        scale, lo, hi = -2.0 * strike, a, np.minimum(b, 0.0)
    live = lo < hi
    a, lo, hi = a[live], lo[live], hi[live]
    out = np.zeros(live.shape + np.shape(u))
    # (e^y - 1)*e^(-alpha*y) = e^((1 - alpha)*y) - e^(-alpha*y): one chi call for both
    with_e, without_e = chi(u, (1.0 - alpha, -alpha), lo, hi, a)
    out[live] = _column(scale[live] / (b[live] - a)) * (with_e - without_e)
    return out


def call_coefficients(u, alpha: float, a, b, strike) -> np.ndarray:
    """Cosine coefficients of the damped call payoff K*(e^y - 1)^+ * e^(-alpha*y)
    on the ranges [a, b] (:func:`_payoff_coefficients`)."""
    return _payoff_coefficients(u, alpha, a, b, strike, OptionKind.CALL)


def put_coefficients(u, alpha: float, a, b, strike) -> np.ndarray:
    """Cosine coefficients of the damped put payoff K*(1 - e^y)^+ * e^(-alpha*y)
    on the ranges [a, b] (:func:`_payoff_coefficients`)."""
    return _payoff_coefficients(u, alpha, a, b, strike, OptionKind.PUT)


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def _fsum(terms: list) -> float:
    """math.fsum, reading a sum that overflows or meets inf - inf as nan."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _tail_may_overflow(
    alpha: float, a: np.ndarray, b: np.ndarray, strikes: np.ndarray,
    u_first: float, u_last: float,
) -> bool:
    """Whether a payoff coefficient at a frequency u in [u_first, u_last]
    could overflow.

    Such a coefficient makes the full series' row sum non-finite; past
    the live band the density is padded with exact zeros, and 0 * inf is
    nan, so the cut row sum fails too.  Each of the four summands of
    :func:`chi`'s numerator is at most (|v| + u) * e^(v*y) for v in
    {1 - alpha, -alpha}, so |v| <= 1 + |alpha|, and y in the row's range,
    so v*y peaks at an end of [a, b]; dividing by v^2 + u^2 multiplies
    by at most max(1, 1/u_first^2); a payoff row is 2K/width times a
    difference of two chi values.  That bound is compared with 1e300, in logs.
    """
    exponent = np.maximum.reduce([(1.0 - alpha) * a, (1.0 - alpha) * b, -alpha * a, -alpha * b])
    scale = np.log(np.maximum(1.0, 2.0 * strikes / (b - a)))
    log_bound = (
        math.log(8.0 * (1.0 + abs(alpha) + u_last))
        + 2.0 * max(0.0, -math.log(u_first))
        + float(np.max(exponent + scale))
    )
    return log_bound > math.log(1e300)


# an overflowing coefficient or term reads as inf or nan, without NumPy's
# warning: the caller raises a computation error on it
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
) -> list:
    """Series values for the strikes with log-moneyness x, discounted: one
    array, in strike order, per term count in counts.  Each strike's range
    is base recentred by its x, [base.a + x, base.b + x], formed here once,
    as two arrays, for the payoff coefficients and the overflow test.

    The frequencies u_k = k*pi/width do not depend on the term count, so
    the terms are formed once, at the largest count, and each count sums
    its prefix of them.  The sum runs over the live band of
    phi(u_k - i*alpha) only (:func:`models.live_band`, capped at
    _MAX_TERMS terms), whose floor is proven to lie under the sum's
    rounding once every term has |t_k| <= 4*|t_0|*Psi(u_k)/Psi(0), Psi
    the envelope of |phi| that live_band reads:

    - a row's damped payoff is >= 0 on its [lo, hi] (a put's sign is in
      its scale), so each payoff coefficient, 2/width times a cosine
      moment of it, has |V_k| <= V_0;
    - the density coefficient Re(e^(-i*u_k*a)*phi(u_k - i*alpha)) is at
      most Psi(u_k) in modulus, and at k = 0 it is the moment
      phi(-i*alpha) = Psi(0);
    - so with t_0 halved, |t_k| <= 2*|t_0|*Psi(u_k)/Psi(0) on every
      strike row, whatever its strike.

    The factor 2 to spare covers Psi(0) exceeding the computed
    phi(-i*alpha), which it does only by rounding; a computed V_k
    exceeds V_0 only by the rounding of the chi values that V_0 also
    carries.

    Where a payoff coefficient past the band could overflow, phi is
    padded with zeros to the full grid so that 0 * inf still reads as a
    failure, as the full series' phi * inf does.  That test only grows
    with the term count, and where a smaller count would not pad, its
    extra terms are 0 * finite, so every prefix sum is the value a series
    of that count alone gives.
    """
    n_terms = max(counts)
    step = math.pi / base.width
    phi = live_band(char_fn, model, market, step, alpha, n_terms, _MAX_TERMS)
    a, b = base.a + x, base.b + x
    live = phi.size
    if live < n_terms and _tail_may_overflow(
        alpha, a, b, strikes, live * step, (n_terms - 1) * step
    ):
        phi = np.concatenate((phi, np.zeros(n_terms - live, dtype=complex)))
    u = np.arange(phi.size) * step
    # x - a = -base.a for every recentred range, so one phase serves all strikes
    density = np.real(np.exp(-1j * u * base.a) * phi)
    coefficients = call_coefficients if kind is OptionKind.CALL else put_coefficients
    payoff = coefficients(u, alpha, a, b, strikes)
    width = b - a
    terms = _column(2.0 * _exp_each(alpha * x) / width) * density * payoff
    terms[:, 0] *= 0.5
    rows = terms.tolist()
    scale = 0.5 * width * market.discount_factor
    # error-free accumulation; the direct call series trades accuracy for it.
    # A count that reaches past the band sums whole rows, without a copy
    return [
        scale * np.array([_fsum(row if n >= phi.size else row[:n]) for row in rows])
        for n in counts
    ]


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

    if config.variant is Variant.PUT_CALL_PARITY:
        forward = market.spot * market.dividend_factor
        put_values = _series_values(model, market, OptionKind.PUT, 0.0, base, x, strikes, counts)
        values = [put + forward - strikes * market.discount_factor for put in put_values]
    else:
        values = _series_values(model, market, kind, alpha, base, x, strikes, counts)

    ranges = [TruncationRange(a=base.a + shift, b=base.b + shift) for shift in x.tolist()]

    curve = []
    for n, row in zip(counts, values):
        results = []
        for value, opt, rng in zip(row.tolist(), options, ranges):
            if not math.isfinite(value):
                raise ComputationError(
                    f"cosine series produced a non-finite value at strike {opt.strike} "
                    f"(variant={config.variant.value}, n_terms={n}, "
                    f"range=[{rng.a:.3f}, {rng.b:.3f}])"
                )
            results.append(PriceResult(price=value, n_terms=n, damping=alpha, range=rng))
        curve.append(tuple(results))
    return curve


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
    strike adds one row of payoff coefficients and one sum.

    Raises a configuration error when the damped variant is asked to price a
    call with alpha <= 1 or a put with alpha > 0 (the damped payoff grows
    without bound there), or when the parity variant is asked for a put; a
    validation error when alpha leaves :func:`models.damping_bounds` or its
    moment is not valid; a computation error when a value is not finite.
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
