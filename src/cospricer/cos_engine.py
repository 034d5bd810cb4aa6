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

Every variant sums only the live band of phi(u_k - i*alpha): the terms
up to the last k where phi has not underflowed to an exact zero
(:func:`models.live_band`).  The terms past it are exact zeros and leave
the error-free sum unchanged, so each price is bit-identical to the sum
over all n_terms.  For Kou and for CGMY with -1 < Y < 2, |phi| provably
does not increase along the grid (each u-dependent term of its
Re log phi is non-increasing; the proof is in ``models``), so phi itself
is evaluated in doubling blocks that stop at the first all-zero one.
For Heston a non-increasing closed-form bound on |phi| (also proved in
``models``) locates the first term from which phi underflows, and phi is
evaluated only before it.

The frequencies u_k = k*pi/(b - a) do not depend on the term count, so
:func:`price_curve` prices one option at several term counts from one
series, built at the largest count, each price the sum of a prefix of it.
:func:`price` is the one-count case of the same kernel.
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
    damping_bounds,
    live_band,
    truncation_range,
)

__all__ = [
    "OptionKind",
    "OptionSpec",
    "Variant",
    "CosConfig",
    "PricingContext",
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

    n_terms is the number of cosine terms, range_width the cumulant
    half-width multiplier L, damping the exponent alpha used by the stable
    variant (None picks 1.1 for calls and 0 for puts; a call needs
    alpha > 1 and a put alpha <= 0).
    """

    n_terms: int
    range_width: float
    damping: Optional[float] = None
    variant: Variant = Variant.STABLE

    def __post_init__(self):
        if not (isinstance(self.n_terms, int) and self.n_terms >= 1):
            raise ValidationError(f"n_terms must be a positive integer, got {self.n_terms}")
        if not (self.range_width > 0.0 and math.isfinite(self.range_width)):
            raise ValidationError(f"range_width must be positive, got {self.range_width}")
        if self.damping is not None and not math.isfinite(self.damping):
            raise ValidationError("damping must be finite")


@dataclass(frozen=True)
class PricingContext:
    """Resolved per-price quantities: log-moneyness, range and discounting."""

    x: float
    range: TruncationRange
    discount: float

    def __post_init__(self):
        if not (0.0 < self.discount and math.isfinite(self.discount)):
            raise ValidationError("discount factor must be positive and finite")


@dataclass(frozen=True)
class PriceResult:
    price: float
    variant: Variant
    n_terms: int
    range_width: float
    damping: float
    context: PricingContext


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


def chi(u, v: float, c, d, a):
    """Closed form of the integral of exp(v*y) * cos(u*(y - a)) over [c, d].

    Vectorized over u.  The bounds c, d and a are scalars, or equal-length
    1-D arrays holding one interval per row, in which case the result has
    one row per interval and one column per frequency.  The v = 0, u = 0
    limits are handled explicitly; for v != 0 the general expression is
    already exact at u = 0.
    """
    u = np.asarray(u, dtype=float)
    c, d, a = _column(c), _column(d), _column(a)
    if (c > d).any():
        raise ValidationError(f"integration bounds must satisfy c <= d, got [{c}, {d}]")
    phase_c = u * (c - a)
    phase_d = u * (d - a)
    if v == 0.0:
        zero = u == 0.0
        out = (np.sin(phase_d) - np.sin(phase_c)) / np.where(zero, 1.0, u)
        return np.where(zero, d - c, out)
    ecv = _exp_each(v * c)
    edv = _exp_each(v * d)
    num = (
        -v * ecv * np.cos(phase_c)
        - u * ecv * np.sin(phase_c)
        + v * edv * np.cos(phase_d)
        + u * edv * np.sin(phase_d)
    )
    return num / (v * v + u * u)


def _rows(rng, strike):
    """Endpoints, widths and strikes, one entry per row, of one range and
    strike or of a sequence of ranges and their strikes."""
    ranges = (rng,) if isinstance(rng, TruncationRange) else tuple(rng)
    a = np.array([r.a for r in ranges])
    b = np.array([r.b for r in ranges])
    width = np.array([r.width for r in ranges])
    return a, b, width, np.asarray(strike, dtype=float).reshape(a.shape)


def call_coefficients(u, alpha: float, rng, strike):
    """Cosine coefficients of the damped call payoff K*(e^y - 1)^+ * e^(-alpha*y).

    The payoff vanishes below y = 0, so the integral runs over
    [max(a, 0), b]; a range entirely below zero yields zero coefficients.
    rng and strike are one TruncationRange and one strike, giving one
    coefficient per frequency, or a sequence of ranges and as many
    strikes, giving one row per range.
    """
    u = np.asarray(u, dtype=float)
    a, b, width, strike = _rows(rng, strike)
    live = b > 0.0
    a, b = a[live], b[live]
    lo = np.maximum(a, 0.0)
    out = np.zeros((live.size,) + u.shape)
    out[live] = _column(2.0 * strike[live] / width[live]) * (
        chi(u, 1.0 - alpha, lo, b, a) - chi(u, -alpha, lo, b, a)
    )
    return out[0] if isinstance(rng, TruncationRange) else out


def put_coefficients(u, alpha: float, rng, strike):
    """Cosine coefficients of the damped put payoff K*(1 - e^y)^+ * e^(-alpha*y).

    The integral runs over [a, min(b, 0)]; a range entirely above zero
    yields zero coefficients.  rng and strike are broadcast as in
    :func:`call_coefficients`.
    """
    u = np.asarray(u, dtype=float)
    a, b, width, strike = _rows(rng, strike)
    live = a < 0.0
    a, b = a[live], b[live]
    hi = np.minimum(b, 0.0)
    out = np.zeros((live.size,) + u.shape)
    out[live] = _column(2.0 * strike[live] / width[live]) * (
        chi(u, -alpha, a, hi, a) - chi(u, 1.0 - alpha, a, hi, a)
    )
    return out[0] if isinstance(rng, TruncationRange) else out


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
    alpha: float, base: TruncationRange, x: np.ndarray, strikes: np.ndarray,
    u_first: float, u_last: float,
) -> bool:
    """Whether a payoff coefficient at a frequency u in [u_first, u_last]
    could overflow.

    Past the live band the density is an exact zero and 0 * inf is nan,
    so such a coefficient would still make its row's sum non-finite; the
    band is then not cut.  Each of the four summands of :func:`chi`'s
    numerator is at most (|v| + u) * e^(v*y) for v in {1 - alpha, -alpha},
    so |v| <= 1 + |alpha|, and y in the row's range, so v*y peaks at an
    end of [a, b]; dividing by v^2 + u^2 multiplies by at most
    max(1, 1/u_first^2); a payoff row is 2K/width times a difference of
    two chi values.  That bound is compared with 1e300, in logs.
    """
    a, b = base.a + x, base.b + x
    exponent = np.maximum.reduce([(1.0 - alpha) * a, (1.0 - alpha) * b, -alpha * a, -alpha * b])
    scale = np.log(np.maximum(1.0, 2.0 * strikes / base.width))
    log_bound = (
        math.log(8.0 * (1.0 + abs(alpha) + u_last))
        + 2.0 * max(0.0, -math.log(u_first))
        + float(np.max(exponent + scale))
    )
    return log_bound > math.log(1e300)


def _series_values(
    model: ModelSpec,
    market: MarketSpec,
    kind: OptionKind,
    alpha: float,
    base: TruncationRange,
    x: np.ndarray,
    ranges: Sequence[TruncationRange],
    strikes: np.ndarray,
    counts: tuple,
) -> list:
    """Series values for the strikes with log-moneyness x, each expanded on
    base recentred by its x: one array, in strike order, per term count in
    counts.

    The frequencies u_k = k*pi/width do not depend on the term count, so
    the terms are formed once, at the largest count, and each count sums
    its prefix of them.  The sum runs over the live band of
    phi(u_k - i*alpha) only, the prefix that ends at its last nonzero value
    (:func:`models.live_band`): the terms past it are exact zeros, which
    leave every math.fsum unchanged, unless a payoff coefficient there
    could overflow, when the full grid is summed so that 0 * inf still
    reads as a failure.  That test only grows with the term count, and
    where a smaller count would not pad, its extra terms are 0 * finite,
    so every prefix sum is the value a series of that count alone gives.
    """
    n_terms = max(counts)
    step = math.pi / base.width
    phi = live_band(char_fn, model, market, step, alpha, n_terms)
    check_moment(alpha, phi[0])
    live = phi.size
    if live < n_terms and _tail_may_overflow(
        alpha, base, x, strikes, live * step, (n_terms - 1) * step
    ):
        phi = np.concatenate((phi, np.zeros(n_terms - live, dtype=complex)))
    u = np.arange(phi.size) * step
    # x - a = -base.a for every recentred range, so one phase serves all strikes
    density = np.real(np.exp(-1j * u * base.a) * phi)
    coefficients = call_coefficients if kind is OptionKind.CALL else put_coefficients
    payoff = coefficients(u, alpha, ranges, strikes)
    width = np.array([r.width for r in ranges])
    terms = _column(2.0 * _exp_each(alpha * x) / width) * density * payoff
    terms[:, 0] *= 0.5
    rows = terms.tolist()
    scale = 0.5 * width * math.exp(-market.rate * market.maturity)
    # error-free accumulation; the direct call series trades accuracy for it.
    # A count that reaches past the band sums whole rows, without a copy
    return [
        scale * np.array([_fsum(row if n >= phi.size else row[:n]) for row in rows])
        for n in counts
    ]


def _resolve_damping(config: CosConfig, kind: OptionKind) -> float:
    if config.variant is not Variant.STABLE:
        return 0.0
    if config.damping is not None:
        return config.damping
    return DEFAULT_CALL_DAMPING if kind is OptionKind.CALL else DEFAULT_PUT_DAMPING


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
    config supplies every setting but the term count."""
    if not options:
        raise ValidationError("price needs at least one option")
    kind = options[0].kind
    if any(opt.kind is not kind for opt in options):
        raise ValidationError("a batch of options must share one kind")
    if config.variant is Variant.PUT_CALL_PARITY and kind is OptionKind.PUT:
        raise ConfigurationError("parity variant prices calls; request the put directly")
    alpha = _resolve_damping(config, kind)
    if config.variant is Variant.STABLE and kind is OptionKind.CALL and alpha <= 1.0:
        raise ConfigurationError("alpha must exceed 1 for stable call pricing")
    if config.variant is Variant.STABLE and kind is OptionKind.PUT and alpha > 0.0:
        raise ConfigurationError("alpha must not exceed 0 for stable put pricing")
    lo, hi = damping_bounds(model)
    if not lo < alpha < hi:
        raise ConfigurationError(
            f"damping alpha={alpha} outside the admissible interval ({lo}, {hi}) "
            f"for {type(model).__name__}"
        )

    cums = cumulants(model, market)
    discount = math.exp(-market.rate * market.maturity)
    strikes = np.array([opt.strike for opt in options])
    x = np.array([math.log(market.spot / opt.strike) for opt in options])
    # the expansion variable is log-moneyness y = log(S_T/K), so the cumulant
    # window of the log return is recentered by x per strike
    base = truncation_range(cums, config.range_width)
    shifts = x.tolist()
    ranges = [TruncationRange(a=base.a + shift, b=base.b + shift) for shift in shifts]

    if config.variant is Variant.PUT_CALL_PARITY:
        put_values = _series_values(
            model, market, OptionKind.PUT, 0.0, base, x, ranges, strikes, counts
        )
        forward = market.spot * math.exp(-market.dividend * market.maturity)
        values = [put + forward - strikes * discount for put in put_values]
    else:
        values = _series_values(model, market, kind, alpha, base, x, ranges, strikes, counts)

    curve = []
    for n, row in zip(counts, values):
        results = []
        for value, opt, shift, rng in zip(row.tolist(), options, shifts, ranges):
            if not math.isfinite(value):
                raise ComputationError(
                    f"cosine series produced a non-finite value at strike {opt.strike} "
                    f"(variant={config.variant.value}, n_terms={n}, "
                    f"range=[{rng.a:.3f}, {rng.b:.3f}])"
                )
            results.append(PriceResult(
                price=value,
                variant=config.variant,
                n_terms=n,
                range_width=config.range_width,
                damping=alpha,
                context=PricingContext(x=shift, range=rng, discount=discount),
            ))
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
    without bound there), when alpha leaves the model's analyticity strip,
    or when the parity variant is asked for a put; a computation error when
    a series value is not finite.
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
