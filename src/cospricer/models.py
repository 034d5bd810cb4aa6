"""Risk-neutral log-return models.

Each model is a frozen parameter dataclass with an extended characteristic
function phi_T(u) = E[exp(i u ln(S_T / S_0))], valid for complex u inside the
model's strip of analyticity.  The module also provides log-cumulants of the
log-return (Cauchy contour integrals of log phi_T) and the series
truncation interval built from them.

Both fixed-grid consumers, the cosine engine and the Carr-Madan sum,
read phi_T along a contour u - i*alpha, u = 0, du, 2*du, ..., through
:func:`live_band`, which evaluates phi_T only before the first point
where a proven non-increasing bound on |phi_T| falls below a floor sized
from the caller's cap on its terms: the terms left out then sum to under
:data:`TAIL_SHARE` of the sum's first term, below the rounding it
already carries.  The Fourier integral's panels stop by the same
search, :func:`envelope_cut`.  Every reader of a contour here
(:func:`char_fn`, :func:`envelope_cut` and so :func:`live_band`,
:func:`cumulants`) refuses a shift outside the damping strip itself, by
:func:`check_damping`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ComputationError, ValidationError

__all__ = [
    "MarketSpec",
    "check_call_prices",
    "HestonParams",
    "KouParams",
    "CGMYParams",
    "ModelSpec",
    "Cumulants",
    "TruncationRange",
    "char_fn",
    "cumulants",
    "truncation_range",
    "damping_bounds",
    "check_damping",
    "moment_is_valid",
    "check_moment",
    "envelope_cut",
    "live_band",
    "TAIL_SHARE",
]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketSpec:
    """Contract and discounting data shared by every model.

    Attributes
    ----------
    spot : float
        Spot price S_0 > 0.
    rate : float
        Continuously compounded risk-free rate r.
    dividend : float
        Continuous dividend yield q.
    maturity : float
        Time to expiry T > 0 in years.

    exp(-r*T) and exp(-q*T) must each be a positive finite float; they are
    kept as discount_factor and dividend_factor (derived: not arguments, not
    in the repr or equality), so no pricer computes or checks them itself.
    """

    spot: float
    rate: float
    dividend: float = 0.0
    maturity: float = 1.0
    discount_factor: float = field(init=False, repr=False, compare=False)
    dividend_factor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.spot > 0.0 and math.isfinite(self.spot)):
            raise ValidationError(f"spot must be positive and finite, got {self.spot}")
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise ValidationError(f"maturity must be positive and finite, got {self.maturity}")
        for name in ("rate", "dividend"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name, exponent in (("discount", -self.rate * self.maturity),
                               ("dividend", -self.dividend * self.maturity)):
            try:
                factor = math.exp(exponent)
            except OverflowError:
                factor = math.inf
            if not 0.0 < factor < math.inf:
                raise ValidationError(
                    f"{name} factor exp({exponent:g}) is not a positive finite float: "
                    f"it {'underflows to 0' if factor == 0.0 else 'overflows'}"
                )
            object.__setattr__(self, f"{name}_factor", factor)


def check_call_prices(market: MarketSpec, strikes, prices, pricer: str) -> None:
    """Refuse a column of call prices that no arbitrage-free market admits.

    ``prices`` are the calls that ``pricer`` (its name and damping, for
    the message) gave at ``strikes``.  Each rule runs over the whole
    column in turn, and a computation error names the first strike that
    breaks it: a price that is not finite; one above S0*e^(-qT), which
    in a damped transform signals that the damped moment has overwhelmed
    the sum (lower the damping for heavy tails); one below
    max(S0*e^(-qT) - K*e^(-rT), 0), where the sum's rounding, scaled by
    exp(-damping*log(K/S0)) with the price, swamps a deep in-the-money
    call.  Each bound allows 1e-9*S0 of rounding.
    """
    strikes, prices = np.asarray(strikes, dtype=float), np.asarray(prices, dtype=float)
    upper = market.spot * market.dividend_factor
    lower = np.maximum(upper - strikes * market.discount_factor, 0.0)
    slack = 1e-9 * market.spot
    for bad, fault in (
        (~np.isfinite(prices), "a non-finite price at strike {k:g}"),
        (prices > upper + slack,
         "{p:.6g} at strike {k:g}, above the spot bound S0*e^(-qT) = {u:.6g}"),
        (prices < lower - slack,
         "{p:.6g} at strike {k:g}, below the no-arbitrage lower bound {l:.6g}"),
    ):
        if bad.any():
            j = bad.argmax()
            fault = fault.format(p=prices[j], k=strikes[j], u=upper, l=lower[j])
            raise ComputationError(f"{pricer} gave {fault}")


@dataclass(frozen=True)
class HestonParams:
    """Square-root stochastic volatility model.

    kappa, theta, sigma are the mean-reversion speed, long-run variance and
    volatility of variance; v0 is the initial variance.
    """

    kappa: float
    theta: float
    sigma: float
    rho: float
    v0: float

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValidationError(f"kappa must be positive and finite, got {self.kappa}")
        if not 0.0 <= self.theta < math.inf:
            raise ValidationError(f"theta must be nonnegative and finite, got {self.theta}")
        if not 0.0 < self.sigma < math.inf:
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must lie in [-1, 1], got {self.rho}")
        if not 0.0 <= self.v0 < math.inf:
            raise ValidationError(f"v0 must be nonnegative and finite, got {self.v0}")


@dataclass(frozen=True)
class KouParams:
    """Jump diffusion with double-exponential jump sizes.

    p is the probability of an upward jump, eta1/eta2 the up/down jump rate
    parameters and lam the jump intensity.  eta1 > 1 keeps E[S_T] finite.
    """

    sigma: float
    p: float
    eta1: float
    eta2: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"p must lie in [0, 1], got {self.p}")
        if not 1.0 < self.eta1 < math.inf:
            raise ValidationError(f"eta1 must exceed 1 and be finite, got {self.eta1}")
        if not 0.0 < self.eta2 < math.inf:
            raise ValidationError(f"eta2 must be positive and finite, got {self.eta2}")
        if not 0.0 <= self.lam < math.inf:
            raise ValidationError(f"lam must be nonnegative and finite, got {self.lam}")


@dataclass(frozen=True)
class CGMYParams:
    """Tempered-stable pure-jump model with parameters C, G, M, Y.

    M > 1 keeps E[S_T] finite; Y < 2 is required for a valid Levy measure.
    The characteristic function scales by Gamma(-Y), so every Y where
    math.gamma(-Y) is not a finite float is refused: Y = 0 and Y = 1, the
    poles, and Y below about -171.6, where Gamma(-Y) overflows.
    """

    C: float
    G: float
    M: float
    Y: float

    def __post_init__(self):
        if not 0.0 < self.C < math.inf:
            raise ValidationError(f"C must be positive and finite, got {self.C}")
        if not 0.0 < self.G < math.inf:
            raise ValidationError(f"G must be positive and finite, got {self.G}")
        if not 1.0 < self.M < math.inf:
            raise ValidationError(f"M must exceed 1 and be finite, got {self.M}")
        if not self.Y < 2.0:
            raise ValidationError(f"Y must be below 2, got {self.Y}")
        try:
            gamma_finite = math.isfinite(math.gamma(-self.Y))
        except (ValueError, OverflowError):
            gamma_finite = False
        if not gamma_finite:
            raise ValidationError(
                f"Y must not equal 0 or 1, and Gamma(-Y) must be finite, got {self.Y}"
            )


ModelSpec = Union[HestonParams, KouParams, CGMYParams]


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def _real_log(z):
    """log|z| + i*arg(z), the principal complex log, from three real
    ufuncs; the -0.0 of a negative real z gives arg -pi, as np.log does."""
    out = np.empty_like(z)
    np.log(np.hypot(z.real, z.imag), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _heston_log_cf(model: HestonParams, market: MarketSpec, u):
    t = market.maturity
    zeta = -0.5 * (1j * u + u * u)
    gam = model.kappa - 1j * model.rho * model.sigma * u
    xi = np.sqrt(gam * gam - 2.0 * model.sigma ** 2 * zeta)
    decay = 1.0 - np.exp(-xi * t)
    denom = 2.0 * xi - (xi - gam) * decay
    drift = 1j * u * (market.rate - market.dividend) * t
    vol_term = 2.0 * zeta * decay * model.v0 / denom
    # the log in real arithmetic: np.log is glibc's clog, which takes an
    # extra-precision path where max(|Re z|, |Im z|) lies in [0.5, 1),
    # and denom/(2*xi) has modulus in [0.7, 1] on every contour the
    # pricers read.  There clog costs 150-190 ns a point on a shared
    # 2-vCPU Xeon (43 ns off that path), _real_log 15-20 ns.  z already
    # carries the division's rounding, so clog's extra precision buys
    # nothing.  CGMY's logs stay on np.log: this form loses accuracy there
    mean_term = -(model.kappa * model.theta / model.sigma ** 2) * (
        2.0 * _real_log(denom / (2.0 * xi)) + (xi - gam) * t
    )
    return drift + vol_term + mean_term


def _kou_log_cf(model: KouParams, market: MarketSpec, u):
    t = market.maturity
    p, e1, e2 = model.p, model.eta1, model.eta2
    jump_drift = p * e1 / (e1 - 1.0) + (1.0 - p) * e2 / (e2 + 1.0) - 1.0
    mu = market.rate - market.dividend - 0.5 * model.sigma ** 2 - model.lam * jump_drift
    jump_cf = p * e1 / (e1 - 1j * u) + (1.0 - p) * e2 / (e2 + 1j * u) - 1.0
    return 1j * u * mu * t - 0.5 * model.sigma ** 2 * u * u * t + model.lam * t * jump_cf


def _cexpm1(z):
    """exp(z) - 1 for complex input without cancellation at small |z|."""
    x, y = z.real, z.imag
    cos_y = np.cos(y)
    # cos(y) - 1 written as -2 sin^2(y/2) stays accurate near y = 0
    return (np.expm1(x) * cos_y - 2.0 * np.sin(0.5 * y) ** 2) + 1j * (np.exp(x) * np.sin(y))


def _cgmy_psi(g: float, m: float, y: float, u):
    """(m - iu)^y - m^y + (g + iu)^y - g^y, free of the cancellation between
    the power terms that dominates a naive evaluation at small |u|."""
    return m ** y * _cexpm1(y * np.log(1.0 - 1j * u / m)) + g ** y * _cexpm1(
        y * np.log(1.0 + 1j * u / g)
    )


def _cgmy_drift(model: CGMYParams, market: MarketSpec) -> float:
    """The drift mu of the CGMY log-return; its compensator is
    C*Gamma(-Y) times psi at u = -i, in real arithmetic."""
    c, g, m, y = model.C, model.G, model.M, model.Y
    psi_mart = m ** y * math.expm1(y * math.log1p(-1.0 / m)) + g ** y * math.expm1(
        y * math.log1p(1.0 / g)
    )
    return market.rate - market.dividend - c * math.gamma(-y) * psi_mart


def _cgmy_log_cf(model: CGMYParams, market: MarketSpec, u):
    t = market.maturity
    mu = _cgmy_drift(model, market)
    # principal-branch logs; Re(m - iu) and Re(g + iu) stay positive for
    # Im(u) inside (-m, g)
    levy = model.C * t * math.gamma(-model.Y) * _cgmy_psi(model.G, model.M, model.Y, u)
    return 1j * u * mu * t + levy


def _log_cf(model: ModelSpec, market: MarketSpec, u):
    """log phi_T(u), the exponent that :func:`char_fn` exponentiates."""
    if isinstance(model, HestonParams):
        return _heston_log_cf(model, market, u)
    if isinstance(model, KouParams):
        return _kou_log_cf(model, market, u)
    if isinstance(model, CGMYParams):
        return _cgmy_log_cf(model, market, u)
    raise ValidationError(f"unsupported model type {type(model).__name__}")


def damping_bounds(model: ModelSpec) -> tuple[float, float]:
    """Open interval of contour shifts alpha for which phi_T(u - i*alpha) is
    proven defined for all real u at every maturity: Kou's (-eta2, eta1)
    and CGMY's (-G, M), and the whole line for Heston, whose moment of
    order alpha explodes at a maturity T*(alpha) (Andersen & Piterbarg
    2007): :func:`check_moment` reads that off the closed form.
    """
    if isinstance(model, KouParams):
        return (-model.eta2, model.eta1)
    if isinstance(model, CGMYParams):
        return (-model.G, model.M)
    return (-math.inf, math.inf)


def check_damping(model: ModelSpec, shift: float) -> None:
    """Raise a validation error unless the contour shift (alpha, or the
    Carr-Madan damping plus 1) lies inside :func:`damping_bounds`."""
    lo, hi = damping_bounds(model)
    if not lo < shift < hi:
        raise ValidationError(
            f"contour shift {shift:g} lies outside the admissible interval ({lo:g}, {hi:g}) "
            f"for {type(model).__name__}, so E[(S_T/S_0)^{shift:g}] is infinite"
        )


def moment_is_valid(value: complex) -> bool:
    """Whether phi_T(-i*p) = E[(S_T/S_0)^p] is a usable moment: real,
    positive and finite.

    Past a moment explosion the closed forms still return a number, but
    a complex one, and a contour through it prices nonsense.  Valid
    moments carry ~1e-17 of imaginary roundoff, so an imaginary part up
    to 1e-10 of the real part is accepted.
    """
    value = complex(value)
    return (
        math.isfinite(value.real)
        and value.real > 0.0
        and abs(value.imag) <= 1e-10 * value.real
    )


def check_moment(order: float, value: complex) -> None:
    """Raise a validation error unless value = E[(S_T/S_0)^order] passes
    :func:`moment_is_valid`.

    A moment that is exactly 0 has underflowed, and one whose real part is
    +inf has overflowed; lowering the damping mends neither.  Any other
    invalid value is read as a moment explosion.
    """
    if value == 0.0 or value.real == math.inf:
        raise ValidationError(
            f"E[(S_T/S_0)^{order:g}] {'underflows to 0' if value == 0.0 else 'overflows'}; "
            f"the drift (r - q)*T or the maturity is too extreme for this moment to be "
            f"representable"
        )
    if not moment_is_valid(value):
        raise ValidationError(
            f"E[(S_T/S_0)^{order:g}] = {value:.3e} is not real, positive and "
            f"finite; the moment explodes before this maturity, so lower the damping"
        )


def char_fn(model: ModelSpec, market: MarketSpec, u):
    """Extended characteristic function of the log-return ln(S_T / S_0).

    Parameters
    ----------
    model : ModelSpec
    market : MarketSpec
    u : complex scalar or array_like
        Argument; -Im(u) must lie inside :func:`damping_bounds`, checked
        by :func:`check_damping`.

    Returns
    -------
    complex scalar or ndarray matching the shape of ``u``.
    """
    u_arr = np.asarray(u, dtype=np.complex128)
    if u_arr.size:
        im = np.imag(u_arr)
        for shift in (-im.max(), -im.min()):
            check_damping(model, float(shift))
    # an overflow is inf, without NumPy's warning: |phi_T| along a contour is
    # at most its moment at index 0, which every pricer checks
    with np.errstate(over="ignore"):
        out = np.exp(_log_cf(model, market, u_arr))
    if np.ndim(u) == 0 and not isinstance(u, np.ndarray):
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# live band
# ---------------------------------------------------------------------------

# log of 2^-1075, half the smallest subnormal double: a modulus below it
# rounds to an exact zero.  The extra -1 absorbs the rounding of both the
# bound and phi_T, which is orders of magnitude smaller.
_UNDERFLOW_LOG = -1075.0 * math.log(2.0) - 1.0


def _heston_log_envelope(model: HestonParams, market: MarketSpec, alpha: float, u: float) -> float:
    """log Psi_alpha(u), an upper bound on log|phi_T(u - i*alpha)| for the
    Heston model that does not increase in u >= 0; inf where the bound is
    not finite or has no real closed form.

    With dv = kappa*(theta - v)dt + sigma*sqrt(v)dW and
    I_T = int_0^T v dt >= 0, the stochastic integral against W is
    (v_T - v0 - kappa*theta*T + kappa*I_T)/sigma, so given the path of W
    the log-return X_T is Gaussian with mean
    (r - q)*T - I_T/2 + rho*(v_T - v0 - kappa*theta*T + kappa*I_T)/sigma
    and variance (1 - rho^2)*I_T.  Its conditional
    E[exp((iu + alpha)*X_T)] then has modulus
    exp(alpha*mean + (alpha^2 - u^2)*(1 - rho^2)*I_T/2), and the triangle
    inequality gives |phi_T(u - i*alpha)| <= Psi_alpha(u) =
    e^c * E[exp(lam*v_T + nu(u)*I_T)] with

        lam   = alpha*rho/sigma
        nu(u) = alpha*(rho*kappa/sigma - 1/2) + (alpha^2 - u^2)*(1 - rho^2)/2
        c     = alpha*(r - q)*T - lam*(v0 + kappa*theta*T).

    nu falls as u grows and I_T >= 0, so Psi_alpha does not increase in
    u >= 0, and at u = 0 the integrand is positive, so
    Psi_alpha(0) = phi_T(-i*alpha).  E[exp(lam*v_T + nu*I_T)] is
    exp(A + B*v0) for the CIR Riccati pair B' = nu - kappa*B + sigma^2*B^2/2,
    B(0) = lam, A' = kappa*theta*B, A(0) = 0.  With
    d = sqrt(kappa^2 - 2*sigma^2*nu), the roots
    B- = (kappa - d)/sigma^2 = 2*nu/(kappa + d) and B+ = (kappa + d)/sigma^2,
    and g = (lam - B-)/(lam - B+), the ratio (B - B-)/(B - B+) is
    h = g*e^(-d*T), so

        log Psi = c + kappa*theta*(B-*T - (2/sigma^2)*log((1 - h)/(1 - g)))
                  + v0*(B- - B+*h)/(1 - h).

    Past a moment explosion (1 - h)/(1 - g) < 0 and the expectation is
    infinite; where kappa^2 < 2*sigma^2*nu, near u = 0, d is imaginary.
    Both read as inf, a bound that rules nothing out.
    """
    kappa, theta, sigma, rho, v0 = model.kappa, model.theta, model.sigma, model.rho, model.v0
    t = market.maturity
    lam = alpha * rho / sigma
    nu = alpha * (rho * kappa / sigma - 0.5) + 0.5 * (alpha * alpha - u * u) * (1.0 - rho * rho)
    c = alpha * (market.rate - market.dividend) * t - lam * (v0 + kappa * theta * t)
    disc = kappa * kappa - 2.0 * sigma * sigma * nu
    if not disc >= 0.0:
        return math.inf
    d = math.sqrt(disc)
    b_minus = 2.0 * nu / (kappa + d)
    b_plus = (kappa + d) / (sigma * sigma)
    # lam = B+ and g = 1 leave a zero divisor; like an explosion, they
    # rule nothing out
    if lam == b_plus:
        return math.inf
    g = (lam - b_minus) / (lam - b_plus)
    h = g * math.exp(-d * t)
    ratio = (1.0 - h) / (1.0 - g) if g != 1.0 else math.nan
    if not ratio > 0.0:
        return math.inf
    out = (
        c
        + kappa * theta * (b_minus * t - (2.0 / (sigma * sigma)) * math.log(ratio))
        + v0 * (b_minus - b_plus * h) / (1.0 - h)
    )
    return out if math.isfinite(out) else math.inf


def _cgmy_log_envelope(model: CGMYParams, market: MarketSpec, alpha: float, u: float) -> float:
    """Re log phi_T(u - i*alpha) for the CGMY model, in real arithmetic:

        alpha*mu*T + C*T*Gamma(-Y)*[Re(M - alpha - iu)^Y - M^Y
                                    + Re(G + alpha + iu)^Y - G^Y].

    Each bracketed pair is b^Y*Re expm1(Y*log(1 + z)) for b = M, G and
    z = (-alpha - iu)/M, (alpha + iu)/G, with the real and imaginary
    parts of log(1 + z) from log1p and atan2, free of the cancellation
    at small |z| that :func:`_cgmy_psi` avoids the same way; near the
    strip's edge, from 1 + x = (b + shift)/b instead.
    """
    y = model.Y

    def gap(base: float, shift: float) -> float:
        x, v = shift / base, u / base
        if x > -0.5:
            one_x, log_r = 1.0 + x, 0.5 * math.log1p(x * (2.0 + x) + v * v)
        else:  # near the strip's edge x = -1, where x*(2 + x) rounds to -1
            one_x = (base + shift) / base
            log_r = 0.5 * math.log(one_x * one_x + v * v)
        angle = y * math.atan2(v, one_x)
        return base ** y * (math.expm1(y * log_r) * math.cos(angle)
                            - 2.0 * math.sin(0.5 * angle) ** 2)

    t = market.maturity
    return alpha * _cgmy_drift(model, market) * t + model.C * t * math.gamma(-y) * (
        gap(model.M, -alpha) + gap(model.G, alpha)
    )


def _log_envelope(model: ModelSpec, market: MarketSpec, alpha: float, u: float) -> float:
    """An upper bound on log|phi_T(u - i*alpha)| that does not increase in
    u >= 0, for alpha inside :func:`damping_bounds`; inf where no bound is
    proven, and wherever it is nan or not finite (Heston past an explosion).

    Heston: :func:`_heston_log_envelope`, except at |rho| = 1, where the
    conditional Gaussian it rests on degenerates.

    Kou, and CGMY with -1 < Y < 2: Re log phi_T(u - i*alpha) itself,
    CGMY's in real arithmetic (:func:`_cgmy_log_envelope`).  The drift
    contributes alpha*mu*T to it, a constant, so only the other terms
    matter.

    Kou: the diffusion gives -sigma^2*T*(u^2 - alpha^2)/2 and each jump
    side lam*T*p*eta1*(eta1 - alpha)/((eta1 - alpha)^2 + u^2) or
    lam*T*(1 - p)*eta2*(eta2 + alpha)/((eta2 + alpha)^2 + u^2); inside
    the bounds eta1 - alpha > 0 and eta2 + alpha > 0, so every term is
    non-increasing in u >= 0.

    CGMY: the Levy part is C*T*Gamma(-Y) times Re(a - iu)^Y for
    a = M - alpha > 0 and for a = G + alpha > 0 (the G side is a
    conjugate, with the same real part).  Writing a - iu = r*e^(-i*theta)
    with theta in [0, pi/2), d/du Re(a - iu)^Y = -Y*r^(Y-1)*sin((Y-1)*theta),
    and -Y*Gamma(-Y) = Gamma(1-Y).  For 1 < Y < 2, Gamma(1-Y) < 0 and
    (Y-1)*theta lies in [0, pi/2); for -1 < Y < 1, Gamma(1-Y) > 0 and
    (Y-1)*theta lies in (-pi, 0].  Either way the derivative is <= 0.  For
    Y <= -1 the angle can pass -pi, so no bound is claimed.
    """
    if isinstance(model, HestonParams):
        bound = math.inf if abs(model.rho) == 1.0 else _heston_log_envelope(model, market, alpha, u)
    elif isinstance(model, KouParams):
        bound = _log_cf(model, market, complex(u, -alpha)).real
    elif isinstance(model, CGMYParams) and -1.0 < model.Y < 2.0:
        bound = _cgmy_log_envelope(model, market, alpha, u)
    else:
        return math.inf
    return bound if math.isfinite(bound) else math.inf


# the share of its first term under which a fixed-grid sum's rest is left
# out, an order below the rounding that term carries (see live_band)
TAIL_SHARE = 0.1 * float(np.finfo(float).eps)


def envelope_cut(
    model: ModelSpec,
    market: MarketSpec,
    shift: float,
    size: int,
    point,
    slack=None,
    floor: float = -math.inf,
) -> int:
    """The first index k in [1, size) from which a proven bound puts
    |phi_T(u - i*shift)| below exp(level_k) for every u >= point(k), or
    size if there is none.

    :func:`_log_envelope` is log Psi, a bound on log|phi_T| that does
    not increase in u >= 0.  slack is None or a function of the index:
    level_k is max(log Psi(0) + slack(k), floor) where a slack is given
    and Psi(0) is finite, and floor otherwise; Psi(0) is taken only for a
    slack.  point(k) and slack(k) must not decrease in k, so that the
    test is monotone and bisection finds the index; the last index is
    tested first, so a contour live to its end costs one bound value.  A
    model without a proven bound has no such index.  The shift is
    checked first, by :func:`check_damping`.
    """
    check_damping(model, shift)
    top = math.inf if slack is None else _log_envelope(model, market, shift, 0.0)

    def dead(k: int) -> bool:
        bar = floor if top == math.inf else max(top + slack(k), floor)
        return _log_envelope(model, market, shift, point(k)) < bar

    if size < 2 or not dead(size - 1):
        return size
    # the first dead index in [1, size - 1), else size - 1
    return 1 + bisect.bisect_left(range(1, size - 1), True, key=dead)


def live_band(
    evaluate,
    model: ModelSpec,
    market: MarketSpec,
    step: float,
    shift: float,
    size: int,
    cap: float = math.inf,
) -> np.ndarray:
    """Characteristic-function values on the live prefix of a uniform contour.

    The contour is u_k - i*shift with u_k = k*step for k < size; evaluate
    is :func:`char_fn` as the caller binds it and is called as
    evaluate(model, market, points), and nothing is evaluated before
    :func:`check_damping` passes the shift.  Index 0, the moment
    E[(S_T/S_0)^shift], is always kept; the caller checks it.

    The rule, the same for every model: :func:`envelope_cut` finds the
    first index k >= 1 from which every |phi_T| is below exp(floor), and
    one evaluate call covers the points before it.  A model without a
    proven bound is evaluated on the whole contour.  The values returned
    are the ones a single call on the whole contour would return, up to
    and including the last nonzero one before that index.

    cap is the most terms the caller's sum may have.  Where size <= cap,
    the floor is log Psi(0) + log(TAIL_SHARE/(4*cap)), Psi(0) the bound
    at index 0, but never below _UNDERFLOW_LOG, which alone is used where
    Psi(0) is not finite: a sum of at most cap terms t_k, each at most
    4*|t_0|*Psi(u_k)/Psi(0), leaves out less than TAIL_SHARE*|t_0| past
    the cut, and the caller proves that per-term bound
    (``cos_engine._series_values``, ``transform_refs._damped_calls``).
    The floor does not depend on size, so every size up to cap cuts at
    one index.  A larger size, and the default cap, cut only exact zeros
    and cost no Psi(0), so a sum over the band is bit-identical to the
    full one.
    """
    tail = math.log(TAIL_SHARE / (4 * cap)) if size <= cap < math.inf else None
    slack = None if tail is None else lambda k: tail
    end = envelope_cut(model, market, shift, size, lambda k: k * step, slack, _UNDERFLOW_LOG)
    phi = evaluate(model, market, np.arange(end) * step - 1j * shift)
    nonzero = np.flatnonzero(phi)
    return phi[: nonzero[-1] + 1 if nonzero.size else 1]


# ---------------------------------------------------------------------------
# cumulants and truncation range
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cumulants:
    """Log-cumulants c1, c2, c4 of the log-return over the full horizon."""

    c1: float
    c2: float
    c4: float

    def __post_init__(self):
        for name in ("c1", "c2", "c4"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"cumulant {name} must be finite")
        if self.c2 < 0.0 or self.c4 < 0.0:
            raise ValidationError("c2 and c4 must be nonnegative")


_CONTOUR_NODES = 64  # trapezoid nodes on the circle |s| = r
_CONTOUR_HALVINGS = 8  # times r may halve before the cumulants are given up
# Heston's strip is the whole line, and the halving finds its explosion;
# its c4 rounding floor grows as r^-4, so r starts large
_HESTON_RADIUS = 0.5
# s/r at the nodes with Im(s) <= 0; the others are their conjugates
_HALF_CIRCLE = np.exp(-1j * np.linspace(0.0, math.pi, _CONTOUR_NODES // 2 + 1))


def cumulants(model: ModelSpec, market: MarketSpec, centre: float = 0.0) -> Cumulants:
    """First, second and fourth cumulants of ln(S_T / S_0) under the law
    tilted by exp(centre * X): the damped series at alpha expands the law
    at centre alpha, and centre 0 is the undamped law.

    c_n = n! * [s^n] K(centre + s) for K(s) = log phi_T(-i*s) =
    log E[exp(s*X)], which is analytic around any centre in the damping
    strip: the trapezoid rule on a circle |s| = r reads the Taylor
    coefficients off with one inverse real FFT and converges
    geometrically (Bornemann 2011).  K is real on the real axis, so only
    the nodes with Im(s) <= 0 are evaluated, in one call that also probes
    K at centre +- 2r.  r starts at a quarter of the centre's distance to
    the nearer damping bound and halves while a coefficient is not finite
    or a probe is not real (past a moment explosion), so that K is
    analytic on a disc twice the circle's size; only Heston, which starts
    at _HESTON_RADIUS, halves, as Kou's and CGMY's strips are proven.
    Roundoff below zero in c2 or c4 is floored.  A centre outside the
    strip is refused first, by :func:`check_damping`."""
    check_damping(model, centre)
    lo, hi = damping_bounds(model)
    radius = (_HESTON_RADIUS if isinstance(model, HestonParams)
              else 0.25 * min(centre - lo, hi - centre))
    for _ in range(_CONTOUR_HALVINGS + 1):
        s = np.append(radius * _HALF_CIRCLE, (2.0 * radius, -2.0 * radius))
        # Heston's log-CF has a removable 0/0 at kappa = rho*sigma*s: nan
        with np.errstate(all="ignore"):
            values = _log_cf(model, market, -1j * (centre + s))
            taylor = np.fft.irfft(values[:-2], _CONTOUR_NODES)[:5] / radius ** np.arange(5)
        c1, c2, c4 = taylor[1], 2.0 * taylor[2], 24.0 * taylor[4]
        # a valid moment's log carries ~1e-16 relative imaginary roundoff
        if all(map(math.isfinite, (c1, c2, c4))) and all(
                abs(k.imag) <= 1e-10 * max(1.0, abs(k.real)) for k in values[-2:].tolist()):
            return Cumulants(c1=float(c1), c2=max(float(c2), 0.0), c4=max(float(c4), 0.0))
        radius *= 0.5
    raise ComputationError(f"log E[exp(s*X)] is not finite and real near s = 0 for "
                           f"{type(model).__name__}, so no cumulant contour can be sized")


@dataclass(frozen=True)
class TruncationRange:
    """Interval [a, b] on which the cosine expansion is carried out."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError("range endpoints must be finite")
        if not self.a < self.b:
            raise ValidationError(f"range must satisfy a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


def truncation_range(cums: Cumulants, range_width: float) -> TruncationRange:
    """Cumulant-based expansion interval a, b = c1 -/+ range_width * sqrt(c2 + sqrt(c4)).

    range_width is the half-width multiplier L.  Raises a validation error
    when the spread c2 + sqrt(c4) vanishes, since the interval degenerates.
    """
    if not range_width > 0.0:
        raise ValidationError(f"range_width must be positive, got {range_width}")
    spread = cums.c2 + math.sqrt(cums.c4)
    if spread <= 0.0:
        raise ValidationError("degenerate truncation range: c2 + sqrt(c4) is zero")
    half = range_width * math.sqrt(spread)
    return TruncationRange(a=cums.c1 - half, b=cums.c1 + half)
