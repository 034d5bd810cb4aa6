"""Risk-neutral log-return models.

Each model is a frozen parameter dataclass with an extended characteristic
function phi_T(u) = E[exp(i u ln(S_T / S_0))], valid for complex u inside the
model's strip of analyticity.  The class carries the four facts the
pricers read of its model, as private methods: log phi_T (``_log_cf``),
the maturity at which each moment explodes, whence the strip of contour
shifts at each maturity (``_explosion_time``), a non-increasing bound on
log|phi_T| along a contour (``_log_envelope``) and the cumulants of each
tilted law (``_cumulants``).  The module functions read a
model only through these, and test no model type beyond
:func:`check_damping`'s refusal of a non-model.  What a model's methods
read that depends on neither the market nor the contour is computed once,
at construction, as :class:`MarketSpec` computes its discount factors:
Kou's jump drift, and CGMY's Gamma(-Y), M^Y, G^Y and martingale bracket;
each call computes only what depends on its market and its points.  The
module also provides log-cumulants of the log-return under the law tilted
by exp(centre*X), for one centre or several in one call
(:func:`cumulants`: Kou's and CGMY's in closed form, Heston's off a
Cauchy contour integral of log phi_T on a fixed set of nodes, the only
contour that reads them), and the series truncation interval built from
them.  The tilted moment E[(S_T/S_0)^centre] is not among them: each
pricer checks, by :func:`check_moment`, the value its own sum reads at
u = 0.

Both fixed-grid consumers, the cosine engine and the Carr-Madan sum,
read phi_T along a contour u - i*alpha, u = 0, du, 2*du, ..., through
:func:`live_band`, which evaluates phi_T only before the first point
where a proven non-increasing bound on |phi_T| falls below a floor sized
from the caller's cap on its terms: the terms left out then sum to under
:data:`TAIL_SHARE` of the sum's first term, below the rounding it
already carries; several contours are cut each by itself and evaluated
in one call.  The Fourier integral's panels stop by the same
search, :func:`envelope_cut`.  Every reader of a contour here
(:func:`char_fn`, :func:`envelope_cut` and so :func:`live_band`,
:func:`cumulants`) refuses a shift outside the damping strip itself, by
:func:`check_damping`.

Every number the package takes passes one rule, :func:`check_number`: a
real number, not a bool, inside a named interval (FINITE, POSITIVE, ...),
which admits no inf or nan; anything else, a numeric string too, is a
validation error.  :func:`check_numbers` is its form for a column, and
:func:`check_fields` its form for a dataclass's fields.
"""

from __future__ import annotations

import bisect
import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import Union, get_args

import numpy as np

from .errors import ComputationError, ValidationError

__all__ = [
    "FINITE",
    "POSITIVE",
    "NONNEGATIVE",
    "ABOVE_ONE",
    "BELOW_TWO",
    "UNIT",
    "CORRELATION",
    "check_number",
    "check_numbers",
    "check_fields",
    "MarketSpec",
    "check_moneyness",
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
    "check_moment",
    "envelope_cut",
    "live_band",
    "TAIL_SHARE",
]


# ---------------------------------------------------------------------------
# the number rule
# ---------------------------------------------------------------------------

# an interval (low, high, rule) admits low <= value <= high: an open end is
# the next float inward and a free end the largest float, so none admits
# inf or nan
_TOP = float(np.finfo(float).max)
FINITE = (-_TOP, _TOP, "be finite")
POSITIVE = (math.nextafter(0.0, 1.0), _TOP, "be positive and finite")
NONNEGATIVE = (0.0, _TOP, "be nonnegative and finite")
ABOVE_ONE = (math.nextafter(1.0, 2.0), _TOP, "exceed 1 and be finite")
BELOW_TWO = (-_TOP, math.nextafter(2.0, 1.0), "be below 2 and finite")
UNIT = (0.0, 1.0, "lie in [0, 1]")
CORRELATION = (-1.0, 1.0, "lie in [-1, 1]")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and type(value) is not bool


def check_number(name: str, value, interval: tuple = FINITE) -> float:
    """value as a float, where it is a real number, not a bool, inside
    interval; else a validation error "{name} must {rule}, got {value!r}"."""
    low, high, rule = interval
    # a float skips the ABC test, which costs several times as much: the
    # rule runs once per option built.  The bounds are compared with a
    # float, as a NumPy scalar would cast them to its own type
    try:
        number = float(value) if isinstance(value, float) or _is_real(value) else math.nan
    except OverflowError:  # an int or a fraction past the largest float
        number = math.nan
    if low <= number <= high:
        return number
    raise ValidationError(f"{name} must {rule}, got {value!r}")


def check_numbers(name: str, values, each: str, interval: tuple = FINITE) -> tuple:
    """:func:`check_number` for each of values, a column named name, under
    the name each: a tuple of floats.  A bare string, a non-iterable and a
    column holding a non-number are a validation error
    "{name} must be a sequence of numbers, got {values!r}"."""
    try:
        column = tuple(None if isinstance(values, (str, bytes)) else values)
        return tuple([check_number(each, value, interval) for value in column])
    except TypeError:
        pass
    except ValidationError:
        if all(map(_is_real, column)):
            raise
    raise ValidationError(f"{name} must be a sequence of numbers, got {values!r}")


def check_fields(obj, **intervals) -> None:
    """:func:`check_number` for each named field of the frozen dataclass
    obj under its interval, in order, storing the float it returns."""
    for name, interval in intervals.items():
        object.__setattr__(obj, name, check_number(name, getattr(obj, name), interval))


# ---------------------------------------------------------------------------
# market and models
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
        check_fields(self, spot=POSITIVE, maturity=POSITIVE, rate=FINITE, dividend=FINITE)
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


def check_moneyness(market: MarketSpec, strikes, ratios) -> list:
    """ratios, each strike's ratio to the spot (S0/K or K/S0, as its pricer
    divides), where each is positive and finite; else a validation error
    at the first strike whose log-moneyness is not a finite float."""
    for strike, ratio in zip(strikes, ratios):
        if not 0.0 < ratio < math.inf:
            raise ValidationError(f"the log-moneyness of strike {strike!r} at spot "
                                  f"{market.spot!r} is not a finite float")
    return ratios


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


def _real_log(z):
    """log|z| + i*arg(z), the principal complex log, from three real
    ufuncs; the -0.0 of a negative real z gives arg -pi, as np.log does."""
    out = np.empty_like(z)
    np.log(np.hypot(z.real, z.imag), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _cexpm1(z):
    """exp(z) - 1 for complex input without cancellation at small |z|."""
    x, y = z.real, z.imag
    cos_y = np.cos(y)
    # cos(y) - 1 written as -2 sin^2(y/2) stays accurate near y = 0
    return (np.expm1(x) * cos_y - 2.0 * np.sin(0.5 * y) ** 2) + 1j * (np.exp(x) * np.sin(y))


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
        check_fields(self, kappa=POSITIVE, theta=NONNEGATIVE, sigma=POSITIVE, rho=CORRELATION,
                     v0=NONNEGATIVE)

    # zeta = 0 at u = 0 and u = -i, where the other terms vanish; at
    # kappa = rho*sigma, u = -i, they are 0/0, discarded for the drift
    @np.errstate(invalid="ignore")
    def _log_cf(self, market: MarketSpec, u):
        t = market.maturity
        zeta = -0.5 * (1j * u + u * u)
        gam = self.kappa - 1j * self.rho * self.sigma * u
        xi = np.sqrt(gam * gam - 2.0 * self.sigma ** 2 * zeta)
        decay = 1.0 - np.exp(-xi * t)
        denom = 2.0 * xi - (xi - gam) * decay
        drift = 1j * u * (market.rate - market.dividend) * t
        vol_term = 2.0 * zeta * decay * self.v0 / denom
        # the log in real arithmetic: np.log is glibc's clog, which takes an
        # extra-precision path where max(|Re z|, |Im z|) lies in [0.5, 1),
        # and denom/(2*xi) has modulus in [0.7, 1] on every contour the
        # pricers read.  There clog costs 150-190 ns a point on a shared
        # 2-vCPU Xeon (43 ns off that path), _real_log 15-20 ns.  z already
        # carries the division's rounding, so clog's extra precision buys
        # nothing.  CGMY's logs stay on np.log: this form loses accuracy there
        mean_term = -(self.kappa * self.theta / self.sigma ** 2) * (
            2.0 * _real_log(denom / (2.0 * xi)) + (xi - gam) * t
        )
        return np.where(zeta == 0.0, drift, drift + vol_term + mean_term)

    def _cumulants(self, market: MarketSpec, centres: tuple) -> tuple:
        """Each centre's Cumulants off a Cauchy contour: the trapezoid rule
        on a circle |s| = r reads the Taylor coefficients of K(centre + s)
        off with one inverse real FFT, converging geometrically (Bornemann
        2011).  K is real on the real axis, so one _log_cf call reads the
        nodes with Im(s) <= 0 of every circle.  r is _HESTON_RADIUS where
        the disc twice its size lies inside the strip, else a quarter of the
        distance to the strip's edge, so K is analytic on a disc twice the
        circle's size.  Roundoff below zero in c2 or c4 is floored."""
        t, wide = market.maturity, 2.0 * _HESTON_RADIUS
        radii = [_HESTON_RADIUS if min(map(self._explosion_time, (c - wide, c + wide))) > t
                 else 0.25 * min(abs(c - edge) for edge in damping_bounds(self, market))
                 for c in centres]
        # a node that overflows or loses the log-CF to rounding is inf or
        # nan, which _read_cumulants refuses
        with np.errstate(all="ignore"):
            rows = self._log_cf(market, np.array(
                [-1j * (centre + radius * _NODES) for centre, radius in zip(centres, radii)]))
            taylor = np.fft.irfft(rows, _CONTOUR_NODES)[:, :5] / np.power.outer(radii, _POWERS)
        return tuple(_read_cumulants(self, c, k[1], max(2.0 * k[2], 0.0), max(24.0 * k[4], 0.0))
                     for c, k in zip(centres, taylor.tolist()))

    def _explosion_time(self, order: float) -> float:
        """T*(order), the maturity at which E[(S_T/S_0)^order] explodes, inf
        where it never does (Andersen & Piterbarg 2007): its log is A + B*v0,
        B' = c - b*B + sigma^2*B^2/2, B(0) = 0, with c = order*(order - 1)/2 > 0
        outside [0, 1] and b = kappa - rho*sigma*order.  With D = b^2 - 2*sigma^2*c,
        B stays finite where D >= 0 and b > 0; else T* = 2*atan2(sqrt(-D), -b)/sqrt(-D)
        for D < 0, and log((-b + sqrt(D))/(-b - sqrt(D)))/sqrt(D) = log1p(e)/sqrt(D),
        e = sqrt(D)*(sqrt(D) - b)/(sigma^2*c), for D >= 0, 2/(-b) at D = 0.  In
        units of sigma*max(1, |order|), so that no finite order overflows."""
        if 0.0 <= order <= 1.0:
            return math.inf
        scale = max(1.0, abs(order))
        b = (self.kappa / self.sigma - self.rho * order) / scale
        two_c = (order / scale) * ((order - 1.0) / scale)  # > 0 outside [0, 1]
        d = b * b - two_c
        root = math.sqrt(abs(d))
        if d < 0.0:
            tau = 2.0 * math.atan2(root, -b) / root
        elif b >= 0.0:
            return math.inf
        else:  # b < 0, or a nan order, which gives nan
            tau = math.log1p(2.0 * root * (root - b) / two_c) / root if root else -2.0 / b
        return tau / (self.sigma * scale)

    def _log_envelope(self, market: MarketSpec, alpha: float, u: float) -> float:
        """log Psi_alpha(u), an upper bound on log|phi_T(u - i*alpha)| that
        does not increase in u >= 0; inf where the bound is not finite or
        has no real closed form, and at |rho| = 1, where the conditional
        Gaussian it rests on degenerates.

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
        if abs(self.rho) == 1.0:
            return math.inf
        kappa, theta, sigma, rho, v0 = self.kappa, self.theta, self.sigma, self.rho, self.v0
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
    # E[e^J] - 1 of one jump, the drift's compensator per unit intensity
    _jump_drift: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, sigma=POSITIVE, p=UNIT, eta1=ABOVE_ONE, eta2=POSITIVE, lam=NONNEGATIVE)
        p, e1, e2 = self.p, self.eta1, self.eta2
        object.__setattr__(self, "_jump_drift",
                           p * e1 / (e1 - 1.0) + (1.0 - p) * e2 / (e2 + 1.0) - 1.0)

    def _drift(self, market: MarketSpec) -> float:
        """The drift mu of the log-return, compensated for the diffusion
        and the jumps."""
        return market.rate - market.dividend - 0.5 * self.sigma ** 2 - self.lam * self._jump_drift

    def _log_cf(self, market: MarketSpec, u):
        t = market.maturity
        p, e1, e2 = self.p, self.eta1, self.eta2
        jump_cf = p * e1 / (e1 - 1j * u) + (1.0 - p) * e2 / (e2 + 1j * u) - 1.0
        return (1j * u * self._drift(market) * t - 0.5 * self.sigma ** 2 * u * u * t
                + self.lam * t * jump_cf)

    def _cumulants(self, market: MarketSpec, centres: tuple) -> tuple:
        """Each centre's Cumulants in closed form.  The n-th derivative of
        K(s) = log E[exp(s*X)] is
        lam*T*n!*(p*eta1/(eta1 - s)^(n+1) + (-1)^n*(1 - p)*eta2/(eta2 + s)^(n+1)),
        plus (mu + sigma^2*s)*T for n = 1 and sigma^2*T for n = 2.  The
        powers are products of 1/(eta1 - s) and 1/(eta2 + s), which overflow
        to inf without raising."""
        t, p, e1, e2, var = market.maturity, self.p, self.eta1, self.eta2, self.sigma ** 2
        mu, rate = self._drift(market), self.lam * t
        out = []
        for s in centres:
            up, down = 1.0 / (e1 - s), 1.0 / (e2 + s)
            # the jump sides of c1, each p*eta1/(eta1 - s)^2 or (1 - p)*eta2/(eta2 + s)^2
            up_1, down_1 = p * e1 * up * up, (1.0 - p) * e2 * down * down
            out.append(_read_cumulants(
                self, s, (mu + var * s) * t + rate * (up_1 - down_1),
                var * t + 2.0 * rate * (up_1 * up + down_1 * down),
                24.0 * rate * (up_1 * up * up * up + down_1 * down * down * down)))
        return tuple(out)

    def _explosion_time(self, order: float) -> float:
        """inf inside (-eta2, eta1), 0 outside: a Levy moment is finite always or never."""
        return math.inf if -self.eta2 < order < self.eta1 else 0.0

    def _log_envelope(self, market: MarketSpec, alpha: float, u: float) -> float:
        """Re log phi_T(u - i*alpha) itself.  The drift contributes
        alpha*mu*T, a constant; the diffusion gives
        -sigma^2*T*(u^2 - alpha^2)/2 and each jump side
        lam*T*p*eta1*(eta1 - alpha)/((eta1 - alpha)^2 + u^2) or
        lam*T*(1 - p)*eta2*(eta2 + alpha)/((eta2 + alpha)^2 + u^2); inside
        the strip eta1 - alpha > 0 and eta2 + alpha > 0, so every term is
        non-increasing in u >= 0."""
        return self._log_cf(market, complex(u, -alpha)).real


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
    # the market-free constants every log-CF and envelope value reads:
    # Gamma(-Y), M^Y, G^Y and psi at u = -i, the drift's martingale bracket
    _gamma: float = field(init=False, repr=False, compare=False)
    _m_power: float = field(init=False, repr=False, compare=False)
    _g_power: float = field(init=False, repr=False, compare=False)
    _bracket: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, C=POSITIVE, G=POSITIVE, M=ABOVE_ONE, Y=BELOW_TWO)
        g, m, y = self.G, self.M, self.Y
        try:
            gamma = math.gamma(-y)
        except (ValueError, OverflowError):
            gamma = math.nan
        if not math.isfinite(gamma):
            raise ValidationError(
                f"Y must not equal 0 or 1, and Gamma(-Y) must be finite, got {self.Y}"
            )
        try:
            m_power, g_power = m ** y, g ** y
            bracket = m_power * math.expm1(y * math.log1p(-1.0 / m)) + g_power * math.expm1(
                y * math.log1p(1.0 / g)
            )
        except OverflowError:
            raise ValidationError(
                f"M^Y, G^Y and the drift's compensator must be finite floats, got "
                f"G={g}, M={m}, Y={y}"
            ) from None
        for name, value in (("_gamma", gamma), ("_m_power", m_power), ("_g_power", g_power),
                            ("_bracket", bracket)):
            object.__setattr__(self, name, value)

    def _drift(self, market: MarketSpec) -> float:
        """The drift mu of the log-return; its compensator is
        C*Gamma(-Y) times psi at u = -i, in real arithmetic."""
        return market.rate - market.dividend - self.C * self._gamma * self._bracket

    def _log_cf(self, market: MarketSpec, u):
        t, g, m, y = market.maturity, self.G, self.M, self.Y
        # psi = (m - iu)^y - m^y + (g + iu)^y - g^y, free of the cancellation
        # between the power terms that dominates a naive evaluation at small
        # |u|; principal-branch logs, as Re(m - iu) and Re(g + iu) stay
        # positive for Im(u) inside (-m, g)
        psi = self._m_power * _cexpm1(y * np.log(1.0 - 1j * u / m)) + self._g_power * _cexpm1(
            y * np.log(1.0 + 1j * u / g)
        )
        return 1j * u * self._drift(market) * t + self.C * t * self._gamma * psi

    def _cumulants(self, market: MarketSpec, centres: tuple) -> tuple:
        """Each centre's Cumulants in closed form.  The Levy measure gives
        c_n = C*T*Gamma(n - Y)*((M - s)^(Y-n) + (-1)^n*(G + s)^(Y-n)) for the
        n-th derivative of K(s) = log E[exp(s*X)], plus mu*T for n = 1 (Fang
        & Oosterlee 2008 list them at s = 0).  Gamma(n - Y) is the stored
        Gamma(-Y) by Gamma(x + 1) = x*Gamma(x); each side's power of order
        Y - 1 is one ``**``, and divisions by its base give the orders Y - 2
        and Y - 4, which overflow to inf without raising."""
        t, g, m, y = market.maturity, self.G, self.M, self.Y
        scale, drift = self.C * t, self._drift(market) * t
        gamma_1 = -y * self._gamma
        gamma_2 = (1.0 - y) * gamma_1
        gamma_4 = (3.0 - y) * (2.0 - y) * gamma_2
        out = []
        for s in centres:
            m_side, g_side = m - s, g + s
            try:
                m_1, g_1 = m_side ** (y - 1.0), g_side ** (y - 1.0)
            except OverflowError:
                m_1 = g_1 = math.inf
            m_2, g_2 = m_1 / m_side, g_1 / g_side
            out.append(_read_cumulants(
                self, s, drift + scale * gamma_1 * (m_1 - g_1),
                scale * gamma_2 * (m_2 + g_2),
                scale * gamma_4 * (m_2 / m_side / m_side + g_2 / g_side / g_side)))
        return tuple(out)

    def _explosion_time(self, order: float) -> float:
        return math.inf if -self.G < order < self.M else 0.0

    def _log_envelope(self, market: MarketSpec, alpha: float, u: float) -> float:
        """Re log phi_T(u - i*alpha) for -1 < Y < 2, in real arithmetic:

            alpha*mu*T + C*T*Gamma(-Y)*[Re(M - alpha - iu)^Y - M^Y
                                        + Re(G + alpha + iu)^Y - G^Y];

        inf for Y <= -1.  Each bracketed pair is b^Y*Re expm1(Y*log(1 + z))
        for b = M, G and z = (-alpha - iu)/M, (alpha + iu)/G, with the real
        and imaginary parts of log(1 + z) from log1p and atan2, free of the
        cancellation at small |z| that the psi of ``_log_cf`` avoids the
        same way; near the strip's edge, from 1 + x = (b + shift)/b instead.

        The drift term is a constant.  The bracket is Re(a - iu)^Y for
        a = M - alpha > 0 and for a = G + alpha > 0 (the G side is a
        conjugate, with the same real part), less constants.  Writing
        a - iu = r*e^(-i*theta) with theta in [0, pi/2),
        d/du Re(a - iu)^Y = -Y*r^(Y-1)*sin((Y-1)*theta), and
        -Y*Gamma(-Y) = Gamma(1-Y).  For 1 < Y < 2, Gamma(1-Y) < 0 and
        (Y-1)*theta lies in [0, pi/2); for -1 < Y < 1, Gamma(1-Y) > 0 and
        (Y-1)*theta lies in (-pi, 0].  Either way the derivative is <= 0.
        For Y <= -1 the angle can pass -pi, so no bound is claimed.
        """
        y = self.Y
        if y <= -1.0:
            return math.inf

        def gap(base: float, power: float, shift: float) -> float:
            x, v = shift / base, u / base
            if x > -0.5:
                one_x, log_r = 1.0 + x, 0.5 * math.log1p(x * (2.0 + x) + v * v)
            else:  # near the strip's edge x = -1, where x*(2 + x) rounds to -1
                one_x = (base + shift) / base
                log_r = 0.5 * math.log(one_x * one_x + v * v)
            angle = y * math.atan2(v, one_x)
            return power * (math.expm1(y * log_r) * math.cos(angle)
                            - 2.0 * math.sin(0.5 * angle) ** 2)

        t = market.maturity
        return alpha * self._drift(market) * t + self.C * t * self._gamma * (
            gap(self.M, self._m_power, -alpha) + gap(self.G, self._g_power, alpha)
        )


ModelSpec = Union[HestonParams, KouParams, CGMYParams]
_MODEL_TYPES = get_args(ModelSpec)


# ---------------------------------------------------------------------------
# strips, moments and the characteristic function
# ---------------------------------------------------------------------------

def _edge(admits) -> float:
    """The first float x > 0 where admits(x) fails, or inf where it holds up
    to the largest float, for admits monotone: a bisection over the bits of
    the floats, which as int64s order as the nonnegative floats do."""
    if admits(_TOP):
        return math.inf
    [top] = struct.unpack("<q", struct.pack("<d", _TOP))
    index = bisect.bisect_left(range(top), True, key=lambda bits: not admits(
        *struct.unpack("<d", struct.pack("<q", bits))))
    return struct.unpack("<d", struct.pack("<q", index))[0]


def damping_bounds(model: ModelSpec, market: MarketSpec) -> tuple[float, float]:
    """Open interval of contour shifts alpha for which phi_T(u - i*alpha) is
    defined for all real u at the maturity T: where E[(S_T/S_0)^alpha]
    explodes after T, T*(alpha) > T, an interval about [0, 1] (Hoelder).
    Each edge is the first float outward that :func:`check_damping` refuses,
    solved by bisection: Kou's (-eta2, eta1) and CGMY's (-G, M) at every T,
    and Heston's, which narrows as T grows.  A non-model is refused here."""
    check_damping(model, market)
    return (-_edge(lambda x: model._explosion_time(-x) > market.maturity),
            _edge(lambda x: model._explosion_time(x) > market.maturity))


def check_damping(model: ModelSpec, market: MarketSpec, *shifts: float) -> None:
    """Raise a validation error unless each contour shift (alpha, or the
    Carr-Madan damping plus 1) lies inside :func:`damping_bounds`, by one
    rule for every model, one closed form per shift: T*(shift) > T.  A
    non-model, or a market not a MarketSpec, is refused with no shift too."""
    if not isinstance(model, _MODEL_TYPES):
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    if not isinstance(market, MarketSpec):
        raise ValidationError(f"market must be a MarketSpec, got {type(market).__name__}")
    for shift in shifts:
        if not model._explosion_time(shift) > market.maturity:
            lo, hi = damping_bounds(model, market)
            raise ValidationError(
                f"contour shift {shift:g} lies outside the admissible interval ({lo:g}, {hi:g}) "
                f"for {type(model).__name__} at T = {market.maturity:g}, so "
                f"E[(S_T/S_0)^{shift:g}] is infinite"
            )


def check_moment(order: float, value: complex) -> None:
    """Raise a validation error unless value = E[(S_T/S_0)^order] is real,
    positive and finite, up to the ~1e-17 of imaginary roundoff that valid
    moments carry: an imaginary part up to 1e-10 of the real part.

    A moment that is exactly 0 has underflowed, and one whose real part is
    +inf has overflowed; lowering the damping mends neither.  The strip
    has refused every order whose moment explodes, so any other invalid
    value is the computation's own: rounding next to the strip's edge, or
    a nan of the complex log-CF at extreme parameters.
    """
    if value == 0.0 or value.real == math.inf:
        raise ValidationError(
            f"E[(S_T/S_0)^{order:g}] {'underflows to 0' if value == 0.0 else 'overflows'}; "
            f"the drift (r - q)*T or the maturity is too extreme for this moment to be "
            f"representable"
        )
    if not (math.isfinite(value.real) and value.real > 0.0
            and abs(value.imag) <= 1e-10 * value.real):
        raise ValidationError(
            f"E[(S_T/S_0)^{order:g}] is finite inside the strip, but computes as "
            f"{value:.3e}, not real, positive and finite: rounding near the strip's edge, "
            f"or the log-CF's complex arithmetic at these parameters, lost it"
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
    im = np.imag(u_arr)
    check_damping(model, market, *((-float(im.max()), -float(im.min())) if im.size else ()))
    # an overflow is inf, without NumPy's warning: |phi_T| along a contour is
    # at most its moment at index 0, which every pricer checks
    with np.errstate(over="ignore"):
        out = np.exp(model._log_cf(market, u_arr))
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


def _log_envelope(model: ModelSpec, market: MarketSpec, alpha: float, u: float) -> float:
    """The model's upper bound on log|phi_T(u - i*alpha)| that does not
    increase in u >= 0, for alpha inside :func:`damping_bounds`; inf where
    no bound is proven, and wherever it is nan or not finite (Heston past
    an explosion)."""
    bound = model._log_envelope(market, alpha, u)
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
    check_damping(model, market, shift)
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
    step,
    shift,
    size,
    cap: float = math.inf,
):
    """Characteristic-function values on the live prefix of a uniform contour.

    The contour is u_k - i*shift with u_k = k*step for k < size; evaluate
    is :func:`char_fn` as the caller binds it and is called as
    evaluate(model, market, points), and nothing is evaluated before
    :func:`check_damping` passes the shift.  Index 0, the moment
    E[(S_T/S_0)^shift], is always kept; the caller checks it.

    step, shift and size are numbers, giving one band, or tuples, one
    entry per contour, giving a tuple of bands: each contour is cut and
    trimmed by itself, in order, and one evaluate call covers the live
    points of them all, so a band does not depend on the other contours
    (phi is elementwise).

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
    if not isinstance(step, tuple):
        return live_band(evaluate, model, market, (step,), (shift,), (size,), cap)[0]
    ends, points = [], []
    for du, alpha, n in zip(step, shift, size):
        tail = math.log(TAIL_SHARE / (4 * cap)) if n <= cap < math.inf else None
        ends.append(envelope_cut(model, market, alpha, n, lambda k: k * du,
                                 None if tail is None else lambda k: tail, _UNDERFLOW_LOG))
        points.append(np.arange(ends[-1]) * du - 1j * alpha)
    phi = evaluate(model, market, np.concatenate(points))
    bands, start = [], 0
    for end in ends:
        # up to and including the last nonzero value, and at least index 0
        [nonzero] = phi[start:start + end].nonzero()
        bands.append(phi[start:start + (nonzero[-1] + 1 if nonzero.size else 1)])
        start += end
    return tuple(bands)


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
        check_fields(self, c1=FINITE, c2=NONNEGATIVE, c4=NONNEGATIVE)


def _read_cumulants(model: ModelSpec, centre: float, c1, c2, c4) -> Cumulants:
    """centre's Cumulants, for every model, or, where the number rule of
    :class:`Cumulants` refuses c1, c2 or c4, a computation error naming them."""
    try:
        return Cumulants(c1=c1, c2=c2, c4=c4)
    except ValidationError:
        raise ComputationError(f"the cumulants of {type(model).__name__} tilted by "
                               f"exp({centre:g}*X) are not finite floats: c1 = {c1:g}, "
                               f"c2 = {c2:g}, c4 = {c4:g}") from None


_CONTOUR_NODES = 64  # trapezoid nodes on the circle |s| = r
# Heston's radius away from the strip's edges, large: its c4 rounding grows as r^-4
_HESTON_RADIUS = 0.5
# s/r at the nodes with Im(s) <= 0; the others are their conjugates
_NODES = np.exp(-1j * np.linspace(0.0, math.pi, _CONTOUR_NODES // 2 + 1))
# the exponents of the powers of r that scale the Taylor coefficients 0..4
_POWERS = np.arange(5)


def cumulants(model: ModelSpec, market: MarketSpec, centre=0.0):
    """First, second and fourth cumulants of ln(S_T / S_0) under the law
    tilted by exp(centre * X): the damped series at alpha expands the law
    at centre alpha, and centre 0 is the undamped law.

    c_n = n! * [s^n] K(centre + s) for K(s) = log phi_T(-i*s) =
    log E[exp(s*X)], which is analytic around any centre in the damping
    strip.  The model's ``_cumulants`` reads them, and one reader,
    :func:`_read_cumulants`, checks them for every model: where one is not
    finite, a computation error names c1, c2 and c4.  Kou's and CGMY's
    tilted laws stay in their families, so theirs are closed forms, in
    real arithmetic; Heston's are read off a Cauchy contour of log phi_T.
    A centre outside the strip is refused first, by :func:`check_damping`.

    centre is one centre, giving one Cumulants, or a tuple of them, giving
    a tuple: each centre is checked in order, then each is read as it is
    alone (one _log_cf call covers Heston's circles), so a tuple refuses
    as its first refused centre."""
    if not isinstance(centre, tuple):
        return cumulants(model, market, (centre,))[0]
    check_damping(model, market, *centre)
    return model._cumulants(market, centre)


@dataclass(frozen=True)
class TruncationRange:
    """Interval [a, b] on which the cosine expansion is carried out."""

    a: float
    b: float

    def __post_init__(self):
        check_fields(self, a=FINITE, b=FINITE)
        if not self.a < self.b:
            raise ValidationError(f"range must satisfy a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


def truncation_range(cums: Cumulants, range_width: float) -> TruncationRange:
    """Cumulant-based expansion interval a, b = c1 -/+ range_width * sqrt(c2 + sqrt(c4)).

    range_width is the half-width multiplier L, positive by the rule of
    :func:`check_number`.  Raises a validation error when the spread
    c2 + sqrt(c4) vanishes, since the interval degenerates.
    """
    range_width = check_number("range_width", range_width, POSITIVE)
    spread = cums.c2 + math.sqrt(cums.c4)
    if spread <= 0.0:
        raise ValidationError("degenerate truncation range: c2 + sqrt(c4) is zero")
    half = range_width * math.sqrt(spread)
    return TruncationRange(a=cums.c1 - half, b=cums.c1 + half)
