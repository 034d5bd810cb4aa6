"""Risk-neutral log-return models.

Each model is a frozen parameter dataclass with an extended characteristic
function phi_T(u) = E[exp(i u ln(S_T / S_0))], valid for complex u inside the
model's strip of analyticity.  The module also provides log-cumulants of the
log-return (computed by central differences of log phi_T) and the series
truncation interval built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import ComputationError, DomainError, ValidationError

__all__ = [
    "MarketSpec",
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
    """

    spot: float
    rate: float
    dividend: float = 0.0
    maturity: float = 1.0

    def __post_init__(self):
        if not (self.spot > 0.0 and math.isfinite(self.spot)):
            raise ValidationError(f"spot must be positive and finite, got {self.spot}")
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise ValidationError(f"maturity must be positive and finite, got {self.maturity}")
        for name in ("rate", "dividend"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")


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
        if not self.kappa > 0.0:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")
        if not self.theta >= 0.0:
            raise ValidationError(f"theta must be nonnegative, got {self.theta}")
        if not self.sigma > 0.0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must lie in [-1, 1], got {self.rho}")
        if not self.v0 >= 0.0:
            raise ValidationError(f"v0 must be nonnegative, got {self.v0}")


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
        if not self.sigma > 0.0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"p must lie in [0, 1], got {self.p}")
        if not self.eta1 > 1.0:
            raise ValidationError(f"eta1 must exceed 1, got {self.eta1}")
        if not self.eta2 > 0.0:
            raise ValidationError(f"eta2 must be positive, got {self.eta2}")
        if not self.lam >= 0.0:
            raise ValidationError(f"lam must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class CGMYParams:
    """Tempered-stable pure-jump model with parameters C, G, M, Y.

    M > 1 keeps E[S_T] finite; Y < 2 is required for a valid Levy measure and
    Y in {0, 1} is excluded so that Gamma(-Y) is finite.
    """

    C: float
    G: float
    M: float
    Y: float

    def __post_init__(self):
        if not self.C > 0.0:
            raise ValidationError(f"C must be positive, got {self.C}")
        if not self.G > 0.0:
            raise ValidationError(f"G must be positive, got {self.G}")
        if not self.M > 1.0:
            raise ValidationError(f"M must exceed 1, got {self.M}")
        if not self.Y < 2.0:
            raise ValidationError(f"Y must be below 2, got {self.Y}")
        if self.Y in (0.0, 1.0):
            raise ValidationError("Y must not equal 0 or 1")


ModelSpec = Union[HestonParams, KouParams, CGMYParams]


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def _heston_cf(model: HestonParams, market: MarketSpec, u):
    t = market.maturity
    zeta = -0.5 * (1j * u + u * u)
    gam = model.kappa - 1j * model.rho * model.sigma * u
    xi = np.sqrt(gam * gam - 2.0 * model.sigma ** 2 * zeta)
    decay = 1.0 - np.exp(-xi * t)
    denom = 2.0 * xi - (xi - gam) * decay
    drift = 1j * u * (market.rate - market.dividend) * t
    vol_term = 2.0 * zeta * decay * model.v0 / denom
    mean_term = -(model.kappa * model.theta / model.sigma ** 2) * (
        2.0 * np.log(denom / (2.0 * xi)) + (xi - gam) * t
    )
    return np.exp(drift + vol_term + mean_term)


def _kou_cf(model: KouParams, market: MarketSpec, u):
    t = market.maturity
    p, e1, e2 = model.p, model.eta1, model.eta2
    jump_drift = p * e1 / (e1 - 1.0) + (1.0 - p) * e2 / (e2 + 1.0) - 1.0
    mu = market.rate - market.dividend - 0.5 * model.sigma ** 2 - model.lam * jump_drift
    jump_cf = p * e1 / (e1 - 1j * u) + (1.0 - p) * e2 / (e2 + 1j * u) - 1.0
    return np.exp(
        1j * u * mu * t - 0.5 * model.sigma ** 2 * u * u * t + model.lam * t * jump_cf
    )


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


def _cgmy_cf(model: CGMYParams, market: MarketSpec, u):
    t = market.maturity
    c, g, m, y = model.C, model.G, model.M, model.Y
    gam = gamma_fn(-y)
    # drift compensator is psi at u = -i, in real arithmetic
    psi_mart = m ** y * math.expm1(y * math.log1p(-1.0 / m)) + g ** y * math.expm1(
        y * math.log1p(1.0 / g)
    )
    mu = market.rate - market.dividend - c * gam * psi_mart
    # principal-branch logs; Re(m - iu) and Re(g + iu) stay positive for
    # Im(u) inside (-m, g)
    levy = c * t * gam * _cgmy_psi(g, m, y, u)
    return np.exp(1j * u * mu * t + levy)


def _analyticity_strip(model: ModelSpec):
    """Open interval of admissible Im(u), or None when no closed form exists."""
    if isinstance(model, KouParams):
        return (-model.eta1, model.eta2)  # up-jump pole eta1/(eta1 - iu) at Im(u) = -eta1
    if isinstance(model, CGMYParams):
        return (-model.M, model.G)  # (M - iu)^Y branch point at Im(u) = -M
    return None


def damping_bounds(model: ModelSpec) -> tuple[float, float]:
    """Open interval of damping exponents alpha for which phi_T(u - i*alpha)
    is defined for all real u.

    For the stochastic volatility model no closed-form strip is available;
    a conservative envelope that covers the supported parameter regime is
    returned instead.
    """
    strip = _analyticity_strip(model)
    if strip is None:
        return (-2.0, 2.0)
    lo, hi = strip
    return (-hi, -lo)


def char_fn(model: ModelSpec, market: MarketSpec, u):
    """Extended characteristic function of the log-return ln(S_T / S_0).

    Parameters
    ----------
    model : ModelSpec
    market : MarketSpec
    u : complex scalar or array_like
        Argument; Im(u) must lie inside the model's strip of analyticity
        (checked for the jump models, where the strip is explicit).

    Returns
    -------
    complex scalar or ndarray matching the shape of ``u``.
    """
    u_arr = np.asarray(u, dtype=np.complex128)
    strip = _analyticity_strip(model)
    if strip is not None:
        im = np.imag(u_arr)
        if np.any(im <= strip[0]) or np.any(im >= strip[1]):
            raise DomainError(
                f"Im(u) must lie in ({strip[0]}, {strip[1]}) for "
                f"{type(model).__name__}"
            )
    if isinstance(model, HestonParams):
        out = _heston_cf(model, market, u_arr)
    elif isinstance(model, KouParams):
        out = _kou_cf(model, market, u_arr)
    elif isinstance(model, CGMYParams):
        out = _cgmy_cf(model, market, u_arr)
    else:
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    if np.ndim(u) == 0 and not isinstance(u, np.ndarray):
        return complex(out)
    return out


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


def cumulants(model: ModelSpec, market: MarketSpec) -> Cumulants:
    """First, second and fourth cumulants of ln(S_T / S_0).

    Uses central finite differences of log phi_T(u) at u = 0.  The even-order
    stencils collapse to two evaluations through the Hermitian symmetry
    phi_T(-u) = conj(phi_T(u)), and one Richardson step removes the leading
    O(h^2) error.  Tiny negative values of c2 or c4 caused by roundoff are
    floored at zero.
    """

    def log_phi(h: float) -> complex:
        val = char_fn(model, market, complex(h))
        return complex(np.log(val))

    def stencil(h: float) -> tuple[float, float, float]:
        f1 = log_phi(h)
        f2 = log_phi(2.0 * h)
        c1 = f1.imag / h
        c2 = -2.0 * f1.real / h ** 2
        c4 = (2.0 * f2.real - 8.0 * f1.real) / h ** 4
        return c1, c2, c4

    # pilot step sized so that the relative perturbation of log phi is O(1e-4)
    pilot = -2.0 * log_phi(1e-2).real / 1e-4
    h = 1e-2 / math.sqrt(max(pilot, 1e-8))
    coarse = stencil(h)
    fine = stencil(0.5 * h)
    c1, c2, c4 = ((4.0 * f - c) / 3.0 for f, c in zip(fine, coarse))
    if not all(map(math.isfinite, (c1, c2, c4))):
        raise ComputationError(
            f"cumulant differentiation produced a non-finite value for "
            f"{type(model).__name__}"
        )
    return Cumulants(c1=c1, c2=max(c2, 0.0), c4=max(c4, 0.0))


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
