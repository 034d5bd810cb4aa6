"""Transform-based reference pricers for cross-validation.

Two independent routes to the same European call value:

``price_carr_madan``
    FFT inversion of the damped call transform on a uniform log-strike
    grid, Simpson-weighted, with cubic interpolation between grid
    strikes.
``price_fourier_integral``
    Direct adaptive quadrature of the damped Fourier representation of
    the call payoff against the characteristic function.

Both operate on the log-return characteristic function and are used as
oracles against the cosine-series engine; neither shares code with it
beyond the model layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import ComputationError, ValidationError
from .models import MarketSpec, ModelSpec, char_fn, damping_bounds

__all__ = [
    "CarrMadanConfig",
    "IntegralConfig",
    "price_carr_madan",
    "price_fourier_integral",
]


@dataclass(frozen=True)
class CarrMadanConfig:
    """FFT grid for the damped call transform.

    n_fft is the transform size (power of two), damping the Carr-Madan
    exponent applied to the call in log-strike, spacing the frequency
    step eta.  The induced log-strike step is 2*pi / (n_fft * spacing).
    """

    n_fft: int = 2 ** 16
    damping: float = 0.75
    spacing: float = 0.25

    def __post_init__(self):
        n = self.n_fft
        if n < 2 or (n & (n - 1)) != 0:
            raise ValidationError(f"n_fft must be a power of two >= 2, got {n}")
        if not (self.damping > 0.0 and math.isfinite(self.damping)):
            raise ValidationError(f"damping must be positive and finite, got {self.damping}")
        if not (self.spacing > 0.0 and math.isfinite(self.spacing)):
            raise ValidationError(f"spacing must be positive and finite, got {self.spacing}")

    @property
    def strike_step(self) -> float:
        return 2.0 * math.pi / (self.n_fft * self.spacing)

    @property
    def strike_span(self) -> float:
        """Half-width of the log-strike grid."""
        return 0.5 * self.n_fft * self.strike_step


@dataclass(frozen=True)
class IntegralConfig:
    """Adaptive-quadrature settings for the damped Fourier integral."""

    damping: float = 1.1
    max_frequency: float = 5000.0
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if not (self.damping > 1.0 and math.isfinite(self.damping)):
            raise ValidationError(f"damping must exceed 1, got {self.damping}")
        if not (self.max_frequency > 0.0 and math.isfinite(self.max_frequency)):
            raise ValidationError(
                f"max_frequency must be positive and finite, got {self.max_frequency}"
            )
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValidationError("quadrature tolerances must be positive")


def _damped_call_transform(model: ModelSpec, market: MarketSpec, v, alpha: float):
    """Fourier transform of the exp(alpha*k)-damped call in log-strike k."""
    v = np.asarray(v, dtype=complex)
    numer = np.exp(-market.rate * market.maturity) * char_fn(
        model, market, v - 1j * (alpha + 1.0)
    )
    denom = alpha * alpha + alpha - v * v + 1j * (2.0 * alpha + 1.0) * v
    return numer / denom


def price_carr_madan(
    model: ModelSpec,
    market: MarketSpec,
    strikes: Sequence[float],
    config: CarrMadanConfig = CarrMadanConfig(),
) -> list[float]:
    """Price European calls for several strikes with one FFT.

    Parameters
    ----------
    model, market : model parameters and market data.
    strikes : strike levels; each log-moneyness log(K/S0) must fall
        inside the FFT's log-strike grid.
    config : grid geometry and damping.

    Returns
    -------
    list of float
        Call prices in strike order, cubic-interpolated from the four
        nearest grid log-strikes (exact when a strike lands on the
        grid, as K = S0 does).
    """
    strikes = [float(k) for k in strikes]
    for k in strikes:
        if not (k > 0.0 and math.isfinite(k)):
            raise ValidationError(f"strike must be positive and finite, got {k}")

    n = config.n_fft
    eta = config.spacing
    lam = config.strike_step
    half_span = config.strike_span
    alpha = config.damping

    # log-moneyness grid k_u = -half_span + lam*u; u = n/2 sits exactly at k = 0
    log_strikes = np.log(np.asarray(strikes) / market.spot)
    limit = half_span - 2.0 * lam  # interpolation needs two grid points each side
    if np.any(np.abs(log_strikes) > limit):
        raise ValidationError(
            f"strike outside the FFT log-strike span (|log(K/S0)| > {limit:.3f})"
        )

    v = eta * np.arange(n)
    psi = _damped_call_transform(model, market, v, alpha)
    # Simpson weights eta/3 * (3 + (-1)^(j+1)) with the j = 0 endpoint halved
    weights = (eta / 3.0) * (3.0 + (-1.0) ** (np.arange(n) + 1))
    weights[0] = eta / 3.0
    # e^{i*v*half_span} re-centres the grid; FFT supplies e^{-2*pi*i*j*u/n}
    spectrum = np.fft.fft(psi * np.exp(1j * v * half_span) * weights)
    grid_k = -half_span + lam * np.arange(n)
    damped = np.exp(-alpha * grid_k) / math.pi * spectrum.real
    prices = market.spot * damped

    out = []
    for k in log_strikes:
        j = int(np.searchsorted(grid_k, k))  # grid_k[j-1] <= k < grid_k[j]
        sel = slice(j - 2, j + 2)
        spline = CubicSpline(grid_k[sel], prices[sel], bc_type="natural")
        value = float(spline(k))
        if not math.isfinite(value) or value > market.spot * (1.0 + 1e-9):
            # a call above spot signals the exp((damping+1)*y) moment has
            # overwhelmed the grid; lower the damping for heavy tails
            raise ComputationError(
                f"FFT call price {value:.3e} violates the spot bound; "
                f"damping {alpha} is too aggressive for this model"
            )
        out.append(value)
    return out


def _integrand(u: float, model, market, alpha: float, x: float) -> float:
    # g_hat(u) * exp(i*(-u - i*alpha)*x) * phi(-u - i*alpha), real part;
    # the strike prefactor K is applied outside
    w = -u - 1j * alpha
    g_hat = 1.0 / ((alpha - 1j * u) * (alpha - 1.0 - 1j * u))
    val = g_hat * np.exp(1j * w * x) * char_fn(model, market, w)
    return float(val.real)


def price_fourier_integral(
    model: ModelSpec,
    market: MarketSpec,
    strike: float,
    config: IntegralConfig = IntegralConfig(),
) -> float:
    """Price a European call by damped Fourier quadrature.

    Evaluates

        v = exp(-r*T)/(2*pi) * integral of
            K/((alpha - i*u)(alpha - 1 - i*u))
            * exp(i*(-u - i*alpha)*x) * phi(-u - i*alpha) du

    over u in [-max_frequency, max_frequency] with x = log(S0/K).  The
    damping alpha must exceed 1 (call payoff integrability) and keep
    phi inside its analyticity strip; the result is invariant to the
    particular alpha chosen, which is asserted in the test suite.
    """
    if not (strike > 0.0 and math.isfinite(strike)):
        raise ValidationError(f"strike must be positive and finite, got {strike}")
    alpha = config.damping
    lo, hi = damping_bounds(model)
    # phi is evaluated at -u - i*alpha, i.e. Im = -alpha, so alpha must
    # lie inside the damping bounds (lo, hi)
    if not (lo < alpha < hi):
        raise ValidationError(
            f"damping {alpha} leaves the characteristic-function strip ({lo}, {hi})"
        )

    x = math.log(market.spot / strike)
    # integrand is Hermitian in u, so integrate the real part once;
    # points= anchors the adaptive rule near the origin where the
    # kernel peaks
    value, abserr = quad(
        _integrand,
        -config.max_frequency,
        config.max_frequency,
        args=(model, market, alpha, x),
        epsabs=config.abs_tol,
        epsrel=config.rel_tol,
        limit=4000,
        points=[-50.0, 0.0, 50.0],
    )
    price = strike * math.exp(-market.rate * market.maturity) * value / (2.0 * math.pi)
    if not math.isfinite(price):
        raise ComputationError("Fourier integral produced a non-finite price")
    if abserr > 1e-6 * max(1.0, abs(value)):
        raise ComputationError(
            f"Fourier quadrature failed to converge (abserr={abserr:.2e})"
        )
    return price
