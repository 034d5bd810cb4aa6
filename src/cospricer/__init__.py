"""Damped Fourier-cosine pricing of European options.

The package prices calls and puts by a cosine-series expansion of the
risk-neutral density over a cumulant-sized truncation range.  Calls
can be priced three ways: a damped expansion that keeps the payoff
coefficients bounded, the classic undamped expansion, and put-call
parity on the undamped put.  A convergence curve, one option at
several term counts, is priced from one series.  Two transform
pricers (Carr-Madan summed at each strike and fixed-node Gauss-Legendre
quadrature of the damped Fourier integral), each pricing a strike
column at once, serve as independent cross-checks, and a small
harness regenerates the benchmark tables and figure datasets.
"""

from .cos_engine import (
    CosConfig,
    OptionKind,
    OptionSpec,
    PriceColumn,
    PriceResult,
    Variant,
    price,
    price_curve,
    price_curves,
)
from .errors import (
    ComputationError,
    ConfigurationError,
    PricingError,
    ValidationError,
)
from .harness import (
    ExperimentResult,
    run_convergence,
    run_l_sweep,
    run_reference_set,
    run_stability_surface,
    run_strike_table,
    write_result,
)
from .models import (
    CGMYParams,
    Cumulants,
    HestonParams,
    KouParams,
    MarketSpec,
    TruncationRange,
    char_fn,
    cumulants,
    damping_bounds,
    truncation_range,
)
from .transform_refs import (
    CarrMadanConfig,
    IntegralConfig,
    price_carr_madan,
    price_fourier_integral,
)

__all__ = [
    "CGMYParams",
    "CarrMadanConfig",
    "ComputationError",
    "ConfigurationError",
    "CosConfig",
    "Cumulants",
    "ExperimentResult",
    "HestonParams",
    "IntegralConfig",
    "KouParams",
    "MarketSpec",
    "OptionKind",
    "OptionSpec",
    "PriceColumn",
    "PriceResult",
    "PricingError",
    "TruncationRange",
    "ValidationError",
    "Variant",
    "char_fn",
    "cumulants",
    "damping_bounds",
    "price",
    "price_carr_madan",
    "price_curve",
    "price_curves",
    "price_fourier_integral",
    "run_convergence",
    "run_l_sweep",
    "run_reference_set",
    "run_stability_surface",
    "run_strike_table",
    "truncation_range",
    "write_result",
]

__version__ = "0.1.0"
