"""Exception types shared across the package."""


class PricingError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PricingError, ValueError):
    """Invalid model, market, option, grid, or range parameters."""


class ConfigurationError(PricingError, ValueError):
    """Method configuration the requested pricing variant cannot honor."""


class ComputationError(PricingError, ArithmeticError):
    """A numerical procedure failed to produce a trustworthy finite result."""
