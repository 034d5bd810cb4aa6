"""Price one European option every way the library knows.

The damped cosine expansion is the headline method; the plain and
parity expansions plus the two transform references are printed next
to it so the agreement (and its limits) is visible at a glance.
"""

from cospricer import price_carr_madan, price_fourier_integral
from cospricer.cos_engine import OptionSpec, Variant, price
from cospricer.presets import (
    carr_madan_preset,
    integral_preset,
    market_preset,
    method_preset,
    model_preset,
)

PROFILE = "kou"
STRIKE = 95.0


def main():
    model = model_preset(PROFILE)
    market = market_preset()
    option = OptionSpec(strike=STRIKE)

    print(f"{PROFILE} call, K={STRIKE:g}, S0={market.spot:g}, "
          f"r={market.rate:g}, T={market.maturity:g}\n")

    for variant in (Variant.STABLE, Variant.PUT_CALL_PARITY, Variant.DIRECT):
        preset = method_preset(PROFILE, variant)
        result = price(model, market, option, preset.cos_config(variant))
        print(f"  {variant.value:<18s} {result.price:.10f}   "
              f"(N={preset.n_terms}, L={preset.range_width:g})")

    integral = price_fourier_integral(model, market, STRIKE, integral_preset(PROFILE))
    print(f"  {'fourier integral':<18s} {integral:.10f}")

    carr_madan = price_carr_madan(model, market, [STRIKE], carr_madan_preset(PROFILE))[0]
    print(f"  {'carr-madan':<18s} {carr_madan:.10f}   (Simpson sum at the strike)")


if __name__ == "__main__":
    main()
