"""Why the call expansion needs damping on fat-tailed models.

For the Y=1.98 tempered-stable profile the plain call coefficients
grow so large that the series becomes a difference of huge terms; in
double precision the price is garbage at any practical term count.
The damped expansion prices the same option to ten digits with 80
terms.  The put-parity route also works (the put coefficients stay
bounded), which is how the reference prices here were produced.
"""

from cospricer.cos_engine import CosConfig, OptionSpec, Variant, price
from cospricer.presets import load_reference_prices, market_preset, model_preset

REFERENCE = load_reference_prices()["cgmy2"]


def main():
    model = model_preset("cgmy2")
    market = market_preset()
    option = OptionSpec(strike=100.0)

    print(f"cgmy Y=1.98 call, K=100; reference {REFERENCE:.13f}\n")
    print(f"{'N':>6s} {'plain expansion':>22s} {'damped (alpha=1.001)':>22s}")
    for n in (64, 80, 128, 256, 512):
        plain = price(
            model, market, option,
            CosConfig(n_terms=n, range_width=10.0, variant=Variant.DIRECT),
        ).price
        damped = price(
            model, market, option,
            CosConfig(n_terms=n, range_width=17.0, damping=1.001),
        ).price
        print(f"{n:6d} {plain:22.6f} {damped:22.10f}")

    print(
        "\nthe plain column is rounding error, not a price: the call"
        "\ncoefficients reach ~7e21 (about e^b on a range ending at b=50),"
        "\nso rounding each term to 16 digits costs millions, and the sum"
        f"\nsettles near {plain:.2g}, far outside the call's bounds [9.5, 100];"
        "\nthe damped column is correct to ten digits from N=80 on"
    )


if __name__ == "__main__":
    main()
