"""Convergence of the three expansion variants on one profile.

Prints log10 absolute error at strike 100 versus the number of series
terms, against the 13-digit recomputed reference.  If matplotlib is
importable the curves are also saved to convergence_<profile>.png.
"""

from cospricer.cos_engine import Variant
from cospricer.harness import run_convergence

PROFILE = "heston"
N_GRID = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256)
VARIANTS = (Variant.STABLE, Variant.PUT_CALL_PARITY, Variant.DIRECT)


def main():
    curves = {}
    for variant in VARIANTS:
        result = run_convergence(PROFILE, N_GRID, method=variant)
        curves[variant.value] = result.values
        print(f"{PROFILE} {variant.value}: reference {result.metadata['reference']:.13f} "
              f"({result.metadata['reference_source']})")

    header = "N".rjust(6) + "".join(name.rjust(22) for name in curves)
    print("\n" + header)
    for i, n in enumerate(N_GRID):
        row = f"{n:6d}" + "".join(f"{curves[name][i]:22.2f}" for name in curves)
        print(row)
    print("\n(values are log10 |error|; the floor near -16 is double precision)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(6.0, 4.0))
    for name, errs in curves.items():
        ax.plot(N_GRID, errs, marker="o", label=name)
    ax.set_xlabel("series terms N")
    ax.set_ylabel("log10 |error|")
    ax.set_title(f"{PROFILE}, strike 100")
    ax.legend()
    fig.tight_layout()
    fig.savefig(f"convergence_{PROFILE}.png", dpi=120)
    print(f"saved convergence_{PROFILE}.png")


if __name__ == "__main__":
    main()
