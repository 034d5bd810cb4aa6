"""Rebuild the benchmark strike table and diff it against the bundled one.

Runs all four model profiles times five methods over the nine-strike
grid, writes the result to strike_table.csv (with a JSON sidecar), and
prints the worst absolute deviation per method column.  The undamped
expansion has no preset for the Y=1.98 profile; those cells come back
flagged "skipped".
"""

from cospricer.harness import run_strike_table, write_result
from cospricer.presets import load_strike_table


def main():
    result = run_strike_table()
    sidecar = write_result(result, "strike_table.csv")
    print(f"wrote strike_table.csv and {sidecar} "
          f"({result.metadata['wall_clock_s']:.2f} s)\n")

    golden = load_strike_table()
    strikes = list(result.axis("strike"))
    models = list(result.axis("model"))
    methods = list(result.axis("method"))

    for method in methods:
        gaps = []
        for (g_model, g_method, g_strike), want in golden.items():
            if g_method != method:
                continue
            got = result.values[
                strikes.index(g_strike), models.index(g_model), methods.index(method)
            ]
            gaps.append(abs(got - want))
        print(f"  {method:<17s} {len(gaps):>2d} reference cells, "
              f"worst |gap| {max(gaps):.2e}")

    skipped = sum(flag == "skipped" for flag in result.flags.values())
    print(f"\n  skipped cells: {skipped} "
          f"(undamped expansion, fat-tail profile; see cancellation_blowup.py)")


if __name__ == "__main__":
    main()
