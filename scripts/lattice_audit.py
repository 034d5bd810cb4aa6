"""Price the strike lattice of every profile and write one CSV row per cell.

    python scripts/lattice_audit.py --output lattice.csv
    python scripts/lattice_audit.py --output lattice.csv --baseline ../other-checkout
    python scripts/lattice_audit.py --output slice.csv --profiles kou --maturities 0.001 \\
        --strikes 60 100 157.5

Run from anywhere; the package is imported from ``--src``, by default the
``src/`` of the checkout this script lives in.  A cell is a profile, a
maturity, a series (stable, direct and parity calls; stable and direct
puts), a configuration (the profile's preset, ``4096x12``, ``256x20`` or
``60000x12``, as N x L) and a strike of the 201-strike lattice on
[60, 160].  The market is the preset market re-dated to the maturity.  A
preset put takes its variant's preset with the damping 0.

Each (profile, maturity, series, configuration) column is priced in one
batch ``price`` call.  Where the batch is refused, each strike is priced
alone, so each row holds its own price or the type of its own refusal.
A priced row gets the no-arbitrage verdict ``ok``, ``above`` or ``below``:
the bounds are [max(S0 e^(-qT) - K e^(-rT), 0), S0 e^(-qT)] for a call and
[max(K e^(-rT) - S0 e^(-qT), 0), K e^(-rT)] for a put, each with 1e-9*S0
of slack, the rule of ``models.check_call_prices``.  Prices are written
with ``repr``, so they read back bit for bit.  A stable or parity call
row whose partner is priced at the same profile, maturity, configuration
and strike holds their ``gap``, |stable - parity|; other rows leave it
blank.  The summary counts, per profile, the pairs whose gap exceeds
1e-6*max(1, |parity|).

``--baseline DIR`` also prices the same cells with DIR/src, in a child
process, and prints the bit-move table: per profile, the cells compared,
the prices that moved, the largest move among moved cells inside the
bounds in both trees, the moved cells outside them in either tree, and
the cells whose refusal changed (a price that became a refusal counts
there too).  It compares prices, refusals and verdicts alone, so a
baseline CSV without the gap column compares too.
"""

from __future__ import annotations

import argparse
import csv
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LATTICE = tuple(60.0 + 0.5 * i for i in range(201))
MATURITIES = (1e-3, 0.1, 1.0, 5.0, 20.0)
SERIES = (("stable", "call"), ("direct", "call"), ("parity", "call"),
          ("stable", "put"), ("direct", "put"))
CONFIGS = {"preset": None, "4096x12": (4096, 12.0), "256x20": (256, 20.0),
           "60000x12": (60000, 12.0)}
FIELDS = ("profile", "maturity", "variant", "kind", "config", "strike", "price", "refusal",
          "verdict", "gap")
SLACK = 1e-9  # of S0, as models.check_call_prices allows
GAP = 1e-6  # of max(1, |parity|): a stable-parity gap the summary counts


def load(src: Path):
    """The cospricer package under src, imported into this process."""
    sys.path.insert(0, str(src))
    import cospricer

    if not Path(cospricer.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"lattice_audit: cospricer was imported from {cospricer.__file__}, "
                         f"not from {src}")
    return cospricer


def series_config(cospricer, profile: str, variant: str, kind: str, config: str):
    """The CosConfig of a column; raises the package's error where the
    profile has no such preset."""
    chosen = cospricer.Variant(variant)
    if CONFIGS[config] is not None:
        n_terms, width = CONFIGS[config]
        return cospricer.CosConfig(n_terms, width, variant=chosen)
    preset = cospricer.presets.method_preset(profile, chosen).cos_config(chosen)
    return replace(preset, damping=0.0) if (variant, kind) == ("stable", "put") else preset


def verdict(market, kind: str, strike: float, value: float) -> str:
    forward, discounted = market.spot * market.dividend_factor, strike * market.discount_factor
    upper = forward if kind == "call" else discounted
    lower = max(forward - discounted if kind == "call" else discounted - forward, 0.0)
    slack = SLACK * market.spot
    return "above" if value > upper + slack else "below" if value < lower - slack else "ok"


def price_column(cospricer, model, market, kind: str, strikes, config) -> list:
    """(price, refusal) per strike: one batch call, or each strike alone
    where the batch is refused."""
    option_kind = cospricer.OptionKind(kind)
    options = [cospricer.OptionSpec(k, option_kind) for k in strikes]
    try:
        return [(p, "") for p in cospricer.price(model, market, options, config).prices.tolist()]
    except cospricer.PricingError:
        pass
    cells = []
    for option in options:
        try:
            cells.append((cospricer.price(model, market, option, config).price, ""))
        except cospricer.PricingError as exc:
            cells.append((None, type(exc).__name__))
    return cells


def audit(cospricer, profiles, maturities, strikes) -> list:
    """One row dict per cell, in the order of the loops below."""
    rows = []
    for profile in profiles:
        model = cospricer.presets.model_preset(profile)
        for maturity in maturities:
            market = cospricer.presets.market_preset(maturity)
            for variant, kind in SERIES:
                for config in CONFIGS:
                    try:
                        cos_config = series_config(cospricer, profile, variant, kind, config)
                    except cospricer.PricingError as exc:
                        cells = [(None, type(exc).__name__)] * len(strikes)
                    else:
                        cells = price_column(cospricer, model, market, kind, strikes,
                                             cos_config)
                    for strike, (value, refusal) in zip(strikes, cells):
                        rows.append({
                            "profile": profile, "maturity": repr(maturity),
                            "variant": variant, "kind": kind, "config": config,
                            "strike": repr(strike),
                            "price": "" if value is None else repr(value),
                            "refusal": refusal,
                            "verdict": "" if value is None else verdict(market, kind, strike,
                                                                        value),
                            "gap": "",
                        })
    add_gaps(rows)
    return rows


def add_gaps(rows) -> None:
    """Fill the gap of each stable and parity call row whose partner is priced."""
    pairs = {}
    for row in rows:
        if row["kind"] == "call" and row["variant"] in ("stable", "parity") and row["price"]:
            cell = (row["profile"], row["maturity"], row["config"], row["strike"])
            pairs.setdefault(cell, {})[row["variant"]] = row
    for pair in pairs.values():
        if len(pair) == 2:
            gap = abs(float(pair["stable"]["price"]) - float(pair["parity"]["price"]))
            pair["stable"]["gap"] = pair["parity"]["gap"] = repr(gap)


def write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def summary(rows) -> list:
    """Lines: the cell counts, then each column with a price outside the bounds."""
    refusals = Counter(row["refusal"] for row in rows if row["refusal"])
    outside = Counter((row["profile"], row["variant"], row["kind"], row["config"],
                       row["maturity"], row["verdict"])
                      for row in rows if row["verdict"] not in ("", "ok"))
    refused = sum(refusals.values())
    by_type = ", ".join(f"{name} {count}" for name, count in sorted(refusals.items()))
    lines = [f"cells {len(rows)}, priced {len(rows) - refused}, refused {refused}"
             f"{f' ({by_type})' if by_type else ''}, outside the bounds {sum(outside.values())}"]
    for (profile, variant, kind, config, maturity, where), count in sorted(outside.items()):
        lines.append(f"  {profile} {variant} {kind} {config} T={maturity}: {count} {where}")
    gaps = Counter()
    for row in rows:
        if row["variant"] == "parity" and row["gap"]:
            bar = GAP * max(1.0, abs(float(row["price"])))
            gaps[row["profile"]] += float(row["gap"]) > bar
    lines.append(f"stable-parity call gaps above {GAP:g}*max(1, |parity|): "
                 + ", ".join(f"{profile} {count}" for profile, count in gaps.items()))
    return lines


def key(row) -> tuple:
    return tuple(row[name] for name in FIELDS[:6])


def bit_moves(rows, base_rows) -> list:
    """The bit-move table against a baseline's rows, as markdown lines."""
    base = {key(row): row for row in base_rows}
    if set(base) != {key(row) for row in rows}:
        raise SystemExit("lattice_audit: the baseline priced a different set of cells")
    # per profile: cells, moved, largest move inside the bounds, moved
    # outside them, changed refusals
    table = {}
    for row in rows:
        old = base[key(row)]
        counts = table.setdefault(row["profile"], [0, 0, 0.0, 0, 0])
        counts[0] += 1
        if row["refusal"] != old["refusal"]:
            counts[4] += 1
        elif row["price"] != old["price"]:
            counts[1] += 1
            if row["verdict"] == old["verdict"] == "ok":
                counts[2] = max(counts[2], abs(float(row["price"]) - float(old["price"])))
            else:
                counts[3] += 1
    table["all"] = [max(column) if i == 2 else sum(column)
                    for i, column in enumerate(zip(*table.values()))]
    lines = ["| profile | cells | moved | largest move inside the bounds "
             "| moved outside the bounds | changed refusals |",
             "| --- | --- | --- | --- | --- | --- |"]
    for profile, (cells, moved, largest, outside, refusals) in table.items():
        lines.append(f"| {profile} | {cells} | {moved} | {largest:.3g} | {outside} "
                     f"| {refusals} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, required=True, help="CSV file to write")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cospricer package (default: this checkout's)")
    parser.add_argument("--baseline", type=Path,
                        help="another checkout to price the same cells with, from its src/")
    parser.add_argument("--profiles", nargs="+", default=None)
    parser.add_argument("--maturities", nargs="+", type=float, default=MATURITIES)
    parser.add_argument("--strikes", nargs="+", type=float, default=LATTICE)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    cospricer = load(args.src)
    profiles = args.profiles or cospricer.presets.PROFILE_NAMES
    rows = audit(cospricer, profiles, args.maturities, args.strikes)
    write_rows(args.output, rows)
    print("\n".join(summary(rows)))
    print(f"priced in {time.perf_counter() - started:.1f} s; wrote {args.output}")
    if args.baseline is None:
        return 0

    with tempfile.TemporaryDirectory() as scratch:
        base_csv = Path(scratch) / "baseline.csv"
        command = [sys.executable, str(Path(__file__).resolve()), "--output", str(base_csv),
                   "--src", str(args.baseline / "src"), "--profiles", *profiles,
                   "--maturities", *map(repr, args.maturities),
                   "--strikes", *map(repr, args.strikes)]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"lattice_audit: the baseline run failed ({done.returncode})")
        base_rows = read_rows(base_csv)
    print(f"baseline {args.baseline}:")
    print("\n".join(bit_moves(rows, base_rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
