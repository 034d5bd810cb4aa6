"""Command-line front end.

Three subcommands:

``price``
    One option value from a named profile, printed at 10 decimals
    with a method echo.
``reproduce``
    Regenerate a benchmark artifact (strike table, reference set, or
    one of the figure datasets) as CSV plus JSON sidecar; the table
    targets also print a pass/fail summary against the bundled
    reference values.
``sweep``
    Drive a single harness experiment with explicit grids.

``price`` settings merge with flag > config-file > ``_SETTINGS`` default
precedence.  The config file is flat ``key=value`` lines with ``#`` comments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import harness, presets
from .cos_engine import OptionKind, OptionSpec, Variant, price, term_counts
from .errors import ConfigurationError, PricingError

__all__ = ["cmd_price", "cmd_reproduce", "cmd_sweep", "main"]

_METHODS = tuple(variant.value for variant in Variant)

_DEFAULT_N_GRID = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


# every `price` setting, once for the config file and the flags: config key (the
# flag is --key) -> (attribute, value type, choices, default, help).  A None default
# defers to the profile preset; OptionSpec, MarketSpec and CosConfig check ranges.
_SETTINGS = {
    "profile": ("profile", str, presets.PROFILE_NAMES, "heston", None),
    "method": ("method", str, _METHODS, "stable", None),
    "kind": ("kind", str, ("call", "put"), "call", None),
    "strike": ("strike", float, None, 100.0, None),
    "maturity": ("maturity", float, None, 1.0, None),
    "spot": ("spot", float, None, None, None),
    "rate": ("rate", float, None, None, None),
    "dividend": ("dividend", float, None, None, None),
    "alpha": ("alpha", float, None, None, None),
    "L": ("range_width", float, None, None, None),
    "N": ("n_terms", int, None, None, None),
    "output": ("output", str, None, None, "write the result here instead of stdout"),
    "format": ("format", str, ("csv", "json", "plain"), "plain", None),
}


def _parse_config_file(path: str) -> dict:
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"parse error at line {lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SETTINGS:
                raise ConfigurationError(
                    f"unknown config key {key!r} at line {lineno}"
                )
            field_name, value_type, choices, _, _ = _SETTINGS[key]
            try:
                overrides[field_name] = value_type(value)
            except ValueError:
                noun = "an integer" if value_type is int else "a number"
                raise ConfigurationError(f"{key} must be {noun}, got {value!r}") from None
            if choices is not None and value not in choices:
                raise ConfigurationError(
                    f"{key} must be one of {', '.join(choices)}, got {value!r}"
                )
    return overrides


def _given(**values) -> dict:
    """The keyword arguments that are set, i.e. not None."""
    return {name: value for name, value in values.items() if value is not None}


def cmd_price(args: argparse.Namespace) -> int:
    settings = {name: default for name, _, _, default, _ in _SETTINGS.values()}
    settings.update(_parse_config_file(args.config) if args.config else {})
    settings.update(_given(**{name: getattr(args, name) for name in settings}))
    config = argparse.Namespace(**settings)
    # one step: the preset rate at the given maturity may be a market that
    # MarketSpec refuses, though the given rate makes it valid
    market = replace(
        presets.market_preset(),
        maturity=config.maturity,
        **_given(spot=config.spot, rate=config.rate, dividend=config.dividend),
    )
    variant = Variant(config.method)
    option = OptionSpec(strike=config.strike, kind=OptionKind(config.kind))
    preset = presets.method_preset(config.profile, variant).cos_config(variant)
    if option.kind is OptionKind.PUT:
        # the preset damping is a call's; a put takes its own default
        preset = replace(preset, damping=None)
    cos_config = replace(
        preset,
        **_given(n_terms=config.n_terms, range_width=config.range_width, damping=config.alpha),
    )
    result = price(presets.model_preset(config.profile), market, option, cos_config)
    row = {
        "price": result.price,
        "method": config.method,
        "profile": config.profile,
        "kind": config.kind,
        "strike": config.strike,
        "maturity": config.maturity,
    }
    if config.format == "json":
        text = json.dumps(row)
    elif config.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(row)
        writer.writerow({**row, "price": f"{result.price:.12e}"}.values())
        text = buf.getvalue().rstrip("\r\n")
    else:
        text = f"{result.price:.10f} ({config.method})"
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _reproduce_table5(out_dir: str, target: str) -> int:
    result = harness.run_strike_table()
    harness.write_result(result, os.path.join(out_dir, "strike_table.csv"))
    golden = presets.load_strike_table()
    strikes = list(result.axis("strike"))
    models = list(result.axis("model"))
    all_pass = True
    for k, method in enumerate(result.axis("method")):
        tol = presets.STRIKE_TABLE_TOLERANCES[method]
        errors = [
            abs(result.values[strikes.index(strike), models.index(model), k] - want)
            for (model, g_method, strike), want in golden.items()
            if g_method == method
        ]
        passed = sum(err <= tol for err in errors)
        ok = passed == len(errors)
        all_pass &= ok
        print(f"{method}: {passed}/{len(errors)} {'PASS' if ok else 'FAIL'} "
              f"(tol {tol:.0e}, worst {max(errors, default=0.0):.2e})")
    return 0 if all_pass else 1


def _reproduce_table6(out_dir: str, target: str) -> int:
    stored = presets.load_reference_prices()
    result = harness.run_reference_set()
    harness.write_result(result, os.path.join(out_dir, "reference_set.csv"))
    tol = presets.REFERENCE_TOLERANCE
    all_pass = True
    for name, value in zip(result.axis("model"), result.values):
        gap = abs(value - stored[name])
        ok = gap <= tol
        all_pass &= ok
        note = "" if ok else " (stored value rounded in its 13th digit)"
        print(f"{name}: {'PASS' if ok else 'FAIL'} stored {stored[name]:.13f} "
              f"recomputed {value:.13f} gap {gap:.1e}{note}")
    print(f"references: {'4/4 PASS' if all_pass else 'FAIL'} (tol {tol:.0e})")
    return 0 if all_pass else 1


def _reproduce_stability(out_dir: str, target: str, maturity: float) -> int:
    for name in presets.PROFILE_NAMES:
        result = harness.run_stability_surface(name, maturity=maturity, scale_terms=True)
        harness.write_result(result, os.path.join(out_dir, f"{target}_{name}.csv"))
        print(f"{target} {name}: spread {result.value_spread:.3e} over "
              f"{result.values.shape[0]}x{result.values.shape[1]} grid")
    return 0


def _reproduce_convergence(out_dir: str, target: str, model_names, variants,
                           maturity: float = 1.0) -> int:
    for name in model_names:
        for variant in variants:
            try:
                result = harness.run_convergence(name, _DEFAULT_N_GRID, variant,
                                                 maturity=maturity)
            except ConfigurationError:
                print(f"{target} {name} {variant.value}: skipped (no preset)")
                continue
            harness.write_result(
                result, os.path.join(out_dir, f"{target}_{name}_{variant.value}.csv")
            )
            print(f"{target} {name} {variant.value}: final log10 error "
                  f"{result.values[-1]:.2f} at N={_DEFAULT_N_GRID[-1]}")
    return 0


def _reproduce_l_sweep(out_dir: str, target: str) -> int:
    for name in presets.PROFILE_NAMES:
        result = harness.run_l_sweep(name, presets.sweep_widths(name))
        harness.write_result(result, os.path.join(out_dir, f"{target}_{name}.csv"))
        spread = np.abs(result.values[:, 0] - result.values[:, 1]).max()
        print(f"{target} {name}: max |damped-call - undamped-put-parity| {spread:.3e}")
    return 0


# reproduce target -> driver(output directory, target) returning the exit code
_TARGETS = {
    "table5": _reproduce_table5,
    "table6": _reproduce_table6,
    "fig1": partial(_reproduce_stability, maturity=1.0),
    "fig2": partial(_reproduce_stability, maturity=0.1),
    "fig3": partial(_reproduce_stability, maturity=20.0),
    "fig4": partial(_reproduce_convergence, model_names=presets.PROFILE_NAMES,
                    variants=(Variant.STABLE, Variant.PUT_CALL_PARITY, Variant.DIRECT)),
    "fig5": partial(_reproduce_convergence, model_names=("cgmy1",), maturity=5.0,
                    variants=(Variant.STABLE, Variant.PUT_CALL_PARITY)),
    "fig6": partial(_reproduce_convergence, model_names=("cgmy2",), maturity=0.1,
                    variants=(Variant.STABLE, Variant.PUT_CALL_PARITY)),
    "fig7": _reproduce_l_sweep,
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.target not in _TARGETS:
        raise ConfigurationError(f"unknown target {args.target!r}")
    out_dir = args.output or "results"
    os.makedirs(out_dir, exist_ok=True)
    return _TARGETS[args.target](out_dir, args.target)


def _parse_terms(text: str) -> tuple:
    try:
        return term_counts(float(part) for part in text.split(",") if part.strip())
    except ValueError:  # a ValidationError is one too
        raise ConfigurationError(
            f"--n-values must be a comma-separated number list of positive whole "
            f"term counts, got {text!r}"
        ) from None


def cmd_sweep(args: argparse.Namespace) -> int:
    if (args.l_min is None) != (args.l_max is None):
        raise ConfigurationError("--l-min and --l-max must be given together")
    for flag, points in (("--alpha-points", args.alpha_points), ("--l-points", args.l_points)):
        if points is not None and points < 0:
            raise ConfigurationError(f"{flag} must not be negative, got {points}")
    if args.l_min is None:
        l_values = presets.sweep_widths(args.profile, args.l_points)
    else:
        l_values = np.linspace(args.l_min, args.l_max, args.l_points)
    # unset flags fall back to each driver's own defaults
    options = _given(strike=args.strike, n_terms=args.n_terms, maturity=args.maturity)
    if args.experiment == "stability":
        result = harness.run_stability_surface(
            args.profile,
            alpha_values=presets.sweep_dampings(
                **_given(lo=args.alpha_min, hi=args.alpha_max, points=args.alpha_points)
            ),
            l_values=l_values,
            scale_terms=args.scale_terms,
            **options,
        )
        summary = f"spread {result.value_spread:.3e}"
    elif args.experiment == "l_sweep":
        result = harness.run_l_sweep(args.profile, l_values, **options)
        gap = np.abs(result.values[:, 0] - result.values[:, 1]).max()
        summary = f"max variant gap {gap:.3e}"
    else:  # convergence
        n_values = _DEFAULT_N_GRID if args.n_values is None else _parse_terms(args.n_values)
        result = harness.run_convergence(args.profile, n_values, args.method,
                                         maturity=args.maturity)
        summary = f"final log10 error {result.values[-1]:.2f}"

    csv_path = args.output or f"{result.experiment}.csv"
    sidecar = harness.write_result(result, csv_path)
    if args.format == "json":
        print(json.dumps({"experiment": result.experiment, "csv": csv_path,
                          "sidecar": sidecar, "summary": summary}))
    elif args.format == "plain":
        print(f"{result.experiment}: {summary} -> {csv_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cospricer",
        description="Damped Fourier-cosine option pricing and benchmark reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price one European option")
    for key, (name, value_type, choices, _, text) in _SETTINGS.items():
        p_price.add_argument(f"--{key}", dest=name, type=value_type, choices=choices, help=text)
    p_price.add_argument("--config", help="flat key=value settings file")
    p_price.set_defaults(func=cmd_price)

    p_repro = sub.add_parser("reproduce", help="regenerate a benchmark artifact")
    p_repro.add_argument("target", help="table5, table6, or fig1..fig7")
    p_repro.add_argument("--output", help="output directory (default results/)")
    p_repro.set_defaults(func=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="run one harness experiment")
    p_sweep.add_argument("--experiment", required=True,
                         choices=("stability", "l_sweep", "convergence"))
    p_sweep.add_argument("--profile", required=True, choices=presets.PROFILE_NAMES)
    p_sweep.add_argument("--method", default="stable", choices=_METHODS)
    p_sweep.add_argument("--strike", type=float, default=None)
    p_sweep.add_argument("--maturity", type=float, default=1.0)
    p_sweep.add_argument("--n-terms", dest="n_terms", type=int)
    p_sweep.add_argument("--n-values", dest="n_values",
                         help="comma-separated term counts for convergence")
    p_sweep.add_argument("--alpha-min", type=float)
    p_sweep.add_argument("--alpha-max", type=float)
    p_sweep.add_argument("--alpha-points", type=int)
    p_sweep.add_argument("--l-min", type=float, default=None)
    p_sweep.add_argument("--l-max", type=float, default=None)
    p_sweep.add_argument("--l-points", type=int, default=13)
    p_sweep.add_argument("--scale-terms", action="store_true",
                         help="grow N with L to hold the frequency cutoff")
    p_sweep.add_argument("--output", help="CSV path (default <experiment>.csv)")
    p_sweep.add_argument("--format", choices=("json", "plain"), default="plain")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PricingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
