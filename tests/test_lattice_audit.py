"""The lattice audit: a slice of it, and the scoreboard of the whole.

The slice (one profile, three strikes, one maturity) runs the script as
its own process, against this checkout and with this checkout as its own
baseline, so its bit-move table must read no move.  The scoreboard runs
the audit in process over the full lattice and holds its counts to those
recorded in tests/golden/scoreboard.json.
"""

import csv
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cospricer
from cospricer import CosConfig, OptionKind, OptionSpec, Variant, presets, price
from cospricer.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "lattice_audit.py"
SCOREBOARD = ROOT / "tests" / "golden" / "scoreboard.json"
STRIKES = ("60", "100", "157.5")


def _script():
    spec = importlib.util.spec_from_file_location("lattice_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    output = tmp_path_factory.mktemp("audit") / "slice.csv"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--output", str(output), "--profiles", "kou",
         "--maturities", "0.001", "--strikes", *STRIKES, "--baseline", str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    with open(output, newline="") as handle:
        return list(csv.DictReader(handle)), done.stdout


def test_one_row_per_cell(audit):
    rows, _ = audit
    module = _script()
    assert len(rows) == len(module.SERIES) * len(module.CONFIGS) * len(STRIKES)
    assert {tuple(row) for row in rows} == {module.FIELDS}
    for row in rows:
        # a price with its verdict, or a refusal with neither
        assert bool(row["price"]) == bool(row["verdict"]) != bool(row["refusal"]), row
        assert row["verdict"] in ("", "ok", "above", "below"), row


def test_a_row_holds_the_package_price_bit_for_bit(audit):
    rows, _ = audit
    [row] = [r for r in rows if (r["variant"], r["kind"], r["config"], r["strike"])
             == ("stable", "put", "4096x12", "157.5")]
    want = price(presets.model_preset("kou"), presets.market_preset(1e-3),
                 OptionSpec(157.5, OptionKind.PUT), CosConfig(4096, 12.0))
    assert float(row["price"]).hex() == want.price.hex()


def test_its_own_baseline_moves_nothing(audit):
    _, stdout = audit
    assert "| all | 60 | 0 | 0 | 0 | 0 |" in stdout.splitlines()


def test_a_call_row_holds_the_stable_parity_gap_bit_for_bit(audit):
    rows, stdout = audit
    gaps = {r["variant"]: r["gap"] for r in rows
            if (r["kind"], r["config"], r["strike"]) == ("call", "4096x12", "100.0")}
    model, market = presets.model_preset("kou"), presets.market_preset(1e-3)
    stable, parity = (price(model, market, OptionSpec(100.0), CosConfig(4096, 12.0, variant=v))
                      .price for v in (Variant.STABLE, Variant.PUT_CALL_PARITY))
    assert gaps["stable"] == gaps["parity"]
    assert float(gaps["stable"]).hex() == abs(stable - parity).hex()
    # direct calls and puts have no partner
    assert gaps["direct"] == "" and all(r["gap"] == "" for r in rows if r["kind"] == "put")
    assert any(line.startswith("stable-parity call gaps above 1e-06*max(1, |parity|): kou ")
               for line in stdout.splitlines())


def _has_preset(profile, variant):
    try:
        presets.method_preset(profile, Variant(variant))
    except ConfigurationError:
        return False
    return True


def test_the_scoreboard_counts_do_not_rise():
    # over the full lattice, no count may rise above its record: the
    # silent prices outside the no-arbitrage bounds, the stable-parity
    # pairs the gap flags, and the refusals among the preset cells at
    # T = 0.1, 1 and 5 of the profiles that have the preset
    module = _script()
    rows = module.audit(cospricer, presets.PROFILE_NAMES, module.MATURITIES, module.LATTICE)
    want = json.loads(SCOREBOARD.read_text())
    gaps = Counter({profile: 0 for profile in presets.PROFILE_NAMES})
    for row in rows:
        if row["variant"] == "parity" and row["gap"]:
            bar = module.GAP * max(1.0, abs(float(row["price"])))
            gaps[row["profile"]] += float(row["gap"]) > bar
    preset_refusals = sum(
        1 for row in rows
        if row["config"] == "preset" and row["refusal"]
        and float(row["maturity"]) in (0.1, 1.0, 5.0)
        and _has_preset(row["profile"], row["variant"]))
    assert len(rows) == want["cells"]
    assert sum(row["verdict"] not in ("", "ok") for row in rows) <= want["outside_the_bounds"]
    for profile, count in gaps.items():
        assert count <= want["gap_flagged"][profile], profile
    assert preset_refusals <= want["preset_refusals_at_0.1_1_5"]
