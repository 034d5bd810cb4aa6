"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Runs every workload for a couple of operations, untraced and traced,
checks that each metric BENCHMARK.json names is reported with its unit,
and checks that the output checker fails deliberately perturbed values
(the checker's input is perturbed, never the program).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.bootstrap()
import bench  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cospricer.errors import ComputationError  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def _tiny(name: str, trace: bool) -> dict:
    result, _ = bench.run(name, seed=3, seconds=0.0, trace=trace, min_ops=2, setup_repeats=1)
    return result


def _first(name: str):
    workload = workloads.WORKLOADS[name]
    op = next(workloads.Stream(workload, 5))
    return workload, op, workload.call(op)


def _perturbed(result, index, delta: float):
    values = result.values.copy()
    values[index] += delta
    return dataclasses.replace(result, values=values)


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def test_every_metric_reported_with_its_unit():
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = _tiny(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == _units(key), (name, key)
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_checker_passes_real_outputs():
    checker = check.Checker()
    for name in workloads.WORKLOADS:
        workload, op, result = _first(name)
        assert check.tally(checker, workload, [(op, result)]) == (workload.asked(op), 0)


def test_checker_fails_perturbed_values():
    checker = check.Checker()
    cases = {
        "chain": [((0, 0, 0), 1e-6)],
        "reference": [((-1,), 6.0)],
        "oracles": [((0, 0, 0), 1e-6), ((0, 0, 1), 1e-2)],
    }
    for name, perturbations in cases.items():
        workload, op, result = _first(name)
        for index, delta in perturbations:
            bad = _perturbed(result, index, delta)
            attempted, failed = check.tally(checker, workload, [(op, bad)])
            assert failed == 1, (name, index)
    # a golden cell, and a price outside the no-arbitrage bounds
    workload = workloads.WORKLOADS["chain"]
    op = workloads.Op("kou", "stable", (100.0,))
    result = workload.call(op)
    assert check.tally(checker, workload, [(op, _perturbed(result, (0, 0, 0), 1e-9))])[1] == 1
    assert check.tally(checker, workload, [(op, _perturbed(result, (0, 0, 0), 1e3))])[1] == 1


def test_pricing_error_fails_every_value():
    workload, op, _ = _first("chain")
    outcome = ComputationError("forced")
    assert check.tally(check.Checker(), workload, [(op, outcome)]) == (len(op.strikes),) * 2


def test_unused_binding_warns_and_reports_zero():
    # chain expects the COS bindings; oracle operations never call them
    oracles = workloads.WORKLOADS["oracles"]
    op = workloads.Op("heston", "oracles", (100.0,))
    tracer = tracing.Tracer("chain")
    with tracer.installed():
        bench.Phase(oracles, [op], math.inf, 0, on_done=tracer.end_op)
    warnings = tracer.warnings()
    assert any("cos_engine.chi" in w for w in warnings)
    metrics = tracer.metrics(1.0)
    assert metrics["models.cumulants.calls_per_op"][0] == 0
    assert metrics["transform_refs.price_fourier_integral.calls_per_op"][0] == 1


def test_undefined_binding_warns():
    # a refactor that removes a looked-up name: the layer stays, with a warning
    from cospricer import cos_engine

    chain = workloads.WORKLOADS["chain"]
    original = cos_engine.price
    del cos_engine.price
    try:
        tracer = tracing.Tracer("chain")
        with tracer.installed():
            bench.Phase(chain, [workloads.Op("kou", "stable", (100.0,))], math.inf, 0,
                        on_done=tracer.end_op)
    finally:
        cos_engine.price = original
    assert "cos_engine.price is no longer defined; its layer reports 0 calls" in tracer.warnings()
    assert tracer.metrics(1.0)["cos_engine.price.calls_per_op"][0] == 1  # via harness.price


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"ok {test_name}")
