"""Tests for the experiment harness and its serialization."""

import collections
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cospricer
from cospricer import (
    ComputationError,
    ConfigurationError,
    CosConfig,
    OptionSpec,
    ValidationError,
    Variant,
    price,
)
from cospricer import cos_engine, harness, presets, transform_refs
from cospricer.harness import (
    METHOD_NAMES,
    ExperimentResult,
    run_convergence,
    run_l_sweep,
    run_reference_set,
    run_stability_surface,
    run_strike_table,
    write_result,
)
from cospricer.presets import (
    load_reference_prices,
    load_strike_table,
    market_preset,
    model_preset,
)

GOLDEN = Path(__file__).parent / "golden"

# the term-by-term COS reference, which no price path calls
REFERENCE = ("chi", "call_coefficients", "put_coefficients")


def _unreachable(*args, **kwargs):
    raise AssertionError("a bad driver argument must be refused before any pricing")


def stability_cgmy1_long():
    """A 3x3 cgmy1 stability surface at T=20, N scaled with L."""
    return run_stability_surface("cgmy1", presets.sweep_dampings(points=3),
                                 presets.sweep_widths("cgmy1", 3), maturity=20.0,
                                 scale_terms=True)


def l_sweep_cgmy1():
    return run_l_sweep("cgmy1", presets.sweep_widths("cgmy1"))


class TestExperimentResult:
    def _axes(self):
        return (("row", (1.0, 2.0)), ("col", (10.0, 20.0, 30.0)))

    def test_shape_must_match_axes(self):
        with pytest.raises(ValidationError, match="does not match axes"):
            ExperimentResult("demo", self._axes(), np.zeros((2, 2)))

    @pytest.mark.parametrize("values, name", [([1.0, 2.0], "list"), ((0.0,), "tuple"),
                                              (None, "NoneType")])
    def test_values_must_be_an_array(self, values, name):
        # a list once escaped as an AttributeError on its missing shape
        with pytest.raises(ValidationError, match=f"^values must be a NumPy array, got {name}$"):
            ExperimentResult("demo", (("row", (1.0, 2.0)),), values)

    def test_non_finite_cells_must_be_flagged(self):
        values = np.zeros((2, 3))
        values[1, 2] = np.nan
        with pytest.raises(ValidationError, match="lacks a flag"):
            ExperimentResult("demo", self._axes(), values)
        ok = ExperimentResult("demo", self._axes(), values, flags={(1, 2): "skipped"})
        assert ok.flags[(1, 2)] == "skipped"

    def test_flag_index_rank_checked(self):
        with pytest.raises(ValidationError, match="axes rank"):
            ExperimentResult("demo", self._axes(), np.zeros((2, 3)), flags={(1,): "x"})

    @pytest.mark.parametrize("flag", [1, None, b"skipped"])
    def test_flag_must_be_a_string(self, flag):
        with pytest.raises(ValidationError, match=r"flag at \(0, 1\) must be a string"):
            ExperimentResult("demo", self._axes(), np.zeros((2, 3)), flags={(0, 1): flag})

    def test_axis_lookup(self):
        result = ExperimentResult("demo", self._axes(), np.zeros((2, 3)))
        assert result.axis("col") == (10.0, 20.0, 30.0)
        with pytest.raises(KeyError):
            result.axis("missing")

    def test_value_spread_ignores_flagged_cells(self):
        values = np.array([[1.0, 2.0, 5.0], [3.0, np.nan, 4.0]])
        result = ExperimentResult(
            "demo", self._axes(), values, flags={(1, 1): "skipped", (0, 2): "outlier"}
        )
        # live cells are 1, 2, 3, 4
        assert result.value_spread == pytest.approx(3.0)

    def test_value_spread_of_all_flagged_cells_is_nan(self):
        values = np.full((2, 3), np.nan)
        flags = {(i, j): "skipped" for i in range(2) for j in range(3)}
        assert math.isnan(ExperimentResult("demo", self._axes(), values, flags).value_spread)


@pytest.fixture
def bundled_rows(monkeypatch):
    """Feed presets the given rows as the bundled reference file."""
    def use(rows):
        monkeypatch.setattr(presets, "_read_data", lambda filename: iter(rows))
        presets._reference_prices.cache_clear()

    yield use
    presets._reference_prices.cache_clear()


def _rows(prices):
    return [{"model": name, "price": str(value)} for name, value in prices]


class TestReferenceSet:
    """The integrity check of the bundled references, made in presets."""

    def test_bundled_profiles(self):
        stored = load_reference_prices()
        assert set(stored) == set(presets.PROFILE_NAMES)
        for value in stored.values():
            assert type(value) is float and math.isfinite(value) and value > 0

    @pytest.mark.parametrize("names", [
        ["heston"],
        ["heston", "kou", "cgmy1", "cgmy2", "bs"],
        ["heston", "heston", "cgmy1", "cgmy2"],
    ])
    def test_rejects_wrong_profile_set(self, bundled_rows, names):
        bundled_rows(_rows((name, 15.0) for name in names))
        with pytest.raises(ValidationError, match="exactly"):
            load_reference_prices()

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_non_positive_price(self, bundled_rows, bad):
        prices = dict(load_reference_prices())
        prices["kou"] = bad
        bundled_rows(_rows(prices.items()))
        with pytest.raises(ValidationError,
                           match="reference for 'kou' must be positive and finite"):
            load_reference_prices()

    def test_bundled_file_is_read_once_and_each_call_gets_its_own_dict(self, monkeypatch):
        reads = []
        read_data = presets._read_data

        def counted(filename):
            reads.append(filename)
            return read_data(filename)

        monkeypatch.setattr(presets, "_read_data", counted)
        presets._reference_prices.cache_clear()
        try:
            first = load_reference_prices()
            first["heston"] = -1.0
            del first["kou"]
            second = load_reference_prices()
            assert set(second) == set(presets.PROFILE_NAMES)
            assert second["heston"] == 15.6621055645751
            run_convergence("heston", [16])
            assert reads == ["convergence_reference.csv"]
        finally:
            presets._reference_prices.cache_clear()

    def test_recomputed_set_meets_each_profile_gate(self):
        result = run_reference_set()
        stored = load_reference_prices()
        assert result.axis("model") == presets.PROFILE_NAMES
        assert result.metadata == {"n_terms": 60000, "variant": "parity", "strike": 100.0}
        for name, value in zip(result.axis("model"), result.values):
            assert abs(value - stored[name]) <= presets.reference_gate(name)


class TestStrikeTable:
    def test_cos_methods_match_reference_table(self):
        table = load_strike_table()
        result = run_strike_table(
            models=["heston", "kou"],
            strikes=[80.0, 100.0, 120.0],
            methods=["stable", "parity", "direct"],
        )
        for i, strike in enumerate(result.axis("strike")):
            for j, name in enumerate(result.axis("model")):
                for k, method in enumerate(result.axis("method")):
                    want = table[(name, method, strike)]
                    assert result.values[i, j, k] == pytest.approx(want, abs=5e-10)

    def test_undamped_fat_tail_is_skipped(self):
        result = run_strike_table(models=["cgmy2"], methods=["direct"])
        assert np.all(np.isnan(result.values))
        assert len(result.flags) == result.values.size
        assert set(result.flags.values()) == {"skipped"}

    def test_empty_method_list_gives_empty_slab(self):
        result = run_strike_table(models=["heston"], methods=[])
        assert result.values.shape == (9, 1, 0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method"):
            run_strike_table(models=["heston"], methods=["midpoint"])

    @pytest.mark.parametrize("argument, value", [
        ("models", "heston"), ("strikes", "95"), ("methods", "stable"),
    ])
    def test_a_bare_string_is_not_a_sequence(self, monkeypatch, argument, value):
        # its characters used to be read as the sequence: "95" priced strikes 9 and 5
        monkeypatch.setattr(harness, "price", _unreachable)
        axes = {"models": ("heston",), "strikes": (95.0,), "methods": ("stable",), argument: value}
        with pytest.raises(ValidationError, match=f"{argument} must be a sequence, not the string"):
            run_strike_table(**axes)

    def test_preset_lookup_failure_propagates(self, monkeypatch):
        # only a missing preset becomes a skipped cell; any other failure
        # of the lookup must surface instead of hiding in the table
        def broken(name, variant):
            raise RuntimeError("preset table unreadable")

        monkeypatch.setattr(presets, "method_preset", broken)
        with pytest.raises(RuntimeError, match="unreadable"):
            run_strike_table(models=["heston"], strikes=[100.0], methods=["stable"])

    def test_empty_strike_list_gives_empty_slab(self):
        result = run_strike_table(models=["heston"], strikes=[], methods=["stable", "carr_madan"])
        assert result.values.shape == (0, 1, 2)

    @pytest.mark.parametrize("method", ["stable", "parity", "direct"])
    def test_cos_column_is_one_batch_price_call(self, monkeypatch, method):
        # the benchmark traces the layers through these module bindings: a
        # strike column must reach harness.price once and every COS layer,
        # and sum all its strikes' series in one kernel call, calling none
        # of the term-by-term reference
        calls = collections.Counter()

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count(harness, "price")
        layers = ("cumulants", "char_fn", "_column_sums")
        for name in layers + REFERENCE:
            count(cos_engine, name)
        result = run_strike_table(models=["heston"], methods=[method])
        assert len(result.axis("strike")) == 9
        assert calls["price"] == 1
        assert all(calls[name] for name in layers), calls
        assert calls["_column_sums"] == 1
        assert [calls[name] for name in REFERENCE] == [0, 0, 0]

    def test_oracle_columns_are_one_call_each(self, monkeypatch):
        # each oracle prices its strike column with one call and no scalar
        # characteristic-function evaluation: one vector call each, the
        # Carr-Madan one over its live band
        calls = collections.Counter()
        active = []

        def count(name):
            fn = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                active.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()

            monkeypatch.setattr(harness, name, wrapper)

        def counted_char_fn(model, market, u, evaluate=transform_refs.char_fn):
            calls[active[-1], "vector" if np.ndim(u) else "scalar"] += 1
            return evaluate(model, market, u)

        count("price_fourier_integral")
        count("price_carr_madan")
        monkeypatch.setattr(transform_refs, "char_fn", counted_char_fn)
        for profile in ("kou", "heston"):
            calls.clear()
            result = run_strike_table(models=[profile], methods=["fourier_integral", "carr_madan"])
            assert len(result.axis("strike")) == 9
            assert calls == {
                "price_fourier_integral": 1,
                "price_carr_madan": 1,
                ("price_fourier_integral", "vector"): 1,
                ("price_carr_madan", "vector"): 1,
            }, profile

    def test_empty_strike_list_calls_no_pricer(self, monkeypatch):
        # not even the Carr-Madan sum
        def unreachable(*args, **kwargs):
            raise AssertionError("an empty column must not be priced")

        for name in ("price", "price_fourier_integral", "price_carr_madan"):
            monkeypatch.setattr(harness, name, unreachable)
        monkeypatch.setattr(transform_refs, "_damped_calls", unreachable)
        result = run_strike_table(strikes=[])
        assert result.values.shape == (0, len(presets.PROFILE_NAMES), len(METHOD_NAMES))
        assert result.flags == {}
        with pytest.raises(ValidationError, match="unknown method"):
            run_strike_table(strikes=[], methods=["midpoint"])
        with pytest.raises(ConfigurationError, match="unknown model profile"):
            run_strike_table(models=["bs"], strikes=[])

    def test_records_wall_clock(self):
        result = run_strike_table(models=["heston"], strikes=[100.0], methods=["stable"])
        assert result.metadata["wall_clock_s"] > 0.0


class TestConvergence:
    def test_error_decays_then_plateaus(self):
        result = run_convergence("heston", [16, 32, 64])
        errs = result.values
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < -9.0
        assert result.metadata["reference_source"] == "bundled"

    def test_fat_tail_reference_gate_aborts_at_default_tolerance(self):
        # the stored fat-tail reference is rounded in its 13th digit,
        # ~1.3e-12 away from the recomputation, so the strict 5e-13 gate
        # of the other profiles trips
        with pytest.raises(ComputationError, match="reference recomputation mismatch"):
            run_convergence("cgmy2", [64], reference_tolerance=presets.REFERENCE_TOLERANCE)

    def test_fat_tail_defaults_to_its_own_gate(self):
        result = run_convergence("cgmy2", [70])
        assert 0.0 < result.metadata["reference_gap"] < 2e-12

    def test_fat_tail_passes_with_widened_gate(self):
        result = run_convergence("cgmy2", [70], reference_tolerance=2e-12)
        assert 0.0 < result.metadata["reference_gap"] < 2e-12
        assert result.values[0] < -9.0

    def test_other_maturities_self_reference(self):
        result = run_convergence("heston", [128], maturity=0.5)
        assert result.metadata["reference_source"] == "self-computed"
        assert result.values[0] < -10.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            run_convergence("heston", [])

    def test_curve_is_one_series(self, monkeypatch):
        # the benchmark traces these bindings: the 60000-term reference and
        # the curve are one price_curves call, which reads the cumulants of
        # both in one call and sums each series, at every term count, in
        # one kernel call, calling neither harness.price nor the
        # term-by-term reference
        calls = collections.Counter()

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count(harness, "price")
        count(cos_engine, "cumulants")
        for name in ("_column_sums",) + REFERENCE:
            count(cos_engine, name)
        result = run_convergence("kou", [8, 16, 32, 64, 140])
        assert result.values.shape == (5,)
        assert calls == {"cumulants": 1, "_column_sums": 2}
        assert [calls[name] for name in REFERENCE] == [0, 0, 0]

    @staticmethod
    def refuse_the_curve(monkeypatch):
        """Give every preset a stable call damping of 0.5, which the curve's
        series refuses with a configuration error."""
        class Refused:
            def cos_config(self, variant):
                return CosConfig(n_terms=1, range_width=7.0, damping=0.5)

        monkeypatch.setattr(presets, "method_preset", lambda name, variant: Refused())

    def test_refusals_keep_their_order(self, monkeypatch):
        # the reference and the curve are one price_curves call; the
        # reference's own refusal comes first, then the gate's, then the curve's
        self.refuse_the_curve(monkeypatch)
        with pytest.raises(ConfigurationError, match="alpha must exceed 1"):
            run_convergence("kou", [64])
        stored = load_reference_prices()
        monkeypatch.setattr(presets, "load_reference_prices",
                            lambda: {**stored, "kou": stored["kou"] + 1e-9})
        with pytest.raises(ComputationError, match="reference recomputation mismatch for 'kou'"):
            run_convergence("kou", [64])
        monkeypatch.setattr(harness, "_REFERENCE_CONFIG",
                            CosConfig(n_terms=60000, range_width=876.0, variant=Variant.DIRECT))
        with pytest.raises(ComputationError, match=r"variant=direct, n_terms=60000,"):
            run_convergence("kou", [64])

    def test_curve_matches_one_price_per_term_count(self):
        n_values = (140, 8, 64, 8, 4096)
        result = run_convergence("kou", n_values)
        model, market = model_preset("kou"), market_preset()
        preset = presets.method_preset("kou", Variant.STABLE)
        reference = load_reference_prices()["kou"]
        for n, got in zip(n_values, result.values.tolist()):
            config = CosConfig(n_terms=n, range_width=preset.range_width, damping=preset.damping)
            value = price(model, market, OptionSpec(strike=100.0), config).price
            assert got == math.log10(max(abs(value - reference), 5e-17)), n

    def test_accepts_arrays_and_whole_floats(self):
        want = run_convergence("heston", [16, 32, 1000])
        for n_values in (np.array([16, 32, 1000]), (16.0, np.int64(32), 1e3)):
            got = run_convergence("heston", n_values)
            assert got.axis("n_terms") == (16, 32, 1000)
            assert all(type(n) is int for n in got.axis("n_terms"))
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("n_values", [
        [16.7], [16, 32.5], [True], [16, False], [np.True_], [0], [-16], [math.inf],
        [math.nan], ["16"], 16, np.array([[16, 32]]),
    ])
    def test_rejects_bad_term_counts_before_pricing(self, monkeypatch, n_values):
        def unreachable(*args, **kwargs):
            raise AssertionError("bad term counts must be refused before any pricing")

        monkeypatch.setattr(harness, "price", unreachable)
        monkeypatch.setattr(harness, "price_curves", unreachable)
        with pytest.raises(ValidationError, match="term counts"):
            run_convergence("heston", n_values)

    @pytest.mark.parametrize("method", ["bad", "carr_madan", None])
    def test_unknown_method_is_refused_before_pricing(self, monkeypatch, method):
        monkeypatch.setattr(harness, "price", _unreachable)
        monkeypatch.setattr(harness, "price_curves", _unreachable)
        with pytest.raises(ValidationError,
                           match=r"unknown method .*\('stable', 'direct', 'parity'\)"):
            run_convergence("heston", (8, 16), method)

    def test_rejects_missing_preset_before_pricing(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a missing preset must be refused before any pricing")

        monkeypatch.setattr(harness, "price", unreachable)
        monkeypatch.setattr(harness, "price_curves", unreachable)
        with pytest.raises(ConfigurationError, match="no direct preset for profile 'cgmy2'"):
            run_convergence("cgmy2", [16], "direct")


class TestStabilitySurface:
    def test_flat_over_default_grid(self):
        result = run_stability_surface("heston")
        assert result.values.shape == (21, 13)
        assert result.axis("alpha")[0] == pytest.approx(1.0001)
        assert result.axis("alpha")[-1] == pytest.approx(1.2)
        assert result.axis("range_width")[0] == pytest.approx(6.0)
        assert result.axis("range_width")[-1] == pytest.approx(18.0)
        # the damped call at strike 80 must not care where in the
        # admissible (alpha, L) box it is evaluated
        assert result.value_spread < 1e-6
        want = load_strike_table()[("heston", "stable", 80.0)]
        np.testing.assert_allclose(result.values, want, atol=1e-6)

    def test_term_scaling_keeps_wide_ranges_resolved(self):
        # with N fixed, widening L coarsens the frequency grid and the
        # price drifts; scaling N with L restores the plateau
        fixed = run_stability_surface("kou", alpha_values=[1.1], l_values=[7.0, 18.0])
        scaled = run_stability_surface(
            "kou", alpha_values=[1.1], l_values=[7.0, 18.0], scale_terms=True
        )
        assert scaled.value_spread < 1e-6 < fixed.value_spread
        # the sidecar records the preset width the scaling divides by
        assert scaled.metadata["reference_width"] == 7.0
        assert fixed.metadata["reference_width"] is None

    def test_single_point_grid_equals_direct_call(self):
        result = run_stability_surface("heston", alpha_values=[1.1], l_values=[7.0])
        cfg = CosConfig(n_terms=110, range_width=7.0, damping=1.1, variant=Variant.STABLE)
        want = price(
            model_preset("heston"), market_preset(), OptionSpec(strike=80.0), cfg
        ).price
        assert result.values[0, 0] == pytest.approx(want, rel=1e-15)

    def test_the_surface_is_one_model_pass(self, monkeypatch):
        # 273 cells, 21 dampings: one cumulants call reads every contour
        calls = collections.Counter()
        cumulants = cos_engine.cumulants

        def counted(*args):
            calls[len(args[2])] += 1
            return cumulants(*args)

        monkeypatch.setattr(cos_engine, "cumulants", counted)
        result = run_stability_surface("heston")
        assert result.values.shape == (21, 13)
        assert calls == {21: 1}

    def test_a_refused_cell_raises_its_own_error(self):
        # alpha <= 1 is refused for a stable call; the first refused cell,
        # in row order, names its own fault
        with pytest.raises(ValidationError, match=r"contour shift 12 lies outside"):
            run_stability_surface("kou", alpha_values=[1.1, 12.0, 0.5], l_values=[7.0, 9.0])
        with pytest.raises(ConfigurationError, match="alpha must exceed 1"):
            run_stability_surface("kou", alpha_values=[1.1, 0.5, 12.0], l_values=[7.0, 9.0])

    def test_fat_tail_default_widths_start_past_the_cliff(self):
        result = run_stability_surface("cgmy2", alpha_values=[1.05])
        widths = result.axis("range_width")
        assert widths[0] == pytest.approx(17.0)
        assert widths[-1] == pytest.approx(25.0)

    def test_long_maturity_surface_is_flat(self):
        # the range is sized from the law tilted by alpha; sized from the
        # undamped law, this surface spread 423
        assert stability_cgmy1_long().value_spread < 1e-8

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            run_stability_surface("heston", alpha_values=[], l_values=[7.0])

    @pytest.mark.parametrize("argument", ["alpha_values", "l_values"])
    def test_a_bare_string_is_not_a_sequence(self, monkeypatch, argument):
        monkeypatch.setattr(harness, "price", _unreachable)
        monkeypatch.setattr(harness, "price_curves", _unreachable)
        axes = {"alpha_values": [1.1], "l_values": [7.0], argument: "12"}
        with pytest.raises(ValidationError, match=f"{argument} must be a sequence, not the string"):
            run_stability_surface("heston", **axes)

    @pytest.mark.parametrize("scale_terms", [False, True])
    @pytest.mark.parametrize("n_terms", [16.7, True, 0])
    def test_bad_term_count_is_refused_before_pricing(self, monkeypatch, n_terms,
                                                      scale_terms):
        # with scale_terms, the scaled N of a wide range is a whole
        # number even when n_terms is not, so CosConfig alone would not refuse it
        def unreachable(*args, **kwargs):
            raise AssertionError("a bad term count must be refused before any pricing")

        monkeypatch.setattr(harness, "price", unreachable)
        monkeypatch.setattr(harness, "price_curves", unreachable)
        with pytest.raises(ValidationError, match="term counts"):
            run_stability_surface("kou", alpha_values=[1.1], l_values=[7.0, 18.0],
                                  n_terms=n_terms, scale_terms=scale_terms)
        # a width whose scaled N is past the largest float is refused as a
        # term count; math.ceil once raised a bare OverflowError on it
        if scale_terms:
            with pytest.raises(ValidationError, match="term counts must be positive and finite"):
                run_stability_surface("kou", alpha_values=[1.1], l_values=[7.0, 1e308],
                                      scale_terms=True)

    def test_metadata_keys_in_sidecar_order(self):
        result = run_stability_surface("kou", alpha_values=[1.1], l_values=[7.0])
        assert list(result.metadata) == ["model", "strike", "maturity", "n_terms",
                                         "reference_width", "wall_clock_s"]

    def test_whole_term_count_is_recorded_as_int(self):
        got = run_stability_surface("heston", alpha_values=[1.1], l_values=[7.0],
                                    n_terms=np.int64(110))
        want = run_stability_surface("heston", alpha_values=[1.1], l_values=[7.0])
        assert type(got.metadata["n_terms"]) is int
        assert got.values.tobytes() == want.values.tobytes()


class TestLSweep:
    def test_damped_and_undamped_agree_across_widths(self):
        reference = load_reference_prices()["heston"]
        result = run_l_sweep("heston", l_values=range(6, 19))
        assert result.values.shape == (13, 2)
        np.testing.assert_allclose(result.values, reference, atol=1e-6)

    def test_variants_agree_pointwise(self):
        result = run_l_sweep("kou", l_values=[7.0])
        stable, parity = result.values[0]
        assert stable == pytest.approx(parity, abs=1e-8)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            run_l_sweep("kou", l_values=[])

    def test_a_bare_string_is_not_a_sequence(self, monkeypatch):
        # "79" used to sweep the widths 7 and 9
        monkeypatch.setattr(harness, "price", _unreachable)
        monkeypatch.setattr(harness, "price_curves", _unreachable)
        with pytest.raises(ValidationError, match="l_values must be a sequence, not the string"):
            run_l_sweep("heston", "79")

    def test_metadata_keys_in_sidecar_order(self):
        result = run_l_sweep("kou", l_values=[7.0])
        assert list(result.metadata) == ["model", "strike", "maturity", "n_terms",
                                         "wall_clock_s"]

    def test_bool_term_count_is_refused(self):
        with pytest.raises(ValidationError, match="n_terms must be a positive whole number"):
            run_l_sweep("kou", l_values=[7.0], n_terms=True)


class TestWriteResult:
    def _small_result(self):
        return run_strike_table(
            models=["heston"], strikes=[80.0, 100.0, 120.0], methods=["stable", "direct"]
        )

    def test_csv_bytes_deterministic(self, tmp_path):
        result = self._small_result()
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            write_result(result, p)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
        assert digests[0] == digests[1]

    def test_csv_layout(self, tmp_path):
        result = self._small_result()
        path = tmp_path / "table.csv"
        write_result(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "strike,model=heston/method=stable,model=heston/method=direct"
        first = lines[1].split(",")
        assert first[0] == "80.0"
        # cells carry 13 significant digits
        assert float(first[1]) == pytest.approx(result.values[0, 0, 0], rel=1e-12)
        assert "e+" in first[1] or "e-" in first[1]

    def test_flagged_cells_print_flag_text(self, tmp_path):
        result = run_strike_table(models=["cgmy2"], strikes=[100.0], methods=["direct"])
        path = tmp_path / "flagged.csv"
        write_result(result, path)
        body = path.read_text().splitlines()[1]
        assert body.split(",")[1] == "skipped"

    def test_sidecar_contents(self, tmp_path):
        result = self._small_result()
        sidecar_path = write_result(result, tmp_path / "table.csv")
        assert sidecar_path.endswith(".json")
        with open(sidecar_path) as handle:
            sidecar = json.load(handle)
        assert sidecar["experiment"] == "strike_table"
        assert sidecar["axes"][0][0] == "strike"
        assert sidecar["metadata"]["models"] == ["heston"]
        assert "written_at" in sidecar and "library_version" in sidecar

    def test_sidecar_records_the_package_version(self, tmp_path):
        # the tests import the package from its source tree, where no
        # installed distribution metadata exists
        sidecar_path = write_result(self._small_result(), tmp_path / "table.csv")
        with open(sidecar_path) as handle:
            assert json.load(handle)["library_version"] == cospricer.__version__

    def test_pyproject_states_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as handle:
            assert tomllib.load(handle)["project"]["version"] == cospricer.__version__


class TestGoldenCsv:
    """The benchmark table, the reference set and two stability sweeps, as
    the drivers write them, are byte for byte the CSVs in tests/golden: a
    change that is meant to leave every price unchanged must leave these
    bytes unchanged."""

    @pytest.mark.parametrize("run, name", [
        (run_strike_table, "strike_table.csv"),
        (run_reference_set, "reference_set.csv"),
        (l_sweep_cgmy1, "l_sweep_cgmy1.csv"),
        (stability_cgmy1_long, "stability_cgmy1.csv"),
    ])
    def test_bytes_match_the_golden_file(self, tmp_path, run, name):
        write_result(run(), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
