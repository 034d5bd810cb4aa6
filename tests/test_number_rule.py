"""One rule for every number the package takes: a real number, not a bool,
finite and inside its interval, or a ValidationError that names it."""

import math
import re
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cospricer import cos_engine, models, presets, transform_refs
from cospricer.cos_engine import CosConfig, OptionSpec
from cospricer.errors import ValidationError
from cospricer.harness import run_convergence, run_l_sweep, run_strike_table
from cospricer.models import MarketSpec, check_number, check_numbers
from cospricer.transform_refs import (
    CarrMadanConfig,
    IntegralConfig,
    price_carr_madan,
    price_fourier_integral,
)

# a valid instance of every class that takes a float field
INSTANCES = (
    MarketSpec(spot=100.0, rate=0.1),
    presets.model_preset("heston"),
    presets.model_preset("kou"),
    presets.model_preset("cgmy1"),
    OptionSpec(100.0),
    CosConfig(64, 10.0, damping=1.1),
    CarrMadanConfig(),
    IntegralConfig(),
)

# every float field, read off the dataclass, so a new one cannot skip the rule
FLOAT_FIELDS = [
    (instance, f.name) for instance in INSTANCES for f in fields(instance)
    if f.init and "float" in str(f.type)
]


# a CosConfig without a damping takes the variant's default
FIELD_CASES = [
    pytest.param(instance, name, bad, id=f"{type(instance).__name__}.{name}-{bad!r}")
    for instance, name in FLOAT_FIELDS for bad in ("1.0", None, True, math.nan)
    if not (isinstance(instance, CosConfig) and name == "damping" and bad is None)
]


@pytest.mark.parametrize("instance, name, bad", FIELD_CASES)
def test_every_float_field_refuses_a_non_number(instance, name, bad):
    with pytest.raises(ValidationError, match=rf"^{name} must .*, got {re.escape(repr(bad))}$"):
        replace(instance, **{name: bad})


def test_the_count_of_float_fields():
    # 4 market, 5 heston, 5 kou, 4 cgmy, the strike, 2 series, 2 + 2 oracle
    assert len(FLOAT_FIELDS) == 25


@pytest.mark.parametrize("bad", [
    "1.0", "x", None, True, np.True_, 1 + 0j, np.array(1.0), Decimal("1"), [1.0],
    math.inf, -math.inf, math.nan, np.float32(math.inf), 10 ** 400,
], ids=repr)
def test_check_number_refuses(bad):
    with pytest.raises(ValidationError, match=rf"^x must be finite, got {re.escape(repr(bad))}$"):
        check_number("x", bad)


@pytest.mark.parametrize("good, want", [
    (1.5, 1.5), (2, 2.0), (np.float32(0.5), 0.5), (np.int64(3), 3.0), (Fraction(1, 4), 0.25),
    (np.float64(-0.0), -0.0),
])
def test_check_number_gives_a_float(good, want):
    got = check_number("x", good)
    assert type(got) is float and got == want


def test_a_float_passes_unchanged():
    value = 0.1 + 0.2
    assert check_number("x", value) is value


@pytest.mark.parametrize("interval, inside, outside", [
    (models.POSITIVE, [5e-324, 1e308], [0.0, -0.0, -1.0]),
    (models.NONNEGATIVE, [0.0, -0.0, 1e308], [-5e-324]),
    (models.ABOVE_ONE, [math.nextafter(1.0, 2.0)], [1.0, 0.0]),
    (models.BELOW_TWO, [math.nextafter(2.0, 1.0), -1e308], [2.0]),
    (models.UNIT, [0.0, 1.0], [math.nextafter(1.0, 2.0), -5e-324]),
    (models.CORRELATION, [-1.0, 1.0], [math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0)]),
])
def test_interval_ends(interval, inside, outside):
    for value in inside:
        assert check_number("x", value, interval) == value
    for value in outside + [math.inf, -math.inf, math.nan]:
        with pytest.raises(ValidationError, match=f"^x must {re.escape(interval[2])}, got "):
            check_number("x", value, interval)


def test_check_numbers_gives_a_tuple_of_floats():
    got = check_numbers("xs", np.array([1, 2]), "x")
    assert got == (1.0, 2.0) and all(type(v) is float for v in got)
    assert check_numbers("xs", iter(()), "x") == ()


@pytest.mark.parametrize("bad", ["12", b"12", 5.0, None, np.array(1.0), [1.0, None],
                                 [[1.0]], [1.0, "2"], [True]], ids=repr)
def test_check_numbers_refuses_a_column_that_is_not_numbers(bad):
    with pytest.raises(ValidationError,
                       match=rf"^xs must be a sequence of numbers, got {re.escape(repr(bad))}$"):
        check_numbers("xs", bad, "x")


def test_check_numbers_names_an_element_outside_its_interval():
    with pytest.raises(ValidationError, match=r"^x must be positive and finite, got -1.0$"):
        check_numbers("xs", [1.0, -1.0], "x", models.POSITIVE)


# the bundled market is one frozen object; any other maturity is a new
# MarketSpec, so it passes the rule as every field does
@pytest.mark.parametrize("bad", [True, "1.0", math.nan, 0.0], ids=repr)
def test_market_preset_refuses_a_maturity_by_the_rule(bad):
    with pytest.raises(ValidationError,
                       match=rf"^maturity must be positive and finite, got {re.escape(repr(bad))}$"):
        presets.market_preset(bad)


@pytest.mark.parametrize("maturity", [1, np.float64(1.0), 1.0], ids=repr)
def test_market_preset_at_the_bundled_maturity(maturity):
    market = presets.market_preset(maturity)
    assert market == MarketSpec(100.0, 0.1, 0.0, 1.0)
    assert type(market.maturity) is float
    assert presets.market_preset() is presets.market_preset(1.0)


def _kou_market():
    return presets.model_preset("kou"), presets.market_preset()


# the bad inputs that escaped as a TypeError or a ValueError, or priced
# as something else, before the rule, each with the start of its message
BAD_CALLS = {
    "OptionSpec-str": (lambda: OptionSpec(strike="100"),
                       "strike must be positive and finite, got '100'"),
    "OptionSpec-bool": (lambda: OptionSpec(strike=True),
                        "strike must be positive and finite, got True"),
    "CosConfig-inf": (lambda: CosConfig(100, math.inf),
                      "range_width must be positive and finite, got inf"),
    "strike_table-str-strike": (lambda: run_strike_table(strikes=["x"]),
                                "strikes must be a sequence of numbers"),
    "strike_table-scalar": (lambda: run_strike_table(strikes=5.0),
                            "strikes must be a sequence, got 5.0"),
    "l_sweep-str-width": (lambda: run_l_sweep("kou", ["a"]),
                          "l_values must be a sequence of numbers"),
    "convergence-str-maturity": (lambda: run_convergence("kou", [16], maturity="1"),
                                 "maturity must be positive and finite, got '1'"),
    "carr_madan-str-strike": (lambda: price_carr_madan(*_kou_market(), ["100"]),
                              "strikes must be a sequence of numbers"),
    "fourier_integral-str-strike": (lambda: price_fourier_integral(*_kou_market(), "100"),
                                    "strikes must be a sequence of numbers"),
}


@pytest.mark.parametrize("call, message", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_a_bad_input_is_refused_before_any_char_fn_call(monkeypatch, call, message):
    def spy(*args, **kwargs):
        raise AssertionError("phi was evaluated before the bad input was refused")

    for module in (models, cos_engine, transform_refs):
        monkeypatch.setattr(module, "char_fn", spy)
    for model_type in models._MODEL_TYPES:
        monkeypatch.setattr(model_type, "_log_cf", spy)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        call()
