"""The package runs on NumPy alone; SciPy is a test dependency, and
every third-party module the tests import is declared.

CGMY's Gamma(-Y) comes from the standard library's math.gamma, so the
only special function the models need is checked here against SciPy's.
The modules above the model layer use only its public names, and
discount by the market's own factors.
"""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cospricer"
TESTS = ROOT / "tests"


def test_runtime_imports_no_scipy():
    src = str(PACKAGE.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, cospricer, cospricer.cli, cospricer.harness; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_test_imports_are_declared():
    # a module the tests import is the standard library's, the package's,
    # a sibling test module's, or a runtime or test-extra requirement
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    local = {"cospricer"} | {path.stem for path in TESTS.glob("*.py")}
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"numpy", "scipy", "mpmath"} <= imported
    assert sorted(imported - set(sys.stdlib_module_names) - local - declared) == []


# Y over (-1, 2) without the poles 0 and 1, and negative Y down to -171.5,
# close to where Gamma(-Y) overflows a double
_Y_GRID = [y for y in np.linspace(-0.999, 1.999, 1501) if y not in (0.0, 1.0)] + [
    -1.5, -2.25, -7.7, -33.3, -99.9, -150.5, -170.0, -171.5,
]


def test_math_gamma_matches_scipy():
    worst = max(abs(math.gamma(-y) / scipy_gamma(-y) - 1.0) for y in _Y_GRID)
    assert worst <= 1e-14


@pytest.mark.parametrize(
    "module", ["cos_engine.py", "transform_refs.py", "harness.py", "presets.py", "cli.py"]
)
def test_no_private_name_imported_from_models(module):
    # the contour's floor and strip check live in models.live_band; a
    # caller that imports _log_envelope or _UNDERFLOW_LOG builds its own
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "models"), (0, "cospricer.models"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


_MODEL_CLASSES = {"HestonParams", "KouParams", "CGMYParams"}


def _model_type_tests(tree):
    """Lines of the isinstance calls whose type argument names a model class."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(getattr(sub, "id", getattr(sub, "attr", None)) in _MODEL_CLASSES
                for sub in ast.walk(node.args[1]))
    ]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_isinstance_on_a_model_class(module):
    # each class carries its own log-CF, explosion time and envelope; the
    # one model type test is check_damping's isinstance(model, _MODEL_TYPES),
    # the constant get_args(ModelSpec)
    probe = "isinstance(m, HestonParams) or isinstance(m, (models.KouParams, float))"
    assert _model_type_tests(ast.parse(probe)) == [1, 1]
    assert _model_type_tests(ast.parse("isinstance(m, get_args(ModelSpec))")) == []
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert _model_type_tests(tree) == []


def _exp_of_rate_or_dividend(tree):
    """Lines of the exp calls (math.exp, np.exp, ...) whose argument reads
    a .rate or .dividend attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "exp"
        and any(
            isinstance(sub, ast.Attribute) and sub.attr in ("rate", "dividend")
            for arg in node.args
            for sub in ast.walk(arg)
        )
    ]


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "models.py")
)
def test_no_discount_factor_computed_outside_models(module):
    # MarketSpec computes e^(-rT) and e^(-qT) once and keeps them as
    # discount_factor and dividend_factor; a second exp can differ in the
    # last bit (np.exp against math.exp)
    probe = "np.exp(-market.rate * market.maturity) + exp(-m.dividend * t)"
    assert _exp_of_rate_or_dividend(ast.parse(probe)) == [1, 1]
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert _exp_of_rate_or_dividend(tree) == []
