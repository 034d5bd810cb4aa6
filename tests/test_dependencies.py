"""The package runs on NumPy alone; SciPy is a test dependency.

CGMY's Gamma(-Y) comes from the standard library's math.gamma, so the
only special function the models need is checked here against SciPy's.
The modules above the model layer use only its public names.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cospricer"


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
