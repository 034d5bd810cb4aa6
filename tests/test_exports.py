"""Every exported name resolves, so a deleted name cannot stay exported."""

import importlib
import pkgutil

import pytest

import cospricer

# __main__ runs the command line on import
MODULES = ["cospricer"] + [
    f"cospricer.{info.name}"
    for info in pkgutil.iter_modules(cospricer.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), module_name
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], module_name

