"""Every name a sentireg module lists in __all__ exists, so a star import
cannot break on a name that was deleted but left listed."""

import importlib
import pkgutil

import pytest

import sentireg

MODULES = [info.name for info in pkgutil.iter_modules(sentireg.__path__, "sentireg.")]


def test_every_module_is_found():
    assert "sentireg.diagnostics" in MODULES and "sentireg.logit" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
