import importlib
import pkgutil

import pytest

import trace_bounds

MODULES = ["trace_bounds"] + [f"trace_bounds.{m.name}"
                              for m in pkgutil.iter_modules(trace_bounds.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
