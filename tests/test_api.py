"""Every exported name resolves."""

import importlib
import pkgutil

import pytest

import tdscope

MODULES = ["tdscope"] + [
    f"tdscope.{m.name}" for m in pkgutil.iter_modules(tdscope.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
