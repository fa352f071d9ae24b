"""Every exported name resolves, and every demo imports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tdscope

MODULES = ["tdscope"] + [
    f"tdscope.{m.name}" for m in pkgutil.iter_modules(tdscope.__path__)
]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_exported(path):
    # parsed, not run: the demos take tens of seconds together
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tdscope" and node.level == 0
        for alias in node.names
    ]
    assert imported, "demo imports nothing from tdscope"
    assert [n for n in imported if n not in tdscope.__all__] == []
