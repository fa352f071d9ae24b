"""Every exported name resolves, every demo imports only exported names, and the
package imports no scipy subpackage it does not use."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_leaves_out_integrate_and_optimize():
    # a fresh interpreter: this one has loaded whatever other tests needed
    env = {**os.environ, "PYTHONPATH": str(Path(tdscope.__file__).resolve().parents[1])}
    code = ("import sys, tdscope; "
            "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


def test_import_leaves_out_scipy_sparse_until_a_traced_name_is_read():
    # vie's scipy names that only the traced benchmark wraps are imported on
    # first access: a fresh `import tdscope` loads no scipy.sparse, and each
    # name still resolves to scipy's own object
    env = {**os.environ, "PYTHONPATH": str(Path(tdscope.__file__).resolve().parents[1])}
    code = ("import sys, tdscope\n"
            "print('scipy.sparse' in sys.modules)\n"
            "from tdscope import vie\n"
            "import scipy.linalg as la, scipy.sparse.linalg as sla\n"
            "print(vie.gmres is sla.gmres, vie.LinearOperator is sla.LinearOperator,\n"
            "      vie.lu_factor is la.lu_factor, vie.lu_solve is la.lu_solve)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"] + ["True"] * 4
    from tdscope import vie

    assert not hasattr(vie, "nothing")
