"""tools/code_lines.py: the code-line count of Python source; tools/import_cost.py:
the time, memory and packages of `import tdscope`; tools/unreached.py: the
package functions that no traced run called."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = """a string value,
    not a docstring"""

    def f(self):
        # a comment line
        """Still the docstring: a comment is no statement."""

        return (1,
                2)
'''


def test_counts_code_lines_only():
    # import, class, x (two lines), def and return (two lines)
    assert code_lines.code_lines(SOURCE) == 7


_IMPORT_SPEC = importlib.util.spec_from_file_location(
    "import_cost", Path(__file__).resolve().parents[1] / "tools" / "import_cost.py")
import_cost = importlib.util.module_from_spec(_IMPORT_SPEC)
_IMPORT_SPEC.loader.exec_module(import_cost)


def test_import_cost_reports_numpy_as_the_only_package(capsys):
    # two fresh interpreters: the medians are positive and numpy is the one
    # third-party package that `import tdscope` loads
    cost = import_cost.measure(runs=2)
    assert cost["seconds"] > 0.0 and cost["maxrss_mb"] > 0.0
    assert cost["packages"] == ["numpy"]
    assert import_cost.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("import tdscope: median ") and lines[0].endswith(
        " MB over 1 fresh interpreters")
    assert lines[1] == "third-party packages loaded: numpy"
    with pytest.raises(ValueError):
        import_cost.measure(runs=0)


_UNREACHED_SPEC = importlib.util.spec_from_file_location(
    "unreached", Path(__file__).resolve().parents[1] / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_UNREACHED_SPEC)
_UNREACHED_SPEC.loader.exec_module(unreached)


def test_unreached_lists_what_a_sign_study_never_calls(capsys):
    # a resolution-6 sign study assembles its system and never checks the
    # Green's function against its PDE
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "sign_full.cfg"
    assert unreached.main([f"{config},resolution=6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{len(lines) - 1} functions never ran:"
    names = [line.strip() for line in lines[1:]]
    assert "greens.pde_residual" in names
    assert "vie.assemble" not in names
