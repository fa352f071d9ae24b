"""tools/code_lines.py: the code-line count of Python source."""

import importlib.util
from pathlib import Path

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
