"""Count the code lines of Python source files.

A code line holds at least one token that is not a comment, a newline or
indentation, and is not part of a docstring (the string-literal expression
that opens a module, class or function body).  Blank lines, comment lines
and docstring lines are not counted.

    python tools/code_lines.py src/tdscope/vie.py [more files ...]

prints the count of each file and, for several files, their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:6d} {path}")
    if len(paths) > 1:
        print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
