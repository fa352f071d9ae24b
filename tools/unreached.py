"""List the functions of the tdscope package that no run reached.

    python tools/unreached.py RUN [RUN ...]

Each RUN is a config file, CONFIG[,KEY=VALUE ...], or a demo script (a .py
file).  A config runs in process as `tdscope run` runs it, bar the thread
cap: parse_config on its text with each KEY = VALUE appended,
validate_config, run_study, then emit_outputs into a temporary directory.
A demo script runs as __main__ in a temporary working directory, its
output discarded.  Every run is traced with sys.settrace, and the script
then prints each function or method of the package none of whose
statements ran, module by module in line order.  A function counts as
reached once it is called, since a call runs its first statement; lambdas,
comprehensions and class bodies are not listed.  Tracing starts after
the package is imported: the one in this checkout's src directory, unless
tdscope is imported already.

For example, the seven shipped configs, the benchmark's sizes and the
demos:

    python tools/unreached.py demos/configs/*.cfg demos/configs/sign_full.cfg,resolution=14 \
        demos/configs/born_moderate.cfg,resolution=18 demos/*.py

The list holds candidates, not verdicts.  A listed function may still be
reachable from a config that was not run (tensor contrasts, apertures,
ellipsoids, ...), or be a reference that the tests check the program
against; only the runs given were traced.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _functions(package_dir):
    """(file, first line, name, qualname) of every named function in the
    package's modules, file spelt as the package's own __file__ spells it;
    the qualname falls back to the name before Python 3.11."""
    out = []
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package_dir, name)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out.append((path, code.co_firstlineno, code.co_name,
                            getattr(code, "co_qualname", code.co_name)))
    return sorted(out)


def _run_config(tdscope, arg):
    path, *sets = arg.split(",")
    with open(path, encoding="utf-8") as fh:
        cfg = tdscope.parse_config(fh.read() + "\n" + "\n".join(sets) + "\n")
    problems = tdscope.validate_config(cfg)
    if problems:
        raise ValueError(f"{arg}: " + "; ".join(problems))
    report = tdscope.run_study(cfg)
    with tempfile.TemporaryDirectory() as out:
        tdscope.emit_outputs(report, out)


def _run_demo(path):
    path, here = os.path.abspath(path), os.getcwd()
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(work)
        try:
            runpy.run_path(path, run_name="__main__")
        finally:
            os.chdir(here)


def unreached(runs):
    """module.qualname of each package function that none of the runs
    (config arguments and demo script paths, as on the command line)
    called, by module and line."""
    if "tdscope" not in sys.modules:
        sys.path.insert(0, str(SRC))
    import tdscope

    package_dir = os.path.dirname(tdscope.__file__)
    called = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package_dir):
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for arg in runs:
            if arg.endswith(".py"):
                _run_demo(arg)
            else:
                _run_config(tdscope, arg)
    finally:
        sys.settrace(previous)
    return [f"{Path(path).stem}.{qualname}"
            for path, line, name, qualname in _functions(package_dir)
            if (path, line, name) not in called]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="List the tdscope functions that none of the given runs reached.")
    parser.add_argument("runs", nargs="+", metavar="RUN",
                        help="CONFIG[,KEY=VALUE ...] or a demo script (.py)")
    args = parser.parse_args(argv)
    names = unreached(args.runs)
    print(f"{len(names)} functions never ran:")
    for name in names:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
