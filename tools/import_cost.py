"""Measure what `import tdscope` costs a fresh interpreter.

    python tools/import_cost.py [--runs N] [--src DIR]

starts N fresh interpreters (default 5) one after another.  Each puts DIR
(default: the src directory of this checkout) first on sys.path, imports
tdscope, and reports the wall time of the import, its ru_maxrss after it,
and the third-party packages that the import added to sys.modules: the
top-level names that are neither tdscope nor private nor built in nor part
of the standard library, nor cython_runtime, the module that every Cython
extension (numpy.random's, for one) registers.
Prints the median time and ru_maxrss and every third-party package that a
run loaded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """\
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
t0 = time.perf_counter()
import tdscope
seconds = time.perf_counter() - t0
skip = set(sys.stdlib_module_names) | set(sys.builtin_module_names) | {"tdscope", "cython_runtime"}
top = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"seconds": seconds,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "packages": sorted(n for n in top if n not in skip and not n.startswith("_"))}))
"""


def measure(runs=5, src=SRC):
    """{"seconds", "maxrss_mb", "packages"}: the median import time and
    ru_maxrss over runs fresh interpreters, and the sorted third-party
    packages that any of them loaded."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    results = [json.loads(subprocess.run([sys.executable, "-c", _CHILD, str(src)],
                                         capture_output=True, text=True, check=True).stdout)
               for _ in range(runs)]
    return {"seconds": statistics.median(r["seconds"] for r in results),
            "maxrss_mb": statistics.median(r["maxrss_mb"] for r in results),
            "packages": sorted({p for r in results for p in r["packages"]})}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Time and memory of `import tdscope`.")
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters (default 5)")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory that holds the tdscope package (default: ./src)")
    args = parser.parse_args(argv)
    cost = measure(args.runs, args.src)
    print(f"import tdscope: median {cost['seconds']:.3f} s, ru_maxrss {cost['maxrss_mb']:.1f} MB "
          f"over {args.runs} fresh interpreters")
    print("third-party packages loaded: " + (", ".join(cost["packages"]) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
