"""Capture perfbench/reference.json: each workload's key results, seed 0.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Run once, at the commit that defines the reference; the gate in
workloads.py compares every benchmark run against it.  Named workloads are
recaptured and the others kept.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS, config_text


def main(names):
    os.makedirs(run.SCRATCH, exist_ok=True)
    ref = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    for name in names or sorted(WORKLOADS):
        cfg = os.path.join(run.SCRATCH, f"reference-{name}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(config_text(run.ROOT, name, 0))
        child = run.spawn([cfg], timeout=600)
        if child is None:
            return 1
        ref[name] = child["results"]
        print(f"{name}: {child['study_s']:.2f} s", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
