"""tdscope study benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's study in fresh single-threaded child processes, one
after another (closed loop, never concurrent: a study holds up to 1.7 GB),
until S seconds have passed, at least once.  Every study's emitted outputs
are checked against perfbench/reference.json.  With --trace 0 it reports
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
from a run whose layer calls are wrapped in spans (perfbench/spans.py).
The last stdout line is the result object; the line before it records the
environment.  Workloads and the metric map: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, config_text  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
SCRATCH = os.path.join(ROOT, ".bench_out")
# threadpoolctl is not a given, so the one-thread BLAS cap goes in by env var
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_ONLY_CHILDREN = 2  # setup_s is the median over these plus every study child
BUDGET_S = 170.0         # the whole run must end within 180 s

# Per-layer metric -> (span name, field) or counter name.  Only times that
# every workload exercises are listed (a layer a workload never calls would
# read 0 s on every run); the full per-layer table goes to stderr and to the
# trace file.
LAYER_TIMES = {
    "vie.assemble.s": ("vie.assemble", "s"),
    "greens.hess_phi.s": ("greens.hess_phi", "s"),
    "vie.operator_norm.s": ("vie.operator_norm", "s"),
    "vie.resolvent_solve.s": ("vie.resolvent_solve", "s"),
    "specfun_quad.voxelize.s": ("specfun_quad.voxelize", "s"),
    "harness.run_study.self_s": ("harness.run_study", "self_s"),
    "harness.emit_outputs.s": ("harness.emit_outputs", "s"),
}
LAYER_COUNTS = {
    "vie.assemble.calls": "count",
    "greens.hess_phi.points": "count",
    "vie.system.bytes": "B",
    "vie.operator_norm.applies": "count",
    "vie.resolvent_solve.rhs": "count",
    "vie.lu_factor.calls": "count",
    "vie.lu_solve.rhs": "count",
    "vie.gmres.calls": "count",
    "vie.gmres.matvecs": "count",
    "vie.radiation_matrix.rows": "count",
    "imaging.td_map.calls": "count",
    "imaging.KernelG.bundle.pairs": "count",
    "greens.grad_phi.points": "count",
    "specfun_quad.sphere_surface.nodes": "count",
    "specfun_quad.harmonics_table.calls": "count",
}


def spawn(args, timeout):
    """Run one child; its parsed JSON line, or None if it failed."""
    env = {**os.environ, **THREAD_ENV, "TMPDIR": SCRATCH}
    cmd = [sys.executable, CHILD, *args, "--out", SCRATCH]
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(child):
    """Per-layer metric -> value for one traced study."""
    layers, counts = child["layers"], child["counts"]
    out = {"traced.study_s": child["study_s"]}
    out.update({m: layers.get(span, {}).get(fld, 0.0)
                for m, (span, fld) in LAYER_TIMES.items()})
    out.update({m: counts.get(m, 0) for m in LAYER_COUNTS})
    return out


def print_layers(child):
    rows = sorted(child["layers"].items(), key=lambda kv: -kv[1]["s"])
    print(f"{'layer':34s} {'s':>9s} {'self_s':>9s} {'calls':>7s}", file=sys.stderr)
    for name, row in rows:
        print(f"{name:34s} {row['s']:9.3f} {row['self_s']:9.3f} {row['calls']:7d}",
              file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    missing = [p for p in ("src/tdscope/__init__.py", WORKLOADS[args.workload].config,
                           "perfbench/reference.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("not a tdscope checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        cfg = os.path.join(run_dir, "study.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(config_text(ROOT, args.workload, args.seed))
        return measure(args, cfg, start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, cfg, start):
    def left():
        return BUDGET_S - (time.monotonic() - start)

    setups, env = [], None
    if not args.trace:
        for _ in range(SETUP_ONLY_CHILDREN):
            child = spawn([cfg, "--setup-only"], left())
            if child is None:
                return 1
            setups.append(child["setup_s"])
            env = child["env"]
    studies, attempted, failed = [], 0, 0
    trace_file = os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.json")
    study_args = [cfg, "--workload", args.workload, "--reference", REFERENCE]
    if args.trace:
        study_args += ["--trace-file", trace_file]
    while attempted == 0 or time.monotonic() - start < args.seconds:
        # stop early rather than risk overrunning the budget on the next study
        if studies and left() < 2.0 * studies[-1]["study_s"]:
            break
        attempted += 1
        child = spawn(study_args, max(left(), 1.0))
        if child is None:
            failed += 1
            continue
        if child["problems"]:
            failed += 1
            print("incorrect outputs: " + "; ".join(child["problems"]), file=sys.stderr)
        studies.append(child)
        setups.append(child["setup_s"])
        env = child["env"]
    if not studies:
        print("no study completed", file=sys.stderr)
        return 1

    if args.trace:
        print_layers(studies[-1])
        per_run = [layer_metrics(c) for c in studies]
        # counts repeat exactly; median_low keeps them whole numbers
        metrics = {k: {"value": (statistics.median_low if k in LAYER_COUNTS else
                                 statistics.median)([r[k] for r in per_run]),
                       "unit": LAYER_COUNTS.get(k, "s")}
                   for k in per_run[0]}
    else:
        metrics = {
            "study_s": {"value": statistics.median(c["study_s"] for c in studies),
                        "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in studies),
                            "unit": "MB"},
        }
    print(f"# samples: {len(studies)} studies, {len(setups)} setups; env "
          + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
