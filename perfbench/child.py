"""One benchmark child process: set up, run one study, check it, report.

run.py spawns this as a fresh single-threaded process per sample:

    python3 perfbench/child.py CONFIG --t0 T --out DIR [--setup-only]
        [--workload NAME --reference FILE] [--trace-file FILE]

T is the parent's time.monotonic() taken just before the spawn, so setup_s
covers interpreter start, the numpy/scipy/tdscope imports and the config
load and validation.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    """Where the numbers come from: cores, versions, BLAS and its thread cap."""
    import importlib.util
    import platform

    import numpy
    import scipy

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    if importlib.util.find_spec("threadpoolctl") is None:
        env["note"] = "threadpoolctl missing, cap applied by env var"
    return env


def _study(harness, cfg, out_dir):
    harness.emit_outputs(harness.run_study(cfg), out_dir)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--reference")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tdscope import harness

    cfg = harness.load_config(args.config)
    problems = harness.validate_config(cfg)
    if problems:
        raise SystemExit("invalid config: " + "; ".join(problems))
    result = {"setup_s": time.monotonic() - args.t0}
    if not harness.__file__.startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported tdscope from {harness.__file__}, not this checkout")
    result["env"] = environment()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    sys.path.insert(0, HERE)
    import workloads

    tracer = None
    if args.trace_file:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    out_dir = tempfile.mkdtemp(prefix="study-", dir=args.out)
    try:
        if tracer is None:
            t1 = time.perf_counter()
            _study(harness, cfg, out_dir)
            result["study_s"] = time.perf_counter() - t1
        else:
            tracer.call("harness.study", _study, (harness, cfg, out_dir), {})
            tracer.restore()
            root = tracer.spans[0]
            result["study_s"] = root.end - root.start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report, tdmap = workloads.read_outputs(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["results"] = workloads.key_results(report, tdmap)
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            ref = json.load(fh)[args.workload]
        result["problems"] = workloads.gate(report, tdmap, ref)
    if tracer is not None:
        result["layers"] = spans.layer_totals(tracer.spans)
        result["counts"] = dict(tracer.counts)
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
