"""Repeat the benchmark over seeds and summarise every workload.

    python3 perfbench/prove.py [--seeds N] [--first-seed S] [--traced M] [WORKLOAD ...]

For each workload (default: all) this makes N untraced runs of run.py,
seeds S..S+N-1, then M traced runs, one at a time.  It prints, per workload,
every end-to-end metric's median, quartiles and spread ((q3 - q1) / median,
from statistics.quantiles(n=4)) against a third of its bound, fail_rate =
failed / attempted over all runs, the traced study_s with the tracing
overhead (traced minus untraced median), whether the per-layer counts
repeated exactly, and the share of the traced study_s that the span self
times account for.  Raw result lines go to .bench_out/prove.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import spans

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def bench_run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=200, cwd=run.ROOT)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_time_share(workload, seed):
    """Sum of all span self times over the root span's duration."""
    with open(os.path.join(run.SCRATCH, f"trace-{workload}-seed{seed}.json"),
              encoding="utf-8") as fh:
        tree = [spans.Span(*row) for row in json.load(fh)["spans"]]
    root = tree[0]
    return sum(spans.self_times(tree).values()) / (root.end - root.start)


def summarise(workload, untraced, traced, shares):
    rows = []
    done = [r for r in untraced + traced if r is not None]
    attempted = sum(r["attempted"] for r in done) + (len(untraced + traced) - len(done))
    failed = sum(r["failed"] for r in done) + (len(untraced + traced) - len(done))
    ok = [r for r in untraced if r is not None]
    medians = {}
    for m in BENCH["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in ok]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        medians[m["name"]] = med
        steady = "ok" if spread < m["bound"] / 3 else "WIDE"
        rows.append(f"  {m['name']:12s} median {med:10.4f} {m['unit']:3s} "
                    f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.4f} "
                    f"(bound/3 {m['bound'] / 3:.4f}) {steady}  n={len(vals)}")
    rows.append(f"  fail_rate    {failed / max(attempted, 1):.4f} ratio "
                f"({failed} failed of {attempted} attempted)")
    tr = [r for r in traced if r is not None]
    if tr:
        t_study = statistics.median(r["metrics"]["traced.study_s"]["value"] for r in tr)
        counts = {m["name"] for m in BENCH["per_layer"] if m["unit"] != "s"}
        repeat = all(r["metrics"][c]["value"] == tr[0]["metrics"][c]["value"]
                     for r in tr for c in counts)
        rows.append(f"  traced study_s {t_study:.4f} s, overhead "
                    f"{t_study - medians['study_s']:+.4f} s; counts repeat: {repeat}; "
                    f"self times cover {min(shares):.6f}..{max(shares):.6f} of it")
    print(f"{workload}:\n" + "\n".join(rows), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", type=int, default=2)
    args = ap.parse_args(argv)
    names = args.workloads or [w["name"] for w in BENCH["workloads"]]
    os.makedirs(run.SCRATCH, exist_ok=True)
    with open(os.path.join(run.SCRATCH, "prove.jsonl"), "a", encoding="utf-8") as log:
        for name in names:
            seeds = range(args.first_seed, args.first_seed + args.seeds + args.traced)
            untraced, traced, shares = [], [], []
            for i, seed in enumerate(seeds):
                trace = int(i >= args.seeds)
                res = bench_run(name, seed, trace)
                log.write(json.dumps({"workload": name, "seed": seed, "trace": trace,
                                      "result": res}) + "\n")
                log.flush()
                (traced if trace else untraced).append(res)
                if trace and res is not None:
                    shares.append(self_time_share(name, seed))
            summarise(name, untraced, traced, shares)
    return 0


if __name__ == "__main__":
    sys.exit(main())
