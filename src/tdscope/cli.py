"""Command line: run a study config or check it without running.

`tdscope run <config> [--out DIR] [--threads N] [--seed S]` executes the
study named in the config and writes report.json plus any CSV outputs.
`tdscope validate <config>` runs the checks of the study's set-up.  Exit codes:
0 all PASS (or NEUTRAL), 2 any FAIL, 3 INCONCLUSIVE certificate, 1 error.
"""

from __future__ import annotations

import argparse
import os
import sys


class _Parser(argparse.ArgumentParser):
    # usage problems are plain errors (exit 1), not study failures (exit 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _resolve_threads(arg):
    if arg is not None:
        return max(1, arg)
    env = os.environ.get("TDSCOPE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"warning: ignoring TDSCOPE_THREADS={env!r}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = _Parser(prog="tdscope",
                     description="Topological-derivative imaging studies")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the study selected by the config")
    runp.add_argument("config", help="path to a key = value experiment file")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--threads", type=int, default=None,
                      help="BLAS thread cap (default 1, or TDSCOPE_THREADS)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    valp = sub.add_parser("validate", help="check a config without running it")
    valp.add_argument("config")
    args = parser.parse_args(argv)

    from . import harness

    try:
        cfg = harness.load_config(args.config)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        problems = harness.validate_config(cfg)
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        print("ok" if not problems else f"{len(problems)} problem(s)")
        return 1 if problems else 0

    if args.seed is not None:
        cfg = harness.ExperimentConfig(values={**cfg.values, "seed": args.seed})
    out_dir = args.out or cfg.out or "tdscope_out"
    threads = _resolve_threads(args.threads)
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        threadpool_limits = None
        print("warning: threadpoolctl unavailable, thread cap not applied",
              file=sys.stderr)
    try:
        if threadpool_limits is not None:
            with threadpool_limits(limits=threads):
                report = harness.run_study(cfg)
        else:
            report = harness.run_study(cfg)
    except (RuntimeError, ValueError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        paths = harness.emit_outputs(report, out_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for check in report.checks:
        flag = "PASS" if check["pass"] else "FAIL"
        print(f"[{flag}] {check['name']} = {check['value']} (tol {check['tol']})")
    print(f"{report.study}: {report.status} ({report.wall_clock_s:.1f}s)")
    for path in paths:
        print(f"wrote {path}")
    return harness.STATUS_EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
