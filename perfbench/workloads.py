"""Benchmark workloads and the correctness gate on their emitted outputs.

Each workload is a shipped demo config plus fixed overrides; the benchmark
seed is forwarded as the config's ``seed``.  The gate reads what
``emit_outputs`` wrote (``report.json`` and ``tdmap.csv``) and compares the
key results with ``reference.json``, captured at the commit that introduced
the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    # sign_full.cfg at resolution 14 instead of 16 (1.5k cells, 729 samples,
    # 2187 right-hand sides): the full size takes 45 s a run, which with the
    # other workloads would not fit the benchmark's time budget.
    "sign_r14": Workload("demos/configs/sign_full.cfg", {"resolution": 14}),
    "decay_full": Workload("demos/configs/decay_full.cfg"),
    # 3112 cells, above vie.DIRECT_CAP = 3000: the matrix-free GMRES path.
    "born_gmres": Workload("demos/configs/born_moderate.cfg", {"resolution": 18}),
    "finite_delta": Workload("demos/configs/finite_delta.cfg"),
}

# Relative band for the power-iteration norm (sign certificate, born R_norm).
# The estimate is a lower bound on sigma_max; a sharper estimator raises it by
# up to about 0.5%, while a lower value means a different operator.
NORM_BAND = (-1e-3, 1e-2)
TDMAP_RTOL = 1e-6   # ||T - T_ref|| / ||T_ref|| over the whole map
BORN_RTOL = 1e-6    # per Born error, relative
RATIO_ATOL = 1e-6   # per finite-delta ratio, absolute


def config_text(root, name, seed):
    """The workload's config file text with its overrides and the seed appended."""
    wl = WORKLOADS[name]
    with open(os.path.join(root, wl.config), encoding="utf-8") as fh:
        text = fh.read()
    lines = [f"{k} = {v}" for k, v in wl.overrides.items()] + [f"seed = {int(seed)}"]
    return text.rstrip("\n") + "\n# benchmark overrides\n" + "\n".join(lines) + "\n"


def read_outputs(out_dir):
    """(report dict, T values from tdmap.csv or None) as emitted by the study."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    path = os.path.join(out_dir, "tdmap.csv")
    if not os.path.exists(path):
        return report, None
    with open(path, encoding="utf-8", newline="") as fh:
        return report, [float(row["T"]) for row in csv.DictReader(fh)]


def key_results(report, tdmap):
    """The values the gate compares, per study."""
    res = report["results"]
    study = report["study"]
    if study == "sign":
        return {"certificate": res["certificate"], "sign_tally": res["sign_tally"],
                "tdmap": tdmap}
    if study == "decay":
        return {"slope": res["slope"], "slope_stderr": res["slope_stderr"]}
    if study == "born":
        return {"born_error": res["born_error"], "R_norm": res["R_norm"]}
    if study == "finite_delta":
        return {"ratios": [r for _, r in res["pairs"]]}
    raise ValueError(f"no reference for study {study!r}")


def _norm_ok(value, ref):
    rel = (value - ref) / ref
    return NORM_BAND[0] <= rel <= NORM_BAND[1]


def gate(report, tdmap, ref):
    """Problems with one run's outputs; empty means the run is correct."""
    problems = []
    if report["status"] != "PASS":
        problems.append(f"status {report['status']}, expected PASS")
    problems += [f"check {c['name']} failed" for c in report["checks"] if not c["pass"]]
    got = key_results(report, tdmap)
    study = report["study"]
    if study == "sign":
        if got["sign_tally"] != ref["sign_tally"]:
            problems.append(f"sign_tally {got['sign_tally']} != {ref['sign_tally']}")
        if not _norm_ok(got["certificate"], ref["certificate"]):
            problems.append(f"certificate {got['certificate']} vs {ref['certificate']}")
        t, t_ref = got["tdmap"] or [], ref["tdmap"]
        if len(t) != len(t_ref):
            problems.append(f"tdmap has {len(t)} values, expected {len(t_ref)}")
        else:
            err = math.dist(t, t_ref) / math.hypot(*t_ref)
            if not err <= TDMAP_RTOL:
                problems.append(f"tdmap relative error {err:.3e} > {TDMAP_RTOL}")
    elif study == "decay":
        if not abs(got["slope"] - ref["slope"]) <= ref["slope_stderr"]:
            problems.append(f"slope {got['slope']} outside {ref['slope']} "
                            f"+- {ref['slope_stderr']}")
    elif study == "born":
        if not _norm_ok(got["R_norm"], ref["R_norm"]):
            problems.append(f"R_norm {got['R_norm']} vs {ref['R_norm']}")
        errs, errs_ref = got["born_error"], ref["born_error"]
        if len(errs) != len(errs_ref) or not all(
                abs(e - r) <= BORN_RTOL * abs(r) for e, r in zip(errs, errs_ref)):
            problems.append(f"born_error {errs} vs {errs_ref}")
    elif study == "finite_delta":
        ratios, ratios_ref = got["ratios"], ref["ratios"]
        if len(ratios) != len(ratios_ref) or not all(
                abs(r - s) <= RATIO_ATOL for r, s in zip(ratios, ratios_ref)):
            problems.append(f"ratios {ratios} vs {ratios_ref}")
    return problems
