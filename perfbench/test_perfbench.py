"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(run.REFERENCE, encoding="utf-8") as _fh:
    REF = json.load(_fh)


# ---------------------------------------------------------------------------
# span tree arithmetic


def _tree():
    S = spans.Span
    return [
        S(0, "root", 0.0, 10.0, None),
        S(1, "a", 1.0, 4.0, 0),
        S(2, "b", 2.0, 3.0, 1),
        S(3, "a", 5.0, 9.0, 0),
        S(4, "a", 6.0, 8.0, 3),  # recursion: counted once in inclusive time
        S(5, "b", 8.5, 9.5, 3),  # runs past its parent's end: only 0.5 covered
    ]


def test_self_times_subtract_covered_child_intervals():
    st = spans.self_times(_tree())
    assert st == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 2.0, 5: 1.0})


def test_layer_totals_count_recursion_once():
    tot = spans.layer_totals(_tree())
    assert tot["a"] == pytest.approx({"s": 7.0, "self_s": 5.5, "calls": 3})
    assert tot["b"] == pytest.approx({"s": 2.0, "self_s": 2.0, "calls": 2})
    nested = [s for s in _tree() if s.id != 5]  # children inside their parents
    root = nested[0]
    assert sum(spans.self_times(nested).values()) == pytest.approx(root.end - root.start)


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace(leaf=lambda x: x + 1)
    mod.outer = lambda x: mod.leaf(x) * 2
    tracer.patch(mod, "leaf", "leaf", lambda a, k, r: {"leaf.items": a[0]})
    tracer.patch(mod, "outer", "outer")
    assert mod.outer(3) == 8
    assert mod.outer(4) == 10
    tracer.restore()
    assert mod.outer(3) == 8 and len(tracer.spans) == 4
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("leaf", 0), ("outer", None), ("leaf", 2)]
    assert tracer.counts == {"outer.calls": 2, "leaf.calls": 2, "leaf.items": 7}
    tot = spans.layer_totals(tracer.spans)
    assert tot["outer"] == {"s": 6.0, "self_s": 4.0, "calls": 2}


# ---------------------------------------------------------------------------
# correctness gate


STUDY = {"sign_r14": "sign", "decay_full": "decay", "born_gmres": "born",
         "finite_delta": "finite_delta"}


def _report(name):
    """A report and T map as emit_outputs would write them for the reference."""
    ref = REF[name]
    study = STUDY[name]
    results = {k: v for k, v in ref.items() if k != "tdmap"}
    if study == "finite_delta":
        results = {"pairs": [[0.1 * i, r] for i, r in enumerate(ref["ratios"])]}
    report = {"study": study, "status": "PASS",
              "checks": [{"name": "c", "value": 0.0, "tol": 1.0, "pass": True}],
              "results": results}
    return report, ref.get("tdmap")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_reference(name):
    report, tdmap = _report(name)
    assert workloads.gate(report, tdmap, REF[name]) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_rejects_failed_status_and_check(name):
    report, tdmap = _report(name)
    report["status"] = "FAIL"
    report["checks"][0]["pass"] = False
    assert len(workloads.gate(report, tdmap, REF[name])) == 2


def _perturbed(name, edit):
    report, tdmap = _report(name)
    report = copy.deepcopy(report)
    tdmap = list(tdmap) if tdmap else tdmap
    edit(report["results"], tdmap)
    return workloads.gate(report, tdmap, REF[name])


def test_gate_rejects_perturbed_sign_map():
    def flip(res, t):
        t[17] = -t[17]

    def scale(res, t):
        t[:] = [1.001 * v for v in t]

    def cert(res, t):
        res["certificate"] *= 1.02

    for edit in (flip, scale, cert):
        assert _perturbed("sign_r14", edit)


def test_gate_admits_sharper_norm_estimate():
    def sharper(res, t):
        res["certificate"] *= 1.005

    def lower(res, t):
        res["certificate"] *= 0.99

    assert _perturbed("sign_r14", sharper) == []
    assert _perturbed("sign_r14", lower)


def test_gate_rejects_other_perturbed_results():
    def slope(res, t):
        res["slope"] += 1.5 * res["slope_stderr"]

    def born(res, t):
        res["born_error"][1] *= 1.0 + 1e-4

    def r_norm(res, t):
        res["R_norm"] *= 1.03

    def ratio(res, t):
        res["pairs"][-1][1] += 1e-4

    assert _perturbed("decay_full", slope)
    assert _perturbed("born_gmres", born)
    assert _perturbed("born_gmres", r_norm)
    assert _perturbed("finite_delta", ratio)


def test_read_outputs_parses_emitted_files(tmp_path):
    from tdscope import harness

    tmap = types.SimpleNamespace(points=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],
                                 values=[-1.25e-3, 0.1], inside_B=[True, False])
    rep = harness.StudyReport(study="sign", status="PASS", checks=[],
                              results={"certificate": 0.3, "sign_tally": 1.0},
                              config={}, tol_overrides={}, version="x", seed=0,
                              kappa_diam=1.0, kappa_R=5.0, tdmap=tmap)
    harness.emit_outputs(rep, str(tmp_path))
    report, tdmap = workloads.read_outputs(str(tmp_path))
    assert tdmap == [-1.25e-3, 0.1]
    assert workloads.key_results(report, tdmap)["certificate"] == 0.3


# ---------------------------------------------------------------------------
# printed metrics and BENCHMARK.json


def _fake_child(trace):
    child = {"setup_s": 0.5, "study_s": 2.0, "peak_rss_mb": 100.0, "problems": [],
             "env": {}, "results": {}}
    if trace:
        child["layers"] = {"vie.assemble": {"s": 1.0, "self_s": 0.5, "calls": 1}}
        child["counts"] = {"vie.assemble.calls": 1}
    return child


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_those_of_benchmark_json(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn", lambda args, timeout: _fake_child(trace))
    args = ["--workload", "finite_delta", "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(args) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert set(REF) == set(workloads.WORKLOADS)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite_delta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
