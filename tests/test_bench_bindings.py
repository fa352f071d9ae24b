"""The traced benchmark (perfbench/spans.py) rebinds module attributes of
tdscope; every binding it wraps must exist and come back after restore."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture()
def spans(monkeypatch):
    """perfbench/spans.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_install_and_restore(spans):
    from tdscope import harness, imaging, vie

    owners = (vie, imaging, harness, vie.VieSystem, imaging.KernelG)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer._patches
    finally:
        tracer.restore()
    for owner, saved in zip(owners, before):
        after = vars(owner)
        for name, value in saved.items():
            assert after[name] is value, f"{owner.__name__}.{name} not restored"


def test_traced_maps_and_certificate_count_once(spans, sys_h6):
    # one td_map_* call and one certificate per sign study, and one map span
    # per call of each map: a map that reached another map through its
    # public, traced name would count twice
    from tdscope import imaging, iso_contrast, parse_config, run_study, sphere_surface

    tracer = spans.Tracer()
    counts = tracer.counts
    try:
        spans.install(tracer)
        rep = run_study(parse_config("study = sign\nscatterer_a = 2.0\nresolution = 6\n"
                                     "grid_n = 3\n"))
        assert rep.status == "PASS"
        assert counts["imaging.td_map.calls"] == 1
        assert counts["vie.operator_norm.calls"] == 1
        assert counts["vie.operator_norm.applies"] > 0
        c, surf, pts = iso_contrast(1.0, 2.0), sphere_surface(5.0, 24), np.zeros((1, 3))
        for i, name in enumerate(("td_map_iso", "td_map_aniso_iso", "td_map_general")):
            getattr(imaging, name)(sys_h6, c, c, surf, pts)
            assert counts["imaging.td_map.calls"] == 2 + i, name
    finally:
        tracer.restore()
