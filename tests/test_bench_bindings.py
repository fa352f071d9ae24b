"""The traced benchmark (perfbench/spans.py) rebinds module attributes of
tdscope; every binding it wraps must exist and come back after restore."""

import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_install_and_restore(monkeypatch):
    from tdscope import harness, imaging, vie

    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
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
