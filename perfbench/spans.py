"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into tdscope's layers by rebinding module
attributes (``vie.lu_factor``, ``imaging.grad_phi``, ``KernelG.bundle``, ...)
to timing wrappers, so the package itself is not edited.  Each span keeps
its name, start, end and parent; self times are derived from the tree after
the run.  Counters (right-hand sides, matvecs, kernel pairs) are recorded at
the same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans and counters; ``patch`` installs wrappers, ``restore`` removes them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children sort after the parent
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent)

    def wrap(self, fn, name, count=None):
        """Wrapper recording a span named ``name``; ``count(args, kwargs, result)``
        returns a dict of counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def replace(self, owner, attr, value):
        """Rebind ``owner.attr`` until ``restore``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, count=None):
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def patch_counter(self, owner, attr, key):
        """Count calls of ``owner.attr`` under ``key`` without recording spans."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self.replace(owner, attr, counted)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self):
        return {
            "spans": [[s.id, s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }


def self_times(spans):
    """Map span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans):
    """Per span name: inclusive seconds ``s`` (outermost spans of that name
    only, so recursion is not counted twice), summed ``self_s`` and ``calls``."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["self_s"] += selfs[s.id]
        row["calls"] += 1
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            row["s"] += s.end - s.start
    return out


def install(tracer):
    """Wrap the calls into each tdscope layer at the bindings the studies use."""
    from tdscope import harness, imaging, vie

    def counter(key, fn):
        return lambda args, kwargs, result: {key: fn(args, result)}

    def n_rhs(args, result):
        return 1 if result.ndim == 1 else result.shape[1]

    def system_bytes(args, sys):
        held = list(vars(sys).values()) + list(vars(sys.grid).values())
        return sum(getattr(v, "nbytes", 0) for v in held)

    def kernel_pairs(args, result):
        kern = args[0]
        n_z, n_y = result.shape[0] // 3, result.shape[1] // 3
        if kern.mode == "quadrature":
            return kern.surface.weights.size * (n_z + n_y)
        return n_z * n_y

    for mod in (vie, imaging, harness):
        tracer.patch(mod, "grad_phi", "greens.grad_phi",
                     counter("greens.grad_phi.points", lambda a, r: a[1].size // 3))
    tracer.patch(vie, "hess_phi", "greens.hess_phi",
                 counter("greens.hess_phi.points", lambda a, r: a[1].size // 3))
    for mod in (harness, imaging):
        tracer.patch(mod, "voxelize", "specfun_quad.voxelize")
        tracer.patch(mod, "sphere_surface", "specfun_quad.sphere_surface",
                     counter("specfun_quad.sphere_surface.nodes",
                             lambda a, r: r.weights.size))
        tracer.patch(mod, "assemble", "vie.assemble",
                     counter("vie.system.bytes", system_bytes))
        tracer.patch(mod, "operator_norm", "vie.operator_norm")
    tracer.patch(imaging, "harmonics_table", "specfun_quad.harmonics_table")
    tracer.patch_counter(vie.VieSystem, "r_apply", "vie.operator_norm.applies")
    for mod in (vie, imaging):
        tracer.patch(mod, "resolvent_solve", "vie.resolvent_solve",
                     counter("vie.resolvent_solve.rhs", n_rhs))
        tracer.patch(mod, "radiation_matrix", "vie.radiation_matrix",
                     counter("vie.radiation_matrix.rows", lambda a, r: r.shape[0]))
    tracer.patch(harness, "solve_density", "vie.solve_density")
    tracer.patch(vie, "lu_factor", "vie.lu_factor")
    tracer.patch(vie, "lu_solve", "vie.lu_solve", counter("vie.lu_solve.rhs", n_rhs))
    tracer.patch(vie, "gmres", "vie.gmres")
    linear_operator = vie.LinearOperator

    def counting_operator(shape, matvec, **kwargs):
        def counted(v):
            tracer.counts["vie.gmres.matvecs"] += 1
            return matvec(v)

        return linear_operator(shape, matvec=counted, **kwargs)

    tracer.replace(vie, "LinearOperator", counting_operator)
    for name in ("td_map_iso", "td_map_aniso_iso", "td_map_general"):
        tracer.patch(imaging, name, "imaging.td_map")
    tracer.patch(imaging, "td_finite_delta_check", "imaging.td_finite_delta_check")
    tracer.patch(imaging, "_scatter_matrix", "imaging.scatter_matrix")
    tracer.patch(imaging.KernelG, "bundle", "imaging.KernelG.bundle",
                 counter("imaging.KernelG.bundle.pairs", kernel_pairs))
    tracer.patch(harness, "run_study", "harness.run_study")
    tracer.patch(harness, "emit_outputs", "harness.emit_outputs")
