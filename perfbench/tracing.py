"""Outside-in tracing of the package: wrap public functions, keep spans in memory.

``Tracer.install`` replaces every public function of each layer module, and
the two methods ``DiskDtnSolver.dtn_matrix`` and
``OperatorCache.get_or_build``, by a wrapper that records a span.  A
function imported by name into another module (``from .boundary_ops import
assemble_S``) is a separate binding, so every module of the package that
holds the function object is patched, not only the defining one.

Each thread keeps its own span stack, and a span's parent is the innermost
open span of its own thread.  A span that opens on an empty stack in a pool
thread takes as parent the innermost open span of the thread that installed
the tracer, which is the thread that submitted the work.  Self time is a
span's duration minus the union of the intervals its children cover, so
children running concurrently in two pool threads are not subtracted twice
and no self time is negative.

The package itself is not modified; spans inside the program are not
recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

#: the traced layers, in the package's own module names; ``geometry`` is set-up only
LAYERS = ("green", "boundary_ops", "disk_solver", "dtn_maps", "exceptional",
          "transform", "harness", "validate")

#: methods traced in addition to each module's public functions
METHODS = (("disk_solver", "DiskDtnSolver", "dtn_matrix"),
           ("harness", "OperatorCache", "get_or_build"))

_SERIES_RADIUS = 4.0   # green._SERIES_RADIUS: |w| <= 4 is summed as a series, beyond by E1


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: str
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _kpoint_key(k) -> tuple:
    if hasattr(k, "log_abs"):
        return (round(k.log_abs, 12), round(k.phi, 12))
    k = complex(k)
    return (round(k.real, 15), round(k.imag, 15))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _green_branches(args, kwargs):
    absw = np.abs(np.asarray(args[0] if args else kwargs["w"]))
    series = int(np.count_nonzero(absw <= _SERIES_RADIUS))
    return {"series": series, "e1": int(absw.size) - series}


# per-span annotations: name -> (before(args, kwargs), after(args, kwargs, before_attrs))
_PROBES = {
    "green.green_remainder": (_green_branches, None),
    "boundary_ops.assemble_S": (lambda a, kw: {"k": _kpoint_key(a[0] if a else kw["k"])}, None),
    "transform.trace_u": (lambda a, kw: {"k": _kpoint_key(a[0] if a else kw["k"])}, None),
    "exceptional.trace_locus": (lambda a, kw: {"rays": len(a[3] if len(a) > 3 else kw["angles"])}, None),
    "boundary_ops.load_operator": (lambda a, kw: {"bytes": _file_bytes(a[0] if a else kw["path"])}, None),
    "boundary_ops.save_operator": (None, lambda a, kw, b: {"bytes": _file_bytes(a[0] if a else kw["path"])}),
    "disk_solver.DiskDtnSolver.dtn_matrix": (
        lambda a, kw: {"rss0": _maxrss_mb()},
        lambda a, kw, b: {"rss_growth_mb": _maxrss_mb() - b["rss0"]}),
}


class Tracer:
    """Records spans of the wrapped functions for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._origin = threading.get_ident()
        self._ids = itertools.count(1)

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a pool thread's first span: the submitting thread is blocked in its
        # innermost open span; slicing reads that stack's top atomically
        top = self._stacks.get(self._origin, [])[-1:]
        return top[0] if top else None

    def wrap(self, name: str, fn):
        before, after = _PROBES.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            span = Span(next(self._ids), name, self._parent(stack), tid, self.run_id, 0.0)
            if before is not None:
                span.attrs.update(before(args, kwargs))
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if after is not None and span.error is None:
                    span.attrs.update(after(args, kwargs, span.attrs))
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and METHODS, in every module binding."""
        mods = {m: importlib.import_module(f"faddeev_ep.{m}") for m in LAYERS}
        originals = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname == "faddeev_ep" or modname.startswith("faddeev_ep."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and originals[id(obj)][1] is obj:
                        setattr(mod, attr, wrappers[id(obj)])
        for short, cls, meth in METHODS:
            klass = getattr(mods[short], cls)
            setattr(klass, meth, self.wrap(f"{short}.{cls}.{meth}", getattr(klass, meth)))

    def dump(self, path) -> None:
        """Write the spans out, one JSON object a line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), default=list) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals (clipped to it)."""
    kids = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            kids[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: (s.end - s.start) - _covered(kids[s.id]) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics named in perfbench/metrics.json, from one traced repeat."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def per_distinct_k(name):
        keys = {tuple(s.attrs["k"]) for s in by_name[name]}
        return calls(name) / len(keys) if keys else 0.0

    by_id = {s.id: s for s in spans}

    def under(span, ancestor_name):
        p = by_id.get(span.parent)
        while p is not None:
            if p.name == ancestor_name:
                return True
            p = by_id.get(p.parent)
        return False

    rays = attr_sum("exceptional.trace_locus", "rays")
    locus_evals = sum(1 for s in by_name["exceptional.criterion"] if under(s, "exceptional.trace_locus"))
    gob = by_name["harness.OperatorCache.get_or_build"]
    saves = {s.parent for s in by_name["boundary_ops.save_operator"]}
    misses = sum(1 for s in gob if s.id in saves)
    fn_calls = calls("dtn_maps.assemble_Fn")
    solves = calls("disk_solver.DiskDtnSolver.dtn_matrix")

    return {
        "green.green_remainder.calls": calls("green.green_remainder"),
        "green.green_remainder.self_s": self_s("green.green_remainder"),
        "green.series_evals": attr_sum("green.green_remainder", "series"),
        "green.e1_evals": attr_sum("green.green_remainder", "e1"),
        "boundary_ops.assemble_S.calls": calls("boundary_ops.assemble_S"),
        "boundary_ops.assemble_S.self_s": self_s("boundary_ops.assemble_S"),
        "boundary_ops.assemble_S.per_kpoint": per_distinct_k("boundary_ops.assemble_S"),
        "boundary_ops.invert_S.calls": calls("boundary_ops.invert_S"),
        "boundary_ops.invert_S.self_s": self_s("boundary_ops.invert_S"),
        "boundary_ops.invert_S.refusals": sum(
            1 for s in by_name["boundary_ops.invert_S"] if s.error == "NearSingularError"),
        "boundary_ops.weighted_matrix.self_s": self_s("boundary_ops.weighted_matrix"),
        "disk_solver.DiskDtnSolver.dtn_matrix.calls": solves,
        "disk_solver.DiskDtnSolver.dtn_matrix.self_s": self_s("disk_solver.DiskDtnSolver.dtn_matrix"),
        "disk_solver.DiskDtnSolver.dtn_matrix.rss_growth_mb": attr_sum(
            "disk_solver.DiskDtnSolver.dtn_matrix", "rss_growth_mb"),
        "dtn_maps.assemble_Fn.calls": fn_calls,
        "dtn_maps.fn_memo_hit_ratio": 1.0 - solves / fn_calls if fn_calls else 0.0,
        "dtn_maps.assemble_Fout.calls": calls("dtn_maps.assemble_Fout"),
        "dtn_maps.assemble_Fout.self_s": self_s("dtn_maps.assemble_Fout"),
        "exceptional.criterion.calls": calls("exceptional.criterion"),
        "exceptional.criterion.self_s": self_s("exceptional.criterion"),
        "exceptional.n_minus.calls": calls("exceptional.n_minus"),
        "exceptional.n_minus.self_s": self_s("exceptional.n_minus"),
        "exceptional.assemble_P.calls": calls("exceptional.assemble_P"),
        "exceptional.assemble_P.self_s": self_s("exceptional.assemble_P"),
        "exceptional.trace_locus.evals_per_ray": locus_evals / rays if rays else 0.0,
        "transform.trace_u.calls": calls("transform.trace_u"),
        "transform.trace_u.self_s": self_s("transform.trace_u"),
        "transform.trace_u.per_point": per_distinct_k("transform.trace_u"),
        "harness.OperatorCache.get_or_build.calls": len(gob),
        "harness.OperatorCache.get_or_build.hits": len(gob) - misses,
        "harness.OperatorCache.get_or_build.misses": misses,
        "harness.OperatorCache.get_or_build.self_s": self_s("harness.OperatorCache.get_or_build"),
        "boundary_ops.load_operator.bytes": attr_sum("boundary_ops.load_operator", "bytes"),
        "boundary_ops.load_operator.self_s": self_s("boundary_ops.load_operator"),
        "boundary_ops.save_operator.bytes": attr_sum("boundary_ops.save_operator", "bytes"),
        "boundary_ops.save_operator.self_s": self_s("boundary_ops.save_operator"),
        "harness.run.self_s": self_s("harness.run"),
        "validate.run_validation.total_s": sum(s.end - s.start for s in by_name["validate.run_validation"]),
    }


def min_self_time(spans: list[Span]) -> float:
    own = self_times(spans)
    return min(own.values()) if own else 0.0
