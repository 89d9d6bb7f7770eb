"""Boundary wrappers that time calls into each weylinv module from outside.

Every public module-level function of a layer, and the cross-layer methods
listed in METHODS, is replaced by a wrapper.  The package binds names with
``from .linalg import rref``, so a wrapper is rebound in every weylinv module
that holds the original function, not only in the defining one.

A span is (name, start, end, parent span, item id).  The first SPAN_CAP
spans of each name are kept; every call is also aggregated in memory (count,
inclusive time, self time), so names called 10^5-10^6 times per run cost no
per-call storage.  Self time is a span's duration minus that of its direct
child spans; summed by layer, it is the layer's span time minus the time of
child spans in other layers, so ``Fraction`` work counts toward the calling
``linalg`` span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "smoothness", "freeness", "arrangement", "inversion", "weyl",
          "rootsys", "polynomials", "linalg")
METHODS = (("linalg", "Eliminator", ("add", "in_span", "copy")),
           ("weyl", "WeylGroup", ("mul", "bruhat_interval", "bruhat_leq")))
SPAN_CAP = 2000
OUTSIDE = "bench"   # layer of the frame below every span: the benchmark itself


def _cert_nodes(cert) -> int:
    if not isinstance(cert, dict):
        return 0
    return 1 + _cert_nodes(cert.get("del")) + _cert_nodes(cert.get("res"))


class Tracer:
    # result sizes worth counting, by wrapped name
    RESULT_SIZES: Dict[str, Callable] = {
        "arrangement.nbc_sets": len,
        "weyl.WeylGroup.bruhat_interval": len,
        "freeness.inductively_free": lambda res: _cert_nodes(res.certificate),
    }

    def __init__(self):
        # per name: [calls, calls from another layer, inclusive s, self s, spans kept]
        self.stats: Dict[str, list] = {}
        self.layer_of: Dict[str, str] = {}
        self.edges: Counter = Counter()        # (caller layer, callee name) -> calls
        self.sizes: Counter = Counter()        # summed result sizes, see RESULT_SIZES
        self.spans: List[Optional[tuple]] = []
        self.item: Optional[int] = None
        self._stack = [[0.0, -1, OUTSIDE]]    # [child time, span id for children, layer]
        self._restore: List[tuple] = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name: str, layer: str):
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0, 0])
        self.layer_of[name] = layer
        stack, spans, edges, sizes = self._stack, self.spans, self.edges, self.sizes
        clock = time.perf_counter
        size_of = self.RESULT_SIZES.get(name)
        tracer = self

        def enter(count=True):
            parent = stack[-1]
            if count:
                stats[0] += 1
                if parent[2] != layer:
                    stats[1] += 1
                    edges[parent[2], name] += 1
            own = -1
            if stats[4] < SPAN_CAP:
                stats[4] += 1
                own = len(spans)
                spans.append(None)
            frame = [0.0, own if own >= 0 else parent[1], layer]
            stack.append(frame)
            return parent, frame, own, clock()

        def leave(parent, frame, own, t0):
            t1 = clock()
            stack.pop()
            dur = t1 - t0
            stats[2] += dur
            stats[3] += dur - frame[0]
            parent[0] += dur
            if own >= 0:
                spans[own] = (name, t0, t1, parent[1], tracer.item)

        if inspect.isgeneratorfunction(fn):
            # each resumption is a span; the call is counted once
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                count = True
                while True:
                    ctx = enter(count)
                    count = False
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(*ctx)
                    yield value
        else:
            def wrapper(*args, **kwargs):
                ctx = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(*ctx)
                if size_of is not None:
                    sizes[name] += size_of(result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"weylinv.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        for layer, cls_name, names in METHODS:
            cls = getattr(modules[layer], cls_name)
            for attr in names:
                fn = cls.__dict__[attr]
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, f"{layer}.{cls_name}.{attr}", layer))
        for mod in [importlib.import_module("weylinv"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def _count(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n, l in self.layer_of.items() if l == layer]
            out[f"{layer}.self_s"] = sum(self.stats[n][3] for n in names)
            out[f"{layer}.calls"] = sum(self.stats[n][1] for n in names)
        c = self._count
        out["linalg.eliminator_ops"] = c("linalg.Eliminator.add") + c("linalg.Eliminator.in_span")
        out["linalg.rref_calls"] = (c("linalg.rref") + c("linalg.solve_coords")
                                    + c("linalg.kernel_basis"))
        out["arrangement.nbc_sets"] = self.sizes["arrangement.nbc_sets"]
        out["arrangement.poincare_calls"] = c("arrangement.poincare_polynomial")
        out["freeness.pivots_tried"] = self.edges["freeness", "arrangement.deletion"]
        out["freeness.q_evals"] = self.edges["freeness", "arrangement.poincare_polynomial"]
        out["freeness.verify_s"] = self.stats["freeness.verify_certificate"][2]
        out["freeness.cert_nodes"] = self.sizes["freeness.inductively_free"]
        out["weyl.mul_calls"] = c("weyl.WeylGroup.mul")
        out["weyl.interval_calls"] = c("weyl.WeylGroup.bruhat_interval")
        out["weyl.interval_elements"] = self.sizes["weyl.WeylGroup.bruhat_interval"]
        out["smoothness.subspaces_scanned"] = self.edges["smoothness", "inversion.flatten"]
        out["rootsys.subsystem_calls"] = c("rootsys.subsystem")
        out["smoothness.bp_decompositions"] = c("smoothness.bp_decomposition")
        return out

    def write_spans(self, path: str):
        """One JSON line per kept span, times relative to the tracer's creation."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                if span is None:
                    continue
                name, t0, t1, parent, item = span
                f.write(json.dumps([name, round(t0 - self._t0, 7), round(t1 - self._t0, 7),
                                    parent, item]) + "\n")
