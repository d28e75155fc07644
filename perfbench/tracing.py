"""Spans around the conwaykit layers, recorded from outside the package.

install() replaces every module-level binding of the public functions of
poly, diagram, skein, table, verify and cli with a wrapper that records a
span (name, start, end, parent) and self time.  The verify families that
run_all calls through private names are wrapped too, so each family gets
its own span.  a2_A, a2_B and a3_of are not wrapped: they are one-line
integer formulas called about a million times per run_all, so their
spans would measure the wrapper, not the code; their time counts as self
time of the verify family that calls them.

IntPoly arithmetic is wrapped on the class.  The conway wrapper reads the
SkeinContext counters before and after each call and supplies a fresh
context when the caller passes none, which is what conway does itself.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("poly", "diagram", "skein", "table", "verify", "cli")
VERIFY_FAMILIES = {
    "verify._table_reports": "table",
    "verify.k1_chain": "chain",
    "verify.closed_form_crosscheck": "closed_form",
    "verify.check_recurrences": "recurrence",
    "verify.theorem_sum_check": "sum",
    "verify._property_suite": "property",
}
NOT_WRAPPED = {"verify.a2_A", "verify.a2_B", "verify.a3_of"}
_SUMMED = ("calls", "self_ns", "total_ns", "family_ns", "counts")
ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "shift")


class Tracer:
    """Open spans on a stack; aggregates per span name; a capped span log."""

    def __init__(self, span_cap: int = 0):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.family_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.span_cap = span_cap
        self._stack: list[list] = []  # [span id, child_ns, family]
        self._next_id = 1

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        family = VERIFY_FAMILIES.get(name) or (stack[-1][2] if stack else None)
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0, family]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            total = end - start
            own = total - frame[1]
            self.calls[name] += 1
            self.self_ns[name] += own
            self.total_ns[name] += total
            if family is not None and name.startswith("verify."):
                self.family_ns[family] += own
            if stack:
                stack[-1][1] += total
            if len(self.spans) < self.span_cap:
                parent = stack[-1][0] if stack else 0
                self.spans.append((span_id, parent, name, start, end))

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def summary(self) -> dict:
        out = {key: dict(getattr(self, key)) for key in _SUMMED + ("maxima",)}
        out["spans"] = self.spans
        out["next_id"] = self._next_id
        return out

    def merge(self, summary: dict) -> None:
        """Add the summary of a tracer in another process (a CLI run)."""
        for key in _SUMMED:
            target = getattr(self, key)
            for k, v in summary[key].items():
                target[k] += v
        for k, v in summary["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)
        offset = self._next_id
        for span_id, parent, name, start, end in summary["spans"]:
            if len(self.spans) >= self.span_cap:
                break
            self.spans.append(
                (span_id + offset, parent + offset if parent else 0, name, start, end)
            )
        self._next_id += summary["next_id"]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


def _plain_wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _reduce_wrapper(tracer: Tracer, name: str, fn):
    def traced(d, *args, **kwargs):
        out = tracer.call(name, fn, (d,) + args, kwargs)
        removed = len(d.crossings) - len(out.crossings)
        tracer.counts["reduce_removed"] += removed
        if removed == 0:
            tracer.counts["reduce_noop"] += 1
        return out

    return traced


def _canonical_wrapper(tracer: Tracer, name: str, fn):
    def traced(d, *args, **kwargs):
        tracer.maxima["node_crossings"] = max(
            tracer.maxima["node_crossings"], len(d.crossings)
        )
        return tracer.call(name, fn, (d,) + args, kwargs)

    return traced


def _arith_wrapper(tracer: Tracer, name: str, fn, poly_type):
    def traced(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if isinstance(out, poly_type):
            degree = len(out.coeffs) - 1
            if degree > tracer.maxima["poly_degree"]:
                tracer.maxima["poly_degree"] = degree
        return out

    return traced


def _conway_wrapper(tracer: Tracer, name: str, fn, context_type):
    components_key = "diagram.components"

    def traced(d, ctx=None):
        if ctx is None:
            ctx = context_type()
        nodes, hits, memo = ctx.nodes_expanded, ctx.cache_hits, len(ctx.memo)
        comps = tracer.calls[components_key]
        try:
            return tracer.call(name, fn, (d, ctx), {})
        finally:
            tracer.counts["nodes"] += ctx.nodes_expanded - nodes
            tracer.counts["cache_hits"] += ctx.cache_hits - hits
            tracer.counts["memo_entries"] += len(ctx.memo) - memo
            tracer.counts["engine_components"] += tracer.calls[components_key] - comps

    return traced


def install(tracer: Tracer):
    """Wrap the layers; returns a function that restores the originals."""
    modules = {layer: importlib.import_module("conwaykit." + layer) for layer in LAYERS}
    skein = modules["skein"]
    poly = modules["poly"]
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = "%s.%s" % (layer, attr)
            if name in NOT_WRAPPED:
                continue
            if attr.startswith("_") and name not in VERIFY_FAMILIES:
                continue
            if name == "diagram.reduce":
                wrapper = _reduce_wrapper(tracer, name, obj)
            elif name == "diagram.canonical_code":
                wrapper = _canonical_wrapper(tracer, name, obj)
            elif name == "skein.conway":
                wrapper = _conway_wrapper(tracer, name, obj, skein.SkeinContext)
            else:
                wrapper = _plain_wrapper(tracer, name, obj)
            wrappers[id(obj)] = (obj, wrapper)

    patched: list[tuple[object, str, object]] = []
    targets = [m for n, m in sys.modules.items() if n.split(".")[0] == "conwaykit"]
    for module in targets:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patched.append((module, attr, obj))
                setattr(module, attr, hit[1])

    for attr in ARITH:
        original = poly.IntPoly.__dict__[attr]
        patched.append((poly.IntPoly, attr, original))
        wrapper = _arith_wrapper(tracer, "poly." + attr, original, poly.IntPoly)
        setattr(poly.IntPoly, attr, wrapper)

    def uninstall():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return uninstall
