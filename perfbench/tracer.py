"""Span tracer that wraps tamelab's public functions and methods from outside.

`Tracer.install()` replaces every public function of each layer module,
and the public methods (plus the arithmetic dunders of the three kernel
classes) of the classes those modules define, with a wrapper; the
same object is swapped wherever another tamelab module imported it.
`uninstall()` puts the originals back.  Nothing under src/ is edited.

Each wrapped call is counted.  A call opens a span when it enters a layer
from another one, or when its name feeds a busy-time metric; a call from
inside the same layer only counts, and its time stays in the enclosing
span.  Spans with the same call path inside one job are merged into one
node (calls, total seconds), so the in-memory tree stays bounded however
many scalar multiplies a job makes.  A node's self time is its total
minus its children's totals.  Nothing is written until `tree()` is read
after the pass.
"""

from __future__ import annotations

import functools
import importlib
import time
from types import FunctionType

LAYERS = ("padic", "matgrp", "pcentral", "liealg", "certify", "bounds", "cli")
_KERNEL_CLASSES = {"PadicScalar", "SeriesElement", "RingMatrix"}
_KERNEL_DUNDERS = {"__init__", "__mul__", "__add__", "__sub__", "__neg__",
                   "__pow__", "__eq__", "__hash__"}

# metric -> wrapped names whose calls it counts
COUNTS = {
    "padic.scalar_mul.calls": ["padic.PadicScalar.__mul__"],
    "padic.scalar_new.calls": ["padic.PadicScalar.__init__"],
    "padic.series_mul.calls": ["padic.SeriesElement.__mul__"],
    "padic.series_inv.calls": ["padic.SeriesElement.inv"],
    "matgrp.matmul.calls": ["matgrp.RingMatrix.__mul__"],
    "matgrp.inverse.calls": ["matgrp.RingMatrix.inverse"],
    "matgrp.int_power.calls": ["matgrp.int_power"],
    "matgrp.exp_log.calls": ["matgrp.mat_exp", "matgrp.mat_log"],
    "pcentral.group_mul.calls": ["pcentral.FiniteQuotientGroup.mul"],
    "pcentral.group_inv.calls": ["pcentral.FiniteQuotientGroup.inv"],
    "liealg.rref.calls": ["liealg.rref"],
    "liealg.solve.calls": ["liealg.solve"],
    "liealg.minpoly.calls": ["liealg.minimal_polynomial"],
    "certify.verify.calls": ["certify.verify_certificate"],
}

# metric -> wrapped names; busy while at least one of their spans is open
BUSY = {
    "pcentral.closure.busy_s": ["pcentral.closure"],
    "pcentral.series.busy_s": ["pcentral.pcentral_series"],
    "pcentral.uniformity.busy_s": ["pcentral.uniformity_check"],
    "pcentral.bracket.busy_s": ["pcentral.dictionary_bracket"],
    "liealg.elim.busy_s": ["liealg.rref", "liealg.rank", "liealg.solve",
                           "liealg.nullspace", "liealg.SpanTracker.add",
                           "liealg.SpanTracker.contains"],
    "liealg.minpoly.busy_s": ["liealg.minimal_polynomial"],
    "liealg.toral.busy_s": ["liealg.is_toral_sampled"],
    "liealg.inertial_span.busy_s": ["liealg.inertial_span"],
    "certify.suite.busy_s": ["certify.sl2_relation_suite", "certify.slm_series_suite",
                             "certify.quaternion_uniform_suite"],
    "certify.plan.busy_s": ["certify.build_local_plan",
                            "certify.standard_inertial_certificate"],
    "certify.search.busy_s": ["certify.brute_search_certificate"],
}

# layers whose inclusive busy time (layer anywhere on the span stack) is reported
LAYER_BUSY = ("padic", "matgrp", "bounds")
# layers whose entry count (calls into the layer from another one) is reported
LAYER_CALLS = ("bounds", "cli")


class Node:
    __slots__ = ("name", "layer", "calls", "total", "children")

    def __init__(self, name, layer):
        self.name, self.layer = name, layer
        self.calls, self.total = 0, 0.0
        self.children = {}

    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time(),
            "children": [c.to_json() for c in self.children.values()],
        }


class _Busy:
    __slots__ = ("depth", "start", "total")

    def __init__(self):
        self.depth, self.start, self.total = 0, 0.0, 0.0


class Tracer:
    def __init__(self):
        self.root = Node("pass", "bench")
        self.node = self.root
        self.layer = "bench"
        self.active = False
        self.calls: dict[str, int] = {}
        self.entries = {layer: 0 for layer in LAYERS}
        self.busy = {name: _Busy() for name in [*BUSY, *LAYER_BUSY]}
        self.groups: dict[str, list] = {}
        for metric, names in BUSY.items():
            for name in names:
                self.groups.setdefault(name, []).append(self.busy[metric])
        # pcentral.elements / closure_yield and liealg.span_yield inputs
        self.elements = 0
        self.closure_new = 0
        self.closure_muls = 0
        self.span_adds = 0
        self.span_grows = 0
        self.suite_items = 0
        self._patches = []

    # -- jobs ----------------------------------------------------------------

    def run_job(self, label, fn, *args):
        node = self.root.children[label] = Node(label, "bench")
        self.node, self.active = node, True
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            node.total = time.perf_counter() - t0
            node.calls = 1
            self.node, self.active = self.root, False

    # -- wrapping ------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module("tamelab")]
        modules += [importlib.import_module(f"tamelab.{name}") for name in LAYERS]
        modules += [importlib.import_module("tamelab.report")]
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tamelab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, obj, hit[1])
        missing = {n for names in [*COUNTS.values(), *BUSY.values()] for n in names}
        missing -= set(self.calls)
        if missing:
            self.uninstall()
            raise LookupError(f"traced names not found in tamelab: {sorted(missing)}")

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, original, replacement):
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap_class(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and not (
                cls.__name__ in _KERNEL_CLASSES and name in _KERNEL_DUNDERS
            ):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(obj, FunctionType):
                self._patch(cls, name, obj, self._wrap(key, layer, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(key, layer, obj.__func__))
                self._patch(cls, name, obj, wrapped)

    def _wrap(self, key, layer, fn):
        tracer = self
        self.calls[key] = 0
        groups = self.groups.get(key, ())
        hook = _HOOKS.get(key)
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            if layer == tracer.layer and not groups and hook is None:
                return fn(*args, **kwargs)
            return tracer._span(key, layer, groups, hook, fn, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def _span(self, key, layer, groups, hook, fn, args, kwargs):
        parent, parent_layer = self.node, self.layer
        node = parent.children.get(key)
        if node is None:
            node = parent.children[key] = Node(key, layer)
        opened = list(groups)
        if layer != parent_layer:
            self.entries[layer] += 1
            if layer in self.busy:
                opened.append(self.busy[layer])
        token = hook[0](self) if hook and hook[0] else None
        self.node, self.layer = node, layer
        t0 = time.perf_counter()
        for b in opened:
            if b.depth == 0:
                b.start = t0
            b.depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            node.calls += 1
            node.total += t1 - t0
            for b in opened:
                b.depth -= 1
                if b.depth == 0:
                    b.total += t1 - b.start
            self.node, self.layer = parent, parent_layer
        if hook:
            hook[1](self, token, result)
        return result

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        out = {layer: 0.0 for layer in ("bench", *LAYERS)}
        for node in self.root.walk():
            if node is not self.root:
                out[node.layer] += node.self_time()
        return out

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass: name -> (value, unit)."""
        out = {}
        for metric, names in COUNTS.items():
            out[metric] = (sum(self.calls[n] for n in names), "count")
        out["pcentral.elements"] = (self.elements, "count")
        out["pcentral.closure_yield"] = (_ratio(self.closure_new, self.closure_muls), "ratio")
        out["liealg.span_yield"] = (_ratio(self.span_grows, self.span_adds), "ratio")
        out["certify.checks"] = (self.suite_items, "count")
        for layer in LAYER_CALLS:
            out[f"{layer}.calls"] = (self.entries[layer], "count")
        for layer in LAYER_BUSY:
            out[f"{layer}.busy_s"] = (self.busy[layer].total, "s")
        for metric in BUSY:
            out[metric] = (self.busy[metric].total, "s")
        for layer, seconds in self.self_times().items():
            out[f"{layer}.self_s"] = (seconds, "s")
        return out

    def tree(self) -> dict:
        return self.root.to_json()


def _ratio(num, den):
    return num / den if den else 0.0


# hooks: (before(tracer) -> token, after(tracer, token, result)) around a span


def _closure_before(tracer):
    return tracer.calls["pcentral.FiniteQuotientGroup.mul"]


def _closure_after(tracer, muls_before, result):
    tracer.elements += len(result)
    tracer.closure_new += len(result) - 1
    tracer.closure_muls += tracer.calls["pcentral.FiniteQuotientGroup.mul"] - muls_before


def _span_add_after(tracer, token, grew):
    tracer.span_adds += 1
    tracer.span_grows += bool(grew)


def _suite_after(tracer, token, report):
    tracer.suite_items += len(report.items)


_HOOKS = {
    "pcentral.FiniteQuotientGroup.subgroup_closure": (_closure_before, _closure_after),
    "liealg.SpanTracker.add": (None, _span_add_after),
    **{name: (None, _suite_after) for name in BUSY["certify.suite.busy_s"]},
}
