"""Per-layer tracing from outside the library.

`install` replaces the public functions of each layer module (and a few
class methods) with wrappers.  A layer is one `spinbranch` module.  Every
wrapped call is counted; a span opens only when a call crosses from one
layer into another, so calls within a layer run inside the span already
open.  A span's self time is its duration minus the time its child spans
cover, and a layer's self time is the sum over its spans.  Spans are kept
in memory as (name, start, end, parent) columns and written out by `dump`.

`core` gets no spans: its helpers take well under a microsecond, so their
time is charged to the caller.  For the same reason `SignMap.value`,
`Weight.entry`, `res_p` and `cont_p` are never wrapped.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("sigseq", "indices", "crystal", "poly", "raising", "verify", "cli")
ROOT = "bench"  # the benchmark's own code inside an op
SKIP = {"crystal.cont_p"}
METHODS = {
    "poly": {"Polynomial": ("__mul__", "__rmul__", "substitute")},
    "raising": {"U0Element": ("__mul__", "scale")},
}
FLOW_NAMES = (
    "build_full_flow", "partial_flow", "section_of",
    "resolution_of", "split_index", "lead_plus_index",
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.self_time: Counter = Counter()  # by span name
        self.distinct: dict[str, set] = {"poly.g": set(), "raising.bracket_hom": set()}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        # open spans: [span index, child time]; top-of-stack layer and name
        self._stack: list[list] = []
        self.top_layer = ROOT
        self.top_name = ROOT

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, name: str, layer: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.span_start)
        frame = [idx, 0.0]
        saved = (self.top_layer, self.top_name)
        self._stack.append(frame)
        self.top_layer, self.top_name = layer, name
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent[0] if parent else -1)
        self.span_end.append(0.0)
        t0 = perf_counter()
        self.span_start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.top_layer, self.top_name = saved
            self.span_end[idx] = t1
            self.self_time[name] += (t1 - t0) - frame[1]
            if parent is not None:
                parent[1] += t1 - t0

    def op(self, fn, *args):
        """Run one benchmark op under a root span."""
        return self._span(ROOT, ROOT, fn, args, {})

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in (ROOT,) + LAYERS}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def dump(self, directory: str):
        """Write the spans as raw columns plus a JSON index of names."""
        os.makedirs(directory, exist_ok=True)
        for col in ("span_name", "span_start", "span_end", "span_parent"):
            with open(os.path.join(directory, col + ".bin"), "wb") as fh:
                getattr(self, col).tofile(fh)
        with open(os.path.join(directory, "names.json"), "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "columns": {"span_name": "I", "span_start": "d",
                                   "span_end": "d", "span_parent": "q"}}, fh)


# -- per-function counters beyond the call count ------------------------------


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _terms(x) -> int:
    return _len(getattr(x, "terms", (x,) if x else ()))


def _before(tr: Tracer, name: str, args):
    if name == "poly.Polynomial.__mul__":
        tr.extra["poly.mul.term_pairs"] += _terms(args[0]) * _terms(args[1])
    elif name == "sigseq.reduce_seq":
        tr.extra["sigseq.reduce_seq.entries"] += _len(args[0])
    elif name == "sigseq.r_beta" and tr.top_layer == "indices":
        tr.extra["indices.r_beta_calls"] += 1
    elif name in ("poly.g1", "poly.g2"):
        tr.distinct["poly.g"].add(
            (name,) + tuple(frozenset(a) if isinstance(a, (set, list)) else a for a in args)
        )
    elif name == "raising.bracket_hom":
        tr.distinct["raising.bracket_hom"].add(hash(args[0]))


def _after(tr: Tracer, name: str, result):
    if name == "crystal.f_tilde" and result is not None and tr.top_name == "crystal.crystal_graph":
        tr.extra["crystal.candidates"] += 1
    elif name == "crystal.crystal_graph":
        tr.extra["crystal.vertices"] += _len(getattr(result, "vertices", ()))
    elif name.startswith("verify.verify_"):
        tr.extra["verify.cases"] += getattr(result, "cases", 0)


HOOKED_BEFORE = {
    "poly.Polynomial.__mul__", "sigseq.reduce_seq", "sigseq.r_beta",
    "poly.g1", "poly.g2", "raising.bracket_hom",
}
HOOKED_AFTER = {"crystal.f_tilde", "crystal.crystal_graph"}


def _wrap(tr: Tracer, fn, layer: str, name: str):
    before = name in HOOKED_BEFORE
    after = name in HOOKED_AFTER or name.startswith("verify.verify_")

    if inspect.isgeneratorfunction(fn):
        # Generators run lazily inside their caller's span; count their items.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not tr.enabled:
                yield from fn(*args, **kwargs)
                return
            tr.calls[name] += 1
            generating = tr.top_name == "crystal.crystal_graph"
            for item in fn(*args, **kwargs):
                if generating:
                    tr.extra["crystal.candidates"] += 1
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        tr.calls[name] += 1
        if before:
            _before(tr, name, args)
        if tr.top_layer == layer:
            result = fn(*args, **kwargs)
        else:
            result = tr._span(name, layer, fn, args, kwargs)
        if after:
            _after(tr, name, result)
        return result

    return wrapper


def install(tr: Tracer) -> None:
    """Wrap every layer's public functions where they are defined and
    wherever another spinbranch module imported them by name."""
    modules = {layer: importlib.import_module(f"spinbranch.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                wrapped = _wrap(tr, obj, layer, name)
                replaced[id(obj)] = wrapped
                setattr(mod, attr, wrapped)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                key = id(fn)
                if key not in replaced:  # __rmul__ is __mul__
                    replaced[key] = _wrap(tr, fn, layer, f"{layer}.{cls_name}.{fn.__name__}")
                setattr(cls, meth, replaced[key])
    package = importlib.import_module("spinbranch")
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, attr, replaced[id(obj)])


def layer_metrics(tr: Tracer) -> dict:
    """Counts and self times by layer, named as in BENCHMARK.json."""
    c = tr.calls
    by_layer = Counter()
    for name, n in c.items():
        by_layer[name.split(".", 1)[0]] += n
    selfs = tr.layer_self()
    total = sum(selfs.values()) or 1.0
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = by_layer[layer]
        m[f"{layer}.self_s"] = selfs[layer]
        m[f"{layer}.self_share"] = selfs[layer] / total
    m[f"{ROOT}.self_s"] = selfs[ROOT]
    m[f"{ROOT}.self_share"] = selfs[ROOT] / total

    def ratio(a, b):
        return a / b if b else 0.0

    g_calls = c["poly.g1"] + c["poly.g2"]
    m.update({
        "poly.mul.calls": c["poly.Polynomial.__mul__"],
        "poly.mul.term_pairs": tr.extra["poly.mul.term_pairs"],
        "poly.substitute.calls": c["poly.Polynomial.substitute"],
        "poly.exact_div.calls": c["poly.exact_div"],
        "poly.sigma_apply.calls": c["poly.sigma_apply"],
        "poly.g.calls": g_calls,
        "poly.g.distinct_ratio": ratio(len(tr.distinct["poly.g"]), g_calls),
        "raising.raising_rec.calls": c["raising.raising_rec"],
        "raising.raising_closed.calls": c["raising.raising_closed"],
        "raising.bracket_hom.calls": c["raising.bracket_hom"],
        "raising.bracket_hom.distinct_ratio": ratio(
            len(tr.distinct["raising.bracket_hom"]), c["raising.bracket_hom"]),
        "raising.u0_mul.calls": c["raising.U0Element.__mul__"],
        "raising.u0_scale.calls": c["raising.U0Element.scale"],
        "sigseq.reduce_seq.calls": c["sigseq.reduce_seq"],
        "sigseq.reduce_seq.entries": tr.extra["sigseq.reduce_seq.entries"],
        "sigseq.product_of.calls": c["sigseq.product_of"],
        "sigseq.r_beta.calls": c["sigseq.r_beta"],
        "sigseq.flows.calls": sum(c[f"sigseq.{f}"] for f in FLOW_NAMES),
        "indices.classify_index.calls": c["indices.classify_index"],
        "indices.certificates.calls": c["indices.non_normal_certificate"],
        "indices.plans.calls": c["indices.primitive_plan"] + c["indices.extension_plan"],
        "indices.r_beta_per_index": ratio(
            tr.extra["indices.r_beta_calls"], c["indices.classify_index"]),
        "crystal.crystal_graph.self_s": tr.self_time["crystal.crystal_graph"],
        "crystal.candidates": tr.extra["crystal.candidates"],
        "crystal.vertex_yield": ratio(tr.extra["crystal.vertices"], tr.extra["crystal.candidates"]),
        "crystal.e_tilde.calls": c["crystal.e_tilde"],
        "crystal.f_tilde.calls": c["crystal.f_tilde"],
        "crystal.branching_tables.calls": c["crystal.branching_tables"],
        "verify.cases": tr.extra["verify.cases"],
        "cli.out_bytes": tr.extra["cli.out_bytes"],  # counted by the worker
    })
    return m
