"""Per-layer spans around calls into qkneser's public functions.

install(tracer) wraps each function named in TARGETS and rebinds the
wrapper under every name that refers to the original in any loaded
qkneser module, including values of module-level dicts such as
verify.SUITES.  Modules that took the function with a from-import (cli,
verify, td, ...) therefore call the wrapper too.  Nothing under src/ is
edited; the wrappers live only in the process that installed them.

A span records its name, its parent span, start and end, its busy time,
the busy time of its direct child spans (self time = busy - child) and a
few counts read from the call's arguments and result after the span has
closed, so computing them is not charged to the span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "child",
                 "nested", "attrs")

    def __init__(self, sid, name, parent, start, nested):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.nested = nested  # an enclosing span has the same name
        self.attrs = {}

    def as_dict(self):
        return {"id": self.id, "name": self.name,
                "parent": self.parent.id if self.parent else None,
                "start": self.start, "end": self.end, "busy": self.busy,
                "child": self.child, "nested": self.nested, "attrs": self.attrs}


class Tracer:
    """Keeps finished spans in memory; dump() writes them as JSON."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        nested = any(s.name == name for s in self.stack)
        span = Span(len(self.spans), name, parent, clock(), nested)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.busy = span.end - span.start
        if span.parent is not None:
            span.parent.child += span.busy

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def _traced(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, result)
        return result
    return wrapper


def _traced_generator(tracer: Tracer, name: str, fn):
    """One span per generator; its busy time is the time spent inside
    next(), charged as child time to whichever span consumed the item."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            tracer.close(span)
        return _drain(tracer, span, it)
    return wrapper


_DONE = object()


def _drain(tracer: Tracer, span: Span, it):
    span.attrs["items"] = 0
    while True:
        t0 = clock()
        item = next(it, _DONE)
        dt = clock() - t0
        span.busy += dt
        span.end = clock()
        if tracer.stack:
            tracer.stack[-1].child += dt
        if item is _DONE:
            return
        span.attrs["items"] += 1
        yield item


# -- counts read after each call ---------------------------------------------

def _edges(rows) -> int:
    return sum(r.bit_count() for r in rows) // 2


def _after_build(span, args, g):
    v = g.n_vertices
    span.attrs.update(vertices=v, pairs=v * (v - 1) // 2, edges=_edges(g.rows))


def _after_build_all_t(span, args, result):
    graphs, _ = result
    any_g = next(iter(graphs.values()))
    v = any_g.n_vertices
    span.attrs.update(vertices=v, pairs=v * (v - 1) // 2,
                      edges=sum(_edges(g.rows) for g in graphs.values()))


def _after_file(index):
    def after(span, args, result):
        span.attrs["bytes"] = os.path.getsize(args[index])
    return after


def _after_validate(span, args, report):
    span.attrs["edges"] = _edges(args[0].rows)


def _after_max_clique(span, args, result):
    span.attrs["nodes"] = result.nodes


def _to_parent(key, pick):
    def after(span, args, result):
        if span.parent is not None and span.parent.name == "twsolve.treewidth_exact":
            span.parent.attrs[key] = pick(result)
    return after


def _after_treewidth(span, args, r):
    a = span.attrs
    a["nodes"] = r.nodes
    if "upper0" not in a:  # the empty graph returns before any bound
        a.update(levels=0, decisive=0)
        return
    lower0 = max(a["mmw"], a["omega"] - 1, 0)
    upper0 = a["upper0"]
    if r.status == "exact":
        # levels lower0.. are decided in ascending order; the last one
        # decided (a success below upper0, or the refutation of upper0-1)
        # settles exactness, every earlier one is subsumed by it
        levels = r.value - lower0 + 1 if r.value < upper0 else max(upper0 - lower0, 0)
        a.update(levels=levels, decisive=1 if levels else 0)
    else:
        a.update(levels=r.lower - lower0 + 1, decisive=0)


# (module, function, span name, after-call hook); generators flagged apart
TARGETS = [
    ("qkneser.graph", "build_qkneser", "graph.build", _after_build),
    ("qkneser.graph", "build_qkneser_all_t", "graph.build_all_t", _after_build_all_t),
    ("qkneser.graph", "write_gr", "graph.write_gr", _after_file(1)),
    ("qkneser.graph", "read_gr", "graph.read_gr", _after_file(0)),
    ("qkneser.ekr", "point_pencil", "ekr.point_pencil", None),
    ("qkneser.ekr", "nest_family", "ekr.nest_family", None),
    ("qkneser.ekr", "is_independent", "ekr.is_independent", None),
    ("qkneser.ekr", "max_independent_set_exact", "ekr.mis", None),
    ("qkneser.cliques", "max_clique", "cliques.max_clique", _after_max_clique),
    ("qkneser.td", "star_decomposition", "td.star", None),
    ("qkneser.td", "validate", "td.validate", _after_validate),
    ("qkneser.td", "write_td", "td.write_td", _after_file(1)),
    ("qkneser.td", "read_td", "td.read_td", _after_file(0)),
    ("qkneser.twsolve", "treewidth_exact", "twsolve.treewidth_exact", _after_treewidth),
    ("qkneser.twsolve", "min_fill_order", "twsolve.min_fill",
     _to_parent("upper0", lambda r: r[0])),
    ("qkneser.twsolve", "minor_min_width", "twsolve.minor_min_width",
     _to_parent("mmw", lambda r: r)),
    ("qkneser.twsolve", "clique_lower_bound", "twsolve.clique_bound",
     _to_parent("omega", lambda r: r)),
    ("qkneser.twsolve", "balanced_separator_search", "twsolve.separator", None),
    ("qkneser.verify", "suite_degrees", "verify.degrees", None),
    ("qkneser.verify", "suite_ekr", "verify.ekr", None),
    ("qkneser.verify", "suite_separators", "verify.separators", None),
]
GENERATOR_TARGETS = [
    ("qkneser.subspace", "enumerate_subspaces", "subspace.enumerate"),
]


def _rebind(original, wrapper) -> None:
    """Point every reference to `original` in a loaded qkneser module, or
    in a dict held by one, at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qkneser" or mod_name.startswith("qkneser.")):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
            elif isinstance(value, dict):
                for k2, v2 in list(value.items()):
                    if v2 is original:
                        value[k2] = wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target in all loaded qkneser modules (imports the CLI
    first so that every module that binds a target is loaded)."""
    import importlib

    importlib.import_module("qkneser.cli")
    for mod_name, attr, name, after in TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, _traced(tracer, name, original, after))
    for mod_name, attr, name in GENERATOR_TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, _traced_generator(tracer, name, original))
