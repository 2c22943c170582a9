"""Span tracing around the program's public functions, from outside it.

`Tracer.installed()` replaces each traced function by a timing wrapper in
every `linkless` module that holds a reference to it, which is where
callers look it up, and restores the originals on exit.  Spans are kept
in memory; `layer_metrics` turns them into per-operation layer numbers.
"""

from __future__ import annotations

import contextlib
import sys
from time import process_time as clock

# Traced functions by defining module, with the layer each belongs to.
TRACED = {
    "circuits": ("graphs", ["enumerate_circuits", "disjoint_circuit_pairs"]),
    "canonical": ("graphs", ["canonical_form"]),
    "minors": ("combinatorics", ["is_intrinsically_linked", "minor_model_errors"]),
    "moves": ("combinatorics", ["petersen_family"]),
    "embedding": ("geometry", ["random_embedding", "straight_line_embedding",
                               "reroute_edge", "embedding_from_json_dict"]),
    "projection": ("geometry", ["project", "linking_number", "omega_pair"]),
    "omega": ("geometry", ["regular_projection", "loop_pair_link", "omega_graph"]),
}
LAYER = {name: layer for layer, names in TRACED.values() for name in names}
LAYERS = ("graphs", "combinatorics", "geometry", "other")

_SIZE = {
    "enumerate_circuits": len,
    "disjoint_circuit_pairs": len,
    "project": lambda diagram: len(diagram.crossings),
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "ok", "size", "child_time")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = clock()
        self.end = None
        self.ok = False
        self.size = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans while an operation is open; idle otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None

    def _wrap(self, name, fn):
        size_of = _SIZE.get(name)

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                if size_of is not None:
                    span.size = size_of(result)
                return result
            finally:
                self._close(span)

        return traced

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._op, parent)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one request; traced calls inside it become children."""
        self._op = op_id
        span = self._open("op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    @contextlib.contextmanager
    def installed(self):
        patched = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "linkless" or name.startswith("linkless."))]
        try:
            for mod_name, (_, names) in TRACED.items():
                home = sys.modules[f"linkless.{mod_name}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def layer_metrics(spans: list[Span], ops: int, counters: dict,
                  scale: float = 1.0) -> tuple[dict, dict]:
    """Per-operation layer numbers from the spans of `ops` traced operations.

    Span times are multiplied by `scale` (CPU seconds to reference-speed
    seconds).  Returns (metrics, layer_seconds).  A ratio whose
    denominator is zero (no such calls in this workload) is reported as 0.
    """
    calls: dict[str, int] = {}
    ok: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    size: dict[str, int] = {}
    tested_pairs = 0
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        ok[s.name] = ok.get(s.name, 0) + s.ok
        incl[s.name] = incl.get(s.name, 0.0) + s.duration * scale
        self_t[s.name] = self_t.get(s.name, 0.0) + s.self_time * scale
        if s.size is not None:
            size[s.name] = size.get(s.name, 0) + s.size
        if s.name == "enumerate_circuits" and s.parent is not None \
                and s.parent.name == "disjoint_circuit_pairs" and s.size is not None:
            tested_pairs += s.size * (s.size - 1) // 2
        layer_s[LAYER.get(s.name, "other")] += s.self_time * scale

    def per_op(value):
        return value / ops

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    draws = ("straight_line_embedding", "reroute_edge")
    lk = ("linking_number", "omega_pair")
    minors_self = self_t.get("is_intrinsically_linked", 0.0)
    metrics = {
        "projection.project_s": per_op(total(incl, "project")),
        "projection.projections": per_op(total(calls, "project")),
        "projection.regular_ratio": ratio(total(ok, "project"), total(calls, "project")),
        "projection.crossings": per_op(total(size, "project")),
        "projection.lk_s": per_op(total(incl, *lk)),
        "projection.lk_calls": per_op(total(calls, *lk)),
        "embedding.validate_s": per_op(total(self_t, "random_embedding", *draws,
                                             "embedding_from_json_dict")),
        "embedding.accept_ratio": ratio(total(ok, *draws), total(calls, *draws)),
        "embedding.reroute_retries": per_op(counters.get("reroute_retries", 0)),
        "circuits.enumerate_s": per_op(total(incl, "enumerate_circuits")),
        "circuits.disjoint_pairs_s": per_op(total(self_t, "disjoint_circuit_pairs")),
        "circuits.circuits": per_op(total(size, "enumerate_circuits")),
        "circuits.pairs": per_op(total(size, "disjoint_circuit_pairs")),
        "circuits.pair_yield": ratio(total(size, "disjoint_circuit_pairs"), tested_pairs),
        "omega.self_s": per_op(total(self_t, "omega_graph", "regular_projection")),
        "omega.loop_pair_link_s": per_op(total(incl, "loop_pair_link")),
        "canonical.s": per_op(total(incl, "canonical_form")),
        "canonical.calls": per_op(total(calls, "canonical_form")),
        "minors.self_s": per_op(minors_self),
        "minors.nodes": per_op(counters.get("nodes", 0)),
        "minors.nodes_per_s": ratio(counters.get("nodes", 0), minors_self),
        "minors.budget_exhausted": per_op(counters.get("budget_exhausted", 0)),
        "minors.verify_s": per_op(total(incl, "minor_model_errors")),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = per_op(layer_s[layer])
    return metrics, layer_s


def layer_shares(spans: list[Span], group_of: dict) -> dict:
    """Each layer's share of the self time of the requests in each group."""
    by_group: dict = {}
    for s in spans:
        row = by_group.setdefault(group_of[s.op], dict.fromkeys(LAYERS, 0.0))
        row[LAYER.get(s.name, "other")] += s.self_time
    return {group: {layer: round(t / sum(row.values()), 3) for layer, t in row.items()}
            for group, row in sorted(by_group.items())}
