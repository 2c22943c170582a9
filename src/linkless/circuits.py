"""Simple-cycle (circuit) enumeration and vertex-disjoint pair listing.

A circuit is a closed walk with no repeated vertex; a loop edge counts as
a circuit of length 1 and a pair of parallel edges as one of length 2.
Enumeration backtracks over paths anchored at each cycle's minimum vertex,
which visits every circuit exactly twice (once per direction); keeping the
direction whose first edge id is smaller makes the output duplicate-free
without any hashing.  The backtracking keeps an explicit stack of
neighbour iterators, so path length is not limited by Python's recursion
depth.

Disjoint pairs are listed through vertex bitsets: bit i of ``holds[v]`` is
set when circuit i passes through v, so the circuits disjoint from c_i are
``all & ~OR(holds[v] for v in c_i)``.  Listing costs one big-integer OR per
circuit vertex plus one step per pair found, instead of a set test for
each of the C(C-1)/2 circuit pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .multigraph import GraphError, MultiGraph

DEFAULT_CIRCUIT_CAP = 1_000_000


class CircuitCapExceeded(RuntimeError):
    """Too many circuits (or circuit pairs) for downstream invariants."""


@dataclass(frozen=True)
class Circuit:
    """A simple cycle, normalized up to rotation and reflection.

    ``vertex_seq[i]`` is where ``edge_ids[i]`` starts; the edge ends at
    ``vertex_seq[(i + 1) % len]``.  The normal form starts at the minimum
    vertex and runs in the direction whose first edge id is smaller than
    its last, so equal cycles compare equal.
    """

    vertex_seq: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @classmethod
    def from_walk(
        cls,
        vertex_seq: tuple[int, ...] | list[int],
        edge_ids: tuple[int, ...] | list[int],
        graph: MultiGraph | None = None,
    ) -> "Circuit":
        vs = tuple(vertex_seq)
        es = tuple(edge_ids)
        if len(vs) != len(es) or not vs:
            raise GraphError("circuit needs equal, nonzero vertex and edge counts")
        if len(set(vs)) != len(vs):
            raise GraphError("circuit repeats a vertex")
        if len(set(es)) != len(es):
            raise GraphError("circuit repeats an edge")
        if graph is not None:
            k = len(vs)
            for i, eid in enumerate(es):
                e = graph.edge(eid)
                a, b = vs[i], vs[(i + 1) % k]
                if {e.u, e.v} != ({a, b} if a != b else {a}):
                    raise GraphError(f"edge {eid} does not join {a} and {b}")
        return cls(*_normalize(vs, es))

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.vertex_seq)

    def __len__(self) -> int:
        return len(self.edge_ids)

    def is_disjoint_from(self, other: "Circuit") -> bool:
        return self.vertices.isdisjoint(other.vertices)

    @property
    def sort_key(self) -> tuple:
        return (len(self.edge_ids), self.vertex_seq, self.edge_ids)

    def __repr__(self) -> str:
        return f"Circuit{self.vertex_seq}"


def _normalize(vs: tuple[int, ...], es: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    k = len(vs)
    if k == 1:
        return vs, es
    i0 = vs.index(min(vs))
    fv = vs[i0:] + vs[:i0]
    fe = es[i0:] + es[:i0]
    if fe[0] <= fe[-1]:
        return fv, fe
    # reversed direction: same start, walk the other way
    rv = (fv[0],) + tuple(reversed(fv[1:]))
    re_ = tuple(reversed(fe))
    return rv, re_


def enumerate_circuits(g: MultiGraph, cap: int = DEFAULT_CIRCUIT_CAP) -> list[Circuit]:
    """Every simple cycle of ``g`` exactly once, sorted deterministically."""
    out: list[Circuit] = []

    def emit(vs: tuple[int, ...], es: tuple[int, ...]) -> None:
        out.append(Circuit(vs, es))
        if len(out) > cap:
            raise CircuitCapExceeded(
                f"more than {cap} circuits; graph too large for this analysis")

    for e in sorted(g.edges, key=lambda e: e.id):
        if e.is_loop:
            emit((e.u,), (e.id,))

    # (neighbour, edge id) in incidence order, loops removed
    adjacent = {
        v: [(e.other(v), e.id) for e in g.incident(v) if not e.is_loop]
        for v in g.vertices
    }
    for start in sorted(g.vertices):
        path_v = [start]
        path_e: list[int] = []
        on_path = {start}
        # one iterator per path vertex; the top one resumes where it left off
        stack = [iter(adjacent[start])]
        while stack:
            for w, eid in stack[-1]:
                if w == start:
                    if path_e and eid > path_e[0]:
                        emit(tuple(path_v), tuple(path_e) + (eid,))
                elif w > start and w not in on_path:
                    path_v.append(w)
                    path_e.append(eid)
                    on_path.add(w)
                    stack.append(iter(adjacent[w]))
                    break
            else:
                stack.pop()
                if path_e:
                    on_path.discard(path_v.pop())
                    path_e.pop()

    out.sort(key=lambda c: c.sort_key)
    return out


def disjoint_circuit_pairs(
    g: MultiGraph, cap: int = DEFAULT_CIRCUIT_CAP
) -> list[tuple[Circuit, Circuit]]:
    """All unordered pairs of vertex-disjoint circuits, each listed once.

    Pairs come in enumeration order: (c_i, c_j) with i < j, sorted by i
    and then j.
    """
    circuits = enumerate_circuits(g, cap=cap)
    holds = dict.fromkeys(g.vertices, 0)  # vertex -> bitset of circuits through it
    for i, c in enumerate(circuits):
        for v in c.vertex_seq:
            holds[v] |= 1 << i
    everything = (1 << len(circuits)) - 1
    pairs: list[tuple[Circuit, Circuit]] = []
    for i, c1 in enumerate(circuits):
        meets = 0
        for v in c1.vertex_seq:
            meets |= holds[v]
        later = (everything & ~meets) >> (i + 1) << (i + 1)  # disjoint, after c_i
        while later:
            lowest = later & -later
            pairs.append((c1, circuits[lowest.bit_length() - 1]))
            later ^= lowest
            if len(pairs) > cap:
                raise CircuitCapExceeded(
                    f"more than {cap} disjoint circuit pairs")
    return pairs
