"""Simple-cycle (circuit) enumeration and vertex-disjoint pair listing.

A circuit is a closed walk with no repeated vertex; a loop edge counts as
a circuit of length 1 and a pair of parallel edges as one of length 2.
Enumeration backtracks over paths anchored at each cycle's minimum vertex,
which visits every circuit exactly twice (once per direction); keeping the
direction whose first edge id is smaller makes the output duplicate-free
without any hashing.  The backtracking keeps an explicit stack of
neighbour iterators, so path length is not limited by Python's recursion
depth.  ``max_length`` stops it from extending a path that already has that
many vertices; the closing edges of such a path are still tried.

Enumeration work is bounded as well as its output: the backtracking may
extend a path at most ``EXTENSIONS_PER_CIRCUIT * cap`` times.  On complete
graphs it takes about two extensions per circuit, but on sparse graphs
most paths never close (36 extensions per circuit on grid5x5), and on
grid6x6 counting circuits alone would run for minutes before reaching the
cap.

Only a circuit c with |c| <= n - g can have a vertex-disjoint partner,
where g is the fewest vertices any circuit can have (1 with a loop, 2 with
parallel edges, 3 otherwise): the partner lies on the other n - |c|
vertices.  Since the enumeration is sorted by length first, those short
circuits are a prefix of the full list, so the pair listing enumerates only
them and lists exactly the pairs it would find among all circuits.

Disjoint pairs are listed through vertex bitsets: bit i of ``holds[v]`` is
set when circuit i passes through v, so the circuits disjoint from c_i are
``all & ~OR(holds[v] for v in c_i)``.  Listing costs one big-integer OR per
circuit vertex plus one step per pair found, instead of a set test for
each of the C(C-1)/2 circuit pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import MultiGraph

DEFAULT_CIRCUIT_CAP = 1_000_000
EXTENSIONS_PER_CIRCUIT = 2  # path extensions allowed per circuit of the cap


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

    @property
    def sort_key(self) -> tuple:
        return (len(self.edge_ids), self.vertex_seq, self.edge_ids)

    def __repr__(self) -> str:
        return f"Circuit{self.vertex_seq}"


def enumerate_circuits(
    g: MultiGraph, cap: int = DEFAULT_CIRCUIT_CAP, max_length: int | None = None
) -> list[Circuit]:
    """Every simple cycle of ``g`` with at most ``max_length`` vertices (no
    bound if None) exactly once, sorted by (length, vertex_seq, edge_ids).

    Raises CircuitCapExceeded once more than ``cap`` circuits are found,
    or once the backtracking has extended a path more than
    ``EXTENSIONS_PER_CIRCUIT * cap`` times.
    """
    limit = g.n if max_length is None else max_length
    out: list[Circuit] = []
    max_extensions = EXTENSIONS_PER_CIRCUIT * cap
    extensions = 0

    def emit(vs: tuple[int, ...], es: tuple[int, ...]) -> None:
        out.append(Circuit(vs, es))
        if len(out) > cap:
            raise CircuitCapExceeded(
                f"more than {cap} circuits; graph too large for this analysis")

    for e in g.edges:
        if e.is_loop and limit >= 1:
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
                elif w > start and w not in on_path and len(path_v) < limit:
                    extensions += 1
                    if extensions > max_extensions:
                        raise CircuitCapExceeded(
                            f"more than {max_extensions} path extensions while "
                            "enumerating circuits; graph too large for this analysis")
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


def _min_circuit_length(g: MultiGraph) -> int:
    """A lower bound on the vertex count of every circuit of ``g``."""
    if any(e.is_loop for e in g.edges):
        return 1
    return 3 if g.is_simple else 2


def disjoint_circuit_pairs(
    g: MultiGraph, cap: int = DEFAULT_CIRCUIT_CAP
) -> list[tuple[Circuit, Circuit]]:
    """All unordered pairs of vertex-disjoint circuits, each listed once.

    Pairs come in enumeration order: (c_i, c_j) with i < j, sorted by i
    and then j.  Only circuits with at most n - g vertices are enumerated
    (see the module docstring), and ``cap`` bounds both their number and
    the number of pairs.
    """
    circuits = enumerate_circuits(g, cap=cap, max_length=g.n - _min_circuit_length(g))
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
