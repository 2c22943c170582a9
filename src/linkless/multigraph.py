"""Finite multigraphs and elementary graph surgery.

Vertices are arbitrary integers.  Edges carry an integer id so that loops
and parallel edges stay distinguishable through deletions and
contractions.  Graph values are immutable; every operation returns a new
graph, so they are safe to share between threads and to use as dict keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple


class GraphError(ValueError):
    """Malformed graph construction or an unknown vertex/edge."""


class GraphParseError(GraphError):
    """A graph document or builtin name could not be parsed."""


# Largest n + m that an edge-list document or a builtin family (complete,
# complete bipartite, grid) may ask for.  Their sizes come from outside the
# program, and a few bytes ("1000000000 0", "K100000") would otherwise ask
# for billions of vertices or edges.
MAX_GRAPH_SIZE = 10**6


def _check_size(n: int, m: int, what: str) -> None:
    if n + m > MAX_GRAPH_SIZE:
        raise GraphParseError(
            f"{what} would have {n} vertices and {m} edges; "
            f"n + m may be at most {MAX_GRAPH_SIZE}")


class Edge(NamedTuple):
    id: int
    u: int
    v: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise GraphError(f"vertex {w} is not an endpoint of edge {self.id}")

    def pair(self) -> tuple[int, int]:
        """Endpoints as an unordered (sorted) pair."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


@dataclass(frozen=True)
class MultiGraph:
    vertices: frozenset[int]
    edges: tuple[Edge, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))
        for v in self.vertices:
            if not isinstance(v, int):
                raise GraphError(f"vertex ids must be integers, got {v!r}")
        seen: set[int] = set()
        for e in self.edges:
            if not isinstance(e.id, int):
                raise GraphError(f"edge ids must be integers, got {e.id!r}")
            if e.id in seen:
                raise GraphError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            if e.u not in self.vertices or e.v not in self.vertices:
                raise GraphError(f"edge {e.id} endpoint not in vertex set")

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _incident(self) -> dict[int, tuple[Edge, ...]]:
        inc: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.u].append(e)
            if e.v != e.u:
                inc[e.v].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in inc.items()}

    @cached_property
    def isolated_vertices(self) -> tuple[int, ...]:
        """The vertices with no edge, in increasing order."""
        return tuple(sorted(v for v, es in self._incident.items() if not es))

    def edge(self, eid: int) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid}") from None

    def incident(self, v: int) -> tuple[Edge, ...]:
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v}")
        return self._incident[v]

    def degree(self, v: int) -> int:
        """Vertex degree; a loop contributes 2."""
        return sum(2 if e.is_loop else 1 for e in self.incident(v))

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(e.other(v) for e in self.incident(v) if not e.is_loop)

    def edges_between(self, u: int, v: int) -> tuple[Edge, ...]:
        key = (u, v) if u <= v else (v, u)
        return tuple(e for e in self.edges if e.pair() == key)

    def has_edge(self, u: int, v: int) -> bool:
        return any(e.other(u) == v for e in self._incident.get(u, ()))

    @cached_property
    def is_simple(self) -> bool:
        pairs = set()
        for e in self.edges:
            if e.is_loop or e.pair() in pairs:
                return False
            pairs.add(e.pair())
        return True

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in self.vertices))

    # -- surgery ---------------------------------------------------------

    def delete_edge(self, eid: int) -> "MultiGraph":
        """Remove one edge; vertices are kept, including any left isolated."""
        self.edge(eid)
        return MultiGraph(self.vertices, tuple(e for e in self.edges if e.id != eid))

    def add_edge(self, u: int, v: int, eid: int | None = None) -> "MultiGraph":
        if u not in self.vertices or v not in self.vertices:
            raise GraphError(f"cannot add edge {u}-{v}: endpoint missing")
        if eid is None:
            eid = max((e.id for e in self.edges), default=-1) + 1
        return MultiGraph(self.vertices, self.edges + (Edge(eid, u, v),))

    def add_vertex(self, v: int) -> "MultiGraph":
        return MultiGraph(self.vertices | {v}, self.edges)

    def delete_vertex(self, v: int) -> "MultiGraph":
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v}")
        return MultiGraph(
            self.vertices - {v},
            tuple(e for e in self.edges if v not in (e.u, e.v)),
        )

    def contract_edge(self, eid: int, simplify: bool = True) -> "MultiGraph":
        """Merge the endpoints of a non-loop edge into the smaller vertex id.

        With ``simplify`` (the default, suited to minor testing) loops and
        parallel duplicates in the result are dropped; duplicates keep the
        edge with the smallest id.
        """
        e = self.edge(eid)
        if e.is_loop:
            raise GraphError(f"cannot contract loop edge {eid}")
        keep, gone = min(e.u, e.v), max(e.u, e.v)
        remapped = []
        for f in self.edges:
            if f.id == eid:
                continue
            u = keep if f.u == gone else f.u
            v = keep if f.v == gone else f.v
            remapped.append(Edge(f.id, u, v))
        g = MultiGraph(self.vertices - {gone}, tuple(remapped))
        return g.simplified() if simplify else g

    def simplified(self) -> "MultiGraph":
        """Drop loops and collapse parallel edges (keeping the smallest id)."""
        seen: set[tuple[int, int]] = set()
        kept = []
        for e in sorted(self.edges, key=lambda e: e.id):
            if e.is_loop or e.pair() in seen:
                continue
            seen.add(e.pair())
            kept.append(e)
        return MultiGraph(self.vertices, tuple(kept), name=self.name)

    def induced(self, keep: Iterable[int]) -> "MultiGraph":
        ks = frozenset(keep)
        if not ks <= self.vertices:
            raise GraphError("induced subgraph on unknown vertices")
        return MultiGraph(ks, tuple(e for e in self.edges if e.u in ks and e.v in ks))

    def relabeled(self, mapping: Mapping[int, int]) -> "MultiGraph":
        """Apply a vertex bijection; edge ids are preserved."""
        if set(mapping) != set(self.vertices):
            raise GraphError("relabeling must cover exactly the vertex set")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling must be injective")
        return MultiGraph(
            frozenset(mapping.values()),
            tuple(Edge(e.id, mapping[e.u], mapping[e.v]) for e in self.edges),
            name=self.name,
        )

    # -- connectivity ----------------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        comps = []
        left = set(self.vertices)
        while left:
            start = min(left)
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for e in self._incident[v]:
                    w = e.other(v)
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
            left -= comp
        return comps

    @property
    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<MultiGraph{tag} n={self.n} m={self.m}>"


def graph_from_pairs(
    pairs: Iterable[tuple[int, int]],
    vertices: Iterable[int] | None = None,
    name: str | None = None,
) -> MultiGraph:
    """Build a graph from endpoint pairs, assigning edge ids 0,1,... in order."""
    pair_list = list(pairs)
    vs = set(vertices) if vertices is not None else set()
    for u, v in pair_list:
        vs.add(u)
        vs.add(v)
    edges = tuple(Edge(i, u, v) for i, (u, v) in enumerate(pair_list))
    return MultiGraph(frozenset(vs), edges, name=name)


# -- builtin families ----------------------------------------------------


def complete_graph(n: int) -> MultiGraph:
    """K_n on vertices 1..n."""
    if n < 0:
        raise GraphParseError("complete graph needs n >= 0")
    _check_size(n, n * (n - 1) // 2, f"K{n}")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return graph_from_pairs(pairs, vertices=range(1, n + 1), name=f"K{n}")


def complete_bipartite(a: int, b: int) -> MultiGraph:
    """K_{a,b} with parts 1..a and a+1..a+b."""
    if a < 0 or b < 0:
        raise GraphParseError("complete bipartite graph needs a, b >= 0")
    _check_size(a + b, a * b, f"K{a},{b}")
    pairs = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return graph_from_pairs(pairs, vertices=range(1, a + b + 1), name=f"K{a},{b}")


def k331_graph() -> MultiGraph:
    """K_{3,3,1}: K_{3,3} on parts {1,2,3},{4,5,6} plus apex 7 joined to 1..6."""
    pairs = [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    pairs += [(i, 7) for i in range(1, 7)]
    return graph_from_pairs(pairs, name="K3,3,1")


def petersen_graph() -> MultiGraph:
    """Petersen graph: outer 5-cycle 1..5, inner pentagram 6..10, spokes i,i+5."""
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    return graph_from_pairs(outer + inner + spokes, name="petersen")


def grid_graph(rows: int, cols: int) -> MultiGraph:
    """Rows x cols planar grid, vertices numbered row-major from 1."""
    if rows < 1 or cols < 1:
        raise GraphParseError("grid needs positive dimensions")
    _check_size(rows * cols, rows * (cols - 1) + (rows - 1) * cols, f"grid{rows}x{cols}")

    def vid(r: int, c: int) -> int:
        return r * cols + c + 1

    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((vid(r, c), vid(r + 1, c)))
    return graph_from_pairs(pairs, vertices=range(1, rows * cols + 1),
                            name=f"grid{rows}x{cols}")


_K_RE = re.compile(r"^[Kk](\d+)$")
_KAB_RE = re.compile(r"^[Kk](\d+),(\d+)$")
_K331_RE = re.compile(r"^[Kk]3,3,1$")
_GRID_RE = re.compile(r"^grid(\d+)x(\d+)$", re.IGNORECASE)


def builtin_graph(name: str) -> MultiGraph:
    """Look up a builtin graph by name (K<n>, K<a>,<b>, K3,3,1, petersen, grid<r>x<c>)."""
    text = name.strip()
    if _K331_RE.match(text):
        return k331_graph()
    if m := _K_RE.match(text):
        return complete_graph(int(m.group(1)))
    if m := _KAB_RE.match(text):
        return complete_bipartite(int(m.group(1)), int(m.group(2)))
    if m := _GRID_RE.match(text):
        return grid_graph(int(m.group(1)), int(m.group(2)))
    if text.lower() == "petersen":
        return petersen_graph()
    raise GraphParseError(f"unknown builtin graph name {name!r}")


def parse_edge_list(text: str, name: str | None = None) -> MultiGraph:
    """Parse an edge-list document: first line "n m", then m lines "u v".

    Vertex ids are arbitrary integers.  If fewer than n distinct ids appear
    in the edge lines, the missing (isolated) vertices can only be inferred
    when all ids lie in 1..n; otherwise the document is rejected.  So is a
    header whose n + m exceeds MAX_GRAPH_SIZE, before the graph is built.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty graph document")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"malformed header line {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError(f"malformed header line {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError("vertex and edge counts must be nonnegative")
    if len(lines) - 1 != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"malformed edge line {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphParseError(f"malformed edge line {ln!r}") from None
    mentioned = {u for p in pairs for u in p}
    if len(mentioned) > n:
        raise GraphParseError(
            f"{len(mentioned)} distinct vertices in edges but header says {n}")
    if len(mentioned) < n and not all(1 <= u <= n for u in mentioned):
        raise GraphParseError(
            "cannot infer isolated vertex ids: ids are not all in 1..n")
    _check_size(n, m, "the graph document")
    vertices = mentioned if len(mentioned) == n else range(1, n + 1)
    return graph_from_pairs(pairs, vertices=vertices, name=name)


def parse_graph(text: str, name: str | None = None) -> MultiGraph:
    """Parse a builtin name or an edge-list document into a graph."""
    stripped = text.strip()
    if "\n" not in stripped and not re.match(r"^\d", stripped):
        return builtin_graph(stripped)
    return parse_edge_list(stripped, name=name)


def format_edge_list(g: MultiGraph) -> str:
    """Render a graph as an edge-list document (inverse of parse_edge_list)."""
    lines = [f"{g.n} {g.m}"]
    for e in sorted(g.edges, key=lambda e: e.id):
        lines.append(f"{e.u} {e.v}")
    return "\n".join(lines) + "\n"
