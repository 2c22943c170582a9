"""Delta-Y transformations and the Petersen family.

A Delta-Y move removes the three edges of a triangle and joins its
vertices to one new vertex; it preserves the edge count and adds a vertex.
Closing {K6, K3,3,1} under Delta-Y moves yields seven isomorphism classes,
the Petersen family.  The family is pinned data: one table gives each
member's canonical key, name and derivation, the seed's name followed by
the Delta-Y moves that reach the member.  A load replays the table, one
seed or one move per member, and keys each member to check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .canonical import canonical_form
from .multigraph import Edge, GraphError, MultiGraph, complete_graph, k331_graph


def triangles(g: MultiGraph) -> list[tuple[int, int, int]]:
    """Vertex triples spanning a triangle, in lexicographic order."""
    def above(v):
        return sorted(w for w in g.neighbors(v) if w > v)

    return [(a, b, c) for a in sorted(g.vertices) for b in above(a)
            for c in above(b) if c in g.neighbors(a)]


def delta_y(g: MultiGraph, triangle: tuple[int, int, int]) -> MultiGraph:
    """Replace a triangle by a new degree-3 vertex joined to its corners.

    The new vertex id w is max(existing) + 1.  Between each pair of
    triangle corners, the connecting edge with the smallest id is the one
    removed.  The edges w-a, w-b, w-c (a < b < c) follow the kept edges
    with ids max(kept ids) + 1, + 2, + 3.
    """
    a, b, c = sorted(triangle)
    if len({a, b, c}) != 3:
        raise GraphError("triangle vertices must be distinct")
    removed = set()
    for u, v in ((a, b), (a, c), (b, c)):
        edges = g.edges_between(u, v)
        if not edges:
            raise GraphError(f"{triangle} is not a triangle: no edge {u}-{v}")
        removed.add(edges[0].id)
    kept = tuple(e for e in g.edges if e.id not in removed)
    w = max(g.vertices) + 1
    top = kept[-1].id if kept else -1
    return MultiGraph(g.vertices | {w},
                      kept + tuple(Edge(top + i, w, x) for i, x in enumerate((a, b, c), 1)))


# The Petersen family in family order (vertex count, then key): canonical
# key, name and derivation.  Each derivation extends an earlier member's
# by one move, so a load makes one move per member that is not a seed.
_FAMILY: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("06fffe", "K6", ("K6",)),
    ("07e0eff8", "P7", ("K6", "dY(1,2,3)")),
    ("07e4efd8", "K3,3,1", ("K3,3,1",)),
    ("087039df80", "P8a", ("K6", "dY(1,2,3)", "dY(4,5,6)")),
    ("08c2c19fb0", "P8b", ("K3,3,1", "dY(1,4,7)")),
    ("09c4448a6a70", "P9", ("K3,3,1", "dY(1,4,7)", "dY(2,5,7)")),
    ("0ae0180c0d4a60", "petersen", ("K3,3,1", "dY(1,4,7)", "dY(2,5,7)", "dY(3,6,7)")),
)


@dataclass(frozen=True)
class FamilyMember:
    name: str
    graph: MultiGraph
    canonical: bytes
    derivation: tuple[str, ...]  # seed name followed by dY(a,b,c) steps


@lru_cache(maxsize=1)
def petersen_family() -> tuple[FamilyMember, ...]:
    """The seven members of the Delta-Y closure of {K6, K3,3,1}, cached.

    Each member is built from the seed or the member whose derivation its
    own extends, and its key is checked against the pinned one.
    """
    built = {("K6",): complete_graph(6), ("K3,3,1",): k331_graph()}
    family = []
    for key, name, derivation in _FAMILY:
        if derivation not in built:
            corners = tuple(int(x) for x in derivation[-1][3:-1].split(","))
            built[derivation] = delta_y(built[derivation[:-1]], corners)
        g = built[derivation]
        if canonical_form(g).hex() != key:
            raise AssertionError(f"Petersen family member {name} changed key; "
                                 "canonical form or Delta-Y move drifted")
        family.append(FamilyMember(name, g, bytes.fromhex(key), derivation))
    return tuple(family)


def family_closed_under_delta_y(family: tuple[FamilyMember, ...]) -> bool:
    """Check that every Delta-Y move on every member lands on a member."""
    keys = {m.canonical for m in family}
    for member in family:
        for tri in triangles(member.graph):
            if canonical_form(delta_y(member.graph, tri)) not in keys:
                return False
    return True
