"""Delta-Y transformations and the Petersen family.

A Delta-Y move removes the three edges of a triangle and joins its
vertices to one new vertex; it preserves the edge count and adds a vertex.
Closing {K6, K3,3,1} under Delta-Y moves yields seven isomorphism classes,
the Petersen family.  This module generates it by breadth-first search
over one map from canonical key to (graph, derivation, automorphisms),
builds each member once after the search, and returns the family as a
tuple.  Triangles that an automorphism of the parent maps onto each other
give isomorphic children, so each parent moves only the first triangle of
each orbit; a move builds one graph and keys it with one canonical
labeling.  One pinned table of the seven keys names the members and
verifies the family on every load.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .canonical import canonical_form, canonical_labeling
from .multigraph import Edge, GraphError, MultiGraph, complete_graph, k331_graph

DEFAULT_CLOSURE_BOUND = 64


class ClosureSizeExceeded(RuntimeError):
    """Delta-Y closure grew past the configured bound (wrong seeds?)."""


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


def y_delta(g: MultiGraph, v: int) -> MultiGraph:
    """Inverse move: remove a degree-3 vertex and triangulate its neighbors.

    Parallel edges that would arise when two neighbors are already
    adjacent are collapsed, keeping the result simple.
    """
    incident = g.incident(v)
    if any(e.is_loop for e in incident):
        raise GraphError(f"vertex {v} carries a loop")
    if len(incident) != 3:
        raise GraphError(f"vertex {v} has degree {len(incident)}, need exactly 3")
    nbrs = sorted(e.other(v) for e in incident)
    if len(set(nbrs)) != 3:
        raise GraphError(f"vertex {v} has a repeated neighbor")
    out = g.delete_vertex(v)
    for u, w in combinations(nbrs, 2):
        if not out.has_edge(u, w):
            out = out.add_edge(u, w)
    return out


# The Petersen family's canonical keys and names, in family order.  The
# closure names its members from this table, and `petersen_family` checks
# on every load that the closure reaches exactly these keys.
_FAMILY_NAMES: dict[bytes, str] = {
    bytes.fromhex("06fffe"): "K6",
    bytes.fromhex("07e0eff8"): "P7",
    bytes.fromhex("07e4efd8"): "K3,3,1",
    bytes.fromhex("087039df80"): "P8a",
    bytes.fromhex("08c2c19fb0"): "P8b",
    bytes.fromhex("09c4448a6a70"): "P9",
    bytes.fromhex("0ae0180c0d4a60"): "petersen",
}


@dataclass(frozen=True)
class FamilyMember:
    name: str
    graph: MultiGraph
    canonical: bytes
    derivation: tuple[str, ...]  # seed name followed by dY(a,b,c) steps


def petersen_closure(seeds: list[MultiGraph]) -> tuple[FamilyMember, ...]:
    """Breadth-first Delta-Y closure of the seeds, one member per iso class.

    The first seed or derivation to reach a class keeps it, so derivations
    record a shortest move sequence.  Members come sorted by (vertex count,
    key).  A member of the Petersen family takes its name from the pinned
    table.  Any other class is named P<n>, with a suffix a, b, ... when
    another class shares n; the family members of that n take the first
    letters, so no two classes share a name.

    A parent moves only the first triangle, in `triangles` order, of each
    orbit under the automorphisms its canonical labeling found.  A later
    triangle of an orbit gives a child isomorphic to the first one's, which
    the same parent moved just before, so its class is already kept and
    moving it would add nothing: the classes, their derivations and the
    closure bound's check are those of moving every triangle.
    """
    classes: dict[bytes, tuple[MultiGraph, tuple[str, ...], tuple[dict[int, int], ...]]] = {}
    for i, seed in enumerate(seeds):
        key, generators = canonical_labeling(seed)
        classes.setdefault(key, (seed, (seed.name or f"seed{i}",), generators))

    # the dict's insertion order is the queue: each pass walks the classes
    # the previous pass added
    level = list(classes.values())
    while level:
        size = len(classes)
        for g, derivation, generators in level:
            for tri in _orbit_firsts(g, generators):
                child = delta_y(g, tri)
                key, child_generators = canonical_labeling(child)
                if key in classes:
                    continue
                if len(classes) >= DEFAULT_CLOSURE_BOUND:
                    raise ClosureSizeExceeded(
                        f"Delta-Y closure exceeded {DEFAULT_CLOSURE_BOUND} isomorphism classes")
                classes[key] = (child, derivation + (f"dY({tri[0]},{tri[1]},{tri[2]})",),
                                child_generators)
        level = list(classes.values())[size:]

    ordered = sorted(classes.items(), key=lambda item: (item[1][0].n, item[0]))
    shared = Counter(g.n for g, _, _ in classes.values())
    named = Counter(g.n for key, (g, _, _) in classes.items() if key in _FAMILY_NAMES)
    members = []
    for key, (g, derivation, _) in ordered:
        name = _FAMILY_NAMES.get(key)
        if name is None:
            suffix = chr(ord("a") + named[g.n]) if shared[g.n] > 1 else ""
            named[g.n] += 1
            name = f"P{g.n}{suffix}"
        members.append(FamilyMember(name, g, key, derivation))
    return tuple(members)


def _orbit_firsts(g: MultiGraph,
                  generators: tuple[dict[int, int], ...]) -> list[tuple[int, int, int]]:
    """The first triangle, in `triangles` order, of each orbit under the generators.

    The generators are automorphisms of the simple reduction.  One of them
    need not keep the multiplicity of a triangle's sides, which decides
    what a move leaves, so a graph that is not simple moves every triangle.
    """
    tris = triangles(g)
    if not g.is_simple:
        return tris
    firsts, seen = [], set()
    for tri in tris:
        if tri in seen:
            continue
        firsts.append(tri)
        orbit = [tri]
        seen.add(tri)
        for t in orbit:
            for gamma in generators:
                image = tuple(sorted(gamma[v] for v in t))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return firsts


@lru_cache(maxsize=1)
def petersen_family() -> tuple[FamilyMember, ...]:
    """The seven-member Delta-Y closure of {K6, K3,3,1}, cached and verified."""
    family = petersen_closure([complete_graph(6), k331_graph()])
    if {m.canonical: m.name for m in family} != _FAMILY_NAMES:
        raise AssertionError("Petersen family keys changed; canonical form drifted")
    return family


def family_closed_under_delta_y(family: tuple[FamilyMember, ...]) -> bool:
    """Check that every Delta-Y move on every member lands on a member."""
    keys = {m.canonical for m in family}
    for member in family:
        for tri in triangles(member.graph):
            if canonical_form(delta_y(member.graph, tri)) not in keys:
                return False
    return True
