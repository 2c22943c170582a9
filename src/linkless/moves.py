"""Delta-Y transformations and the Petersen family.

A Delta-Y move removes the three edges of a triangle and joins its
vertices to one new vertex; it preserves the edge count and adds a vertex.
Closing {K6, K3,3,1} under Delta-Y moves yields seven isomorphism classes,
the Petersen family.  This module generates it by breadth-first search
over one map from canonical key to (graph, derivation), builds each
member once after the search, and returns the family as a tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .canonical import canonical_form
from .multigraph import GraphError, MultiGraph, complete_graph, k331_graph, petersen_graph

DEFAULT_CLOSURE_BOUND = 64


class ClosureSizeExceeded(RuntimeError):
    """Delta-Y closure grew past the configured bound (wrong seeds?)."""


def triangles(g: MultiGraph) -> list[tuple[int, int, int]]:
    """Vertex triples spanning a triangle, in lexicographic order."""
    out = []
    for a, b, c in combinations(sorted(g.vertices), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            out.append((a, b, c))
    return out


def delta_y(g: MultiGraph, triangle: tuple[int, int, int]) -> MultiGraph:
    """Replace a triangle by a new degree-3 vertex joined to its corners.

    The new vertex id is max(existing) + 1.  Between each pair of triangle
    corners, the connecting edge with the smallest id is the one removed.
    """
    a, b, c = sorted(triangle)
    if len({a, b, c}) != 3:
        raise GraphError("triangle vertices must be distinct")
    removed = []
    for u, v in ((a, b), (a, c), (b, c)):
        edges = g.edges_between(u, v)
        if not edges:
            raise GraphError(f"{triangle} is not a triangle: no edge {u}-{v}")
        removed.append(edges[0].id)
    w = max(g.vertices) + 1
    out = g
    for eid in removed:
        out = out.delete_edge(eid)
    out = out.add_vertex(w)
    for corner in (a, b, c):
        out = out.add_edge(w, corner)
    return out


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
    key) and are named K6, K3,3,1 and petersen by key, the rest P<n> with
    suffixes a, b, ... when several share n.
    """
    classes: dict[bytes, tuple[MultiGraph, tuple[str, ...]]] = {}
    for i, seed in enumerate(seeds):
        classes.setdefault(canonical_form(seed), (seed, (seed.name or f"seed{i}",)))

    # the dict's insertion order is the queue: each pass walks the classes
    # the previous pass added
    level = list(classes.values())
    while level:
        size = len(classes)
        for g, derivation in level:
            for tri in triangles(g):
                child = delta_y(g, tri)
                key = canonical_form(child)
                if key in classes:
                    continue
                if len(classes) >= DEFAULT_CLOSURE_BOUND:
                    raise ClosureSizeExceeded(
                        f"Delta-Y closure exceeded {DEFAULT_CLOSURE_BOUND} isomorphism classes")
                classes[key] = (child, derivation + (f"dY({tri[0]},{tri[1]},{tri[2]})",))
        level = list(classes.values())[size:]

    specials = {canonical_form(g): g.name for g in (complete_graph(6), k331_graph(), petersen_graph())}
    ordered = sorted(classes.items(), key=lambda item: (item[1][0].n, item[0]))
    plain = Counter(g.n for key, (g, _) in ordered if key not in specials)
    named = Counter()
    members = []
    for key, (g, derivation) in ordered:
        name = specials.get(key)
        if name is None:
            suffix = chr(ord("a") + named[g.n]) if plain[g.n] > 1 else ""
            named[g.n] += 1
            name = f"P{g.n}{suffix}"
        members.append(FamilyMember(name, g, key, derivation))
    return tuple(members)


# Canonical keys of the seven family members (hex), pinned so that the
# cached family can be verified on every load.
EXPECTED_FAMILY_KEYS: tuple[str, ...] = (
    "06fffe",          # K6
    "07e0eff8",        # P7
    "07e4efd8",        # K3,3,1
    "087039df80",      # P8a
    "08c2c19fb0",      # P8b
    "09c4448a6a70",    # P9
    "0ae0180c0d4a60",  # petersen
)


@lru_cache(maxsize=1)
def petersen_family() -> tuple[FamilyMember, ...]:
    """The seven-member Delta-Y closure of {K6, K3,3,1}, cached and verified."""
    family = petersen_closure([complete_graph(6), k331_graph()])
    if len(family) != 7:
        raise AssertionError(f"Petersen family closure found {len(family)} classes")
    got = sorted(m.canonical.hex() for m in family)
    if got != sorted(EXPECTED_FAMILY_KEYS):
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
