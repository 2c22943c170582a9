"""Delta-Y transformations and the Petersen family.

A Delta-Y move removes the three edges of a triangle and joins its
vertices to one new vertex; it preserves the edge count and adds a vertex.
Closing {K6, K3,3,1} under Delta-Y moves yields seven isomorphism classes,
the Petersen family, which this module generates by breadth-first search
deduplicated on canonical forms.
"""

from __future__ import annotations

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

    @property
    def is_triangle_free(self) -> bool:
        return not triangles(self.graph)


@dataclass(frozen=True)
class PetersenFamily:
    members: tuple[FamilyMember, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def canonical_keys(self) -> frozenset[bytes]:
        return frozenset(m.canonical for m in self.members)

    def member_named(self, name: str) -> FamilyMember:
        for m in self.members:
            if m.name == name:
                return m
        raise KeyError(name)


def petersen_closure(seeds: list[MultiGraph]) -> PetersenFamily:
    """Breadth-first Delta-Y closure of the seeds, one member per iso class.

    Seeds reached later in the search never replace an earlier-found
    representative, so derivations record a shortest move sequence.
    """
    members: list[FamilyMember] = []
    seen: set[bytes] = set()
    queue: list[tuple[MultiGraph, tuple[str, ...]]] = []

    for i, seed in enumerate(seeds):
        label = seed.name or f"seed{i}"
        key = canonical_form(seed)
        if key in seen:
            continue
        seen.add(key)
        queue.append((seed, (label,)))
        members.append(FamilyMember(label, seed, key, (label,)))

    head = 0
    while head < len(queue):
        g, derivation = queue[head]
        head += 1
        for tri in triangles(g):
            child = delta_y(g, tri)
            key = canonical_form(child)
            if key in seen:
                continue
            if len(seen) >= DEFAULT_CLOSURE_BOUND:
                raise ClosureSizeExceeded(
                    f"Delta-Y closure exceeded {DEFAULT_CLOSURE_BOUND} isomorphism classes")
            seen.add(key)
            step = derivation + (f"dY({tri[0]},{tri[1]},{tri[2]})",)
            queue.append((child, step))
            members.append(FamilyMember("", child, key, step))

    members.sort(key=lambda m: (m.graph.n, m.canonical))
    return PetersenFamily(tuple(_assign_names(members)))


def _assign_names(members: list[FamilyMember]) -> list[FamilyMember]:
    specials = {
        canonical_form(complete_graph(6)): "K6",
        canonical_form(k331_graph()): "K3,3,1",
        canonical_form(petersen_graph()): "petersen",
    }
    generated_by_n: dict[int, int] = {}
    for m in members:
        if m.canonical not in specials:
            generated_by_n[m.graph.n] = generated_by_n.get(m.graph.n, 0) + 1
    counters: dict[int, int] = {}
    named = []
    for m in members:
        name = specials.get(m.canonical)
        if name is None:
            idx = counters.get(m.graph.n, 0)
            counters[m.graph.n] = idx + 1
            suffix = chr(ord("a") + idx) if generated_by_n[m.graph.n] > 1 else ""
            name = f"P{m.graph.n}{suffix}"
        named.append(FamilyMember(name, m.graph, m.canonical, m.derivation))
    return named


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
def petersen_family() -> PetersenFamily:
    """The seven-member Delta-Y closure of {K6, K3,3,1}, cached and verified."""
    family = petersen_closure([complete_graph(6), k331_graph()])
    if len(family) != 7:
        raise AssertionError(f"Petersen family closure found {len(family)} classes")
    got = sorted(m.canonical.hex() for m in family.members)
    if got != sorted(EXPECTED_FAMILY_KEYS):
        raise AssertionError("Petersen family keys changed; canonical form drifted")
    return family


def family_closed_under_delta_y(family: PetersenFamily) -> bool:
    """Check that every Delta-Y move on every member lands on a member."""
    keys = family.canonical_keys
    for member in family:
        for tri in triangles(member.graph):
            if canonical_form(delta_y(member.graph, tri)) not in keys:
                return False
    return True
