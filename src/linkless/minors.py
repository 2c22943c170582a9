"""Minor containment with certificates, and the intrinsic-linking classifier.

A graph H is a minor of G exactly when G carries disjoint connected
"branch sets", one per H-vertex, with a G-edge between the branch sets of
every H-edge.  The search assigns branch sets one H-vertex at a time over
bitmask-encoded vertex subsets, pruning by adjacency requirements,
boundary capacity, remaining-vertex counts, and component feasibility.
Search effort is metered in nodes; running out of budget raises instead of
masquerading as a definitive "no".

A graph is intrinsically linked exactly when it has a Petersen-family
minor.  The classifier works per connected component.  Before any search
it tries three routes to "unlinked": a size prefilter (fewer than 15
edges or 6 vertices), a planar host, and an apex host, one with a vertex
whose deletion leaves it planar, which has a linkless embedding (Sachs
1983).  The planar and apex routes return a ``PlanarCertificate`` on the
simplified host, and it is checked with ``planar_certificate_errors``
before the verdict is returned.  Otherwise it runs the seven member
searches in a fixed order and returns the first witness, a definitive
"unlinked", or "unknown" when some member search ran out of budget.
``LinkVerdict.decided_by`` names the route.

Every member has minimum degree >= 3 and at least 6 vertices, so the host
reduction is the same for all seven: the classifier simplifies the host
once per call and, unless it is planar, reduces it once for the apex
route and every member search.  Nothing is remembered between calls, so
a verdict and its node count depend only on the input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Mapping

from .moves import petersen_family
from .multigraph import GraphError, MultiGraph
from .planarity import PlanarCertificate, planar_certificate_errors, planar_rotation

DEFAULT_BUDGET = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """The minor search hit its node budget before reaching a verdict."""

    def __init__(self, nodes: int):
        super().__init__(f"minor search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class MinorModel:
    """Certificate that H is a minor of G.

    ``branch_sets`` maps each H-vertex to a connected set of G-vertices;
    ``edge_map`` maps each H-edge id to a witnessing G-edge id.
    """

    branch_sets: Mapping[int, frozenset[int]]
    edge_map: Mapping[int, int]

    def to_json_dict(self) -> dict:
        return {
            "branch_sets": {str(h): sorted(bs) for h, bs in sorted(self.branch_sets.items())},
            "edge_map": {str(he): ge for he, ge in sorted(self.edge_map.items())},
        }


def minor_model_errors(g: MultiGraph, h: MultiGraph, model: MinorModel) -> list[str]:
    """All reasons the model fails to witness H as a minor of G (empty if valid)."""
    errors: list[str] = []
    hs = h.simplified()
    branch = dict(model.branch_sets)

    if set(branch) != set(hs.vertices):
        errors.append("branch sets must cover exactly the H vertices")
        return errors
    taken: set[int] = set()
    for hv, bs in sorted(branch.items()):
        if not bs:
            errors.append(f"branch set of {hv} is empty")
            continue
        if not bs <= g.vertices:
            errors.append(f"branch set of {hv} uses vertices outside G")
            continue
        if bs & taken:
            errors.append(f"branch set of {hv} overlaps another branch set")
        taken |= bs
        if not _connected_in(g, bs):
            errors.append(f"branch set of {hv} does not induce a connected subgraph")

    where = {v: hv for hv, bs in branch.items() for v in bs}
    used_edges: set[int] = set()
    for he in hs.edges:
        ge_id = model.edge_map.get(he.id)
        if ge_id is None:
            errors.append(f"H edge {he.id} has no assigned G edge")
            continue
        if ge_id in used_edges:
            errors.append(f"G edge {ge_id} assigned to more than one H edge")
        used_edges.add(ge_id)
        try:
            ge = g.edge(ge_id)
        except GraphError:
            errors.append(f"assigned edge {ge_id} does not exist in G")
            continue
        ends = {where.get(ge.u), where.get(ge.v)}
        if ends != {he.u, he.v}:
            errors.append(
                f"edge {ge_id} joins branch sets {ends}, expected {{{he.u}, {he.v}}}")
    return errors


def verify_minor_model(g: MultiGraph, h: MultiGraph, model: MinorModel) -> bool:
    return not minor_model_errors(g, h, model)


def _connected_in(g: MultiGraph, vs: frozenset[int]) -> bool:
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in g.incident(v):
            w = e.other(v)
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


# -- reduction -------------------------------------------------------------


def _reduce_host(gs: MultiGraph, h_min_deg: int, h_n: int):
    """Shrink the host graph without changing whether H embeds as a minor.

    Safe moves, gated on H's minimum degree: isolated vertices go whenever
    H is connected with >= 2 vertices, degree-1 vertices go when every
    H-vertex needs >= 2 edges, and degree-2 vertices are absorbed into a
    neighbor when every H-vertex needs >= 3.  ``origin`` maps each
    surviving vertex to the original vertices it stands for.
    """
    work = gs
    origin: dict[int, frozenset[int]] = {v: frozenset({v}) for v in work.vertices}
    changed = True
    while changed:
        changed = False
        if h_n >= 2:
            isolated = [v for v in work.vertices if work.degree(v) == 0]
            if isolated:
                for v in isolated:
                    work = work.delete_vertex(v)
                    del origin[v]
                changed = True
                continue
        if h_min_deg >= 2:
            leaf = next((v for v in sorted(work.vertices) if work.degree(v) == 1), None)
            if leaf is not None:
                work = work.delete_vertex(leaf)
                del origin[leaf]
                changed = True
                continue
        if h_min_deg >= 3:
            mid = next((v for v in sorted(work.vertices) if work.degree(v) == 2), None)
            if mid is not None:
                e = work.incident(mid)[0]
                keep, gone = min(e.u, e.v), max(e.u, e.v)
                merged = origin[keep] | origin[gone]
                work = work.contract_edge(e.id, simplify=True)
                del origin[gone]
                origin[keep] = merged
                changed = True
    return work, origin


# -- branch-set search -------------------------------------------------------


class _Budget:
    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int):
        self.limit = limit
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise SearchBudgetExceeded(self.nodes)


def _h_assignment_order(h: MultiGraph) -> list[int]:
    # max degree first, then greedily keep the prefix connected so that
    # every later vertex arrives with at least one adjacency constraint
    verts = sorted(h.vertices, key=lambda v: (-h.degree(v), v))
    order = [verts[0]]
    rest = set(verts[1:])
    while rest:
        chosen = max(
            rest,
            key=lambda v: (len(h.neighbors(v) & set(order)), h.degree(v), -v),
        )
        order.append(chosen)
        rest.discard(chosen)
    return order


def _search_branch_sets(work: MultiGraph, hs: MultiGraph, budget: _Budget):
    """Find branch sets for hs inside work, or None after exhaustive search."""
    verts = sorted(work.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for e in work.edges:
        if not e.is_loop:
            nbr[index[e.u]] |= 1 << index[e.v]
            nbr[index[e.v]] |= 1 << index[e.u]

    order = _h_assignment_order(hs)
    k = len(order)
    pos = {hv: i for i, hv in enumerate(order)}
    h_nbrs = [
        [pos[w] for w in sorted(hs.neighbors(hv))]
        for hv in order
    ]
    required = [[j for j in h_nbrs[i] if j < i] for i in range(k)]
    future_deg = [sum(1 for j in h_nbrs[i] if j > i) for i in range(k)]
    # demand_after[j][level]: how many H-neighbors of order[j] are still
    # unassigned once levels 0..level-1 are placed
    demand_after = [
        [sum(1 for i in h_nbrs[j] if i >= level) for level in range(k + 1)]
        for j in range(k)
    ]
    edge_masks = [
        (1 << index[e.u]) | (1 << index[e.v])
        for e in work.edges if not e.is_loop
    ]
    # H-edges still missing a witness once levels 0..level-1 are placed;
    # each needs a distinct G-edge with an endpoint in the free region
    unrealized_after = [
        sum(1 for i in range(k) for j in h_nbrs[i]
            if i < j and (i >= level or j >= level))
        for level in range(k + 1)
    ]

    full = (1 << n) - 1
    branch: list[int] = [0] * k
    branch_nbr: list[int] = [0] * k

    def neighbors_of(mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= nbr[low.bit_length() - 1]
            m ^= low
        return out & ~mask

    def components(mask: int) -> list[int]:
        comps = []
        left = mask
        while left:
            seed = left & -left
            comp = seed
            frontier = seed
            while frontier:
                grown = neighbors_of(comp) & mask & ~comp
                comp |= grown
                frontier = grown
            comps.append(comp)
            left &= ~comp
        return comps

    def feasible(avail: int, level: int) -> bool:
        # each placed branch set must keep one free attachment vertex per
        # still-unplaced H-neighbor (future branch sets are disjoint, so
        # they attach at distinct vertices)
        for j in range(level):
            need = demand_after[j][level]
            if need and (branch_nbr[j] & avail).bit_count() < need:
                return False
        needed_edges = unrealized_after[level]
        if needed_edges:
            touching = sum(1 for em in edge_masks if em & avail)
            if touching < needed_edges:
                return False
        comps = None
        for i in range(level, k):
            req = [j for j in required[i] if j < level]
            if not req:
                continue
            if comps is None:
                comps = components(avail)
            if not any(
                all(comp & branch_nbr[j] for j in req) for comp in comps
            ):
                return False
        return True

    def candidates(avail: int, level: int) -> Iterator[int]:
        req_masks = [branch_nbr[j] & avail for j in required[level]]
        if any(rm == 0 for rm in req_masks):
            return
        max_size = avail.bit_count() - (k - level - 1)
        if max_size < 1:
            return
        need_boundary = future_deg[level]

        def ok(subset: int) -> bool:
            for rm in req_masks:
                if not subset & rm:
                    return False
            if need_boundary:
                if (neighbors_of(subset) & avail & ~subset).bit_count() < need_boundary:
                    return False
            return True

        def grow(subset: int, frontier: int, banned: int) -> Iterator[int]:
            budget.spend()
            if ok(subset):
                yield subset
            if subset.bit_count() >= max_size:
                return
            local = banned
            f = frontier
            while f:
                low = f & -f
                f ^= low
                if low & local:
                    continue
                sub2 = subset | low
                frontier2 = (frontier | nbr[low.bit_length() - 1]) & avail & ~sub2 & ~local
                yield from grow(sub2, frontier2, local)
                local |= low

        seeds = avail
        banned_seeds = 0
        while seeds:
            seed = seeds & -seeds
            seeds ^= seed
            yield from grow(seed, nbr[seed.bit_length() - 1] & avail & ~banned_seeds & ~seed,
                            banned_seeds)
            banned_seeds |= seed

    def assign(level: int, avail: int):
        if level == k:
            return list(branch)
        for subset in candidates(avail, level):
            branch[level] = subset
            branch_nbr[level] = neighbors_of(subset)
            rest = avail & ~subset
            if feasible(rest, level + 1):
                found = assign(level + 1, rest)
                if found is not None:
                    return found
        return None

    masks = assign(0, full)
    if masks is None:
        return None
    sets = {}
    for i, hv in enumerate(order):
        sets[hv] = frozenset(verts[b] for b in _bits(masks[i]))
    return sets


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search_reduced(g: MultiGraph, work: MultiGraph, origin: Mapping[int, frozenset[int]],
                    hs: MultiGraph, budget_limit: int):
    """Search the reduced host for the simple target hs.

    ``work`` and ``origin`` are ``_reduce_host``'s output for the host g;
    a found model is lifted back to g and checked there.  Returns
    (model or None, nodes spent).  Raises SearchBudgetExceeded.
    """
    if hs.n > work.n or hs.m > work.m:
        return None, 0

    budget = _Budget(budget_limit)
    sets = _search_branch_sets(work, hs, budget)
    if sets is None:
        return None, budget.nodes

    lifted = {hv: frozenset().union(*(origin[w] for w in ws)) for hv, ws in sets.items()}
    edge_map = {}
    for he in hs.edges:
        a, b = lifted[he.u], lifted[he.v]
        witness = min(
            (e.id for e in g.edges
             if not e.is_loop and ((e.u in a and e.v in b) or (e.u in b and e.v in a))),
        )
        edge_map[he.id] = witness
    model = MinorModel(lifted, edge_map)
    problems = minor_model_errors(g, hs, model)
    if problems:
        raise AssertionError(f"search produced an invalid minor model: {problems}")
    return model, budget.nodes


def _has_minor_impl(g: MultiGraph, h: MultiGraph, budget_limit: int):
    """Returns (model or None, nodes spent).  Raises SearchBudgetExceeded."""
    gs = g.simplified()
    hs = h.simplified()
    if not hs.is_connected:
        raise GraphError("minor target must be connected")

    if hs.n == 0:
        return MinorModel({}, {}), 0
    if hs.n > gs.n or hs.m > gs.m:
        return None, 0
    if hs.n == 1:
        v = min(gs.vertices)
        return MinorModel({min(hs.vertices): frozenset({v})}, {}), 0

    h_min_deg = min(hs.degree(v) for v in hs.vertices)
    work, origin = _reduce_host(gs, h_min_deg, hs.n)
    return _search_reduced(g, work, origin, hs, budget_limit)


def has_minor(g: MultiGraph, h: MultiGraph, budget: int = DEFAULT_BUDGET):
    """A valid MinorModel if H is a minor of G, else None (exhaustive).

    Raises SearchBudgetExceeded when the node budget runs out first, which
    is a different outcome from a definitive None.
    """
    model, _ = _has_minor_impl(g, h, budget)
    return model


# -- the classifier ----------------------------------------------------------


@dataclass(frozen=True)
class LinkVerdict:
    verdict: str  # "linked" | "unlinked" | "unknown"
    witness_member: str | None
    witness_model: MinorModel | None
    nodes: int
    elapsed: float
    per_member: Mapping[str, str]
    decided_by: str  # "prefilter" | "planar" | "apex" | "search" | "components"
    certificate: PlanarCertificate | None = None  # set by the planar and apex routes

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness_model is not None:
            witness = {"member": self.witness_member}
            witness.update(self.witness_model.to_json_dict())
        return {
            "verdict": self.verdict,
            "witness": witness,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "stats": {"nodes": self.nodes, "per_member": dict(self.per_member),
                      "decided_by": self.decided_by},
        }


def _apex_certificate(gs: MultiGraph, work: MultiGraph,
                      origin: Mapping[int, frozenset[int]]) -> PlanarCertificate | None:
    """An apex certificate for the simple, non-planar host gs, or None.

    Apex candidates are screened and tested on the reduced host ``work``
    (with ``origin`` from ``_reduce_host``), where degree-1 and degree-2
    vertices no longer loosen the edge bound.
    """
    n, m = work.n, work.m
    for v in sorted(work.vertices, key=lambda v: (-work.degree(v), v)):
        # a planar graph on n - 1 >= 3 vertices has at most 3(n - 1) - 6 edges
        if m - work.degree(v) > 3 * (n - 1) - 6 or planar_rotation(work.delete_vertex(v)) is None:
            continue
        # Undoing one reduction step keeps an apex among the preimages of an
        # apex u: a deleted leaf or isolated vertex returns as a pendant or
        # isolated one, a suppressed degree-2 vertex away from u returns
        # inside an edge, and when u absorbed a degree-2 vertex, deleting
        # the endpoint of that edge that is not the degree-2 vertex leaves
        # it pendant.  So some vertex of gs that v stands for is an apex.
        for x in sorted(origin[v], key=lambda x: (-gs.degree(x), x)):
            rotation = planar_rotation(gs.delete_vertex(x))
            if rotation is not None:
                return PlanarCertificate(x, rotation)
        raise AssertionError(f"reduced host minus {v} is planar, but no host vertex it "
                             "stands for is an apex")
    return None


def _certified(g: MultiGraph, certificate: PlanarCertificate, start: float) -> LinkVerdict:
    """The "unlinked" verdict of a planar or apex certificate, checked against g."""
    route = "planar" if certificate.apex is None else "apex"
    problems = planar_certificate_errors(g, certificate)
    if problems:
        raise AssertionError(f"{route} route produced an invalid certificate: {problems}")
    return LinkVerdict("unlinked", None, None, 0, time.perf_counter() - start,
                       {}, route, certificate)


def is_intrinsically_linked(
    g: MultiGraph,
    budget: int = DEFAULT_BUDGET,
    prefilter: bool = True,
) -> LinkVerdict:
    """Decide intrinsic linkedness by certificates, then Petersen-family minor search.

    "linked" comes with a verified witness; "unlinked" comes from the size
    prefilter, a verified planar or apex certificate, or member searches
    that all completed with no minor found; "unknown" is reported when
    some search ran out of budget, never silently.  ``prefilter=False``
    skips the prefilter and the certificates and runs every search.
    """
    start = time.perf_counter()
    components = g.connected_components()
    if len(components) > 1:
        total_nodes = 0
        merged: dict[str, str] = {}
        outcome = "unlinked"
        for comp in components:
            sub = is_intrinsically_linked(g.induced(comp), budget=budget,
                                          prefilter=prefilter)
            total_nodes += sub.nodes
            for name, res in sub.per_member.items():
                if merged.get(name) != "found":
                    merged[name] = res
            if sub.verdict == "linked":
                return LinkVerdict("linked", sub.witness_member, sub.witness_model,
                                   total_nodes, time.perf_counter() - start, merged,
                                   "components")
            if sub.verdict == "unknown":
                outcome = "unknown"
        return LinkVerdict(outcome, None, None, total_nodes,
                           time.perf_counter() - start, merged, "components")

    gs = g.simplified()
    if prefilter and (gs.m < 15 or gs.n < 6):
        return LinkVerdict("unlinked", None, None, 0, time.perf_counter() - start,
                           {"prefilter": "below-threshold"}, "prefilter")

    if prefilter:
        rotation = planar_rotation(gs)
        if rotation is not None:
            return _certified(g, PlanarCertificate(None, rotation), start)

    # Every member has minimum degree >= 3 and >= 6 vertices, so one
    # reduction of the host serves the apex route and all seven searches.
    family = petersen_family()
    work, origin = _reduce_host(
        gs,
        min(min(m.graph.degree(v) for v in m.graph.vertices) for m in family),
        min(m.graph.n for m in family),
    )
    if prefilter:
        certificate = _apex_certificate(gs, work, origin)
        if certificate is not None:
            return _certified(g, certificate, start)

    nodes = 0
    per_member: dict[str, str] = {}
    exhausted = False
    for member in family:
        try:
            model, spent = _search_reduced(g, work, origin, member.graph.simplified(), budget)
        except SearchBudgetExceeded as exc:
            nodes += exc.nodes
            per_member[member.name] = "budget-exhausted"
            exhausted = True
            continue
        nodes += spent
        if model is not None:
            per_member[member.name] = "found"
            return LinkVerdict("linked", member.name, model, nodes,
                               time.perf_counter() - start, per_member, "search")
        per_member[member.name] = "none"
    verdict = "unknown" if exhausted else "unlinked"
    return LinkVerdict(verdict, None, None, nodes,
                       time.perf_counter() - start, per_member, "search")


@dataclass(frozen=True)
class ChildVerdict:
    operation: str  # "delete" | "contract"
    edge_id: int
    endpoints: tuple[int, int]
    verdict: str


@dataclass(frozen=True)
class MinimalityReport:
    graph_name: str
    children: tuple[ChildVerdict, ...]
    minor_minimal: bool | None  # None when some child is unknown

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "minor_minimal": self.minor_minimal,
            "children": [
                {"operation": c.operation, "edge": c.edge_id,
                 "endpoints": list(c.endpoints), "verdict": c.verdict}
                for c in self.children
            ],
        }


def minor_minimality_report(g: MultiGraph, budget: int = DEFAULT_BUDGET) -> MinimalityReport:
    """Classify every single-edge deletion and contraction of a linked graph."""
    base = is_intrinsically_linked(g, budget=budget)
    if base.verdict != "linked":
        raise GraphError("minimality report requires an intrinsically linked graph")
    children: list[ChildVerdict] = []
    any_linked = False
    any_unknown = False
    for e in sorted(g.edges, key=lambda e: e.id):
        verdict = is_intrinsically_linked(g.delete_edge(e.id), budget=budget).verdict
        children.append(ChildVerdict("delete", e.id, (e.u, e.v), verdict))
        any_linked |= verdict == "linked"
        any_unknown |= verdict == "unknown"
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.is_loop:
            continue
        verdict = is_intrinsically_linked(
            g.contract_edge(e.id, simplify=True), budget=budget).verdict
        children.append(ChildVerdict("contract", e.id, (e.u, e.v), verdict))
        any_linked |= verdict == "linked"
        any_unknown |= verdict == "unknown"
    minimal: bool | None
    if any_linked:
        minimal = False
    elif any_unknown:
        minimal = None
    else:
        minimal = True
    return MinimalityReport(g.name or repr(g), tuple(children), minimal)
