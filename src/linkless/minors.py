"""Minor containment with certificates, and the intrinsic-linking classifier.

A graph H is a minor of G exactly when G carries disjoint connected
"branch sets", one per H-vertex, with a G-edge between the branch sets of
every H-edge.  The search assigns branch sets one H-vertex at a time over
bitmask-encoded vertex subsets, pruning by adjacency requirements,
remaining-vertex counts, free neighbours of the placed branch sets
(demand) and host edges touching the free vertices (touching).
Search effort is metered in nodes, one per candidate subset visited;
running out of budget raises instead of masquerading as a definitive "no".
``has_minor`` answers "no" at zero nodes when H is not planar and G is,
since every minor of a planar graph is planar.

The cost of a node does not grow with the host.  Candidate subsets are
enumerated with an explicit stack, and each carries the union of its
vertices' neighbourhoods and the number of host edges touching the
vertices still free, both updated as one vertex joins.  Only the
assignment of branch sets recurses, once per H-vertex.

Three more rules cut only subtrees that hold no model, and the first
model of the search without them is a model they keep, so they change
node counts but never which model is found:

- Cycle rank.  Deleting or contracting an edge never raises
  m - n + c (edges, vertices, components).  A connected H with
  m_H - n_H + 1 above the host's is ruled out before any node is spent.
- Twin symmetry.  Two H-vertices whose neighbourhoods are equal apart
  from each other are twins, and swapping their branch sets maps models
  to models.  So each twin class is placed with its branch sets' lowest
  host vertices increasing: a later twin's subsets may not use a vertex
  at or below the lowest of the earlier twin's set.  The first model of
  the unpruned search obeys this, since a swapped model would have come
  first.  K6 is one class of 6; K3,3,1, P7 and P8a have two classes of
  3; P8b two of 2; P9 and the Petersen graph none.
- Edge slack.  In a model on the host w searched, call the host edges
  that are neither edges of a spanning tree of a branch set nor the one
  witness per H-edge wasted, and call the D host vertices in no branch
  set unused.  Counting edges, the wasted edges number
  (m_w - n_w) - (m_H - n_H) + D, the slack plus D.  Every edge at an
  unused vertex is wasted, and when w has minimum degree >= 2 there are
  at least D of them, so the wasted edges between and inside branch
  sets number at most the slack.  A candidate wastes its edges inside
  beyond a tree and its edges into placed branch sets beyond one per
  required neighbour.  That count never falls as the candidate grows:
  every added vertex brings one inside edge for the tree and one placed
  edge for each required neighbour it newly reaches.  The candidates of
  different levels waste disjoint edges.  The search subtracts one edge
  for every required neighbour even before the candidate reaches it, a
  lower bound.  A candidate whose waste passes what the earlier levels
  left of the slack is dropped, unvisited, with every subset grown from
  it; one that only reaches it is kept.  On a host with a vertex of
  degree 0 or 1 (``has_minor`` keeps them for a target such as a path)
  the rule is off.

A graph is intrinsically linked exactly when it has a Petersen-family
minor.  The classifier works per connected component.  Before any search
it tries three routes to "unlinked": a size prefilter (fewer than 15
edges or 6 vertices), a planar host, and an apex host, one with a vertex
whose deletion leaves it planar, which has a linkless embedding (Sachs
1983).  The apex route tests each candidate on an adjacency map of the
host minus it, without building a graph.  The planar and apex routes
return a ``PlanarCertificate`` on the simplified host, and it is checked
with ``planar_certificate_errors`` before the verdict is returned.
Otherwise it runs the seven member searches in a fixed order and returns
the first witness, a definitive "unlinked", or "unknown" when some member
search ran out of budget.  ``LinkVerdict.decided_by`` names the route.
Every call tries every route; no option skips one.

Every member has minimum degree >= 3 and at least 6 vertices, so the host
reduction is the same for all seven: the classifier simplifies the host
once per call and, unless it is planar, reduces it once for the apex
route and every member search.  The members' search tables (assignment
order, adjacency requirements, demand counts) are built once per process,
from the cached family; nothing about a host is remembered between calls,
so a verdict and its node count depend only on the input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Mapping

from .moves import petersen_family
from .multigraph import Edge, GraphError, MultiGraph
from .planarity import PlanarCertificate, apex_rotation, planar_certificate_errors, planar_rotation

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
    """Shrink the simple host graph without changing whether H embeds as a minor.

    Safe moves, gated on H's minimum degree: isolated vertices go whenever
    H is connected with >= 2 vertices, degree-1 vertices go when every
    H-vertex needs >= 2 edges, and degree-2 vertices are absorbed into a
    neighbor when every H-vertex needs >= 3.  Removals come first, and each
    kind goes smallest id first; a degree-2 vertex merges across its
    lowest-id edge into the smaller id, and parallel edges keep the smallest
    id.  ``origin`` maps each surviving vertex to the original vertices it
    stands for.  The moves run on one adjacency map with a heap of
    candidates, so each costs only the edges it touches.
    """
    adj: dict[int, dict[int, int]] = {v: {} for v in gs.vertices}
    for e in gs.edges:
        adj[e.u][e.v] = adj[e.v][e.u] = e.id
    origin = {v: {v} for v in gs.vertices}
    allowed = (h_n >= 2, h_min_deg >= 2, h_min_deg >= 3)  # by degree 0, 1, 2
    heap = [(len(nbrs) == 2, v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    while heap:
        absorb, v = heapq.heappop(heap)
        d = len(adj[v]) if v in adj else 3
        if d > 2 or (d == 2) != absorb or not allowed[d]:
            continue  # v is gone, has no allowed move, or changed degree since the push
        if not absorb:
            for w in adj.pop(v):
                del adj[w][v]
                heapq.heappush(heap, (len(adj[w]) == 2, w))
            del origin[v]
            continue
        a = min(adj[v], key=adj[v].__getitem__)  # across the lowest-id edge
        keep, gone = min(v, a), max(v, a)
        del adj[keep][gone], adj[gone][keep]
        for w, eid in adj.pop(gone).items():
            del adj[w][gone]
            if w in adj[keep]:  # parallel edges: w loses a neighbour
                eid = min(eid, adj[keep][w])
                heapq.heappush(heap, (len(adj[w]) == 2, w))
            adj[keep][w] = adj[w][keep] = eid
        small, large = sorted((origin.pop(gone), origin[keep]), key=len)
        large |= small
        origin[keep] = large
        heapq.heappush(heap, (len(adj[keep]) == 2, keep))

    rep = {x: v for v, xs in origin.items() for x in xs}
    ids = sorted({eid for nbrs in adj.values() for eid in nbrs.values()})
    edges = tuple(Edge(i, rep[gs.edge(i).u], rep[gs.edge(i).v]) for i in ids)
    return MultiGraph(frozenset(adj), edges), {v: frozenset(xs) for v, xs in origin.items()}


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


class _Member:
    """The search tables of one simple, connected target graph H.

    They depend only on H, so the classifier builds them once per family
    member.  Levels count the H-vertices placed so far, in ``order``.
    """

    __slots__ = ("graph", "order", "twin_before", "required", "demand", "unrealized_after")

    def __init__(self, hs: MultiGraph):
        order = _h_assignment_order(hs)
        k = len(order)
        pos = {hv: i for i, hv in enumerate(order)}
        h_nbrs = [[pos[w] for w in sorted(hs.neighbors(hv))] for hv in order]
        self.graph = hs
        self.order = order
        # twin_before[level]: the last earlier level of order[level]'s twin
        # class, or -1; its branch set must start at a lower host vertex
        self.twin_before = [-1] * k
        for twins in _twin_classes(hs):
            levels = sorted(pos[hv] for hv in twins)
            for before, level in zip(levels, levels[1:]):
                self.twin_before[level] = before
        self.required = [[j for j in h_nbrs[i] if j < i] for i in range(k)]
        # demand[level]: (j, d) for each placed order[j] with d > 0 H-neighbours
        # still unassigned once levels 0..level-1 are placed
        self.demand = [
            [(j, d) for j in range(level) if (d := sum(1 for i in h_nbrs[j] if i >= level))]
            for level in range(k + 1)
        ]
        # H-edges still missing a witness once levels 0..level-1 are placed;
        # each needs a distinct G-edge with an endpoint in the free region
        self.unrealized_after = [
            sum(1 for i in range(k) for j in h_nbrs[i]
                if i < j and (i >= level or j >= level))
            for level in range(k + 1)
        ]


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


def _twin_classes(h: MultiGraph) -> list[list[int]]:
    """The classes of two or more H-vertices whose neighbourhoods are equal
    apart from each other: equal open neighbourhoods (false twins) or equal
    closed ones (true twins).  No vertex has both kinds of twin."""
    classes: dict[tuple[bool, frozenset[int]], list[int]] = {}
    for v in sorted(h.vertices):
        nbrs = h.neighbors(v)
        classes.setdefault((False, nbrs), []).append(v)
        classes.setdefault((True, nbrs | {v}), []).append(v)
    return sorted(vs for vs in classes.values() if len(vs) > 1)


def _search_branch_sets(work: MultiGraph, member: _Member, budget: _Budget):
    """Find branch sets for member.graph inside the simple host work.

    Returns None after an exhaustive search.  Vertex subsets are bitmasks.
    Each candidate branch set is carried with the union of its vertices'
    neighbourhoods and with the number of host edges that touch the
    vertices still free once it is placed, both updated per added vertex,
    so a search node costs a fixed number of big-int operations.  The
    adjacency, vertex-count, demand and touching checks and the
    cycle-rank, twin and edge-slack rules of the module docstring apply.
    """
    verts = sorted(work.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for e in work.edges:
        if not e.is_loop:
            nbr[index[e.u]] |= 1 << index[e.v]
            nbr[index[e.v]] |= 1 << index[e.u]

    order, required, twin_before = member.order, member.required, member.twin_before
    demand, unrealized_after = member.demand, member.unrealized_after
    k = len(order)
    full = (1 << n) - 1
    branch: list[int] = [0] * k
    branch_nbr: list[int] = [0] * k

    def feasible(avail: int, level: int, touching: int) -> bool:
        # each placed branch set must keep one free attachment vertex per
        # still-unplaced H-neighbor (future branch sets are disjoint, so
        # they attach at distinct vertices)
        for j, need in demand[level]:
            if (branch_nbr[j] & avail).bit_count() < need:
                return False
        # touching: how many host edges have an endpoint in avail
        return touching >= unrealized_after[level]

    def candidates(avail: int, level: int, touching: int,
                   least: int) -> Iterator[tuple[int, int, int, int]]:
        """Connected subsets of avail, each with its neighbourhood union,
        the count of host edges touching avail minus the subset, and its
        size.

        Subsets grow from their lowest seed by frontier vertices, lowest
        bit first; a vertex skipped at one branch is banned below it, so
        each subset is reached once.  Seeds at or below the lowest vertex
        of the level's earlier twin are banned.  A subset whose touch
        count plus size is below ``least`` wastes more edges than the
        slack allows, and so does every subset grown from it: neither is
        visited.  One budget node per subset visited.
        """
        req_masks = [branch_nbr[j] & avail for j in required[level]]
        max_size = avail.bit_count() - (k - level - 1)
        if max_size < 1:
            return
        outside = full & ~avail
        twin = twin_before[level]
        below = (branch[twin] & -branch[twin]) - 1 if twin >= 0 else 0
        banned_seeds = avail & below
        seeds = avail & ~below
        while seeds:
            seed = seeds & -seeds
            seeds ^= seed
            union = nbr[seed.bit_length() - 1]
            # the next subset to visit: subset, union, frontier, banned, touch
            visit = (seed, union, union & avail & ~(seed | banned_seeds), banned_seeds,
                     touching - (union & outside).bit_count())
            stack: list[list[int]] = []
            while True:
                if visit is not None:
                    subset, union, frontier, banned, touch = visit
                    visit = None
                    size = subset.bit_count()
                    if touch + size < least:
                        continue
                    budget.spend()
                    for rm in req_masks:
                        if not subset & rm:
                            break
                    else:
                        yield subset, union, touch, size
                    if size < max_size:
                        stack.append([subset, union, frontier, banned, touch])
                    continue
                if not stack:
                    break
                top = stack[-1]
                subset, union, frontier, banned, touch = top
                if not frontier:
                    stack.pop()
                    continue
                low = frontier & -frontier
                x = nbr[low.bit_length() - 1]
                top[2] = frontier ^ low
                top[3] = banned | low
                grown = subset | low
                union |= x
                # x's edges into the subset or outside avail stop touching it
                visit = (grown, union, union & avail & ~(grown | banned), banned,
                         touch - (x & (subset | outside)).bit_count())
            banned_seeds |= seed

    def assign(level: int, avail: int, touching: int, cap: int):
        if level == k:
            return list(branch)
        # a candidate wastes (touching - touch) - (size - 1) - len(required)
        # edges, a lower bound until it touches every required branch set;
        # it may waste at most cap, leaving cap - waste to later levels
        least = touching + 1 - len(required[level]) - cap
        for subset, union, touch, size in candidates(avail, level, touching, least):
            branch[level] = subset
            branch_nbr[level] = union & ~subset
            rest = avail & ~subset
            if feasible(rest, level + 1, touch):
                found = assign(level + 1, rest, touch, touch + size - least)
                if found is not None:
                    return found
        return None

    m = sum(b.bit_count() for b in nbr) // 2
    excess = member.graph.m - member.graph.n
    if excess + 1 > m - n + len(work.connected_components()):
        return None  # H's cycle rank exceeds the host's
    # with minimum degree >= 2 the branch sets of a model waste at most
    # slack edges; otherwise the cap of m edges never binds
    cap = m - n - excess if min((b.bit_count() for b in nbr), default=0) >= 2 else m
    masks = assign(0, full, m, cap)
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
                    member: _Member, budget_limit: int):
    """Search the reduced host for the simple target member.graph.

    ``work`` and ``origin`` are ``_reduce_host``'s output for the host g;
    a found model is lifted back to g and checked there.  Returns
    (model or None, nodes spent).  Raises SearchBudgetExceeded.
    """
    hs = member.graph
    if hs.n > work.n or hs.m > work.m:
        return None, 0

    budget = _Budget(budget_limit)
    sets = _search_branch_sets(work, member, budget)
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
    # every minor of a planar graph is planar; the small target goes first
    if planar_rotation(hs) is None and planar_rotation(gs) is not None:
        return None, 0
    if hs.n == 1:
        v = min(gs.vertices)
        return MinorModel({min(hs.vertices): frozenset({v})}, {}), 0

    h_min_deg = min(hs.degree(v) for v in hs.vertices)
    work, origin = _reduce_host(gs, h_min_deg, hs.n)
    return _search_reduced(g, work, origin, _Member(hs), budget_limit)


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
    vertices no longer loosen the edge bound.  Each candidate is tested on
    one adjacency map of the host minus it, built from the host's map;
    no graph is built per candidate.
    """
    adj = {v: sorted(work.neighbors(v)) for v in work.vertices}
    n, m = work.n, work.m
    for v in sorted(adj, key=lambda v: (-len(adj[v]), v)):
        # a planar graph on n - 1 >= 3 vertices has at most 3(n - 1) - 6 edges
        if m - len(adj[v]) > 3 * (n - 1) - 6 or apex_rotation(adj, v) is None:
            continue
        # Undoing one reduction step keeps an apex among the preimages of an
        # apex u: a deleted leaf or isolated vertex returns as a pendant or
        # isolated one, a suppressed degree-2 vertex away from u returns
        # inside an edge, and when u absorbed a degree-2 vertex, deleting
        # the endpoint of that edge that is not the degree-2 vertex leaves
        # it pendant.  So some vertex of gs that v stands for is an apex.
        host = {x: sorted(gs.neighbors(x)) for x in gs.vertices}
        for x in sorted(origin[v], key=lambda x: (-len(host[x]), x)):
            rotation = apex_rotation(host, x)
            if rotation is not None:
                return PlanarCertificate(x, rotation)
        raise AssertionError(f"reduced host minus {v} is planar, but no host vertex it "
                             "stands for is an apex")
    return None


@cache
def _family_search() -> tuple[tuple[tuple[str, _Member], ...], int, int]:
    """The family members in search order, each with its search tables, and
    the least minimum degree and vertex count among them (the reduction's
    gates).  Built from the cached family on first use."""
    members = tuple((m.name, _Member(m.graph.simplified())) for m in petersen_family())
    graphs = [member.graph for _, member in members]
    return (members, min(min(h.degree(v) for v in h.vertices) for h in graphs),
            min(h.n for h in graphs))


def _certified(g: MultiGraph, certificate: PlanarCertificate) -> LinkVerdict:
    """The "unlinked" verdict of a planar or apex certificate, checked against g."""
    route = "planar" if certificate.apex is None else "apex"
    problems = planar_certificate_errors(g, certificate)
    if problems:
        raise AssertionError(f"{route} route produced an invalid certificate: {problems}")
    return LinkVerdict("unlinked", None, None, 0, {}, route, certificate)


def is_intrinsically_linked(g: MultiGraph, budget: int = DEFAULT_BUDGET) -> LinkVerdict:
    """Decide intrinsic linkedness by certificates, then Petersen-family minor search.

    "linked" comes with a verified witness; "unlinked" comes from the size
    prefilter, a verified planar or apex certificate, or member searches
    that all completed with no minor found; "unknown" is reported when
    some search ran out of budget, never silently.
    """
    components = g.connected_components()
    if len(components) > 1:
        total_nodes = 0
        merged: dict[str, str] = {}
        outcome = "unlinked"
        for comp in components:
            sub = is_intrinsically_linked(g.induced(comp), budget=budget)
            total_nodes += sub.nodes
            for name, res in sub.per_member.items():
                # a member's outcome ranks found, then budget-exhausted, then none
                if res == "found" or merged.get(name) not in ("found", "budget-exhausted"):
                    merged[name] = res
            if sub.verdict == "linked":
                return LinkVerdict("linked", sub.witness_member, sub.witness_model,
                                   total_nodes, merged, "components")
            if sub.verdict == "unknown":
                outcome = "unknown"
        return LinkVerdict(outcome, None, None, total_nodes, merged, "components")

    gs = g.simplified()
    if gs.m < 15 or gs.n < 6:
        return LinkVerdict("unlinked", None, None, 0,
                           {"prefilter": "below-threshold"}, "prefilter")

    rotation = planar_rotation(gs)
    if rotation is not None:
        return _certified(g, PlanarCertificate(None, rotation))

    # Every member has minimum degree >= 3 and >= 6 vertices, so one
    # reduction of the host serves the apex route and all seven searches.
    members, min_degree, min_n = _family_search()
    work, origin = _reduce_host(gs, min_degree, min_n)
    certificate = _apex_certificate(gs, work, origin)
    if certificate is not None:
        return _certified(g, certificate)

    nodes = 0
    per_member: dict[str, str] = {}
    exhausted = False
    for name, member in members:
        try:
            model, spent = _search_reduced(g, work, origin, member, budget)
        except SearchBudgetExceeded as exc:
            nodes += exc.nodes
            per_member[name] = "budget-exhausted"
            exhausted = True
            continue
        nodes += spent
        if model is not None:
            per_member[name] = "found"
            return LinkVerdict("linked", name, model, nodes, per_member, "search")
        per_member[name] = "none"
    verdict = "unknown" if exhausted else "unlinked"
    return LinkVerdict(verdict, None, None, nodes, per_member, "search")


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


def minor_minimality_report(g: MultiGraph, budget: int = DEFAULT_BUDGET) -> MinimalityReport:
    """Classify every single-edge deletion and contraction of a linked graph."""
    base = is_intrinsically_linked(g, budget=budget)
    if base.verdict != "linked":
        raise GraphError("minimality report requires an intrinsically linked graph")
    moves = [("delete", e, g.delete_edge(e.id)) for e in g.edges]
    moves += [("contract", e, g.contract_edge(e.id))
              for e in g.edges if not e.is_loop]
    children = tuple(
        ChildVerdict(operation, e.id, (e.u, e.v),
                     is_intrinsically_linked(child, budget=budget).verdict)
        for operation, e, child in moves)
    verdicts = {c.verdict for c in children}
    minimal = False if "linked" in verdicts else None if "unknown" in verdicts else True
    return MinimalityReport(g.name or repr(g), children, minimal)
