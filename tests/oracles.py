"""Independent brute-force oracles used only by the test suite.

Everything here deliberately avoids the library's own algorithms: circuits
are found by checking every vertex subset for Hamiltonian cycles,
crossings from solving each segment pair in Fractions, and linking numbers
from the numeric Gauss integral.  The exhaustive delete/contract minor
oracle and its all-permutations isomorphism key ship with acceptance
criterion 7 in ``linkless.acceptance``; tests import them from there.
``_search_branch_sets`` is the branch-set search as it was written before
its subset enumeration kept an explicit stack: a recursive generator per
vertex added, and a scan of every host edge per feasibility check.  It is
the reference that the package's search must match node for node.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

from linkless.multigraph import MultiGraph


def circuit_edge_sets(g: MultiGraph) -> set[frozenset[int]]:
    """All circuits of ``g``, each as its (unordered) set of edge ids.

    A simple cycle is determined by its edge set, so this is a
    normalization-free way to compare circuit enumerations.  For every
    vertex subset, every cyclic order of it, and every way of picking a
    connecting edge per consecutive pair, record the edge set if all edges
    exist.  Only feasible for small graphs.
    """
    found: set[frozenset[int]] = set()

    for e in g.edges:
        if e.is_loop:
            found.add(frozenset([e.id]))

    between: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        if not e.is_loop:
            between.setdefault(e.pair(), []).append(e.id)

    verts = sorted(g.vertices)
    for size in range(2, len(verts) + 1):
        for subset in combinations(verts, size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cycle = (first,) + rest
                slots = []
                ok = True
                for i in range(size):
                    a, b = cycle[i], cycle[(i + 1) % size]
                    key = (a, b) if a < b else (b, a)
                    ids = between.get(key)
                    if not ids:
                        ok = False
                        break
                    slots.append(ids)
                if not ok:
                    continue

                def expand(i: int, chosen: list[int]) -> None:
                    if i == size:
                        if len(set(chosen)) == size:
                            found.add(frozenset(chosen))
                        return
                    for eid in slots[i]:
                        expand(i + 1, chosen + [eid])

                expand(0, [])
    return found


def circuit_polyline(emb, circuit) -> list:
    """The closed polyline of a circuit of an embedding, walked from
    ``vertex_seq[0]`` along ``edge_ids`` (the first point is not repeated)."""
    loop = []
    for v, eid in zip(circuit.vertex_seq, circuit.edge_ids):
        path = list(emb.edge_paths[eid])
        if path[0] != emb.vertex_points[v]:
            path.reverse()
        assert path[0] == emb.vertex_points[v]
        loop.extend(path[:-1])
    return loop


def gauss_linking_number(loop_a, loop_b) -> float:
    """Numeric Gauss-integral linking number of two closed 3D polylines.

    Points are (x, y, z) triples of exact numbers; arithmetic is float.
    The per-segment-pair solid-angle formula sums to the linking number.
    """

    def fl(p):
        return (float(p[0]), float(p[1]), float(p[2]))

    def sub(p, q):
        return (p[0] - q[0], p[1] - q[1], p[2] - q[2])

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    def cross(p, q):
        return (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )

    def norm(p):
        return math.sqrt(dot(p, p))

    pa = [fl(p) for p in loop_a]
    pb = [fl(p) for p in loop_b]
    total = 0.0
    for i in range(len(pa)):
        p1, p2 = pa[i], pa[(i + 1) % len(pa)]
        for j in range(len(pb)):
            q1, q2 = pb[j], pb[(j + 1) % len(pb)]
            a = sub(p1, q1)
            b = sub(p1, q2)
            c = sub(p2, q2)
            d = sub(p2, q1)
            p = dot(a, cross(b, c))
            an, bn, cn, dn = norm(a), norm(b), norm(c), norm(d)
            d1 = an * bn * cn + dot(a, b) * cn + dot(b, c) * an + dot(c, a) * bn
            d2 = an * dn * cn + dot(a, d) * cn + dot(d, c) * an + dot(c, a) * dn
            total += math.atan2(p, d1) + math.atan2(p, d2)
    return total / (2.0 * math.pi)


def crossing_oracle(segments, direction) -> set[tuple]:
    """Crossings of the images of 3D segments projected along ``direction``.

    ``segments`` holds (key, index, a, b) with 3D endpoints a, b.  Each pair
    of segments is intersected in the plane by Cramer's rule in Fractions,
    using a frame built here (any right-handed (u, v, direction)).  Returns
    (key, index, t, key', index', t', over, sign) tuples, where over is 0
    when the first segment is nearer the viewer.  Assumes the projection
    is regular, so every proper image intersection is a crossing.
    """
    d = [Fraction(c) for c in direction]

    def cross(p, q):
        return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    axis = min(range(3), key=lambda i: abs(d[i]))
    u = cross(d, [1 if i == axis else 0 for i in range(3)])
    v = cross(d, u)

    def image(p):
        return (dot(u, p), dot(v, p))

    def cross2(p, q):
        return p[0] * q[1] - p[1] * q[0]

    found = set()
    for i, (k1, i1, a, b) in enumerate(segments):
        a2, b2 = image(a), image(b)
        e = (b2[0] - a2[0], b2[1] - a2[1])
        for k2, i2, c, f in segments[i + 1:]:
            c2, f2 = image(c), image(f)
            g = (f2[0] - c2[0], f2[1] - c2[1])
            den = cross2(e, g)
            if den == 0:
                continue
            ac = (c2[0] - a2[0], c2[1] - a2[1])
            s, t = cross2(ac, g) / den, cross2(ac, e) / den
            if not (0 < s < 1 and 0 < t < 1):
                continue
            depth_s = dot(d, a) + s * (dot(d, b) - dot(d, a))
            depth_t = dot(d, c) + t * (dot(d, f) - dot(d, c))
            over = 0 if depth_s > depth_t else 1
            sign = 1 if (den > 0) == (over == 0) else -1
            found.add((k1, i1, s, k2, i2, t, over, sign))
    return found


def decode(record) -> tuple:
    """A `strand_crossings` record as the (key, index, t, key', index', t',
    over, sign) tuple of `crossing_oracle`, with t and t' as Fractions."""
    key_s, idx_s, n_s, w_s, key_t, idx_t, n_t, w_t, over, sign = record
    return (key_s, idx_s, Fraction(n_s, w_s), key_t, idx_t, Fraction(n_t, w_t), over, sign)


# -- the recursive branch-set search (reference) -----------------------------


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
