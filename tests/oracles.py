"""Independent brute-force oracles used only by the test suite.

Everything here deliberately avoids the library's own algorithms: circuits
are found by checking every vertex subset for Hamiltonian cycles,
crossings from solving each segment pair in Fractions, and linking numbers
from the numeric Gauss integral.  The exhaustive delete/contract minor
oracle and its all-permutations isomorphism key ship with acceptance
criterion 7 in ``linkless.acceptance``; tests import them from there.
``_search_branch_sets`` is the branch-set search as it was written before
its subset enumeration kept an explicit stack: a recursive generator per
vertex added, and a scan of every host edge per feasibility check.  Run
with ``rules`` (the cycle-rank, twin and edge-slack pruning), it is the
reference that the package's search must match node for node; run
without, it is the unpruned search whose verdicts and models the pruned
one must keep.
``_validate``, ``_check_edge`` and ``_check_paths_disjoint`` are the
embedding checks as they were written before the pair walk went flat: one
`_check_paths_disjoint` call per pair of paths, one `_boxes_apart` call
per pair of segments.  They are the reference that the package's checks
must match verdict for verdict and message for message.
``segments3_intersect`` is the package's segment predicate as it was
written before its coplanar case was decided in 3D: it drops an axis and
runs a 2D segment test.  The reference checks call it, so they share no
segment test with the package.
``two_step_detour`` is the reroute check's detour draw as it was written
before it moved into ``linkless.embedding``: each arc is checked against
segment records of the old path built afresh, then by ``reroute_edge``.
``left_right_rotation`` is the left-right planarity test as it was
written before it ran on integer-indexed lists: per-edge state in dicts
keyed by (v, w) pairs, and interval and conflict-pair objects.  The
package's test must return the same rotation system on every input.
``triangles`` and ``delta_y`` are the Delta-Y move's helpers as they were
written before a move built one graph: every vertex triple tested for
three edges, and three deletions, a new vertex and three additions, one
graph each.  ``pack_key`` is the canonical key's byte packer as it was
written before it used ``int.to_bytes``: one bit list, packed byte by byte.
``canonical_form_reference`` is the canonical-form search as it was written
before it pruned by automorphisms: every child of every node is searched,
and keys are packed by ``pack_key`` above.  The package's keys must equal
its keys byte for byte.
``petersen_closure_reference`` is the Delta-Y closure as the package ran
it before the family became a pinned table: every triangle of every class
is moved with ``delta_y`` above and every child keyed with
``canonical_form_reference``.  Members of the Petersen family take their
names from the package's table, other classes are named P<n>.  The
table must equal this closure of {K6, K3,3,1}.
``pair_index_reference`` is the circuit-pair index as it was written
before it kept each circuit's vertex set: per pair it reads both
circuits' cached ``vertices`` and looks each circuit up twice.  The
package's index must hold the same pairs, signs, slots and endpoints.
``link_tables_reference`` is the lk table as it was written before it was
one pass over each diagram's crossing records: a crossing matrix per
diagram (``crossing_matrix_reference``, the signed sum and count of the
crossings of each strand over each other), then per circuit J a merge of
its edges' matrix rows.  The package's tables must equal its tables.
``strand_crossings_reference`` is the crossing kernel as it was written
before it kept one orientation list per segment: every segment pair runs
the full pair body, shared ends first, and triple points are found by
hashing every crossing image in gcd-reduced homogeneous coordinates.
Wherever it returns, the package's kernel must return the same records.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

from linkless import embedding
from linkless.embedding import EmbeddingError
from linkless.geometry import (
    Point3,
    Rat,
    _overlap_1d,
    cross3,
    is_zero3,
    orient3d,
    point_on_segment3,
    projection_frame,
    shared_endpoint_segments_overlap,
    sub3,
)
from linkless.moves import _FAMILY, FamilyMember
from linkless.multigraph import Edge, GraphError, MultiGraph
from linkless.projection import NonRegularProjection, PairIndex, _clear_denominators


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


def vertex_image_faults(segments, vertices, direction) -> list[tuple]:
    """The vertex images that land on the image of a segment the vertex
    does not end, as (vertex, a, b), and the pairs of distinct vertices
    with one image, as (vertex, vertex'), projecting along ``direction``.

    ``segments`` holds (a, b) pairs of 3D points and ``vertices`` 3D
    points; the images are taken in Fractions, in a frame built here.
    """
    d = [Fraction(c) for c in direction]
    axis = min(range(3), key=lambda i: abs(d[i]))
    e = [1 if i == axis else 0 for i in range(3)]
    u = (d[1] * e[2] - d[2] * e[1], d[2] * e[0] - d[0] * e[2], d[0] * e[1] - d[1] * e[0])
    v = (d[1] * u[2] - d[2] * u[1], d[2] * u[0] - d[0] * u[2], d[0] * u[1] - d[1] * u[0])

    def image(p):
        return (sum(a * b for a, b in zip(u, p)), sum(a * b for a, b in zip(v, p)))

    faults = []
    for w in vertices:
        x, y = image(w)
        for a, b in segments:
            if w in (a, b):
                continue
            (ax, ay), (bx, by) = image(a), image(b)
            ex, ey = bx - ax, by - ay
            if (x, y) == (ax, ay) or ex * (y - ay) == ey * (x - ax) and \
                    0 < ex * (x - ax) + ey * (y - ay) <= ex * ex + ey * ey:
                faults.append((w, a, b))
    faults += [(w, w2) for w, w2 in combinations(vertices, 2)
               if w != w2 and image(w) == image(w2)]
    return faults


def decode(record) -> tuple:
    """A `crossing_pass` record as the (key, index, t, key', index', t',
    over, sign) tuple of `crossing_oracle`, with t and t' as Fractions."""
    key_s, idx_s, n_s, w_s, key_t, idx_t, n_t, w_t, over, sign = record
    return (key_s, idx_s, Fraction(n_s, w_s), key_t, idx_t, Fraction(n_t, w_t), over, sign)


# -- the recursive branch-set search (reference) -----------------------------


def scanned_lk(diagram, j, k):
    """(lk, omega) of J over K by a direct scan of the crossing list."""
    def signs(c):
        out = {}
        for i, eid in enumerate(c.edge_ids):
            u, _ = diagram.edge_endpoints[eid]
            out[eid] = 1 if c.vertex_seq[i] == u else -1
        return out

    sig_j, sig_k = signs(j), signs(k)
    lk = count = 0
    for record in diagram.crossings:
        first, _, _, second, _, _, over, sign = decode(record)
        upper, lower = (first, second) if over == 0 else (second, first)
        if upper in sig_j and lower in sig_k:
            lk += sign * sig_j[upper] * sig_k[lower]
            count += 1
    return lk, count & 1


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


def _search_branch_sets(work: MultiGraph, hs: MultiGraph, budget: _Budget, rules: bool = False):
    """Find branch sets for hs inside work, or None after exhaustive search.

    With ``rules``, the search also applies the package's cycle-rank, twin
    and edge-slack rules, each computed here from scratch: the ranks from
    the edge and component counts, twins by comparing neighbourhoods pair
    by pair, and a subset's wasted edges by scanning every host edge.
    """
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
    # twin_before[i]: the last level j < i whose H-vertex is a twin of
    # order[i], or None
    twin_before: list[int | None] = [None] * k
    if rules:
        for i in range(k):
            for j in range(i):
                a, b = order[i], order[j]
                if hs.neighbors(a) - {b} == hs.neighbors(b) - {a}:
                    twin_before[i] = j

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
        return True

    def waste(subset: int, avail: int, level: int) -> int:
        # edges inside subset beyond a spanning tree, plus edges from it to
        # placed branch sets beyond one per required neighbour
        placed = full & ~avail
        inside = sum(1 for em in edge_masks if em & subset == em)
        across = sum(1 for em in edge_masks if em & subset and em & placed)
        return inside - (subset.bit_count() - 1) + across - len(required[level])

    def candidates(avail: int, level: int, cap: int) -> Iterator[int]:
        req_masks = [branch_nbr[j] & avail for j in required[level]]
        if any(rm == 0 for rm in req_masks):
            return
        max_size = avail.bit_count() - (k - level - 1)
        if max_size < 1:
            return

        def ok(subset: int) -> bool:
            for rm in req_masks:
                if not subset & rm:
                    return False
            return True

        def grow(subset: int, frontier: int, banned: int) -> Iterator[int]:
            if cap is not None and waste(subset, avail, level) > cap:
                return
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
        if twin_before[level] is not None:
            # only subsets whose lowest vertex lies above the twin's
            twin_low = min(_bits(branch[twin_before[level]]))
            banned_seeds = avail & ((1 << twin_low) - 1)
            seeds = avail & ~banned_seeds
        while seeds:
            seed = seeds & -seeds
            seeds ^= seed
            yield from grow(seed, nbr[seed.bit_length() - 1] & avail & ~banned_seeds & ~seed,
                            banned_seeds)
            banned_seeds |= seed

    def assign(level: int, avail: int, cap: int | None):
        if level == k:
            return list(branch)
        for subset in candidates(avail, level, cap):
            branch[level] = subset
            branch_nbr[level] = neighbors_of(subset)
            rest = avail & ~subset
            if feasible(rest, level + 1):
                left = None if cap is None else cap - waste(subset, avail, level)
                found = assign(level + 1, rest, left)
                if found is not None:
                    return found
        return None

    cap = None
    if rules:
        if hs.m - hs.n + 1 > len(edge_masks) - n + len(components(full)):
            return None
        if n and min(b.bit_count() for b in nbr) >= 2:
            cap = (len(edge_masks) - n) - (hs.m - hs.n)
    masks = assign(0, full, cap)
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


# -- the segment predicate with a 2D coplanar case (reference) ----------------

Point2 = tuple[Rat, Rat]


def orient2d(a: Point2, b: Point2, c: Point2) -> Rat:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments2_intersect(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """Closed 2D segments ab and cd share at least one point."""
    o1 = orient2d(a, b, c)
    o2 = orient2d(a, b, d)
    o3 = orient2d(c, d, a)
    o4 = orient2d(c, d, b)
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return False
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return False
    if o1 == 0 and o2 == 0:
        # all four collinear: compare 1D ranges along the dominant axis
        axis = 0 if abs(b[0] - a[0]) + abs(d[0] - c[0]) >= abs(b[1] - a[1]) + abs(d[1] - c[1]) else 1
        return _overlap_1d(a[axis], b[axis], c[axis], d[axis])
    return True


def segments3_intersect(p1: Point3, p2: Point3, q1: Point3, q2: Point3) -> bool:
    """Closed 3D segments p1p2 and q1q2 share at least one point (exact)."""
    if orient3d(p1, p2, q1, q2) != 0:
        return False
    d1 = sub3(p2, p1)
    d2 = sub3(q2, q1)
    if is_zero3(d1):
        return point_on_segment3(p1, q1, q2)
    if is_zero3(d2):
        return point_on_segment3(q1, p1, p2)
    n = cross3(d1, d2)
    if is_zero3(n):
        # parallel; intersect only if collinear with overlapping ranges
        if not is_zero3(cross3(d1, sub3(q1, p1))):
            return False
        axis = max(range(3), key=lambda i: abs(d1[i]))
        return _overlap_1d(p1[axis], p2[axis], q1[axis], q2[axis])
    # coplanar and non-parallel: project out an axis where n is nonzero
    axis = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != axis]

    def flat(p: Point3) -> Point2:
        return (p[keep[0]], p[keep[1]])

    return segments2_intersect(flat(p1), flat(p2), flat(q1), flat(q2))


# -- embedding checks as written before the flat pair walk ---------------------


def _validate(graph: MultiGraph, points: dict[int, Point3],
              paths: dict[int, tuple[Point3, ...]]) -> None:
    if not graph.is_simple:
        raise EmbeddingError("embeddings support simple graphs only "
                             "(no loops or parallel edges)")
    if set(points) != set(graph.vertices):
        raise EmbeddingError("vertex positions must cover exactly the vertex set")
    if set(paths) != {e.id for e in graph.edges}:
        raise EmbeddingError("edge paths must cover exactly the edge set")

    seen: dict[Point3, int] = {}
    for v, p in sorted(points.items()):
        if p in seen:
            raise EmbeddingError(f"vertices {seen[p]} and {v} share a point")
        seen[p] = v

    checked: list[tuple[Edge, tuple[Point3, ...]]] = []
    for e in sorted(graph.edges, key=lambda e: e.id):
        _check_edge(graph, points, e, paths[e.id], checked)
        checked.append((e, paths[e.id]))


def _check_edge(graph: MultiGraph, points: Mapping[int, Point3], e: Edge,
                path: tuple[Point3, ...],
                others: Iterable[tuple[Edge, tuple[Point3, ...]]]) -> None:
    """Check edge e's path alone, then against each (edge, path) of `others`.

    `others` must be in increasing id order and their paths already
    checked, so the first failure is the one a check of the whole
    embedding reports.
    """
    if len(path) < 2:
        raise EmbeddingError(f"edge {e.id} path needs at least two points")
    if path[0] != points[e.u] or path[-1] != points[e.v]:
        raise EmbeddingError(
            f"edge {e.id} path must run from vertex {e.u} to vertex {e.v}")
    for a, b in zip(path, path[1:]):
        if a == b:
            raise EmbeddingError(f"edge {e.id} has a zero-length segment")
    _check_path_simple(e.id, path)
    # A vertex with an edge ends that edge's path, so _check_path_simple
    # and _check_paths_disjoint already reject it anywhere else on a path;
    # only isolated vertices need a scan of their own.
    for v in graph.isolated_vertices:
        if any(point_on_segment3(points[v], a, b) for a, b in zip(path, path[1:])):
            raise EmbeddingError(f"vertex {v} lies on edge {e.id}")
    for f, path_f in others:
        if f.id < e.id:
            _check_paths_disjoint(f, path_f, e, path, points)
        else:
            _check_paths_disjoint(e, path, f, path_f, points)


def _check_path_simple(eid: int, path: tuple[Point3, ...]) -> None:
    segs = list(zip(path, path[1:]))
    interior = path[1:-1]
    if len(set(interior)) != len(interior):
        raise EmbeddingError(f"edge {eid} repeats a waypoint")
    for i, (a1, b1) in enumerate(segs):
        for j in range(i + 1, len(segs)):
            a2, b2 = segs[j]
            if j == i + 1:
                if shared_endpoint_segments_overlap(b1, a1, b2):
                    raise EmbeddingError(f"edge {eid} backtracks at a waypoint")
            elif segments3_intersect(a1, b1, a2, b2):
                raise EmbeddingError(f"edge {eid} intersects itself")


def _boxes_apart(p: Point3, q: Point3, r: Point3, s: Point3) -> bool:
    """Whether the bounding boxes of segments pq and rs are strictly apart
    on some axis; then the two segments share no point."""
    return (p[0] < r[0] and p[0] < s[0] and q[0] < r[0] and q[0] < s[0]
            or p[0] > r[0] and p[0] > s[0] and q[0] > r[0] and q[0] > s[0]
            or p[1] < r[1] and p[1] < s[1] and q[1] < r[1] and q[1] < s[1]
            or p[1] > r[1] and p[1] > s[1] and q[1] > r[1] and q[1] > s[1]
            or p[2] < r[2] and p[2] < s[2] and q[2] < r[2] and q[2] < s[2]
            or p[2] > r[2] and p[2] > s[2] and q[2] > r[2] and q[2] > s[2])


def _check_paths_disjoint(e, path_e, f, path_f, points) -> None:
    ends = None  # (points of e's ends, points of f's ends), read on first contact
    segs_f = list(zip(path_f, path_f[1:]))
    for a1, b1 in zip(path_e, path_e[1:]):
        for a2, b2 in segs_f:
            if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
                # only a shared graph vertex is a legitimate contact
                if ends is None:
                    ends = (points[e.u], points[e.v], points[f.u], points[f.v])
                if a1 == a2:
                    s, o1, o2 = a1, b1, b2
                elif a1 == b2:
                    s, o1, o2 = a1, b1, a2
                elif b1 == a2:
                    s, o1, o2 = b1, a1, b2
                else:
                    s, o1, o2 = b1, a1, a2
                # the common case: exactly one common point s (o1 != o2),
                # a vertex point of both edges; the segments then meet
                # beyond s only when s->o1 and s->o2 point the same way
                if o1 != o2 and (s == ends[0] or s == ends[1]) \
                        and (s == ends[2] or s == ends[3]):
                    sx, sy, sz = s
                    px, py, pz = o1[0] - sx, o1[1] - sy, o1[2] - sz
                    qx, qy, qz = o2[0] - sx, o2[1] - sy, o2[2] - sz
                    if (py * qz == pz * qy and pz * qx == px * qz and px * qy == py * qx
                            and px * qx + py * qy + pz * qz > 0):
                        raise EmbeddingError(
                            f"edges {e.id} and {f.id} overlap at vertex")
                    continue
                shared = set(ends[:2]) & set(ends[2:])
                common = {a1, b1} & {a2, b2}
                if not common <= shared:
                    raise EmbeddingError(
                        f"edges {e.id} and {f.id} touch at a non-vertex point")
                for s in common:
                    other1 = b1 if s == a1 else a1
                    other2 = b2 if s == a2 else a2
                    if shared_endpoint_segments_overlap(s, other1, other2):
                        raise EmbeddingError(
                            f"edges {e.id} and {f.id} overlap at vertex")
            elif not _boxes_apart(a1, b1, a2, b2):
                # segments that are not coplanar share no point
                ax, ay, az = a1
                ux, uy, uz = b1[0] - ax, b1[1] - ay, b1[2] - az
                vx, vy, vz = a2[0] - ax, a2[1] - ay, a2[2] - az
                wx, wy, wz = b2[0] - ax, b2[1] - ay, b2[2] - az
                if ((uy * vz - uz * vy) * wx + (uz * vx - ux * vz) * wy
                        + (ux * vy - uy * vx) * wz) != 0:
                    continue
                if segments3_intersect(a1, b1, a2, b2):
                    raise EmbeddingError(f"edges {e.id} and {f.id} intersect")


# -- the reroute check's detour draw, as written in the experiments module ----


def two_step_detour(emb, eid: int, rng):
    """(midpoint, rerouted embedding, rejected midpoints), as
    ``embedding.random_detour`` returns them."""
    e = emb.graph.edge(eid)
    pu, pv = emb.vertex_points[e.u], emb.vertex_points[e.v]
    bound = embedding.COORDINATE_BOUND
    for rejected in range(embedding.RETRY_LIMIT):
        midpoint = (rng.randint(-bound, bound), rng.randint(-bound, bound),
                    rng.randint(-bound, bound))
        try:
            # the new arc must also meet the old path only at the edge
            # endpoints, otherwise the loop D is not embedded
            embedding._check_edge(emb.graph, emb.vertex_points, e, (pu, midpoint, pv),
                                  [(e, embedding._segments(emb.edge_paths[eid]))])
            return midpoint, embedding.reroute_edge(emb, eid, (pu, midpoint, pv)), rejected
        except EmbeddingError:
            pass
    raise embedding.RetryLimitExceeded(f"no valid reroute of edge {eid}")


# -- the left-right planarity test on dicts (reference) -----------------------
#
# Edges are directed pairs (v, w) once the first pass has oriented them: tree
# edges point away from the DFS root, back edges point to an ancestor.  Names
# follow Brandes (2009).


def left_right_rotation(adj: dict[int, list[int]]) -> dict[int, tuple[int, ...]] | None:
    """The rotation system the left-right test finds on ``adj``, or None.

    ``adj`` maps each vertex to its neighbour list; the searches take
    neighbours in list order.  No edge bound is applied first.
    """
    return _LeftRight(adj).run()


class _Interval:
    """A run of same-side back edges, from ``low`` (lowest lowpt) to ``high``."""

    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None


class _ConflictPair:
    __slots__ = ("left", "right")

    def __init__(self, left: _Interval | None = None, right: _Interval | None = None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


class _LeftRight:
    def __init__(self, adj: dict[int, list[int]]):
        self.adj = adj
        self.roots: list[int] = []
        self.height: dict[int, int] = {}
        self.parent_edge: dict[int, tuple[int, int]] = {}
        self.out: dict[int, list[int]] = {v: [] for v in adj}
        self.lowpt: dict[tuple[int, int], int] = {}
        self.lowpt2: dict[tuple[int, int], int] = {}
        self.nesting: dict[tuple[int, int], int] = {}
        self.ref: dict[tuple[int, int], tuple[int, int] | None] = {}
        self.side: dict[tuple[int, int], int] = {}
        self.lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}
        self.stack_bottom: dict[tuple[int, int], _ConflictPair | None] = {}
        self.conflicts: list[_ConflictPair] = []
        self.ordered: dict[int, list[int]] = {}

    def run(self) -> dict[int, tuple[int, ...]] | None:
        for v in sorted(self.adj):
            if v not in self.height:
                self.roots.append(v)
                self._orient(v)
        self._order_by_nesting()
        for root in self.roots:
            if not self._test(root):
                return None
        return self._embed()

    def _order_by_nesting(self) -> None:
        self.ordered = {
            v: sorted(ws, key=lambda w, v=v: self.nesting[(v, w)])
            for v, ws in self.out.items()
        }

    # -- pass 1: orientation, heights, lowpoints, nesting depths -------------

    def _orient(self, root: int) -> None:
        adj, height, lowpt, lowpt2 = self.adj, self.height, self.lowpt, self.lowpt2
        height[root] = 0
        pos = {root: 0}
        stack = [root]
        while stack:
            v = stack[-1]
            i = pos[v]
            if i == len(adj[v]):
                stack.pop()
                e = self.parent_edge.get(v)
                if e is not None:
                    self._edge_done(e[0], e)
                    pos[e[0]] += 1
                continue
            w = adj[v][i]
            if (v, w) in lowpt or (w, v) in lowpt:
                pos[v] = i + 1
                continue
            vw = (v, w)
            self.out[v].append(w)
            lowpt[vw] = lowpt2[vw] = height[v]
            if w not in height:  # tree edge: descend, finish it on the way back
                self.parent_edge[w] = vw
                height[w] = height[v] + 1
                pos[w] = 0
                stack.append(w)
                continue
            lowpt[vw] = height[w]  # back edge
            self._edge_done(v, vw)
            pos[v] = i + 1

    def _edge_done(self, v: int, vw: tuple[int, int]) -> None:
        """Nesting depth of vw, and its lowpoints passed up to v's parent edge."""
        lowpt, lowpt2 = self.lowpt, self.lowpt2
        self.nesting[vw] = 2 * lowpt[vw] + (1 if lowpt2[vw] < self.height[v] else 0)
        e = self.parent_edge.get(v)
        if e is None:
            return
        if lowpt[vw] < lowpt[e]:
            lowpt2[e] = min(lowpt[e], lowpt2[vw])
            lowpt[e] = lowpt[vw]
        elif lowpt[vw] > lowpt[e]:
            lowpt2[e] = min(lowpt2[e], lowpt[vw])
        else:
            lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    # -- pass 2: testing ---------------------------------------------------------

    def _top(self) -> _ConflictPair | None:
        return self.conflicts[-1] if self.conflicts else None

    def _test(self, root: int) -> bool:
        ordered, parent_edge, lowpt, height = (
            self.ordered, self.parent_edge, self.lowpt, self.height)
        pos = {root: 0}
        stack = [root]
        while stack:
            v = stack[-1]
            i = pos[v]
            if i < len(ordered[v]):
                w = ordered[v][i]
                ei = (v, w)
                self.stack_bottom[ei] = self._top()
                if parent_edge.get(w) == ei:  # tree edge: descend
                    pos[w] = 0
                    stack.append(w)
                    continue
                self.lowpt_edge[ei] = ei
                self.conflicts.append(_ConflictPair(right=_Interval(ei, ei)))
                if not self._integrate(v, i, ei):
                    return False
                pos[v] = i + 1
                continue
            stack.pop()
            e = parent_edge.get(v)
            if e is None:
                continue
            u = e[0]
            self._trim_back_edges(u)
            if lowpt[e] < height[u]:  # e has a return edge; e goes on its highest one's side
                top = self.conflicts[-1]
                hl, hr = top.left.high, top.right.high
                if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                    self.ref[e] = hl
                else:
                    self.ref[e] = hr
            if not self._integrate(u, pos[u], e):
                return False
            pos[u] += 1
        return True

    def _integrate(self, v: int, i: int, ei: tuple[int, int]) -> bool:
        """Add the constraints of ei, the i-th outgoing edge of v."""
        if self.lowpt[ei] < self.height[v]:  # ei has a return edge
            e = self.parent_edge[v]
            if i == 0:
                self.lowpt_edge[e] = self.lowpt_edge[ei]
            else:
                return self._add_constraints(ei, e)
        return True

    def _conflicting(self, interval: _Interval, b: tuple[int, int]) -> bool:
        return interval.high is not None and self.lowpt[interval.high] > self.lowpt[b]

    def _lowest(self, p: _ConflictPair) -> int:
        if p.left.empty():
            return self.lowpt[p.right.low]
        if p.right.empty():
            return self.lowpt[p.left.low]
        return min(self.lowpt[p.left.low], self.lowpt[p.right.low])

    def _add_constraints(self, ei: tuple[int, int], e: tuple[int, int]) -> bool:
        lowpt, ref, conflicts = self.lowpt, self.ref, self.conflicts
        p = _ConflictPair()
        # merge the return edges of ei into p.right
        while True:
            q = conflicts.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                return False
            if lowpt[q.right.low] > lowpt[e]:
                if p.right.empty():
                    p.right.high = q.right.high
                else:
                    ref[p.right.low] = q.right.high
                p.right.low = q.right.low
            else:  # align
                ref[q.right.low] = self.lowpt_edge[e]
            if self._top() is self.stack_bottom[ei]:
                break
        # merge the conflicting return edges of earlier edges into p.left
        while conflicts and (self._conflicting(conflicts[-1].left, ei)
                             or self._conflicting(conflicts[-1].right, ei)):
            q = conflicts.pop()
            if self._conflicting(q.right, ei):
                q.swap()
            if self._conflicting(q.right, ei):
                return False
            if p.right.low is not None:
                ref[p.right.low] = q.right.high
            if q.right.low is not None:
                p.right.low = q.right.low
            if p.left.empty():
                p.left.high = q.left.high
            else:
                ref[p.left.low] = q.left.high
            p.left.low = q.left.low
        if not (p.left.empty() and p.right.empty()):
            conflicts.append(p)
        return True

    def _trim_back_edges(self, u: int) -> None:
        """Drop the back edges that end at u, the parent of the edge just done."""
        conflicts, ref, side = self.conflicts, self.ref, self.side
        while conflicts and self._lowest(conflicts[-1]) == self.height[u]:
            p = conflicts.pop()
            if p.left.low is not None:
                side[p.left.low] = -1
        if not conflicts:
            return
        p = conflicts.pop()
        while p.left.high is not None and p.left.high[1] == u:
            p.left.high = ref.get(p.left.high)
        if p.left.high is None and p.left.low is not None:  # just emptied
            ref[p.left.low] = p.right.low
            side[p.left.low] = -1
            p.left.low = None
        while p.right.high is not None and p.right.high[1] == u:
            p.right.high = ref.get(p.right.high)
        if p.right.high is None and p.right.low is not None:
            ref[p.right.low] = p.left.low
            side[p.right.low] = -1
            p.right.low = None
        conflicts.append(p)

    # -- pass 3: embedding -------------------------------------------------------

    def _sign(self, e: tuple[int, int]) -> int:
        """Resolve e's side through its chain of references (iteratively)."""
        ref, side = self.ref, self.side
        chain = []
        while ref.get(e) is not None:
            chain.append(e)
            e = ref[e]
        s = side.get(e, 1)
        for f in reversed(chain):
            s = side.get(f, 1) * s
            side[f] = s
            ref[f] = None
        return s

    def _embed(self) -> dict[int, tuple[int, ...]]:
        for v, ws in self.out.items():
            for w in ws:
                self.nesting[(v, w)] *= self._sign((v, w))
        self._order_by_nesting()
        ordered = self.ordered
        # each vertex's cyclic order as a doubly linked ring
        nxt: dict[int, dict[int, int]] = {v: {} for v in self.adj}
        prv: dict[int, dict[int, int]] = {v: {} for v in self.adj}
        first: dict[int, int] = {}

        def insert_after(v: int, w: int, ref: int | None) -> None:
            if ref is None:
                nxt[v][w] = prv[v][w] = w
                first[v] = w
                return
            after = nxt[v][ref]
            nxt[v][ref] = w
            prv[v][w] = ref
            nxt[v][w] = after
            prv[v][after] = w

        for v, ws in ordered.items():
            prev = None
            for w in ws:
                insert_after(v, w, prev)
                prev = w

        left_ref: dict[int, int] = {}
        right_ref: dict[int, int] = {}
        for root in self.roots:
            pos = {root: 0}
            stack = [root]
            while stack:
                v = stack[-1]
                i = pos[v]
                if i == len(ordered[v]):
                    stack.pop()
                    continue
                pos[v] = i + 1
                w = ordered[v][i]
                ei = (v, w)
                if self.parent_edge.get(w) == ei:  # tree edge: v goes first at w
                    if w in first:
                        insert_after(w, v, prv[w][first[w]])
                        first[w] = v
                    else:
                        insert_after(w, v, None)
                    left_ref[v] = right_ref[v] = w
                    pos[w] = 0
                    stack.append(w)
                elif self.side.get(ei, 1) == 1:  # back edge on the right
                    insert_after(w, v, right_ref[w])
                else:  # back edge on the left
                    insert_after(w, v, prv[w][left_ref[w]])
                    left_ref[w] = v

        rotation = {}
        for v in self.adj:
            order = []
            if v in first:
                w = first[v]
                while True:
                    order.append(w)
                    w = nxt[v][w]
                    if w == first[v]:
                        break
            rotation[v] = tuple(order)
        return rotation


def triangles(g: MultiGraph) -> list[tuple[int, int, int]]:
    out = []
    for a, b, c in combinations(sorted(g.vertices), 3):
        if g.edges_between(a, b) and g.edges_between(a, c) and g.edges_between(b, c):
            out.append((a, b, c))
    return out


def delta_y(g: MultiGraph, triangle: tuple[int, int, int]) -> MultiGraph:
    a, b, c = sorted(triangle)
    removed = []
    for u, v in ((a, b), (a, c), (b, c)):
        removed.append(g.edges_between(u, v)[0].id)
    w = max(g.vertices) + 1
    out = g
    for eid in removed:
        out = out.delete_edge(eid)
    edges = list(out.edges)
    for corner in (a, b, c):  # each new edge one above every id so far
        edges.append(Edge(max((e.id for e in edges), default=-1) + 1, w, corner))
    return MultiGraph(out.vertices | {w}, tuple(edges))


def pack_key(n: int, order: list[int], adj_mask: list[int]) -> bytes:
    bits = []
    for p in range(n):
        row = adj_mask[order[p]]
        for q in range(p + 1, n):
            bits.append(1 if row >> order[q] & 1 else 0)
    packed = bytearray([n])
    acc = 0
    count = 0
    for b in bits:
        acc = acc << 1 | b
        count += 1
        if count == 8:
            packed.append(acc)
            acc = count = 0
    if count:
        packed.append(acc << (8 - count))
    return bytes(packed)


# -- the canonical-form search without automorphism pruning (reference) ------


def canonical_form_reference(g: MultiGraph) -> bytes:
    gs = g.simplified()
    n = gs.n
    if n > 16:
        raise ValueError(f"{n} vertices exceeds the 16-vertex limit")
    verts = sorted(gs.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for e in gs.edges:
        nbrs[index[e.u]].append(index[e.v])
        nbrs[index[e.v]].append(index[e.u])
    adj_mask = [sum(1 << j for j in ns) for ns in nbrs]

    best: bytes | None = None
    nodes = 0

    def refine(colors: list[int]) -> list[int]:
        while True:
            sigs = [
                (colors[i], tuple(sorted(colors[j] for j in nbrs[i])))
                for i in range(n)
            ]
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    def classes_of(colors: list[int]) -> list[list[int]]:
        buckets: dict[int, list[int]] = {}
        for i, c in enumerate(colors):
            buckets.setdefault(c, []).append(i)
        return [buckets[c] for c in sorted(buckets)]

    def homogeneous(cls_list: list[list[int]]) -> bool:
        # Each multi-member class must be complete or empty internally and
        # toward every other multi-member class; stable refinement already
        # makes counts uniform within a class, so one member is enough.
        masks = [sum(1 << i for i in cl) for cl in cls_list]
        for a, cl in enumerate(cls_list):
            if len(cl) == 1:
                continue
            i = cl[0]
            inner = (adj_mask[i] & masks[a]).bit_count()
            if inner not in (0, len(cl) - 1):
                return False
            for b, other in enumerate(cls_list):
                if b == a or len(other) == 1:
                    continue
                cross = (adj_mask[i] & masks[b]).bit_count()
                if cross not in (0, len(other)):
                    return False
        return True

    def search(colors: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > 2_000_000:
            raise RuntimeError("canonical labeling search exploded")
        cls_list = classes_of(colors)
        target = next((cl for cl in cls_list if len(cl) > 1), None)
        if target is None or homogeneous(cls_list):
            order = [i for cl in cls_list for i in cl]
            key = pack_key(n, order, adj_mask)
            if best is None or key < best:
                best = key
            return
        for v in target:
            branched = refine([
                colors[i] * 2 + (0 if i == v else 1) for i in range(n)
            ])
            search(branched)

    search(refine([0] * n))
    assert best is not None
    return best


# -- the Delta-Y closure over every triangle (reference) ---------------------


def petersen_closure_reference(seeds: list[MultiGraph]) -> tuple[FamilyMember, ...]:
    classes: dict[bytes, tuple[MultiGraph, tuple[str, ...]]] = {}
    for i, seed in enumerate(seeds):
        classes.setdefault(canonical_form_reference(seed),
                           (seed, (seed.name or f"seed{i}",)))
    level = list(classes.values())
    while level:
        size = len(classes)
        for g, derivation in level:
            for tri in triangles(g):
                child = delta_y(g, tri)
                classes.setdefault(canonical_form_reference(child),
                                   (child, derivation + ("dY(%d,%d,%d)" % tri,)))
        level = list(classes.values())[size:]
    family_names = {bytes.fromhex(key): name for key, name, _ in _FAMILY}
    shared = Counter(g.n for g, _ in classes.values())
    named = Counter(g.n for key, (g, _) in classes.items() if key in family_names)
    members = []
    for key, (g, derivation) in sorted(classes.items(), key=lambda kv: (kv[1][0].n, kv[0])):
        name = family_names.get(key)
        if name is None:
            name = f"P{g.n}" + (chr(ord("a") + named[g.n]) if shared[g.n] > 1 else "")
            named[g.n] += 1
        members.append(FamilyMember(name, g, key, derivation))
    return tuple(members)


# -- the circuit-pair index, per pair (reference) ------------------------------


def _traversal_signs_reference(endpoints, circuit) -> list[tuple[int, int]]:
    out = []
    for v, eid in zip(circuit.vertex_seq, circuit.edge_ids):
        ends = endpoints.get(eid)
        if ends is None:
            raise GraphError(f"circuit edge {eid} is not in the diagram")
        out.append((eid, 1 if v == ends[0] else -1))
    return out


def pair_index_reference(endpoints, pairs) -> PairIndex:
    pairs = tuple(pairs)
    position: dict[int, int] = {}
    signs: list[tuple[tuple[int, int], ...]] = []
    slots = []
    for j, k in pairs:
        if not set(j.vertex_seq).isdisjoint(k.vertex_seq):
            raise GraphError("circuits share a vertex; linking is undefined")
        for c in (j, k):
            if id(c) not in position:
                position[id(c)] = len(signs)
                signs.append(tuple(_traversal_signs_reference(endpoints, c)))
        slots.append((position[id(j)], position[id(k)]))
    return PairIndex(endpoints, pairs, tuple(signs), tuple(slots))


# -- the lk table by way of a crossing matrix (reference) ----------------------


def crossing_matrix_reference(records) -> dict:
    """L[e][f] = (signed sum, count) of the crossings where strand e passes
    over f; strand pairs with no such crossing are absent."""
    matrix: dict = {}
    for key_s, _, _, _, key_t, _, _, _, over, sign in records:
        if over == 0:
            e, f = key_s, key_t
        elif over == 1:
            e, f = key_t, key_s
        else:
            raise AssertionError(f"crossing record with over {over!r}; kernel bug")
        if sign != 1 and sign != -1:
            raise AssertionError(f"crossing record with sign {sign!r}; kernel bug")
        row = matrix.get(e)
        if row is None:
            row = matrix[e] = {}
        cell = row.get(f)
        row[f] = (sign, 1) if cell is None else (cell[0] + sign, cell[1] + 1)
    return matrix


def link_tables_reference(diagrams, index: PairIndex) -> list[list[int]]:
    """Per diagram, lk(J, K) of every pair: each J's rows of its crossing
    matrix merged into one signed row, and lk(J, K) summed over K's edges
    in it; AssertionError if a pair's count of J over K is not of lk's
    parity."""
    if any(d.edge_endpoints != index.endpoints for d in diagrams):
        raise GraphError("the diagrams project different graphs")
    signs = index.signs
    tables = []
    for diagram in diagrams:
        matrix = crossing_matrix_reference(diagram.crossings)
        rows: list = [None] * len(signs)
        table = []
        for j, k in index.slots:
            row = rows[j]
            if row is None:
                row = rows[j] = {}
                for e, sign_e in signs[j]:
                    for f, (signed, count) in matrix.get(e, {}).items():
                        acc = row.setdefault(f, [0, 0])
                        acc[0] += sign_e * signed
                        acc[1] += count
            lk = count = 0
            for f, sign_f in signs[k]:
                acc = row.get(f)
                if acc is not None:
                    lk += sign_f * acc[0]
                    count += acc[1]
            if (lk ^ count) & 1:
                raise AssertionError("omega parity disagrees with lk; kernel bug")
            table.append(lk)
        tables.append(table)
    return tables


# -- the crossing kernel with a full test per segment pair (reference) ---------


def strand_crossings_reference(strands, direction: Point3,
                               markers: Iterable[Point3] = ()) -> tuple[tuple, ...]:
    marker_list = list(markers)
    # every distinct point once, numbered in order of first appearance
    ids: dict[Point3, int] = {}
    for _, pts in strands:
        for p in pts:
            ids.setdefault(p, len(ids))
    for m in marker_list:
        ids.setdefault(m, len(ids))
    cleared = _clear_denominators(ids)
    (d,) = _clear_denominators([direction])
    (ux, uy, uz), (vx, vy, vz) = projection_frame(d)
    dx, dy, dz = d
    xs, ys, hs = [], [], []
    for x, y, z in cleared:
        xs.append(ux * x + uy * y + uz * z)
        ys.append(vx * x + vy * y + vz * z)
        hs.append(dx * x + dy * y + dz * z)

    # (key, index, a, b, ax, ay, ah, bx, by, bh) with point ids a, b
    segs = []
    for key, pts in strands:
        chain = [ids[p] for p in pts]
        for idx, (a, b) in enumerate(zip(chain, chain[1:])):
            if xs[a] == xs[b] and ys[a] == ys[b]:
                raise NonRegularProjection(
                    f"segment {idx} of strand {key} is seen end-on")
            segs.append((key, idx, a, b, xs[a], ys[a], hs[a], xs[b], ys[b], hs[b]))

    marker_ids = [ids[m] for m in marker_list]
    images: dict[tuple[int, int], int] = {}
    for m in marker_ids:
        if images.setdefault((xs[m], ys[m]), m) != m:
            raise NonRegularProjection("two vertices project to the same point")
    for m in marker_ids:
        mx, my = xs[m], ys[m]
        for _, _, a, b, ax, ay, _, bx, by, _ in segs:
            if m == a or m == b:
                continue
            if (bx - ax) * (my - ay) == (by - ay) * (mx - ax) and \
                    min(ax, bx) <= mx <= max(ax, bx) and min(ay, by) <= my <= max(ay, by):
                raise NonRegularProjection("a vertex projects onto an edge")

    records: list[tuple] = []
    seen_points: set[tuple[int, int, int]] = set()
    for i, (key_s, idx_s, sa, sb, ax, ay, ah, bx, by, bh) in enumerate(segs):
        ex, ey = bx - ax, by - ay
        for key_t, idx_t, ta, tb, cx, cy, ch, fx, fy, fh in segs[i + 1:]:
            if sa == ta or sa == tb or sb == ta or sb == tb:
                if (sa == ta or sa == tb) and (sb == ta or sb == tb):
                    raise NonRegularProjection("coincident segments")
                # image-collinear and on the same side of the shared point
                if sa == ta or sa == tb:
                    px, py, qx, qy = ax, ay, bx, by
                else:
                    px, py, qx, qy = bx, by, ax, ay
                rx, ry = (fx, fy) if sa == ta or sb == ta else (cx, cy)
                if (qx - px) * (ry - py) == (qy - py) * (rx - px) and \
                        (qx - px) * (rx - px) + (qy - py) * (ry - py) > 0:
                    raise NonRegularProjection(
                        "segments sharing an endpoint overlap in projection")
                continue
            o1 = ex * (cy - ay) - ey * (cx - ax)
            o2 = ex * (fy - ay) - ey * (fx - ax)
            if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
                continue
            gx, gy = fx - cx, fy - cy
            o3 = gx * (ay - cy) - gy * (ax - cx)
            o4 = gx * (by - cy) - gy * (bx - cx)
            if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
                continue
            if o1 == 0 and o2 == 0:
                # collinear images: regular only if the ranges are disjoint,
                # which the strict-separation tests above could not see
                if abs(ex) + abs(gx) >= abs(ey) + abs(gy):
                    overlap = _overlap_1d(ax, bx, cx, fx)
                else:
                    overlap = _overlap_1d(ay, by, cy, fy)
                if overlap:
                    raise NonRegularProjection("collinear overlapping segments")
                continue
            if not (o1 * o2 < 0 and o3 * o4 < 0):
                raise NonRegularProjection("tangential contact between segments")
            # parameters n/w with w > 0: o3/(o3 - o4) along s, o1/(o1 - o2) along t
            n_s, w_s = (o3, o3 - o4) if o3 > 0 else (-o3, o4 - o3)
            n_t, w_t = (o1, o1 - o2) if o1 > 0 else (-o1, o2 - o1)
            px = ax * w_s + n_s * ex
            py = ay * w_s + n_s * ey
            g = math.gcd(px, py, w_s)
            point = (px // g, py // g, w_s // g)
            if point in seen_points:
                raise NonRegularProjection("triple point")
            seen_points.add(point)
            depth_s = (ah * w_s + n_s * (bh - ah)) * w_t
            depth_t = (ch * w_t + n_t * (fh - ch)) * w_s
            if depth_s == depth_t:
                raise EmbeddingError("strand segments intersect in space")
            over = 0 if depth_s > depth_t else 1
            # o2 - o1 is the image cross product of the s and t tangents
            positive = (o2 > o1) == (over == 0)
            records.append((key_s, idx_s, n_s, w_s, key_t, idx_t, n_t, w_t,
                            over, 1 if positive else -1))
    return tuple(records)
