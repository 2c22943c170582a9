"""Independent brute-force oracles used only by the test suite.

Everything here deliberately avoids the library's own algorithms: circuits
are found by checking every vertex subset for Hamiltonian cycles,
crossings from solving each segment pair in Fractions, and linking numbers
from the numeric Gauss integral.  The exhaustive delete/contract minor
oracle and its all-permutations isomorphism key ship with acceptance
criterion 7 in ``linkless.acceptance``; tests import them from there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

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
