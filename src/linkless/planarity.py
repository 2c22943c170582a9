"""Planarity with checkable certificates.

``planar_rotation`` runs the left-right planarity test (de Fraysseix,
Ossona de Mendez and Rosenstiehl, in the form of Brandes, "The Left-Right
Planarity Test", 2009) on the simple reduction of a graph.  For a planar
graph it returns a rotation system: the cyclic order of the neighbours
around each vertex in a plane embedding.  All three depth-first passes
(orientation, testing, embedding) keep explicit stacks, so long paths and
wheels with thousands of vertices pass.

The passes run on integer-indexed lists, not on dicts keyed by vertex
pairs.  Vertices are numbered 0..n-1 in the order of the adjacency they
are given, and edge ids 0..m-1 in the order the first pass orients them:
tree edges away from the root, back edges towards an ancestor.  Per-vertex
state (``height``, the ``parent`` edge, the ``out`` edges) and per-edge
state (``src``, ``dst``, ``lowpt``, ``lowpt2``, ``nesting``, ``ref``,
``side``, ``lowpt_edge``, ``stack_bottom``) are lists indexed by those
numbers, and -1 stands for "none".  A conflict pair is a 4-slot list
[left.low, left.high, right.low, right.high] of edge ids.  The embedding
pass links half-edges (2e at the tail of edge e, 2e + 1 at its head) into
one ring per vertex.  The depth-first orders, the nesting sort and the
side resolution are those of Brandes' pseudocode, so the rotation system
of a graph depends only on its adjacency lists; ``tests/oracles.py`` keeps
a dict-based version of the test as the reference that it must match.

A ``PlanarCertificate`` is such a rotation system, either of the whole
graph or of the graph minus one apex vertex.  ``planar_certificate_errors``
checks one without sharing any code with the test: every rotation must be
a permutation of the vertex's neighbours, and tracing the faces of the
rotation system must satisfy Euler's formula V - E + F = 2 on every
connected component, which holds exactly for embeddings in the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .multigraph import MultiGraph


@dataclass(frozen=True)
class PlanarCertificate:
    """Certificate that a graph, or the graph minus ``apex``, is planar.

    ``rotation`` maps every remaining vertex to its neighbours in cyclic
    order around it in a plane embedding.
    """

    apex: int | None
    rotation: Mapping[int, tuple[int, ...]]

    def to_json_dict(self) -> dict:
        return {
            "apex": self.apex,
            "rotation": {str(v): list(order) for v, order in sorted(self.rotation.items())},
        }


def planar_certificate_errors(g: MultiGraph, certificate: PlanarCertificate) -> list[str]:
    """All reasons the certificate fails to show planarity (empty if valid)."""
    host = g.simplified()
    apex = certificate.apex
    if apex is not None:
        if apex not in host.vertices:
            return [f"apex vertex {apex} is not a vertex of the graph"]
        host = host.delete_vertex(apex)
    rotation = certificate.rotation
    if set(rotation) != set(host.vertices):
        return ["rotation must list exactly the vertices of the graph"
                + ("" if apex is None else " minus the apex")]

    errors: list[str] = []
    successor: dict[int, dict[int, int]] = {}
    for v in sorted(host.vertices):
        order = list(rotation[v])
        if len(order) != len(set(order)) or set(order) != host.neighbors(v):
            errors.append(f"rotation at {v} is not a permutation of its neighbours")
            continue
        successor[v] = {u: order[(i + 1) % len(order)] for i, u in enumerate(order)}
    if errors:
        return errors

    # each component is named by its smallest vertex, its root
    members = {min(comp): comp for comp in host.connected_components()}
    component = {v: root for root, comp in members.items() for v in comp}

    # a face is an orbit of darts under (u, v) -> (v, successor of u at v)
    faces: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    for u in sorted(host.vertices):
        for v in rotation[u]:
            if (u, v) in seen:
                continue
            faces[component[u]] = faces.get(component[u], 0) + 1
            a, b = u, v
            while (a, b) not in seen:
                seen.add((a, b))
                a, b = b, successor[b][a]

    edges: dict[int, int] = {}
    for e in host.edges:
        edges[component[e.u]] = edges.get(component[e.u], 0) + 1
    for root in sorted(members):
        v_count, e_count = len(members[root]), edges.get(root, 0)
        f_count = faces.get(root, 1)  # an isolated vertex bounds one face
        if v_count - e_count + f_count != 2:
            errors.append(
                f"component of vertex {root}: V - E + F = {v_count} - {e_count} + {f_count}"
                f" = {v_count - e_count + f_count}, not 2")
    return errors


def planar_rotation(g: MultiGraph) -> dict[int, tuple[int, ...]] | None:
    """A rotation system of a plane embedding of g's simple reduction, or None.

    None means the graph is not planar.
    """
    gs = g.simplified()
    labels = list(gs.vertices)
    index = {v: i for i, v in enumerate(labels)}
    return _rotation(labels, [[index[w] for w in sorted(gs.neighbors(v))] for v in labels])


def apex_rotation(adj: Mapping[int, list[int]], apex: int) -> dict[int, tuple[int, ...]] | None:
    """``planar_rotation`` of a simple graph minus the vertex ``apex``.

    The graph is given by ``adj``, its sorted neighbour lists, so a caller
    that tries many apex candidates builds the adjacency once and no graph
    per candidate.
    """
    labels = [v for v in adj if v != apex]
    index = {v: i for i, v in enumerate(labels)}
    return _rotation(labels, [[index[w] for w in ws if w != apex]
                              for v, ws in adj.items() if v != apex])


def _rotation(labels: list[int], nbrs: list[list[int]]) -> dict[int, tuple[int, ...]] | None:
    """The left-right test on numbered vertices, after the edge bound.

    Vertex i is ``labels[i]`` and ``nbrs[i]`` lists its neighbours' numbers
    in the order the depth-first searches take them.
    """
    n, m = len(nbrs), sum(map(len, nbrs)) // 2
    if n >= 3 and m > 3 * n - 6:
        return None
    roots, height, parent, out, src, dst, lowpt, nesting = _orient(labels, nbrs, m)
    ordered = [sorted(es, key=nesting.__getitem__) for es in out]
    sides = _test(roots, ordered, height, parent, src, dst, lowpt)
    if sides is None:
        return None
    return _embed(labels, roots, parent, out, src, dst, nesting, *sides)


# -- the left-right test -------------------------------------------------------
#
# Names follow Brandes (2009); the state layout is in the module docstring.


def _orient(labels: list[int], nbrs: list[list[int]], m: int):
    """Pass 1: orient every edge, with heights, lowpoints and nesting depths.

    Roots are taken in increasing label order.  An edge to a vertex not yet
    reached is a tree edge; one to an ancestor other than the parent is a
    back edge.  The parent and every deeper neighbour have oriented the
    edge already (a depth-first search of an undirected graph has no cross
    edges), so heights alone say which edges are new.
    """
    n = len(nbrs)
    height, parent, pos = [-1] * n, [-1] * n, [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    src, dst, lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m, [0] * m, [0] * m
    e = 0  # the next edge id
    roots = []
    for root in sorted(range(n), key=labels.__getitem__):
        if height[root] >= 0:
            continue
        roots.append(root)
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            ws = nbrs[v]
            i, deg = pos[v], len(ws)
            while i < deg:
                w = ws[i]
                i += 1
                hw = height[w]
                if 0 <= hw and hw >= hv - 1:  # the parent, or deeper
                    continue
                src[e] = v
                dst[e] = w
                out[v].append(e)
                lowpt2[e] = hv
                if hw < 0:  # tree edge: descend, finish it on the way back
                    lowpt[e] = hv
                    parent[w] = e
                    height[w] = hv + 1
                    pos[v] = i
                    stack.append(w)
                    e += 1
                    break
                lowpt[e] = hw  # back edge, done at once
                nesting[e] = 2 * hw
                _pass_up(parent[v], hw, hv, lowpt, lowpt2)
                e += 1
            else:
                stack.pop()
                f = parent[v]
                if f >= 0:
                    u = src[f]
                    nesting[f] = 2 * lowpt[f] + (lowpt2[f] < height[u])
                    if parent[u] >= 0:
                        _pass_up(parent[u], lowpt[f], lowpt2[f], lowpt, lowpt2)
    return roots, height, parent, out, src, dst, lowpt, nesting


def _pass_up(e: int, low: int, low2: int, lowpt: list[int], lowpt2: list[int]) -> None:
    """Merge the lowpoints (low, low2) of an edge out of e's head into e's."""
    if low < lowpt[e]:
        lowpt2[e] = min(lowpt[e], low2)
        lowpt[e] = low
    elif low > lowpt[e]:
        lowpt2[e] = min(lowpt2[e], low)
    else:
        lowpt2[e] = min(lowpt2[e], low2)


def _test(roots: list[int], ordered: list[list[int]], height: list[int], parent: list[int],
          src: list[int], dst: list[int], lowpt: list[int]):
    """Pass 2: the constraints of every edge, as (ref, side), or None if not planar.

    A conflict pair on the stack ``conflicts`` is a list [left.low,
    left.high, right.low, right.high] of edge ids, -1 for none, and a side
    is empty when both its slots are -1.  A pair is changed in place, as
    ``stack_bottom`` compares pairs by identity.
    """
    m = len(src)
    ref, side, lowpt_edge, stack_bottom = [-1] * m, [1] * m, [-1] * m, [None] * m
    conflicts: list[list[int]] = []

    def add_constraints(ei: int, e: int) -> bool:
        pll = plh = prl = prh = -1
        low_e, bottom = lowpt[e], stack_bottom[ei]
        # merge the return edges of ei into the right side of the new pair
        while True:
            ll, lh, rl, rh = conflicts.pop()
            if ll >= 0 or lh >= 0:
                ll, lh, rl, rh = rl, rh, ll, lh
                if ll >= 0 or lh >= 0:
                    return False
            if lowpt[rl] > low_e:
                if prl < 0 and prh < 0:
                    prh = rh
                else:
                    ref[prl] = rh
                prl = rl
            else:  # align
                ref[rl] = lowpt_edge[e]
            if (conflicts[-1] if conflicts else None) is bottom:
                break
        # merge the conflicting return edges of earlier edges into its left side
        low_i = lowpt[ei]
        while conflicts:
            ll, lh, rl, rh = conflicts[-1]
            if not (lh >= 0 and lowpt[lh] > low_i or rh >= 0 and lowpt[rh] > low_i):
                break
            conflicts.pop()
            if rh >= 0 and lowpt[rh] > low_i:
                ll, lh, rl, rh = rl, rh, ll, lh
                if rh >= 0 and lowpt[rh] > low_i:
                    return False
            if prl >= 0:
                ref[prl] = rh
            if rl >= 0:
                prl = rl
            if pll < 0 and plh < 0:
                plh = lh
            else:
                ref[pll] = lh
            pll = ll
        if pll >= 0 or plh >= 0 or prl >= 0 or prh >= 0:
            conflicts.append([pll, plh, prl, prh])
        return True

    def trim_back_edges(u: int) -> None:
        """Drop the back edges that end at u, the parent of the edge just done."""
        hu = height[u]
        while conflicts:
            ll, lh, rl, rh = conflicts[-1]
            if ll < 0 and lh < 0:
                lowest = lowpt[rl]
            elif rl < 0 and rh < 0:
                lowest = lowpt[ll]
            else:
                lowest = min(lowpt[ll], lowpt[rl])
            if lowest != hu:
                break
            conflicts.pop()
            if ll >= 0:
                side[ll] = -1
        if not conflicts:
            return
        p = conflicts[-1]
        ll, lh, rl, rh = p
        while lh >= 0 and dst[lh] == u:
            lh = ref[lh]
        if lh < 0 and ll >= 0:  # just emptied
            ref[ll] = rl
            side[ll] = -1
            ll = -1
        while rh >= 0 and dst[rh] == u:
            rh = ref[rh]
        if rh < 0 and rl >= 0:
            ref[rl] = ll
            side[rl] = -1
            rl = -1
        p[:] = ll, lh, rl, rh

    pos = [0] * len(ordered)
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            es = ordered[v]
            i = pos[v]
            if i < len(es):
                ei = es[i]
                stack_bottom[ei] = conflicts[-1] if conflicts else None
                if parent[dst[ei]] == ei:  # tree edge: descend
                    stack.append(dst[ei])
                    continue
                lowpt_edge[ei] = ei
                conflicts.append([-1, -1, ei, ei])
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                v = src[ei]
                trim_back_edges(v)
                if lowpt[ei] < height[v]:  # ei goes on the side of its highest return edge
                    hl, hr = conflicts[-1][1], conflicts[-1][3]
                    ref[ei] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr
                i = pos[v]
            pos[v] = i + 1
            # add the constraints of ei, the i-th outgoing edge of v
            if lowpt[ei] < height[v]:  # ei has a return edge
                e = parent[v]
                if i == 0:
                    lowpt_edge[e] = lowpt_edge[ei]
                elif not add_constraints(ei, e):
                    return None
    return ref, side


def _embed(labels: list[int], roots: list[int], parent: list[int], out: list[list[int]],
           src: list[int], dst: list[int], nesting: list[int], ref: list[int],
           side: list[int]) -> dict[int, tuple[int, ...]]:
    """Pass 3: the rotation system, from the sides and the signed nesting depths.

    The cyclic order around each vertex is a doubly linked ring of half-edges:
    2e is edge e at its tail, 2e + 1 at its head.
    """
    m = len(src)
    for e in range(m):  # resolve each side through its chain of references
        if ref[e] >= 0:
            chain = [e]
            f = ref[e]
            while ref[f] >= 0:
                chain.append(f)
                f = ref[f]
            s = side[f]
            for f in reversed(chain):
                s *= side[f]
                side[f] = s
                ref[f] = -1
        nesting[e] *= side[e]
    nxt, prv, first = [0] * (2 * m), [0] * (2 * m), [-1] * len(out)
    ordered = []
    for v, es in enumerate(out):
        es = sorted(es, key=nesting.__getitem__)
        ordered.append(es)
        if es:
            ring = [2 * e for e in es]
            first[v] = ring[0]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                nxt[a] = b
                prv[b] = a

    left_ref, right_ref, pos = [0] * len(out), [0] * len(out), [0] * len(out)
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            i = pos[v]
            if i == len(ordered[v]):
                stack.pop()
                continue
            pos[v] = i + 1
            e = ordered[v][i]
            w, h = dst[e], 2 * e + 1
            if parent[w] == e:  # tree edge: v goes first at w
                a = first[w]
                first[w] = h
                left_ref[v] = right_ref[v] = 2 * e
                stack.append(w)
                if a < 0:
                    nxt[h] = prv[h] = h
                    continue
                a = prv[a]
            elif side[e] == 1:  # back edge on the right
                a = right_ref[w]
            else:  # back edge on the left
                a = prv[left_ref[w]]
                left_ref[w] = h
            b = nxt[a]
            nxt[a], prv[h], nxt[h], prv[b] = h, a, b, h

    tip = [0] * (2 * m)  # the label at the far end of each half-edge
    tip[0::2] = [labels[w] for w in dst]
    tip[1::2] = [labels[v] for v in src]
    rotation = {}
    for v, h in enumerate(first):
        order = []
        if h >= 0:
            while True:
                order.append(tip[h])
                h = nxt[h]
                if h == first[v]:
                    break
        rotation[labels[v]] = tuple(order)
    return rotation
