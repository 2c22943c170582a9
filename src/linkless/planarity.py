"""Planarity with checkable certificates.

``planar_rotation`` runs the left-right planarity test (de Fraysseix,
Ossona de Mendez and Rosenstiehl, in the form of Brandes, "The Left-Right
Planarity Test", 2009) on the simple reduction of a graph.  For a planar
graph it returns a rotation system: the cyclic order of the neighbours
around each vertex in a plane embedding.  All three depth-first passes
(orientation, testing, embedding) keep explicit stacks, so long paths and
wheels with thousands of vertices pass.

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
    return _rotation({v: sorted(gs.neighbors(v)) for v in gs.vertices})


def apex_rotation(adj: Mapping[int, list[int]], apex: int) -> dict[int, tuple[int, ...]] | None:
    """``planar_rotation`` of a simple graph minus the vertex ``apex``.

    The graph is given by ``adj``, its sorted neighbour lists, so a caller
    that tries many apex candidates builds the adjacency once and no graph
    per candidate.
    """
    return _rotation({v: [w for w in ws if w != apex] for v, ws in adj.items() if v != apex})


def _rotation(adj: dict[int, list[int]]) -> dict[int, tuple[int, ...]] | None:
    """The left-right test on sorted neighbour lists, after the edge bound."""
    n, m = len(adj), sum(map(len, adj.values())) // 2
    if n >= 3 and m > 3 * n - 6:
        return None
    return _LeftRight(adj).run()


# -- the left-right test -------------------------------------------------------
#
# Edges are directed pairs (v, w) once the first pass has oriented them: tree
# edges point away from the DFS root, back edges point to an ancestor.  Names
# follow Brandes (2009).


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
