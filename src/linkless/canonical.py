"""Canonical forms for small simple graphs.

The key is the lexicographically smallest packed adjacency matrix over all
vertex orderings compatible with an individualization-refinement search:
color classes are refined by neighbor-color multisets, a stuck class is
split by individualizing each member in turn, and the minimum leaf matrix
wins.  Classes that are complete-or-empty toward every other class never
need splitting (any internal permutation is an automorphism), which keeps
complete graphs and their relatives from exploding the search: a complete
or empty graph is one such class at the root, so it packs the identity
order without a branch.  A key is n as one byte, then the matrix's upper
triangle row by row as a big-endian bit string, zero-padded to whole bytes.

The search prunes by automorphisms (McKay 1981).  It records one whenever
a leaf packs a key equal to the best so far: the map from that leaf's
order to the best order keeps every adjacency.  A leaf whose classes are
homogeneous also gives the transpositions inside each of its classes.  A
node skips a child that the recorded automorphisms fixing the node's
individualized vertices map onto a child already explored.  The skipped
subtree is the image of an explored one under an automorphism, so its
leaves pack the same keys and the minimum is the one the full search
finds.  `_canonical_search` returns the recorded automorphisms beside the
key, as vertex maps on the graph's own ids, so that they can be checked;
`canonical_form`, the one public entry, returns the key alone.

Two simple graphs receive equal keys exactly when they are isomorphic.
Intended for the small graphs this package traffics in; hard-limited to
16 vertices.
"""

from __future__ import annotations

from .multigraph import GraphError, MultiGraph

VERTEX_LIMIT = 16
_NODE_LIMIT = 2_000_000


class VertexLimitExceeded(GraphError):
    """Graph too large for exhaustive canonical labeling."""


def canonical_form(g: MultiGraph) -> bytes:
    """Isomorphism-invariant key of the loop-free, parallel-collapsed reduction."""
    return _canonical_search(g)[0]


def _canonical_search(g: MultiGraph) -> tuple[bytes, tuple[dict[int, int], ...], int]:
    """Key, generators and the number of search nodes visited."""
    gs = g.simplified()
    n = gs.n
    if n > VERTEX_LIMIT:
        raise VertexLimitExceeded(f"{n} vertices exceeds the {VERTEX_LIMIT}-vertex limit")
    verts = sorted(gs.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for e in gs.edges:
        nbrs[index[e.u]].append(index[e.v])
        nbrs[index[e.v]].append(index[e.u])
    adj_mask = [sum(1 << j for j in ns) for ns in nbrs]

    best: bytes | None = None
    best_order: list[int] = []
    # automorphisms as index maps, in the order found
    automorphisms: list[tuple[int, ...]] = []
    identity = tuple(range(n))
    nodes = 0

    def record(image: tuple[int, ...]) -> None:
        if image != identity and image not in automorphisms:
            automorphisms.append(image)

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

    def leaf(cls_list: list[list[int]]) -> None:
        nonlocal best, best_order
        order = [i for cl in cls_list for i in cl]
        key = _pack_key(n, order, adj_mask)
        if best is None or key < best:
            best, best_order = key, order
        elif key == best:
            image = [0] * n
            for i, j in zip(order, best_order):
                image[i] = j
            record(tuple(image))
        if len(cls_list) < n:
            for cl in cls_list:
                for v in cl[1:]:
                    swap = list(identity)
                    swap[cl[0]], swap[v] = v, cl[0]
                    record(tuple(swap))

    def search(colors: list[int], path: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_LIMIT:
            raise RuntimeError("canonical labeling search exploded")
        cls_list = classes_of(colors)
        target = next((cl for cl in cls_list if len(cl) > 1), None)
        if target is None or homogeneous(cls_list):
            leaf(cls_list)
            return
        # orbits of the recorded automorphisms that fix the path pointwise,
        # as a union-find forest updated as the children record more
        root = list(range(n))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        used = 0
        explored: list[int] = []
        for v in target:
            for image in automorphisms[used:]:
                if all(image[u] == u for u in path):
                    for i, j in enumerate(image):
                        root[find(i)] = find(j)
            used = len(automorphisms)
            if any(find(v) == find(w) for w in explored):
                continue
            explored.append(v)
            branched = refine([
                colors[i] * 2 + (0 if i == v else 1) for i in range(n)
            ])
            search(branched, path + [v])

    search(refine([0] * n), [])
    assert best is not None
    generators = tuple({verts[i]: verts[j] for i, j in enumerate(image)}
                       for image in automorphisms)
    return best, generators, nodes


def _pack_key(n: int, order: list[int], adj_mask: list[int]) -> bytes:
    bits = 0
    for p in range(n):
        row = adj_mask[order[p]]
        for q in range(p + 1, n):
            bits = bits << 1 | row >> order[q] & 1
    pairs = n * (n - 1) // 2
    size = (pairs + 7) // 8
    return bytes([n]) + (bits << (8 * size - pairs)).to_bytes(size, "big")

