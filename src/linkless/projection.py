"""Regular projections of PL embeddings and diagrammatic linking numbers.

Projecting along a direction sends each point p to (u.p, v.p) where
(u, v, direction) is a right-handed frame; depth along the direction
decides which strand passes over at a crossing.  A projection is regular
when all strand images meet only in transversal double points away from
every vertex; anything else (a segment seen end-on, a tangency, a triple
point, a vertex over an edge) raises NonRegularProjection and the caller
picks another direction.

A strand is a (key, points) pair, an open polyline; a closed loop
repeats its first point at the end.  Every segment pair is tested once,
and that test also catches a vertex that ends a drawn segment and lands
on a segment it does not end, or on another such vertex: the two
segments then touch without crossing, overlap on a line, or leave a
common end the same way, and each of these raises.  Only the vertices
on no strand (isolated vertices) need a check of their own, as markers.

Crossing signs follow the right-hand convention: positive when the
over-strand's image tangent followed by the under-strand's is a positively
oriented plane basis.  Signs are stored for the strands' own path
directions; circuit orientations flip them per traversed edge.

The crossing kernel works in integers only, in two halves.  A
`strand_layout`, free of the direction, numbers the distinct points,
clears their denominators by one positive scale (an orientation-preserving
affine change that keeps every crossing, its parameters, over/under and
sign), records each segment as two point ids, flags coincident segments
and lists, per segment, the later ones sharing no end with it.  A
`crossing_pass` only reads its layout: it projects each point once and
gives each segment the image orientations of all points against its
line, off which a pair reads its four.  Only a flat segment, one with a
zero off its own ends, lets a pair with a zero orientation touch or
overlap in the image; otherwise the zero is a shared end, so a pass
visits the pairs sharing an end only when some segment is flat.  Depth
order is decided by integer cross-multiplication.  Three images meet in
a point exactly when the first of the segments has two crossings at one
parameter n/w: a repeat of the correctly rounded float n/w, confirmed exactly.

`crossing_pass` emits each crossing as one record of ten integers (the
two segments, the parameter along each, over/under and sign).  A layout
also carries each strand key's ends, the (u, v) graph vertices it runs
between, and a `ProjectedDiagram` is `project(layout, direction)`: the
records as they are and those ends, edge ids as strand keys.  Every
diagram in the package is drawn by `project`.

A one-edge reroute is drawn from `embedding_layout(emb, (eid, path))`:
the embedding's strands and, last, the new path, keyed `new_path_key`
(one above every edge id) with the ends of edge eid.  That one diagram
holds both embeddings and the loop D of the old and new paths: circuits
read through the old edge's id see the embedding before the reroute,
circuits with the new path's key in its place see it after, and D is the
two-edge circuit of both.  The pass tests every segment pair that either
embedding's own pass tests, so it is regular only when both are; it may
also raise when both are, where the old and new paths meet irregularly
in the image or a crossing on one has the image of a crossing on the
other.

`link_tables` reads lk of every circuit pair in one pass over each
diagram's records, and is the one place that reads over/under and signs
off them and checks a pair's crossing parity against lk mod 2.  Its
traversal signs depend only on the graph, so a
`PairIndex` holds them with the pairs, built once per graph
(``omega.graph_pairs``) at a cost per distinct circuit, not per pair.
`linking_number` and `omega_pair` are one-pair calls of it, and so is
``omega.loop_pair_link``, which draws two loops as one-edge circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .circuits import Circuit
from .embedding import EmbeddingError, SpatialEmbedding
from .geometry import GeometryError, Point3, _overlap_1d, check_direction, projection_frame
from .multigraph import GraphError, MultiGraph


class NonRegularProjection(RuntimeError):
    """The projection direction is degenerate for this configuration."""


def _clear_denominators(points: Iterable[Point3]) -> list[tuple[int, int, int]]:
    """[p * q] for the least positive integer q making every point integral
    (all-int points as they are); GeometryError for a non-int, non-Fraction."""
    points = list(points)
    kinds = set(map(type, chain.from_iterable(points)))
    if kinds <= {int}:
        return points
    if not kinds <= {int, Fraction}:
        raise GeometryError("coordinates must be ints or Fractions")
    q = math.lcm(*{c.denominator for p in points for c in p})
    return [tuple(c.numerator * (q // c.denominator) for c in p) for p in points]


# One crossing as ten integers; see `crossing_pass`.
CrossingRecord = tuple


class StrandLayout(NamedTuple):
    """The direction-free half of the crossing kernel: the distinct points
    (cleared), one (key, index, a, b) record per segment with point ids a,
    b, ``apart[i]``, the later segments sharing no end with segment i, and
    ``ends``, the (u, v) graph ends of each strand key."""

    points: tuple[tuple[int, int, int], ...]
    segments: tuple[tuple[object, int, int, int], ...]
    coincident: bool
    marker_ids: frozenset[int]
    apart: tuple[tuple[int, ...], ...]
    ends: Mapping[object, tuple[int, int]]


def strand_layout(strands: Sequence[tuple[object, Sequence[Point3]]],
                  ends: Mapping[object, tuple[int, int]],
                  markers: Iterable[Point3] = ()) -> StrandLayout:
    """The layout of (key, points) strands with these ``ends``, for
    `crossing_pass`.  Markers are vertex locations that must land on no
    other marker and on no segment image they are not an endpoint of;
    only vertices on no strand need to be passed (see the module
    docstring).  A point that is not three ints or Fractions raises
    GeometryError."""
    ids: dict[Point3, int] = {}
    segs = []
    for key, pts in strands:
        for idx, p in enumerate(pts):
            b = ids.setdefault(p, len(ids))
            if idx:
                segs.append((key, idx - 1, a, b))
            a = b
    marker_ids = frozenset(ids.setdefault(m, len(ids)) for m in markers)
    apart = []
    for i, (_, _, a, b) in enumerate(segs):
        later = []
        for j in range(i + 1, len(segs)):
            _, _, c, d = segs[j]
            if a != c and a != d and b != c and b != d:
                later.append(j)
        apart.append(tuple(later))
    return StrandLayout(tuple(_clear_denominators(ids)), tuple(segs),
                        len({(a, b) if a < b else (b, a) for _, _, a, b in segs}) < len(segs),
                        marker_ids, tuple(apart), ends)


def crossing_pass(layout: StrandLayout, direction: Point3) -> tuple[CrossingRecord, ...]:
    """All transversal crossings between the images of the layout's strands
    along ``direction``, or NonRegularProjection; the layout is only read.

    Each crossing is a record (strand_s, segment_s, t_num_s, t_den_s,
    strand_t, segment_t, t_num_t, t_den_t, over, sign): segment s of
    strand_s meets segment t of strand_t at the parameters t_num/t_den
    along each (strictly between 0 and 1, t_den > 0), with s before t in
    segment order.  over is 0 when s is nearer the viewer and 1 when t
    is, and sign is the right-handed sign for the strands' stored
    directions.  A direction that is not three ints or Fractions, or is
    zero, raises GeometryError (`check_direction`).
    """
    (d,) = _clear_denominators([check_direction(direction)])
    (ux, uy, uz), (vx, vy, vz) = projection_frame(d)
    dx, dy, dz = d
    xs, ys, hs = [], [], []
    for x, y, z in layout.points:
        xs.append(ux * x + uy * y + uz * z)
        ys.append(vx * x + vy * y + vz * z)
        hs.append(dx * x + dy * y + dz * z)

    # per segment, the image orientation of every point against its line
    segs, rows = layout.segments, []
    images = list(zip(xs, ys))
    for key, idx, a, b in segs:
        ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
        if ax == bx and ay == by:
            raise NonRegularProjection(
                f"segment {idx} of strand {key} is seen end-on")
        ex, ey = bx - ax, by - ay
        c = ex * ay - ey * ax
        rows.append([ex * y - ey * x - c for x, y in images])
    if layout.coincident:
        raise NonRegularProjection("coincident segments")

    if len({images[m] for m in layout.marker_ids}) < len(layout.marker_ids):
        raise NonRegularProjection("two vertices project to the same point")
    for m in layout.marker_ids:
        mx, my = images[m]
        for (_, _, a, b), row in zip(segs, rows):
            if m != a and m != b and row[m] == 0 and min(xs[a], xs[b]) <= mx <= max(
                    xs[a], xs[b]) and min(ys[a], ys[b]) <= my <= max(ys[a], ys[b]):
                raise NonRegularProjection("a vertex projects onto an edge")

    # a zero in a segment's list off its own ends: without one on any
    # segment, a pair with a zero orientation shares an end and is regular,
    # so only the pairs that share no end are visited
    flat = [row.count(0) > 2 for row in rows]
    later = [range(i + 1, len(segs)) for i in range(len(segs))] if True in flat else layout.apart
    records: list[CrossingRecord] = []
    for i, (key_s, idx_s, sa, sb) in enumerate(segs):
        row_s, flat_s = rows[i], flat[i]
        at: dict = {}  # the parameters of s's crossings so far, by float value
        for j in later[i]:
            key_t, idx_t, ta, tb = segs[j]
            o1, o2 = row_s[ta], row_s[tb]
            if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
                continue
            row_t = rows[j]
            o3, o4 = row_t[sa], row_t[sb]
            if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
                continue
            if not (o1 and o2 and o3 and o4):
                if not (flat_s or flat[j]):
                    continue
                if sa == ta or sa == tb or sb == ta or sb == tb:
                    # image-collinear and on the same side of the shared point
                    p, q = (sa, sb) if sa == ta or sa == tb else (sb, sa)
                    r = tb if sa == ta or sb == ta else ta
                    px, py, qx, qy, rx, ry = xs[p], ys[p], xs[q], ys[q], xs[r], ys[r]
                    if (qx - px) * (ry - py) == (qy - py) * (rx - px) and \
                            (qx - px) * (rx - px) + (qy - py) * (ry - py) > 0:
                        raise NonRegularProjection(
                            "segments sharing an endpoint overlap in projection")
                    continue
                if o1 == 0 and o2 == 0:
                    # collinear images: regular only if their ranges are disjoint
                    axis = xs if abs(xs[sb] - xs[sa]) + abs(xs[tb] - xs[ta]) >= \
                        abs(ys[sb] - ys[sa]) + abs(ys[tb] - ys[ta]) else ys
                    if _overlap_1d(axis[sa], axis[sb], axis[ta], axis[tb]):
                        raise NonRegularProjection("collinear overlapping segments")
                    continue
                raise NonRegularProjection("tangential contact between segments")
            # parameters n/w with w > 0: o3/(o3 - o4) along s, o1/(o1 - o2) along t
            n_s, w_s = param = (o3, o3 - o4) if o3 > 0 else (-o3, o4 - o3)
            n_t, w_t = (o1, o1 - o2) if o1 > 0 else (-o1, o2 - o1)
            # a triple point is two crossings of s at one parameter, found by its
            # float (int/int rounds correctly) and confirmed exactly; a parameter
            # that only shares its float is kept as a reduced fraction
            seen = at.setdefault(n_s / w_s, param)
            if seen is not param:
                g = math.gcd(n_s, w_s)
                exact = (n_s // g, w_s // g)
                if seen[0] * w_s == n_s * seen[1] or exact in at:
                    raise NonRegularProjection("triple point")
                at[exact] = exact
            ah, ch = hs[sa], hs[ta]
            depth_s = (ah * w_s + n_s * (hs[sb] - ah)) * w_t
            depth_t = (ch * w_t + n_t * (hs[tb] - ch)) * w_s
            if depth_s == depth_t:
                raise EmbeddingError("strand segments intersect in space")
            over = 0 if depth_s > depth_t else 1
            # o2 - o1 is the image cross product of the s and t tangents
            positive = (o2 > o1) == (over == 0)
            records.append((key_s, idx_s, n_s, w_s, key_t, idx_t, n_t, w_t,
                            over, 1 if positive else -1))
    return tuple(records)


@dataclass(frozen=True)
class ProjectedDiagram:
    """Crossing data of one regular projection of an embedded graph.

    ``crossings`` holds the integer records of `crossing_pass`, with edge
    ids as strand keys, and ``edge_endpoints`` the layout's strand ends.
    """

    direction: Point3
    edge_endpoints: Mapping[int, tuple[int, int]]
    crossings: tuple[CrossingRecord, ...]


def new_path_key(endpoints: Mapping[int, tuple[int, int]]) -> int:
    """The strand key of a rerouted edge's new path: one above every edge id."""
    return max(endpoints) + 1


def embedding_layout(emb: SpatialEmbedding,
                     reroute: tuple[int, Sequence[Point3]] | None = None) -> StrandLayout:
    """The `strand_layout` of an embedding's edges, keyed by id with their
    ends, and of its isolated vertices.  With ``reroute`` = (eid, path),
    a new path of edge eid that meets the old one only at their ends, the
    path is one more strand, last, keyed `new_path_key` with eid's ends."""
    strands = [(e.id, emb.edge_paths[e.id]) for e in emb.graph.edges]
    ends = edge_endpoints(emb.graph)
    if reroute is not None:
        eid, path = reroute
        key = new_path_key(ends)
        strands.append((key, path))
        ends[key] = ends[eid]
    return strand_layout(strands, ends,
                         [emb.vertex_points[v] for v in emb.graph.isolated_vertices])


def project(layout: StrandLayout, direction: Point3) -> ProjectedDiagram:
    """The diagram of a layout along ``direction``, which must be regular."""
    return ProjectedDiagram(direction, layout.ends, crossing_pass(layout, direction))


def _traversal_signs(endpoints: Mapping[int, tuple[int, int]],
                     circuit: Circuit) -> list[tuple[int, int]]:
    # (edge id, +1 where the circuit walks the edge in its stored path direction (u to v))
    out = []
    for v, eid in zip(circuit.vertex_seq, circuit.edge_ids):
        ends = endpoints.get(eid)
        if ends is None:
            raise GraphError(f"circuit edge {eid} is not in the diagram")
        out.append((eid, 1 if v == ends[0] else -1))
    return out


def edge_endpoints(graph: MultiGraph) -> dict[int, tuple[int, int]]:
    """{edge id: (u, v)}: the ends of each edge in its stored direction."""
    return {e.id: (e.u, e.v) for e in graph.edges}


@dataclass(frozen=True)
class PairIndex:
    """Circuit pairs prepared once for `link_tables`.

    ``signs`` holds the traversal signs of each distinct circuit (by
    identity) in order of first appearance, and ``slots`` the positions
    of J and K there for each pair of ``pairs``.  They depend on the
    graph's edge ``endpoints`` only, not on the embedding.
    """

    endpoints: Mapping[int, tuple[int, int]]
    pairs: tuple[tuple[Circuit, Circuit], ...]
    signs: tuple[tuple[tuple[int, int], ...], ...]
    slots: tuple[tuple[int, int], ...]


def pair_index(endpoints: Mapping[int, tuple[int, int]],
               pairs: Iterable[tuple[Circuit, Circuit]]) -> PairIndex:
    """Index vertex-disjoint circuit pairs of the graph with these edge
    endpoints; GraphError if a pair shares a vertex or uses an edge not in
    ``endpoints``.  A distinct circuit (by identity) gets its slot and
    vertex set when it first appears, and its signs once every pair is
    checked."""
    pairs = tuple(pairs)  # keeps every circuit alive, so ids stay unique
    position: dict[int, int] = {}
    distinct: list[Circuit] = []
    vertex_sets: list[frozenset[int]] = []
    slots = []
    for j, k in pairs:
        at_j = position.get(id(j))
        if at_j is None:
            at_j = position[id(j)] = len(distinct)
            distinct.append(j)
            vertex_sets.append(frozenset(j.vertex_seq))
        at_k = position.get(id(k))
        if at_k is None:
            at_k = position[id(k)] = len(distinct)
            distinct.append(k)
            vertex_sets.append(frozenset(k.vertex_seq))
        if not vertex_sets[at_j].isdisjoint(vertex_sets[at_k]):
            raise GraphError("circuits share a vertex; linking is undefined")
        slots.append((at_j, at_k))
    signs = tuple(tuple(_traversal_signs(endpoints, c)) for c in distinct)
    return PairIndex(endpoints, pairs, signs, tuple(slots))


def link_tables(diagrams: Sequence[ProjectedDiagram],
                index: PairIndex) -> list[list[int]]:
    """Per diagram, lk(J, K) of every pair, in one pass over its records.

    The diagrams must be projections of the indexed graph.  Each circuit
    J that comes first in a pair gets one row per diagram, keyed by the
    other strand f of each crossing with an edge e of J: the sum of
    s_J(e) times the sign where e passes over f, and the count of the
    crossings where f passes over e, s the traversal signs.  lk(J, K) is
    then the sum of s_K(f) row[f].signed over the edges f of K.  The
    images of J and K cross an even number of times, so the count of K
    over J must have lk's parity; AssertionError (a kernel bug) if it
    does not, or if a record's over is not 0 or 1 or its sign not +-1
    (a sign times an odd number would keep every parity).
    """
    if any(d.edge_endpoints != index.endpoints for d in diagrams):
        raise GraphError("the diagrams project different graphs")
    signs = index.signs
    holders: dict[int, list[tuple[int, int]]] = {}  # edge: (J slot, s_J(edge)) per J
    for j in {j for j, _ in index.slots}:
        for e, sign_e in signs[j]:
            holders.setdefault(e, []).append((j, sign_e))
    tables: list[list[int]] = []
    for diagram in diagrams:
        rows: list[dict[int, list[int]]] = [{} for _ in signs]
        for key_s, _, _, _, key_t, _, _, _, over, sign in diagram.crossings:
            if over == 0:
                e, f = key_s, key_t
            elif over == 1:
                e, f = key_t, key_s
            else:
                raise AssertionError(f"crossing record with over {over!r}; kernel bug")
            if sign != 1 and sign != -1:
                raise AssertionError(f"crossing record with sign {sign!r}; kernel bug")
            for j, sign_e in holders.get(e, ()):
                acc = rows[j].get(f)
                if acc is None:
                    rows[j][f] = [sign_e * sign, 0]
                else:
                    acc[0] += sign_e * sign
            for j, _ in holders.get(f, ()):
                acc = rows[j].get(e)
                if acc is None:
                    rows[j][e] = [0, 1]
                else:
                    acc[1] += 1
        table = []
        for j, k in index.slots:
            row = rows[j]
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


def linking_number(diagram: ProjectedDiagram, j: Circuit, k: Circuit) -> int:
    """lk(J, K): signed count of crossings where J passes over K."""
    return link_tables([diagram], pair_index(diagram.edge_endpoints, [(j, k)]))[0][0]


def omega_pair(diagram: ProjectedDiagram, j: Circuit, k: Circuit) -> int:
    """lk(J, K) mod 2: parity of the crossings where J passes over K."""
    return linking_number(diagram, j, k) & 1
