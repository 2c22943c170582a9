"""Regular projections of PL embeddings and diagrammatic linking numbers.

Projecting along a direction sends each point p to (u.p, v.p) where
(u, v, direction) is a right-handed frame; depth along the direction
decides which strand passes over at a crossing.  A projection is regular
when all strand images meet only in transversal double points away from
every vertex; anything else (a segment seen end-on, a tangency, a triple
point, a vertex over an edge) raises NonRegularProjection and the caller
picks another direction.

Crossing signs follow the right-hand convention: positive when the
over-strand's image tangent followed by the under-strand's is a positively
oriented plane basis.  Signs are stored for the strands' own path
directions; circuit orientations flip them per traversed edge.

The crossing kernel works in integers only.  Rational inputs have their
denominators cleared once per call: points and direction are each scaled
by a positive integer, an orientation-preserving affine change that keeps
every crossing, its segment parameters, over/under and sign.  Each
distinct point is projected once.  Depth order is decided by integer
cross-multiplication, and triple points are found by hashing crossing
images in gcd-reduced homogeneous coordinates.

`strand_crossings` emits each crossing as one record of ten integers,
(strand_s, segment_s, t_num_s, t_den_s, strand_t, segment_t, t_num_t,
t_den_t, over, sign): the two segments in segment order, the parameter
t_num/t_den along each, which of them passes over, and the sign.  The
image point is used to find triple points and is not kept.  A
`ProjectedDiagram` holds the records as they are, with edge ids as strand
keys.

Over/under is read in one place, `crossing_matrix`: for every strand e
and every strand f it passes over, the signed sum and the number of those
crossings.  Each diagram builds that matrix on first use.  `link_tables`
computes lk and the crossing parity of every circuit pair in one pass:
each J gets one row, the sum of s_J(e) L[e][f] over the edges e of J (s
the traversal signs), and lk(J, K) is the sum of s_K(f) row[f] over the
edges f of K.  `linking_number` and `omega_pair` are one-pair calls of
it, and ``omega.loop_pair_link`` reads cell L[0][1] of two loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .circuits import Circuit
from .embedding import EmbeddingError, SpatialEmbedding
from .geometry import Point3, _overlap_1d, projection_frame
from .multigraph import GraphError


class NonRegularProjection(RuntimeError):
    """The projection direction is degenerate for this configuration."""


def _clear_denominators(points: Iterable[Point3]) -> list[tuple[int, int, int]]:
    """[p * q] for the least positive integer q making every point integral."""
    points = list(points)
    q = math.lcm(*{c.denominator for p in points for c in p})
    return [tuple(c.numerator * (q // c.denominator) for c in p) for p in points]


# One crossing as ten integers; see `strand_crossings`.
CrossingRecord = tuple


def strand_crossings(
    strands: Sequence[tuple[object, Sequence[Point3], bool]],
    direction: Point3,
    markers: Iterable[Point3] = (),
) -> tuple[CrossingRecord, ...]:
    """All transversal crossings between strand images, or NonRegularProjection.

    Strands are (key, points, closed) triples; closed strands get a wrap
    segment from their last point to their first.  Markers are points
    (vertex locations) that must not land on any segment image they are
    not an endpoint of.  Each crossing is a record (strand_s, segment_s,
    t_num_s, t_den_s, strand_t, segment_t, t_num_t, t_den_t, over, sign):
    segment s of strand_s meets segment t of strand_t at the parameters
    t_num/t_den along each (strictly between 0 and 1, t_den > 0), with s
    before t in segment order.  over is 0 when s is nearer the viewer and
    1 when t is, and sign is the right-handed sign for the strands'
    stored directions.
    """
    marker_list = list(markers)
    # every distinct point once, numbered in order of first appearance
    ids: dict[Point3, int] = {}
    for _, pts, _ in strands:
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
    for key, pts, closed in strands:
        chain = [ids[p] for p in pts]
        if closed:
            chain.append(chain[0])
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

    records: list[CrossingRecord] = []
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


def crossing_matrix(
    records: Iterable[CrossingRecord],
) -> dict[object, dict[object, tuple[int, int]]]:
    """L[e][f] = (signed sum, count) of the crossings where strand e passes over f.

    This is the one place that reads over/under.  Strand pairs with no
    such crossing are absent.
    """
    matrix: dict[object, dict[object, tuple[int, int]]] = {}
    for key_s, _, _, _, key_t, _, _, _, over, sign in records:
        e, f = (key_s, key_t) if over == 0 else (key_t, key_s)
        row = matrix.get(e)
        if row is None:
            row = matrix[e] = {}
        cell = row.get(f)
        row[f] = (sign, 1) if cell is None else (cell[0] + sign, cell[1] + 1)
    return matrix


@dataclass(frozen=True)
class ProjectedDiagram:
    """Crossing data of one regular projection of an embedded graph.

    ``crossings`` holds the integer records of `strand_crossings`, with
    edge ids as strand keys.
    """

    direction: Point3
    edge_endpoints: Mapping[int, tuple[int, int]]
    crossings: tuple[CrossingRecord, ...]

    @cached_property
    def crossing_matrix(self) -> dict[int, dict[int, tuple[int, int]]]:
        """`crossing_matrix` of the crossings, built on first use."""
        return crossing_matrix(self.crossings)


def project(emb: SpatialEmbedding, direction: Point3) -> ProjectedDiagram:
    """Project an embedding along a direction; the projection must be regular."""
    strands = [
        (e.id, emb.edge_paths[e.id], False)
        for e in sorted(emb.graph.edges, key=lambda e: e.id)
    ]
    markers = [emb.vertex_points[v] for v in sorted(emb.graph.vertices)]
    endpoints = {e.id: (e.u, e.v) for e in emb.graph.edges}
    crossings = strand_crossings(strands, direction, markers)
    return ProjectedDiagram(direction, endpoints, crossings)


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


def link_tables(diagrams: Sequence[ProjectedDiagram],
                pairs: Iterable[tuple[Circuit, Circuit]]) -> list[list[tuple[int, int]]]:
    """Per diagram, (lk(J, K), parity of the crossings where J passes over K)
    of every pair, in one pass.

    The diagrams must be projections of one graph.  Each circuit's
    traversal signs s are computed once, and each J gets one signed row
    per diagram over the edges f it passes over: the sums of
    s_J(e) L[e][f].signed and of L[e][f].count over the edges e of J.
    lk(J, K) is then the sum of s_K(f) row[f].signed over the edges f of
    K, and the parity that of the summed counts.
    """
    endpoints = diagrams[0].edge_endpoints
    if any(d.edge_endpoints != endpoints for d in diagrams[1:]):
        raise GraphError("the diagrams project different graphs")
    pairs = list(pairs)  # keeps every circuit alive, so ids stay unique
    matrices = [d.crossing_matrix for d in diagrams]
    signs: dict[int, list[tuple[int, int]]] = {}  # by id of the circuit
    rows: list[dict[int, dict[int, list[int]]]] = [{} for _ in diagrams]
    tables: list[list[tuple[int, int]]] = [[] for _ in diagrams]
    for j, k in pairs:
        if not j.vertices.isdisjoint(k.vertices):
            raise GraphError("circuits share a vertex; linking is undefined")
        signs_j = signs.get(id(j))
        if signs_j is None:
            signs_j = signs[id(j)] = _traversal_signs(endpoints, j)
        signs_k = signs.get(id(k))
        if signs_k is None:
            signs_k = signs[id(k)] = _traversal_signs(endpoints, k)
        for matrix, rows_d, table in zip(matrices, rows, tables):
            row = rows_d.get(id(j))
            if row is None:
                row = rows_d[id(j)] = {}
                for e, sign_e in signs_j:
                    cells = matrix.get(e)
                    if cells:
                        for f, (signed, count) in cells.items():
                            acc = row.get(f)
                            if acc is None:
                                row[f] = [sign_e * signed, count]
                            else:
                                acc[0] += sign_e * signed
                                acc[1] += count
            lk = count = 0
            for f, sign_f in signs_k:
                acc = row.get(f)
                if acc is not None:
                    lk += sign_f * acc[0]
                    count += acc[1]
            table.append((lk, count & 1))
    return tables


def linking_number(diagram: ProjectedDiagram, j: Circuit, k: Circuit) -> int:
    """lk(J, K): signed count of crossings where J passes over K."""
    return link_tables([diagram], [(j, k)])[0][0][0]


def omega_pair(diagram: ProjectedDiagram, j: Circuit, k: Circuit) -> int:
    """lk(J, K) mod 2: parity of the crossings where J passes over K."""
    return link_tables([diagram], [(j, k)])[0][0][1]
