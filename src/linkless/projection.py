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
images in gcd-reduced homogeneous coordinates.  The exact rationals
``StrandRef.t`` and ``Crossing.point`` are formed only when read.

Each diagram builds, on first use, an edge-pair crossing matrix: for every
edge e and every edge f it passes over, the signed sum and the number of
those crossings.  lk(J, K) is then the sum of s_J(e) s_K(f) L[e][f] over
the |J| |K| edge pairs, with s the traversal signs, instead of a scan of
the whole crossing list for every circuit pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .circuits import Circuit
from .embedding import EmbeddingError, SpatialEmbedding
from .geometry import Point2, Point3, _overlap_1d, projection_frame
from .multigraph import GraphError


class NonRegularProjection(RuntimeError):
    """The projection direction is degenerate for this configuration."""


@dataclass(frozen=True)
class StrandRef:
    strand: object  # edge id for graph diagrams, loop index for loop pairs
    segment: int
    t_num: int  # the parameter along the segment is t_num / t_den,
    t_den: int  # strictly between 0 and 1; t_den > 0

    @property
    def t(self) -> Fraction:
        return Fraction(self.t_num, self.t_den)


@dataclass(frozen=True)
class Crossing:
    first: StrandRef
    second: StrandRef
    over: int  # 0 when `first` is nearer the viewer, 1 when `second` is
    sign: int  # right-handed sign for the strands' stored directions
    image: tuple[int, int, int, int]  # the point is (image[0]/image[1], image[2]/image[3])

    @property
    def point(self) -> Point2:
        x, wx, y, wy = self.image
        return (Fraction(x, wx), Fraction(y, wy))

    @property
    def over_strand(self):
        return (self.first if self.over == 0 else self.second).strand

    @property
    def under_strand(self):
        return (self.second if self.over == 0 else self.first).strand


def _clear_denominators(points: Iterable[Point3]) -> tuple[int, list[tuple[int, int, int]]]:
    """(q, [p * q]) for the least positive integer q making every point integral."""
    points = list(points)
    q = math.lcm(*{c.denominator for p in points for c in p})
    return q, [tuple(c.numerator * (q // c.denominator) for c in p) for p in points]


def strand_crossings(
    strands: Sequence[tuple[object, Sequence[Point3], bool]],
    direction: Point3,
    markers: Iterable[Point3] = (),
) -> tuple[Crossing, ...]:
    """All transversal crossings between strand images, or NonRegularProjection.

    Strands are (key, points, closed) triples; closed strands get a wrap
    segment from their last point to their first.  Markers are points
    (vertex locations) that must not land on any segment image they are
    not an endpoint of.
    """
    marker_list = list(markers)
    # every distinct point once, numbered in order of first appearance
    ids: dict[Point3, int] = {}
    for _, pts, _ in strands:
        for p in pts:
            ids.setdefault(p, len(ids))
    for m in marker_list:
        ids.setdefault(m, len(ids))
    scale, cleared = _clear_denominators(ids)
    dscale, (d,) = _clear_denominators([direction])
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

    # a crossing image at (X/W, Y/W) in the cleared frame is the point
    # (X/(W kq), Y/(W k^2 q)) in the frame of `direction`, where q is the
    # point scale and the frame vectors u, v scale by k and k^2
    x_unit, y_unit = dscale * scale, dscale * dscale * scale
    crossings: list[Crossing] = []
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
            crossings.append(Crossing(
                StrandRef(key_s, idx_s, n_s, w_s),
                StrandRef(key_t, idx_t, n_t, w_t),
                over,
                1 if positive else -1,
                (point[0], point[2] * x_unit, point[1], point[2] * y_unit),
            ))
    return tuple(crossings)


@dataclass(frozen=True)
class ProjectedDiagram:
    """Crossing data of one regular projection of an embedded graph."""

    direction: Point3
    edge_endpoints: Mapping[int, tuple[int, int]]
    crossings: tuple[Crossing, ...]

    @cached_property
    def crossing_matrix(self) -> dict[int, dict[int, tuple[int, int]]]:
        """L[e][f] = (signed sum, count) of the crossings where e passes over f.

        Edge pairs with no such crossing are absent.
        """
        matrix: dict[int, dict[int, tuple[int, int]]] = {}
        for c in self.crossings:
            row = matrix.setdefault(c.over_strand, {})
            signed, count = row.get(c.under_strand, (0, 0))
            row[c.under_strand] = (signed + c.sign, count + 1)
        return matrix


def project(emb: SpatialEmbedding, direction: Point3) -> ProjectedDiagram:
    """Project an embedding along a direction; the projection must be regular."""
    strands = [
        (e.id, emb.edge_paths[e.id], False)
        for e in sorted(emb.graph.edges, key=lambda e: e.id)
    ]
    markers = [emb.vertex_points[v] for v in sorted(emb.graph.vertices)]
    crossings = strand_crossings(strands, direction, markers)
    endpoints = {e.id: (e.u, e.v) for e in emb.graph.edges}
    return ProjectedDiagram(direction, endpoints, crossings)


def _traversal_signs(diagram: ProjectedDiagram, circuit: Circuit) -> dict[int, int]:
    # +1 where the circuit walks an edge in its stored path direction (u to v)
    out: dict[int, int] = {}
    for v, eid in zip(circuit.vertex_seq, circuit.edge_ids):
        ends = diagram.edge_endpoints.get(eid)
        if ends is None:
            raise GraphError(f"circuit edge {eid} is not in the diagram")
        out[eid] = 1 if v == ends[0] else -1
    return out


def _check_disjoint(j: Circuit, k: Circuit) -> None:
    if not j.is_disjoint_from(k):
        raise GraphError("circuits share a vertex; linking is undefined")


def linking_number(diagram: ProjectedDiagram, j: Circuit, k: Circuit) -> int:
    """lk(J, K): signed count of crossings where J passes over K."""
    _check_disjoint(j, k)
    sig_j = _traversal_signs(diagram, j)
    sig_k = _traversal_signs(diagram, k)
    matrix = diagram.crossing_matrix
    total = 0
    for e, sign_e in sig_j.items():
        row = matrix.get(e)
        if row:
            for f, sign_f in sig_k.items():
                cell = row.get(f)
                if cell:
                    total += cell[0] * sign_e * sign_f
    return total


def omega_pair(diagram: ProjectedDiagram, j: Circuit, k: Circuit) -> int:
    """lk(J, K) mod 2: parity of the crossings where J passes over K."""
    _check_disjoint(j, k)
    for eid in j.edge_ids + k.edge_ids:
        if eid not in diagram.edge_endpoints:
            raise GraphError(f"circuit edge {eid} is not in the diagram")
    matrix = diagram.crossing_matrix
    count = 0
    for e in j.edge_ids:
        row = matrix.get(e)
        if row:
            for f in k.edge_ids:
                cell = row.get(f)
                if cell:
                    count += cell[1]
    return count & 1

