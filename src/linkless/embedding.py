"""Exact piecewise-linear spatial embeddings of simple graphs.

Vertices sit at exact rational points, edges run along polylines whose
endpoints are the vertex positions, and every coordinate is an int or a
Fraction (any other raises EmbeddingError).  Construction validates the
full set of embedding invariants exactly: distinct vertex locations, no
polyline self-intersections, pairwise-disjoint open edge paths meeting
only at shared endpoint vertices, and no vertex lying on a foreign edge.

Beyond the whole-graph checks, one routine, `_check_edge`, checks one
path: on its own, against the isolated vertices, and against a given set
of other paths.  Construction runs it for each edge against the edges
with smaller ids, so every pair of paths is checked once, and the
embedding keeps the segment records those checks built, per path in id
order.  An embedding is immutable (its maps are read-only), so
`reroute_edge` runs the routine only for the moved edge, against the
stored records of the other E - 1 paths, and stores the new path's
records in the result.  `random_detour` draws a reroute check's detour:
it reroutes, then walks the new path's stored records against the old
path's alone, so each drawn arc is checked once.

Before that walk, `_general_position` may certify the embedding at once.
It lists the N points of the embedding, the vertex points (isolated
vertices included) and every waypoint as often as it occurs, and accepts
when every path runs from its u point to its v point, N >= 4 and no four
listed points are coplanar.  A point listed twice lies in a coplanar
quadruple, so every waypoint then differs from every vertex point and
every other waypoint, and every check of the walk would pass.  Two
segments with four distinct ends are not coplanar, so they cannot meet;
two with a common end are not collinear, so they meet only there (and a
common end is a vertex point, so an end of both paths).  The certificate
runs only where C(N, 4) <= C(S, 2) for S segments, so that it costs
fewer orientation tests than the walk has segment pairs: a straight K6
takes 15 against 105 pairs, while the Petersen graph drawn straight
(210 against 105) walks.  When it declines, the walk runs as before;
the walk alone rejects and words the errors.  A certified embedding has
no walk records, so it builds them on first use (`random_detour` and
`reroute_edge` read them; `omega` never does).

The pair check, `_check_against`, is one flat walk over segment records
that `_segments` builds once per path: the ends, the bounding box, the
direction u = b - a, the moment a x u, and whether a and b are end
points of the path.  It takes the other paths in id order and their
segment pairs in path order, the smaller id's path outermost, and
decides every pair inline, with no call per pair.  Two segments whose
bounding boxes are strictly apart on some axis share no point.  Two
segments with a common end point may share it only when it is an end of
both paths (the two flags), and then meet beyond it only when they leave
it in the same direction (one cross product, one dot product).  Two
segments with no common end point that are not coplanar share no point;
the orientation determinant det[u1, a2 - a1, u2] is u1 . m2 + u2 . m1 in
the moments.  Only coplanar pairs go to `segments3_intersect`.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .geometry import (
    Point3,
    format_point,
    is_exact,
    normalize_rat,
    parse_point,
    point_on_segment3,
    segments3_intersect,
    shared_endpoint_segments_overlap,
)
from .multigraph import (
    Edge,
    MultiGraph,
    builtin_name,
    builtin_size,
    format_edge_list,
    parse_graph,
)

COORDINATE_BOUND = 10**6  # random vertices live in a cube of side 2e6
RETRY_LIMIT = 64
MISSING_LISTED = 5  # edge ids an error about missing paths names


class EmbeddingError(ValueError):
    """An embedding invariant is violated."""


class RetryLimitExceeded(RuntimeError):
    """Could not find a valid random configuration within the retry limit."""


def _norm_point(p) -> Point3:
    if (type(p) is tuple and len(p) == 3
            and type(p[0]) is int and type(p[1]) is int and type(p[2]) is int):
        return p  # already exact and normal
    if not isinstance(p, tuple) or len(p) != 3:
        p = tuple(p)
        if len(p) != 3:
            raise EmbeddingError(f"a point needs three coordinates: {p!r}")
    if not all(map(is_exact, p)):
        raise EmbeddingError(f"coordinates must be ints or Fractions: {p!r}")
    return tuple(normalize_rat(c) for c in p)  # type: ignore[return-value]


@dataclass(frozen=True)
class SpatialEmbedding:
    graph: MultiGraph
    vertex_points: Mapping[int, Point3]
    edge_paths: Mapping[int, tuple[Point3, ...]]

    def __post_init__(self) -> None:
        points = {v: _norm_point(p) for v, p in self.vertex_points.items()}
        paths = {eid: tuple(map(_norm_point, path)) for eid, path in self.edge_paths.items()}
        object.__setattr__(self, "vertex_points", MappingProxyType(points))
        object.__setattr__(self, "edge_paths", MappingProxyType(paths))
        records = _validate(self.graph, points, paths)
        if records is not None:  # the walk built them
            object.__setattr__(self, "_records", records)

    @cached_property
    def _records(self) -> tuple[tuple[Edge, list[tuple]], ...]:
        """(edge, `_segments` of its path) for every edge, in id order."""
        return tuple((e, _segments(self.edge_paths[e.id])) for e in self.graph.edges)


def _validate(graph: MultiGraph, points: dict[int, Point3],
              paths: dict[int, tuple[Point3, ...]]
              ) -> tuple[tuple[Edge, list[tuple]], ...] | None:
    """Raise EmbeddingError unless the embedding is valid; return the
    segment records of the walk, or None when `_general_position`
    certified it without one."""
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

    if _general_position(graph, points, paths):
        return None
    checked: list[tuple[Edge, list[tuple]]] = []
    for e in graph.edges:
        checked.append((e, _check_edge(graph, points, e, paths[e.id], checked)))
    return tuple(checked)


def _general_position(graph: MultiGraph, points: dict[int, Point3],
                      paths: dict[int, tuple[Point3, ...]]) -> bool:
    """Whether the embedding's points certify it without the pair walk
    (module docstring); the vertex points must be distinct."""
    waypoints = sum(map(len, paths.values())) - 2 * len(paths)
    n = len(points) + waypoints
    segments = len(paths) + waypoints
    if n < 4 or n * (n - 1) * (n - 2) * (n - 3) > 12 * segments * (segments - 1):
        return False  # C(n, 4) > C(segments, 2): the walk is cheaper
    pts = list(points.values())
    for e in graph.edges:
        path = paths[e.id]
        if len(path) < 2 or path[0] != points[e.u] or path[-1] != points[e.v]:
            return False
        pts += path[1:-1]
    # a point listed twice (a waypoint on a vertex point or on another
    # waypoint) makes every quadruple that holds both copies coplanar
    for i in range(n - 3):
        ax, ay, az = pts[i]
        for j in range(i + 1, n - 2):
            bx, by, bz = pts[j]
            ux, uy, uz = bx - ax, by - ay, bz - az
            for k in range(j + 1, n - 1):
                cx, cy, cz = pts[k]
                vx, vy, vz = cx - ax, cy - ay, cz - az
                # the normal of plane abc and its offset: d is coplanar with
                # a, b and c exactly when nx*dx + ny*dy + nz*dz == offset
                nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
                offset = nx * ax + ny * ay + nz * az
                for dx, dy, dz in pts[k + 1:]:
                    if nx * dx + ny * dy + nz * dz == offset:
                        return False
    return True


def _check_edge(graph: MultiGraph, points: Mapping[int, Point3], e: Edge,
                path: tuple[Point3, ...],
                others: Iterable[tuple[Edge, list[tuple]]]) -> list[tuple]:
    """Check edge e's path alone, then against each (edge, `_segments`) of
    `others`; return the path's own `_segments`.

    `others` must be in increasing id order and their paths already
    checked, so the first failure is the one a check of the whole
    embedding reports.
    """
    if len(path) < 2:
        raise EmbeddingError(f"edge {e.id} path needs at least two points")
    if path[0] != points[e.u] or path[-1] != points[e.v]:
        raise EmbeddingError(
            f"edge {e.id} path must run from vertex {e.u} to vertex {e.v}")
    if len(path) > 2:  # one segment joins the two distinct vertex points
        for a, b in zip(path, path[1:]):
            if a == b:
                raise EmbeddingError(f"edge {e.id} has a zero-length segment")
        _check_path_simple(e.id, path)
    # A vertex with an edge ends that edge's path, so _check_path_simple
    # and the pair walk below already reject it anywhere else on a path;
    # only isolated vertices need a scan of their own.
    for v in graph.isolated_vertices:
        if any(point_on_segment3(points[v], a, b) for a, b in zip(path, path[1:])):
            raise EmbeddingError(f"vertex {v} lies on edge {e.id}")
    segs = _segments(path)
    _check_against(e, segs, others)
    return segs


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


def _segments(path: tuple[Point3, ...]) -> list[tuple]:
    """One record per segment ab of a path: (a, b, the bounding box
    lo_x, hi_x, lo_y, hi_y, lo_z, hi_z, the direction u = b - a, the
    moment a x u, whether a is an end point of the path, whether b is)."""
    ends = (path[0], path[-1])
    out = []
    for a, b in zip(path, path[1:]):
        ax, ay, az = a
        bx, by, bz = b
        ux, uy, uz = bx - ax, by - ay, bz - az
        out.append((a, b,
                    ax if ax < bx else bx, bx if ax < bx else ax,
                    ay if ay < by else by, by if ay < by else ay,
                    az if az < bz else bz, bz if az < bz else az,
                    ux, uy, uz, ay * uz - az * uy, az * ux - ax * uz, ax * uy - ay * ux,
                    a in ends, b in ends))
    return out


def _check_against(e: Edge, segs: list[tuple],
                   others: Iterable[tuple[Edge, list[tuple]]]) -> None:
    """Check the segments of e's path against the paths of `others`.

    Each pair of paths is walked segment pair by segment pair, the path of
    the smaller edge id outermost, and an error names the smaller id first.
    """
    for f, segs_f in others:
        outer, inner = (segs_f, segs) if f.id < e.id else (segs, segs_f)
        for (a1, b1, lx1, hx1, ly1, hy1, lz1, hz1,
             ux1, uy1, uz1, mx1, my1, mz1, va1, vb1) in outer:
            for (a2, b2, lx2, hx2, ly2, hy2, lz2, hz2,
                 ux2, uy2, uz2, mx2, my2, mz2, va2, vb2) in inner:
                if (hx1 < lx2 or hx2 < lx1 or hy1 < ly2 or hy2 < ly1
                        or hz1 < lz2 or hz2 < lz1):
                    continue  # boxes strictly apart on some axis: no common point
                if a1 == a2 or b1 == b2:
                    same = True
                elif a1 == b2 or b1 == a2:
                    same = False
                else:
                    # the sum is det[u1, a2 - a1, u2]: segments that are not
                    # coplanar share no point
                    if (ux1 * mx2 + uy1 * my2 + uz1 * mz2
                            + ux2 * mx1 + uy2 * my1 + uz2 * mz1) == 0 \
                            and segments3_intersect(a1, b1, a2, b2):
                        raise EmbeddingError(f"{_names(e, f)} intersect")
                    continue
                # a common end point must be an end of both paths, and the
                # segments meet beyond it only if they leave it in the same
                # direction: u1 and u2 point the same way when they start
                # or end there alike (same), opposite ways otherwise
                if (a1 == a2 and not (va1 and va2) or a1 == b2 and not (va1 and vb2)
                        or b1 == a2 and not (vb1 and va2)
                        or b1 == b2 and not (vb1 and vb2)):
                    raise EmbeddingError(f"{_names(e, f)} touch at a non-vertex point")
                if (uy1 * uz2 == uz1 * uy2 and uz1 * ux2 == ux1 * uz2
                        and ux1 * uy2 == uy1 * ux2
                        and (ux1 * ux2 + uy1 * uy2 + uz1 * uz2 > 0 if same
                             else ux1 * ux2 + uy1 * uy2 + uz1 * uz2 < 0)):
                    raise EmbeddingError(f"{_names(e, f)} overlap at vertex")


def _names(e: Edge, f: Edge) -> str:
    return f"edges {min(e.id, f.id)} and {max(e.id, f.id)}"


def straight_line_embedding(g: MultiGraph, points: Mapping[int, Point3]) -> SpatialEmbedding:
    """Embed with straight segments between the given vertex points."""
    paths = {e.id: (points[e.u], points[e.v]) for e in g.edges}
    return SpatialEmbedding(g, dict(points), paths)


def random_embedding(g: MultiGraph, seed: int) -> SpatialEmbedding:
    """Straight-line embedding on random integer points, deterministic per seed.

    Vertices are drawn uniformly from the integer cube [-10^6, 10^6]^3.
    If the configuration is degenerate, the seed is bumped by one and the
    drawing retried, so the result is still a pure function of the seed.
    """
    if not g.is_simple:
        raise EmbeddingError("random embeddings need a simple graph")
    for attempt in range(RETRY_LIMIT):
        rng = random.Random(seed + attempt)
        points = {v: _random_point(rng) for v in sorted(g.vertices)}
        try:
            return straight_line_embedding(g, points)
        except EmbeddingError:
            continue
    raise RetryLimitExceeded(
        f"no valid random embedding after {RETRY_LIMIT} attempts from seed {seed}")


def _random_point(rng: random.Random) -> Point3:
    return (rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
            rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
            rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND))


def random_detour(emb: SpatialEmbedding, eid: int,
                  rng: random.Random) -> tuple[Point3, SpatialEmbedding, int]:
    """(midpoint, rerouted embedding, rejected draws): edge u-v moved to
    u -> midpoint -> v, for the first midpoint drawn from the cube of
    `random_embedding` whose arc is a valid path that meets the old path
    only at u and v, so that the two close into an embedded loop.  Raises
    RetryLimitExceeded after RETRY_LIMIT rejected draws."""
    g = emb.graph
    e = g.edge(eid)
    pu, pv = emb.vertex_points[e.u], emb.vertex_points[e.v]
    i = g.edges.index(e)
    old = [emb._records[i]]
    for rejected in range(RETRY_LIMIT):
        midpoint = _random_point(rng)
        try:
            moved = reroute_edge(emb, eid, (pu, midpoint, pv))
            # the arc's own checks ran in the reroute; only the old path is left
            _check_against(e, moved._records[i][1], old)
            return midpoint, moved, rejected
        except EmbeddingError:
            continue
    raise RetryLimitExceeded(
        f"no valid reroute of edge {eid} after {RETRY_LIMIT} midpoints")


def reroute_edge(emb: SpatialEmbedding, eid: int,
                 new_path: Iterable[Point3]) -> SpatialEmbedding:
    """Replace one edge path; the rest of the embedding must stay untouched.

    The new polyline must share exactly the old endpoints and meet the
    remainder of the embedding nowhere else.  Only the new path is
    checked, on its own and against the stored records of the other E - 1
    paths: the rest of `emb` is valid and cannot change.  A rejected path
    raises the `EmbeddingError` that a build from scratch would.
    Rerouting onto the identical path is allowed.
    """
    g = emb.graph
    e = g.edge(eid)  # an unknown id raises GraphError
    path = tuple(map(_norm_point, new_path))
    i = g.edges.index(e)
    others = emb._records[:i] + emb._records[i + 1:]
    segs = _check_edge(g, emb.vertex_points, e, path, others)
    paths = dict(emb.edge_paths)
    paths[eid] = path
    moved = copy.copy(emb)  # same graph and vertex points, not re-validated
    object.__setattr__(moved, "edge_paths", MappingProxyType(paths))
    object.__setattr__(moved, "_records", others[:i] + ((e, segs),) + others[i:])
    return moved


# -- JSON serialization --------------------------------------------------------


def embedding_to_json_dict(emb: SpatialEmbedding) -> dict:
    g = emb.graph
    edges = []
    for e in g.edges:
        path = emb.edge_paths[e.id]
        edges.append({
            "u": e.u,
            "v": e.v,
            "waypoints": [format_point(p) for p in path[1:-1]],
        })
    return {
        "schema_version": 1,
        "graph": builtin_name(g) or format_edge_list(g),
        "vertices": {str(v): format_point(p) for v, p in sorted(emb.vertex_points.items())},
        "edges": edges,
    }


def embedding_from_json_dict(doc: dict) -> SpatialEmbedding:
    shape = "embedding document needs a graph string, a vertices object and an edges list"
    if not isinstance(doc, dict):  # null, a number, a string or a list
        raise EmbeddingError(shape)
    try:
        graph_text = doc["graph"]
        vertex_doc = doc["vertices"]
        edge_doc = doc["edges"]
    except KeyError as exc:
        raise EmbeddingError(f"embedding document missing field: {exc}") from None
    if not (isinstance(graph_text, str) and isinstance(vertex_doc, dict)
            and isinstance(edge_doc, list)):
        raise EmbeddingError(shape)
    size = builtin_size(graph_text)
    if size is not None and (size[0] > len(vertex_doc) or size[1] > len(edge_doc)):
        # checked before the graph is built, whose size the document then
        # bounds: a short name can denote a huge graph
        raise EmbeddingError(
            f"graph {graph_text.strip()} has {size[0]} vertices and {size[1]} edges, "
            f"but the document lists {len(vertex_doc)} vertices and {len(edge_doc)} edges")
    g = parse_graph(graph_text)
    points: dict[int, Point3] = {}
    for key, p in vertex_doc.items():
        try:
            v, point = int(key), parse_point(p)
        except ValueError as exc:
            raise EmbeddingError(f"bad vertex entry: {exc}") from None
        if str(v) != key:  # "+2", " 2 ", "1_0" and "01" would all pass int()
            raise EmbeddingError(f"vertex key {key!r} is not the decimal spelling of vertex {v}")
        points[v] = point
    paths: dict[int, tuple[Point3, ...]] = {}
    for entry in edge_doc:
        try:
            u, v = entry["u"], entry["v"]
            waypoints = tuple(parse_point(p) for p in entry.get("waypoints", []))
        except (KeyError, TypeError) as exc:
            raise EmbeddingError(f"bad edge entry {entry!r}: {exc}") from None
        if type(u) is not int or type(v) is not int:  # true would pass as 1
            raise EmbeddingError(f"bad edge entry {entry!r}: u and v must be integers")
        candidates = [e for e in g.edges_between(u, v) if e.id not in paths]
        if not candidates:
            raise EmbeddingError(f"edge {u}-{v} not present (or repeated) in graph")
        e = candidates[0]
        if e.u not in points or e.v not in points:
            raise EmbeddingError(f"edge {u}-{v} endpoint has no position")
        paths[e.id] = (points[e.u],) + (
            waypoints if e.u == u else tuple(reversed(waypoints))
        ) + (points[e.v],)
    missing = sorted({e.id for e in g.edges} - set(paths))
    if missing:
        listed = ", ".join(map(str, missing[:MISSING_LISTED]))
        more = f" and {len(missing) - MISSING_LISTED} more" if len(missing) > MISSING_LISTED else ""
        raise EmbeddingError(f"paths missing for edges {listed}{more}")
    return SpatialEmbedding(g, points, paths)
