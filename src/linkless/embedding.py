"""Exact piecewise-linear spatial embeddings of simple graphs.

Vertices sit at exact rational points, edges run along polylines whose
endpoints are the vertex positions.  Construction validates the full set
of embedding invariants exactly: distinct vertex locations, no polyline
self-intersections, pairwise-disjoint open edge paths meeting only at
shared endpoint vertices, and no vertex lying on a foreign edge.

Beyond the whole-graph checks, one routine, `_check_edge`, checks one
path: on its own, against the isolated vertices, and against a given set
of other paths.  Construction runs it for each edge against the edges
with smaller ids, so every pair of paths is checked once.  An embedding
is immutable (its maps are read-only), so `reroute_edge` runs it only for
the moved edge, against the other E - 1 paths.

The pair check, `_check_paths_disjoint`, looks at every segment pair of
the two paths and decides the common cases inline, without sets.  Two
segments with exactly one common endpoint, at a vertex point of both
edges, meet beyond it only when they leave it in the same direction (one
cross product, one dot product).  Two segments whose bounding boxes are
strictly apart on some axis share no point, nor do two that are not
coplanar (one orientation determinant).  The remaining pairs, which touch
elsewhere or lie in one plane, go to the general contact check and to
`segments3_intersect`.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .circuits import Circuit
from .geometry import (
    Point3,
    format_point,
    normalize_rat,
    parse_point,
    point_on_segment3,
    segments3_intersect,
    shared_endpoint_segments_overlap,
)
from .multigraph import Edge, MultiGraph, format_edge_list, parse_graph

COORDINATE_BOUND = 10**6  # random vertices live in a cube of side 2e6
RETRY_LIMIT = 64


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
    return tuple(normalize_rat(c) for c in p)  # type: ignore[return-value]


@dataclass(frozen=True)
class SpatialEmbedding:
    graph: MultiGraph
    vertex_points: Mapping[int, Point3]
    edge_paths: Mapping[int, tuple[Point3, ...]]

    def __post_init__(self) -> None:
        points = {v: _norm_point(p) for v, p in self.vertex_points.items()}
        paths = {
            eid: tuple(_norm_point(p) for p in path)
            for eid, path in self.edge_paths.items()
        }
        object.__setattr__(self, "vertex_points", MappingProxyType(points))
        object.__setattr__(self, "edge_paths", MappingProxyType(paths))
        _validate(self.graph, points, paths)

    def point(self, v: int) -> Point3:
        return self.vertex_points[v]

    def path(self, eid: int) -> tuple[Point3, ...]:
        return self.edge_paths[eid]

    def circuit_loop(self, circuit: Circuit) -> list[Point3]:
        """The circuit's closed polyline (the first point is not repeated)."""
        loop: list[Point3] = []
        for i, eid in enumerate(circuit.edge_ids):
            start = self.vertex_points[circuit.vertex_seq[i]]
            path = self.edge_paths[eid]
            if path[0] != start:
                if path[-1] != start:
                    raise EmbeddingError(
                        f"edge {eid} does not pass through circuit vertex")
                path = tuple(reversed(path))
            loop.extend(path[:-1])
        return loop


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
        points = {
            v: (
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
                rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND),
            )
            for v in sorted(g.vertices)
        }
        try:
            return straight_line_embedding(g, points)
        except EmbeddingError:
            continue
    raise RetryLimitExceeded(
        f"no valid random embedding after {RETRY_LIMIT} attempts from seed {seed}")


def reroute_edge(emb: SpatialEmbedding, eid: int,
                 new_path: Iterable[Point3]) -> SpatialEmbedding:
    """Replace one edge path; the rest of the embedding must stay untouched.

    The new polyline must share exactly the old endpoints and meet the
    remainder of the embedding nowhere else.  Only the new path is
    checked, on its own and against the other E - 1 paths: the rest of
    `emb` is already valid and cannot change.  A rejected path raises
    the same `EmbeddingError` as building the new embedding from scratch
    would.  Rerouting onto the identical path is allowed.
    """
    g = emb.graph
    e = g.edge(eid)  # an unknown id raises GraphError
    path = tuple(_norm_point(p) for p in new_path)
    others = [(f, emb.edge_paths[f.id])
              for f in sorted(g.edges, key=lambda f: f.id) if f.id != eid]
    _check_edge(g, emb.vertex_points, e, path, others)
    paths = dict(emb.edge_paths)
    paths[eid] = path
    moved = copy.copy(emb)  # same graph and vertex points, not re-validated
    object.__setattr__(moved, "edge_paths", MappingProxyType(paths))
    return moved


# -- JSON serialization --------------------------------------------------------


def embedding_to_json_dict(emb: SpatialEmbedding) -> dict:
    g = emb.graph
    edges = []
    for e in sorted(g.edges, key=lambda e: e.id):
        path = emb.edge_paths[e.id]
        edges.append({
            "u": e.u,
            "v": e.v,
            "waypoints": [format_point(p) for p in path[1:-1]],
        })
    return {
        "schema_version": 1,
        "graph": g.name if g.name else format_edge_list(g),
        "vertices": {str(v): format_point(p) for v, p in sorted(emb.vertex_points.items())},
        "edges": edges,
    }


def embedding_from_json_dict(doc: dict) -> SpatialEmbedding:
    try:
        graph_text = doc["graph"]
        vertex_doc = doc["vertices"]
        edge_doc = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise EmbeddingError(f"embedding document missing field: {exc}") from None
    if not (isinstance(graph_text, str) and isinstance(vertex_doc, dict)
            and isinstance(edge_doc, list)):
        raise EmbeddingError("embedding document needs a graph string, a vertices "
                             "object and an edges list")
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
    missing = {e.id for e in g.edges} - set(paths)
    if missing:
        raise EmbeddingError(f"paths missing for edges {sorted(missing)}")
    return SpatialEmbedding(g, points, paths)
