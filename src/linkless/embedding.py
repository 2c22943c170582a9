"""Exact piecewise-linear spatial embeddings of simple graphs.

Vertices sit at exact rational points, edges run along polylines whose
endpoints are the vertex positions.  Construction validates the full set
of embedding invariants exactly: distinct vertex locations, no polyline
self-intersections, pairwise-disjoint open edge paths meeting only at
shared endpoint vertices, and no vertex lying on a foreign edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
from .multigraph import MultiGraph, format_edge_list, parse_graph

COORDINATE_BOUND = 10**6  # random vertices live in a cube of side 2e6
RETRY_LIMIT = 64


class EmbeddingError(ValueError):
    """An embedding invariant is violated."""


class RetryLimitExceeded(RuntimeError):
    """Could not find a valid random configuration within the retry limit."""


def _norm_point(p) -> Point3:
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
        object.__setattr__(self, "vertex_points", points)
        object.__setattr__(self, "edge_paths", paths)
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

    def with_edge_path(self, eid: int, path: Iterable[Point3]) -> "SpatialEmbedding":
        new_paths = dict(self.edge_paths)
        new_paths[eid] = tuple(path)
        return SpatialEmbedding(self.graph, self.vertex_points, new_paths)


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

    for e in graph.edges:
        path = paths[e.id]
        if len(path) < 2:
            raise EmbeddingError(f"edge {e.id} path needs at least two points")
        if path[0] != points[e.u] or path[-1] != points[e.v]:
            raise EmbeddingError(
                f"edge {e.id} path must run from vertex {e.u} to vertex {e.v}")
        for a, b in zip(path, path[1:]):
            if a == b:
                raise EmbeddingError(f"edge {e.id} has a zero-length segment")
        _check_path_simple(e.id, path)

    # vertex points may appear on a path only as its own endpoints
    for e in graph.edges:
        path = paths[e.id]
        for v, p in points.items():
            for i, (a, b) in enumerate(zip(path, path[1:])):
                if p == a or p == b:
                    terminal = (i == 0 and p == path[0]) or \
                        (i == len(path) - 2 and p == path[-1])
                    if not (terminal and v in (e.u, e.v)):
                        raise EmbeddingError(
                            f"vertex {v} lies on edge {e.id} at a waypoint")
                elif point_on_segment3(p, a, b):
                    raise EmbeddingError(f"vertex {v} lies on edge {e.id}")

    edge_list = sorted(graph.edges, key=lambda e: e.id)
    for i, e in enumerate(edge_list):
        for f in edge_list[i + 1:]:
            _check_paths_disjoint(e, paths[e.id], f, paths[f.id], points)


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


def _check_paths_disjoint(e, path_e, f, path_f, points) -> None:
    shared = {points[v] for v in (e.u, e.v)} & {points[v] for v in (f.u, f.v)}
    for a1, b1 in zip(path_e, path_e[1:]):
        for a2, b2 in zip(path_f, path_f[1:]):
            common = {a1, b1} & {a2, b2}
            if common:
                # only a shared graph vertex is a legitimate contact
                if not common <= shared:
                    raise EmbeddingError(
                        f"edges {e.id} and {f.id} touch at a non-vertex point")
                for s in common:
                    other1 = b1 if s == a1 else a1
                    other2 = b2 if s == a2 else a2
                    if shared_endpoint_segments_overlap(s, other1, other2):
                        raise EmbeddingError(
                            f"edges {e.id} and {f.id} overlap at vertex")
                continue
            if segments3_intersect(a1, b1, a2, b2):
                raise EmbeddingError(f"edges {e.id} and {f.id} intersect")


def straight_line_embedding(g: MultiGraph, points: Mapping[int, Point3]) -> SpatialEmbedding:
    """Embed with straight segments between the given vertex points."""
    paths = {e.id: (points[e.u], points[e.v]) for e in g.edges}
    return SpatialEmbedding(g, dict(points), paths)


def random_embedding(g: MultiGraph, seed: int, retry_limit: int = RETRY_LIMIT) -> SpatialEmbedding:
    """Straight-line embedding on random integer points, deterministic per seed.

    Vertices are drawn uniformly from the integer cube [-10^6, 10^6]^3.
    If the configuration is degenerate, the seed is bumped by one and the
    drawing retried, so the result is still a pure function of the seed.
    """
    if not g.is_simple:
        raise EmbeddingError("random embeddings need a simple graph")
    for attempt in range(retry_limit):
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
        f"no valid random embedding after {retry_limit} attempts from seed {seed}")


def reroute_edge(emb: SpatialEmbedding, eid: int,
                 new_path: Iterable[Point3]) -> SpatialEmbedding:
    """Replace one edge path; the rest of the embedding must stay untouched.

    The new polyline must share exactly the old endpoints and meet the
    remainder of the embedding nowhere else; the replacement embedding is
    fully re-validated.  Rerouting onto the identical path is allowed.
    """
    e = emb.graph.edge(eid)
    path = tuple(_norm_point(p) for p in new_path)
    if len(path) < 2:
        raise EmbeddingError("a reroute path needs at least two points")
    if path[0] != emb.vertex_points[e.u] or path[-1] != emb.vertex_points[e.v]:
        raise EmbeddingError(
            f"reroute of edge {eid} must run from vertex {e.u} to vertex {e.v}")
    return emb.with_edge_path(eid, path)


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
    try:
        points = {int(v): parse_point(p) for v, p in vertex_doc.items()}
    except ValueError as exc:
        raise EmbeddingError(f"bad vertex entry: {exc}") from None
    paths: dict[int, tuple[Point3, ...]] = {}
    for entry in edge_doc:
        try:
            u, v = entry["u"], entry["v"]
            waypoints = tuple(parse_point(p) for p in entry.get("waypoints", []))
            candidates = [e for e in g.edges_between(u, v) if e.id not in paths]
        except (KeyError, TypeError) as exc:
            raise EmbeddingError(f"bad edge entry {entry!r}: {exc}") from None
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
