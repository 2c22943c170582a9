import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkless import embedding
from linkless.embedding import (
    EmbeddingError,
    RetryLimitExceeded,
    SpatialEmbedding,
    embedding_from_json_dict,
    embedding_to_json_dict,
    random_embedding,
    reroute_edge,
    straight_line_embedding,
)
from linkless.circuits import enumerate_circuits
from linkless.geometry import point_on_segment3
from linkless.multigraph import GraphError, complete_graph, graph_from_pairs, parse_graph

TRI = graph_from_pairs([(1, 2), (2, 3), (3, 1)], name="C3")
TRI_POINTS = {1: (0, 0, 0), 2: (4, 0, 0), 3: (0, 4, 0)}


def test_straight_line_embedding_valid():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    assert emb.path(0) == ((0, 0, 0), (4, 0, 0))


def test_duplicate_vertex_points_rejected():
    with pytest.raises(EmbeddingError):
        straight_line_embedding(TRI, {1: (0, 0, 0), 2: (0, 0, 0), 3: (1, 1, 1)})


def test_vertex_on_edge_rejected():
    g = graph_from_pairs([(1, 2)], vertices=[1, 2, 3])
    with pytest.raises(EmbeddingError):
        straight_line_embedding(g, {1: (0, 0, 0), 2: (4, 0, 0), 3: (2, 0, 0)})


def test_crossing_edges_rejected():
    g = graph_from_pairs([(1, 2), (3, 4)])
    points = {1: (0, 0, 0), 2: (2, 2, 0), 3: (0, 2, 0), 4: (2, 0, 0)}
    with pytest.raises(EmbeddingError):
        straight_line_embedding(g, points)


def test_collinear_overlapping_edges_rejected():
    g = graph_from_pairs([(1, 2), (1, 3)])
    points = {1: (0, 0, 0), 2: (2, 0, 0), 3: (4, 0, 0)}
    # segment 1-3 contains vertex 2
    with pytest.raises(EmbeddingError):
        straight_line_embedding(g, points)


def test_loops_and_parallels_rejected():
    loopy = graph_from_pairs([(1, 1), (1, 2)])
    with pytest.raises(EmbeddingError):
        straight_line_embedding(loopy, {1: (0, 0, 0), 2: (1, 0, 0)})
    with pytest.raises(EmbeddingError):
        random_embedding(loopy, 0)


def test_polyline_self_intersection_rejected():
    g = graph_from_pairs([(1, 2)])
    path = ((0, 0, 0), (4, 0, 0), (4, 4, 0), (2, -1, 0))  # last segment crosses first
    with pytest.raises(EmbeddingError):
        SpatialEmbedding(g, {1: (0, 0, 0), 2: (2, -1, 0)}, {0: path})


def test_polyline_backtrack_rejected():
    g = graph_from_pairs([(1, 2)])
    path = ((0, 0, 0), (4, 0, 0), (1, 0, 0))
    with pytest.raises(EmbeddingError):
        SpatialEmbedding(g, {1: (0, 0, 0), 2: (1, 0, 0)}, {0: path})


def _vertex_scan(graph, points, paths):
    """Reference check: a vertex point lies on a path only as one of that
    edge's own endpoints.  Validation once ran this scan for every vertex;
    it now runs it for isolated vertices only, and the path checks must
    reject everything else it would reject."""
    for e in graph.edges:
        path = paths[e.id]
        for v, p in points.items():
            for i, (a, b) in enumerate(zip(path, path[1:])):
                if p == a or p == b:
                    terminal = (i == 0 and p == path[0]) or \
                        (i == len(path) - 2 and p == path[-1])
                    if not (terminal and v in (e.u, e.v)):
                        raise EmbeddingError(f"vertex {v} lies on edge {e.id} at a waypoint")
                elif point_on_segment3(p, a, b):
                    raise EmbeddingError(f"vertex {v} lies on edge {e.id}")


VERTEX_ON_PATH_CASES = {
    # vertex 3 has no edge and sits on the waypoint of edge 1-2
    "isolated vertex on a waypoint": (
        [(1, 2)], [1, 2, 3], {1: (0, 0, 0), 2: (4, 0, 0), 3: (2, 2, 0)},
        {0: ((0, 0, 0), (2, 2, 0), (4, 0, 0))}),
    # vertex 3 has no edge and sits inside the first segment of edge 1-2
    "isolated vertex inside a segment": (
        [(1, 2)], [1, 2, 3], {1: (0, 0, 0), 2: (4, 0, 0), 3: (1, 1, 0)},
        {0: ((0, 0, 0), (2, 2, 0), (4, 0, 0))}),
    # vertex 3 ends edge 3-4 and sits on the waypoint of edge 1-2
    "vertex with an edge on a foreign waypoint": (
        [(1, 2), (3, 4)], None,
        {1: (0, 0, 0), 2: (4, 0, 0), 3: (2, 2, 0), 4: (2, 4, 0)},
        {0: ((0, 0, 0), (2, 2, 0), (4, 0, 0)), 1: ((2, 2, 0), (2, 4, 0))}),
    # edge 1-2 leaves vertex 1 and comes back through it before ending at 2
    "vertex revisited mid-path by its own edge": (
        [(1, 2)], None, {1: (0, 0, 0), 2: (4, -4, 0)},
        {0: ((0, 0, 0), (2, 1, 0), (1, 2, 0), (0, 0, 0), (4, -4, 0))}),
}


@pytest.mark.parametrize("case", sorted(VERTEX_ON_PATH_CASES))
def test_vertex_on_path_rejected(case):
    pairs, vertices, points, paths = VERTEX_ON_PATH_CASES[case]
    g = graph_from_pairs(pairs, vertices=vertices)
    with pytest.raises(EmbeddingError):
        _vertex_scan(g, points, paths)  # the case is one the scan catches
    with pytest.raises(EmbeddingError):
        SpatialEmbedding(g, points, paths)


_GRID_POINTS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def _small_embedding_inputs(draw):
    """A small graph on a 3x3x3 grid with 0-2 waypoints per edge; about
    half the time one path is bent through some vertex point, either as a
    waypoint or inside a segment."""
    n = draw(st.integers(2, 5))
    vertices = range(1, n + 1)
    points = dict(zip(vertices, draw(st.lists(_GRID_POINTS, min_size=n, max_size=n,
                                               unique=True))))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(vertices, 2))),
                          min_size=1, max_size=6, unique=True))
    g = graph_from_pairs(pairs, vertices=vertices)
    paths = {e.id: [points[e.u], *draw(st.lists(_GRID_POINTS, max_size=2)), points[e.v]]
             for e in g.edges}
    if draw(st.booleans()):
        p = points[draw(st.sampled_from(sorted(points)))]
        path = paths[draw(st.sampled_from(sorted(paths)))]
        i = draw(st.integers(1, len(path) - 1))
        # p itself, or the far end of a segment from path[i - 1] through p
        far = tuple(2 * pc - ac for pc, ac in zip(p, path[i - 1]))
        path.insert(i, draw(st.sampled_from([p, far])))
    return g, points, {eid: tuple(path) for eid, path in paths.items()}


@settings(max_examples=60, deadline=None)
@given(_small_embedding_inputs())
def test_validation_rejects_what_the_vertex_scan_rejects(case):
    g, points, paths = case
    try:
        emb = SpatialEmbedding(g, points, paths)
    except EmbeddingError:
        return
    _vertex_scan(emb.graph, emb.vertex_points, emb.edge_paths)


def test_reroute_of_unknown_edge_raises_graph_error():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    with pytest.raises(GraphError):
        reroute_edge(emb, 99, ((0, 0, 0), (4, 0, 0)))


def test_random_embedding_deterministic():
    g = complete_graph(6)
    a = random_embedding(g, 42)
    b = random_embedding(g, 42)
    assert a.vertex_points == b.vertex_points
    c = random_embedding(g, 43)
    assert c.vertex_points != a.vertex_points


def test_random_embedding_valid_for_many_seeds():
    g = parse_graph("K3,3,1")
    for seed in range(20):
        emb = random_embedding(g, seed)
        assert set(emb.edge_paths) == {e.id for e in g.edges}


def test_random_embedding_retry_limit(monkeypatch):
    g = complete_graph(3)
    monkeypatch.setattr(embedding, "RETRY_LIMIT", 0)
    with pytest.raises(RetryLimitExceeded):
        random_embedding(g, 0)


def test_circuit_loop_orientation():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    circuit = enumerate_circuits(TRI)[0]
    loop = emb.circuit_loop(circuit)
    assert len(loop) == 3
    assert set(loop) == set(TRI_POINTS.values())


def test_reroute_identity_allowed():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    same = reroute_edge(emb, 0, emb.path(0))
    assert same.edge_paths == emb.edge_paths


def test_reroute_with_waypoint():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    new = reroute_edge(emb, 0, ((0, 0, 0), (2, -3, 5), (4, 0, 0)))
    assert len(new.path(0)) == 3
    # the other edges are untouched
    assert new.path(1) == emb.path(1)


def test_reroute_must_keep_endpoints():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    with pytest.raises(EmbeddingError):
        reroute_edge(emb, 0, ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(EmbeddingError):
        reroute_edge(emb, 0, ((4, 0, 0), (0, 0, 0)))  # reversed


def test_reroute_disjointness_enforced():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    # a path through vertex 3
    with pytest.raises(EmbeddingError):
        reroute_edge(emb, 0, ((0, 0, 0), (0, 4, 0), (4, 0, 0)))
    # a path crossing edge 2-3
    with pytest.raises(EmbeddingError):
        reroute_edge(emb, 0, ((0, 0, 0), (2, 2, 0), (4, 0, 0)))


def test_json_roundtrip_straight():
    emb = random_embedding(complete_graph(6), 7)
    doc = embedding_to_json_dict(emb)
    text = json.dumps(doc)
    back = embedding_from_json_dict(json.loads(text))
    assert back.vertex_points == emb.vertex_points
    assert back.edge_paths == emb.edge_paths


def test_json_roundtrip_with_waypoints_and_fractions():
    g = graph_from_pairs([(1, 2), (2, 3), (3, 1)], name=None)
    points = {1: (0, 0, 0), 2: (4, 0, 0), 3: (Fraction(1, 2), 4, Fraction(-3, 7))}
    emb = straight_line_embedding(g, points)
    emb = reroute_edge(emb, 0, ((0, 0, 0), (2, -5, Fraction(11, 3)), (4, 0, 0)))
    doc = embedding_to_json_dict(emb)
    back = embedding_from_json_dict(json.loads(json.dumps(doc)))
    assert back.edge_paths == emb.edge_paths


def test_json_rejects_bad_documents():
    with pytest.raises(EmbeddingError):
        embedding_from_json_dict({"graph": "K3"})
    emb = random_embedding(complete_graph(3), 0)
    doc = embedding_to_json_dict(emb)
    doc["edges"][0]["u"] = 9
    with pytest.raises(EmbeddingError):
        embedding_from_json_dict(doc)
