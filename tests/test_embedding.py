import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from linkless import embedding, multigraph
from linkless.embedding import (
    EmbeddingError,
    RetryLimitExceeded,
    SpatialEmbedding,
    embedding_from_json_dict,
    embedding_to_json_dict,
    random_detour,
    random_embedding,
    reroute_edge,
    straight_line_embedding,
)
from linkless.geometry import (
    normalize_rat,
    point_on_segment3,
    shared_endpoint_segments_overlap,
)
from linkless.multigraph import (
    Edge,
    GraphError,
    complete_graph,
    graph_from_pairs,
    k331_graph,
    parse_graph,
    petersen_graph,
)

import oracles

TRI = graph_from_pairs([(1, 2), (2, 3), (3, 1)], name="C3")
TRI_POINTS = {1: (0, 0, 0), 2: (4, 0, 0), 3: (0, 4, 0)}


def test_straight_line_embedding_valid():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    assert emb.edge_paths[0] == ((0, 0, 0), (4, 0, 0))


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


def test_reroute_identity_allowed():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    same = reroute_edge(emb, 0, emb.edge_paths[0])
    assert same.edge_paths == emb.edge_paths


def test_reroute_with_waypoint():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    new = reroute_edge(emb, 0, ((0, 0, 0), (2, -3, 5), (4, 0, 0)))
    assert len(new.edge_paths[0]) == 3
    # the other edges are untouched
    assert new.edge_paths[1] == emb.edge_paths[1]


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


@pytest.mark.parametrize("value", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_inexact_coordinates_are_rejected(value):
    # a coordinate that is not an int or a Fraction, in a vertex point, a
    # waypoint or a reroute path, is rejected before any check runs on it
    g = graph_from_pairs([(1, 2)])
    points = {1: (0, 0, 0), 2: (4, 0, 0)}
    inexact = "coordinates must be ints or Fractions"
    with pytest.raises(EmbeddingError, match=inexact):
        SpatialEmbedding(g, {**points, 2: (4, value, 0)}, {0: ((0, 0, 0), (4, 0, 0))})
    with pytest.raises(EmbeddingError, match=inexact):
        SpatialEmbedding(g, points, {0: ((0, 0, 0), (2, 1, value), (4, 0, 0))})
    with pytest.raises(EmbeddingError, match=inexact):
        reroute_edge(straight_line_embedding(g, points), 0, ((0, 0, 0), (2, value, 1), (4, 0, 0)))


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


@pytest.mark.parametrize("graph", [
    parse_graph("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n", name="tet"),
    # a file stem naming a builtin graph of another size, and one of the same size
    parse_graph("6 14\n" + "".join(f"{u} {v}\n" for u, v in itertools.combinations(range(1, 7), 2)
                                    if (u, v) != (5, 6)), name="K6"),
    parse_graph("4 6\n2 1\n2 3\n2 4\n1 3\n1 4\n3 4\n", name="K4"),  # vertices 1, 2 swapped
], ids=["tet", "K6-e named K6", "relabelled K4"])
def test_json_roundtrip_of_graphs_named_by_file_stems(graph):
    emb = random_embedding(graph, 3)
    doc = embedding_to_json_dict(emb)
    assert doc["graph"] == multigraph.format_edge_list(graph)
    back = embedding_from_json_dict(json.loads(json.dumps(doc)))
    assert back.graph == graph
    assert back.edge_paths == emb.edge_paths


def test_missing_paths_name_a_few_edge_ids():
    g = complete_graph(8)
    doc = {"graph": multigraph.format_edge_list(g), "edges": [],
           "vertices": {str(v): ["0", "0", str(v)] for v in g.vertices}}
    with pytest.raises(EmbeddingError) as err:
        embedding_from_json_dict(doc)
    assert str(err.value) == "paths missing for edges 0, 1, 2, 3, 4 and 23 more"


def test_builtin_name_builds_no_graph_of_another_size(monkeypatch):
    built, real = [], multigraph.complete_graph

    def recording(n):
        built.append(n)
        return real(n)

    k6 = complete_graph(6)
    monkeypatch.setattr(multigraph, "complete_graph", recording)
    assert multigraph.builtin_name(parse_graph("3 3\n1 2\n2 3\n1 3\n", name="K1000")) is None
    assert built == []
    assert multigraph.builtin_name(k6) == "K6"
    assert built == [6]


def test_json_rejects_bad_documents():
    with pytest.raises(EmbeddingError):
        embedding_from_json_dict({"graph": "K3"})
    emb = random_embedding(complete_graph(3), 0)
    doc = embedding_to_json_dict(emb)
    doc["edges"][0]["u"] = 9
    with pytest.raises(EmbeddingError):
        embedding_from_json_dict(doc)


# -- incremental validation of reroutes ---------------------------------------


def test_embedding_maps_are_read_only():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    moved = reroute_edge(emb, 0, ((0, 0, 0), (2, -3, 5), (4, 0, 0)))
    for e in (emb, moved):
        with pytest.raises(TypeError):
            e.vertex_points[1] = (9, 9, 9)
        with pytest.raises(TypeError):
            e.edge_paths[0] = ((0, 0, 0), (4, 0, 0))
    assert emb.vertex_points[1] == (0, 0, 0) and emb.edge_paths[0] == ((0, 0, 0), (4, 0, 0))


def _moment_embedding(g, params):
    """Straight edges between points (t, t^2, t^3) of the moment curve: no
    four such points are coplanar, so every graph embeds this way."""
    points = {v: (t, t * t, t ** 3) for v, t in zip(sorted(g.vertices), params)}
    return straight_line_embedding(g, points)


def _lattice_points(a, b):
    """The integer points of the closed segment ab, in order from a."""
    d = tuple(q - p for p, q in zip(a, b))
    step = math.gcd(*d)
    return [tuple(p + k * c // step for p, c in zip(a, d)) for k in range(step + 1)]


def _shifted(p, d, k=1):
    return tuple(pc + k * dc for pc, dc in zip(p, d))


_OFFSETS = st.tuples(*[st.integers(-3, 3)] * 3)
_PLANTED = ("contact", "isolated", "self-crossing")


@st.composite
def _reroutes(draw):
    """A straight embedding of a small graph and a new path for one edge:
    free waypoints, ends swapped, or with a planted defect (a waypoint on
    another edge's path or on an isolated vertex, or a detour whose third
    segment crosses its first)."""
    kind = draw(st.sampled_from(("free", "ends") + _PLANTED))
    n = draw(st.integers(3, 6))
    isolated = draw(st.integers(1 if kind == "isolated" else 0, 2))
    vertices = range(1, n + isolated + 1)
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          min_size=2, max_size=8, unique=True))
    g = graph_from_pairs(pairs, vertices=vertices)
    base = _moment_embedding(g, draw(st.permutations(range(len(vertices)))))
    e = draw(st.sampled_from(sorted(g.edges)))
    u, v = base.vertex_points[e.u], base.vertex_points[e.v]
    top = len(vertices)
    waypoints = draw(st.lists(st.tuples(st.integers(-1, top), st.integers(-1, top ** 2),
                                        st.integers(-1, top ** 3)), max_size=2))
    if kind == "contact":
        f = draw(st.sampled_from(sorted(f for f in g.edges if f.id != e.id)))
        path_f = base.edge_paths[f.id]
        spot = draw(st.sampled_from(_lattice_points(path_f[0], path_f[1])))
        waypoints.insert(draw(st.integers(0, len(waypoints))), spot)
    elif kind == "isolated":
        spot = base.vertex_points[draw(st.sampled_from(g.isolated_vertices))]
        waypoints.insert(draw(st.integers(0, len(waypoints))), spot)
    elif kind == "self-crossing":
        t = draw(_OFFSETS.filter(any))
        s = draw(_OFFSETS)
        # the segment from u + t + s to u + t - s crosses u -> u + 2t at u + t
        waypoints = [_shifted(u, t, 2), _shifted(_shifted(u, t), s),
                     _shifted(_shifted(u, t), s, -1)]
    if kind == "ends":
        u, v = v, u
    return kind, base, e.id, (u, *waypoints, v)


def _verdict(build):
    try:
        return "accepted", dict(build().edge_paths)
    except EmbeddingError as exc:
        return "rejected", str(exc)


@settings(max_examples=200, deadline=None)
@given(_reroutes())
def test_incremental_reroute_check_matches_full_validation(case):
    kind, base, eid, path = case
    full = _verdict(lambda: SpatialEmbedding(
        base.graph, base.vertex_points, {**base.edge_paths, eid: path}))
    incremental = _verdict(lambda: reroute_edge(base, eid, path))
    event(f"{kind}: {full[0]}")
    assert incremental == full
    if kind in _PLANTED:
        assert full[0] == "rejected"
    pair = re.match(r"edges (\d+) and (\d+) ", full[1]) if full[0] == "rejected" else None
    if pair:
        assert int(pair[1]) < int(pair[2])  # a pair is named lower id first


def test_reroute_checks_each_other_path_once(monkeypatch):
    # one pair walk per checked edge, against the ids it is handed; building
    # an embedding that the certificate declines makes the records of each
    # path once, and a reroute makes only the new path's, reading the
    # others' from the embedding.  A certified build walks nothing and
    # makes the records when the first reroute reads them.
    walks, built = [], []
    walk, segments = embedding._check_against, embedding._segments
    monkeypatch.setattr(embedding, "_check_against", lambda e, segs, others: walks.append(
        (e.id, [f.id for f, _ in others])) or walk(e, segs, others))
    monkeypatch.setattr(embedding, "_segments",
                        lambda path: built.append(path) or segments(path))
    # the Petersen graph drawn straight walks by the count rule, K6 does not
    for g, certified in ((petersen_graph(), False), (complete_graph(6), True)):
        points = random_embedding(g, 3).vertex_points
        walks.clear()
        built.clear()
        emb = straight_line_embedding(g, points)
        ids = sorted(emb.edge_paths)
        assert embedding._general_position(g, points, emb.edge_paths) == certified
        if certified:
            assert walks == built == []
        else:
            # construction: each edge against the smaller ids, so each pair once
            assert walks == [(eid, ids[:i]) for i, eid in enumerate(ids)]
            assert sorted(built) == sorted(emb.edge_paths.values())
        for eid in (0, 7, 14):
            lazy = [emb.edge_paths[f] for f in ids] if certified and eid == 0 else []
            walks.clear()
            built.clear()
            reroute_edge(emb, eid, emb.edge_paths[eid])
            assert walks == [(eid, [f for f in ids if f != eid])]
            assert built == lazy + [emb.edge_paths[eid]]


def test_a_reroute_checks_against_the_paths_it_stores():
    # edge 0 runs along the x axis, then over the detour (0,0,0)-(2,0,4)-(4,0,0);
    # edge 1's two candidate paths each touch exactly one of those two paths
    g = graph_from_pairs([(1, 2), (3, 4)])
    points = {1: (0, 0, 0), 2: (4, 0, 0), 3: (-1, -2, 1), 4: (-1, 2, 1)}
    emb = straight_line_embedding(g, points)
    records = emb._records
    moved = reroute_edge(emb, 0, ((0, 0, 0), (2, 0, 4), (4, 0, 0)))
    over_new = ((-1, -2, 1), (1, 0, 2), (-1, 2, 1))  # touches the detour
    over_old = ((-1, -2, 1), (1, 0, 0), (-1, 2, 1))  # touches the x axis
    with pytest.raises(EmbeddingError, match="edges 0 and 1 "):
        reroute_edge(moved, 1, over_new)
    moved_twice = reroute_edge(moved, 1, over_old)
    # the embedding that was rerouted keeps its own paths and records
    assert emb._records is records
    with pytest.raises(EmbeddingError, match="edges 0 and 1 "):
        reroute_edge(emb, 1, over_old)
    assert reroute_edge(emb, 1, over_new).edge_paths[1] == over_new
    for e in (emb, moved, moved_twice):
        assert e._records == SpatialEmbedding(g, points, e.edge_paths)._records


_CUBE_POINTS = st.tuples(*[st.integers(-2, 2)] * 3)


class _ScriptedRandom:
    """Stands in for random.Random: randint returns the scripted
    coordinates, over and over."""

    def __init__(self, coords):
        self._coords = itertools.cycle(coords)

    def randint(self, lo, hi):
        return next(self._coords)


@st.composite
def _detours(draw):
    """A valid embedding of a small graph on points of [-2, 2]^3, with
    straight edges or with one edge rerouted through waypoints, one of its
    edges, and the detour midpoints to script, in the same cube; the first
    may be planted on the edge's old path, where a detour must not go."""
    kind = draw(st.sampled_from(("straight", "waypoints")))
    n = draw(st.integers(3, 5))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          min_size=1, max_size=6, unique=True))
    g = graph_from_pairs(pairs, vertices=range(1, n + 1))
    points = dict(zip(range(1, n + 1),
                      draw(st.lists(_CUBE_POINTS, min_size=n, max_size=n, unique=True))))
    try:
        emb = straight_line_embedding(g, points)
        if kind == "waypoints":
            f = draw(st.sampled_from(g.edges))
            waypoints = draw(st.lists(_CUBE_POINTS, min_size=1, max_size=2))
            emb = reroute_edge(emb, f.id, (points[f.u], *waypoints, points[f.v]))
    except EmbeddingError:
        assume(False)
    eid = draw(st.sampled_from(g.edges)).id
    midpoints = draw(st.lists(_CUBE_POINTS, min_size=1, max_size=6))
    if draw(st.booleans()):
        old = emb.edge_paths[eid]
        on_old = [p for a, b in zip(old, old[1:]) for p in _lattice_points(a, b)]
        midpoints.insert(0, draw(st.sampled_from(on_old)))
    return kind, emb, eid, [c for p in midpoints for c in p]


@settings(max_examples=300, deadline=None)
@given(_detours())
def test_random_detour_draws_as_the_two_step_reference(case):
    kind, emb, eid, script = case

    def outcome(draw):
        try:
            midpoint, rerouted, rejected = draw(emb, eid, _ScriptedRandom(script))
        except RetryLimitExceeded:
            return "gave up"
        return midpoint, dict(rerouted.edge_paths), rejected, rerouted._records

    got = outcome(random_detour)
    assert got == outcome(oracles.two_step_detour)
    if got == "gave up":
        event(f"{kind}: gave up")
    else:
        event(f"{kind}: accepted{' after rejects' if got[2] else ''}")
        assert got[3] == SpatialEmbedding(emb.graph, emb.vertex_points, got[1])._records


def test_random_detour_checks_each_drawn_arc_once(monkeypatch):
    # the arc's own checks run once per draw, inside `reroute_edge`; the
    # old path is then walked against the arc's stored records alone
    monkeypatch.setattr(embedding, "COORDINATE_BOUND", 6)
    emb = random_embedding(complete_graph(6), 1)
    checked, drawn = [], []
    simple, draw = embedding._check_path_simple, embedding._random_point
    monkeypatch.setattr(embedding, "_check_path_simple",
                        lambda eid, path: checked.append(path) or simple(eid, path))
    monkeypatch.setattr(embedding, "_random_point",
                        lambda rng: drawn.append(draw(rng)) or drawn[-1])
    rejected = 0
    rng = random.Random(3)
    for e in emb.graph.edges:
        checked.clear()
        drawn.clear()
        pu, pv = emb.vertex_points[e.u], emb.vertex_points[e.v]
        midpoint, _, tries = random_detour(emb, e.id, rng)
        assert checked == [(pu, m, pv) for m in drawn]
        assert drawn[-1] == midpoint and len(drawn) == tries + 1
        rejected += tries
    assert rejected > 0


def _reference_paths_disjoint(e, path_e, f, path_f, points):
    """_check_paths_disjoint as it was before its bounding-box reject."""
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
            if oracles.segments3_intersect(a1, b1, a2, b2):
                raise EmbeddingError(f"edges {e.id} and {f.id} intersect")


def _pair_verdict(check, e, path_e, f, path_f, points):
    try:
        check(e, path_e, f, path_f, points)
    except EmbeddingError as exc:
        return str(exc)
    return None


def _walk_verdicts(x, path_x, y, path_y):
    """The verdicts of the flat pair walk on paths x and y, x.id <= y.id, so
    that x's segments are walked outermost: with y as the path under check
    against x, and (for distinct ids) with x under check against y."""
    segs_x, segs_y = embedding._segments(path_x), embedding._segments(path_y)
    checks = [lambda: embedding._check_against(x, segs_x, [(y, segs_y)])]
    if x.id < y.id:
        checks.append(lambda: embedding._check_against(y, segs_y, [(x, segs_x)]))
    verdicts = set()
    for check in checks:
        try:
            check()
            verdicts.add(None)
        except EmbeddingError as exc:
            verdicts.add(str(exc))
    return verdicts


def _outer_first(x, path_x, y, path_y):
    """The same pair with x renumbered 0 and y 1 (both 0 if they are one
    edge): the walk takes the smaller id outermost and names it first."""
    same = x == y
    return x._replace(id=0), path_x, y._replace(id=0 if same else 1), path_y


# Paths whose first segments have bounding boxes that touch on exactly
# one face, edge or corner, with and without a contact there: (path of
# edge 1-2, path of the other edge, whether that edge shares vertex 2).
TOUCHING_BOXES = {
    "face, apart": (((0, 0, 0), (2, 2, 2)), ((2, 2, 0), (4, 0, 2)), False),
    "face, contact": (((0, 0, 0), (2, 1, 1)), ((2, 0, 0), (2, 2, 2)), False),
    "edge, apart": (((0, 0, 0), (2, 2, 2)), ((2, 2, 0), (4, 4, 1)), False),
    "edge, contact": (((0, 0, 0), (2, 2, 2)), ((2, 2, 0), (2, 2, 4)), False),
    "corner, apart": (((0, 2, 0), (2, 0, 2)), ((2, 2, 2), (4, 4, 4)), False),
    "corner, contact at a waypoint": (((0, 0, 0), (2, 2, 2), (0, 2, 4)),
                                      ((2, 2, 2), (4, 4, 4)), False),
    "corner, shared vertex": (((0, 0, 0), (2, 2, 2)), ((2, 2, 2), (4, 4, 4)), True),
}


@pytest.mark.parametrize("case", sorted(TOUCHING_BOXES))
def test_box_reject_keeps_touching_boxes(case):
    # each case on every axis, mirrored, with either path reversed and in
    # either argument order, so that every clause of the box test is hit
    touching_e, touching_f, shares = TOUCHING_BOXES[case]
    e, f = Edge(0, 1, 2), Edge(1, 2, 3) if shares else Edge(1, 3, 4)
    for axes, sign, flip_e, flip_f, swap in itertools.product(
            ((0, 1, 2), (1, 2, 0), (2, 0, 1)), (1, -1), (1, -1), (1, -1), (False, True)):
        def moved(path, flip):
            return tuple(tuple(sign * p[i] for i in axes) for p in path[::flip])
        path_e, path_f = moved(touching_e, 1), moved(touching_f, 1)
        points = {1: path_e[0], 2: path_e[-1], f.u: path_f[0], f.v: path_f[-1]}
        args = (e, moved(touching_e, flip_e), f, moved(touching_f, flip_f))
        if swap:
            args = args[2:] + args[:2]
        args = _outer_first(*args)
        expected = _pair_verdict(_reference_paths_disjoint, *args, points)
        assert (expected is None) == case.endswith(("apart", "shared vertex"))
        assert _walk_verdicts(*args) == {expected}


_GRID4 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(corners=st.lists(_GRID4, min_size=4, max_size=4, unique=True),
       shares=st.sampled_from(["none", "one", "same edge"]),
       waypoints=st.lists(st.lists(_GRID4, max_size=2), min_size=2, max_size=2))
@example(corners=[(0, 0, 0), (2, 2, 2), (2, 2, 0), (4, 0, 2)], shares="none",
         waypoints=[[], []])
# f's first segment has length zero, so its second starts at f's first
# point: an end of f's path, though not the first point of its segment list
@example(corners=[(0, 0, 1), (1, 0, 0), (0, 0, 0), (0, 1, 0)], shares="one",
         waypoints=[[], [(1, 0, 0)]])
def test_box_reject_agrees_with_reference(corners, shares, waypoints):
    e = Edge(0, 1, 2)
    f = {"none": Edge(1, 3, 4), "one": Edge(1, 2, 3), "same edge": e}[shares]
    points = dict(zip((1, 2, 3, 4), corners))
    path_e = (points[1], *waypoints[0], points[2])
    path_f = (points[f.u], *waypoints[1], points[f.v])
    assert (_walk_verdicts(e, path_e, f, path_f)
            == {_pair_verdict(_reference_paths_disjoint, e, path_e, f, path_f, points)})


def _sets_reference_paths_disjoint(e, path_e, f, path_f, points):
    """_check_paths_disjoint as it was before its inline contact and
    coplanarity tests: sets and the geometry predicates on every pair."""
    shared = None
    segs_f = list(zip(path_f, path_f[1:]))
    for a1, b1 in zip(path_e, path_e[1:]):
        for a2, b2 in segs_f:
            if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
                if shared is None:
                    shared = ({points[v] for v in (e.u, e.v)}
                              & {points[v] for v in (f.u, f.v)})
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
            elif (not oracles._boxes_apart(a1, b1, a2, b2)
                    and oracles.segments3_intersect(a1, b1, a2, b2)):
                raise EmbeddingError(f"edges {e.id} and {f.id} intersect")


# lattice coordinates in steps of 1/2, kept in normal form (ints when whole)
_HALVES = st.integers(0, 6).map(lambda k: k // 2 if k % 2 == 0 else Fraction(k, 2))
_POINT = st.tuples(_HALVES, _HALVES, _HALVES)
_CONTACTS = ("collinear at vertex", "non-vertex contact", "coplanar crossing")


def _towards(s, p, k):
    return tuple(a + k * (b - a) for a, b in zip(s, p))


@st.composite
def _path_pairs(draw):
    """Two paths of edges e = 1-2 and f, free or with a planted contact:
    f leaving the vertex it shares with e along e's last segment, f passing
    through a point of e that is no shared vertex, or f crossing a segment
    of e in a plane they share."""
    kind = draw(st.sampled_from(("free",) + _CONTACTS))
    shares = draw(st.sampled_from(["one", "same edge"] if kind == "collinear at vertex"
                                  else ["none", "one", "same edge"]))
    e = Edge(0, 1, 2)
    f = {"none": Edge(1, 3, 4), "one": Edge(1, 2, 3), "same edge": e}[shares]
    points = dict(zip((1, 2, 3, 4), draw(st.lists(_POINT, min_size=4, max_size=4))))
    path_e = (points[1], *draw(st.lists(_POINT, max_size=2)), points[2])
    waypoints = draw(st.lists(_POINT, max_size=2))
    if kind == "collinear at vertex":
        # f leaves vertex 2 along e's last segment, which ends there; vertex
        # 2 is where f = 2-3 starts, and where f = e ends
        k = draw(st.sampled_from([Fraction(1, 2), 1, 2]))
        planted = _towards(points[2], path_e[-2], k)
        if shares == "one":
            path_f = (points[2], planted, *waypoints, points[3])
        else:
            path_f = (points[1], *waypoints, planted, points[2])
        return kind, (e, path_e, f, path_f, points), draw(st.booleans())
    i = draw(st.integers(0, len(path_e) - 2))
    a, b = path_e[i], path_e[i + 1]
    spot = draw(st.sampled_from([a, b, _towards(a, b, Fraction(1, 2))]))
    if kind == "non-vertex contact":
        waypoints.insert(draw(st.integers(0, len(waypoints))), spot)
    elif kind == "coplanar crossing":
        d = draw(st.tuples(*[st.integers(-2, 2)] * 3))
        if not any(d):
            d = (1, 0, 0)
        at = draw(st.integers(0, len(waypoints)))
        waypoints[at:at] = [_towards(spot, tuple(c + x for c, x in zip(spot, d)), 1),
                            _towards(spot, tuple(c - x for c, x in zip(spot, d)), 1)]
    path_f = (points[f.u], *waypoints, points[f.v])
    return kind, (e, path_e, f, path_f, points), draw(st.booleans())


@settings(max_examples=500, deadline=None)
@given(_path_pairs())
def test_inline_contact_tests_agree_with_reference(case):
    kind, (e, path_e, f, path_f, points), swap = case
    args = _outer_first(*((f, path_f, e, path_e) if swap else (e, path_e, f, path_f)))
    expected = _pair_verdict(_sets_reference_paths_disjoint, *args, points)
    event(f"{kind}: {expected and expected.split(' ', 4)[-1]}")
    assert _walk_verdicts(*args) == {expected}
    assert _pair_verdict(_reference_paths_disjoint, *args, points) == expected
    assert _pair_verdict(oracles._check_paths_disjoint, *args, points) == expected
    if kind == "collinear at vertex" and path_e[-2] != path_e[-1]:
        assert expected is not None


# -- the flat pair walk against the checks it replaced (tests/oracles.py) ------

_CUBE = st.tuples(*[st.integers(-3, 3)] * 3)
_STEP = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
_FAULTS = ("non-vertex contact", "collinear at vertex", "coplanar crossing",
           "vertex on a foreign edge", "isolated vertex on an edge",
           "zero-length segment", "repeated waypoint", "self-intersection")


def _mid(a, b):
    return tuple(normalize_rat(Fraction(x + y, 2)) for x, y in zip(a, b))


def _along(p, d, k):
    return tuple(normalize_rat(c + k * x) for c, x in zip(p, d))


@st.composite
def _faulty_embeddings(draw):
    """A small graph with straight and polyline edges on lattice points and
    one planted fault, or none ("free").  Any draw may also be invalid on
    its own: lattice points are often collinear or coplanar."""
    kind = draw(st.sampled_from(("free",) + _FAULTS))
    n = draw(st.integers(3, 6))
    isolated = draw(st.integers(1 if kind == "isolated vertex on an edge" else 0, 1))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          min_size=3, max_size=10, unique=True))
    g = graph_from_pairs(pairs, vertices=range(1, n + isolated + 1))
    points = dict(zip(sorted(g.vertices),
                      draw(st.lists(_CUBE, min_size=g.n, max_size=g.n, unique=True))))
    edges = sorted(g.edges)
    waypoints = {f.id: draw(st.lists(_CUBE, max_size=2)) for f in edges}

    def path(f):
        return (points[f.u], *waypoints[f.id], points[f.v])

    def insert(f, new):
        at = draw(st.integers(0, len(waypoints[f.id])))
        waypoints[f.id][at:at] = new

    def through(p):
        """p itself, or a segment through p, as waypoints."""
        if draw(st.booleans()):
            return [p]
        d = draw(_STEP)
        return [_along(p, d, 1), _along(p, d, -1)]

    e = draw(st.sampled_from(edges))
    others = [f for f in edges if f != e]
    adjacent = [(x, y) for x in edges for y in edges
                if x != y and {x.u, x.v} & {y.u, y.v}]
    foreign = [(w, f) for w in sorted(g.vertices) if g.degree(w) for f in edges
               if w not in (f.u, f.v)]
    if kind == "collinear at vertex" and adjacent:
        # f leaves the vertex w it shares with e along e's path from w
        e, f = draw(st.sampled_from(adjacent))
        w = e.u if e.u in (f.u, f.v) else e.v
        p = path(e)
        nearest = p[1] if w == e.u else p[-2]
        planted = _along(points[w], [b - a for a, b in zip(points[w], nearest)],
                         draw(st.sampled_from([Fraction(1, 2), 1, 2])))
        if w == f.u:
            waypoints[f.id].insert(0, planted)
        else:
            waypoints[f.id].append(planted)
    elif kind in ("non-vertex contact", "coplanar crossing"):
        # another path through a point inside a segment of e (or through a
        # waypoint of e), either meeting it there or crossing it
        p = path(e)
        i = draw(st.integers(0, len(p) - 2))
        spot = draw(st.sampled_from([_mid(p[i], p[i + 1]), *waypoints[e.id]]))
        f = draw(st.sampled_from(others))
        insert(f, [spot] if kind == "non-vertex contact" else through(spot)[-2:])
    elif kind == "vertex on a foreign edge" and foreign:
        w, f = draw(st.sampled_from(foreign))
        insert(f, through(points[w]))
    elif kind == "isolated vertex on an edge":
        insert(e, through(points[draw(st.sampled_from(g.isolated_vertices))]))
    elif kind == "zero-length segment":
        p = path(e)
        i = draw(st.integers(0, len(p) - 1))
        waypoints[e.id] = list((*p[:i + 1], *p[i:])[1:-1])
    elif kind == "repeated waypoint":
        p, q = draw(_CUBE), draw(_CUBE)
        insert(e, [p, q, p])
    elif kind == "self-intersection":
        # a later segment of e crosses e's first segment inside it
        first = draw(_CUBE)
        waypoints[e.id][:0] = [first, *through(_mid(points[e.u], first))[-2:]]
        if len(waypoints[e.id]) == 2:  # `through` gave the midpoint itself
            waypoints[e.id][1:1] = [draw(_CUBE)]
    else:
        kind = "free"  # no pair of edges to plant the fault on
    return kind, g, points, {f.id: path(f) for f in edges}


def _error(check):
    try:
        check()
    except EmbeddingError as exc:
        return str(exc)
    return None


# vertex 3 sits on a waypoint of edge 1-2, and edge 3-4 leaves it back
# along 1-2's first segment: the first contact the walk meets is at a path
# end of 3-4 but not of 1-2, so it is a non-vertex contact, not an overlap
_WAYPOINT_VERTEX = graph_from_pairs([(1, 2), (3, 4)])
_WAYPOINT_POINTS = {1: (0, 0, 0), 2: (4, 4, 0), 3: (4, 0, 0), 4: (2, 0, 5)}


@settings(max_examples=400, deadline=None)
@given(_faulty_embeddings())
@example(("vertex on a foreign edge", _WAYPOINT_VERTEX, _WAYPOINT_POINTS,
          {0: ((0, 0, 0), (4, 0, 0), (4, 4, 0)), 1: ((4, 0, 0), (2, 0, 0), (2, 0, 5))}))
def test_flat_pair_walk_matches_the_reference_checks(case):
    kind, g, points, paths = case
    expected = _error(lambda: oracles._validate(g, points, paths))
    event(f"{kind}: {expected and re.sub(r'[0-9]+', '#', expected)}")
    if kind != "free":
        assert expected is not None
    assert _error(lambda: embedding._validate(g, points, paths)) == expected
    assert _error(lambda: SpatialEmbedding(g, points, paths)) == expected
    # the order of a reroute: each edge against all the others, in id order
    edges = sorted(g.edges)
    for e in edges:
        others = [f for f in edges if f != e]
        assert _error(lambda: embedding._check_edge(
            g, points, e, paths[e.id], [(f, embedding._segments(paths[f.id])) for f in others])
        ) == _error(lambda: oracles._check_edge(
            g, points, e, paths[e.id], [(f, paths[f.id]) for f in others]))


def test_random_embedding_accepts_and_rejects_the_same_draws(monkeypatch):
    # on the small cube [-2, 2]^3 many draws are degenerate and redrawn
    monkeypatch.setattr(embedding, "COORDINATE_BOUND", 2)

    def outcomes(validate, g, seed):
        log = []

        def logged(*args):
            log.append(_error(lambda: validate(*args)))
            if log[-1] is not None:
                raise EmbeddingError(log[-1])

        with monkeypatch.context() as patch:
            patch.setattr(embedding, "_validate", logged)
            try:
                result = sorted(random_embedding(g, seed).vertex_points.items())
            except RetryLimitExceeded as exc:
                result = str(exc)
        return log, result

    rejected = 0
    for g in (complete_graph(6), k331_graph(), complete_graph(7)):
        for seed in range(60):
            log, result = outcomes(embedding._validate, g, seed)
            assert (log, result) == outcomes(oracles._validate, g, seed)
            rejected += sum(message is not None for message in log)
    assert rejected > 100


@st.composite
def _cube_embeddings(draw):
    """A graph on 3-6 vertices, some of them isolated, with its vertices on
    distinct points of [-2, 2]^3 and each edge straight or bent through one
    or two waypoints of the same cube: many quadruples are coplanar and
    many triples collinear."""
    n = draw(st.integers(3, 6))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          max_size=10, unique=True))
    g = graph_from_pairs(pairs, vertices=range(1, n + 1))
    points = dict(zip(range(1, n + 1),
                      draw(st.lists(_CUBE_POINTS, min_size=n, max_size=n, unique=True))))
    paths = {e.id: (points[e.u], *draw(st.lists(_CUBE_POINTS, max_size=2)), points[e.v])
             for e in g.edges}
    return g, points, paths


@settings(max_examples=1000, deadline=None)
@given(_cube_embeddings())
def test_general_position_certificate_accepts_only_what_the_walk_accepts(case):
    g, points, paths = case
    expected = _error(lambda: oracles._validate(g, points, paths))
    certified = embedding._general_position(g, points, paths)
    event(f"certified: {certified}, walk: {'accepts' if expected is None else 'rejects'}")
    if certified:
        assert expected is None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_general_position", lambda *args: False)
            walked = embedding._validate(g, points, paths)
        assert SpatialEmbedding(g, points, paths)._records == walked
    else:
        assert _error(lambda: SpatialEmbedding(g, points, paths)) == expected


def _paths(g, points, waypoints=None):
    """g's edges as paths from u to v, through the waypoints given per
    edge id, straight otherwise."""
    waypoints = waypoints or {}
    return {e.id: (points[e.u], *waypoints.get(e.id, ()), points[e.v]) for e in g.edges}


_K4 = complete_graph(4)
_K4_POINTS = {1: (0, 0, 0), 2: (2, 4, 8), 3: (1, 1, 1), 4: (3, 9, 27)}  # on t -> (t, t^2, t^3)
_FOLDED = graph_from_pairs([(1, 2), (2, 3)])
_SKEW = graph_from_pairs([(1, 2), (3, 4)])
_SKEW_POINTS = {1: (0, 0, 0), 2: (1, 0, 0), 3: (0, 1, 1), 4: (0, 2, -1)}


def _general_position_cases():
    k6 = random_embedding(complete_graph(6), 1)
    petersen = random_embedding(petersen_graph(), 1)
    reversed_path = {**_paths(_K4, _K4_POINTS), 0: (_K4_POINTS[2], _K4_POINTS[1])}
    with_isolated = graph_from_pairs([e.pair() for e in _K4.edges], vertices=range(1, 6))
    return [
        # name, graph, points, paths, certified, the walk's error
        ("K6 straight", k6.graph, k6.vertex_points, k6.edge_paths, True, None),
        ("K6 with a bent edge", k6.graph, k6.vertex_points,
         _paths(k6.graph, k6.vertex_points, {3: [(7, -5, 11)]}), True, None),
        ("Petersen straight: C(10, 4) > C(15, 2)", petersen.graph, petersen.vertex_points,
         petersen.edge_paths, False, None),
        ("skew pair: C(4, 4) == C(2, 2)", _SKEW, _SKEW_POINTS, _paths(_SKEW, _SKEW_POINTS),
         True, None),
        ("N = 3, folded", _FOLDED, {1: (0, 0, 0), 2: (2, 0, 0), 3: (1, 0, 0)},
         {0: ((0, 0, 0), (2, 0, 0)), 1: ((2, 0, 0), (1, 0, 0))},
         False, "edges 0 and 1 overlap at vertex"),
        ("path from the wrong end", _K4, _K4_POINTS, reversed_path,
         False, "edge 0 path must run from vertex 1 to vertex 2"),
        ("waypoint on a vertex point", _K4, _K4_POINTS,
         _paths(_K4, _K4_POINTS, {0: [_K4_POINTS[3]]}),
         False, "edges 0 and 1 touch at a non-vertex point"),
        ("waypoint on another waypoint", _K4, _K4_POINTS,
         _paths(_K4, _K4_POINTS, {0: [(5, -7, 2)], 5: [(5, -7, 2)]}),
         False, "edges 0 and 5 touch at a non-vertex point"),
        ("isolated vertex on an edge", with_isolated, {**_K4_POINTS, 5: (1, 2, 4)},
         _paths(with_isolated, _K4_POINTS), False, "vertex 5 lies on edge 0"),
    ]


@pytest.mark.parametrize("case", _general_position_cases(), ids=lambda case: case[0])
def test_general_position_certificate_cases(case):
    _, g, points, paths, certified, error = case
    assert embedding._general_position(g, points, paths) == certified
    assert _error(lambda: oracles._validate(g, points, paths)) == error
    assert _error(lambda: SpatialEmbedding(g, points, paths)) == error
