import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
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
from linkless.geometry import (
    point_on_segment3,
    segments3_intersect,
    shared_endpoint_segments_overlap,
)
from linkless.multigraph import Edge, GraphError, complete_graph, graph_from_pairs, parse_graph

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


# -- incremental validation of reroutes ---------------------------------------


def test_embedding_maps_are_read_only():
    emb = straight_line_embedding(TRI, TRI_POINTS)
    moved = reroute_edge(emb, 0, ((0, 0, 0), (2, -3, 5), (4, 0, 0)))
    for e in (emb, moved):
        with pytest.raises(TypeError):
            e.vertex_points[1] = (9, 9, 9)
        with pytest.raises(TypeError):
            e.edge_paths[0] = ((0, 0, 0), (4, 0, 0))
    assert emb.point(1) == (0, 0, 0) and emb.path(0) == ((0, 0, 0), (4, 0, 0))


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
    u, v = base.point(e.u), base.point(e.v)
    top = len(vertices)
    waypoints = draw(st.lists(st.tuples(st.integers(-1, top), st.integers(-1, top ** 2),
                                        st.integers(-1, top ** 3)), max_size=2))
    if kind == "contact":
        f = draw(st.sampled_from(sorted(f for f in g.edges if f.id != e.id)))
        path_f = base.path(f.id)
        spot = draw(st.sampled_from(_lattice_points(path_f[0], path_f[1])))
        waypoints.insert(draw(st.integers(0, len(waypoints))), spot)
    elif kind == "isolated":
        spot = base.point(draw(st.sampled_from(g.isolated_vertices)))
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
    calls = []
    attempts = []
    check, draw = embedding._check_paths_disjoint, embedding.straight_line_embedding
    monkeypatch.setattr(embedding, "_check_paths_disjoint",
                        lambda *args: calls.append(args) or check(*args))
    monkeypatch.setattr(embedding, "straight_line_embedding",
                        lambda *args: attempts.append(args) or draw(*args))
    g = complete_graph(6)
    emb = random_embedding(g, 3)
    assert 0 < len(calls) <= 105 * len(attempts)
    for eid in (0, 7, 14):
        calls.clear()
        reroute_edge(emb, eid, emb.path(eid))
        assert len(calls) == 14


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
            if segments3_intersect(a1, b1, a2, b2):
                raise EmbeddingError(f"edges {e.id} and {f.id} intersect")


def _pair_verdict(check, e, path_e, f, path_f, points):
    try:
        check(e, path_e, f, path_f, points)
    except EmbeddingError as exc:
        return str(exc)
    return None


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
        expected = _pair_verdict(_reference_paths_disjoint, *args, points)
        assert (expected is None) == case.endswith(("apart", "shared vertex"))
        assert _pair_verdict(embedding._check_paths_disjoint, *args, points) == expected


_GRID4 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(corners=st.lists(_GRID4, min_size=4, max_size=4, unique=True),
       shares=st.sampled_from(["none", "one", "same edge"]),
       waypoints=st.lists(st.lists(_GRID4, max_size=2), min_size=2, max_size=2))
@example(corners=[(0, 0, 0), (2, 2, 2), (2, 2, 0), (4, 0, 2)], shares="none",
         waypoints=[[], []])
def test_box_reject_agrees_with_reference(corners, shares, waypoints):
    e = Edge(0, 1, 2)
    f = {"none": Edge(1, 3, 4), "one": Edge(1, 2, 3), "same edge": e}[shares]
    points = dict(zip((1, 2, 3, 4), corners))
    path_e = (points[1], *waypoints[0], points[2])
    path_f = (points[f.u], *waypoints[1], points[f.v])
    assert (_pair_verdict(embedding._check_paths_disjoint, e, path_e, f, path_f, points)
            == _pair_verdict(_reference_paths_disjoint, e, path_e, f, path_f, points))


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
            elif (not embedding._boxes_apart(a1, b1, a2, b2)
                    and segments3_intersect(a1, b1, a2, b2)):
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
    args = (f, path_f, e, path_e) if swap else (e, path_e, f, path_f)
    expected = _pair_verdict(_sets_reference_paths_disjoint, *args, points)
    event(f"{kind}: {expected and expected.split(' ', 4)[-1]}")
    assert _pair_verdict(embedding._check_paths_disjoint, *args, points) == expected
    assert _pair_verdict(_reference_paths_disjoint, *args, points) == expected
    if kind == "collinear at vertex" and path_e[-2] != path_e[-1]:
        assert expected is not None
