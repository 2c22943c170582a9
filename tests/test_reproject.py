"""`reproject` splices a diagram for a one-edge reroute; it must equal a
fresh `project` record for record, raise NonRegularProjection exactly
when `project` does, and `edge_swap_check` must stay correct with it.

Embeddings are drawn from a seed: vertex and waypoint coordinates in a
box whose side is small enough, in some draws, that directions with
small components are often non-regular, optionally with rational
coordinates, and on graphs with isolated vertices (markers).
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkless.experiments as experiments
import linkless.omega as omega
import linkless.projection as projection
from linkless.embedding import EmbeddingError, SpatialEmbedding, random_embedding, reroute_edge
from linkless.experiments import edge_swap_check
from linkless.multigraph import complete_graph, graph_from_pairs, k331_graph
from linkless.projection import (
    NonRegularProjection,
    ProjectedDiagram,
    project,
    reproject,
)

GRAPHS = {
    "K6": complete_graph(6),
    "K3,3,1": k331_graph(),
    "K7": complete_graph(7),
    "K6+isolated": graph_from_pairs(
        [(u, v) for u in range(1, 7) for v in range(u + 1, 7)], vertices=range(1, 9)),
}
DIRECTIONS = [(0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, -1, 2)]


def _coordinate(rng, bound, denominators):
    q = rng.choice(denominators)
    return Fraction(rng.randint(-bound * q, bound * q), q)


def _point(rng, bound, denominators):
    return tuple(_coordinate(rng, bound, denominators) for _ in range(3))


def _random_graph(rng):
    n = rng.randint(3, 7)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.5]
    return graph_from_pairs(pairs or [(1, 2)], vertices=range(1, n + 1))


def _draw(rng, g, bound, denominators, waypoints, arc_denominators=None):
    """A valid embedding of g and a valid reroute of one of its edges, the
    arc's waypoints drawn with ``arc_denominators`` (default: as the
    embedding's points), or None when none was found in a bounded number
    of draws."""
    for _ in range(40):
        points = {v: _point(rng, bound, denominators) for v in g.vertices}
        paths = {e.id: (points[e.u],
                        *(_point(rng, bound, denominators)
                          for _ in range(rng.randint(0, waypoints))),
                        points[e.v])
                 for e in g.edges}
        try:
            emb = SpatialEmbedding(g, points, paths)
            break
        except EmbeddingError:
            continue
    else:
        return None
    e = g.edges[rng.randrange(g.m)]
    for _ in range(40):
        arc = (emb.vertex_points[e.u],
               *(_point(rng, bound, arc_denominators or denominators)
                 for _ in range(rng.randint(0, 2))),
               emb.vertex_points[e.v])
        try:
            return emb, reroute_edge(emb, e.id, arc), e.id
        except EmbeddingError:
            continue
    return None


def _outcome(thunk):
    try:
        return thunk()
    except NonRegularProjection as exc:
        return type(exc)


def compare(emb, moved, eid, direction):
    """'regular' or 'non-regular' as `project` finds the moved embedding;
    None when the original one is not regular along the direction.  The
    splice must agree with `project` either way."""
    try:
        before = project(emb, direction)
    except NonRegularProjection:
        return None
    fresh = _outcome(lambda: project(moved, direction))
    spliced = _outcome(lambda: reproject(before, moved, eid))
    if fresh is NonRegularProjection:
        assert spliced is NonRegularProjection
        return "non-regular"
    assert isinstance(spliced, ProjectedDiagram)
    assert spliced.crossings == fresh.crossings  # record for record, in order
    assert spliced == fresh
    # the result carries a table of its own, so a second splice works too
    again = _outcome(lambda: reproject(spliced, emb, eid))
    assert again == project(emb, direction)
    return "regular"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32),
       graph=st.sampled_from([*GRAPHS, "random"]),
       bound=st.sampled_from([2, 4, 50, 10**6]),
       denominators=st.sampled_from([(1,), (1, 2, 3), (5, 7)]),
       waypoints=st.integers(0, 2),
       arc_denominators=st.sampled_from([(1,), (1, 2, 3), (5, 7)]))
def test_splice_equals_a_fresh_projection(seed, graph, bound, denominators, waypoints,
                                          arc_denominators):
    rng = random.Random(seed)
    g = GRAPHS[graph] if graph in GRAPHS else _random_graph(rng)
    drawn = _draw(rng, g, bound, denominators, waypoints, arc_denominators)
    if drawn is None:
        return
    directions = DIRECTIONS + [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
    for d in directions:
        if d != (0, 0, 0):
            compare(*drawn, d)


def test_the_sweep_covers_regular_and_non_regular_splices():
    # the same comparison on a seeded sweep, which must meet both outcomes
    # on every kind of draw
    seen = Counter()
    rng = random.Random(5)
    for kind, bound, denominators, waypoints in [
            ("straight", 2, (1,), 0), ("polyline", 4, (1,), 2),
            ("rational", 3, (1, 2, 3), 1), ("markers", 3, (1,), 1)]:
        for _ in range(25):
            g = GRAPHS["K6+isolated"] if kind == "markers" else _random_graph(rng)
            drawn = _draw(rng, g, bound, denominators, waypoints)
            if drawn is not None:
                for d in DIRECTIONS:
                    seen[kind, compare(*drawn, d)] += 1
    for kind in ("straight", "polyline", "rational", "markers"):
        assert seen[kind, "regular"] > 0 and seen[kind, "non-regular"] > 0, seen


def test_a_new_scale_gets_a_full_pass(monkeypatch):
    # the old path's waypoint is the only point with denominator 7: after
    # the reroute the embedding clears with scale 1, as `project` clears it
    g = graph_from_pairs([(1, 2), (3, 4)])
    points = {1: (0, 0, 0), 2: (10, 0, 0), 3: (5, -5, 3), 4: (5, 5, 3)}
    emb = SpatialEmbedding(g, points, {0: ((0, 0, 0), (Fraction(36, 7), 1, 9), (10, 0, 0)),
                                       1: ((5, -5, 3), (5, 5, 3))})
    moved = reroute_edge(emb, 0, ((0, 0, 0), (4, 1, 7), (10, 0, 0)))
    before = project(emb, (0, 0, 1))
    passes = []
    real = projection._crossing_pass
    monkeypatch.setattr(projection, "_crossing_pass",
                        lambda *args: passes.append(1) or real(*args))
    assert reproject(before, moved, 0) == project(moved, (0, 0, 1))
    assert len(passes) == 2


# (fault, graph edges, vertex points, the new path of edge 0): along
# (0, 0, 1) the embedding with straight edges is regular and the moved
# one is not, for this one reason
SPLICE_FAULTS = [
    ("end-on", [(1, 2), (3, 4)],
     {1: (0, 0, 0), 2: (10, 0, 0), 3: (5, -5, 3), 4: (5, 5, 3)},
     ((0, 0, 0), (0, 0, 5), (10, 0, 0))),
    ("a vertex projects onto an edge", [(1, 2)],
     {1: (0, 0, 0), 2: (10, 0, 0), 3: (2, 4, 9)},
     ((0, 0, 0), (5, 10, 1), (10, 0, 0))),
    ("triple point", [(1, 2), (3, 4), (5, 6)],
     {1: (-10, 3, 0), 2: (20, 3, 0), 3: (5, -5, 1), 4: (5, 5, 1),
      5: (0, -5, 2), 6: (10, 5, 2)},
     ((-10, 3, 0), (20, -3, 6), (20, 3, 0))),
    ("tangential contact", [(1, 2), (3, 4)],
     {1: (0, 0, 0), 2: (10, 0, 0), 3: (5, -5, 3), 4: (5, 5, 3)},
     ((0, 0, 0), (5, 2, 0), (10, 0, 0))),
    ("collinear overlapping", [(1, 2), (3, 4)],
     {1: (0, 0, 0), 2: (10, 0, 0), 3: (2, 5, 3), 4: (8, 5, 3)},
     ((0, 0, 0), (0, 5, 0), (6, 5, 0), (10, 0, 0))),
    ("sharing an endpoint overlap", [(1, 2), (1, 3)],
     {1: (0, 0, 0), 2: (10, 0, 0), 3: (0, 10, 5)},
     ((0, 0, 0), (0, 5, 1), (10, 0, 0))),
]


@pytest.mark.parametrize("fault, pairs, points, path", SPLICE_FAULTS,
                         ids=[case[0] for case in SPLICE_FAULTS])
def test_each_fault_of_the_new_path_is_caught(fault, pairs, points, path):
    g = graph_from_pairs(pairs, vertices=sorted(points))
    emb = SpatialEmbedding(g, points, {e.id: (points[e.u], points[e.v]) for e in g.edges})
    moved = reroute_edge(emb, 0, path)
    before = project(emb, (0, 0, 1))
    with pytest.raises(NonRegularProjection, match=fault) as fresh:
        project(moved, (0, 0, 1))
    with pytest.raises(NonRegularProjection) as spliced:
        reproject(before, moved, 0)
    assert str(spliced.value) == str(fresh.value)


def test_a_rational_arc_in_an_integer_embedding():
    emb = SpatialEmbedding(graph_from_pairs([(1, 2), (3, 4)]),
                           {1: (0, 0, 0), 2: (10, 0, 0), 3: (5, -5, 3), 4: (5, 5, 3)},
                           {0: ((0, 0, 0), (10, 0, 0)), 1: ((5, -5, 3), (5, 5, 3))})
    moved = reroute_edge(emb, 0, ((0, 0, 0), (Fraction(9, 2), 1, Fraction(7, 3)), (10, 0, 0)))
    for d in [(0, 0, 1), (1, 2, 3)]:
        assert reproject(project(emb, d), moved, 0) == project(moved, d)


def _detour_above_u(emb, eid, rng):
    # the arc leaves u straight up, so it is seen end-on along (0, 0, 1)
    e = emb.graph.edge(eid)
    pu, pv = emb.vertex_points[e.u], emb.vertex_points[e.v]
    midpoint = (pu[0], pu[1], pu[2] + 3 * 10**6)
    return midpoint, reroute_edge(emb, eid, (pu, midpoint, pv)), 0


K6_MINUS_EDGE = graph_from_pairs(
    [(u, v) for u in range(1, 7) for v in range(u + 1, 7) if (u, v) != (1, 2)], name="K6-e")


# (graph, embedding seed, trials, reports with a violation, sha256 of the
# report's JSON with sorted keys as the code before splicing wrote it,
# which searched every after diagram afresh from the trial seed)
FALLBACK_CASES = [
    (complete_graph(6), 3, 6, set(),
     "d90a092486a6248ed9ec78e292af3a2a53382fc18ced707ca72af494cab6565c"),
    (K6_MINUS_EDGE, 5, 8, {0, 4},
     "ca956d5f2397a01fe013707a0a429d1bc9ba3714086fcb1a4406153df81fb59e"),
]


@pytest.mark.parametrize("graph, emb_seed, trials, failing, digest", FALLBACK_CASES,
                         ids=["K6", "K6-e"])
def test_an_arc_non_regular_at_the_before_direction_falls_back(
        monkeypatch, graph, emb_seed, trials, failing, digest):
    emb = random_embedding(graph, emb_seed)
    monkeypatch.setattr(experiments, "random_detour", _detour_above_u)
    raised = []
    real = omega.reproject

    def watched(diagram, moved, eid):
        try:
            return real(diagram, moved, eid)
        except NonRegularProjection:
            raised.append(diagram.direction)
            raise

    monkeypatch.setattr(omega, "reproject", watched)
    doc = edge_swap_check(emb, trials=trials, seed=0).to_json_dict()
    assert raised == [(0, 0, 1)] * trials  # every main splice, so no check splice ran
    assert {v["trial"] for v in doc["violations"]} == failing
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def _rerouted_edge(monkeypatch, g, seed):
    # the edge `edge_swap_check` reroutes in its first trial
    class Drawn(Exception):
        pass

    def record(emb, eid, rng):
        raise Drawn(eid)

    with monkeypatch.context() as m:
        m.setattr(experiments, "random_detour", record)
        with pytest.raises(Drawn) as drawn:
            edge_swap_check(random_embedding(g, 0), trials=1, seed=seed)
    return g.edge(drawn.value.args[0])


def test_a_splice_that_drops_the_arcs_crossings_breaks_the_pair_identity(monkeypatch):
    g = complete_graph(6)
    e = _rerouted_edge(monkeypatch, g, 0)
    u, v = e.u, e.v
    a, c, b, d = sorted(set(g.vertices) - {u, v})
    # u, v and the arc's midpoint span a triangle in z = 0 that the image
    # of edge uv keeps clear of every other edge's image; the triangle
    # a-c-b pierces it once (edge ac), so lk(D, K) = +-1 for K = acb
    points = {u: (10**6, 0, 0), v: (10**6, 10**6, 0),
              a: (10, 500000, 1000), c: (-20, 500030, -1000),
              b: (-3 * 10**6, 7, 1000), d: (-3 * 10**6, -50, -1000)}
    emb = SpatialEmbedding(g, points, {f.id: (points[f.u], points[f.v]) for f in g.edges})
    midpoint = (-10**6, 500000, 0)
    monkeypatch.setattr(experiments, "random_detour", lambda emb, eid, rng: (
        midpoint, reroute_edge(emb, eid, (points[u], midpoint, points[v])), 0))

    # the premise: edge uv crosses nothing in either before diagram
    before = omega._diagrams(emb, None, 0)
    assert all(e.id not in (r[0], r[4]) for diagram in before for r in diagram.crossings)
    assert edge_swap_check(emb, trials=1, seed=0).passed

    real = omega.reproject

    def drops_the_arc(diagram, moved, eid):
        spliced = real(diagram, moved, eid)
        return ProjectedDiagram(spliced.direction, spliced.edge_endpoints, tuple(
            r for r in spliced.crossings if eid not in (r[0], r[4])))

    monkeypatch.setattr(omega, "reproject", drops_the_arc)
    report = edge_swap_check(emb, trials=1, seed=0)
    kinds = Counter(violation.kind for violation in report.violations)
    assert kinds["pair-identity"] > 0
    assert not report.passed
