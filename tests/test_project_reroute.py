"""A reroute layout, `embedding_layout(emb, (eid, path))`, draws an
embedding and a one-edge reroute of it as one diagram, with the new path
as one more strand: without the new path's records it must be the
diagram of the embedding's own layout record for record, without the old
path's and with the new path's read as the edge it must have the
crossing matrix of the moved embedding's own diagram, the reports read
off it through the reroute table must be those of the two embeddings'
own diagrams, the report after the reroute must recompute only the pairs
through the moved edge, it must raise NonRegularProjection whenever
either embedding's own diagram does, and `edge_swap_check` must stay
correct with it.

Embeddings are drawn from a seed: vertex and waypoint coordinates in a
box whose side is small enough, in some draws, that directions with
small components are often non-regular, optionally with rational
coordinates, and on graphs with isolated vertices (markers).  Each new
path meets the old one only at the edge's ends, as `random_detour`'s do.
"""

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkless.experiments as experiments
import linkless.omega as omega
import linkless.projection as projection
from linkless import embedding
from linkless.embedding import (
    EmbeddingError,
    SpatialEmbedding,
    random_detour,
    random_embedding,
    reroute_edge,
)
from linkless.experiments import edge_swap_check
from linkless.geometry import cross3, is_zero3
from linkless.multigraph import complete_graph, graph_from_pairs, k331_graph
from linkless.projection import NonRegularProjection, embedding_layout, project
from oracles import crossing_matrix_reference, decode

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
    """A valid embedding of g and a valid reroute of one of its edges whose
    arc meets the old path only at the edge's ends, the arc's waypoints
    drawn with ``arc_denominators`` (default: as the embedding's points),
    or None when none was found in a bounded number of draws."""
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
            moved = reroute_edge(emb, e.id, arc)
            i = g.edges.index(e)
            embedding._check_against(e, moved._records[i][1], [emb._records[i]])
            return emb, moved, e.id
        except EmbeddingError:
            continue
    return None


def _project(emb, direction):
    return project(embedding_layout(emb), direction)


def _reroute_layout(emb, moved, eid):
    # one layout of ``emb`` and of the new path of edge ``eid`` in ``moved``
    return embedding_layout(emb, (eid, moved.edge_paths[eid]))


def _reroute_diagram(emb, moved, eid, direction):
    return project(_reroute_layout(emb, moved, eid), direction)


def _before_and_after(index, table, links):
    """The lk lists of the graph's pairs before and after a reroute, read
    off a trial's lk list through the reroute table: the after list is the
    before list with the pairs through the edge replaced."""
    before = links[:len(index.pairs)]
    after = list(before)
    for at, lk in zip(table.positions, links[len(before):]):
        after[at] = lk
    return before, after


def _outcome(thunk):
    try:
        return thunk()
    except NonRegularProjection as exc:
        return type(exc)


def _scale(emb, *paths):
    # the least integer that clears every point of the embedding and paths
    points = chain(emb.vertex_points.values(), *emb.edge_paths.values(), *paths)
    return math.lcm(*(c.denominator for p in points for c in p))


def _split(diagram, eid):
    """The records without the new path's, and the records without the old
    path's with the new path's relabelled as ``eid``."""
    arc = max(diagram.edge_endpoints)
    before = tuple(r for r in diagram.crossings if arc not in (r[0], r[4]))
    after = tuple((eid if r[0] == arc else r[0], *r[1:4], eid if r[4] == arc else r[4], *r[5:])
                  for r in diagram.crossings if eid not in (r[0], r[4]))
    return before, after


def compare(emb, moved, eid, direction):
    """'non-regular' when `project` is not regular on one of the two
    embeddings, 'old and new paths' when both are regular but the pass is
    not, else 'regular'.  The pass must raise in the first case and agree
    with `project` in the last."""
    fresh = [_outcome(lambda: _project(e, direction)) for e in (emb, moved)]
    drawn = _outcome(lambda: _reroute_diagram(emb, moved, eid, direction))
    if NonRegularProjection in fresh:
        assert drawn is NonRegularProjection
        return "non-regular"
    if drawn is NonRegularProjection:
        return "old and new paths"
    # the new path is keyed one above every edge id, with the edge's ends
    endpoints = fresh[0].edge_endpoints
    arc = max(emb.edge_paths) + 1
    assert drawn.direction == direction
    assert drawn.edge_endpoints == {**endpoints, arc: endpoints[eid]}
    before, after = _split(drawn, eid)
    # the same crossings, in order, and the same integers unless the arc
    # brings a denominator the embedding lacks
    assert [decode(r) for r in before] == [decode(r) for r in fresh[0].crossings]
    if _scale(emb, moved.edge_paths[eid]) == _scale(emb):
        assert before == fresh[0].crossings  # record for record
    assert crossing_matrix_reference(after) == crossing_matrix_reference(fresh[1].crossings)
    return "regular"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32),
       graph=st.sampled_from([*GRAPHS, "random"]),
       bound=st.sampled_from([2, 4, 50, 10**6]),
       denominators=st.sampled_from([(1,), (1, 2, 3), (5, 7)]),
       waypoints=st.integers(0, 2),
       arc_denominators=st.sampled_from([(1,), (1, 2, 3), (5, 7)]))
def test_the_pass_matches_fresh_projections(seed, graph, bound, denominators, waypoints,
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


def test_the_sweep_covers_regular_and_non_regular_passes():
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


def test_the_reports_read_the_tables_of_fresh_projections():
    # the lk lists before and after a reroute, read off two passes through
    # the reroute table, against `checked_links` of each embedding's own
    # layout with its main diagram along each of the same two directions,
    # on every kind of draw
    compared, changed = Counter(), Counter()
    rng = random.Random(6)
    for kind, bound, denominators, waypoints in [
            ("straight", 4, (1,), 0), ("polyline", 6, (1,), 2),
            ("rational", 3, (1, 2, 3), 1), ("markers", 3, (1,), 1)]:
        for seed in range(12):
            name = "K6+isolated" if kind == "markers" else ("K6", "K3,3,1")[seed % 2]
            drawn = _draw(rng, GRAPHS[name], bound, denominators, waypoints)
            if drawn is None:
                continue
            emb, moved, eid = drawn
            index = omega.graph_pairs(GRAPHS[name])
            table = omega.reroute_table(index, eid)
            main, check, links = omega.checked_links(
                _reroute_layout(emb, moved, eid), table.index, seed)
            before, after = _before_and_after(index, table, links)
            assert len(links) == len(index.pairs) + 2 * len(table.positions)
            for expected, e in [(before, emb), (after, moved)]:
                for d in (main.direction, check.direction):
                    fresh, _, fresh_links = omega.checked_links(embedding_layout(e), index, seed, d)
                    assert fresh.direction == d
                    assert fresh_links == expected
            compared[kind] += 1
            changed[kind] += before != after
    for kind in ("straight", "polyline", "rational", "markers"):
        assert compared[kind] >= 8 and changed[kind] >= 2, (compared, changed)


# (fault, graph edges, vertex points, the new path of edge 0): along
# (0, 0, 1) the embedding with straight edges is regular and the moved
# one is not, for this one reason
ARC_FAULTS = [
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


@pytest.mark.parametrize("fault, pairs, points, path", ARC_FAULTS,
                         ids=[case[0] for case in ARC_FAULTS])
def test_each_fault_of_the_new_path_is_caught(fault, pairs, points, path):
    g = graph_from_pairs(pairs, vertices=sorted(points))
    emb = SpatialEmbedding(g, points, {e.id: (points[e.u], points[e.v]) for e in g.edges})
    moved = reroute_edge(emb, 0, path)
    _project(emb, (0, 0, 1))
    with pytest.raises(NonRegularProjection, match=fault) as fresh:
        _project(moved, (0, 0, 1))
    with pytest.raises(NonRegularProjection) as both:
        _reroute_diagram(emb, moved, 0, (0, 0, 1))
    # the pass draws the new path after both edges, as strand 2
    assert str(both.value) == str(fresh.value).replace("strand 0", "strand 2")


def test_a_rational_arc_in_an_integer_embedding():
    emb = SpatialEmbedding(graph_from_pairs([(1, 2), (3, 4)]),
                           {1: (0, 0, 0), 2: (10, 0, 0), 3: (5, -5, 3), 4: (5, 5, 3)},
                           {0: ((0, 0, 0), (10, 0, 0)), 1: ((5, -5, 3), (5, 5, 3))})
    moved = reroute_edge(emb, 0, ((0, 0, 0), (Fraction(9, 2), 1, Fraction(7, 3)), (10, 0, 0)))
    for d in [(0, 0, 1), (1, 2, 3)]:
        before, after = _split(_reroute_diagram(emb, moved, 0, d), 0)
        assert crossing_matrix_reference(after) == \
            crossing_matrix_reference(_project(moved, d).crossings)
        # the pass clears the arc's scale, 6, so each parameter's integers
        # are 6^2 times those of `project` on the integer embedding
        fresh = _project(emb, d).crossings
        assert fresh
        assert before == tuple(
            (*r[:2], 36 * r[2], 36 * r[3], *r[4:6], 36 * r[6], 36 * r[7], *r[8:])
            for r in fresh)


def test_the_check_pass_avoids_the_main_direction():
    # both searches start at (0, 0, 1); the lists before and after are read
    # off the same two diagrams, and the check direction is not parallel to
    # the main one
    g = complete_graph(6)
    index = omega.graph_pairs(g)
    for seed in range(5):
        emb = random_embedding(g, seed)
        _, moved, _ = random_detour(emb, seed, random.Random(seed))
        table = omega.reroute_table(index, seed)
        main, check, _ = omega.checked_links(
            _reroute_layout(emb, moved, seed), table.index, seed)
        assert main.direction == (0, 0, 1)
        assert not is_zero3(cross3(main.direction, check.direction))


@pytest.mark.parametrize("graph, through", [(complete_graph(6), {4}), (k331_graph(), {3, 5})],
                         ids=["K6", "K3,3,1"])
def test_the_after_table_recomputes_only_the_pairs_through_the_edge(
        monkeypatch, graph, through):
    # per trial, one table call runs on both diagrams over the graph's
    # pairs, the pairs through the moved edge (4 of K6's 10, 3 or 5 of
    # K3,3,1's 9) and as many pairs of the loop D; exactly the pairs
    # through the edge are recomputed, with the new path's key in the
    # edge's place, and every other pair keeps its one entry
    index = omega.graph_pairs(graph)
    calls = []
    real = omega.link_tables
    monkeypatch.setattr(omega, "link_tables", lambda diagrams, index: calls.append(
        (len(diagrams), len(index.slots))) or real(diagrams, index))
    seen = set()
    for seed in range(12):
        emb = random_embedding(graph, seed)
        eid = seed % graph.m
        _, moved, _ = random_detour(emb, eid, random.Random(seed))
        table = omega.reroute_table(index, eid)
        calls.clear()
        omega.checked_links(_reroute_layout(emb, moved, eid), table.index, seed)
        assert calls == [(2, len(index.pairs) + 2 * len(table.positions))]
        seen.add(len(table.positions))
        arc = projection.new_path_key(index.endpoints)
        assert table.index.pairs[:len(index.pairs)] == index.pairs
        moved_pairs = iter(table.index.pairs[len(index.pairs):])
        for at, (j, k) in enumerate(index.pairs):
            through_edge = eid in j.edge_ids + k.edge_ids
            assert (at in table.positions) == through_edge
            if through_edge:
                j2, k2 = next(moved_pairs)
                assert (j2.vertex_seq, k2.vertex_seq) == (j.vertex_seq, k.vertex_seq)
                assert j2.edge_ids + k2.edge_ids == tuple(
                    arc if f == eid else f for f in j.edge_ids + k.edge_ids)
    assert seen == through


def test_a_wrong_lk_on_a_pair_through_the_edge_is_caught(monkeypatch):
    # the check diagram's lk of the first moved pair through the edge, and
    # of the last pair of the loop D, off by 2
    g = complete_graph(6)
    index = omega.graph_pairs(g)
    emb = random_embedding(g, 0)
    _, moved, _ = random_detour(emb, 0, random.Random(0))
    table = omega.reroute_table(index, 0)
    real = omega.link_tables
    assert table.positions
    for at in (len(index.pairs), -1):
        def planted(diagrams, index):
            tables = real(diagrams, index)
            if index is table.index:
                tables[1][at] += 2
            return tables

        monkeypatch.setattr(omega, "link_tables", planted)
        with pytest.raises(AssertionError, match="lk differs between projections"):
            omega.checked_links(_reroute_layout(emb, moved, 0), table.index, 0)


def _detour_above_u(emb, eid, rng):
    # the arc leaves u straight up, so it is seen end-on along (0, 0, 1)
    e = emb.graph.edge(eid)
    pu, pv = emb.vertex_points[e.u], emb.vertex_points[e.v]
    midpoint = (pu[0], pu[1], pu[2] + 3 * 10**6)
    return midpoint, reroute_edge(emb, eid, (pu, midpoint, pv)), 0


K6_MINUS_EDGE = graph_from_pairs(
    [(u, v) for u in range(1, 7) for v in range(u + 1, 7) if (u, v) != (1, 2)], name="K6-e")


# (graph, embedding seed, trials, reports with a violation, sha256 of the
# report's JSON with sorted keys as the code wrote it when every after
# diagram was searched for afresh from the trial seed)
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
    real = projection.crossing_pass

    def watched(layout, direction):
        try:
            return real(layout, direction)
        except NonRegularProjection:
            raised.append(direction)
            raise

    monkeypatch.setattr(projection, "crossing_pass", watched)
    monkeypatch.setattr(experiments, "random_embedding", lambda g, seed: emb)
    doc = edge_swap_check(graph, trials=trials, seed=0).to_json_dict()
    # both searches of every trial start at (0, 0, 1) and pass it by
    assert raised == [(0, 0, 1)] * (2 * trials)
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
            edge_swap_check(g, trials=1, seed=seed)
    return g.edge(drawn.value.args[0])


def test_a_loop_read_without_the_arcs_crossings_breaks_the_pair_identity(monkeypatch):
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
    monkeypatch.setattr(experiments, "random_embedding", lambda g, seed: emb)

    # the premise: edge uv crosses nothing in either diagram
    drawn = []
    real = projection.crossing_pass

    def recorded(layout, direction):
        drawn.append(real(layout, direction))
        return drawn[-1]

    monkeypatch.setattr(projection, "crossing_pass", recorded)
    assert edge_swap_check(g, trials=1, seed=0).passed
    assert len(drawn) == 2  # the main and the check pass
    assert all(e.id not in (r[0], r[4]) for records in drawn for r in records)

    real_table = experiments.reroute_table

    def drops_the_arc(index, eid):
        # the loop D, first of the last pair, read along the old edge alone
        table = real_table(index, eid)
        signs, at = list(table.index.signs), table.index.slots[-1][0]
        signs[at] = signs[at][:1]
        return replace(table, index=replace(table.index, signs=tuple(signs)))

    monkeypatch.setattr(experiments, "reroute_table", drops_the_arc)
    report = edge_swap_check(g, trials=1, seed=0)
    kinds = Counter(violation.kind for violation in report.violations)
    assert kinds["pair-identity"] > 0
    assert not report.passed
