import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkless import circuits as circuits_module
from linkless.circuits import (
    CircuitCapExceeded,
    disjoint_circuit_pairs,
    enumerate_circuits,
)
from linkless.multigraph import (
    complete_graph,
    graph_from_pairs,
    k331_graph,
    parse_graph,
)
from oracles import circuit_edge_sets


def test_k6_has_197_circuits():
    # 20 triangles + 45 squares + 72 pentagons + 60 hexagons, confirmed by
    # the subset/Hamiltonicity oracle below
    circuits = enumerate_circuits(complete_graph(6))
    assert len(circuits) == 197
    by_len = {}
    for c in circuits:
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == {3: 20, 4: 45, 5: 72, 6: 60}


def test_triangle_and_tree():
    tri = graph_from_pairs([(1, 2), (2, 3), (3, 1)])
    assert len(enumerate_circuits(tri)) == 1
    tree = graph_from_pairs([(1, 2), (1, 3), (2, 4), (2, 5)])
    assert enumerate_circuits(tree) == []


def test_loop_and_parallel_circuits():
    g = graph_from_pairs([(1, 1), (1, 2), (1, 2)])
    circuits = enumerate_circuits(g)
    lengths = sorted(len(c) for c in circuits)
    assert lengths == [1, 2]


def test_matches_oracle_on_named_graphs():
    for name in ["K4", "K5", "K3,3", "K3,3,1", "grid2x3"]:
        g = parse_graph(name)
        ours = {frozenset(c.edge_ids) for c in enumerate_circuits(g)}
        assert ours == circuit_edge_sets(g)


def test_matches_oracle_on_random_multigraphs():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(1, 6)
        verts = list(range(1, n + 1))
        pairs = []
        for _ in range(rng.randint(0, 10)):
            u = rng.choice(verts)
            v = rng.choice(verts)
            pairs.append((u, v))
        g = graph_from_pairs(pairs, vertices=verts)
        ours = {frozenset(c.edge_ids) for c in enumerate_circuits(g)}
        assert ours == circuit_edge_sets(g)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=12))
def test_matches_oracle_on_arbitrary_simple_graphs(edge_set):
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edge_set if u != v})
    g = graph_from_pairs(pairs, vertices=range(1, 8))
    ours = {frozenset(c.edge_ids) for c in enumerate_circuits(g)}
    assert ours == circuit_edge_sets(g)


def test_matches_oracle_on_every_5_vertex_graph():
    from itertools import combinations

    all_pairs = list(combinations(range(1, 6), 2))
    for bits in range(1 << len(all_pairs)):
        pairs = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
        g = graph_from_pairs(pairs, vertices=range(1, 6))
        ours = {frozenset(c.edge_ids) for c in enumerate_circuits(g)}
        assert ours == circuit_edge_sets(g)


def test_enumerated_circuits_are_in_normal_form():
    # the form the Circuit docstring promises: the walk starts at the
    # minimum vertex and its first edge id is at most its last
    rng = random.Random(11)
    graphs = [complete_graph(4), complete_graph(5)]
    for _ in range(8):
        verts = list(range(1, rng.randint(3, 7) + 1))
        graphs.append(graph_from_pairs(
            [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(4, 12))],
            vertices=verts))
    for g in graphs:
        for c in enumerate_circuits(g):
            k = len(c)
            assert c.vertex_seq[0] == min(c.vertex_seq)
            assert c.edge_ids[0] <= c.edge_ids[-1]
            for i, eid in enumerate(c.edge_ids):
                e = g.edge(eid)
                assert {e.u, e.v} == {c.vertex_seq[i], c.vertex_seq[(i + 1) % k]}


def test_k6_disjoint_pairs():
    pairs = disjoint_circuit_pairs(complete_graph(6))
    assert len(pairs) == 10
    for c1, c2 in pairs:
        assert len(c1) == 3 and len(c2) == 3
        assert c1.vertices.isdisjoint(c2.vertices)
        assert c1.vertices | c2.vertices == frozenset(range(1, 7))


def test_k331_disjoint_pairs():
    pairs = disjoint_circuit_pairs(k331_graph())
    assert len(pairs) == 9
    for c1, c2 in pairs:
        assert {len(c1), len(c2)} == {3, 4}
        tri = c1 if len(c1) == 3 else c2
        assert 7 in tri.vertices  # every triangle uses the apex


def test_k5_has_no_disjoint_pairs():
    assert disjoint_circuit_pairs(complete_graph(5)) == []


def test_cap_enforced():
    with pytest.raises(CircuitCapExceeded):
        enumerate_circuits(complete_graph(7), cap=100)


def test_pair_cap_enforced():
    # ten disjoint triangles: 10 circuits but 45 disjoint pairs
    g = graph_from_pairs([(3 * i + a, 3 * i + b)
                          for i in range(10) for a, b in ((1, 2), (2, 3), (3, 1))])
    assert len(disjoint_circuit_pairs(g, cap=45)) == 45
    with pytest.raises(CircuitCapExceeded, match="disjoint circuit pairs"):
        disjoint_circuit_pairs(g, cap=44)


def test_long_cycle_is_one_circuit():
    n = 1200  # deeper than the default recursion limit
    g = graph_from_pairs([(i, i % n + 1) for i in range(1, n + 1)])
    circuits = enumerate_circuits(g)
    assert len(circuits) == 1
    assert circuits[0].vertex_seq == tuple(range(1, n + 1))
    assert disjoint_circuit_pairs(g) == []


def brute_force_pairs(g):
    """Disjoint pairs of oracle circuits, as unordered pairs of edge sets."""
    def vertices(edges):
        return {x for eid in edges for x in (g.edge(eid).u, g.edge(eid).v)}

    circuits = sorted(circuit_edge_sets(g), key=sorted)
    return [frozenset((a, b)) for i, a in enumerate(circuits) for b in circuits[i + 1:]
            if vertices(a).isdisjoint(vertices(b))]


def pairs_of_full_enumeration(g):
    """The pairs, in listing order, found among every circuit of ``g``."""
    circuits = enumerate_circuits(g)
    return [(a, b) for i, a in enumerate(circuits) for b in circuits[i + 1:]
            if a.vertices.isdisjoint(b.vertices)]


def assert_pairs_match_oracle(g):
    pairs = disjoint_circuit_pairs(g)
    # the listing order is enumeration order, i < j
    assert pairs == pairs_of_full_enumeration(g)
    expected = brute_force_pairs(g)
    ours = [frozenset((frozenset(a.edge_ids), frozenset(b.edge_ids))) for a, b in pairs]
    assert len(ours) == len(expected)
    assert set(ours) == set(expected)


def test_disjoint_pairs_match_oracle_on_random_multigraphs():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 7)
        verts = list(range(1, n + 1))
        pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(0, 12))]
        assert_pairs_match_oracle(graph_from_pairs(pairs, vertices=verts))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=12))
def test_disjoint_pairs_match_oracle_on_arbitrary_multigraphs(pairs):
    assert_pairs_match_oracle(graph_from_pairs(pairs, vertices=range(1, 8)))


@pytest.mark.parametrize("n", [6, 9])
@pytest.mark.parametrize("short", [
    [(1, 1)],                   # a loop: every circuit has >= 1 vertex
    [(1, 2), (2, 1)],           # a digon: >= 2 vertices
    [(1, 2), (2, 3), (3, 1)],   # a triangle: >= 3 vertices
])
def test_partner_of_exactly_the_bound_length_is_listed(n, short):
    # the short circuit's partner runs through all n - g other vertices,
    # the longest circuit the pair listing still enumerates
    g_min = len(short)
    rest = list(range(g_min + 1, n + 1))
    g = graph_from_pairs(short + [(v, rest[(i + 1) % len(rest)])
                                  for i, v in enumerate(rest)])
    pairs = disjoint_circuit_pairs(g)
    assert [(len(a), len(b)) for a, b in pairs] == [(g_min, n - g_min)]
    assert pairs == pairs_of_full_enumeration(g)


def test_pair_listing_enumerates_only_circuits_with_room_for_a_partner(monkeypatch):
    counts = []
    full = circuits_module.enumerate_circuits

    def spy(*args, **kwargs):
        out = full(*args, **kwargs)
        counts.append(len(out))
        return out

    monkeypatch.setattr(circuits_module, "enumerate_circuits", spy)
    disjoint_circuit_pairs(complete_graph(7))
    disjoint_circuit_pairs(complete_graph(6))
    # K7: 35 triangles and 105 squares of its 1172 circuits; K6: 20 triangles
    assert counts == [140, 20]


def test_cap_counts_the_enumerated_circuits():
    # K7 has 1172 circuits but only 140 short enough to be in a pair
    assert len(disjoint_circuit_pairs(complete_graph(7), cap=200)) == 175


def test_enumeration_work_is_bounded_by_the_cap():
    # grid5x5 has 9349 circuits but takes 340564 path extensions
    g = parse_graph("grid5x5")
    with pytest.raises(CircuitCapExceeded, match="more than 20000 path extensions"):
        enumerate_circuits(g, cap=10_000)
    assert len(enumerate_circuits(g, cap=200_000)) == 9349
    # complete graphs take about two extensions per circuit: 2365 for K7
    assert len(enumerate_circuits(complete_graph(7), cap=1183)) == 1172
    with pytest.raises(CircuitCapExceeded, match="path extensions"):
        enumerate_circuits(complete_graph(7), cap=1182)


@st.composite
def loopy_multigraphs(draw):
    n = draw(st.integers(1, 9))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    loops = [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    copies = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    edges = draw(st.permutations(pairs + loops + copies))
    return graph_from_pairs(edges, vertices=range(1, n + 1))


@settings(max_examples=300, deadline=None)
@given(loopy_multigraphs())
def test_pair_listing_matches_full_enumeration(g):
    assert disjoint_circuit_pairs(g) == pairs_of_full_enumeration(g)
