import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkless.circuits import (
    Circuit,
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


def test_circuit_normalization_equality():
    g = complete_graph(4)
    # same triangle entered from different rotations/directions
    e12 = g.edges_between(1, 2)[0].id
    e23 = g.edges_between(2, 3)[0].id
    e13 = g.edges_between(1, 3)[0].id
    a = Circuit.from_walk((1, 2, 3), (e12, e23, e13), graph=g)
    b = Circuit.from_walk((2, 3, 1), (e23, e13, e12), graph=g)
    c = Circuit.from_walk((3, 2, 1), (e23, e12, e13), graph=g)
    assert a == b == c
    assert a.vertices == frozenset({1, 2, 3})


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


def assert_pairs_match_oracle(g):
    pairs = disjoint_circuit_pairs(g)
    circuits = enumerate_circuits(g)
    # the listing order is enumeration order, i < j
    assert pairs == [(a, b) for i, a in enumerate(circuits) for b in circuits[i + 1:]
                     if a.vertices.isdisjoint(b.vertices)]
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
