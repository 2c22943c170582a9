import random

import pytest

from linkless.multigraph import (
    complete_bipartite,
    complete_graph,
    graph_from_pairs,
    grid_graph,
    petersen_graph,
)
from linkless.planarity import PlanarCertificate, planar_certificate_errors, planar_rotation


def random_graph(n, p, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_pairs(pairs, vertices=range(n))


def subdivided(g, rng):
    """g with a fresh vertex inside every edge, in random order."""
    pairs = []
    fresh = max(g.vertices) + 1
    for e in g.edges:
        pairs += [(e.u, fresh), (fresh, e.v)]
        fresh += 1
    rng.shuffle(pairs)
    return graph_from_pairs(pairs)


def wheel(n):
    """Hub 0 joined to a rim cycle 1..n."""
    return graph_from_pairs([(0, i) for i in range(1, n + 1)]
                            + [(i, i % n + 1) for i in range(1, n + 1)])


def forest(rng, trees, size):
    pairs = []
    for t in range(trees):
        base = t * size
        pairs += [(base + i, base + rng.randrange(i)) for i in range(1, size)]
    return graph_from_pairs(pairs, vertices=range(trees * size))


def disjoint_union(*graphs):
    pairs, vertices, shift = [], [], 0
    for g in graphs:
        pairs += [(e.u + shift, e.v + shift) for e in g.edges]
        vertices += [v + shift for v in g.vertices]
        shift += max(g.vertices) + 1
    return graph_from_pairs(pairs, vertices=vertices)


def cross_check_corpus():
    rng = random.Random(1101)
    graphs = [random_graph(rng.randint(1, 12), rng.choice([0.15, 0.3, 0.45, 0.6]), rng)
              for _ in range(300)]
    graphs += [forest(rng, trees, size) for trees, size in [(1, 12), (3, 4), (5, 1)]]
    graphs += [disjoint_union(complete_graph(4), grid_graph(2, 3)),
               disjoint_union(complete_graph(5), complete_graph(4)),
               disjoint_union(complete_bipartite(3, 3), wheel(5), forest(rng, 2, 3))]
    for base in (complete_graph(5), complete_bipartite(3, 3)):
        graphs += [base, subdivided(base, rng), subdivided(subdivided(base, rng), rng)]
    graphs += [petersen_graph().delete_vertex(v) for v in sorted(petersen_graph().vertices)]
    graphs += [complete_graph(5).delete_edge(0), complete_bipartite(3, 3).delete_edge(4),
               grid_graph(4, 4), wheel(9)]
    return graphs


def test_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for g in cross_check_corpus():
        oracle = nx.Graph()
        oracle.add_nodes_from(g.vertices)
        oracle.add_edges_from((e.u, e.v) for e in g.edges)
        planar, _ = nx.check_planarity(oracle)
        rotation = planar_rotation(g)
        assert (rotation is not None) == planar, g
        if rotation is not None:
            assert planar_certificate_errors(g, PlanarCertificate(None, rotation)) == []


def test_named_answers():
    rng = random.Random(5)
    assert planar_rotation(complete_graph(5)) is None
    assert planar_rotation(complete_bipartite(3, 3)) is None
    assert planar_rotation(subdivided(complete_bipartite(3, 3), rng)) is None
    assert planar_rotation(petersen_graph().delete_vertex(1)) is None
    assert planar_rotation(complete_graph(4)) is not None
    assert planar_rotation(graph_from_pairs([], vertices=[7])) == {7: ()}


def test_loops_and_parallel_edges_are_ignored():
    g = graph_from_pairs([(1, 2), (2, 1), (2, 3), (3, 3), (3, 1), (1, 2)])
    rotation = planar_rotation(g)
    assert {v: sorted(order) for v, order in rotation.items()} == {1: [2, 3], 2: [1, 3], 3: [1, 2]}
    assert planar_certificate_errors(g, PlanarCertificate(None, rotation)) == []


def test_large_wheel_needs_no_recursion():
    g = wheel(1100)
    rotation = planar_rotation(g)
    assert rotation is not None
    assert planar_certificate_errors(g, PlanarCertificate(None, rotation)) == []


def test_rotation_is_deterministic():
    g = grid_graph(5, 5)
    assert planar_rotation(g) == planar_rotation(g)


def test_mutated_certificates_are_rejected():
    g = grid_graph(3, 3)
    rotation = planar_rotation(g)
    assert planar_certificate_errors(g, PlanarCertificate(None, rotation)) == []

    # swapping a pair of neighbours in the order at the centre (degree 4)
    # changes the face count, so Euler's formula fails
    centre = 5
    order = list(rotation[centre])
    order[0], order[1] = order[1], order[0]
    swapped = {**rotation, centre: tuple(order)}
    errors = planar_certificate_errors(g, PlanarCertificate(None, swapped))
    assert any("V - E + F" in msg for msg in errors)

    missing = {**rotation, centre: rotation[centre][1:]}
    errors = planar_certificate_errors(g, PlanarCertificate(None, missing))
    assert any("not a permutation" in msg for msg in errors)

    errors = planar_certificate_errors(g, PlanarCertificate(None, {v: rotation[v] for v in (1, 2)}))
    assert errors

    errors = planar_certificate_errors(g, PlanarCertificate(99, rotation))
    assert any("apex vertex 99" in msg for msg in errors)


def test_apex_certificates():
    k6 = complete_graph(6)
    rotation = planar_rotation(k6.delete_vertex(6))
    assert rotation is None  # K5 is not planar, so K6 is not apex

    k33_plus = complete_bipartite(3, 3).add_vertex(7).add_edge(7, 1).add_edge(7, 4)
    rotation = planar_rotation(k33_plus.delete_vertex(1))
    assert planar_certificate_errors(k33_plus, PlanarCertificate(1, rotation)) == []
    # the same rotation does not describe the graph with the apex kept
    assert planar_certificate_errors(k33_plus, PlanarCertificate(None, rotation))
    # nor the graph minus another vertex
    assert planar_certificate_errors(k33_plus, PlanarCertificate(2, rotation))
