import pytest

import linkless.multigraph as multigraph
from linkless.multigraph import (
    Edge,
    GraphError,
    GraphParseError,
    MultiGraph,
    builtin_graph,
    complete_graph,
    format_edge_list,
    graph_from_pairs,
    k331_graph,
    parse_edge_list,
    parse_graph,
    petersen_graph,
)


def test_builtin_k6():
    g = parse_graph("K6")
    assert g.n == 6
    assert g.m == 15
    assert g.is_simple
    assert g.degree_sequence() == (5,) * 6


def test_builtin_k331():
    g = parse_graph("K3,3,1")
    assert g.n == 7
    assert g.m == 15
    assert g.degree(7) == 6
    assert g.degree_sequence() == (4, 4, 4, 4, 4, 4, 6)
    # apex adjacent to everything
    assert g.neighbors(7) == frozenset(range(1, 7))


def test_builtin_bipartite_and_petersen():
    k33 = parse_graph("K3,3")
    assert (k33.n, k33.m) == (6, 9)
    assert not k33.has_edge(1, 2)
    assert k33.has_edge(1, 4)

    p = parse_graph("petersen")
    assert (p.n, p.m) == (10, 15)
    assert p.degree_sequence() == (3,) * 10
    assert p.has_edge(1, 6)
    assert p.has_edge(6, 8)
    assert not p.has_edge(6, 7)


def test_builtin_grid():
    g = parse_graph("grid4x4")
    assert (g.n, g.m) == (16, 24)
    assert g.degree(1) == 2
    assert g.degree(6) == 4


def test_parse_edge_list_path():
    g = parse_graph("3 2\n1 2\n2 3")
    assert (g.n, g.m) == (3, 2)
    assert g.neighbors(2) == frozenset({1, 3})


def test_parse_edge_list_isolated_inference():
    g = parse_edge_list("4 1\n1 2")
    assert g.vertices == frozenset({1, 2, 3, 4})
    with pytest.raises(GraphParseError):
        parse_edge_list("4 1\n10 20")  # cannot tell which isolated ids exist


def test_rejected_huge_header_builds_no_vertex_range(monkeypatch):
    # the ids are checked against 1..n without materializing 1..n
    def small_range(*args):
        r = range(*args)
        assert len(r) <= 1000, "parser materialized a range of the header's size"
        return r

    monkeypatch.setattr(multigraph, "range", small_range, raising=False)
    with pytest.raises(GraphParseError, match="not all in 1..n"):
        parse_edge_list("1000000000000 1\n0 5\n")


@pytest.mark.parametrize(
    "text", ["1000000000 0", "999999 2\n1 2\n2 3", "K100000", "K1000,1000", "grid1000x1000"])
def test_oversized_graphs_are_rejected_before_building(monkeypatch, text):
    # n + m is bounded before any vertex or edge list of that size exists
    def small_range(*args):
        r = range(*args)
        assert len(r) <= 1000, "a range of the requested graph's size was built"
        return r

    monkeypatch.setattr(multigraph, "range", small_range, raising=False)
    with pytest.raises(GraphParseError, match="n \\+ m may be at most 1000000"):
        parse_graph(text)


@pytest.mark.parametrize("doc", ["", "x y", "2 1\n1", "2 1\n1 2\n2 1", "2 a\n1 2"])
def test_parse_rejects_malformed(doc):
    with pytest.raises(GraphParseError):
        parse_edge_list(doc)


def test_parse_unknown_builtin():
    with pytest.raises(GraphParseError):
        parse_graph("heawood")


def test_duplicate_edge_id_rejected():
    with pytest.raises(GraphError):
        MultiGraph(frozenset({1, 2}), (Edge(0, 1, 2), Edge(0, 2, 1)))


def test_loops_and_parallels():
    g = graph_from_pairs([(1, 1), (1, 2), (1, 2)])
    assert g.degree(1) == 4  # loop counts twice
    assert not g.is_simple
    s = g.simplified()
    assert s.m == 1 and s.edge(1).pair() == (1, 2)


def test_delete_edge():
    g = complete_graph(6)
    h = g.delete_edge(0)
    assert (h.n, h.m) == (6, 14)
    tri = graph_from_pairs([(1, 2), (2, 3), (3, 1)])
    path = tri.delete_edge(2)
    assert path.m == 2 and path.is_connected
    loopy = graph_from_pairs([(1, 1), (1, 2)])
    assert loopy.delete_edge(0).vertices == frozenset({1, 2})
    with pytest.raises(GraphError):
        g.delete_edge(99)


def test_contract_k6_gives_k5():
    g = complete_graph(6)
    h = g.contract_edge(0)
    assert (h.n, h.m) == (5, 10)
    assert h.is_simple
    assert h.degree_sequence() == (4,) * 5


def test_contract_c4_gives_c3():
    c4 = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])
    c3 = c4.contract_edge(0)
    assert (c3.n, c3.m) == (3, 3)


def test_contract_petersen_edge_counts():
    # girth 5, so no parallel edges appear: 10 -> 9 vertices, 15 -> 14 edges
    p = petersen_graph()
    for e in p.edges:
        q = p.contract_edge(e.id)
        assert (q.n, q.m) == (9, 14)


def test_contract_loop_rejected():
    g = graph_from_pairs([(1, 1), (1, 2)])
    with pytest.raises(GraphError):
        g.contract_edge(0)


def test_contract_without_simplify_keeps_multiedges():
    tri = graph_from_pairs([(1, 2), (2, 3), (3, 1)])
    raw = tri.contract_edge(0, simplify=False)
    assert raw.n == 2 and raw.m == 2  # two parallel 1-3 edges survive
    assert not raw.is_simple


def test_contract_vertex_count_property():
    import random

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 8)
        pairs = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    pairs.append((u, v))
        g = graph_from_pairs(pairs, vertices=range(1, n + 1))
        for e in g.edges:
            assert g.contract_edge(e.id).n == g.n - 1
            assert g.contract_edge(e.id, simplify=False).m == g.m - 1


def test_roundtrip_edge_list():
    for name in ["K6", "K3,3,1", "petersen", "grid3x3", "K4,4"]:
        g = builtin_graph(name)
        doc = format_edge_list(g)
        h = parse_edge_list(doc)
        assert h.vertices == g.vertices
        assert sorted(e.pair() for e in h.edges) == sorted(e.pair() for e in g.edges)


def test_components():
    g = graph_from_pairs([(1, 2), (3, 4)], vertices=[1, 2, 3, 4, 5])
    comps = g.connected_components()
    assert sorted(map(sorted, comps)) == [[1, 2], [3, 4], [5]]
    assert not g.is_connected
    assert complete_graph(4).is_connected


def test_relabeled_preserves_structure():
    g = k331_graph()
    mapping = {v: v * 10 for v in g.vertices}
    h = g.relabeled(mapping)
    assert h.degree(70) == 6
    with pytest.raises(GraphError):
        g.relabeled({v: 1 for v in g.vertices})
