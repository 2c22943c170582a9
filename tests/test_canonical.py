import random
from itertools import combinations

import pytest

from linkless.acceptance import _brute_iso_key
from linkless.canonical import VertexLimitExceeded, are_isomorphic, canonical_form
from linkless.multigraph import (
    complete_bipartite,
    complete_graph,
    graph_from_pairs,
    k331_graph,
    parse_graph,
    petersen_graph,
)


def shuffled_copy(g, rng):
    verts = sorted(g.vertices)
    images = verts[:]
    rng.shuffle(images)
    return g.relabeled(dict(zip(verts, images)))


def test_k33_labelings_agree():
    a = complete_bipartite(3, 3)
    b = a.relabeled({1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3})
    assert canonical_form(a) == canonical_form(b)


def test_k33_differs_from_c6():
    c6 = graph_from_pairs([(i, i % 6 + 1) for i in range(1, 7)])
    assert canonical_form(complete_bipartite(3, 3)) != canonical_form(c6)


@pytest.mark.parametrize(
    "name", ["K6", "K3,3,1", "petersen", "K4,4", "grid3x3", "K7", "K2,3"]
)
def test_relabeling_invariance(name):
    g = parse_graph(name)
    key = canonical_form(g)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        assert canonical_form(shuffled_copy(g, rng)) == key


def test_simplification_before_keying():
    g = graph_from_pairs([(1, 2), (1, 2), (2, 2), (2, 3)])
    h = graph_from_pairs([(1, 2), (2, 3)])
    assert canonical_form(g) == canonical_form(h)


def test_distinguishes_all_small_graphs():
    # keys agree with the all-permutations oracle on every 5-vertex graph:
    # equal keys <=> equal oracle keys
    verts = range(1, 6)
    all_pairs = list(combinations(verts, 2))
    keys = {}
    for bits in range(1 << len(all_pairs)):
        pairs = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
        g = graph_from_pairs(pairs, vertices=verts)
        keys.setdefault(canonical_form(g), set()).add(_brute_iso_key(g))
    for oracle_keys in keys.values():
        assert len(oracle_keys) == 1
    assert len(keys) == len({next(iter(s)) for s in keys.values()})


def test_nonisomorphic_same_degree_sequence():
    # two 3-regular graphs on 6 vertices: K_3,3 vs the prism
    prism = graph_from_pairs(
        [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4), (2, 5), (3, 6)]
    )
    assert not are_isomorphic(prism, complete_bipartite(3, 3))


def test_petersen_vs_random_cubic():
    p = petersen_graph()
    rng = random.Random(5)
    assert are_isomorphic(p, shuffled_copy(p, rng))


def test_vertex_limit():
    with pytest.raises(VertexLimitExceeded):
        canonical_form(complete_graph(17))


def test_near_complete_graphs_stay_fast():
    # symmetric classes that refinement alone cannot split: the
    # homogeneous-class shortcut must keep these from exploding
    import time

    k10e = complete_graph(10).delete_edge(0)
    k16e = complete_graph(16).delete_edge(3)
    start = time.perf_counter()
    key10 = canonical_form(k10e)
    key16 = canonical_form(k16e)
    assert time.perf_counter() - start < 2.0
    rng = random.Random(77)
    for _ in range(20):
        assert canonical_form(shuffled_copy(k10e, rng)) == key10
        assert canonical_form(shuffled_copy(k16e, rng)) == key16
    assert canonical_form(complete_graph(16)) != key16


def test_delete_then_readd_restores_key():
    g = k331_graph()
    for e in list(g.edges)[:5]:
        h = g.delete_edge(e.id).add_edge(e.u, e.v, eid=e.id)
        assert canonical_form(h) == canonical_form(g)
