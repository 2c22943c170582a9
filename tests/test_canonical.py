import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from linkless.acceptance import _brute_iso_key
from linkless.canonical import (
    VertexLimitExceeded,
    _canonical_search,
    _pack_key,
    canonical_form,
)
from linkless.moves import petersen_family
from linkless.multigraph import (
    MultiGraph,
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
    image = dict(zip(verts, images))
    return graph_from_pairs([(image[e.u], image[e.v]) for e in g.edges], vertices=images)


def hypercube(d):
    return graph_from_pairs([(u, u | 1 << b) for u in range(1 << d) for b in range(d)
                             if not u >> b & 1])


def rook_graph(k):
    # cells of a k x k board, joined when they share a row or a column
    return graph_from_pairs([(i, j) for i, j in combinations(range(k * k), 2)
                             if i // k == j // k or i % k == j % k])


def clebsch_graph():
    # the folded 5-cube: 4-bit words joined at Hamming distance 1 or 4
    return graph_from_pairs([(u, v) for u, v in combinations(range(16), 2)
                             if (u ^ v).bit_count() in (1, 4)])


def shrikhande_graph():
    # Z4 x Z4, joined by the differences +-(0,1), +-(1,0), +-(1,1)
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return graph_from_pairs([(u, v) for u, v in combinations(range(16), 2)
                             if ((v // 4 - u // 4) % 4, (v - u) % 4) in steps])


SYMMETRIC = {
    "petersen": petersen_graph,
    "Q3": lambda: hypercube(3),
    "Q4": lambda: hypercube(4),
    "rook4x4": lambda: rook_graph(4),
    "clebsch": clebsch_graph,
    "shrikhande": shrikhande_graph,
    "C16": lambda: graph_from_pairs([(i, (i + 1) % 16) for i in range(16)]),
    "K8,8": lambda: complete_bipartite(8, 8),
    "K4,4": lambda: complete_bipartite(4, 4),
    "K16-e": lambda: complete_graph(16).delete_edge(3),
}


def assert_generators_are_automorphisms(g):
    gs = g.simplified()
    edges = {frozenset(e.pair()) for e in gs.edges}
    for gamma in _canonical_search(g)[1]:
        assert sorted(gamma) == sorted(gs.vertices)
        assert sorted(gamma.values()) == sorted(gs.vertices)
        assert {frozenset((gamma[e.u], gamma[e.v])) for e in gs.edges} == edges


@st.composite
def relabelled_pairs(draw):
    """A graph on up to 10 vertices with scattered labels, loops and
    repeats, and the same graph under a drawn relabelling."""
    n = draw(st.integers(1, 10))
    labels = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    g = graph_from_pairs([(labels[a], labels[b]) for a, b in pairs], vertices=labels)
    images = draw(st.permutations(labels))
    image = dict(zip(labels, images))
    return g, graph_from_pairs([(image[e.u], image[e.v]) for e in g.edges], vertices=images)


@settings(max_examples=300, deadline=None)
@given(relabelled_pairs())
def test_keys_match_the_unpruned_reference_on_random_graphs(pair):
    g, h = pair
    key = canonical_form(g)
    assert key == oracles.canonical_form_reference(g)
    assert canonical_form(h) == oracles.canonical_form_reference(h) == key
    assert_generators_are_automorphisms(g)
    assert_generators_are_automorphisms(h)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_keys_match_the_unpruned_reference_on_symmetric_graphs(name):
    g = SYMMETRIC[name]()
    assert canonical_form(g) == oracles.canonical_form_reference(g)
    assert_generators_are_automorphisms(g)


def test_keys_match_the_unpruned_reference_on_the_family():
    for member in petersen_family():
        assert member.canonical == oracles.canonical_form_reference(member.graph)
        assert_generators_are_automorphisms(member.graph)


def test_k33_labelings_agree():
    a = complete_bipartite(3, 3)
    b = graph_from_pairs([(e.u + 3, e.v - 3) for e in a.edges])  # the parts swapped
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
    assert canonical_form(prism) != canonical_form(complete_bipartite(3, 3))


def test_petersen_vs_random_cubic():
    p = petersen_graph()
    rng = random.Random(5)
    assert canonical_form(p) == canonical_form(shuffled_copy(p, rng))


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
    # the root's two classes are homogeneous: one node each
    assert _canonical_search(k10e)[2] == _canonical_search(k16e)[2] == 1


# search nodes with automorphism pruning; the unpruned search takes 221,
# 657, 2,033, 3,297, 305, 81, 49, 17 and 9
SEARCH_NODES = {"petersen": 22, "Q4": 25, "rook4x4": 43, "clebsch": 41,
                "shrikhande": 21, "Q3": 14, "C16": 7, "K8,8": 4, "K4,4": 4}


def test_symmetric_graphs_search_few_nodes():
    import time

    start = time.perf_counter()
    nodes = {name: _canonical_search(SYMMETRIC[name]())[2] for name in SEARCH_NODES}
    assert time.perf_counter() - start < 2.0
    assert nodes == SEARCH_NODES


def test_delete_then_readd_restores_key():
    g = k331_graph()
    for e in list(g.edges)[:5]:
        h = MultiGraph(g.vertices, g.delete_edge(e.id).edges + (e,))
        assert canonical_form(h) == canonical_form(g)


def test_pack_key_matches_the_reference_packer():
    rng = random.Random(11)
    for n in range(11):
        for _ in range(40):
            adj = [0] * n
            for i, j in combinations(range(n), 2):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            order = list(range(n))
            rng.shuffle(order)
            assert _pack_key(n, order, adj) == oracles.pack_key(n, order, adj)


def test_complete_and_empty_graphs_pack_the_identity_order():
    # the root's single class is homogeneous, so the search packs the
    # identity order without branching
    for n in range(17):
        full = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        identity = list(range(n))
        assert canonical_form(complete_graph(n)) == oracles.pack_key(n, identity, full)
        empty = graph_from_pairs((), vertices=range(1, n + 1))
        assert canonical_form(empty) == oracles.pack_key(n, identity, [0] * n)
