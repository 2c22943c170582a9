import random
from dataclasses import dataclass

import pytest

import oracles
from linkless import moves
from linkless.canonical import are_isomorphic, canonical_form
from linkless.moves import (
    ClosureSizeExceeded,
    delta_y,
    family_closed_under_delta_y,
    petersen_closure,
    petersen_family,
    triangles,
    y_delta,
)
from linkless.multigraph import (
    Edge,
    GraphError,
    MultiGraph,
    complete_graph,
    graph_from_pairs,
    k331_graph,
    parse_graph,
    petersen_graph,
)


def test_delta_y_on_k6():
    g = delta_y(complete_graph(6), (1, 2, 3))
    assert (g.n, g.m) == (7, 15)
    assert g.degree(7) == 3
    assert not g.has_edge(1, 2)


def test_delta_y_on_k4():
    g = delta_y(complete_graph(4), (2, 3, 4))
    assert (g.n, g.m) == (5, 6)


def test_delta_y_on_k331_degree_sequence():
    # apex loses 2 gains 1, the two part-vertices drop from 4 to 3, new
    # vertex has degree 3; derived by direct construction
    g = delta_y(k331_graph(), (1, 4, 7))
    assert (g.n, g.m) == (8, 15)
    assert g.degree_sequence() == (3, 3, 3, 4, 4, 4, 4, 5)


def test_delta_y_removes_the_smallest_id_between_two_corners():
    # parallel edges 5 and 3 join corners 1 and 2, given in that order
    g = MultiGraph(frozenset({1, 2, 3}),
                   (Edge(5, 1, 2), Edge(3, 1, 2), Edge(1, 1, 3), Edge(2, 2, 3)))
    out = delta_y(g, (1, 2, 3))
    assert [e.id for e in out.edges_between(1, 2)] == [5]
    assert sorted(e.pair() for e in out.edges) == [(1, 2), (1, 4), (2, 4), (3, 4)]


def test_delta_y_matches_the_reference_move():
    # the reference builds seven graphs per move; the result must be the
    # same graph down to edge ids, ends and order.  The last host doubles
    # the triangle side 1-2 (ids 7 and 0) and carries a loop with the top id
    doubled = MultiGraph(frozenset({1, 2, 3, 4}), (
        Edge(0, 2, 1), Edge(1, 1, 3), Edge(2, 2, 3), Edge(3, 1, 4), Edge(5, 3, 4),
        Edge(6, 2, 4), Edge(7, 1, 2), Edge(9, 4, 4)))
    hosts = [m.graph for m in petersen_family()] + [complete_graph(7), doubled]
    moved = 0
    for g in hosts:
        tris = triangles(g)
        assert tris == oracles.triangles(g)
        for tri in tris:
            got, want = delta_y(g, tri), oracles.delta_y(g, tri)
            assert (got.vertices, got.edges, got.name) == (want.vertices, want.edges, want.name)
            moved += 1
    assert moved == 44 + 35 + 4


def test_closure_keys_each_class_once_and_builds_one_graph_per_move(monkeypatch):
    # one canonical form per seed and per Delta-Y child, no other graph
    # keyed to name the members, and one graph built per move
    seeds = [complete_graph(6), k331_graph()]
    keyed, built = [], []
    init = MultiGraph.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(moves, "canonical_form", lambda g: keyed.append(g) or canonical_form(g))
    monkeypatch.setattr(MultiGraph, "__post_init__", counting_init)
    fam = petersen_closure(seeds)
    monkeypatch.undo()
    moves_made = sum(len(triangles(m.graph)) for m in fam)
    assert moves_made == 44
    assert len(keyed) == len(seeds) + moves_made
    assert len(built) == moves_made


def test_delta_y_requires_triangle():
    with pytest.raises(GraphError):
        delta_y(complete_graph(6), (1, 1, 2))
    with pytest.raises(GraphError):
        delta_y(parse_graph("K3,3"), (1, 2, 3))


def test_delta_y_random_instances():
    # edge count preserved, vertex count +1, on many random (graph, triangle)
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        n = rng.randint(3, 9)
        pairs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.6
        ]
        g = graph_from_pairs(pairs, vertices=range(1, n + 1))
        tris = triangles(g)
        if not tris:
            continue
        tri = tris[rng.randrange(len(tris))]
        h = delta_y(g, tri)
        assert h.n == g.n + 1
        assert h.m == g.m
        checked += 1


def test_y_delta_inverts_delta_y():
    for g in [complete_graph(6), k331_graph(), complete_graph(4)]:
        tris = triangles(g)
        tri = tris[0]
        h = delta_y(g, tri)
        back = y_delta(h, max(h.vertices))
        assert are_isomorphic(back, g)


def test_y_delta_on_claw():
    claw = graph_from_pairs([(1, 2), (1, 3), (1, 4)])
    tri = y_delta(claw, 1)
    assert (tri.n, tri.m) == (3, 3)
    assert triangles(tri) == [(2, 3, 4)]


def test_y_delta_on_petersen_vertex():
    # girth 5 means no neighbor pair is adjacent: 3 edges out, 3 edges in
    p = petersen_graph()
    g = y_delta(p, 1)
    assert (g.n, g.m) == (9, 15)


def test_y_delta_preconditions():
    square = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])
    with pytest.raises(GraphError):
        y_delta(square, 1)  # degree 2
    multi = graph_from_pairs([(1, 2), (1, 2), (1, 3)])
    with pytest.raises(GraphError):
        y_delta(multi, 1)  # repeated neighbor


def test_y_delta_on_k4_collapses_parallels():
    # neighbors of any K4 vertex are already mutually adjacent
    g = y_delta(complete_graph(4), 4)
    assert are_isomorphic(g, complete_graph(3))
    assert g.m == 3


def test_closure_of_triangle():
    c3 = graph_from_pairs([(1, 2), (2, 3), (3, 1)], name="C3")
    fam = petersen_closure([c3])
    assert len(fam) == 2  # C3 and the claw K_{1,3}, which is triangle-free
    assert fam[1].graph.degree_sequence() == (1, 1, 1, 3)


def test_closure_names_stay_unique_beside_family_members():
    # two triangles and an edge on 8 vertices: with K6, the closure holds
    # six family members and other classes of 8, 9 and 10 vertices, which
    # are lettered after the family members of their size
    x = graph_from_pairs([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (7, 8)])
    fam = petersen_closure([complete_graph(6), x])
    family = {m.canonical: m.name for m in petersen_family()}
    assert len({m.name for m in fam}) == len(fam) == 9
    assert all(m.name == family[m.canonical] for m in fam if m.canonical in family)
    assert [m.name for m in fam if m.canonical not in family] == ["P8c", "P9b", "P10b"]


def test_family_has_seven_members():
    fam = petersen_family()
    assert isinstance(fam, tuple) and len(fam) == 7
    assert len({m.canonical for m in fam}) == 7
    for member in fam:
        assert member.graph.m == 15


def test_family_names_and_landmarks():
    fam = petersen_family()
    names = [m.name for m in fam]
    assert names == ["K6", "P7", "K3,3,1", "P8a", "P8b", "P9", "petersen"]
    by_name = {m.name: m for m in fam}
    assert are_isomorphic(by_name["K6"].graph, complete_graph(6))
    assert are_isomorphic(by_name["K3,3,1"].graph, k331_graph())
    pet = by_name["petersen"]
    assert pet.graph.n == 10
    assert not triangles(pet.graph)
    assert are_isomorphic(pet.graph, petersen_graph())


def test_family_closed():
    assert family_closed_under_delta_y(petersen_family())


def test_family_stable_under_seed_relabeling():
    rng = random.Random(3)

    def shuffled(g):
        verts = sorted(g.vertices)
        images = verts[:]
        rng.shuffle(images)
        return g.relabeled(dict(zip(verts, images)))

    fam = petersen_family()
    relabeled = petersen_closure([shuffled(complete_graph(6)), shuffled(k331_graph())])
    assert {m.canonical for m in relabeled} == {m.canonical for m in fam}


def test_closure_from_k6_alone_misses_k331():
    sub = {m.canonical for m in petersen_closure([complete_graph(6)])}
    assert sub < {m.canonical for m in petersen_family()}
    assert len(sub) == 6
    assert canonical_form(k331_graph()) not in sub
    assert canonical_form(petersen_graph()) in sub


def test_closure_builds_each_member_once(monkeypatch):
    # members are built after the search, already named
    built = []

    @dataclass(frozen=True)
    class Counting(moves.FamilyMember):
        def __post_init__(self):
            built.append(self.name)

    monkeypatch.setattr(moves, "FamilyMember", Counting)
    fam = petersen_closure([complete_graph(6), k331_graph()])
    assert built == [m.name for m in fam] == [m.name for m in petersen_family()]


def test_closure_bound(monkeypatch):
    monkeypatch.setattr(moves, "DEFAULT_CLOSURE_BOUND", 3)
    with pytest.raises(ClosureSizeExceeded):
        petersen_closure([complete_graph(6), k331_graph()])


def test_derivations_replay():
    # each member's recorded move sequence reproduces its canonical form
    fam = petersen_family()
    seeds = {"K6": complete_graph(6), "K3,3,1": k331_graph()}
    for member in fam:
        g = seeds[member.derivation[0]]
        for step in member.derivation[1:]:
            assert step.startswith("dY(")
            tri = tuple(int(x) for x in step[3:-1].split(","))
            g = delta_y(g, tri)
        assert canonical_form(g) == member.canonical
