import random
from dataclasses import dataclass

import pytest

import oracles
from linkless import moves
from linkless.canonical import canonical_form
from linkless.moves import delta_y, family_closed_under_delta_y, petersen_family, triangles
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
    assert not g.edges_between(1, 2)


def test_delta_y_on_k4():
    g = delta_y(complete_graph(4), (2, 3, 4))
    assert (g.n, g.m) == (5, 6)


def test_delta_y_on_k331_degree_sequence():
    # apex loses 2 gains 1, the two part-vertices drop from 4 to 3, new
    # vertex has degree 3; derived by direct construction
    g = delta_y(k331_graph(), (1, 4, 7))
    assert (g.n, g.m) == (8, 15)
    assert sorted(map(g.degree, g.vertices)) == [3, 3, 3, 4, 4, 4, 4, 5]


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


@pytest.fixture
def fresh_load():
    # a load under test, and the real family again for the tests after it
    petersen_family.cache_clear()
    yield
    petersen_family.cache_clear()


def test_closure_keys_each_class_once_and_builds_one_graph_per_move(monkeypatch, fresh_load):
    # a load keys each of the 7 members once and builds 7 graphs, the two
    # seeds and one Delta-Y move per other member, with no closure search
    keyed, built = [], []
    init = MultiGraph.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(moves, "canonical_form", lambda g: keyed.append(g) or canonical_form(g))
    monkeypatch.setattr(MultiGraph, "__post_init__", counting_init)
    fam = petersen_family()
    monkeypatch.undo()
    assert [g.n for g in keyed] == [m.graph.n for m in fam] == [6, 7, 7, 8, 8, 9, 10]
    assert len(built) == 7
    assert {id(g) for g in built} == {id(m.graph) for m in fam}


@pytest.mark.parametrize("drift", ["canonical_form", "delta_y"])
def test_load_check_names_the_member_that_drifted(monkeypatch, fresh_load, drift):
    # P9 keys differently, or the move to the Petersen graph loses an edge
    if drift == "canonical_form":
        name = "P9"
        monkeypatch.setattr(moves, "canonical_form",
                            lambda g: b"\0" if g.n == 9 else canonical_form(g))
    else:
        name = "petersen"

        def lossy(g, tri):
            h = delta_y(g, tri)
            return h.delete_edge(h.edges[-1].id) if g.n == 9 else h

        monkeypatch.setattr(moves, "delta_y", lossy)
    with pytest.raises(AssertionError, match=f"member {name} changed key"):
        petersen_family()


def test_family_matches_the_reference_closure():
    # the pinned table is the all-triangles Delta-Y closure of {K6, K3,3,1}
    def summary(fam):
        return [(m.name, m.canonical, m.derivation, m.graph.vertices, m.graph.edges)
                for m in fam]

    reference = oracles.petersen_closure_reference([complete_graph(6), k331_graph()])
    assert summary(petersen_family()) == summary(reference)


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
    assert by_name["K6"].canonical == canonical_form(complete_graph(6))
    assert by_name["K3,3,1"].canonical == canonical_form(k331_graph())
    pet = by_name["petersen"]
    assert pet.graph.n == 10
    assert not triangles(pet.graph)
    assert pet.canonical == canonical_form(petersen_graph())


def test_family_closed():
    assert family_closed_under_delta_y(petersen_family())


def relabelled_seeds(rng):
    def shuffled(g):
        verts = sorted(g.vertices)
        images = verts[:]
        rng.shuffle(images)
        image = dict(zip(verts, images))
        return graph_from_pairs([(image[e.u], image[e.v]) for e in g.edges], name=g.name)

    return [shuffled(complete_graph(6)), shuffled(k331_graph())]


def test_family_stable_under_seed_relabeling():
    fam = petersen_family()
    relabeled = oracles.petersen_closure_reference(relabelled_seeds(random.Random(3)))
    assert [(m.name, m.canonical) for m in relabeled] == [(m.name, m.canonical) for m in fam]


def test_closure_from_k6_alone_misses_k331():
    sub = {m.canonical for m in oracles.petersen_closure_reference([complete_graph(6)])}
    assert sub < {m.canonical for m in petersen_family()}
    assert len(sub) == 6
    assert canonical_form(k331_graph()) not in sub
    assert canonical_form(petersen_graph()) in sub


def test_closure_builds_each_member_once(monkeypatch, fresh_load):
    # a load builds each member once, already named, in family order
    built = []

    @dataclass(frozen=True)
    class Counting(moves.FamilyMember):
        def __post_init__(self):
            built.append(self.name)

    monkeypatch.setattr(moves, "FamilyMember", Counting)
    fam = petersen_family()
    assert built == [m.name for m in fam] == ["K6", "P7", "K3,3,1", "P8a", "P8b", "P9", "petersen"]


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
