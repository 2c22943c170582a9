import functools
import inspect
import random
import types
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linkless.acceptance as acceptance
import linkless.canonical as canonical
import linkless.minors as minors
from linkless.acceptance import _delete_contract_oracle
import oracles
from linkless.minors import (
    MinorModel,
    SearchBudgetExceeded,
    _Budget,
    _has_minor_impl,
    _Member,
    _reduce_host,
    _search_branch_sets,
    _search_reduced,
    _twin_classes,
    has_minor,
    is_intrinsically_linked,
    minor_minimality_report,
    minor_model_errors,
    verify_minor_model,
)
from linkless.moves import delta_y, petersen_family, triangles
from linkless.multigraph import (
    Edge,
    GraphError,
    MultiGraph,
    complete_bipartite,
    complete_graph,
    graph_from_pairs,
    grid_graph,
    parse_graph,
    petersen_graph,
)
from linkless.planarity import planar_certificate_errors, planar_rotation

FAMILY = {m.name: m for m in petersen_family()}


def random_graph(n, p, rng, base=1):
    pairs = [
        (u, v)
        for u in range(base, base + n)
        for v in range(u + 1, base + n)
        if rng.random() < p
    ]
    return graph_from_pairs(pairs, vertices=range(base, base + n))


def test_k6_in_k7():
    g, h = complete_graph(7), complete_graph(6)
    model = has_minor(g, h)
    assert model is not None
    assert verify_minor_model(g, h, model)
    # subgraph witness: singleton branch sets suffice and the search found some model
    assert all(bs for bs in model.branch_sets.values())


def test_petersen_has_no_k6_minor():
    # contracting 10 vertices down to 6 leaves at most 11 < 15 edges
    assert has_minor(petersen_graph(), complete_graph(6)) is None


def test_k5_too_small_for_k6():
    assert has_minor(complete_graph(5), complete_graph(6)) is None


def test_c4_minor_respects_low_degree_targets():
    c4 = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)], name="C4")
    path = graph_from_pairs([(1, 2), (2, 3), (3, 4)])
    assert has_minor(c4, c4) is not None
    assert has_minor(path, c4) is None
    # a long cycle contracts onto C4
    c7 = graph_from_pairs([(i, i % 7 + 1) for i in range(1, 8)])
    assert has_minor(c7, c4) is not None


def test_disconnected_host():
    two = graph_from_pairs(
        [(1, 2), (2, 3), (3, 1), (10, 11), (11, 12), (12, 10)])
    tri = graph_from_pairs([(1, 2), (2, 3), (3, 1)])
    model = has_minor(two, tri)
    assert model is not None and verify_minor_model(two, tri, model)


def test_disconnected_target_rejected():
    g = complete_graph(6)
    h = graph_from_pairs([(1, 2), (3, 4)])
    with pytest.raises(GraphError):
        has_minor(g, h)


def test_budget_exhaustion_is_loud():
    # K4,5 is not planar, clears the rank rule for K6 (rank 12 against 10),
    # and its K6 search ends "none" only after about 5000 nodes
    with pytest.raises(SearchBudgetExceeded):
        has_minor(parse_graph("K4,5"), complete_graph(6), budget=50)


def _k5_bridge_k5(offset=0):
    # two K5s joined by one edge: neither planar nor apex, so it is searched
    pairs = [(u, v) for side in (0, 5) for u, v in combinations(range(1 + side, 6 + side), 2)]
    pairs.append((5, 6))
    return [(u + offset, v + offset) for u, v in pairs]


def test_budget_holds_after_a_definitive_failure():
    # an exhaustive "no" is not remembered: the same search under a tiny
    # budget runs out again instead of answering from an earlier call
    g = graph_from_pairs(_k5_bridge_k5())
    assert has_minor(g, complete_graph(6)) is None
    with pytest.raises(SearchBudgetExceeded):
        has_minor(g, complete_graph(6), budget=1)


def test_node_counts_do_not_depend_on_earlier_calls():
    g = graph_from_pairs(_k5_bridge_k5())
    assert (g.n, g.m) == (10, 21)
    first = is_intrinsically_linked(g)
    second = is_intrinsically_linked(g)
    assert (first.verdict, first.decided_by, first.nodes) == ("unlinked", "search", 14302)
    assert second.to_json_dict() == first.to_json_dict()


def test_repeated_components_each_pay_their_own_search():
    one = is_intrinsically_linked(graph_from_pairs(_k5_bridge_k5()))
    twins = is_intrinsically_linked(graph_from_pairs(_k5_bridge_k5() + _k5_bridge_k5(10)))
    assert (twins.verdict, twins.decided_by) == ("unlinked", "components")
    assert twins.nodes == 2 * one.nodes == 28604
    assert twins.per_member == one.per_member


def test_a_later_component_does_not_hide_an_exhausted_search():
    # the K5-bridge-K5 runs out of budget on K3,3,1; the bridged pair of
    # K3,3s after it finishes its K3,3,1 search with no minor
    k33s = [(u, v) for a in (101, 107) for u in range(a, a + 3) for v in range(a + 3, a + 6)]
    g = graph_from_pairs(_k5_bridge_k5() + k33s + [(106, 107)])
    first, second = (is_intrinsically_linked(g.induced(c), budget=1000)
                     for c in g.connected_components())
    assert (first.per_member["K3,3,1"], second.per_member["K3,3,1"]) == (
        "budget-exhausted", "none")
    verdict = is_intrinsically_linked(g, budget=1000)
    assert (verdict.verdict, verdict.decided_by) == ("unknown", "components")
    assert verdict.per_member == {
        name: max(first.per_member[name], second.per_member[name],
                  key=["none", "budget-exhausted", "found"].index)
        for name in first.per_member}


def test_verify_rejects_bad_models():
    g = complete_graph(7)
    h = complete_graph(6)
    good = has_minor(g, h)
    assert verify_minor_model(g, h, good)

    sets = dict(good.branch_sets)
    hv = sorted(sets)[0]
    other = sorted(sets)[1]
    overlapping = dict(sets)
    overlapping[hv] = sets[hv] | sets[other]
    bad = MinorModel(overlapping, dict(good.edge_map))
    assert not verify_minor_model(g, h, bad)
    assert any("overlap" in msg for msg in minor_model_errors(g, h, bad))

    # disconnected branch set: two nonadjacent grid vertices
    grid = parse_graph("grid3x3")
    tri = graph_from_pairs([(1, 2), (2, 3), (3, 1)])
    disconnected = MinorModel(
        {1: frozenset({1, 9}), 2: frozenset({2}), 3: frozenset({5})},
        {0: 0, 1: 1, 2: 2},
    )
    assert any("connected" in msg for msg in minor_model_errors(grid, tri, disconnected))


# single-field mutants of the model of K6 in K7, each with the first
# message `minor_model_errors` gives it
_MODEL_MUTANTS = {
    "uncovered": (lambda sets, edges: ({hv: sets[hv] for hv in sets if hv != 1}, edges),
                  "branch sets must cover exactly the H vertices"),
    "empty": (lambda sets, edges: ({**sets, 1: frozenset()}, edges),
              "branch set of 1 is empty"),
    "outside": (lambda sets, edges: ({**sets, 1: frozenset({99})}, edges),
                "branch set of 1 uses vertices outside G"),
    "unassigned": (lambda sets, edges: (sets, {he: edges[he] for he in edges if he != 0}),
                   "H edge 0 has no assigned G edge"),
    "used-twice": (lambda sets, edges: (sets, {**edges, 1: edges[0]}),
                   "G edge {0} assigned to more than one H edge"),
    "missing": (lambda sets, edges: (sets, {**edges, 0: 999}),
                "assigned edge 999 does not exist in G"),
}


@pytest.mark.parametrize("mutant", sorted(_MODEL_MUTANTS))
def test_a_mutated_model_is_rejected_with_its_own_message(mutant):
    g, h = complete_graph(7), complete_graph(6)
    good = has_minor(g, h)
    assert minor_model_errors(g, h, good) == []
    mutate, message = _MODEL_MUTANTS[mutant]
    errors = minor_model_errors(g, h, MinorModel(*mutate(dict(good.branch_sets),
                                                         dict(good.edge_map))))
    assert errors[0] == message.format(good.edge_map[0])
    others = {m.format(good.edge_map[0]) for name, (_, m) in _MODEL_MUTANTS.items()
              if name != mutant}
    assert not others & set(errors)


def test_a_search_that_returns_overlapping_branch_sets_raises(monkeypatch):
    real = minors._search_branch_sets

    def overlapping(work, member, budget):
        sets = real(work, member, budget)
        first, second = sorted(sets)[:2]
        return {**sets, second: sets[second] | sets[first]}

    monkeypatch.setattr(minors, "_search_branch_sets", overlapping)
    with pytest.raises(AssertionError, match="search produced an invalid minor model"):
        has_minor(complete_graph(7), complete_graph(6))
    with pytest.raises(AssertionError, match="search produced an invalid minor model"):
        is_intrinsically_linked(complete_graph(7))


def test_a_planar_route_with_a_wrong_rotation_raises(monkeypatch):
    # one transposition in one vertex's rotation leaves no plane embedding
    real = minors.planar_rotation

    def transposed(g):
        rotation = real(g)
        if rotation is not None:
            v = min(v for v, order in rotation.items() if len(order) >= 3)
            a, b, *rest = rotation[v]
            rotation = {**rotation, v: (b, a, *rest)}
        return rotation

    monkeypatch.setattr(minors, "planar_rotation", transposed)
    with pytest.raises(AssertionError, match="planar route produced an invalid certificate"):
        is_intrinsically_linked(grid_graph(4, 4))


def test_returned_models_always_verify():
    rng = random.Random(11)
    targets = [complete_graph(4), complete_bipartite(3, 3),
               graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])]
    for _ in range(40):
        g = random_graph(rng.randint(4, 9), 0.55, rng)
        for h in targets:
            try:
                model = has_minor(g, h)
            except SearchBudgetExceeded:
                continue
            if model is not None:
                assert verify_minor_model(g, h, model)


@pytest.mark.parametrize(
    "target",
    [
        complete_graph(4),
        complete_graph(5),
        complete_bipartite(3, 3),
        graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)], name="C4"),
    ],
    ids=["K4", "K5", "K33", "C4"],
)
def test_oracle_agreement_on_random_small_graphs(target):
    # unit-scale slice of the exhaustive acceptance check
    rng = random.Random(2 * target.m)  # the degree sum
    for _ in range(60):
        g = random_graph(rng.randint(1, 6), rng.choice([0.3, 0.5, 0.8]), rng)
        assert (has_minor(g, target) is not None) == _delete_contract_oracle(g, target)


def test_oracle_agreement_on_7_vertex_hosts():
    # the degree-1/2 host reductions fire on most sparse 7-vertex graphs;
    # C4 and C5 exercise the min-degree gates that disable them
    targets = [
        complete_graph(4),
        complete_bipartite(3, 3),
        graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)]),
        graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
    ]
    rng = random.Random(618)
    done = 0
    while done < 30:
        n = rng.randint(5, 7)
        g = random_graph(n, rng.choice([0.3, 0.45]), rng)
        if g.m > 10:
            continue
        done += 1
        for h in targets:
            assert (has_minor(g, h) is not None) == _delete_contract_oracle(g, h)


def test_oracle_agreement_exhaustive_on_5_vertices():
    target = complete_graph(4)
    all_pairs = list(combinations(range(1, 6), 2))
    for bits in range(1 << len(all_pairs)):
        pairs = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
        g = graph_from_pairs(pairs, vertices=range(1, 6))
        assert (has_minor(g, target) is not None) == _delete_contract_oracle(g, target)


def test_oracle_stays_independent_of_the_library():
    # the oracle is the reference for has_minor, so neither it nor any
    # function of its module that it reaches may call the engine
    forbidden = {"canonical_form", "has_minor", "is_intrinsically_linked",
                 "_reduce_host", "planar_rotation"}
    names, todo, walked = set(), [_delete_contract_oracle], set()
    while todo:
        fn = inspect.unwrap(todo.pop())
        if fn in walked:
            continue
        walked.add(fn)
        codes = [fn.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in names:
            obj = inspect.unwrap(getattr(acceptance, name, None))
            if inspect.isfunction(obj) and obj.__module__ == acceptance.__name__:
                todo.append(obj)
    assert {f.__name__ for f in walked} == {
        "_delete_contract_oracle", "_brute_iso_key", "_brute_iso_key_of_pairs"}
    assert not names & forbidden


def test_classifier_table():
    expect = {
        "K6": "linked",
        "K3,3,1": "linked",
        "petersen": "linked",
        "K7": "linked",
        "K4,4": "linked",
        "K5": "unlinked",
        "K3,3": "unlinked",
        "grid4x4": "unlinked",
    }
    for name, want in expect.items():
        verdict = is_intrinsically_linked(parse_graph(name))
        assert verdict.verdict == want, name
        if want == "linked":
            assert verdict.witness_member is not None
            member = FAMILY[verdict.witness_member]
            assert verify_minor_model(parse_graph(name), member.graph,
                                      verdict.witness_model)


def test_petersen_witnessed_by_itself():
    verdict = is_intrinsically_linked(petersen_graph())
    assert verdict.witness_member == "petersen"


def test_classifier_on_disconnected_graph():
    g = graph_from_pairs(
        [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
        + [(10, 11), (11, 12)],
        vertices=list(range(1, 7)) + [10, 11, 12],
    )
    verdict = is_intrinsically_linked(g)
    assert verdict.verdict == "linked"
    assert verdict.witness_member == "K6"


def member_searches(g, budget=minors.DEFAULT_BUDGET):
    """(verdict, witness member, model, nodes, per-member outcomes) of the
    seven member searches that the classifier runs below its routes, on
    one reduction of the simplified host."""
    members, min_degree, min_n = minors._family_search()
    work, origin = _reduce_host(g.simplified(), min_degree, min_n)
    nodes, outcome = 0, {}
    for name, member in members:
        try:
            model, spent = _search_reduced(g, work, origin, member, budget)
        except SearchBudgetExceeded as exc:
            nodes += exc.nodes
            outcome[name] = "budget-exhausted"
            continue
        nodes += spent
        outcome[name] = "none" if model is None else "found"
        if model is not None:
            return "linked", name, model, nodes, outcome
    verdict = "unknown" if "budget-exhausted" in outcome.values() else "unlinked"
    return verdict, None, None, nodes, outcome


def test_prefilter_consistency():
    # every route agrees with the member searches on graphs of <= 8 vertices
    rng = random.Random(21)
    graphs = [parse_graph("K6"), parse_graph("K3,3,1"), parse_graph("K3,3"),
              parse_graph("K5"), delta_y(complete_graph(6), (1, 2, 3))]
    graphs += [random_graph(rng.randint(4, 8), 0.5, rng) for _ in range(20)]
    for g in graphs:
        assert is_intrinsically_linked(g).verdict == member_searches(g)[0]


def cone(g):
    """g plus a new vertex joined to every vertex: an apex graph when g is planar."""
    top = max(g.vertices) + 1
    return graph_from_pairs([e.pair() for e in g.edges] + [(top, v) for v in sorted(g.vertices)])


def test_certified_hosts_have_no_family_minor():
    # every host of <= 9 vertices certified planar or apex comes back
    # unlinked from the full search too
    rng = random.Random(77)
    wheel = graph_from_pairs([(i, i % 6 + 1) for i in range(1, 7)] + [(7, i) for i in range(1, 7)])
    bipyramid = graph_from_pairs([e.pair() for e in wheel.edges] + [(8, i) for i in range(1, 7)])
    graphs = [bipyramid, cone(wheel), cone(grid_graph(2, 4))]
    graphs += [random_graph(rng.randint(6, 9), rng.choice([0.45, 0.6, 0.75]), rng)
               for _ in range(80)]
    routes = {"planar": 0, "apex": 0}
    for g in graphs:
        verdict = is_intrinsically_linked(g)
        if verdict.decided_by not in routes:
            continue
        routes[verdict.decided_by] += 1
        assert verdict.verdict == "unlinked"
        assert verdict.per_member == {} and verdict.nodes == 0
        assert planar_certificate_errors(g, verdict.certificate) == []
        assert member_searches(g)[0] == "unlinked"
    assert routes["planar"] and routes["apex"]


def test_decided_by_and_certificate():
    k5 = is_intrinsically_linked(parse_graph("K5"))
    assert (k5.decided_by, k5.certificate) == ("prefilter", None)
    k6 = is_intrinsically_linked(parse_graph("K6"))
    assert (k6.decided_by, k6.certificate) == ("search", None)
    grid = parse_graph("grid4x4")
    planar = is_intrinsically_linked(grid)
    assert planar.decided_by == "planar" and planar.certificate.apex is None
    assert planar_certificate_errors(grid, planar.certificate) == []
    doc = planar.to_json_dict()
    assert doc["stats"] == {"nodes": 0, "per_member": {}, "decided_by": "planar"}
    assert doc["certificate"]["apex"] is None
    assert set(doc["certificate"]["rotation"]) == {str(v) for v in grid.vertices}

    # K3,3,1 minus an edge is apex at its degree-6 vertex 7; with one edge
    # subdivided it clears the size prefilter
    near = parse_graph("K3,3,1").delete_edge(0)
    split = near.edges_between(2, 5)[0]
    near = graph_from_pairs([e.pair() for e in near.delete_edge(split.id).edges]
                            + [(2, 8), (8, 5)])
    # in a cone over grid3x3 with a spoke subdivided by vertex 0, the
    # reduction merges apex 100 into vertex 0, which is not an apex itself
    grid = grid_graph(3, 3)
    coned = graph_from_pairs([(0, 100), (0, 1)] + [(100, v) for v in range(2, 10)]
                             + [(e.u, e.v) for e in grid.edges])
    for g, apex in ((near, 7), (coned, 100)):
        verdict = is_intrinsically_linked(g)
        assert verdict.decided_by == "apex" and verdict.verdict == "unlinked"
        assert verdict.certificate.apex == apex
        assert planar_certificate_errors(g, verdict.certificate) == []
        assert verdict.to_json_dict()["certificate"]["apex"] == apex

    two = is_intrinsically_linked(graph_from_pairs([(1, 2), (3, 4)]))
    assert (two.decided_by, two.certificate) == ("components", None)


@st.composite
def _connected_hosts(draw):
    """Connected simple graphs on 6-11 vertices with scattered labels."""
    n = draw(st.integers(6, 11))
    labels = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n, unique=True))
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]  # a spanning tree
    ends = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(ends, ends), min_size=n, max_size=3 * n))
    return graph_from_pairs([(labels[a], labels[b]) for a, b in pairs if a != b])


@settings(max_examples=300, deadline=None)
@given(_connected_hosts())
def test_apex_route_agrees_with_networkx(g):
    # the route answers exactly for the hosts that clear the prefilter, are
    # not planar and become planar when some one vertex is deleted
    nx = pytest.importorskip("networkx")
    gs = g.simplified()
    host = nx.Graph([e.pair() for e in gs.edges])
    planar = nx.check_planarity(host)[0]
    apex = any(nx.check_planarity(host.subgraph(set(host) - {v}))[0] for v in host)
    verdict = is_intrinsically_linked(g, budget=100)
    passes = gs.m >= 15 and gs.n >= 6
    assert (verdict.decided_by == "apex") == (passes and not planar and apex)
    assert (verdict.decided_by == "planar") == (passes and planar)
    if verdict.certificate is not None:
        assert planar_certificate_errors(g, verdict.certificate) == []


def test_classify_computes_no_canonical_form(monkeypatch):
    # the family members share one reduced host and nothing is keyed on
    # it; the family itself is built (and keyed) once, before counting.
    # Every key goes through the one search, which is counted
    petersen_family()
    calls = []
    search = canonical._canonical_search
    monkeypatch.setattr(canonical, "_canonical_search",
                        lambda g: calls.append(g.n) or search(g))
    verdict = is_intrinsically_linked(petersen_graph())
    assert verdict.witness_member == "petersen"
    assert calls == []


def test_shared_host_matches_per_member_search():
    # on one shared reduction, node counts and witnesses equal those of the
    # seven member searches run one by one, and so do the classifier's
    # wherever the searches decide
    rng = random.Random(9)
    hosts = [petersen_graph(), parse_graph("K4,4"), grid_graph(3, 4)]
    hosts += [random_graph(rng.randint(7, 10), 0.55, rng) for _ in range(8)]
    searched = 0
    for g in hosts:
        _, _, witness, shared_nodes, shared_outcome = member_searches(g, 20_000)
        gs = g.simplified()
        nodes, outcome = 0, {}
        for member in petersen_family():
            # has_minor answers the planar hosts from planarity, so the
            # member search is run below that shortcut
            hs = member.graph
            h_min_deg = min(hs.degree(v) for v in hs.vertices)
            try:
                model, spent = _search_reduced(g, *_reduce_host(gs, h_min_deg, hs.n),
                                               _Member(hs), 20_000)
            except SearchBudgetExceeded as exc:
                nodes += exc.nodes
                outcome[member.name] = "budget-exhausted"
                continue
            nodes += spent
            outcome[member.name] = "none" if model is None else "found"
            if model is not None:
                assert witness == model
                break
        assert (shared_nodes, shared_outcome) == (nodes, outcome)
        verdict = is_intrinsically_linked(g, budget=20_000)
        if verdict.decided_by == "search":
            searched += 1
            assert (verdict.witness_model, verdict.nodes, dict(verdict.per_member)) == \
                (witness, nodes, outcome)
    assert searched >= 2


def _reduce_host_reference(gs, h_min_deg, h_n):
    """The reduction as it was written before the heap version: one rebuilt
    graph per move and a rescan of the sorted vertices every round."""
    work = gs
    origin = {v: frozenset({v}) for v in work.vertices}
    changed = True
    while changed:
        changed = False
        if h_n >= 2:
            isolated = [v for v in work.vertices if work.degree(v) == 0]
            if isolated:
                for v in isolated:
                    work = work.delete_vertex(v)
                    del origin[v]
                changed = True
                continue
        if h_min_deg >= 2:
            leaf = next((v for v in sorted(work.vertices) if work.degree(v) == 1), None)
            if leaf is not None:
                work = work.delete_vertex(leaf)
                del origin[leaf]
                changed = True
                continue
        if h_min_deg >= 3:
            mid = next((v for v in sorted(work.vertices) if work.degree(v) == 2), None)
            if mid is not None:
                e = work.incident(mid)[0]
                keep, gone = min(e.u, e.v), max(e.u, e.v)
                merged = origin[keep] | origin[gone]
                work = work.contract_edge(e.id)
                del origin[gone]
                origin[keep] = merged
                changed = True
    return work, origin


@st.composite
def _sparse_hosts(draw):
    """Simple graphs with arbitrary vertex and edge ids, built from a small
    random core plus subdivided edges, pendant trees and isolated vertices."""
    ids = iter(draw(st.permutations(range(-40, 60))))
    core = [next(ids) for _ in range(draw(st.integers(1, 7)))]
    vertices = list(core)
    pairs = []
    for u, v in combinations(core, 2):
        if draw(st.booleans()):
            path = [u] + [next(ids) for _ in range(draw(st.integers(0, 3)))] + [v]
            vertices += path[1:-1]
            pairs += zip(path, path[1:])
    for _ in range(draw(st.integers(0, 6))):
        leaf = next(ids)
        pairs.append((draw(st.sampled_from(vertices)), leaf))
        vertices.append(leaf)
    vertices += [next(ids) for _ in range(draw(st.integers(0, 2)))]
    edge_ids = draw(st.permutations(range(len(pairs))))
    edges = tuple(Edge(i, u, v) for i, (u, v) in zip(edge_ids, pairs))
    return MultiGraph(frozenset(vertices), edges).simplified()


@settings(max_examples=300, deadline=None)
@given(gs=_sparse_hosts(), h_min_deg=st.integers(0, 4), h_n=st.integers(0, 3))
def test_reduce_host_matches_reference(gs, h_min_deg, h_n):
    work, origin = _reduce_host(gs, h_min_deg, h_n)
    ref_work, ref_origin = _reduce_host_reference(gs, h_min_deg, h_n)
    assert work.vertices == ref_work.vertices
    assert sorted(work.edges) == sorted(ref_work.edges)
    assert origin == ref_origin


def test_reduce_host_builds_one_graph(monkeypatch):
    # K7 with every edge subdivided 5 times reduces back to K7; a graph
    # rebuilt per removed vertex would make this hundreds of constructions
    pairs, fresh = [], iter(range(100, 10_000))
    for u, v in combinations(range(1, 8), 2):
        path = [u] + [next(fresh) for _ in range(5)] + [v]
        pairs += zip(path, path[1:])
    gs = graph_from_pairs(pairs)
    built = []
    original = MultiGraph.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(MultiGraph, "__post_init__", counting)
    work, origin = _reduce_host(gs, 3, 6)
    assert len(built) <= 1
    monkeypatch.undo()
    assert work.vertices == frozenset(range(1, 8)) and work.m == 21
    assert sum(len(xs) for xs in origin.values()) == gs.n


@st.composite
def _search_hosts(draw, target):
    """Simple hosts for the branch-set search: random graphs on at most 10
    vertices, or family members (often the target) relabelled, with edges
    subdivided and pendant vertices added; each possibly reduced as the
    classifier does."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 10))
        slots = list(combinations(range(n), 2))
        density = draw(st.sampled_from([4, 6, 8]))
        keep = draw(st.lists(st.integers(0, 9), min_size=len(slots), max_size=len(slots)))
        gs = graph_from_pairs([p for p, b in zip(slots, keep) if b < density],
                              vertices=range(n))
    else:
        member = draw(st.sampled_from([target] + [m.graph for m in petersen_family()]))
        labels = draw(st.permutations(range(100, 100 + member.n)))
        relabel = dict(zip(sorted(member.vertices), labels))
        pairs = [(relabel[e.u], relabel[e.v]) for e in member.edges]
        fresh = iter(range(200, 300))
        for i in sorted(set(draw(st.lists(st.integers(0, len(pairs) - 1), max_size=4))),
                        reverse=True):
            u, v = pairs.pop(i)
            w = next(fresh)
            pairs += [(u, w), (w, v)]
        for _ in range(draw(st.integers(0, 3))):
            pairs.append((draw(st.sampled_from(sorted({x for p in pairs for x in p}))),
                          next(fresh)))
        gs = graph_from_pairs(pairs)
    if draw(st.booleans()):
        gs = _reduce_host(gs, 3, 6)[0]
    return gs


def _search_outcome(search, work, target, limit):
    budget = _Budget(limit)
    try:
        return search(work, target, budget), budget.nodes
    except SearchBudgetExceeded as exc:
        return "exhausted", exc.nodes


@pytest.mark.parametrize("name", list(FAMILY))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), small=st.integers(0, 300))
def test_branch_set_search_matches_the_recursive_reference(name, data, small):
    # same branch sets, same nodes spent, same node count at exhaustion, as
    # the reference run with the same cycle-rank, twin and edge-slack rules
    hs = FAMILY[name].graph.simplified()
    work = data.draw(_search_hosts(hs), label="host")
    reference = functools.partial(oracles._search_branch_sets, rules=True)
    for limit in (small, 50_000):
        got = _search_outcome(_search_branch_sets, work, _Member(hs), limit)
        assert got == _search_outcome(reference, work, hs, limit)


@pytest.mark.parametrize("name", list(FAMILY))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rules_keep_the_model_of_the_search_without_them(name, data):
    # the cycle-rank, twin and edge-slack rules cut only subtrees without a
    # model, and the first model of the unpruned search has its twins in
    # order, so the search finds that model, or none where it finds none
    hs = FAMILY[name].graph.simplified()
    work = data.draw(_search_hosts(hs), label="host")
    plain, plain_nodes = _search_outcome(oracles._search_branch_sets, work, hs, 100_000)
    assume(plain != "exhausted")
    origin = {v: frozenset({v}) for v in work.vertices}
    model, nodes = _search_reduced(work, work, origin, _Member(hs), 100_000)
    assert nodes <= plain_nodes
    if plain is None:
        assert model is None
    else:
        assert model is not None and model.branch_sets == plain
        assert minor_model_errors(work, hs, model) == []


def test_twin_classes_of_the_family():
    sizes = {name: sorted(len(c) for c in _twin_classes(m.graph.simplified()))
             for name, m in FAMILY.items()}
    assert sizes == {"K6": [6], "K3,3,1": [3, 3], "P7": [3, 3], "P8a": [3, 3],
                     "P8b": [2, 2], "P9": [], "petersen": []}
    # K3,3,1's sides are false twins, K6's vertices true twins
    assert _twin_classes(FAMILY["K3,3,1"].graph.simplified()) == [[1, 2, 3], [4, 5, 6]]
    member = _Member(FAMILY["K6"].graph.simplified())
    assert member.twin_before == [-1, 0, 1, 2, 3, 4]


def test_planar_host_has_no_minor_that_is_not_planar(monkeypatch):
    # grid5x5 clears the rank rule for K6, but no planar graph has a K6 (or
    # K3,3) minor, so the answer spends no node
    grid = parse_graph("grid5x5")
    assert _has_minor_impl(grid, complete_graph(6), 1) == (None, 0)
    assert has_minor(grid, complete_bipartite(3, 3), budget=0) is None
    # a host that is not planar is still searched
    with pytest.raises(SearchBudgetExceeded):
        has_minor(parse_graph("K4,5"), complete_graph(6), budget=0)
    # a planar target is searched for, and the host is then never tested
    tested = []
    monkeypatch.setattr(minors, "planar_rotation",
                        lambda g: tested.append(g.n) or planar_rotation(g))
    c4 = graph_from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])
    assert has_minor(grid, c4) is not None
    assert tested == [4]


def test_cycle_rank_rules_out_k6_in_petersen_at_zero_nodes():
    # rank 15 - 6 + 1 = 10 of K6 exceeds rank 15 - 10 + 1 = 6 of the host
    assert _has_minor_impl(petersen_graph(), complete_graph(6), 1) == (None, 0)
    assert has_minor(parse_graph("grid4x4"), complete_graph(6), budget=0) is None


def test_models_that_waste_no_edge_survive_the_slack_bound():
    # slack 0: K4,4 holds K3,3,1 only by one contraction, whose branch set
    # of two vertices wastes nothing, and each member holds itself only by
    # singletons; growth that adds no waste must stay allowed
    k44 = complete_bipartite(4, 4)
    hosts = [(k44, FAMILY["K3,3,1"].graph)]
    hosts += [(m.graph, m.graph) for m in petersen_family()]
    for g, h in hosts:
        assert g.m - g.n == h.m - h.n
        model = has_minor(g, h)
        assert model is not None and minor_model_errors(g, h, model) == []
    model = has_minor(k44, FAMILY["K3,3,1"].graph)
    assert sorted(len(bs) for bs in model.branch_sets.values()) == [1] * 6 + [2]


def test_monotone_under_edge_addition():
    # a supergraph of a linked graph stays linked
    rng = random.Random(33)
    found = 0
    while found < 50:
        g = random_graph(rng.randint(7, 9), 0.7, rng)
        verdict = is_intrinsically_linked(g)
        if verdict.verdict != "linked":
            continue
        found += 1
        nonedges = [
            (u, v)
            for u in sorted(g.vertices)
            for v in sorted(g.vertices)
            if u < v and not g.edges_between(u, v)
        ]
        if not nonedges:
            continue
        u, v = nonedges[rng.randrange(len(nonedges))]
        bigger = graph_from_pairs([e.pair() for e in g.edges] + [(u, v)], vertices=g.vertices)
        assert is_intrinsically_linked(bigger).verdict == "linked"


def test_mader_dense_graphs_have_k6_minors():
    # Mader (1968): every graph with n >= 6 and m >= 4n - 9 has a K6 minor
    rng = random.Random(1968)
    k6 = complete_graph(6)
    for n in range(6, 11):
        all_pairs = list(combinations(range(1, n + 1), 2))
        for _ in range(15):
            m = rng.randint(4 * n - 9, len(all_pairs))
            g = graph_from_pairs(rng.sample(all_pairs, m), vertices=range(1, n + 1))
            model = has_minor(g, k6)
            assert model is not None and verify_minor_model(g, k6, model)
            verdict = is_intrinsically_linked(g)
            assert verdict.verdict == "linked"
            member = FAMILY[verdict.witness_member]
            assert verify_minor_model(g, member.graph, verdict.witness_model)


def test_minors_of_unlinked_graphs_stay_unlinked():
    rng = random.Random(34)
    found = 0
    while found < 50:
        g = random_graph(rng.randint(6, 8), 0.5, rng)
        if is_intrinsically_linked(g).verdict != "unlinked":
            continue
        found += 1
        current = g
        for _ in range(10):
            if current.m == 0:
                break
            e = current.edges[rng.randrange(current.m)]
            current = (
                current.delete_edge(e.id)
                if rng.random() < 0.5 or e.is_loop
                else current.contract_edge(e.id)
            )
            assert is_intrinsically_linked(current).verdict == "unlinked"


def test_delta_y_preserves_linkedness():
    for member in petersen_family():
        tris = triangles(member.graph)
        if not tris:
            continue
        child = delta_y(member.graph, tris[0])
        assert is_intrinsically_linked(child).verdict == "linked"


def test_delta_y_preserves_linkedness_on_random_graphs():
    rng = random.Random(404)
    found = 0
    while found < 15:
        g = random_graph(rng.randint(7, 9), 0.65, rng)
        from linkless.moves import triangles as tri_list

        tris = tri_list(g)
        if not tris or is_intrinsically_linked(g).verdict != "linked":
            continue
        found += 1
        child = delta_y(g, tris[rng.randrange(len(tris))])
        assert is_intrinsically_linked(child).verdict == "linked"


def test_k6_is_minor_minimal():
    report = minor_minimality_report(complete_graph(6))
    assert report.minor_minimal is True
    assert len(report.children) == 30
    assert all(c.verdict == "unlinked" for c in report.children)


def test_k7_is_not_minor_minimal():
    report = minor_minimality_report(complete_graph(7))
    assert report.minor_minimal is False


def test_petersen_is_minor_minimal():
    report = minor_minimality_report(petersen_graph())
    assert report.minor_minimal is True


def test_minimality_requires_linked_input():
    with pytest.raises(GraphError):
        minor_minimality_report(complete_graph(5))
