import inspect
import random
import sys
import types
from itertools import combinations

import pytest

import linkless.acceptance as acceptance
import linkless.canonical as canonical
from linkless.acceptance import _delete_contract_oracle
from linkless.minors import (
    MinorModel,
    SearchBudgetExceeded,
    _has_minor_impl,
    has_minor,
    is_intrinsically_linked,
    minor_minimality_report,
    minor_model_errors,
    verify_minor_model,
)
from linkless.moves import delta_y, petersen_family, triangles
from linkless.multigraph import (
    GraphError,
    complete_bipartite,
    complete_graph,
    graph_from_pairs,
    grid_graph,
    parse_graph,
    petersen_graph,
)
from linkless.planarity import planar_certificate_errors


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
    with pytest.raises(SearchBudgetExceeded):
        has_minor(parse_graph("grid4x4"), complete_graph(6), budget=50)


def test_budget_holds_after_a_definitive_failure():
    # an exhaustive "no" is not remembered: the same search under a tiny
    # budget runs out again instead of answering from an earlier call
    assert has_minor(parse_graph("grid4x4"), complete_graph(6)) is None
    with pytest.raises(SearchBudgetExceeded):
        has_minor(parse_graph("grid4x4"), complete_graph(6), budget=1)


def _k5_bridge_k5(offset=0):
    # two K5s joined by one edge: neither planar nor apex, so it is searched
    pairs = [(u, v) for side in (0, 5) for u, v in combinations(range(1 + side, 6 + side), 2)]
    pairs.append((5, 6))
    return [(u + offset, v + offset) for u, v in pairs]


def test_node_counts_do_not_depend_on_earlier_calls():
    g = graph_from_pairs(_k5_bridge_k5())
    assert (g.n, g.m) == (10, 21)
    first = is_intrinsically_linked(g)
    second = is_intrinsically_linked(g)
    assert (first.verdict, first.decided_by, first.nodes) == ("unlinked", "search", 15572)
    assert second.to_json_dict() == first.to_json_dict()


def test_repeated_components_each_pay_their_own_search():
    one = is_intrinsically_linked(graph_from_pairs(_k5_bridge_k5()))
    twins = is_intrinsically_linked(graph_from_pairs(_k5_bridge_k5() + _k5_bridge_k5(10)))
    assert (twins.verdict, twins.decided_by) == ("unlinked", "components")
    assert twins.nodes == 2 * one.nodes == 31144
    assert twins.per_member == one.per_member


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
    rng = random.Random(sum(target.degree_sequence()))
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
            member = petersen_family().member_named(verdict.witness_member)
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


def test_prefilter_consistency():
    # verdicts agree with prefilters disabled on graphs of <= 8 vertices
    rng = random.Random(21)
    graphs = [parse_graph("K6"), parse_graph("K3,3,1"), parse_graph("K3,3"),
              parse_graph("K5"), delta_y(complete_graph(6), (1, 2, 3))]
    graphs += [random_graph(rng.randint(4, 8), 0.5, rng) for _ in range(20)]
    for g in graphs:
        fast = is_intrinsically_linked(g, prefilter=True).verdict
        slow = is_intrinsically_linked(g, prefilter=False).verdict
        assert fast == slow


def cone(g):
    """g plus a new vertex joined to every vertex: an apex graph when g is planar."""
    top = max(g.vertices) + 1
    out = g.add_vertex(top)
    for v in sorted(g.vertices):
        out = out.add_edge(top, v)
    return out


def test_certified_hosts_have_no_family_minor():
    # every host of <= 9 vertices certified planar or apex comes back
    # unlinked from the full search too
    rng = random.Random(77)
    wheel = graph_from_pairs([(i, i % 6 + 1) for i in range(1, 7)] + [(7, i) for i in range(1, 7)])
    bipyramid = wheel.add_vertex(8)
    for i in range(1, 7):
        bipyramid = bipyramid.add_edge(8, i)
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
        assert is_intrinsically_linked(g, prefilter=False).verdict == "unlinked"
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
    near = near.delete_edge(split.id).add_vertex(8).add_edge(2, 8).add_edge(8, 5)
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


def test_classify_computes_no_canonical_form(monkeypatch):
    # the family members share one reduced host and nothing is keyed on
    # it; the family itself is built (and keyed) once, before counting
    petersen_family()
    calls = []

    def counting(g):
        calls.append(g.n)
        return original(g)

    original = canonical.canonical_form
    for name, module in list(sys.modules.items()):
        if name.startswith("linkless") and getattr(module, "canonical_form", None) is original:
            monkeypatch.setattr(module, "canonical_form", counting)
    verdict = is_intrinsically_linked(petersen_graph())
    assert verdict.witness_member == "petersen"
    assert calls == []


def test_shared_host_matches_per_member_search():
    # node counts and witnesses equal those of the seven member searches
    # run one by one
    rng = random.Random(9)
    hosts = [petersen_graph(), parse_graph("K4,4"), grid_graph(3, 4)]
    hosts += [random_graph(rng.randint(7, 10), 0.55, rng) for _ in range(8)]
    for g in hosts:
        verdict = is_intrinsically_linked(g, budget=20_000, prefilter=False)
        nodes, outcome = 0, {}
        for member in petersen_family():
            try:
                model, spent = _has_minor_impl(g, member.graph, 20_000)
            except SearchBudgetExceeded as exc:
                nodes += exc.nodes
                outcome[member.name] = "budget-exhausted"
                continue
            nodes += spent
            outcome[member.name] = "none" if model is None else "found"
            if model is not None:
                assert verdict.witness_model == model
                break
        assert verdict.nodes == nodes
        assert dict(verdict.per_member) == outcome


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
            if u < v and not g.has_edge(u, v)
        ]
        if not nonedges:
            continue
        u, v = nonedges[rng.randrange(len(nonedges))]
        assert is_intrinsically_linked(g.add_edge(u, v)).verdict == "linked"


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
            member = petersen_family().member_named(verdict.witness_member)
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
