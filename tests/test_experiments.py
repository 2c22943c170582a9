import contextlib
import io
import random
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkless import cli, embedding, experiments, omega, projection
from linkless.acceptance import criterion_8_projection_independence
from linkless.embedding import (
    EmbeddingError,
    RetryLimitExceeded,
    SpatialEmbedding,
    random_detour,
    random_embedding,
)
from linkless.experiments import conway_gordon_experiment, edge_swap_check
from linkless.geometry import cross3, is_zero3
from linkless.moves import petersen_family
from linkless.multigraph import complete_graph, graph_from_pairs, k331_graph
from linkless.omega import DIRECTION_ATTEMPTS, loop_pair_link
from linkless.projection import NonRegularProjection
from oracles import circuit_polyline, gauss_linking_number, scanned_lk


def test_k6_experiment_small():
    report = conway_gordon_experiment(complete_graph(6), trials=40, seed=0)
    assert report.all_omega_one
    assert report.omega_counts == {1: 40}
    # the number of linked pairs is odd in every trial
    assert all(count % 2 == 1 for count in report.odd_pair_counts)


def test_k331_experiment_small():
    report = conway_gordon_experiment(k331_graph(), trials=30, seed=0)
    assert report.all_omega_one
    assert report.omega_counts == {1: 30}


def test_experiment_reports_deterministic():
    a = conway_gordon_experiment(complete_graph(6), trials=15, seed=9).to_json_dict()
    b = conway_gordon_experiment(complete_graph(6), trials=15, seed=9).to_json_dict()
    assert a == b


def test_k6_minus_edge_sees_both_values():
    # off the intrinsically-linked hypotheses, omega depends on the embedding
    g = complete_graph(6).delete_edge(0)
    report = conway_gordon_experiment(g, trials=200, seed=0)
    assert report.omega_counts.get(0, 0) > 0
    assert report.omega_counts.get(1, 0) > 0
    assert not report.all_omega_one


def test_edge_swap_k6():
    report = edge_swap_check(complete_graph(6), trials=25, seed=0)
    assert report.passed
    assert report.preserved == 25
    # K6: exactly four complementary triangles avoid any given edge
    assert report.pair_identities_checked == 25 * 4
    assert report.even_cover_checked == 25
    assert report.violations == ()


def test_edge_swap_k331():
    report = edge_swap_check(k331_graph(), trials=25, seed=0)
    assert report.passed
    assert report.preserved == 25
    # apex edges see 3 complementary squares, the others 3 squares + ... 5 pairs
    per_trial = report.pair_identities_checked
    assert 25 * 3 <= per_trial <= 25 * 5


@pytest.mark.parametrize("member", petersen_family(), ids=lambda m: m.name)
def test_every_family_member_passes_both_experiments(member):
    report = conway_gordon_experiment(member.graph, trials=12, seed=0)
    assert report.omega_counts == {1: 12}
    swap = edge_swap_check(member.graph, trials=12, seed=0)
    assert swap.passed
    assert swap.preserved == 12
    assert swap.violations == ()


def test_edge_swap_on_graphs_outside_the_family():
    # omega of K7 is a reroute invariant too, although K7 is not a member
    assert edge_swap_check(complete_graph(7), trials=6, seed=0).passed
    # on K6 - e omega is not a reroute invariant; the per-pair identity,
    # which only uses the bilinearity of lk, must still hold every time
    report = edge_swap_check(complete_graph(6).delete_edge(0), trials=40, seed=0)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"even-cover", "omega-changed"}
    assert not report.passed


def test_edge_swap_on_fixed_embedding(monkeypatch):
    emb = random_embedding(complete_graph(6), 3)
    monkeypatch.setattr(experiments, "random_embedding", lambda g, seed: emb)
    report = edge_swap_check(emb.graph, trials=8, seed=0)
    assert report.passed
    assert report.preserved == 8
    assert report.pair_identities_checked == 8 * 4


def test_edge_swap_deterministic():
    a = edge_swap_check(k331_graph(), trials=10, seed=4).to_json_dict()
    b = edge_swap_check(k331_graph(), trials=10, seed=4).to_json_dict()
    assert a == b


def test_edge_swap_gives_up_after_retry_limit(monkeypatch):
    def no_valid_midpoint(*args):
        raise EmbeddingError("forced failure")

    monkeypatch.setattr(embedding, "reroute_edge", no_valid_midpoint)
    with pytest.raises(RetryLimitExceeded):
        edge_swap_check(complete_graph(6), trials=1, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(embedding, "_check_edge", no_valid_midpoint)
    with pytest.raises(RetryLimitExceeded):
        edge_swap_check(k331_graph(), trials=1, seed=0)

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["reroute-check", "K6", "--trials", "1"])
    assert code == 2
    assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()


class _ScriptedRandom:
    """Stands in for random.Random: edge index 0, then the given coordinates."""

    def __init__(self, coords):
        self._coords = iter(coords)

    def randrange(self, n):
        return 0

    def randint(self, lo, hi):
        return next(self._coords)


def _waypoint_embedding():
    """K6 with straight edges, except edge 0 (1-2), which has three waypoints."""
    g = complete_graph(6)
    points = {1: (0, 0, 0), 2: (10, 0, 0), 3: (3, -20, 7), 4: (-9, 13, -11),
              5: (17, 4, 23), 6: (6, -8, -31)}
    paths = {e.id: (points[e.u], points[e.v]) for e in g.edges}
    paths[0] = ((0, 0, 0), (2, 5, 0), (5, 7, 1), (8, 5, 0), (10, 0, 0))
    return SpatialEmbedding(g, points, paths)


def test_edge_swap_rejects_midpoint_on_old_waypoint(monkeypatch):
    # the detour through an interior waypoint of the old path would make the
    # loop D = old path + detour pass through that point twice
    emb = _waypoint_embedding()
    coords = [5, 7, 1, 5, -3, 40]
    monkeypatch.setattr(experiments, "random",
                        types.SimpleNamespace(Random=lambda seed: _ScriptedRandom(coords)))
    monkeypatch.setattr(experiments, "random_embedding", lambda g, seed: emb)
    report = edge_swap_check(emb.graph, trials=1, seed=0)
    assert report.reroute_retries == 1
    assert report.passed


# -- lk(D, K) of a reroute, read off both of its diagrams ----------------------

def _random_detour(emb, rng, edge=None):
    """(edge, moved): a valid two-segment detour of ``edge`` (default: a
    random edge) through a random midpoint, drawn as ``edge_swap_check``
    draws it, and the embedding with the edge moved onto it."""
    edges = emb.graph.edges
    e = edge if edge is not None else edges[rng.randrange(len(edges))]
    return e, random_detour(emb, e.id, rng)[1]


def _trial_links(emb, e, moved, index, seed):
    """The lk list of a reroute trial of edge e through ``index``, read off
    one layout of ``emb`` and the new path as `edge_swap_check` reads it."""
    layout = projection.embedding_layout(emb, (e.id, moved.edge_paths[e.id]))
    return omega.checked_links(layout, index, seed)[2]


def _loop_links(emb, e, moved, seed):
    """The circuits K opposite edge e in the pairs through it, and lk(D, K)
    of each as a reroute trial reads them."""
    table = omega.reroute_table(omega.graph_pairs(emb.graph), e.id)
    loops = _loop_pairs(table)
    links = _trial_links(emb, e, moved, table.index, seed)
    return [k for _, k in loops], links[len(links) - len(loops):]


def _loop_pairs(table):
    # the last part of a reroute table's pairs, one (D, K) per pair through the edge
    pairs = table.index.pairs
    return pairs[len(pairs) - len(table.positions):]


def _detour_links_against_oracles(emb, e, moved, seed):
    """lk(D, K) of a reroute trial for every circuit K opposite edge e,
    checked against one `loop_pair_link` projection per K and the Gauss
    integral of the polylines, D = old path out, new path back."""
    circuits, links = _loop_links(emb, e, moved, seed)
    assert len(links) == len(circuits) > 0
    assert not any({e.u, e.v} & set(k.vertex_seq) for k in circuits)
    arc = moved.edge_paths[e.id]
    d_loop = [*emb.edge_paths[e.id], *arc[-2:0:-1]]
    for k, lk in zip(circuits, links):
        k_loop = circuit_polyline(emb, k)
        assert lk == loop_pair_link(d_loop, k_loop, seed=seed)[0], (e, arc, k)
        assert abs(gauss_linking_number(d_loop, k_loop) - lk) < 1e-6, (e, arc, k)
    return links


@pytest.mark.parametrize("graph", [complete_graph(6), k331_graph()], ids=["K6", "K3,3,1"])
def test_detour_links_match_per_pair_projections_and_gauss(graph):
    rng = random.Random(f"detour:{graph.name}")
    links = []
    for seed in range(40):
        emb = random_embedding(graph, seed)
        e, moved = _random_detour(emb, rng)
        links += _detour_links_against_oracles(emb, e, moved, seed)
    assert any(lk != 0 for lk in links)


def test_detour_links_of_an_edge_with_waypoints(monkeypatch):
    monkeypatch.setattr(embedding, "COORDINATE_BOUND", 40)
    emb = _waypoint_embedding()
    edge = emb.graph.edge(0)
    rng = random.Random(12)
    links = []
    for seed in range(40):
        e, moved = _random_detour(emb, rng, edge)
        links += _detour_links_against_oracles(emb, e, moved, seed)
    assert any(lk != 0 for lk in links)


def _strand_count(layout):
    return len({key for key, *_ in layout.segments})


@pytest.mark.parametrize("run", [conway_gordon_experiment, edge_swap_check],
                         ids=["experiment", "reroute-check"])
@pytest.mark.parametrize("refused", [False, True], ids=["regular", "main-refused"])
def test_a_trial_draws_its_passes_from_one_layout(run, refused, monkeypatch):
    # N trials build N layouts; each trial runs its main and its check pass
    # on its own layout, and a main direction refused as non-regular is
    # retried on that same layout
    layouts, passes = [], []
    real_layout, real_pass = projection.strand_layout, projection.crossing_pass

    def built(*args):
        layouts.append(real_layout(*args))
        return layouts[-1]

    def counted(layout, direction):
        passes.append(layout)
        if refused and sum(drawn is layout for drawn in passes) == 1:
            raise NonRegularProjection("forced")
        return real_pass(layout, direction)

    monkeypatch.setattr(projection, "strand_layout", built)
    monkeypatch.setattr(projection, "crossing_pass", counted)
    run(complete_graph(6), trials=8, seed=0)
    per_trial = 3 if refused else 2
    assert len(layouts) == 8 and len(passes) == per_trial * 8
    assert all(drawn is layouts[at // per_trial] for at, drawn in enumerate(passes))


@pytest.mark.parametrize("graph", [complete_graph(6), k331_graph()], ids=["K6", "K3,3,1"])
def test_a_reroute_trial_makes_one_lk_table_call(graph, monkeypatch):
    # per trial, one `link_tables` call (wherever it is looked up) over the
    # two diagrams of the trial's passes, both over the trial's one layout
    layouts, passes, calls = [], [], []
    real_layout, real_pass = projection.strand_layout, projection.crossing_pass
    real_tables = projection.link_tables

    def built(*args):
        layouts.append(real_layout(*args))
        return layouts[-1]

    def drawn(layout, direction):
        passes.append((layout, real_pass(layout, direction)))
        return passes[-1][1]

    def counted(diagrams, index):
        records = [records for layout, records in passes if layout is layouts[-1]]
        calls.append((len(layouts), [d.crossings for d in diagrams] == records,
                      [d.direction for d in diagrams]))
        return real_tables(diagrams, index)

    monkeypatch.setattr(projection, "strand_layout", built)
    monkeypatch.setattr(projection, "crossing_pass", drawn)
    for module in (projection, omega):
        monkeypatch.setattr(module, "link_tables", counted)
    assert edge_swap_check(graph, trials=8, seed=0).passed
    assert [(trial, same) for trial, same, _ in calls] == [(t, True) for t in range(1, 9)]
    for _, _, (main, check) in calls:
        assert not is_zero3(cross3(main, check))


@pytest.mark.parametrize("graph", [complete_graph(6), k331_graph()], ids=["K6", "K3,3,1"])
def test_one_projection_serves_every_detour_pair(graph, monkeypatch):
    # per trial: exactly two crossing passes, the main and the check pass,
    # each over the graph's edges and the new arc, in two non-parallel
    # directions; both diagrams also give every lk(D, K), so no pass draws
    # D on its own
    passes = []
    real_pass = projection.crossing_pass

    def counted(layout, direction):
        passes.append((_strand_count(layout), direction))
        return real_pass(layout, direction)

    monkeypatch.setattr(projection, "crossing_pass", counted)
    report = edge_swap_check(graph, trials=10, seed=0)
    assert report.passed
    assert len(passes) == 10 * 2
    assert {size for size, _ in passes} == {graph.m + 1}
    for (_, main), (_, check) in zip(passes[::2], passes[1::2]):
        assert not is_zero3(cross3(main, check))


def test_a_wrong_detour_parity_is_a_pair_identity_violation(monkeypatch):
    # lk(D, K) of the first loop pair off by one: the loop pairs follow
    # K6's 10 pairs and as many pairs through the edge
    real = experiments.checked_links
    n_graph = len(omega.graph_pairs(complete_graph(6)).pairs)

    def first_off_by_one(layout, index, seed):
        main, check, links = real(layout, index, seed)
        links[n_graph + (len(links) - n_graph) // 2] += 1
        return main, check, links

    monkeypatch.setattr(experiments, "checked_links", first_off_by_one)
    report = edge_swap_check(complete_graph(6), trials=5, seed=0)
    assert [v.kind for v in report.violations] == ["pair-identity", "even-cover"] * 5
    assert [v.trial for v in report.violations] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert report.preserved == 5
    assert not report.passed


@pytest.mark.parametrize("graph", [complete_graph(6), k331_graph()], ids=["K6", "K3,3,1"])
def test_detour_table_reads_the_same_with_the_index(monkeypatch, graph):
    # lk(D, K) as the reroute table reads it on each diagram, against the
    # loop pairs indexed afresh and a scan of the crossings
    calls = []
    real = omega.link_tables
    monkeypatch.setattr(omega, "link_tables",
                        lambda diagrams, index: calls.append((diagrams, index))
                        or real(diagrams, index))
    rng = random.Random(11)
    for seed in range(10):
        emb = random_embedding(graph, seed)
        e, moved = _random_detour(emb, rng)
        table = omega.reroute_table(omega.graph_pairs(graph), e.id)
        calls.clear()
        links = _trial_links(emb, e, moved, table.index, seed)
        [(diagrams, index)] = calls
        assert index is table.index
        loops = _loop_pairs(table)
        links = links[len(links) - len(loops):]
        assert len(diagrams) == 2 and len(loops) == len(links) > 0
        for diagram in diagrams:
            assert real([diagram], projection.pair_index(diagram.edge_endpoints, loops))[0] == links
            # the oracle counts its parity apart from the signed sum
            assert [(lk, lk & 1) for lk in links] == [scanned_lk(diagram, j, k) for j, k in loops]


def _plant_crossing(monkeypatch, e, f):
    """One more crossing record of strand e over strand f in every pass
    that draws both, so that the images of two closed curves through e
    and f cross an odd number of times."""
    real = projection.crossing_pass

    def planted(layout, direction):
        records = real(layout, direction)
        if e in layout.ends and f in layout.ends:
            records += ((e, 0, 1, 2, f, 0, 1, 2, 0, 1),)
        return records

    monkeypatch.setattr(projection, "crossing_pass", planted)


@pytest.mark.parametrize("run", [
    lambda g, emb: omega.omega_graph(emb),
    lambda g, emb: edge_swap_check(g, trials=1, seed=0),
    lambda g, emb: criterion_8_projection_independence(embeddings=1),
], ids=["omega_graph", "edge_swap_check", "criterion_8"])
def test_every_lk_table_checks_its_parities(monkeypatch, run):
    # the first J's first edge over the first K's first edge
    g = complete_graph(6)
    j, k = omega.graph_pairs(g).pairs[0]
    _plant_crossing(monkeypatch, j.edge_ids[0], k.edge_ids[0])
    with pytest.raises(AssertionError, match="omega parity disagrees with lk; kernel bug"):
        run(g, random_embedding(g, 0))


def test_loop_pair_link_checks_its_parity(monkeypatch):
    # a Hopf link of two triangles; loop A is strand 0, loop B strand 1
    loop_a = [(2, 0, 0), (-1, 2, 0), (-1, -2, 0)]
    loop_b = [(0, 3, 0), (0, 1, 2), (0, 1, -2)]
    assert abs(omega.loop_pair_link(loop_a, loop_b)[0]) == 1
    _plant_crossing(monkeypatch, 0, 1)
    with pytest.raises(AssertionError, match="omega parity disagrees with lk; kernel bug"):
        omega.loop_pair_link(loop_a, loop_b)


def test_detour_table_checks_its_parities_against_lk(monkeypatch):
    # the reroute loop's new path over the first opposite circuit's first
    # edge, read through a table that holds the loop pairs alone
    g = complete_graph(6)
    emb, e = random_embedding(g, 0), g.edges[0]
    moved = random_detour(emb, e.id, random.Random(0))[1]
    table = omega.reroute_table(omega.graph_pairs(g), e.id)
    loops = _loop_pairs(table)
    loops_only = projection.pair_index(table.index.endpoints, loops)
    assert _trial_links(emb, e, moved, loops_only, 0)
    _plant_crossing(monkeypatch, max(table.index.endpoints), loops[0][1].edge_ids[0])
    with pytest.raises(AssertionError, match="omega parity disagrees with lk; kernel bug"):
        _trial_links(emb, e, moved, loops_only, 0)


def test_the_check_projection_catches_an_lk_difference(monkeypatch):
    # a difference of 2 keeps every parity, so only the second projection sees it
    real = omega.link_tables

    def check_off_by_two(diagrams, index):
        tables = real(diagrams, index)
        tables[-1][0] += 2
        return tables

    monkeypatch.setattr(omega, "link_tables", check_off_by_two)
    with pytest.raises(AssertionError, match="lk differs between projections"):
        omega.omega_graph(random_embedding(complete_graph(6), 0))


def test_loop_pair_link_checks_lk_between_its_two_projections(monkeypatch):
    # the Hopf link above, with the check diagram's lk off by 2 (so every
    # parity holds): only the comparison of the two projections sees it
    loop_a = [(2, 0, 0), (-1, 2, 0), (-1, -2, 0)]
    loop_b = [(0, 3, 0), (0, 1, 2), (0, 1, -2)]
    real = omega.link_tables

    def check_off_by_two(diagrams, index):
        tables = real(diagrams, index)
        tables[1][0] += 2
        return tables

    monkeypatch.setattr(omega, "link_tables", check_off_by_two)
    with pytest.raises(AssertionError, match="lk differs between projections"):
        omega.loop_pair_link(loop_a, loop_b)


@pytest.mark.parametrize("loop_b", [
    [(0, 0, 0), (3, 1, 10), (2, 3, -10)],
    [(0, 0, 0), (2, 2, 5), (2, 2, -5)],
    [(-1, 0, -1), (1, 0, 1), (3, -7, 20)],
], ids=["shares-a-corner", "shares-a-corner-and-pierces", "runs-through-a-corner"])
def test_loop_pair_link_refuses_loops_that_meet(loop_b):
    # every loop B meets the origin, a corner of loop A's triangle: the
    # first two at a corner of their own (the second also pierces A, so a
    # pass over the merged point reads an odd crossing count against an
    # even lk), the third inside a segment (non-regular along every direction)
    loop_a = [(0, 0, 0), (10, 0, 0), (0, 10, 0)]
    with pytest.raises(EmbeddingError, match="the loops meet"):
        loop_pair_link(loop_a, loop_b)
    with pytest.raises(EmbeddingError, match="the loops meet"):
        loop_pair_link(loop_b, loop_a)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 7), keep=st.integers(0, 2**21 - 1), trials=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_the_experiment_counts_are_the_histograms_of_omega_reports(n, keep, trials, seed):
    # a simple graph on n vertices keeping the edges set in ``keep``; each
    # trial's counts are those of the omega report of the trial's embedding
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    g = graph_from_pairs([p for at, p in enumerate(pairs) if keep >> at & 1] or pairs[:1],
                         vertices=range(1, n + 1))
    report = conway_gordon_experiment(g, trials, seed)
    reports = [omega.omega_graph(random_embedding(g, seed ^ t), seed=seed ^ t)
               for t in range(trials)]
    assert report.omega_counts == dict(Counter(r.total for r in reports))
    assert report.odd_pair_counts == dict(Counter(r.odd_pair_count for r in reports))


@pytest.mark.parametrize("argv", [["experiment", "K6", "--trials", "3"],
                                  ["reroute-check", "K3,3,1", "--trials", "3"]],
                         ids=["experiment", "reroute-check"])
def test_trials_build_no_omega_report(argv, monkeypatch, capsys):
    built = []
    real = omega.OmegaReport.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(omega.OmegaReport, "__init__", counted)
    omega.omega_graph(random_embedding(complete_graph(6), 0))
    assert len(built) == 1
    built.clear()
    assert cli.main(argv) == 0
    assert f'"command": "{argv[0]}"' in capsys.readouterr().out
    assert not built


@pytest.mark.parametrize("graph", [complete_graph(6), k331_graph(), complete_graph(7)],
                         ids=["K6", "K3,3,1", "K7"])
def test_an_omega_report_holds_the_pairs_and_the_checked_lk_list(graph):
    for seed in range(3):
        emb = random_embedding(graph, seed)
        index = omega.graph_pairs(emb.graph)
        report = omega.omega_graph(emb, seed=seed)
        layout = projection.embedding_layout(emb)
        assert report.links == omega.checked_links(layout, index, seed)[2]
        assert report.pairs == index.pairs
        assert report.odd_pair_count == sum(lk % 2 for lk in report.links)


def test_reroute_check_exits_2_when_the_detour_has_no_regular_direction(monkeypatch, capsys):
    # every pass that draws the new arc (one strand more than the graph's
    # edges) is non-regular, so the main search gives up
    attempts = []
    real_pass = projection.crossing_pass

    def never_regular_with_the_arc(layout, direction):
        if _strand_count(layout) > 15:
            attempts.append(direction)
            raise NonRegularProjection("forced")
        return real_pass(layout, direction)

    monkeypatch.setattr(projection, "crossing_pass", never_regular_with_the_arc)
    with pytest.raises(RetryLimitExceeded, match=f"in {DIRECTION_ATTEMPTS} attempts"):
        edge_swap_check(complete_graph(6), trials=1, seed=0)
    assert len(attempts) == len(set(attempts)) == DIRECTION_ATTEMPTS
    capsys.readouterr()
    code = cli.main(["reroute-check", "K6", "--trials", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: no regular projection direction found" in err
    assert "Traceback" not in err
