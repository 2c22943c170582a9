import contextlib
import io
import types

import pytest

from linkless import cli, experiments
from linkless.embedding import EmbeddingError, RetryLimitExceeded, SpatialEmbedding
from linkless.experiments import conway_gordon_experiment, edge_swap_check
from linkless.moves import petersen_family
from linkless.multigraph import complete_graph, k331_graph


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


def test_edge_swap_on_fixed_embedding():
    from linkless.embedding import random_embedding

    emb = random_embedding(complete_graph(6), 3)
    report = edge_swap_check(emb, trials=8, seed=0)
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

    monkeypatch.setattr(experiments, "reroute_edge", no_valid_midpoint)
    with pytest.raises(RetryLimitExceeded):
        edge_swap_check(complete_graph(6), trials=1, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "_check_paths_disjoint", no_valid_midpoint)
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


def test_edge_swap_rejects_midpoint_on_old_waypoint(monkeypatch):
    # the detour through an interior waypoint of the old path would make the
    # loop D = old path + detour pass through that point twice
    g = complete_graph(6)
    points = {1: (0, 0, 0), 2: (10, 0, 0), 3: (3, -20, 7), 4: (-9, 13, -11),
              5: (17, 4, 23), 6: (6, -8, -31)}
    paths = {e.id: (points[e.u], points[e.v]) for e in g.edges}
    paths[0] = ((0, 0, 0), (2, 5, 0), (5, 7, 1), (8, 5, 0), (10, 0, 0))
    emb = SpatialEmbedding(g, points, paths)
    coords = [5, 7, 1, 5, -3, 40]
    monkeypatch.setattr(experiments, "random",
                        types.SimpleNamespace(Random=lambda seed: _ScriptedRandom(coords)))
    report = edge_swap_check(emb, trials=1, seed=0)
    assert report.reroute_retries == 1
    assert report.passed
