"""Each degeneracy class a projection can hit, crafted explicitly.

All configurations are valid embeddings (disjoint in space) whose images
along z collapse in one specific way, so each test pins down one branch
of the regularity checker.
"""

from itertools import count, islice

import pytest

import linkless.omega as omega
from linkless.embedding import RetryLimitExceeded, SpatialEmbedding, straight_line_embedding
from linkless.multigraph import graph_from_pairs
from linkless.omega import DIRECTION_ATTEMPTS, direction_stream, loop_pair_link, regular_projection
from linkless.projection import NonRegularProjection, project

THREE_EDGES = graph_from_pairs([(1, 2), (3, 4), (5, 6)])
ONE_EDGE = graph_from_pairs([(1, 2)])


def expect_nonregular(emb, direction, needle):
    with pytest.raises(NonRegularProjection) as err:
        project(emb, direction)
    assert needle in str(err.value)


def test_end_on_segment():
    emb = straight_line_embedding(
        ONE_EDGE, {1: (0, 0, 0), 2: (0, 0, 5)})
    expect_nonregular(emb, (0, 0, 1), "end-on")


def test_triple_point():
    emb = straight_line_embedding(THREE_EDGES, {
        1: (-10, 0, 0), 2: (10, 0, 0),
        3: (0, -10, 1), 4: (0, 10, 1),
        5: (-10, -10, 2), 6: (10, 10, 2),
    })
    expect_nonregular(emb, (0, 0, 1), "triple point")


def test_vertex_over_edge():
    g = graph_from_pairs([(1, 2), (3, 4)])
    emb = straight_line_embedding(g, {
        1: (-10, 0, 0), 2: (10, 0, 0),
        3: (0, 0, 5), 4: (0, 10, 5),
    })
    expect_nonregular(emb, (0, 0, 1), "vertex projects onto")


def test_isolated_vertex_over_edge():
    g = graph_from_pairs([(1, 2)], vertices=[1, 2, 3])
    emb = straight_line_embedding(g, {
        1: (-10, 0, 0), 2: (10, 0, 0), 3: (0, 0, 9)})
    expect_nonregular(emb, (0, 0, 1), "vertex projects onto")


def test_two_vertices_project_together():
    g = graph_from_pairs([(1, 2)], vertices=[1, 2, 3, 4])
    emb = straight_line_embedding(g, {
        1: (-10, 0, 0), 2: (10, 0, 0), 3: (50, 50, 0), 4: (50, 50, 9)})
    expect_nonregular(emb, (0, 0, 1), "same point")


def test_waypoint_lands_on_foreign_edge():
    g = graph_from_pairs([(1, 2), (3, 4)])
    emb = SpatialEmbedding(
        g,
        {1: (-10, 0, 0), 2: (10, 0, 0), 3: (0, -10, 5), 4: (3, 10, 5)},
        {
            0: ((-10, 0, 0), (10, 0, 0)),
            1: ((0, -10, 5), (0, 0, 5), (3, 10, 5)),  # bend right above edge 0
        },
    )
    expect_nonregular(emb, (0, 0, 1), "tangential")


def test_collinear_overlapping_images():
    # overlap happens between waypoint-bounded middle segments, so the
    # vertex checks stay quiet and the collinear pair branch must fire
    g = graph_from_pairs([(1, 2), (3, 4)])
    emb = SpatialEmbedding(
        g,
        {1: (-20, -20, 0), 2: (20, -20, 0), 3: (20, 20, 7), 4: (0, 20, 7)},
        {
            0: ((-20, -20, 0), (-10, 0, 0), (10, 0, 0), (20, -20, 0)),
            1: ((20, 20, 7), (15, 0, 7), (5, 0, 7), (0, 20, 7)),
        },
    )
    expect_nonregular(emb, (0, 0, 1), "overlapping segments")


def test_shared_vertex_edges_overlap_in_projection():
    # both edges leave vertex 1 in image-collinear directions; the far
    # contact point is a waypoint, so only the shared-endpoint branch sees it
    g = graph_from_pairs([(1, 2), (1, 3)])
    emb = SpatialEmbedding(
        g,
        {1: (0, 0, 0), 2: (10, 0, 1), 3: (5, 20, 7)},
        {
            0: ((0, 0, 0), (10, 0, 1)),
            1: ((0, 0, 0), (5, 0, 7), (5, 20, 7)),
        },
    )
    expect_nonregular(emb, (0, 0, 1), "sharing an endpoint")


def test_regular_projection_recovers():
    # every configuration above has plenty of regular directions
    for points in [
        {1: (0, 0, 0), 2: (0, 0, 5)},
    ]:
        emb = straight_line_embedding(ONE_EDGE, points)
        diag = regular_projection(emb, seed=0)
        assert diag.crossings == ()


@pytest.fixture
def never_regular(monkeypatch):
    """Every projection is degenerate; returns the directions tried."""
    tried = []

    def refuse(subject, direction):
        tried.append(direction)
        raise NonRegularProjection("forced")

    monkeypatch.setattr(omega, "project", refuse)
    monkeypatch.setattr(omega, "strand_crossings", refuse)
    return tried


def test_direction_search_gives_up_after_the_attempt_cap(never_regular):
    assert DIRECTION_ATTEMPTS == 64
    emb = straight_line_embedding(ONE_EDGE, {1: (0, 0, 0), 2: (1, 2, 3)})
    with pytest.raises(RetryLimitExceeded, match="no regular projection direction found in 64"):
        regular_projection(emb, seed=3)
    assert never_regular == list(islice(direction_stream(3), 64))

    never_regular.clear()
    loop = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]
    with pytest.raises(RetryLimitExceeded, match="no regular projection for the loop pair in 64"):
        loop_pair_link(loop, [(x, y, z + 9) for x, y, z in loop], seed=5)
    assert never_regular == list(islice(direction_stream(5), 64))


def test_directions_parallel_to_avoid_are_not_attempts(never_regular, monkeypatch):
    def stream(seed):
        for i in count(1):
            yield (0, 0, i)
            yield (i, 1, 0)

    monkeypatch.setattr(omega, "direction_stream", stream)
    emb = straight_line_embedding(ONE_EDGE, {1: (0, 0, 0), 2: (1, 2, 3)})
    with pytest.raises(RetryLimitExceeded, match="in 64 attempts"):
        regular_projection(emb, seed=0, avoid=(0, 0, -2))
    assert never_regular == [(i, 1, 0) for i in range(1, 65)]
