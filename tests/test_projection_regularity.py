"""Each degeneracy class a projection can hit, crafted explicitly.

All configurations are valid embeddings (disjoint in space) whose images
along z collapse in one specific way, so each test pins down one branch
of the regularity checker.  The last two tests draw seeded embeddings
instead, to check that the segment pair tests keep every vertex that
ends a segment off the other segments and off the other vertices.
"""

import random
from itertools import combinations, count, islice

import pytest

import linkless.omega as omega
import linkless.projection as projection
from linkless.embedding import (
    EmbeddingError,
    RetryLimitExceeded,
    SpatialEmbedding,
    _check_edge,
    _segments,
    reroute_edge,
    straight_line_embedding,
)
from linkless.geometry import GeometryError
from linkless.multigraph import graph_from_pairs
from linkless.omega import DIRECTION_ATTEMPTS, direction_stream, loop_pair_link, regular_projection
from linkless.projection import NonRegularProjection, project, project_reroute, strand_crossings
from oracles import crossing_oracle, decode, vertex_image_faults

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
    # vertex 3 ends edge 3-4, so the image of 3-4 touches that of 1-2
    # without crossing it
    expect_nonregular(emb, (0, 0, 1), "tangential")


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

    def refuse(layout, direction):
        tried.append(direction)
        raise NonRegularProjection("forced")

    monkeypatch.setattr(projection, "crossing_pass", refuse)
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
        regular_projection(emb, seed=0, avoid=[(0, 0, -2)])
    assert never_regular == [(i, 1, 0) for i in range(1, 65)]


def test_a_zero_direction_to_avoid_is_refused():
    # every direction is parallel to the zero vector, so the search could
    # never yield one; it refuses the vector as `project` does
    emb = straight_line_embedding(ONE_EDGE, {1: (0, 0, 0), 2: (1, 2, 3)})
    with pytest.raises(GeometryError, match="projection direction must be nonzero"):
        regular_projection(emb, avoid=[(0, 0, 1), (0, 0, 0)])
    with pytest.raises(GeometryError, match="projection direction must be nonzero"):
        project(emb, (0, 0, 0))


# axis directions and small integer ones
SMALL_DIRECTIONS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0), (0, 1, -1),
                    (1, 1, 1), (1, -2, 1), (2, 1, -1), (1, 2, 3), (-3, 1, 2)]


_CUBE = [(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-2, 3)]


def _small_embeddings(rng, count):
    """`count` valid embeddings on points of [-2, 2]^3: 4-6 vertices with
    edges, up to two isolated vertices, up to two waypoints per edge."""
    made = []
    while len(made) < count:
        n, isolated = rng.randint(4, 6), rng.randint(0, 2)
        pairs = list(combinations(range(1, n + 1), 2))
        pairs = rng.sample(pairs, rng.randint(3, min(8, len(pairs))))
        g = graph_from_pairs(pairs, vertices=range(1, n + isolated + 1))
        points = dict(zip(sorted(g.vertices), rng.sample(_CUBE, g.n)))
        paths = {e.id: (points[e.u], *rng.choices(_CUBE, k=rng.randint(0, 2)), points[e.v])
                 for e in g.edges}
        try:
            made.append(SpatialEmbedding(g, points, paths))
        except EmbeddingError:
            continue
    return made


def _check_regular_picture(strands, vertices, direction, markers):
    """strand_crossings with only ``markers`` as markers is regular exactly
    when it is with every vertex as a marker; when it is, no vertex image
    lies on a segment it does not end or on another vertex image, and the
    records are the oracle's.  Returns whether it was regular."""
    try:
        records = strand_crossings(strands, direction, markers)
    except NonRegularProjection:
        with pytest.raises(NonRegularProjection):
            strand_crossings(strands, direction, vertices)
        return False
    assert strand_crossings(strands, direction, vertices) == records
    segments = [(key, i, a, b) for key, pts in strands
                for i, (a, b) in enumerate(zip(pts, pts[1:]))]
    assert vertex_image_faults([(a, b) for _, _, a, b in segments], vertices, direction) == []
    assert {decode(r) for r in records} == crossing_oracle(segments, direction)
    return True


def test_regular_projections_keep_every_vertex_image_apart():
    # project passes only the isolated vertices as markers
    regular = nonregular = 0
    for emb in _small_embeddings(random.Random(15), 150):
        strands = [(e.id, emb.edge_paths[e.id]) for e in sorted(emb.graph.edges)]
        vertices = [emb.vertex_points[v] for v in sorted(emb.graph.vertices)]
        markers = [emb.vertex_points[v] for v in emb.graph.isolated_vertices]
        for d in SMALL_DIRECTIONS:
            if _check_regular_picture(strands, vertices, d, markers):
                assert project(emb, d).crossings == strand_crossings(strands, d, markers)
                regular += 1
            else:
                with pytest.raises(NonRegularProjection):
                    project(emb, d)
                nonregular += 1
    assert regular > 300 and nonregular > 300


def test_detour_pictures_keep_every_vertex_image_apart():
    # the strand sets `project_reroute` draws: every edge and, as one more
    # strand, a detour arc, with the isolated vertices as markers
    rng = random.Random(16)
    regular = nonregular = 0
    for emb in _small_embeddings(rng, 150):
        g = emb.graph
        e = rng.choice(sorted(g.edges))
        arc = (emb.vertex_points[e.u], rng.choice(_CUBE), emb.vertex_points[e.v])
        try:
            _check_edge(g, emb.vertex_points, e, arc, [(e, _segments(emb.edge_paths[e.id]))])
            moved = reroute_edge(emb, e.id, arc)
        except EmbeddingError:
            continue
        strands = [(f.id, emb.edge_paths[f.id]) for f in g.edges] + [(max(emb.edge_paths) + 1, arc)]
        vertices = [emb.vertex_points[v] for v in sorted(g.vertices)]
        markers = [emb.vertex_points[v] for v in g.isolated_vertices]
        for d in SMALL_DIRECTIONS:
            if _check_regular_picture(strands, vertices, d, markers):
                assert project_reroute(emb, moved, e.id, d).crossings == \
                    strand_crossings(strands, d, markers)
                regular += 1
            else:
                with pytest.raises(NonRegularProjection):
                    project_reroute(emb, moved, e.id, d)
                nonregular += 1
    assert regular > 100 and nonregular > 100
