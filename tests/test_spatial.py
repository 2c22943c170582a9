"""Projection, linking number, and omega tests.

The two-triangle "hopf" configuration below links once: the second
triangle sits in the x=0 plane and encloses exactly one of the two points
where the first triangle's boundary pierces that plane.  Expected values
are frozen from exact computation and double-checked against the numeric
Gauss integral oracle.
"""

import random
from fractions import Fraction

import pytest

from linkless.circuits import disjoint_circuit_pairs, enumerate_circuits
from linkless.embedding import (
    EmbeddingError,
    random_embedding,
    reroute_edge,
    straight_line_embedding,
)
from linkless.multigraph import (
    GraphError,
    complete_graph,
    graph_from_pairs,
    k331_graph,
    parse_graph,
)
from linkless.omega import (
    loop_pair_link,
    omega_graph,
    regular_projection,
)
from linkless.projection import (
    NonRegularProjection,
    linking_number,
    omega_pair,
    project,
)
from oracles import crossing_oracle, gauss_linking_number

TWO_TRIANGLES = graph_from_pairs(
    [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)], name="two-triangles")

HOPF_A = [(2, 0, 0), (-1, 2, 0), (-1, -2, 0)]
HOPF_B = [(0, 3, 0), (0, 1, 2), (0, 1, -2)]


def hopf_embedding():
    points = dict(zip((1, 2, 3), HOPF_A)) | dict(zip((4, 5, 6), HOPF_B))
    return straight_line_embedding(TWO_TRIANGLES, points)


def triangle_circuits(emb):
    tris = enumerate_circuits(emb.graph)
    j = next(c for c in tris if c.vertices == frozenset({1, 2, 3}))
    k = next(c for c in tris if c.vertices == frozenset({4, 5, 6}))
    return j, k


def test_hopf_pair_links_once():
    emb = hopf_embedding()
    j, k = triangle_circuits(emb)
    diagram = project(emb, (1, 2, 9))
    assert abs(linking_number(diagram, j, k)) == 1
    assert omega_pair(diagram, j, k) == 1
    # straight triangles cannot cross themselves, so every crossing is between j and k
    assert len(diagram.crossings) == 2


def test_hopf_pair_matches_gauss_oracle():
    exact = loop_pair_link(HOPF_A, HOPF_B, seed=0)[0]
    numeric = gauss_linking_number(HOPF_A, HOPF_B)
    assert abs(numeric - exact) < 1e-9
    assert abs(exact) == 1


def test_hopf_z_projection_is_non_regular():
    # one edge of the second triangle runs along the projection direction
    emb = hopf_embedding()
    with pytest.raises(NonRegularProjection):
        project(emb, (0, 0, 1))


def test_intersecting_triangles_rejected_as_embedding():
    # these two triangles actually touch in space (each surrounds the
    # origin in perpendicular planes), so they do not form an embedding
    bad_b = [(0, 0, 2), (0, 2, -1), (0, -2, -1)]
    points = dict(zip((1, 2, 3), HOPF_A)) | dict(zip((4, 5, 6), bad_b))
    with pytest.raises(EmbeddingError):
        straight_line_embedding(TWO_TRIANGLES, points)


def test_lk_symmetric():
    emb = hopf_embedding()
    j, k = triangle_circuits(emb)
    d = project(emb, (1, 2, 9))
    assert linking_number(d, j, k) == linking_number(d, k, j)


def test_split_pair_has_no_crossings():
    a = [(0, 0, 0), (12, 0, 0), (6, 12, 0)]
    b = [(100, 0, 15), (104, 0, 15), (102, 3, 15)]
    emb = straight_line_embedding(
        TWO_TRIANGLES, dict(zip((1, 2, 3), a)) | dict(zip((4, 5, 6), b)))
    d = project(emb, (0, 0, 1))
    assert len(d.crossings) == 0
    j, k = triangle_circuits(emb)
    assert linking_number(d, j, k) == 0
    report = omega_graph(emb, seed=0)
    assert report.total == 0


def test_stacked_overlapping_triangles_have_six_crossings():
    # star-of-david shadows: every edge of one triangle crosses two of the other
    a = [(0, 0, 0), (12, 0, 0), (6, 12, 0)]
    b = [(12, 8, 15), (0, 8, 15), (6, -4, 15)]
    emb = straight_line_embedding(
        TWO_TRIANGLES, dict(zip((1, 2, 3), a)) | dict(zip((4, 5, 6), b)))
    d = project(emb, (0, 0, 1))
    assert len(d.crossings) == 6
    j, k = triangle_circuits(emb)
    assert linking_number(d, j, k) == 0  # stacked, not linked


def test_crossings_carry_over_under_and_sign():
    emb = hopf_embedding()
    d = project(emb, (1, 2, 9))
    for c in d.crossings:
        assert c.over in (0, 1)
        assert c.sign in (-1, 1)
        assert 0 < c.first.t < 1
        assert 0 < c.second.t < 1


def test_linking_number_rejects_overlapping_circuits():
    g = complete_graph(6)
    emb = random_embedding(g, 0)
    circuits = enumerate_circuits(g)
    tri = next(c for c in circuits if c.vertices == frozenset({1, 2, 3}))
    other = next(c for c in circuits if c.vertices == frozenset({1, 2, 4}))
    d = regular_projection(emb, seed=0)
    with pytest.raises(GraphError):
        linking_number(d, tri, other)
    with pytest.raises(GraphError):
        omega_pair(d, tri, other)


def test_lk_independent_of_rational_rotation():
    # (0,0,1) rotated by the 3-4-5 rotation about the x-axis gives (0,-4,3);
    # crossing counts differ (9 vs 12 here) but every per-pair lk agrees
    emb = random_embedding(complete_graph(6), 0)
    pairs = disjoint_circuit_pairs(complete_graph(6))
    da = project(emb, (0, 0, 1))
    db = project(emb, (0, -4, 3))
    assert len(da.crossings) != len(db.crossings)
    for j, k in pairs:
        assert linking_number(da, j, k) == linking_number(db, j, k)


def test_exact_lk_matches_gauss_on_random_triangle_pairs():
    rng = random.Random(12)
    done = 0
    while done < 25:
        points = {
            v: (rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
            for v in range(1, 7)
        }
        try:
            emb = straight_line_embedding(TWO_TRIANGLES, points)
        except EmbeddingError:
            continue
        j, k = triangle_circuits(emb)
        d = regular_projection(emb, seed=done)
        exact = linking_number(d, j, k)
        numeric = gauss_linking_number(
            [points[1], points[2], points[3]], [points[4], points[5], points[6]])
        # the loops may be oriented oppositely to the circuits, so compare
        # absolute values and parity-correct signs via a second orientation
        assert abs(numeric - exact) < 1e-6 or abs(numeric + exact) < 1e-6
        assert round(abs(numeric)) == abs(exact)
        done += 1


def test_omega_graph_k6_always_one():
    g = complete_graph(6)
    for seed in range(8):
        emb = random_embedding(g, seed)
        report = omega_graph(emb, seed=seed)
        assert report.total == 1
        assert report.odd_pair_count % 2 == 1
        assert len(report.pairs) == 10


def test_omega_graph_k331_always_one():
    g = k331_graph()
    for seed in range(6):
        emb = random_embedding(g, seed)
        report = omega_graph(emb, seed=seed)
        assert report.total == 1
        assert len(report.pairs) == 9


def test_omega_graph_k5_trivially_zero():
    emb = random_embedding(complete_graph(5), 0)
    report = omega_graph(emb, seed=0)
    assert report.total == 0
    assert report.pairs == ()


def test_omega_pair_symmetric_on_random_k6():
    g = complete_graph(6)
    pairs = disjoint_circuit_pairs(g)
    for seed in range(100):
        emb = random_embedding(g, seed)
        d = regular_projection(emb, seed=seed)
        for j, k in pairs:
            assert omega_pair(d, j, k) == omega_pair(d, k, j)


def test_omega_reports_are_reproducible():
    emb = random_embedding(complete_graph(6), 77)
    a = omega_graph(emb, seed=5).to_json_dict()
    b = omega_graph(emb, seed=5).to_json_dict()
    assert a == b


def test_omega_total_is_parity_of_pair_bits():
    for seed in range(5):
        emb = random_embedding(k331_graph(), seed)
        report = omega_graph(emb, seed=seed)
        assert report.total == sum(p.omega for p in report.pairs) % 2
        assert all(p.omega == p.lk % 2 for p in report.pairs)
        assert report.total in (0, 1)


def test_omega_respects_explicit_direction():
    emb = random_embedding(complete_graph(6), 0)
    report = omega_graph(emb, direction=(0, 0, 1), seed=0)
    assert report.total == 1
    assert report.to_json_dict()["direction"] == ["0", "0", "1"]


def test_k6_minus_edge_omega_depends_on_embedding():
    # a single random K6 embedding (seed 1) has exactly one odd pair,
    # the triangles (1,4,6) and (2,3,5); deleting edge 1-4 kills it,
    # deleting 1-2 keeps it
    g = complete_graph(6)
    emb = random_embedding(g, 1)
    report = omega_graph(emb, seed=1)
    odd = [(p.j.vertex_seq, p.k.vertex_seq) for p in report.pairs if p.omega == 1]
    assert odd == [((1, 4, 6), (2, 3, 5))]

    inside = g.edges_between(1, 4)[0].id
    outside = g.edges_between(1, 2)[0].id
    unlinked = straight_line_embedding(g.delete_edge(inside), emb.vertex_points)
    linked = straight_line_embedding(g.delete_edge(outside), emb.vertex_points)
    assert omega_graph(unlinked, seed=5).total == 0
    assert omega_graph(linked, seed=5).total == 1


def test_loop_pair_helpers_agree_with_diagram():
    emb = hopf_embedding()
    j, k = triangle_circuits(emb)
    d = project(emb, (1, 2, 9))
    # lk does not depend on the projection, so the loop pair may be read
    # along another direction than the diagram's
    lk_loop, om_loop = loop_pair_link(emb.circuit_loop(j), emb.circuit_loop(k), seed=0)
    assert abs(lk_loop) == abs(linking_number(d, j, k))
    assert om_loop == omega_pair(d, j, k)


def test_reroute_preserves_omega_k6_sample():
    g = complete_graph(6)
    emb = random_embedding(g, 4)
    before = omega_graph(emb, seed=4)
    rerouted = reroute_edge(emb, 0, (
        emb.path(0)[0],
        (650000, 720000, -400000),
        emb.path(0)[-1],
    ))
    after = omega_graph(rerouted, seed=4)
    assert before.total == after.total == 1


def scanned_lk(diagram, j, k):
    """(lk, omega) of J over K by a direct scan of the crossing list."""
    def signs(c):
        out = {}
        for i, eid in enumerate(c.edge_ids):
            u, _ = diagram.edge_endpoints[eid]
            out[eid] = 1 if c.vertex_seq[i] == u else -1
        return out

    sig_j, sig_k = signs(j), signs(k)
    lk = count = 0
    for c in diagram.crossings:
        if c.over_strand in sig_j and c.under_strand in sig_k:
            lk += c.sign * sig_j[c.over_strand] * sig_k[c.under_strand]
            count += 1
    return lk, count & 1


def variants(emb, seed):
    """The embedding, a copy with bent edges, and a rational rescaling.

    Bent edges can cross one edge several times, and rational points
    exercise denominator clearing.
    """
    rng = random.Random(seed)
    bent = emb
    for eid in sorted(emb.edge_paths):
        a, b = emb.path(eid)
        mid = tuple(Fraction(x + y, 2) + rng.randint(-400000, 400000) for x, y in zip(a, b))
        try:
            bent = reroute_edge(bent, eid, (a, mid, b))
        except EmbeddingError:
            pass
    scaled = straight_line_embedding(
        emb.graph, {v: tuple(c * Fraction(3, 7) for c in p) for v, p in emb.vertex_points.items()})
    return [emb, bent, scaled]


@pytest.mark.parametrize("name,seeds", [("K6", range(4)), ("K3,3,1", range(4)), ("K7", range(2))])
def test_crossing_matrix_matches_crossing_scan(name, seeds):
    g = parse_graph(name)
    pairs = disjoint_circuit_pairs(g)
    for seed in seeds:
        for emb in variants(random_embedding(g, seed), seed):
            for diagram in (regular_projection(emb, seed=seed),
                            regular_projection(emb, seed=seed + 1)):
                for j, k in pairs:
                    for a, b in ((j, k), (k, j)):
                        lk, om = scanned_lk(diagram, a, b)
                        assert linking_number(diagram, a, b) == lk
                        assert omega_pair(diagram, a, b) == om


def test_rational_scaling_keeps_crossings_and_lk():
    # integer and rational coordinates, integer and rational directions:
    # the kernel clears denominators, which must not move any crossing
    g = complete_graph(6)
    pairs = disjoint_circuit_pairs(g)
    direction = (3, -2, 7)
    rational_direction = (Fraction(3, 4), Fraction(-1, 2), Fraction(7, 4))
    for seed in range(4):
        emb = random_embedding(g, seed)
        for factor in (Fraction(2, 3), Fraction(7, 5)):
            scaled = straight_line_embedding(
                g, {v: tuple(c * factor for c in p) for v, p in emb.vertex_points.items()})
            da = project(emb, direction)
            db = project(scaled, rational_direction)
            assert len(da.crossings) > 0
            for ca, cb in zip(da.crossings, db.crossings, strict=True):
                assert (ca.first.strand, ca.first.segment, ca.second.strand,
                        ca.second.segment, ca.over, ca.sign) == \
                    (cb.first.strand, cb.first.segment, cb.second.strand,
                     cb.second.segment, cb.over, cb.sign)
                assert (ca.first.t, ca.second.t) == (cb.first.t, cb.second.t)
                # the frame of d/4 is (u/4, v/16), and points scale by factor
                assert cb.point == (ca.point[0] * factor / 4, ca.point[1] * factor / 16)
            for j, k in pairs:
                assert linking_number(da, j, k) == linking_number(db, j, k)
                assert omega_pair(da, j, k) == omega_pair(db, j, k)


@pytest.mark.parametrize("name", ["K6", "K3,3,1", "K7"])
def test_crossings_match_fraction_oracle(name):
    g = parse_graph(name)
    for seed in range(3):
        for emb in variants(random_embedding(g, seed), seed):
            diagram = regular_projection(emb, seed=seed)
            segments = [(eid, i, p, q) for eid, path in sorted(emb.edge_paths.items())
                        for i, (p, q) in enumerate(zip(path, path[1:]))]
            ours = {(c.first.strand, c.first.segment, c.first.t,
                     c.second.strand, c.second.segment, c.second.t, c.over, c.sign)
                    for c in diagram.crossings}
            assert len(ours) == len(diagram.crossings)
            assert ours == crossing_oracle(segments, diagram.direction)
