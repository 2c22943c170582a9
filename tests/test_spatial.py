"""Projection, linking number, and omega tests.

The two-triangle "hopf" configuration below links once: the second
triangle sits in the x=0 plane and encloses exactly one of the two points
where the first triangle's boundary pierces that plane.  Expected values
are frozen from exact computation and double-checked against the numeric
Gauss integral oracle.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkless.circuits import Circuit, disjoint_circuit_pairs, enumerate_circuits
from linkless.embedding import (
    EmbeddingError,
    RetryLimitExceeded,
    random_detour,
    random_embedding,
    reroute_edge,
    straight_line_embedding,
)
from linkless.geometry import GeometryError, cross3, is_zero3, segments3_intersect, sub3
from linkless.multigraph import (
    GraphError,
    complete_graph,
    graph_from_pairs,
    k331_graph,
    parse_graph,
)
from linkless.omega import (
    graph_pairs,
    loop_pair_link,
    omega_graph,
    regular_projection,
    reroute_table,
)
from linkless.projection import (
    NonRegularProjection,
    ProjectedDiagram,
    _clear_denominators,
    _traversal_signs,
    crossing_pass,
    edge_endpoints,
    embedding_layout,
    link_tables,
    linking_number,
    omega_pair,
    pair_index,
    project,
    strand_layout,
)
from oracles import (
    circuit_polyline,
    crossing_oracle,
    decode,
    gauss_linking_number,
    link_tables_reference,
    pair_index_reference,
    scanned_lk,
)

TWO_TRIANGLES = graph_from_pairs(
    [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)], name="two-triangles")

HOPF_A = [(2, 0, 0), (-1, 2, 0), (-1, -2, 0)]
HOPF_B = [(0, 3, 0), (0, 1, 2), (0, 1, -2)]


def hopf_embedding():
    points = dict(zip((1, 2, 3), HOPF_A)) | dict(zip((4, 5, 6), HOPF_B))
    return straight_line_embedding(TWO_TRIANGLES, points)


def triangle_circuits(emb):
    tris = enumerate_circuits(emb.graph)
    j = next(c for c in tris if set(c.vertex_seq) == {1, 2, 3})
    k = next(c for c in tris if set(c.vertex_seq) == {4, 5, 6})
    return j, k


def test_hopf_pair_links_once():
    emb = hopf_embedding()
    j, k = triangle_circuits(emb)
    diagram = project(embedding_layout(emb), (1, 2, 9))
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
        project(embedding_layout(emb), (0, 0, 1))


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
    d = project(embedding_layout(emb), (1, 2, 9))
    assert linking_number(d, j, k) == linking_number(d, k, j)


def test_split_pair_has_no_crossings():
    a = [(0, 0, 0), (12, 0, 0), (6, 12, 0)]
    b = [(100, 0, 15), (104, 0, 15), (102, 3, 15)]
    emb = straight_line_embedding(
        TWO_TRIANGLES, dict(zip((1, 2, 3), a)) | dict(zip((4, 5, 6), b)))
    d = project(embedding_layout(emb), (0, 0, 1))
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
    d = project(embedding_layout(emb), (0, 0, 1))
    assert len(d.crossings) == 6
    j, k = triangle_circuits(emb)
    assert linking_number(d, j, k) == 0  # stacked, not linked


def test_crossings_carry_over_under_and_sign():
    emb = hopf_embedding()
    d = project(embedding_layout(emb), (1, 2, 9))
    for record in d.crossings:
        assert len(record) == 10 and all(type(x) is int for x in record)
        _, _, t_s, _, _, t_t, over, sign = decode(record)
        assert over in (0, 1)
        assert sign in (-1, 1)
        assert 0 < t_s < 1
        assert 0 < t_t < 1


def test_linking_number_rejects_overlapping_circuits():
    g = complete_graph(6)
    emb = random_embedding(g, 0)
    circuits = enumerate_circuits(g)
    tri = next(c for c in circuits if set(c.vertex_seq) == {1, 2, 3})
    other = next(c for c in circuits if set(c.vertex_seq) == {1, 2, 4})
    d = regular_projection(embedding_layout(emb), seed=0)
    with pytest.raises(GraphError):
        linking_number(d, tri, other)
    with pytest.raises(GraphError):
        omega_pair(d, tri, other)


def test_circuit_edges_missing_from_the_diagram_are_named():
    from linkless.circuits import Circuit

    d = regular_projection(embedding_layout(random_embedding(complete_graph(6), 0)), seed=0)
    j = Circuit((1, 2, 3), (1, 98, 99))  # edges 98 and 99 are not in K6
    k = Circuit((4, 5, 6), (97, 13, 12))
    for kernel in (linking_number, omega_pair):
        with pytest.raises(GraphError, match="^circuit edge 98 is not in the diagram$"):
            kernel(d, j, k)
        with pytest.raises(GraphError, match="^circuit edge 97 is not in the diagram$"):
            kernel(d, k, j)


def test_lk_independent_of_rational_rotation():
    # (0,0,1) rotated by the 3-4-5 rotation about the x-axis gives (0,-4,3);
    # crossing counts differ (9 vs 12 here) but every per-pair lk agrees
    emb = random_embedding(complete_graph(6), 0)
    pairs = disjoint_circuit_pairs(complete_graph(6))
    layout = embedding_layout(emb)
    da = project(layout, (0, 0, 1))
    db = project(layout, (0, -4, 3))
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
        d = regular_projection(embedding_layout(emb), seed=done)
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
        d = regular_projection(embedding_layout(emb), seed=seed)
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
        assert report.total == sum(lk % 2 for lk in report.links) % 2
        rows = report.to_json_dict()["pairs"]
        assert len(rows) == len(report.pairs) == len(report.links)
        assert all(row["omega"] == row["lk"] % 2 for row in rows)
        assert report.total in (0, 1)


def test_omega_respects_explicit_direction():
    emb = random_embedding(complete_graph(6), 0)
    report = omega_graph(emb, direction=(0, 0, 1), seed=0)
    assert report.total == 1
    assert report.to_json_dict()["direction"] == ["0", "0", "1"]


@pytest.mark.parametrize("direction", [(0.5, 0, 1), (True, 0, 1), ("1", 0, 1), (0, 1)],
                         ids=["float", "bool", "str", "two components"])
def test_inexact_direction_components_are_rejected(direction):
    emb = random_embedding(complete_graph(6), 0)
    with pytest.raises(GeometryError, match="a direction needs three ints or Fractions"):
        omega_graph(emb, direction=direction)


@pytest.mark.parametrize("avoided", [(True, 0, 0), (0.5, 0, 1), (1e20, 0, 1), ("1", 0, 1), (0, 1)],
                         ids=["bool", "float", "large float", "str", "two components"])
def test_inexact_directions_to_avoid_are_rejected(avoided):
    emb = random_embedding(complete_graph(6), 0)
    with pytest.raises(GeometryError, match="a direction needs three ints or Fractions"):
        regular_projection(embedding_layout(emb), avoid=[(0, 0, 1), avoided])


@pytest.mark.parametrize("bad", [2.0, True], ids=["float", "bool"])
def test_inexact_strand_points_are_rejected(bad):
    # the kernel's one check of strand points, as `omega.loop_pair_link`
    # hands its loops over unchecked
    loop = [(bad, 0, 0), (-1, 2, 0), (-1, -2, 0)]
    ring = [(0, 0, -1), (0, 3, 1), (0, -3, 1)]
    with pytest.raises(GeometryError, match="coordinates must be ints or Fractions"):
        loop_pair_link(loop, ring)
    with pytest.raises(GeometryError, match="coordinates must be ints or Fractions"):
        crossing_pass(strand_layout([(0, ring), (1, [(Fraction(1, 2), 0, 0), *loop])], {}),
                      (0, 0, 1))


def test_k6_minus_edge_omega_depends_on_embedding():
    # a single random K6 embedding (seed 1) has exactly one odd pair,
    # the triangles (1,4,6) and (2,3,5); deleting edge 1-4 kills it,
    # deleting 1-2 keeps it
    g = complete_graph(6)
    emb = random_embedding(g, 1)
    report = omega_graph(emb, seed=1)
    odd = [(j.vertex_seq, k.vertex_seq)
           for (j, k), lk in zip(report.pairs, report.links) if lk % 2 == 1]
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
    d = project(embedding_layout(emb), (1, 2, 9))
    # lk does not depend on the projection, so the loop pair may be read
    # along another direction than the diagram's
    lk_loop, om_loop = loop_pair_link(circuit_polyline(emb, j), circuit_polyline(emb, k), seed=0)
    assert abs(lk_loop) == abs(linking_number(d, j, k))
    assert om_loop == omega_pair(d, j, k)


def test_reroute_preserves_omega_k6_sample():
    g = complete_graph(6)
    emb = random_embedding(g, 4)
    before = omega_graph(emb, seed=4)
    rerouted = reroute_edge(emb, 0, (
        emb.edge_paths[0][0],
        (650000, 720000, -400000),
        emb.edge_paths[0][-1],
    ))
    after = omega_graph(rerouted, seed=4)
    assert before.total == after.total == 1


def variants(emb, seed):
    """The embedding, a copy with bent edges, and a rational rescaling.

    Bent edges can cross one edge several times, and rational points
    exercise denominator clearing.
    """
    rng = random.Random(seed)
    bent = emb
    for eid in sorted(emb.edge_paths):
        a, b = emb.edge_paths[eid]
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
    # every pair in both orders, through the table pass and its one-pair calls
    g = parse_graph(name)
    pairs = disjoint_circuit_pairs(g)
    pairs += [(k, j) for j, k in pairs]
    index = pair_index(edge_endpoints(g), pairs)
    for seed in seeds:
        for emb in variants(random_embedding(g, seed), seed):
            layout = embedding_layout(emb)
            diagrams = [regular_projection(layout, seed=seed),
                        regular_projection(layout, seed=seed + 1)]
            for diagram, table in zip(diagrams, link_tables(diagrams, index), strict=True):
                for (j, k), lk in zip(pairs, table, strict=True):
                    assert (lk, lk & 1) == scanned_lk(diagram, j, k)
                    assert (linking_number(diagram, j, k), omega_pair(diagram, j, k)) \
                        == (lk, lk & 1)


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
            da = project(embedding_layout(emb), direction)
            db = project(embedding_layout(scaled), rational_direction)
            assert len(da.crossings) > 0
            # strands, segments, parameters, over/under and signs, in order
            assert [decode(r) for r in da.crossings] == [decode(r) for r in db.crossings]
            for j, k in pairs:
                assert linking_number(da, j, k) == linking_number(db, j, k)
                assert omega_pair(da, j, k) == omega_pair(db, j, k)


@pytest.mark.parametrize("name", ["K6", "K3,3,1", "K7"])
def test_crossings_match_fraction_oracle(name):
    g = parse_graph(name)
    for seed in range(3):
        for emb in variants(random_embedding(g, seed), seed):
            diagram = regular_projection(embedding_layout(emb), seed=seed)
            segments = [(eid, i, p, q) for eid, path in sorted(emb.edge_paths.items())
                        for i, (p, q) in enumerate(zip(path, path[1:]))]
            ours = {decode(r) for r in diagram.crossings}
            assert len(ours) == len(diagram.crossings)
            assert ours == crossing_oracle(segments, diagram.direction)


@st.composite
def _small_embeddings(draw, min_vertices=5, min_edges=6):
    """A random straight embedding of a graph on ``min_vertices``-8
    vertices and ``min_edges``-20 edges, with some edges bent through a
    rational waypoint (bends that would meet another edge are skipped)."""
    n = draw(st.integers(min_vertices, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          min_size=min_edges, max_size=20, unique=True))
    g = graph_from_pairs(pairs)
    emb = random_embedding(g, draw(st.integers(0, 10**6)))
    for eid in draw(st.lists(st.sampled_from(sorted(emb.edge_paths)), max_size=6, unique=True)):
        a, b = emb.edge_paths[eid]
        offset = draw(st.tuples(*[st.integers(-400000, 400000)] * 3))
        den = draw(st.integers(1, 7))
        mid = tuple(Fraction(x + y, 2) + Fraction(o, den) for x, y, o in zip(a, b, offset))
        try:
            emb = reroute_edge(emb, eid, (a, mid, b))
        except EmbeddingError:
            pass
    return emb, draw(st.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(_small_embeddings())
def test_one_pass_table_matches_per_pair_calls(case):
    emb, seed = case
    pairs = disjoint_circuit_pairs(emb.graph)
    # also in any order and orientation: rows are kept per circuit
    rng = random.Random(seed)
    pairs += rng.sample([(k, j) if rng.random() < 0.5 else (j, k) for j, k in pairs],
                        len(pairs))
    layout = embedding_layout(emb)
    diagram = regular_projection(layout, seed=seed)
    check = regular_projection(layout, seed=seed + 1, avoid=[diagram.direction])
    index = pair_index(edge_endpoints(emb.graph), pairs)
    tables = link_tables([diagram, check], index)
    assert tables[0] == link_tables([diagram], index)[0]
    for d, table in zip((diagram, check), tables, strict=True):
        assert len(table) == len(pairs)
        for (j, k), lk in zip(pairs, table):
            # the oracle counts its parity apart from the signed sum
            assert (lk, lk & 1) == (linking_number(d, j, k), omega_pair(d, j, k)) \
                == scanned_lk(d, j, k)
    # lk is a topological invariant: the two projections agree
    assert tables[0] == tables[1]


@settings(max_examples=60, deadline=None)
@given(_small_embeddings(min_vertices=6, min_edges=12))
def test_the_table_pass_matches_the_reference(case):
    # on the graph's pairs, and on the three parts of a reroute table of a
    # random edge: the graph's pairs, those through the edge with the
    # moved circuit, and the loop pairs (D, K), drawn in one diagram
    emb, seed = case
    index = graph_pairs(emb.graph)
    layout = embedding_layout(emb)
    diagrams = [regular_projection(layout, seed=seed),
                regular_projection(layout, seed=seed + 1)]
    assert link_tables(diagrams, index) == link_tables_reference(diagrams, index)

    # an edge of some pair's circuit, if the graph has pairs
    edges = sorted({e for pair in index.pairs for c in pair for e in c.edge_ids})
    rng = random.Random(seed)
    eid = rng.choice(edges or [e.id for e in emb.graph.edges])
    try:
        path = random_detour(emb, eid, rng)[1].edge_paths[eid]
        layout = embedding_layout(emb, (eid, path))
        diagrams = [regular_projection(layout, seed=seed),
                    regular_projection(layout, seed=seed + 1)]
    except RetryLimitExceeded:
        return
    table = reroute_table(index, eid)
    through = len(table.positions)
    assert len(table.index.pairs) == len(index.pairs) + 2 * through
    assert table.index.pairs[:len(index.pairs)] == index.pairs
    tables = link_tables(diagrams, table.index)
    assert tables == link_tables_reference(diagrams, table.index)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("graph", [complete_graph(6), k331_graph(), complete_graph(7)],
                         ids=["K6", "K3,3,1", "K7"])
def test_pair_index_holds_each_circuits_traversal_signs(graph):
    endpoints = edge_endpoints(graph)
    pairs = disjoint_circuit_pairs(graph)
    index = pair_index(endpoints, pairs)
    assert index.pairs == tuple(pairs) and index.endpoints is endpoints
    assert len(index.slots) == len(pairs)
    assert len(index.signs) == len({id(c) for pair in pairs for c in pair})
    for (j, k), (at_j, at_k) in zip(pairs, index.slots, strict=True):
        assert list(index.signs[at_j]) == _traversal_signs(endpoints, j)
        assert list(index.signs[at_k]) == _traversal_signs(endpoints, k)


@st.composite
def _scattered_multigraphs(draw):
    # loops, parallel edges, isolated vertices, scattered and negative ids
    ids = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))
    vertex = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    copies = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return graph_from_pairs(draw(st.permutations(pairs + copies)), vertices=ids)


@settings(max_examples=300, deadline=None)
@given(_scattered_multigraphs())
def test_pair_index_matches_the_reference_on_multigraphs(g):
    endpoints = edge_endpoints(g)
    pairs = disjoint_circuit_pairs(g)
    index = pair_index(endpoints, pairs)
    assert index == pair_index_reference(endpoints, pairs)
    assert index.endpoints is endpoints


def _reversed(c):
    # the same cycle walked the other way from the same first vertex
    n = len(c.vertex_seq)
    return Circuit(c.vertex_seq[:1] + c.vertex_seq[:0:-1],
                   tuple(c.edge_ids[i] for i in range(n - 1, -1, -1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([complete_graph(6), k331_graph(), complete_graph(7)]), st.randoms())
def test_pair_index_matches_the_reference_on_shuffled_copies(g, rng):
    # equal but distinct circuits get slots of their own, as in the reference
    def variant(c):
        roll = rng.random()
        if roll < 0.3:
            return Circuit(c.vertex_seq, c.edge_ids)
        return _reversed(c) if roll < 0.5 else c
    pairs = [(variant(j), variant(k)) for j, k in disjoint_circuit_pairs(g)]
    pairs = [(k, j) if rng.random() < 0.5 else (j, k) for j, k in pairs]
    rng.shuffle(pairs)
    endpoints = edge_endpoints(g)
    index = pair_index(endpoints, pairs)
    assert index == pair_index_reference(endpoints, pairs)
    assert len(index.signs) == len({id(c) for pair in pairs for c in pair})


def test_reversing_a_circuit_flips_its_signs():
    g = complete_graph(6)
    j, k = disjoint_circuit_pairs(g)[0]
    signs = pair_index(edge_endpoints(g), [(j, k), (_reversed(j), k)]).signs
    assert sorted((e, -sign) for e, sign in signs[0]) == sorted(signs[2])


@pytest.mark.parametrize("seen", [True, False], ids=["circuits seen before", "new circuits"])
def test_an_overlapping_pair_last_raises(seen):
    g = complete_graph(7)
    pairs = disjoint_circuit_pairs(g)
    j = pairs[0][0]
    k = next(c for pair in pairs for c in pair
             if c is not j and set(c.vertex_seq) & set(j.vertex_seq))
    if not seen:
        j, k = Circuit(j.vertex_seq, j.edge_ids), Circuit(k.vertex_seq, k.edge_ids)
    for build in (pair_index, pair_index_reference):
        build(edge_endpoints(g), pairs)
        with pytest.raises(GraphError, match="share a vertex"):
            build(edge_endpoints(g), pairs + [(j, k)])


@pytest.mark.parametrize("graph", [complete_graph(6), k331_graph(), complete_graph(7)],
                         ids=["K6", "K3,3,1", "K7"])
def test_link_tables_read_the_same_with_the_index(graph):
    pairs = disjoint_circuit_pairs(graph)
    index = pair_index(edge_endpoints(graph), pairs)
    for seed in range(4):
        emb = random_embedding(graph, seed)
        layout = embedding_layout(emb)
        diagram = regular_projection(layout, seed=seed)
        check = regular_projection(layout, seed=seed + 1, avoid=[diagram.direction])
        tables = link_tables([diagram, check], index)
        assert tables == [link_tables([d], index)[0] for d in (diagram, check)]
        for d, table in zip((diagram, check), tables, strict=True):
            assert [(lk, lk & 1) for lk in table] == [scanned_lk(d, j, k) for j, k in pairs]


def test_clearing_denominators_keeps_integer_points_as_they_are():
    points = [(1, -2, 3), (10**12, 0, -7)]
    cleared = _clear_denominators(points)
    assert all(a is b for a, b in zip(cleared, points, strict=True))
    assert _clear_denominators([(Fraction(1, 2), 2, Fraction(-1, 3)), (1, 0, 0)]) == \
        [(3, 12, -2), (6, 0, 0)]
    assert _clear_denominators([(Fraction(4, 2), 1, 1)]) == [(2, 1, 1)]
    assert all(type(c) is int for c in _clear_denominators([(Fraction(4, 2), 1, 1)])[0])


@pytest.mark.parametrize("field, planted", [(9, lambda sign: 3 * sign), (9, lambda sign: 0),
                                           (8, lambda over: over + 2)],
                         ids=["sign x3", "sign 0", "over 2"])
def test_a_record_with_an_odd_sign_or_over_is_a_kernel_bug(field, planted):
    # A sign times 3 keeps each count's parity and scales every lk alike in
    # both projections, so neither the parity check nor the comparison of
    # the two tables could see it; the table pass rejects the record.
    emb = random_embedding(complete_graph(6), 0)
    layout = embedding_layout(emb)
    main = regular_projection(layout, seed=0)
    check = regular_projection(layout, seed=1, avoid=[main.direction])
    bad = [ProjectedDiagram(d.direction, d.edge_endpoints, tuple(
        r[:field] + (planted(r[field]),) + r[field + 1:] for r in d.crossings))
        for d in (main, check)]
    assert all(d.crossings for d in bad)
    index = pair_index(main.edge_endpoints, disjoint_circuit_pairs(emb.graph))
    with pytest.raises(AssertionError, match="crossing record with (sign|over)"):
        link_tables(bad, index)


def test_link_tables_reject_diagrams_of_different_graphs():
    a = project(embedding_layout(random_embedding(complete_graph(6), 1)), (3, -2, 7))
    b = project(embedding_layout(random_embedding(k331_graph(), 1)), (3, -2, 7))
    with pytest.raises(GraphError, match="different graphs"):
        link_tables([a, b], pair_index(a.edge_endpoints, []))


def _closed_segments(loop):
    return [(p, loop[(i + 1) % len(loop)]) for i, p in enumerate(loop)]


def _is_simple_loop(loop):
    """No two consecutive segments are collinear, and no two others meet."""
    segs = _closed_segments(loop)
    n = len(segs)
    for i, (p, q) in enumerate(segs):
        if is_zero3(cross3(sub3(q, p), sub3(segs[(i + 1) % n][1], q))):
            return False
        for j in range(i + 2, n - 1 if i == 0 else n):
            if segments3_intersect(p, q, *segs[j]):
                return False
    return True


_loop_points = st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=3, max_size=6,
                        unique=True)


@settings(max_examples=300, deadline=None)
@given(_loop_points, _loop_points, st.integers(0, 1000))
def test_loop_pair_link_matches_gauss_and_symmetries(loop_a, loop_b, seed):
    assume(_is_simple_loop(loop_a) and _is_simple_loop(loop_b))
    assume(not any(segments3_intersect(*s, *t)
                   for s in _closed_segments(loop_a) for t in _closed_segments(loop_b)))
    lk, parity = loop_pair_link(loop_a, loop_b, seed=seed)
    assert abs(gauss_linking_number(loop_a, loop_b) - lk) < 1e-6
    assert parity == lk % 2
    assert loop_pair_link(loop_b, loop_a, seed=seed) == (lk, parity)
    assert loop_pair_link(loop_a[::-1], loop_b, seed=seed) == (-lk, parity)
