"""The crossing kernel against its reference, the kernel as it was written
before it kept one orientation list per segment.

Strands are drawn as the edges of a complete graph, straight or through
a waypoint, or from a small pool of points in a small box, so that they
share ends and waypoints and their images often touch, run on one line
or coincide; markers are drawn from the pool or anywhere in the box.
Other draws plant three segments through one point of the image (a
triple point), two segments from one point along one image line, or two
crossings on a long segment whose parameters are distinct rationals with
one float value (a near-triple point).  Wherever the reference returns,
the kernel must return the same records.  Wherever the reference finds
the projection non-regular, so must the kernel; where the reference
finds strands meeting in space, the kernel may report a non-regularity
instead, since it catches coincident segments before any pair test.
The same holds for passes along two directions over one strand layout,
which must also leave the layout as it was.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkless.embedding import EmbeddingError
from linkless.projection import NonRegularProjection, crossing_pass, strand_layout
from oracles import strand_crossings_reference

DIRECTIONS = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, -2, 3), (2, 1, -1)]


def _crossings(strands, direction, markers=()):
    # one pass over a new layout, which the ends do not change
    return crossing_pass(strand_layout(strands, {}, markers), direction)


def _add(p, q, k=1):
    return tuple(a + k * b for a, b in zip(p, q))


@st.composite
def _pool_strands(draw, direction):
    """Strands over a pool of at most seven points, integer or rational."""
    coordinate = draw(st.sampled_from([
        st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))]))
    point = st.tuples(coordinate, coordinate, coordinate)
    pool = draw(st.lists(point, min_size=3, max_size=7, unique=True))
    chains = draw(st.lists(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True),
                           min_size=1, max_size=4))
    strands, drawn = [], set()
    for chain in chains:  # each segment once, but for the one planted below
        segments = {frozenset(ends) for ends in zip(chain, chain[1:])}
        if drawn.isdisjoint(segments):
            strands.append(chain)
            drawn |= segments
    if draw(st.sampled_from([False] * 5 + [True])):  # one segment drawn again, reversed
        strands.append(strands[0][:2][::-1])
    markers = draw(st.lists(st.sampled_from(pool) | point, max_size=2))
    return strands, markers


@st.composite
def _complete_graph(draw, direction):
    """The edges of a complete graph on four to six points, straight or
    through one waypoint each, as the embeddings the kernel draws."""
    coordinate = st.integers(-20, 20) | st.builds(Fraction, st.integers(-40, 40), st.just(3))
    point = st.tuples(coordinate, coordinate, coordinate)
    vertices = draw(st.lists(point, min_size=4, max_size=6, unique=True))
    return [[u, *draw(st.lists(point, max_size=1)), v]
            for i, u in enumerate(vertices) for v in vertices[i + 1:]], []


@st.composite
def _planted_triple(draw, direction):
    """Three segments whose images pass through the image of one point,
    at drawn depths along the direction, so some of them meet in space."""
    small = st.integers(-3, 3)
    centre = draw(st.tuples(small, small, small))
    strands = []
    for _ in range(3):
        a = draw(st.tuples(small, small, small))
        m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        h, h2 = draw(small), draw(small)
        strands.append([_add(_add(centre, a, m), direction, h),
                        _add(_add(centre, a, -n), direction, h2)])
    return strands, []


@st.composite
def _planted_shared_end(draw, direction):
    """Two segments from one point along one image line, on one side or on
    both, as two strands or as one strand through the point, and a marker
    that may lie on the first segment's image."""
    small = st.integers(-3, 3)
    p, a = draw(st.tuples(small, small, small)), draw(st.tuples(small, small, small))
    k = draw(st.sampled_from([-2, -1, Fraction(-1, 2), Fraction(1, 2), 2, 3]))
    q, r = _add(_add(p, a), direction, draw(small)), _add(_add(p, a, k), direction, draw(small))
    strands = [[q, p, r]] if draw(st.booleans()) else [[p, q], [p, r]]
    marker = _add(_add(p, a, Fraction(draw(st.integers(-1, 3)), 2)), direction, draw(small))
    return strands, draw(st.lists(st.just(marker), max_size=1))


@st.composite
def _near_triple(draw, direction):
    """A long segment crossed at parameters x/w and (x + 1)/w for w large
    enough that both have one float value, or at one parameter twice."""
    small = st.integers(-3, 3)
    base = draw(st.tuples(small, small, small))
    a = draw(st.tuples(small, small, small))
    w = 2 ** draw(st.integers(54, 70)) + draw(st.integers(0, 5))
    x = w // 2 + draw(st.integers(-3, 3))
    step = draw(st.sampled_from([0, 1]))
    strands = [[base, _add(base, a, w)]]
    for at, h in [(x, 1), (x + step, 2)]:
        foot, b = _add(base, a, at), draw(st.tuples(small, small, small))
        strands.append([_add(_add(foot, b), direction, h), _add(_add(foot, b, -1), direction, h)])
    return strands, []


@st.composite
def _inputs(draw):
    direction = draw(st.sampled_from(DIRECTIONS))
    kind = draw(st.sampled_from(
        [_pool_strands, _complete_graph, _planted_triple, _planted_shared_end, _near_triple]))
    strands, markers = draw(kind(direction))
    return [(key, path) for key, path in enumerate(strands)], direction, markers


def _outcome(strands, direction, markers, kernel):
    try:
        return kernel(strands, direction, markers)
    except (NonRegularProjection, EmbeddingError) as exc:
        return type(exc)


@settings(max_examples=1500, deadline=None)
@given(_inputs())
def test_the_kernel_matches_the_reference(drawn):
    expected = _outcome(*drawn, strand_crossings_reference)
    got = _outcome(*drawn, _crossings)
    if expected is EmbeddingError:
        assert got in (EmbeddingError, NonRegularProjection)
    else:
        assert got == expected


@st.composite
def _two_directions(draw):
    strands, direction, markers = draw(_inputs())
    return strands, markers, (direction, draw(st.sampled_from(DIRECTIONS)))


@settings(max_examples=1000, deadline=None)
@given(_two_directions())
def test_passes_on_one_layout_match_the_reference(drawn):
    # the first direction again after the second, so each pass follows the
    # other on the same layout; flat draws (shared-end overlaps, collinear
    # images) make the passes visit the pairs that share an end
    strands, markers, (first, second) = drawn
    layout = strand_layout(strands, {}, markers)
    kept = copy.deepcopy(layout)
    for direction in (first, second, first):
        expected = _outcome(strands, direction, markers, strand_crossings_reference)
        got = _outcome(strands, direction, markers, lambda *_: crossing_pass(layout, direction))
        if expected is EmbeddingError:
            assert got in (EmbeddingError, NonRegularProjection)
        else:
            assert got == expected
    assert layout == kept


def test_crossings_at_parameters_with_one_float_are_kept():
    # the long segment is crossed at 1/2 and at 1/2 + 2^-60: two
    # parameters with one float value; moved to 1/2, the second crossing
    # makes a triple point
    w = 2 ** 60
    strands = [(0, [(0, 0, 0), (w, 0, 0)]),
               (1, [(w // 2, -1, 1), (w // 2, 1, 1)]),
               (2, [(w // 2 + 1, -1, 2), (w // 2 + 1, 1, 2)])]
    records = _crossings(strands, (0, 0, 1))
    assert records == strand_crossings_reference(strands, (0, 0, 1))
    (_, _, n1, w1, *_), (_, _, n2, w2, *_) = records
    assert n1 / w1 == n2 / w2 and n1 * w2 != n2 * w1
    strands[2] = (2, [(w // 2 - 1, -1, 2), (w // 2 + 1, 1, 2)])
    with pytest.raises(NonRegularProjection, match="triple point"):
        _crossings(strands, (0, 0, 1))


def test_coincident_segments_with_no_other_point_on_their_line():
    strands = [(0, [(0, 0, 0), (4, 1, 0)]), (1, [(4, 1, 0), (0, 0, 0)])]
    with pytest.raises(NonRegularProjection, match="coincident"):
        _crossings(strands, (0, 0, 1))
