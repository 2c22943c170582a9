import itertools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from linkless.geometry import (
    GeometryError,
    check_direction,
    cross3,
    dot3,
    format_point,
    format_rational,
    normalize_rat,
    orient3d,
    parse_point,
    parse_rational,
    point_on_segment3,
    projection_frame,
    segments3_intersect,
    shared_endpoint_segments_overlap,
)

import oracles


def test_rational_parsing_roundtrip():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(Fraction(4, 2)) == 2
    assert isinstance(parse_rational(Fraction(4, 2)), int)
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(5) == "5"
    for bad in ["", "x", "1/0", None, 1.5]:
        with pytest.raises(GeometryError):
            parse_rational(bad)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**6),
       st.sampled_from(["", "+", "00"]), st.booleans())
def test_rational_strings_parse_to_the_exact_normal_value(p, q, prefix, whole):
    text = ("-" + prefix.lstrip("+") + str(-p) if p < 0 else prefix + str(p))
    if not whole:
        text += f"/{q}"
    value = parse_rational(f" {text} ")
    assert value == normalize_rat(Fraction(text))
    assert type(value) is type(normalize_rat(Fraction(text)))
    if whole:
        assert type(value) is int


def test_overlong_digit_strings_are_not_rationals():
    # int() and Fraction() refuse more than 4300 digits by default
    for text in ["7" * 5000, "-" + "7" * 5000, "7" * 5000 + "/3", "3/" + "7" * 5000]:
        with pytest.raises(GeometryError, match="not a rational"):
            parse_rational(text)


def test_rational_strings_need_the_documented_spelling():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 7/3 ") == Fraction(7, 3)
    assert parse_rational(12) == 12
    # Fraction itself takes all of these
    for bad in ["1e3", "0.5", "1_000", "\u0661\u0662", "1E2", "1e10000000"]:
        with pytest.raises(GeometryError, match="not a rational"):
            parse_rational(bad)


def test_point_parsing():
    p = parse_point(["1/2", "3", "-2/5"])
    assert p == (Fraction(1, 2), 3, Fraction(-2, 5))
    assert format_point(p) == ["1/2", "3", "-2/5"]
    with pytest.raises(GeometryError):
        parse_point(["1", "2"])


def test_orient3d_signs():
    a, b, c = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    assert orient3d(a, b, c, (0, 0, 1)) > 0
    assert orient3d(a, b, c, (0, 0, -1)) < 0
    assert orient3d(a, b, c, (5, 7, 0)) == 0


def test_segments3_skew_do_not_intersect():
    assert not segments3_intersect((0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1))


def test_segments3_coplanar_crossing():
    assert segments3_intersect((0, 0, 0), (2, 2, 0), (0, 2, 0), (2, 0, 0))
    assert not segments3_intersect((0, 0, 0), (2, 2, 0), (3, 5, 0), (5, 3, 0))


def test_segments3_collinear_cases():
    assert segments3_intersect((0, 0, 0), (2, 0, 0), (1, 0, 0), (5, 0, 0))
    assert not segments3_intersect((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
    # parallel but not collinear
    assert not segments3_intersect((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))


def test_segments3_endpoint_touch_counts():
    assert segments3_intersect((0, 0, 0), (1, 1, 1), (1, 1, 1), (2, 0, 0))
    # endpoint in the interior of the other
    assert segments3_intersect((0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 5, 0))


def test_segments3_rational_coordinates():
    half = Fraction(1, 2)
    assert segments3_intersect((0, 0, 0), (1, 1, 0), (half, 0, 0), (half, 1, 0))


def test_point_on_segment3():
    assert point_on_segment3((1, 1, 1), (0, 0, 0), (2, 2, 2))
    assert point_on_segment3((0, 0, 0), (0, 0, 0), (2, 2, 2))
    assert not point_on_segment3((3, 3, 3), (0, 0, 0), (2, 2, 2))
    assert not point_on_segment3((1, 1, 0), (0, 0, 0), (2, 2, 2))
    # a zero-length segment holds its one point only
    assert point_on_segment3((1, 0, 1), (1, 0, 1), (1, 0, 1))
    assert not point_on_segment3((0, 0, 0), (1, 0, 1), (1, 0, 1))
    assert not segments3_intersect((0, 0, 0), (0, 0, 0), (1, 0, 1), (1, 0, 1))


def test_shared_endpoint_overlap():
    s = (0, 0, 0)
    assert shared_endpoint_segments_overlap(s, (2, 0, 0), (1, 0, 0))
    assert not shared_endpoint_segments_overlap(s, (2, 0, 0), (-1, 0, 0))
    assert not shared_endpoint_segments_overlap(s, (2, 0, 0), (0, 1, 0))


def test_segments2_basic():
    assert segments3_intersect((0, 0, 0), (2, 2, 0), (0, 2, 0), (2, 0, 0))
    assert not segments3_intersect((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
    assert segments3_intersect((0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 1, 0))  # T-touch
    assert not segments3_intersect((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))


# plane coordinates in steps of 1/2, kept in normal form (ints when whole)
_HALF = st.integers(-4, 4).map(lambda k: normalize_rat(Fraction(k, 2)))
_PLANE_POINT = st.tuples(_HALF, _HALF)
# (origin, u, v): the plane z = 0 and two tilted planes, point (x, y) at
# origin + x u + y v
_PLANES = [((0, 0, 0), (1, 0, 0), (0, 1, 0)),
           ((1, 2, 3), (1, 0, 2), (0, 1, -1)),
           ((0, -1, 1), (2, 1, 1), (-1, 1, 3))]


@st.composite
def _coplanar_segment_pairs(draw):
    """Two segments in one plane, free or with a planted contact or a
    planted near miss: T-touch, shared endpoint, collinear, parallel and
    apart, zero length."""
    kind = draw(st.sampled_from(["free", "T-touch", "shared endpoint", "collinear",
                                 "parallel", "zero-length"]))
    p1, p2, q1, q2 = (draw(_PLANE_POINT) for _ in range(4))

    def along(a, b, t):
        return tuple(normalize_rat(x + t * (y - x)) for x, y in zip(a, b))

    if kind == "T-touch":
        q1 = along(p1, p2, draw(st.sampled_from([0, Fraction(1, 4), Fraction(1, 2), 1])))
    elif kind == "shared endpoint":
        q1 = draw(st.sampled_from([p1, p2]))
    elif kind == "collinear":
        steps = st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1,
                                 Fraction(3, 2), 2])
        q1, q2 = along(p1, p2, draw(steps)), along(p1, p2, draw(steps))
    elif kind == "parallel":
        q2 = tuple(normalize_rat(c + draw(st.sampled_from([Fraction(1, 2), 1, 2])) * (y - x))
                   for c, x, y in zip(q1, p1, p2))
    elif kind == "zero-length":
        if draw(st.booleans()):
            q1 = along(p1, p2, draw(st.sampled_from([-1, 0, Fraction(1, 2), 1])))
        q2 = q1
    origin, u, v = draw(st.sampled_from(_PLANES))

    def lift(p):
        return tuple(normalize_rat(o + p[0] * a + p[1] * b) for o, a, b in zip(origin, u, v))

    return kind, tuple(map(lift, (p1, p2, q1, q2)))


@settings(max_examples=500)
@given(_coplanar_segment_pairs())
def test_coplanar_segments3_agrees_with_the_2d_reference(case):
    kind, (p1, p2, q1, q2) = case
    expected = oracles.segments3_intersect(p1, p2, q1, q2)
    event(f"{kind}: {expected}")
    if kind in ("T-touch", "shared endpoint"):
        assert expected
    for s, t in itertools.product(((p1, p2), (p2, p1)), ((q1, q2), (q2, q1))):
        for args in ((*s, *t), (*t, *s)):
            assert segments3_intersect(*args) == oracles.segments3_intersect(*args) == expected


@pytest.mark.parametrize("direction", [
    (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 2, 3), (-5, 7, -2), (Fraction(1, 3), 2, -1),
])
def test_projection_frame_right_handed(direction):
    u, v = projection_frame(direction)
    assert dot3(u, direction) == 0
    assert dot3(v, direction) == 0
    assert dot3(cross3(u, v), direction) > 0


def test_check_direction_rejects_zero():
    # the one direction check; `projection_frame` takes what it passed
    for zero in ((0, 0, 0), (Fraction(0), 0, 0)):
        with pytest.raises(GeometryError, match="projection direction must be nonzero"):
            check_direction(zero)
    assert check_direction((0, Fraction(1, 3), 0)) == (0, Fraction(1, 3), 0)
