from fractions import Fraction

import pytest

from linkless.geometry import (
    GeometryError,
    det3,
    dot3,
    format_point,
    format_rational,
    orient3d,
    parse_point,
    parse_rational,
    point_on_segment3,
    projection_frame,
    segments2_intersect,
    segments3_intersect,
    shared_endpoint_segments_overlap,
)


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


def test_shared_endpoint_overlap():
    s = (0, 0, 0)
    assert shared_endpoint_segments_overlap(s, (2, 0, 0), (1, 0, 0))
    assert not shared_endpoint_segments_overlap(s, (2, 0, 0), (-1, 0, 0))
    assert not shared_endpoint_segments_overlap(s, (2, 0, 0), (0, 1, 0))


def test_segments2_basic():
    assert segments2_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert not segments2_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    assert segments2_intersect((0, 0), (2, 0), (1, 0), (1, 1))  # T-touch
    assert not segments2_intersect((0, 0), (1, 0), (2, 0), (3, 0))


@pytest.mark.parametrize("direction", [
    (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 2, 3), (-5, 7, -2), (Fraction(1, 3), 2, -1),
])
def test_projection_frame_right_handed(direction):
    u, v = projection_frame(direction)
    assert dot3(u, direction) == 0
    assert dot3(v, direction) == 0
    assert det3(u, v, direction) > 0


def test_projection_frame_rejects_zero():
    with pytest.raises(GeometryError):
        projection_frame((0, 0, 0))
