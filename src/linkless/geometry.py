"""Exact rational 3D/2D geometry kernel.

Coordinates are Python ints or Fractions; every predicate is decided by
exact sign computations, never by floating point.  Integer inputs stay
integers throughout the sign tests, which keeps the common case (random
integer embeddings) fast.
"""

from __future__ import annotations

from fractions import Fraction

Rat = int | Fraction
Point3 = tuple[Rat, Rat, Rat]
Point2 = tuple[Rat, Rat]


class GeometryError(ValueError):
    pass


def normalize_rat(x: Rat) -> Rat:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def parse_rational(obj) -> Rat:
    """Parse "p/q" or an integer string/number into an exact rational."""
    if isinstance(obj, bool):
        raise GeometryError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Fraction):
        return normalize_rat(obj)
    if isinstance(obj, str):
        try:
            return normalize_rat(Fraction(obj.strip()))
        except (ValueError, ZeroDivisionError):
            raise GeometryError(f"not a rational: {obj!r}") from None
    raise GeometryError(f"not a rational: {obj!r}")


def format_rational(x: Rat) -> str:
    x = normalize_rat(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def parse_point(obj) -> Point3:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise GeometryError(f"a point needs exactly three coordinates: {obj!r}")
    return tuple(parse_rational(c) for c in obj)  # type: ignore[return-value]


def format_point(p: Point3) -> list[str]:
    return [format_rational(c) for c in p]


# -- vector algebra ----------------------------------------------------------


def sub3(a: Point3, b: Point3) -> Point3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def dot3(a: Point3, b: Point3) -> Rat:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a: Point3, b: Point3) -> Point3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def is_zero3(a: Point3) -> bool:
    return a[0] == 0 and a[1] == 0 and a[2] == 0


def orient3d(a: Point3, b: Point3, c: Point3, d: Point3) -> Rat:
    """Signed volume sign source: det[b-a, c-a, d-a]."""
    return dot3(cross3(sub3(b, a), sub3(c, a)), sub3(d, a))


def orient2d(a: Point2, b: Point2, c: Point2) -> Rat:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


# -- 3D incidence predicates ---------------------------------------------------


def point_on_segment3(x: Point3, a: Point3, b: Point3) -> bool:
    """Whether x lies on the closed segment ab."""
    ab = sub3(b, a)
    ax = sub3(x, a)
    if not is_zero3(cross3(ab, ax)):
        return False
    t = dot3(ax, ab)
    return 0 <= t <= dot3(ab, ab)


def _overlap_1d(a1: Rat, a2: Rat, b1: Rat, b2: Rat) -> bool:
    lo1, hi1 = (a1, a2) if a1 <= a2 else (a2, a1)
    lo2, hi2 = (b1, b2) if b1 <= b2 else (b2, b1)
    return max(lo1, lo2) <= min(hi1, hi2)


def segments2_intersect(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """Closed 2D segments ab and cd share at least one point."""
    o1 = orient2d(a, b, c)
    o2 = orient2d(a, b, d)
    o3 = orient2d(c, d, a)
    o4 = orient2d(c, d, b)
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return False
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return False
    if o1 == 0 and o2 == 0:
        # all four collinear: compare 1D ranges along the dominant axis
        axis = 0 if abs(b[0] - a[0]) + abs(d[0] - c[0]) >= abs(b[1] - a[1]) + abs(d[1] - c[1]) else 1
        return _overlap_1d(a[axis], b[axis], c[axis], d[axis])
    return True


def segments3_intersect(p1: Point3, p2: Point3, q1: Point3, q2: Point3) -> bool:
    """Closed 3D segments p1p2 and q1q2 share at least one point (exact)."""
    if orient3d(p1, p2, q1, q2) != 0:
        return False
    d1 = sub3(p2, p1)
    d2 = sub3(q2, q1)
    if is_zero3(d1):
        return point_on_segment3(p1, q1, q2)
    if is_zero3(d2):
        return point_on_segment3(q1, p1, p2)
    n = cross3(d1, d2)
    if is_zero3(n):
        # parallel; intersect only if collinear with overlapping ranges
        if not is_zero3(cross3(d1, sub3(q1, p1))):
            return False
        axis = max(range(3), key=lambda i: abs(d1[i]))
        return _overlap_1d(p1[axis], p2[axis], q1[axis], q2[axis])
    # coplanar and non-parallel: project out an axis where n is nonzero
    axis = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != axis]

    def flat(p: Point3) -> Point2:
        return (p[keep[0]], p[keep[1]])

    return segments2_intersect(flat(p1), flat(p2), flat(q1), flat(q2))


def shared_endpoint_segments_overlap(s: Point3, a: Point3, b: Point3) -> bool:
    """Whether segments sa and sb meet anywhere beyond their common point s."""
    sa = sub3(a, s)
    sb = sub3(b, s)
    return is_zero3(cross3(sa, sb)) and dot3(sa, sb) > 0


# -- projection frames ---------------------------------------------------------


def det3(u: Point3, v: Point3, w: Point3) -> Rat:
    return dot3(cross3(u, v), w)


def projection_frame(direction: Point3) -> tuple[Point3, Point3]:
    """Two vectors u, v spanning the plane across ``direction``.

    Both are orthogonal to the direction and (u, v, direction) is a
    right-handed frame, so "nearer the viewer" means a larger component
    along the direction.
    """
    d = tuple(normalize_rat(c) for c in direction)
    if is_zero3(d):
        raise GeometryError("projection direction must be nonzero")
    w = (1, 0, 0)
    if is_zero3(cross3(d, w)):
        w = (0, 1, 0)
    u = cross3(d, w)
    v = cross3(d, u)
    if det3(u, v, d) < 0:
        v = (-v[0], -v[1], -v[2])
    assert det3(u, v, d) > 0
    return u, v
