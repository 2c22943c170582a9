"""Exact rational 3D geometry kernel.

Coordinates are Python ints or Fractions; every predicate is decided by
exact sign computations, never by floating point.  Integer inputs stay
integers throughout the sign tests, which keeps the common case (random
integer embeddings) fast.  Segment intersection is decided in 3D in every
case, coplanar pairs included: no axis is dropped.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = int | Fraction
Point3 = tuple[Rat, Rat, Rat]


class GeometryError(ValueError):
    pass


# the spelling format_rational writes; Fraction alone would also take
# "0.5", "1_000", "1E2" and exponents such as "1e10000000", which take
# seconds to expand
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def is_exact(x) -> bool:
    """Whether x is a coordinate the kernel computes with: an int or a
    Fraction (a bool or a float is not one)."""
    return type(x) is int or type(x) is Fraction


def check_direction(direction: Point3) -> Point3:
    """``direction``, or GeometryError if it is not three ints or
    Fractions, or if it is the zero vector.  It is the one direction check."""
    if len(direction) != 3 or not all(map(is_exact, direction)):
        raise GeometryError(f"a direction needs three ints or Fractions: {direction!r}")
    if not any(direction):
        raise GeometryError("projection direction must be nonzero")
    return direction


def normalize_rat(x: Rat) -> Rat:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def parse_rational(obj) -> Rat:
    """Parse "p/q" or an integer string/number into an exact rational.

    A string, once stripped, must fully match ``[+-]?[0-9]+(/[0-9]+)?``.
    """
    if isinstance(obj, bool):
        raise GeometryError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Fraction):
        return normalize_rat(obj)
    if isinstance(obj, str):
        text = obj.strip()
        match = _RATIONAL.fullmatch(text)
        if not match:
            raise GeometryError(f"not a rational: {obj!r}")
        try:
            if match[1] is None:
                return int(text)
            return normalize_rat(Fraction(text))
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


# -- 3D incidence predicates ---------------------------------------------------


def point_on_segment3(x: Point3, a: Point3, b: Point3) -> bool:
    """Whether x lies on the closed segment ab."""
    ab = sub3(b, a)
    if is_zero3(ab):
        return x == a
    ax = sub3(x, a)
    if not is_zero3(cross3(ab, ax)):
        return False
    t = dot3(ax, ab)
    return 0 <= t <= dot3(ab, ab)


def _overlap_1d(a1: Rat, a2: Rat, b1: Rat, b2: Rat) -> bool:
    lo1, hi1 = (a1, a2) if a1 <= a2 else (a2, a1)
    lo2, hi2 = (b1, b2) if b1 <= b2 else (b2, b1)
    return max(lo1, lo2) <= min(hi1, hi2)


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
    # coplanar and not parallel: with w = q1 - p1, the lines meet at
    # p1 + s d1 = q1 + t d2 for s = (w x d2) . n / n . n and
    # t = (w x d1) . n / n . n, and the segments where both are in [0, 1]
    w = sub3(q1, p1)
    nn = dot3(n, n)
    return 0 <= dot3(cross3(w, d2), n) <= nn and 0 <= dot3(cross3(w, d1), n) <= nn


def shared_endpoint_segments_overlap(s: Point3, a: Point3, b: Point3) -> bool:
    """Whether segments sa and sb meet anywhere beyond their common point s."""
    sa = sub3(a, s)
    sb = sub3(b, s)
    return is_zero3(cross3(sa, sb)) and dot3(sa, sb) > 0


# -- projection frames ---------------------------------------------------------


def projection_frame(direction: Point3) -> tuple[Point3, Point3]:
    """Two vectors u, v spanning the plane across the nonzero ``direction``
    (see `check_direction`).

    Both are orthogonal to the direction and (u, v, direction) is a
    right-handed frame, so "nearer the viewer" means a larger component
    along the direction.
    """
    dx, dy, dz = direction
    # u = d x (1, 0, 0), or d x (0, 1, 0) when d lies along the x axis
    u = (0, dz, -dy) if dy or dz else (-dz, 0, dx)
    # det(u, d x u, d) = |u|^2 |d|^2 > 0 for u across d: right-handed
    return u, cross3(direction, u)
