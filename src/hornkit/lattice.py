"""Exact 2D lattice primitives: integer vectors, gcd reduction, quadrant
tests, the pair index, and exact counterclockwise angular order.

Everything here is integer/rational arithmetic only; directions are ordered
by their half-plane and a cross sign test, never through floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import NamedTuple, Sequence


class Vec2(NamedTuple):
    """An integer lattice vector."""

    a: int
    b: int

    def __neg__(self) -> "Vec2":
        return Vec2(-self.a, -self.b)

    def __add__(self, other: "Vec2") -> "Vec2":  # type: ignore[override]
        return Vec2(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.a - other.a, self.b - other.b)

    def scale(self, k: int) -> "Vec2":
        return Vec2(k * self.a, k * self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


QVec = tuple[Fraction, Fraction]


def qvec(x1, x2) -> QVec:
    """Build a rational 2-vector, coercing entries to Fraction."""
    return (Fraction(x1), Fraction(x2))


def dot(u: Vec2, v) -> Fraction | int:
    """<u, v> where v may be a Vec2 or a rational pair."""
    return u.a * v[0] + u.b * v[1]


def cross(u: Vec2, v: Vec2) -> int:
    """det(u, v) = u.a*v.b - u.b*v.a; positive iff v is ccw of u."""
    return u.a * v.b - u.b * v.a


def inverse_times(m: tuple[Vec2, Vec2], v) -> QVec:
    """M^{-1} v for the 2x2 matrix M with rows m, exact; v may be integer or
    rational.  Raises ValueError when M is singular."""
    (a1, b1), (a2, b2) = m
    det = cross(m[0], m[1])
    if det == 0:
        raise ValueError("singular matrix")
    return (Fraction(b2 * v[0] - b1 * v[1]) / det, Fraction(-a2 * v[0] + a1 * v[1]) / det)


def rot90(v: Vec2) -> Vec2:
    """Rotate by +90 degrees: outer normal -> ccw edge direction."""
    return Vec2(-v.b, v.a)


def primitive(v: Vec2) -> tuple[Vec2, int]:
    """Split v = g*d with d primitive on the same ray and g >= 1.

    Raises ValueError on the zero vector.
    """
    if v.is_zero():
        raise ValueError("zero vector has no primitive direction")
    g = gcd(abs(v.a), abs(v.b))
    return Vec2(v.a // g, v.b // g), g


def opposite_open_quadrants(u: Vec2, v: Vec2) -> bool:
    """True iff all four entries are nonzero and signs are componentwise opposite."""
    if u.a == 0 or u.b == 0 or v.a == 0 or v.b == 0:
        return False
    return (u.a > 0) != (v.a > 0) and (u.b > 0) != (v.b > 0)


def index_nu(u: Vec2, v: Vec2) -> int:
    """Pair index: min(|u.a*v.b|, |u.b*v.a|) for vectors in opposite open
    quadrants, 0 otherwise.  Counts the polynomial solutions the pair
    contributes to an atomic system."""
    if not opposite_open_quadrants(u, v):
        return 0
    return min(abs(u.a * v.b), abs(u.b * v.a))


def ccw_sort(vs: Sequence[Vec2]) -> list[int]:
    """Indices of vs in counterclockwise angular order from the +x1 axis: the
    half-plane [0, pi) before [pi, 2*pi), and within one, u before v exactly
    when cross(u, v) > 0.  All vectors must be nonzero and on distinct rays."""
    if any(v.is_zero() for v in vs):
        raise ValueError("cannot order the zero vector")
    half = [0 if v.b > 0 or (v.b == 0 and v.a > 0) else 1 for v in vs]
    order = sorted(range(len(vs)),
                   key=cmp_to_key(lambda i, j: half[i] - half[j] or -cross(vs[i], vs[j])))
    for i, j in zip(order, order[1:]):
        if half[i] == half[j] and cross(vs[i], vs[j]) == 0:
            raise ValueError(f"duplicate direction: {vs[i]} and {vs[j]}")
    return order
