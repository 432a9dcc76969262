"""The polygon attached to a nonconfluent system: outer normals are the
(primitivized) rows, side lattice lengths their multiplicities.  Includes the
zonotope / triangle-plus-segments classification, which decides maximal
reducibility; a `Classification` carries the summands of the matching
Minkowski decomposition (`segments` and `triangle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .lattice import Vec2, ccw_sort, primitive, rot90
from .system import HornSystem, check_nonconfluent


@dataclass(frozen=True)
class Edge:
    direction: Vec2  # primitive, ccw traversal direction
    length: int      # lattice length >= 1
    normal: Vec2     # primitive outer normal (direction rotated by -90)

    def vector(self) -> Vec2:
        return self.direction.scale(self.length)


@dataclass(frozen=True)
class OreSatoPolygon:
    edges: tuple[Edge, ...]          # ccw by outer normal angle from the +x1 axis
    vertices: tuple[Vec2, ...]       # accumulated from (0,0), one per edge start


class Kind(Enum):
    ZONOTOPE = "Zonotope"
    TRIANGLE_PLUS_SEGMENTS = "TrianglePlusSegments"
    OTHER = "Other"


@dataclass(frozen=True)
class Segment:
    direction: Vec2
    length: int


@dataclass(frozen=True)
class Triangle:
    edges: tuple[Segment, Segment, Segment]  # oriented edge vectors, sum zero


@dataclass(frozen=True)
class Classification:
    kind: Kind
    segments: tuple[Segment, ...] = ()
    triangle: Triangle | None = None

    @property
    def maximally_reducible(self) -> bool:
        return self.kind is not Kind.OTHER


def build_polygon(s: HornSystem) -> OreSatoPolygon:
    """Group rows by primitive direction, each row g*d adding its gcd g to
    the multiplicity of d, and lay the sides out counterclockwise starting
    from (0,0).

    Each outer normal (a, b) is traversed along (-b, a), which keeps the
    normal pointing outward for a ccw boundary walk.
    """
    if not check_nonconfluent(s):
        raise ValueError("polygon requires nonconfluency")
    if not s.rank2():
        raise ValueError("rows must span rank 2")
    mult: dict[Vec2, int] = {}
    for r in s.rows:
        d, g = primitive(r)
        mult[d] = mult.get(d, 0) + g
    normals = list(mult)
    order = ccw_sort(normals)
    edges = []
    for idx in order:
        n = normals[idx]
        edges.append(Edge(direction=rot90(n), length=mult[n], normal=n))
    vertices = []
    acc = Vec2(0, 0)
    for e in edges:
        vertices.append(acc)
        acc = acc + e.vector()
    if not acc.is_zero():
        raise AssertionError("polygon failed to close; nonconfluency violated")
    return OreSatoPolygon(tuple(edges), tuple(vertices))


def _canonical_line_direction(d: Vec2) -> Vec2:
    """Pick one orientation per unsigned direction line."""
    if d.a > 0 or (d.a == 0 and d.b > 0):
        return d
    return -d


def classify(p: OreSatoPolygon) -> Classification:
    """Zonotope iff every direction line is length-balanced; otherwise
    triangle-plus-segments iff there are exactly three direction lines
    (closure then forces the three excesses to be nonzero and to cancel);
    anything else cannot carry a maximally reducible monodromy.
    """
    lines: dict[Vec2, dict[int, int]] = {}
    for e in p.edges:
        key = _canonical_line_direction(e.direction)
        sign = 1 if key == e.direction else -1
        lines.setdefault(key, {1: 0, -1: 0})[sign] += e.length

    excesses: list[tuple[Vec2, int]] = []  # (canonical direction, signed excess)
    segments: list[Segment] = []
    for key, lens in lines.items():
        common = min(lens[1], lens[-1])
        if common > 0:
            segments.append(Segment(key, common))
        excesses.append((key, lens[1] - lens[-1]))
    segments.sort(key=lambda sgm: (sgm.direction.a, sgm.direction.b))

    if all(exc == 0 for _, exc in excesses):
        return Classification(Kind.ZONOTOPE, tuple(segments))

    if len(lines) != 3:
        return Classification(Kind.OTHER)
    tri_edges = []
    total = Vec2(0, 0)
    for key, exc in excesses:
        if exc == 0:
            return Classification(Kind.OTHER)
        d = key if exc > 0 else -key
        tri_edges.append(Segment(d, abs(exc)))
        total = total + d.scale(abs(exc))
    if not total.is_zero():  # cannot happen for a closed polygon; guard anyway
        return Classification(Kind.OTHER)
    tri_edges.sort(key=lambda sgm: (sgm.direction.a, sgm.direction.b))
    return Classification(
        Kind.TRIANGLE_PLUS_SEGMENTS, tuple(segments), Triangle(tuple(tri_edges))
    )
