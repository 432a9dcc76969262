import random

import pytest

from conftest import (
    is_centrally_symmetric,
    outer_normal_holds,
    polygon_edge_multiset,
    random_nonconfluent_system,
    witness_edge_multiset,
)
from hornkit.lattice import Vec2, cross
from hornkit.polygon import Kind, build_polygon, classify, vertex_count
from hornkit.system import HornSystem


def test_unit_triangle():
    s = HornSystem.make([[1, 1], [-1, 0], [0, -1]], [0, 0, 0])
    p = build_polygon(s)
    assert vertex_count(p) == 3
    # vertices are a unit triangle up to translation
    vs = sorted((v.a, v.b) for v in p.vertices)
    base = min(vs)
    shifted = sorted((a - base[0], b - base[1]) for a, b in vs)
    assert shifted == [(0, 0), (0, 1), (1, 0)]


def test_zonotope_polygon(zonotope):
    p = build_polygon(zonotope)
    assert vertex_count(p) == 8
    assert is_centrally_symmetric(p)
    assert outer_normal_holds(p)


def test_triangle_sides_polygon(triangle_sides):
    p = build_polygon(triangle_sides)
    assert vertex_count(p) == 6
    lengths = {tuple(e.normal): e.length for e in p.edges}
    assert lengths == {(2, -1): 2, (-2, 1): 1, (-1, 3): 2, (1, -3): 1,
                       (1, 2): 1, (-1, -2): 2}


def test_seven_vertex_fixture():
    s = HornSystem.make(
        [[1, 2], [1, -2], [-1, 3], [-1, -3], [1, 0], [-1, -1], [0, 1]],
        [0, 0, 0, 0, 0, 0, 0],
    )
    assert vertex_count(build_polygon(s)) == 7


def test_polygon_requires_nonconfluency():
    with pytest.raises(ValueError):
        build_polygon(HornSystem.make([[3, 2], [-4, -3]], [0, 0]))
    with pytest.raises(ValueError):
        build_polygon(HornSystem.make([[1, 0], [-1, 0]], [0, 0]))


def test_classification_fixtures(zonotope, triangle_sides, quadrilateral):
    cz = classify(build_polygon(zonotope))
    assert cz.kind is Kind.ZONOTOPE
    assert len(cz.segments) == 4
    ct = classify(build_polygon(triangle_sides))
    assert ct.kind is Kind.TRIANGLE_PLUS_SEGMENTS
    assert len(ct.segments) == 3 and ct.triangle is not None
    cq = classify(build_polygon(quadrilateral))
    assert cq.kind is Kind.OTHER


def test_pure_triangle_classifies_as_triangle():
    s = HornSystem.make([[1, 1], [-1, 0], [0, -1]], [0, 0, 0])
    c = classify(build_polygon(s))
    assert c.kind is Kind.TRIANGLE_PLUS_SEGMENTS
    assert c.segments == () and c.triangle is not None


def test_parallelogram_decomposes_into_two_segments():
    s = HornSystem.make([[1, 2], [3, -1], [-1, -2], [-3, 1]], [0, 0, 0, 0])
    c = classify(build_polygon(s))
    assert c.kind is Kind.ZONOTOPE
    assert len(c.segments) == 2


def test_decomposition_resums(zonotope, triangle_sides):
    for s in (zonotope, triangle_sides):
        p = build_polygon(s)
        c = classify(p)
        assert c.kind is not Kind.OTHER
        assert witness_edge_multiset(c) == polygon_edge_multiset(p)


def test_triangle_sides_decomposition_shape(triangle_sides):
    c = classify(build_polygon(triangle_sides))
    tri_dirs = {tuple(seg.direction) for seg in c.triangle.edges}
    assert tri_dirs == {(1, 2), (-3, -1), (2, -1)}
    assert all(seg.length == 1 for seg in c.triangle.edges)
    seg_lines = {tuple(seg.direction): seg.length for seg in c.segments}
    assert seg_lines == {(1, 2): 1, (3, 1): 1, (2, -1): 1}


def test_decompose_other_rejected(quadrilateral):
    # no decomposition of the required shape: no witness summands
    c = classify(build_polygon(quadrilateral))
    assert c.kind is Kind.OTHER and c.segments == () and c.triangle is None


def test_is_maximally_reducible(zonotope, triangle_sides, quadrilateral):
    assert classify(build_polygon(zonotope)).maximally_reducible
    assert classify(build_polygon(triangle_sides)).maximally_reducible
    assert not classify(build_polygon(quadrilateral)).maximally_reducible


def test_polygon_invariants_random():
    rng = random.Random(31)
    for _ in range(200):
        s = random_nonconfluent_system(rng)
        p = build_polygon(s)
        # closure
        total = Vec2(0, 0)
        for e in p.edges:
            total = total + e.vector()
        assert total.is_zero()
        # convexity: consecutive edge directions turn left
        q = len(p.edges)
        for i in range(q):
            assert cross(p.edges[i].direction, p.edges[(i + 1) % q].direction) > 0
        assert outer_normal_holds(p)
        # zonotope iff centrally symmetric
        assert (classify(p).kind is Kind.ZONOTOPE) == is_centrally_symmetric(p)


def _unimodular(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c in (1, -1):
            return ((a, b), (c, d))


def test_classification_gl2z_invariant(zonotope, triangle_sides, quadrilateral):
    rng = random.Random(37)
    for s in (zonotope, triangle_sides, quadrilateral):
        want = classify(build_polygon(s)).kind
        for _ in range(10):
            (a, b), (c, d) = _unimodular(rng)
            rows = [[r.a * a + r.b * c, r.a * b + r.b * d] for r in s.rows]
            t = HornSystem.make(rows, s.params)
            assert classify(build_polygon(t)).kind == want
