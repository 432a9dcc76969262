import random

import pytest

from hornkit.lattice import (
    Vec2,
    ccw_sort,
    cross,
    index_nu,
    opposite_open_quadrants,
    primitive,
    rot90,
)


def test_primitive_gcd_extraction():
    assert primitive(Vec2(2, 4)) == (Vec2(1, 2), 2)
    assert primitive(Vec2(-3, -2)) == (Vec2(-3, -2), 1)
    assert primitive(Vec2(0, -6)) == (Vec2(0, -1), 6)


def test_primitive_zero_vector_rejected():
    with pytest.raises(ValueError):
        primitive(Vec2(0, 0))


def test_primitive_coprime_property():
    rng = random.Random(11)
    from math import gcd

    for _ in range(200):
        v = Vec2(rng.randint(-40, 40), rng.randint(-40, 40))
        if v.is_zero():
            continue
        d, g = primitive(v)
        assert gcd(abs(d.a), abs(d.b)) == 1
        assert d.scale(g) == v
        assert g >= 1


def test_index_nu_values():
    assert index_nu(Vec2(3, 2), Vec2(-4, -3)) == 8
    assert index_nu(Vec2(1, 0), Vec2(0, 1)) == 0
    # min(|1*(-1)|, |2*(-1)|) evaluated from the definition by hand
    assert index_nu(Vec2(1, 2), Vec2(-1, -1)) == 1


def test_index_nu_symmetry():
    rng = random.Random(5)
    for _ in range(300):
        u = Vec2(rng.randint(-5, 5), rng.randint(-5, 5))
        v = Vec2(rng.randint(-5, 5), rng.randint(-5, 5))
        assert index_nu(u, v) == index_nu(v, u)


def test_index_nu_antipode():
    rng = random.Random(6)
    for _ in range(100):
        u = Vec2(rng.randint(1, 6), rng.randint(1, 6))
        assert index_nu(u, -u) == abs(u.a * u.b)


def test_opposite_open_quadrants():
    assert opposite_open_quadrants(Vec2(1, 2), Vec2(-3, -2))
    assert opposite_open_quadrants(Vec2(1, -1), Vec2(-2, 1))
    assert not opposite_open_quadrants(Vec2(0, -1), Vec2(-1, -1))
    assert not opposite_open_quadrants(Vec2(1, 1), Vec2(1, -1))


def test_ccw_sort_axes_identity():
    vs = [Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1)]
    assert ccw_sort(vs) == [0, 1, 2, 3]


def test_ccw_sort_mixed():
    vs = [Vec2(-2, 1), Vec2(1, 2), Vec2(2, -1), Vec2(-1, -2)]
    # cyclic ccw order from the +x1 axis: (1,2), (-2,1), (-1,-2), (2,-1)
    assert ccw_sort(vs) == [1, 0, 3, 2]


def test_ccw_sort_duplicate_ray_rejected():
    with pytest.raises(ValueError):
        ccw_sort([Vec2(1, 1), Vec2(1, 1)])
    with pytest.raises(ValueError):
        ccw_sort([Vec2(1, 1), Vec2(2, 2)])
    # apart in the input, and on the half-plane boundary rays
    with pytest.raises(ValueError):
        ccw_sort([Vec2(1, 1), Vec2(-1, 0), Vec2(0, 1), Vec2(3, 3)])
    with pytest.raises(ValueError):
        ccw_sort([Vec2(-2, 0), Vec2(1, 1), Vec2(-1, 0)])
    # opposite rays are distinct directions
    assert ccw_sort([Vec2(-1, 0), Vec2(1, 0), Vec2(0, -1), Vec2(0, 1)]) == [1, 3, 0, 2]


def test_ccw_sort_rotation_invariance():
    rng = random.Random(9)
    for _ in range(50):
        vs = []
        while len(vs) < 5:
            v = Vec2(rng.randint(-4, 4), rng.randint(-4, 4))
            if v.is_zero():
                continue
            if any(cross(v, u) == 0 and v.a * u.a + v.b * u.b > 0 for u in vs):
                continue
            vs.append(v)
        base = ccw_sort(vs)
        rotated = ccw_sort([rot90(v) for v in vs])
        # same cyclic sequence of indices
        k = rotated.index(base[0])
        assert rotated[k:] + rotated[:k] == base

