import random
import time
from fractions import Fraction as F

import pytest

from conftest import normalize_rows, random_nonconfluent_system
from hornkit.counting import (
    component_ref,
    convergent_count_S,
    convergent_dim_by_cone,
    fully_supported_count,
    holonomic_rank,
    persistent_dim,
)
from hornkit.polygon import build_polygon, vertex_count
from hornkit.system import HornSystem


def test_holonomic_rank_fixtures(zonotope, triangle_sides, triangle_simplex):
    assert holonomic_rank(zonotope) == 31
    assert holonomic_rank(triangle_sides) == 40
    assert holonomic_rank(triangle_simplex) == 4
    assert holonomic_rank(HornSystem.make([[1, 2], [-1, -1], [0, -1]], [0, 0, 0])) == 2
    simp = HornSystem.make([[-2, 0], [0, -2], [2, 2]], [0, 0, F(1, 3)])
    assert holonomic_rank(simp) == 4
    assert holonomic_rank(normalize_rows(simp)) == 4


def test_rank_rejects_confluent():
    with pytest.raises(ValueError):
        holonomic_rank(HornSystem.make([[3, 2], [-4, -3]], [0, 0]))


def test_rank_raw_agrees_on_fixtures(zonotope, triangle_sides):
    simp = HornSystem.make([[-2, 0], [0, -2], [2, 2]], [0, 0, F(1, 3)])
    for s in (zonotope, triangle_sides, simp):
        n = normalize_rows(s)
        assert holonomic_rank(n) == holonomic_rank(s)
        assert persistent_dim(n) == persistent_dim(s)
    assert holonomic_rank(simp) == 4


def test_large_gcd_rows_answer_fast():
    # normalization would split each +-3000*e1 row into 3000 rows and pair
    # them all; the counts and the polygon work on the rows as given
    s = HornSystem.make([[3000, 0], [-3000, 0], [0, 1], [0, -1]], [0] * 4)
    start = time.perf_counter()
    assert holonomic_rank(s) == 3000
    assert persistent_dim(s) == 0
    assert sorted(e.length for e in build_polygon(s).edges) == [1, 1, 3000, 3000]
    assert time.perf_counter() - start < 1.0


def test_persistent_dim_fixtures(zonotope, triangle_sides, triangle_simplex):
    assert persistent_dim(zonotope) == 6
    assert persistent_dim(triangle_sides) == 5
    assert persistent_dim(triangle_simplex) == 1


def test_fully_supported_count():
    assert fully_supported_count(HornSystem.make([[1, 1], [-1, 0], [0, -1]], [0] * 3)) == 3
    # a bare atomic pair counts its own |det|
    assert fully_supported_count(HornSystem.make([[3, 2], [-4, -3]], [0, 0])) == 1
    # brute-force the normalized simplicial row set
    simp = normalize_rows(HornSystem.make([[-2, 0], [0, -2], [2, 2]], [0, 0, F(1, 3)]))
    from itertools import combinations

    from hornkit.lattice import cross

    # 15 unordered pairs; the dependent ones contribute 0, each of the
    # 12 cross-direction pairs contributes |det| = 1
    brute = sum(abs(cross(u, v)) for u, v in combinations(simp.rows, 2))
    assert brute == 12
    assert fully_supported_count(simp) == brute


def test_convergent_counts_fixtures(zonotope, triangle_sides):
    for s, expect in ((zonotope, 25), (triangle_sides, 35)):
        p = build_polygon(s)
        for i in range(vertex_count(p)):
            assert convergent_count_S(p, i) == expect
            assert convergent_dim_by_cone(s, component_ref(p, i)) == expect


def test_convergent_count_rank1_system():
    s = HornSystem.make([[1, 2], [-1, -1], [0, -1]], ["1/3", "1/5", "1/7"])
    p = build_polygon(s)
    for i in range(vertex_count(p)):
        assert convergent_count_S(p, i) == 1
    tri = HornSystem.make([[1, 1], [-1, 0], [0, -1]], ["1/7", "-1/3", "-1/5"])
    p = build_polygon(tri)
    for i in range(vertex_count(p)):
        assert convergent_count_S(p, i) == 1


def test_invalid_vertex_index(zonotope):
    with pytest.raises(ValueError):
        convergent_count_S(build_polygon(zonotope), 8)
    with pytest.raises(ValueError):
        component_ref(build_polygon(zonotope), -1)


def test_counting_identities_random():
    rng = random.Random(41)
    for _ in range(100):
        s = random_nonconfluent_system(rng)
        p = build_polygon(s)
        q = vertex_count(p)
        svals = [convergent_count_S(p, i) for i in range(q)]
        assert len(set(svals)) == 1  # constancy across vertices
        cvals = [convergent_dim_by_cone(s, component_ref(p, i)) for i in range(q)]
        assert svals == cvals  # oracle agreement
        assert holonomic_rank(s) == svals[0] + persistent_dim(s)
        fsc = fully_supported_count(s)
        assert all(fsc >= v for v in svals)
