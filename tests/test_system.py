import random
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import (FIXTURE_NAMES, fraction_detect_resonance, load_system, normalize_rows,
                      random_nonconfluent_system)
from hornkit.counting import holonomic_rank
from hornkit.lattice import Vec2
from hornkit.system import HornSystem, check_nonconfluent, detect_resonance


def test_nonconfluency():
    assert check_nonconfluent(HornSystem.make([[1, 1], [-1, 0], [0, -1]], [0, 0, 0]))
    assert not check_nonconfluent(HornSystem.make([[3, 2], [-4, -3]], [0, 0]))
    assert check_nonconfluent(HornSystem.make([[1, 2], [-1, -2]], [0, 0]))


def test_normalize_rows_split():
    s = HornSystem.make([[2, 4], [-2, -4]], [1, 0])
    n = normalize_rows(s)
    assert [tuple(r) for r in n.rows] == [(1, 2), (1, 2), (-1, -2), (-1, -2)]
    assert n.params[:2] == (F(1, 2), F(1))
    assert n.params[2:] == (F(0), F(1, 2))


def test_normalize_rows_primitive_passthrough():
    s = HornSystem.make([[1, -3], [-1, 3]], [0, "1/2"])
    assert normalize_rows(s) == s


def test_normalize_rows_simplicial():
    s = HornSystem.make([[-2, 0], [0, -2], [2, 2]], [0, 0, F(1, 3)])
    n = normalize_rows(s)
    assert [tuple(r) for r in n.rows] == [(-1, 0)] * 2 + [(0, -1)] * 2 + [(1, 1)] * 2
    assert check_nonconfluent(n)
    assert n.params == (F(0), F(1, 2), F(0), F(1, 2), F(1, 6), F(2, 3))


def test_normalize_rows_idempotent():
    rng = random.Random(2)
    for _ in range(30):
        s = random_nonconfluent_system(rng)
        n = normalize_rows(s)
        assert normalize_rows(n) == n


def test_normalize_preserves_rank():
    rng = random.Random(3)
    for _ in range(50):
        s = random_nonconfluent_system(rng)
        assert holonomic_rank(normalize_rows(s)) == holonomic_rank(s)


def test_zero_row_rejected():
    # by the system itself, not only by the wire format: a zero row would
    # make rank2() compare every row with zero
    with pytest.raises(ValueError, match="zero row"):
        HornSystem.make([[0, 0], [1, 0], [-1, 1], [0, -1]], [0] * 4)
    with pytest.raises(ValueError, match="zero row"):
        HornSystem.make([[1, 0], [0, 0]], [0, 0])


@pytest.mark.parametrize("row", ([1.5, 0], [True, 0], [0, "2"], [1, 0, 5], 7))
def test_make_rejects_rows_that_are_not_integer_pairs(row):
    # the library input passes the same check as the wire format: no
    # coercion of floats, booleans or strings, and a row is a pair
    with pytest.raises(ValueError, match="is not a pair of integers"):
        HornSystem.make([row, [-1, 0], [0, 1], [0, -1]], [0] * 4)
    assert HornSystem.make([(1, 0), Vec2(-1, 0), [0, 1], [0, -1]], [0] * 4).rows[1] == Vec2(-1, 0)


def test_resonance_triple():
    rows = [[1, 2], [-1, -1], [0, -1]]
    res = detect_resonance(HornSystem.make(rows, [F(1, 3), F(1, 3), F(1, 3)]))
    assert res.is_resonant  # c1+c2+c3 = 1
    res = detect_resonance(HornSystem.make(rows, [F(1, 3), F(1, 5), F(1, 7)]))
    assert not res.is_resonant  # 71/105


def test_resonance_relations_exact():
    rng = random.Random(4)
    for _ in range(40):
        s = random_nonconfluent_system(rng)
        for c in detect_resonance(s).circuits:
            from math import gcd

            total = Vec2(0, 0)
            for lam, idx in zip(c.relation, c.indices):
                total = total + s.rows[idx].scale(lam)
            assert total.is_zero()
            g = 0
            for lam in c.relation:
                g = gcd(g, abs(lam))
            assert g == 1


def test_resonance_matches_the_fraction_sums():
    """`detect_resonance`, which tests each circuit in integers, reports what
    summing its relation against the parameters in Fractions reports
    (`fraction_detect_resonance`): on every fixture, and on seeded rows with
    integer, half-integer and ~1e7-denominator parameters, both shared and
    distinct denominators, and with small mixed denominators, whose lcm
    none of them is."""
    rng = random.Random(2111)
    systems = [load_system(name) for name in FIXTURE_NAMES]
    for i in range(300):
        rows = random_nonconfluent_system(rng, max_m=6).rows
        kind, big = i % 5, 10**7 + rng.randint(1, 997)
        if kind == 0:
            params = [rng.randint(-9, 9) for _ in rows]
        elif kind == 1:
            params = [F(rng.randint(-19, 19), 2) for _ in rows]
        elif kind == 2:
            params = [F(rng.randint(-3 * big, 3 * big), big) for _ in rows]
        elif kind == 3:
            params = [F(rng.randint(1, 10**7), 10**7 + rng.randint(1, 997)) for _ in rows]
        else:
            params = [F(rng.randint(-12, 12), rng.choice((2, 3, 4, 5))) for _ in rows]
        systems.append(HornSystem.make(rows, params))
    seen = Counter()
    for s in systems:
        got = detect_resonance(s)
        assert got == fraction_detect_resonance(s), s
        for c in got.circuits:
            seen[len(c.indices), c.resonant] += 1
    assert all(seen[size, res] > 20 for size in (2, 3) for res in (True, False)), seen


def test_maximally_resonant_example():
    s = HornSystem.make(
        [[1, 0], [0, 1], [1, 1], [-1, 0], [-1, 0], [0, -1], [0, -1]],
        [0, 0, 0, 0, 0, 0, 0],
    )
    res = detect_resonance(s)
    assert res.is_resonant and res.is_maximally_resonant


def test_generic_parameters_non_resonant():
    rng = random.Random(8)
    for _ in range(30):
        s = random_nonconfluent_system(rng)
        assert not detect_resonance(s).is_resonant


def test_is_generic_surrogate():
    from hornkit.atomic import is_generic

    rng = random.Random(12)
    for _ in range(10):
        assert is_generic(random_nonconfluent_system(rng))
    # resonant: not generic
    assert not is_generic(HornSystem.make([[1, 2], [-1, -1], [0, -1]],
                                          [F(1, 3), F(1, 3), F(1, 3)]))
