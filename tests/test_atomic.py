import random
from fractions import Fraction as F

import pytest

from conftest import factor_product, load_expected
from hornkit.atomic import (
    persistent_monomials,
    persistent_polynomials,
    polynomial_exponents,
)
from hornkit.counting import atomic_rank
from hornkit.operators import is_solution
from hornkit.puiseux import PuiseuxPolynomial
from hornkit.lattice import Vec2, inverse_times, opposite_open_quadrants
from hornkit.system import AtomicSystem, HornSystem, enumerate_atomic


def atomic(rows, params=(0, 0)):
    s = HornSystem.make(rows, params)
    return AtomicSystem((0, 1), s.rows, s.params)


def normalize_frame(a: AtomicSystem):
    """The paper's normalized frame: invert variables so the first row is
    strictly positive and the second strictly negative, then swap them if
    needed to reach |a1*b2| > |a2*b1|.  Returns the system in that frame and
    the change (flip1, flip2, swap).  Requires rows in opposite open
    quadrants."""
    u, v = a.rows
    if not opposite_open_quadrants(u, v):
        raise ValueError("normalization undefined: rows not in opposite open quadrants")
    flip1, flip2 = u.a < 0, u.b < 0
    rows = [(-r.a if flip1 else r.a, -r.b if flip2 else r.b) for r in a.rows]
    swap = abs(rows[0][0] * rows[1][1]) < abs(rows[1][0] * rows[0][1])
    if swap:
        rows = [(y, x) for x, y in rows]
    return AtomicSystem(a.indices, tuple(Vec2(*r) for r in rows), a.params), (flip1, flip2, swap)


def pull_back(change, beta):
    """A normalized-frame exponent in the original frame."""
    flip1, flip2, swap = change
    b1, b2 = (beta[1], beta[0]) if swap else beta
    return (-b1 if flip1 else b1, -b2 if flip2 else b2)


def frame_exponents(a: AtomicSystem):
    """(index rectangle exponents, monomial sub-rectangle exponents), taken
    in the normalized frame and pulled back."""
    norm, change = normalize_frame(a)
    (a1, b1), (a2, b2) = norm.rows
    rect, small = set(), set()
    for u in range(b1):
        for v in range(-a2):
            w = inverse_times(norm.rows, (u + norm.params[0], v + norm.params[1]))
            alpha = pull_back(change, (-w[0], -w[1]))
            rect.add(alpha)
            if u < min(a1, b1) and v < min(-a2, -b2):
                small.add(alpha)
    return rect, small


def quotient_walk(a: AtomicSystem, alpha, case_i: int) -> PuiseuxPolynomial:
    """The paper's one-directional quotient walk from alpha, for an atomic
    system in its normalized frame: terms at alpha - j*e_i with coefficients
    Q_i(alpha)...Q_i(alpha-(j-1)e_i) / (P_i(alpha-e_i)...P_i(alpha-j e_i)),
    stopping at the first vanishing Q_i.

    The walk length is capped at ||b2|-|a2|| + 1; a vanishing P denominator
    before the stop, or a walk past the cap, raises ValueError.
    """
    s = a.system()
    (_a1, _b1), (a2, b2) = a.rows
    cap = abs(abs(b2) - abs(a2)) + 1
    e_i = (1, 0) if case_i == 1 else (0, 1)
    terms = {alpha: F(1)}
    coeff = F(1)
    pt = alpha
    for _ in range(cap + 1):
        q = factor_product(s, case_i, "q", pt)
        if q == 0:
            return PuiseuxPolynomial(terms)
        nxt = (pt[0] - e_i[0], pt[1] - e_i[1])
        den = factor_product(s, case_i, "p", nxt)
        if den == 0:
            raise ValueError(f"P_{case_i} vanishes at {nxt} before the stopping index")
        coeff = coeff * q / den
        terms[nxt] = coeff
        pt = nxt
    raise ValueError("walk exceeded its cap without reaching a vanishing factor")


def strip_walks(a: AtomicSystem):
    """(initial exponent, walk terms or None where the walk raises) per
    boundary-strip position of the index rectangle, sorted by initial
    exponent.  The walk runs in the normalized frame; its terms are pulled
    back to the original one."""
    norm, change = normalize_frame(a)
    (a1, b1), (a2, b2) = norm.rows
    out = []
    for u in range(b1):
        for v in range(-a2):
            if u < min(a1, b1) and v < min(-a2, -b2):
                continue  # monomial sub-rectangle
            w = inverse_times(norm.rows, (u + norm.params[0], v + norm.params[1]))
            alpha_n = (-w[0], -w[1])
            try:
                walk = quotient_walk(norm, alpha_n, 2 if v >= min(-a2, -b2) else 1)
                terms = {pull_back(change, e): c for e, c in walk.terms.items()}
            except ValueError:
                terms = None
            out.append((pull_back(change, alpha_n), terms))
    out.sort(key=lambda t: t[0])
    return out


def test_enumerate_atomic_counts(zonotope):
    assert len(enumerate_atomic(zonotope)) == 24  # 28 pairs minus 4 parallel
    s = HornSystem.make([[1, 2], [-1, -1], [0, -1]], [0, 0, 0])
    assert len(enumerate_atomic(s)) == 3
    s = HornSystem.make([[1, 0], [-1, 0]], [0, 0])
    assert len(enumerate_atomic(s)) == 0


def test_atomic_rank():
    assert atomic_rank(atomic([[3, 2], [-4, -3]])) == 9
    assert atomic_rank(atomic([[1, 0], [0, 1]])) == 1
    assert atomic_rank(atomic([[1, 2], [-1, -1]])) == 2


def test_polynomial_exponents_reference_values():
    a = atomic([[3, 2], [-4, -3]])
    got = {(int(x), int(y)) for x, y in polynomial_exponents(a)}
    assert got == {(0, 0), (-2, 3), (-4, 6), (-6, 9),
                   (-3, 4), (-5, 7), (-7, 10), (-9, 13)}


def test_polynomial_exponents_example31_pair():
    a = atomic([[1, 2], [-1, -1]], ["1/3", "1/5"])
    c1, c2 = F(1, 3), F(1, 5)
    assert polynomial_exponents(a) == {(c1 + 2 * c2, -c1 - c2)}


def test_polynomial_exponents_empty_when_nu_zero():
    a = atomic([[1, 0], [0, 1]])
    assert a.nu == 0
    assert polynomial_exponents(a) == set()
    assert persistent_monomials(a) == []
    assert persistent_polynomials(a) == []


def test_polynomial_exponents_literal_rectangle_oracle():
    # the rectangles read off the rows as given against the normalized-frame
    # route, on the index rectangle and on the monomial sub-rectangle
    rng = random.Random(43)
    count = 0
    while count < 2000:
        rows = [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(2)]
        try:
            a = atomic(rows, [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(2)])
        except ValueError:
            continue
        if a.nu == 0:
            continue
        count += 1
        rect, small = frame_exponents(a)
        assert polynomial_exponents(a) == rect
        assert len(rect) == a.nu
        got = [next(iter(m.terms)) for m in persistent_monomials(a)]
        assert got == sorted(small)


def test_normalize_frame_cases():
    a = atomic([[3, 2], [-4, -3]])
    norm, change = normalize_frame(a)
    assert norm.rows == a.rows and change == (False, False, False)

    a = atomic([[-3, -2], [4, 3]])
    norm, change = normalize_frame(a)
    assert [tuple(r) for r in norm.rows] == [(3, 2), (-4, -3)]
    assert change == (True, True, False)

    a = atomic([[2, 3], [-3, -4]])
    norm, change = normalize_frame(a)
    assert [tuple(r) for r in norm.rows] == [(3, 2), (-4, -3)]
    assert change == (False, False, True)


def test_normalize_frame_requires_opposite_quadrants():
    with pytest.raises(ValueError):
        normalize_frame(atomic([[1, 0], [0, 1]]))


def test_persistent_monomials_reference_values(atomic_32_43):
    a = enumerate_atomic(atomic_32_43)[0]
    mons = persistent_monomials(a)
    got = {tuple(map(int, next(iter(m.terms)))) for m in mons}
    assert got == {(0, 0), (-2, 3), (-4, 6), (-3, 4), (-5, 7), (-7, 10)}
    sys_a = a.system()
    for m in mons:
        assert is_solution(m, sys_a)


def test_persistent_polynomials_reference_values(atomic_32_43):
    exp = load_expected("atomic_32_43")
    a = enumerate_atomic(atomic_32_43)[0]
    pols = persistent_polynomials(a)
    assert len(pols) == 2
    first = next(p for p in pols if (F(-6), F(9)) in p.terms)
    assert first.normalized() == PuiseuxPolynomial.from_json(exp["binomial_1"])
    second = next(p for p in pols if (F(-9), F(13)) in p.terms)
    want = PuiseuxPolynomial.from_json(exp["completed_solution_2"])
    assert second.scale(1 / second.terms[(F(-9), F(13))]) == want
    for p in pols:
        assert is_solution(p, a.system())


@pytest.mark.xfail(strict=True, reason=(
    "reference two-term display at initial exponent (-9,13) is not annihilated "
    "by the first operator; the actual solution carries two more terms at "
    "(-8,12) and (-8,11)"))
def test_displayed_second_binomial_is_a_solution(atomic_32_43):
    exp = load_expected("atomic_32_43")
    displayed = PuiseuxPolynomial.from_json(exp["displayed_binomial_2"])
    assert is_solution(displayed, atomic_32_43)


def test_quotient_walk_matches_solution_backbone(atomic_32_43):
    # the walk runs down the x2 direction, so the backbone is the column of
    # the returned solution through its initial exponent
    a = enumerate_atomic(atomic_32_43)[0]
    pols = persistent_polynomials(a)
    for alpha, want in (((F(-6), F(9)), {(F(-6), F(9)): 1, (F(-6), F(8)): -3}),
                        ((F(-9), F(13)), {(F(-9), F(13)): 1, (F(-9), F(12)): -1})):
        pol = next(p for p in pols if p.terms.get(alpha) == 1)
        backbone = {e: c for e, c in pol.terms.items() if e[0] == alpha[0]}
        assert backbone == want
        assert quotient_walk(a, alpha, 2).terms == backbone


def test_monomial_only_regime():
    # normalized frame with |a2| <= |b2| and a1 >= b1: no boundary strips
    a = atomic([[3, 2], [-2, -3]])
    norm, _ = normalize_frame(a)
    (a1, b1), (a2, b2) = norm.rows
    assert -a2 <= -b2 and a1 >= b1
    assert persistent_polynomials(a) == []
    assert len(persistent_monomials(a)) == a.nu


def test_counts_partition_exponent_classes():
    rng = random.Random(47)
    count = walks = 0
    while count < 50:
        rows = [[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(2)]
        try:
            a = atomic(rows, [F(rng.randint(-20, 20), rng.randint(3, 11)) for _ in range(2)])
        except ValueError:
            continue
        if a.nu == 0:
            continue
        count += 1
        mons = persistent_monomials(a)
        pols = persistent_polynomials(a)
        assert len(mons) + len(pols) == a.nu
        sys_a = a.system()
        for f in mons + pols:
            assert is_solution(f, sys_a)
        # the quotient walk, where it does not raise, is the backbone of the
        # solution through the same initial exponent
        strips = strip_walks(a)
        assert len(strips) == len(pols)
        for (alpha, walk), pol in zip(strips, pols):
            assert pol.terms[alpha] == 1
            if walk is not None:
                walks += 1
                assert {e: pol.terms.get(e) for e in walk} == walk
    assert walks > 0


def test_frame_change_coherence():
    # solving in a flipped frame and pulling back equals direct construction
    a = atomic([[3, 2], [-4, -3]])
    b = atomic([[-3, -2], [4, 3]])
    sols_a = {frozenset(p.normalized().terms.items()) for p in persistent_polynomials(a)}
    pulled = set()
    for p in persistent_polynomials(b):
        flipped = PuiseuxPolynomial({(-e[0], -e[1]): c for e, c in p.terms.items()})
        pulled.add(frozenset(flipped.normalized().terms.items()))
    assert sols_a == pulled
