import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (evaluator_at, factor_product, grow_full, product_by_factors,
                      random_nonconfluent_system)
from hornkit.operators import _ClassFactors, apply_horn, apply_intertwiner, is_solution
from hornkit.puiseux import PuiseuxPolynomial, _class_exponent
from hornkit.system import HornSystem

ORIGIN = (0, 1, 0, 1)  # the class key of the integer exponents


def layout(ev, j):
    """The rows of P_j and Q_j on the evaluator, as (row, |A_ij|, value of
    <A_i, anchor> + c_i), in row order."""
    return tuple([((qa // q, qb // q), e, F(n, q)) for n, qa, qb, q, e in side[j]]
                 for side in (ev.pos, ev.neg))


def test_build_operators_example31():
    s = HornSystem.make([[1, 2], [-1, -1], [0, -1]], ["1/3", "1/5", "1/7"])
    ev = _ClassFactors(s, ORIGIN)
    c1, c2, c3 = s.params
    assert layout(ev, 2) == ([((1, 2), 2, c1)], [((-1, -1), 1, c2), ((0, -1), 1, c3)])
    assert layout(ev, 1) == ([((1, 2), 1, c1)], [((-1, -1), 1, c2)])
    assert (ev.p_den[1], ev.q_den[1], ev.p_den[2], ev.q_den[2]) == (3, 5, 9, 35)


def test_build_operators_atomic_degrees():
    s = HornSystem.make([[3, 2], [-4, -3]], [0, 0])
    ev = _ClassFactors(s, ORIGIN)
    assert layout(ev, 1) == ([((3, 2), 3, 0)], [((-4, -3), 4, 0)])
    assert layout(ev, 2) == ([((3, 2), 2, 0)], [((-4, -3), 3, 0)])
    assert ev.p_den == ev.q_den == [1, 1, 1]


def test_build_operators_single_column():
    s = HornSystem.make([[1, 0], [-1, 0]], ["1/2", "1/3"])
    ev = _ClassFactors(s, ORIGIN)
    assert layout(ev, 1) == ([((1, 0), 1, F(1, 2))], [((-1, 0), 1, F(1, 3))])
    assert layout(ev, 2) == ([], [])
    assert (ev.p_den[1], ev.q_den[1], ev.p_den[2], ev.q_den[2]) == (2, 3, 1, 1)


def test_degree_bookkeeping_random():
    rng = random.Random(13)
    for _ in range(100):
        s = random_nonconfluent_system(rng)
        ev = _ClassFactors(s, ORIGIN)
        for j in (1, 2):
            entries = [(r.a if j == 1 else r.b, c) for r, c in zip(s.rows, s.params)]
            p_rows, q_rows = layout(ev, j)
            assert sum(e for _, e, _ in p_rows) == sum(a for a, _ in entries if a > 0)
            assert sum(e for _, e, _ in q_rows) == sum(-a for a, _ in entries if a < 0)
            assert ev.p_den[j] == math.prod(c.denominator ** a for a, c in entries if a > 0)
            assert ev.q_den[j] == math.prod(c.denominator ** -a for a, c in entries if a < 0)


def test_apply_horn_monomial_action():
    s = HornSystem.make([[1, 1], [-1, 0], [0, -1]], ["1/7", "-1/3", "-1/5"])
    alpha = (F(2, 3), F(-1, 2))
    f = PuiseuxPolynomial.monomial(alpha[0], alpha[1])
    for j, e_j in ((1, (1, 0)), (2, (0, 1))):
        res = apply_horn(j, f, s)
        want = PuiseuxPolynomial({
            (alpha[0] + e_j[0], alpha[1] + e_j[1]): factor_product(s, j, "p", alpha),
            alpha: -factor_product(s, j, "q", alpha),
        })
        assert res == want


def reference_residual(j, f, s):
    """x_j P_j(theta) f - Q_j(theta) f, term by term through factor_product."""
    e_j = (1, 0) if j == 1 else (0, 1)
    out = PuiseuxPolynomial.zero()
    for alpha, c in f.terms.items():
        out = out + PuiseuxPolynomial({
            (alpha[0] + e_j[0], alpha[1] + e_j[1]): c * factor_product(s, j, "p", alpha),
            alpha: -c * factor_product(s, j, "q", alpha),
        })
    return out


_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 9))
_offsets = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


@st.composite
def _anchored_systems(draw):
    """A system with entries in [-3, 3], a rational anchor, and parameters
    that make some rows integer-valued at the anchor, so factors vanish."""
    rows = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda r: r != (0, 0)),
        min_size=2, max_size=5))
    anchor = (draw(_rationals), draw(_rationals))
    params = []
    for a, b in rows:
        if draw(st.booleans()):
            params.append(draw(st.integers(-6, 6)) - a * anchor[0] - b * anchor[1])
        else:
            params.append(draw(_rationals))
    return HornSystem.make(rows, params), anchor


@settings(max_examples=100, deadline=None)
@given(_anchored_systems(), st.lists(_offsets, min_size=1, max_size=6))
def test_class_factors_match_affine_factors(system_anchor, offsets):
    s, anchor = system_anchor
    ev = evaluator_at(s, anchor)
    for d in offsets:
        alpha = (anchor[0] + d[0], anchor[1] + d[1])
        for j in (1, 2):
            assert F(ev.p_num(j, d), ev.p_den[j]) == factor_product(s, j, "p", alpha)
            assert F(ev.q_num(j, d), ev.q_den[j]) == factor_product(s, j, "q", alpha)


def test_product_closed_form_matches_the_factor_loop():
    """`_product` with its closed form for rows of q = 1 gives the factor
    loop's product (`product_by_factors`) on seeded rows: v on both sides
    of the vanishing window -e < v <= 0 and inside it, e up to 12, and
    rows with q > 1 mixed in, which stay on the loop."""
    from hornkit.operators import _product

    rng = random.Random(2024)
    seen = Counter()
    for _ in range(3000):
        rows = []
        for _ in range(rng.randint(1, 4)):
            e, q = rng.randint(1, 12), rng.choice((1, 1, 1, 2, 3, 7))
            n = rng.randint(-3 * e - 5, 3 * e + 5)
            if q > 1:
                n = n * q + rng.randint(1, q - 1)  # gcd(n, q) = 1 for q prime
            rows.append((n, q * rng.randint(-3, 3), q * rng.randint(-3, 3), q, e))
        d = (rng.randint(-4, 4), rng.randint(-4, 4))
        got = _product(rows, d)
        assert got == product_by_factors(rows, d), (rows, d)
        for n, qa, qb, q, e in rows:
            v = n + qa * d[0] + qb * d[1]
            if q == 1 and e > 1:
                seen["above" if v > 0 else "inside" if v > -e else "below"] += 1
        seen["zero" if got == 0 else "nonzero"] += 1
    assert min(seen.values()) > 300, seen


def _grown(ev, start, radius, early_exit):
    from hornkit.series import ResonantCollisionError, grow_component

    try:
        if early_exit:
            res = grow_component(ev, radius, start, {})
        else:
            res = grow_full(ev, radius, start)
    except ResonantCollisionError as exc:
        return "collision", exc.point
    return ("exceeds" if res.exceeded else "finite"), res.values


def test_walk_from_offset_matches_walk_from_anchor():
    """Growing from a start's offset on the evaluator built at its class
    point gives what growing on an evaluator anchored at the start gives:
    the same outcome, the same collision exponent, and the same values once
    shifted by the offset.  At resonant parameters, from every branch base
    point of the system, with and without early exit."""
    from hornkit.series import _branch_start, branch_base_points
    from hornkit.system import enumerate_atomic

    rng = random.Random(89)
    seen = Counter()
    for i in range(12):
        rows = random_nonconfluent_system(rng, max_m=4).rows
        den = (1, 2, 3)[i % 3]
        s = HornSystem.make(rows, [F(rng.randint(-8, 8), den) for _ in rows])
        for sub in enumerate_atomic(s):
            for k0 in branch_base_points(sub):
                key, o = _branch_start(sub, k0)
                at_class = _ClassFactors(s, key)
                at_start = _ClassFactors(s, key, o)
                for early_exit in (True, False):
                    got = _grown(at_class, o, 6, early_exit)
                    outcome, want = _grown(at_start, (0, 0), 6, early_exit)
                    if outcome != "collision":
                        want = {(d1 + o[0], d2 + o[1]): v for (d1, d2), v in want.items()}
                    assert got == (outcome, want), (s, k0, early_exit)
                    seen[outcome, early_exit, o != (0, 0)] += 1
    assert all(seen[outcome, early_exit, True] for outcome in ("finite", "exceeds", "collision")
               for early_exit in (True, False)), seen


@settings(max_examples=100, deadline=None)
@given(_anchored_systems(), st.lists(st.tuples(_offsets, _rationals), min_size=1, max_size=8),
       st.tuples(_rationals, _rationals))
def test_apply_horn_matches_reference(system_anchor, terms, other_anchor):
    # terms alternate between the anchor's class and a second class
    s, anchor = system_anchor
    f = PuiseuxPolynomial({
        ((anchor if k % 2 else other_anchor)[0] + d[0],
         (anchor if k % 2 else other_anchor)[1] + d[1]): c
        for k, (d, c) in enumerate(terms)
    })
    for j in (1, 2):
        assert apply_horn(j, f, s) == reference_residual(j, f, s)


def test_class_residual_matches_fraction_oracle(zonotope, triangle_sides):
    """The residual on integer pairs returns the dict that the Fraction body
    returned (`reference_class_residual`), and `apply_horn` assembles it.
    Seeded polynomials mix two classes, with negative coefficients and
    denominators up to 10^6; on the fixtures they are added to persistent
    solutions, so that some residual terms cancel and others do not."""
    from conftest import reference_class_residual
    from hornkit.operators import _by_class, _class_residual
    from hornkit.solver import persistent_solutions

    rng = random.Random(1601)

    def rational():
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    cases = [(s, f) for s in (zonotope, triangle_sides) for f in persistent_solutions(s)[:4]]
    cases += [(random_nonconfluent_system(rng), PuiseuxPolynomial.zero()) for _ in range(30)]
    checked = Counter()
    for s, base in cases:
        anchors = [(rational(), rational()) for _ in range(2)] + list(base.terms)[:2]
        noise = PuiseuxPolynomial({
            (a[0] + rng.randint(-3, 3), a[1] + rng.randint(-3, 3)): rational()
            for a in (rng.choice(anchors) for _ in range(rng.randint(1, 6)))})
        for f in (base.scale(rational()), base + noise, noise):
            if f.is_zero():
                continue
            parts = _by_class(f, s)
            for j in (1, 2):
                want = PuiseuxPolynomial.zero()
                for ev, pairs in parts:
                    got = _class_residual(ev, j, pairs)
                    ref = reference_class_residual(ev, j, {d: F(n, m) for d, (n, m) in pairs.items()})
                    assert got == ref, (s, f, j)
                    want.terms.update((_class_exponent(ev.key, d), v) for d, v in ref.items())
                    checked["zero" if not ref else "nonzero"] += 1
                assert apply_horn(j, f, s) == want
            checked["mixed"] += len(parts) > 1
    assert checked["zero"] and checked["nonzero"] and checked["mixed"], checked


def test_apply_horn_zero_residual_on_known_solution(triangle_sides):
    f = PuiseuxPolynomial.monomial(1, 1)
    assert apply_horn(1, f, triangle_sides).is_zero()
    assert apply_horn(2, f, triangle_sides).is_zero()


def test_apply_horn_linearity():
    rng = random.Random(17)
    s = random_nonconfluent_system(rng)
    f = PuiseuxPolynomial({(F(1, 2), F(0)): 3, (F(3, 2), F(1)): -2})
    g = PuiseuxPolynomial({(F(1, 2), F(1)): 5, (F(5, 2), F(2)): 7})
    a, b = F(3, 4), F(-2, 7)
    for j in (1, 2):
        lhs = apply_horn(j, f.scale(a) + g.scale(b), s)
        rhs = apply_horn(j, f, s).scale(a) + apply_horn(j, g, s).scale(b)
        assert lhs == rhs


def test_is_solution_monomial_inverse(triangle_simplex):
    assert is_solution(PuiseuxPolynomial.monomial(-1, -1), triangle_simplex)
    assert not is_solution(PuiseuxPolynomial.monomial(1, 0), triangle_simplex)


def test_is_solution_zonotope_quadrinomial(zonotope):
    f = PuiseuxPolynomial({(2, 4): 13068, (2, 3): 18900, (1, 3): 74529, (1, 2): 715715})
    assert is_solution(f, zonotope)
    assert not is_solution(PuiseuxPolynomial.monomial(1, 0), zonotope)


def test_is_solution_atomic_binomial(atomic_32_43):
    f = PuiseuxPolynomial({(-6, 8): 1, (-6, 9): F(-1, 3)})
    assert is_solution(f, atomic_32_43)


def test_is_solution_rejects_zero(zonotope):
    with pytest.raises(ValueError):
        is_solution(PuiseuxPolynomial.zero(), zonotope)


def test_intertwiner_scalar_annihilation():
    s = HornSystem.make([[1, 2], [-1, -1], [0, -1]], [1, 2, 3])
    # <A_1, alpha> + c_1 - 1 = 0 for alpha with alpha1 + 2*alpha2 = 0
    f = PuiseuxPolynomial.monomial(0, 0)
    assert apply_intertwiner(1, f, s).is_zero()


def test_intertwiner_example31_relations():
    rng = random.Random(19)
    rows = [[1, 2], [-1, -1], [0, -1]]
    for _ in range(20):
        c1, c2, c3 = (F(rng.randint(-40, 40), rng.randint(1, 23)) for _ in range(3))
        s = HornSystem.make(rows, [c1, c2, c3])

        def f1(a, b, c):
            return PuiseuxPolynomial.monomial(a + 2 * b, -a - b)

        assert apply_intertwiner(1, f1(c1 - 1, c2, c3), s).is_zero()
        assert apply_intertwiner(2, f1(c1, c2 - 1, c3), s).is_zero()
        got = apply_intertwiner(3, f1(c1, c2, c3 - 1), s)
        assert got == f1(c1, c2, c3).scale(c1 + c2 + c3 - 1)


def test_intertwiner_maps_solutions_to_solutions(zonotope):
    # persistent solutions of the shifted system map to solutions at c
    from hornkit.solver import persistent_solutions

    for j in (1, 4, 7):
        shifted_params = list(zonotope.params)
        shifted_params[j - 1] -= 1
        shifted = zonotope.with_params(shifted_params)
        for f in persistent_solutions(shifted):
            g = apply_intertwiner(j, f, zonotope)
            if not g.is_zero():
                assert is_solution(g, zonotope)


def test_intertwiner_injective_without_persistent_solutions():
    # when no pair index is positive there are no persistent solutions and
    # the intertwiners annihilate no truncated-series leading monomial
    from hornkit.counting import persistent_dim
    from hornkit.series import branch_base_points, branch_initial_exponent
    from hornkit.system import enumerate_atomic

    rng = random.Random(23)
    found = 0
    while found < 20:
        s = random_nonconfluent_system(rng, max_m=5)
        if persistent_dim(s) != 0:
            continue
        found += 1
        for j in range(1, s.m + 1):
            row, c = s.rows[j - 1], s.params[j - 1]
            for sub in enumerate_atomic(s):
                for k0 in branch_base_points(sub):
                    a0 = branch_initial_exponent(sub, k0)
                    scalar = row.a * a0[0] + row.b * a0[1] + c - 1
                    assert scalar != 0
