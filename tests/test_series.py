import itertools
import math
import random
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from conftest import (
    FIXTURE_NAMES,
    ConeQ,
    as_fraction,
    as_pair,
    escape_certified_by_sides,
    evaluator_at,
    exponent_at,
    factor_product,
    fill_pairwise,
    grow_full,
    integer_rows_by_gcd,
    load_expected,
    load_system,
    period_scan_base_points,
    random_nonconfluent_system,
    staircase_by_sorting,
)
from hornkit.counting import fully_supported_count
from hornkit.lattice import inverse_times
from hornkit.operators import _ClassFactors, is_solution
from hornkit.puiseux import PuiseuxPolynomial, _class_exponent
from hornkit.series import (
    _EXACT,
    ResonantCollisionError,
    _atomic_pair,
    _Quotient,
    _branch_start,
    _escape_certified,
    _fill,
    _staircase_in,
    _walk_support,
    branch_base_points,
    branch_initial_exponent,
    default_window,
    grow_component,
    harvest_polynomials,
    series_from_submatrix,
    verify_truncated,
)
from hornkit.system import HornSystem, enumerate_atomic


def ex21_system():
    # rank-1 system with unique solution x1^(-c1) x2^(-c2) (1-x1-x2)^(c1+c2-c3)
    # up to the sign convention x -> -x; parameters (c3, -c1, -c2)
    return load_system("example21")


def falling(a, k):
    out = F(1)
    for i in range(k):
        out *= a - i
    return out


def closed_form_coefficient(k1, k2):
    """Multinomial coefficient of x1^k1 x2^k2 in (1 - x1 - x2)^e for the
    example21 parameters; the independent oracle for the series table."""
    c1, c2, c3 = F(1, 3), F(1, 5), F(1, 7)
    e = c1 + c2 - c3
    return falling(e, k1 + k2) / (math.factorial(k1) * math.factorial(k2)) * (-1) ** (k1 + k2)


def test_series_normalized_at_base():
    s = ex21_system()
    t = series_from_submatrix(s, (1, 2), 0, 4)
    assert t.alpha0 == (F(-1, 3), F(-1, 5))
    assert as_fraction(t.coeffs[(0, 0)]) == 1


def test_series_matches_multinomial_oracle():
    s = ex21_system()
    t = series_from_submatrix(s, (1, 2), 0, 8)
    for k1 in range(0, 9):
        for k2 in range(0, 9):
            want = closed_form_coefficient(k1, k2) * (-1) ** (k1 + k2)
            assert as_fraction(t.coeffs.get((k1, k2), (0, 1))) == want
    assert verify_truncated(t, s)


def test_series_order_independence():
    """Regenerating each coefficient along either coordinate path agrees."""
    s = ex21_system()
    t = series_from_submatrix(s, (1, 2), 0, 8)
    x0, y0 = t.alpha0
    coeffs = {d: as_fraction(v) for d, v in t.coeffs.items()}
    for (d1, d2), v in coeffs.items():
        for j, step in ((1, (1, 0)), (2, (0, 1))):
            prev = (d1 - step[0], d2 - step[1])
            if prev in coeffs:
                num = factor_product(s, j, "p", (x0 + prev[0], y0 + prev[1]))
                den = factor_product(s, j, "q", (x0 + d1, y0 + d2))
                assert den != 0
                assert v == coeffs[prev] * num / den


def test_verify_truncated_detects_fault():
    s = ex21_system()
    t = series_from_submatrix(s, (1, 2), 0, 5)
    assert verify_truncated(t, s)
    t.coeffs[(2, 1)] = as_pair(as_fraction(t.coeffs[(2, 1)]) + 1)
    assert not verify_truncated(t, s)

    # generic parameters: the factor products have nontrivial denominators
    s = random_nonconfluent_system(random.Random(2), max_m=4)
    t = series_from_submatrix(s, enumerate_atomic(s)[0].indices, 0, 3)
    assert verify_truncated(t, s)
    d = max(t.coeffs)
    t.coeffs[d] = as_pair(as_fraction(t.coeffs[d]) * 2)
    assert not verify_truncated(t, s)


def test_perturbed_simplicial_series_matches_closed_form():
    c = F(1, 7)
    s = HornSystem.make([[1, 1], [1, -2], [-2, 1]], [-3, -1 - c, -1])
    t = series_from_submatrix(s, (1, 2), 0, 5)
    from hornkit.solver import simplicial_closed_form

    cf = simplicial_closed_form(((1, -2), (-2, 1)), (-1 - c, -1, -3))
    assert t.alpha0 == cf.prefactor
    outer = cf.factors[0][1]
    assert outer == 5 + c
    # oracle: multinomial expansion of (1 + x^(1/3,2/3) + x^(2/3,1/3))^outer
    want = {}
    for m in range(0, 25):
        for n in range(0, 25):
            coeff = falling(outer, m + n) / (math.factorial(m) * math.factorial(n))
            want[(cf.prefactor[0] + F(m + 2 * n, 3),
                  cf.prefactor[1] + F(2 * m + n, 3))] = coeff
    for d, v in t.coeffs.items():
        expt = (t.alpha0[0] + d[0], t.alpha0[1] + d[1])
        assert want.get(expt, F(0)) == as_fraction(v)


def support_cone(s: HornSystem, indices: tuple[int, int]) -> ConeQ:
    """Exponent-space cone of a branch's support: spanned by -A_I^{-1}e_1 and
    -A_I^{-1}e_2."""
    sub = _atomic_pair(s, indices)
    g1 = inverse_times(sub.rows, (1, 0))
    g2 = inverse_times(sub.rows, (0, 1))
    return ConeQ((-g1[0], -g1[1]), (-g2[0], -g2[1]))


def test_support_cone():
    s = HornSystem.make([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, "1/2", "1/3", "1/5"])
    cone = support_cone(s, (0, 1))
    assert cone.contains((F(-1), F(0))) and cone.contains((F(0), F(-1)))
    assert not cone.contains((F(1), F(0)))

    at = HornSystem.make([[3, 2], [-4, -3]], ["1/3", "1/5"])
    cone = support_cone(at, (0, 1))
    assert cone.contains((F(-3), F(4))) and cone.contains((F(-2), F(3)))

    # a pair may be given in either order
    assert support_cone(at, (1, 0)) == cone
    assert series_from_submatrix(at, (1, 0), 0, 3) == series_from_submatrix(at, (0, 1), 0, 3)

    # a parallel pair, a repeated row and a pair past the last row are no
    # atomic pairs
    sq = HornSystem.make([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, "1/2", "1/3", "1/5"])
    for indices in ((0, 1), (1, 0), (2, 2), (0, 4)):
        for call in (lambda: support_cone(sq, indices),
                     lambda: series_from_submatrix(sq, indices, 0, 3)):
            with pytest.raises(ValueError, match="degenerate or out of range"):
                call()


def test_series_support_in_cone():
    s = ex21_system()
    for sub in enumerate_atomic(s):
        cone = support_cone(s, sub.indices)
        for branch in range(len(branch_base_points(sub))):
            t = series_from_submatrix(s, sub.indices, branch, 5)
            for d in t.coeffs:
                assert cone.contains((F(d[0]), F(d[1])))


def test_branch_count_matches_fully_supported_count():
    rng = random.Random(53)
    for _ in range(20):
        s = random_nonconfluent_system(rng, max_m=6)
        n_branches = sum(len(branch_base_points(sub)) for sub in enumerate_atomic(s))
        assert n_branches == fully_supported_count(s)
        results = harvest_polynomials(s, 6)
        assert len(results) >= 1
        # every exploration is accounted for: finite results are deduped
        finite = [r for r in results if r.outcome == "finite"]
        other = [r for r in results if r.outcome != "finite"]
        assert len(other) <= n_branches
        assert len({frozenset(r.polynomial.terms.items()) for r in finite}) == len(finite)


def test_harvest_zonotope(zonotope):
    results = harvest_polynomials(zonotope, 20)
    finite = [r for r in results if r.outcome == "finite"]
    assert len(finite) == 31
    exp = load_expected("zonotope")
    listed = {PuiseuxPolynomial.from_json(t).normalized()
              for t in exp["persistent_solutions"] + exp["nonpersistent_solutions"]}
    got = {r.polynomial.normalized() for r in finite}
    assert got == listed
    from hornkit.solver import independent_dimension

    assert independent_dimension([r.polynomial for r in finite]) == 31


def test_harvest_triangle_simplex(triangle_simplex):
    results = harvest_polynomials(triangle_simplex, 12)
    finite = [r for r in results if r.outcome == "finite"]
    assert len(finite) == 4
    exp = load_expected("triangle_simplex")
    listed = {PuiseuxPolynomial.from_json(t).normalized() for t in exp["pure_basis"]}
    assert {r.polynomial.normalized() for r in finite} == listed


def test_harvest_quadrilateral_under_rank(quadrilateral):
    from hornkit.counting import holonomic_rank

    finite = [r for r in harvest_polynomials(quadrilateral, 12) if r.outcome == "finite"]
    assert len(finite) < holonomic_rank(quadrilateral)


def test_harvest_finite_results_verify(triangle_sides):
    for r in harvest_polynomials(triangle_sides, 16):
        if r.outcome == "finite":
            assert is_solution(r.polynomial, triangle_sides)


def box_verify_truncated(t, s):
    """The box loop `verify_truncated` ran before it read the residual:
    every relation P_j(d) u(d) = Q_j(d + e_j) u(d + e_j) with both ends in
    the (2w+1)^2 window box, absent points read as zeros."""
    ev = evaluator_at(s, t.alpha0)
    w = t.window
    coeffs = {d: as_fraction(v) for d, v in t.coeffs.items()}
    for d1 in range(-w, w + 1):
        for d2 in range(-w, w + 1):
            d = (d1, d2)
            u = coeffs.get(d, 0)
            for j, (s1, s2) in ((1, (1, 0)), (2, (0, 1))):
                nxt = (d1 + s1, d2 + s2)
                if max(abs(nxt[0]), abs(nxt[1])) > w:
                    continue
                v = coeffs.get(nxt, 0)
                lhs = ev.p_num(j, d) * ev.q_den[j] * u.numerator * v.denominator
                rhs = ev.q_num(j, nxt) * ev.p_den[j] * v.numerator * u.denominator
                if lhs != rhs:
                    return False
    return True


def test_verify_truncated_agrees_with_box_loop():
    """The residual reading and the box loop agree on seeded tables, as
    grown and with one entry changed, deleted, or planted on the box edge,
    at a corner, inside the box or just outside it."""
    from hornkit.series import TruncatedSeries

    rng = random.Random(37)
    verdicts = Counter()
    tables = 0
    while tables < 70:
        rows = random_nonconfluent_system(rng, max_m=5).rows
        den = (1, 2, 3, 10**5 + 3)[tables % 4]
        s = HornSystem.make(rows, [F(rng.randint(-6, 6), den) for _ in rows])
        sub = rng.choice(enumerate_atomic(s))
        try:
            table = series_from_submatrix(s, sub.indices, 0, rng.randint(1, 4))
        except ResonantCollisionError:
            continue
        tables += 1
        w = table.window
        for kind in ("grown", "changed", "deleted", "edge", "corner", "inside", "outside"):
            coeffs = {d: as_fraction(v) for d, v in table.coeffs.items()}
            d = rng.choice(sorted(coeffs))
            e = rng.randint(-w, w)
            if kind == "changed":
                coeffs[d] = coeffs[d] * rng.choice((2, -1, F(1, 3))) + rng.randint(0, 1)
            elif kind == "deleted":
                del coeffs[d]
            elif kind != "grown":
                point = {"edge": rng.choice(((w, e), (-w, e), (e, w), (e, -w))),
                         "corner": (rng.choice((-w, w)), rng.choice((-w, w))),
                         "inside": (rng.randint(-w, w), rng.randint(-w, w)),
                         "outside": rng.choice(((w + 1, e), (e, -w - 1)))}[kind]
                coeffs[point] = F(rng.randint(1, 9), rng.randint(1, 9))
            t = TruncatedSeries(table.indices, 0, table.alpha0,
                                {d: as_pair(v) for d, v in coeffs.items()}, w)
            want = box_verify_truncated(t, s)
            assert verify_truncated(t, s) is want, (s, kind, coeffs)
            verdicts[kind, want] += 1
    assert verdicts["grown", True] == verdicts["outside", True] == 70
    for kind in ("changed", "deleted", "edge", "corner"):
        assert verdicts[kind, False] > 0, verdicts


def test_verify_truncated_on_finite_support(triangle_simplex):
    # a finite-support table has every relation interior: the truncated check
    # coincides with full solution checking
    from hornkit.series import TruncatedSeries, grow_component

    alpha0 = (F(-1), F(-1))
    grown = grow_component(evaluator_at(triangle_simplex, alpha0), 10)
    assert not grown.exceeded
    t = TruncatedSeries((1, 2), 0, alpha0, {d: as_pair(v) for d, v in grown.values.items()}, 10)
    assert verify_truncated(t, triangle_simplex)
    poly = PuiseuxPolynomial({(alpha0[0] + d[0], alpha0[1] + d[1]): as_fraction(v)
                              for d, v in t.coeffs.items()})
    assert is_solution(poly, triangle_simplex)


def test_resonant_collision_reported():
    # a denominator factor hits zero while the numerator stays alive: the
    # walk from (-3, 0) is forced one step right onto a vanishing Q_1
    s = HornSystem.make([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, -2, 0, 0])
    with pytest.raises(ResonantCollisionError):
        grow_component(_ClassFactors(s, (0, 1, 0, 1), (-3, 0)), 5)


def test_resonant_collisions_are_zero_denominators():
    """At resonant parameters every collision the walk meets is a vanishing
    denominator against a live numerator, never two paths disagreeing."""
    def zero_denominator_at(s, beta):
        for j, (s1, s2) in ((1, (1, 0)), (2, (0, 1))):
            fwd = (beta[0] + s1, beta[1] + s2)
            bwd = (beta[0] - s1, beta[1] - s2)
            if factor_product(s, j, "p", beta) != 0 and factor_product(s, j, "q", fwd) == 0:
                return True
            if factor_product(s, j, "q", beta) != 0 and factor_product(s, j, "p", bwd) == 0:
                return True
        return False

    rng = random.Random(29)
    collisions = 0
    for _ in range(60):
        rows = random_nonconfluent_system(rng, max_m=5).rows
        s = HornSystem.make(rows, [F(rng.randint(-12, 12), 2) for _ in rows])
        for sub in enumerate_atomic(s):
            for k0 in branch_base_points(sub):
                alpha0 = branch_initial_exponent(sub, k0)
                for grow in (grow_component, grow_full):
                    try:
                        grow(_ClassFactors(s, *_branch_start(sub, k0)), 8)
                    except ResonantCollisionError as exc:
                        collisions += 1
                        assert zero_denominator_at(s, exc.point), (s, alpha0, exc.point)
    assert collisions > 0


def test_escape_certificate_sound():
    """Every start the certificate proves escaping is one the support walk
    reports exceeded, at resonant parameters where walks close off and
    collide."""
    rng = random.Random(83)
    certified = 0
    for i in range(200):
        rows = random_nonconfluent_system(rng, max_m=5).rows
        den = (1, 2, 3)[i % 3]
        s = HornSystem.make(rows, [F(rng.randint(-8, 8), den) for _ in rows])
        for sub in enumerate_atomic(s):
            for k0 in branch_base_points(sub):
                ev = _ClassFactors(s, *_branch_start(sub, k0))
                for window in (6, 20):
                    if _escape_certified(ev, (0, 0), window):
                        certified += 1
                        assert _walk_support(ev, (0, 0), window, True)[1], \
                            (s, ev.key, ev.base, window)
    assert certified > 2000, certified


def test_escape_certificate_covers_quadrilateral(quadrilateral, monkeypatch):
    """At the default window no escaping start of the quadrilateral reaches
    the support walk: the certificate decides them all."""
    import hornkit.series as series

    walked = []

    def counted(ev, start, radius, early_exit):
        walked.append(exponent_at(ev, start))
        return _walk_support(ev, start, radius, early_exit)

    monkeypatch.setattr(series, "_walk_support", counted)
    results = harvest_polynomials(quadrilateral, default_window(quadrilateral))
    escapes = [r.initial_exponent for r in results if r.outcome == "exceeds_window"]
    assert escapes and walked
    assert not set(escapes) & set(walked)


def test_escape_certificate_negative_cases():
    # the box -2 <= d1, d2 <= 1 with every row <= 0 at offset 0: R is
    # bounded, so nothing is certified, not even at a radius the walk leaves
    box = HornSystem.make([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, -3, 0, -3])
    ev = _ClassFactors(box, (0, 1, 0, 1), (-1, -1))
    assert not _walk_support(ev, (0, 0), 5, True)[1]
    assert _walk_support(ev, (0, 0), 1, True)[1]
    for radius in (0, 1, 5):
        assert not _escape_certified(ev, (0, 0), radius)
    # row (1, 0) takes the value 1 > 0 at offset 0, and the backward 1-step
    # collides; the staircase to (-1, 0) alone would lie in R
    quad = HornSystem.make([[1, 0], [0, 1]], [0, 0])
    ev = _ClassFactors(quad, (0, 1, 0, 1), (1, 0))
    with pytest.raises(ResonantCollisionError):
        _walk_support(ev, (0, 0), 5, True)
    for radius in (0, 1, 5, 50):
        assert not _escape_certified(ev, (0, 0), radius)


def test_escape_certificate_thin_cone():
    """Rows (3,2), (-4,-3) keep R inside the wedge between (-2,3) and
    (-3,4): no axis ray stays in it, but the staircase to (-2,3) does."""
    s = HornSystem.make([[3, 2], [-4, -3]], ["1/3", "1/5"])
    (sub,) = enumerate_atomic(s)
    for e in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert any(r.a * e[0] + r.b * e[1] > 0 for r in s.rows)
    for k0, escapes in (((0, 0), False), ((1, 1), False), ((2, 2), True), ((5, 3), True)):
        ev = _ClassFactors(s, *_branch_start(sub, k0))
        assert sorted(n for n, *_ in ev.p_int[1] + ev.q_int[1]) == sorted((-k0[0], -k0[1]))
        assert _walk_support(ev, (0, 0), 30, True)[1] is escapes
        assert _escape_certified(ev, (0, 0), 30) is escapes


def certificate_systems():
    """The 8 fixtures dilated by 1, 2 and 3, and the rows that
    `random_nonconfluent_system` draws from seeds 0-39, each at its own
    parameters, at generic ones (large denominators) and at integers."""
    rng = random.Random(4242)
    bases = [load_system(name) for name in FIXTURE_NAMES]
    bases += [random_nonconfluent_system(random.Random(seed), max_m=5) for seed in range(40)]
    for k, base in itertools.product((1, 2, 3), bases):
        if k > 1 and base.name == "":
            continue
        rows = [(k * r.a, k * r.b) for r in base.rows]
        yield HornSystem.make(rows, base.params)
        yield HornSystem.make(rows, [F(rng.randint(1, 10**6), 10**6 + rng.randint(1, 97))
                                     for _ in rows])
        yield HornSystem.make(rows, [rng.randint(-6, 4) for _ in rows])


def test_escape_certificate_agrees_with_the_four_sides_one():
    """The certificate on one row list, with candidate directions shared
    across a run's starts, decides every start as the certificate that
    scanned the four sides and found its candidates per start did
    (`escape_certified_by_sides`), on the starts of every row pair of
    `certificate_systems`, at two windows."""
    seen = Counter()
    for s in certificate_systems():
        directions = {}
        for sub in enumerate_atomic(s):
            for k0 in branch_base_points(sub):
                key, o = _branch_start(sub, k0)
                ev = _ClassFactors(s, key)
                for window in (4, 12):
                    got = _escape_certified(ev, o, window, directions)
                    assert got == escape_certified_by_sides(ev, o, window), (s, key, o, window)
                    seen[got] += 1
    assert seen[True] > 2000 and seen[False] > 2000, seen


def test_candidate_directions_once_per_direction_set(monkeypatch):
    """A `grow_starts` run computes the certificate's candidate directions
    once for each set of integer-row directions its starts reach them with,
    and reuses them for every later start with that set."""
    import hornkit.series as series

    computed, used = Counter(), Counter()
    candidates, certified = series._recession_candidates, series._escape_certified

    def counted_candidates(int_dirs):
        computed[int_dirs] += 1
        return candidates(int_dirs)

    def counted_certified(ev, start, radius, directions=None):
        got = certified(ev, start, radius, directions)
        if directions is not None and ev.int_dirs in directions:
            used[ev.int_dirs] += 1
        return got

    monkeypatch.setattr(series, "_recession_candidates", counted_candidates)
    monkeypatch.setattr(series, "_escape_certified", counted_certified)
    totals = Counter()
    for s in itertools.islice(certificate_systems(), 0, None, 4):
        computed.clear()
        used.clear()
        harvest_polynomials(s, 10)
        assert set(computed) == set(used) and set(computed.values()) <= {1}, s
        totals["computed"] += len(computed)
        totals["used"] += sum(used.values())
    assert totals["used"] > 5 * totals["computed"] > 500, totals


def test_covered_start_is_walked_when_its_support_does_not_fit(monkeypatch):
    """A start on a support of `known` is walked, not reported, when the
    support does not fit the window box around the start, and skipped when
    it does: on the harvest starts of the zonotope, triangle_sides and
    triangle_simplex fixtures at windows 0-5, against the supports their
    harvest finds at the default window."""
    import hornkit.series as series
    from hornkit.series import _pair_constants, _start_of, grow_starts

    walked = []
    grow = series.grow_component

    def recorded(ev, radius, start=(0, 0), directions=None):
        walked.append((ev.key, start))
        return grow(ev, radius, start, directions)

    seen = Counter()
    for name in ("zonotope", "triangle_sides", "triangle_simplex"):
        s = load_system(name)
        starts = [(sub, b, k0) for sub in enumerate_atomic(s)
                  for b, k0 in enumerate(branch_base_points(sub))]
        known = [r.polynomial for r in grow_starts(s, starts, default_window(s))
                 if r.outcome == "finite"]
        support = {(p.key, d): p for p in known for d in p.coeffs}
        monkeypatch.setattr(series, "grow_component", recorded)
        for window in range(6):
            walked.clear()
            results = grow_starts(s, starts, window, known)
            for sub, _, k0 in starts:
                key, o = _start_of(_pair_constants(sub), k0)
                p = support.get((key, o))
                if p is None:
                    continue
                fits = all(max(abs(x - o[0]), abs(y - o[1])) <= window for x, y in p.coeffs)
                assert ((key, o) in walked) is not fits, (name, window, key, o)
                seen["fits" if fits else "walked"] += 1
            finite = [r.polynomial for r in results if r.outcome == "finite"]
            assert all(any(p is q for q in known) for p in finite)
        monkeypatch.setattr(series, "grow_component", grow)
    assert seen["fits"] > 200 and seen["walked"] > 200, seen


def test_branch_initial_exponent_matches_inverse():
    """The integer start formula gives -A_I^{-1}(k0 + c_I) exactly."""
    from hornkit.lattice import inverse_times

    rng = random.Random(71)
    for _ in range(300):
        rows = [(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(2)]
        if rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
            continue
        params = [F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(2)]
        (sub,) = enumerate_atomic(HornSystem.make(rows, params))
        for k0 in branch_base_points(sub)[:5]:
            w = inverse_times(sub.rows, (k0[0] + sub.params[0], k0[1] + sub.params[1]))
            assert branch_initial_exponent(sub, k0) == (-w[0], -w[1]), (rows, params, k0)


def test_harvest_builds_one_evaluator_per_class(monkeypatch):
    """One harvest builds one `_ClassFactors` per exponent class mod Z^2 of
    its starts, at the class point, and walks every start on the class from
    its offset on that evaluator."""
    base = load_system("zonotope")
    s = HornSystem.make([(2 * r.a, 2 * r.b) for r in base.rows], base.params)
    starts = [branch_initial_exponent(sub, k0)
              for sub in enumerate_atomic(s) for k0 in branch_base_points(sub)]
    classes = {(x - math.floor(x), y - math.floor(y)) for x, y in starts}
    assert len(classes) < len(starts)
    built = []
    init = _ClassFactors.__init__

    def counted(self, system, key, base=(0, 0)):
        built.append(_class_exponent(key, base))
        init(self, system, key, base)

    monkeypatch.setattr(_ClassFactors, "__init__", counted)
    results = harvest_polynomials(s, default_window(s))
    assert any(r.outcome == "finite" for r in results)
    assert len(built) == len(classes)
    assert set(built) == classes


def test_harvest_builds_no_fraction(monkeypatch):
    """`grow_starts` keeps every start in integers: a run on the starts that
    escape at generic parameters, as in the generic-escape workload, builds
    no Fraction, nor does a whole harvest on the systems of
    `harvest_systems`, where starts also close off and collide.  A start's
    exponents are built only when read: one `_class_exponent` for each
    `initial_exponent` or `collision_point` read, and none before."""
    import hornkit.series as series

    built, exponents = Counter(), Counter()
    new, class_exponent = F.__new__, series._class_exponent

    def counted_new(cls, *args, **kwargs):
        built["fractions"] += 1
        return new(cls, *args, **kwargs)

    def counted_exponent(key, d):
        exponents["calls"] += 1
        return class_exponent(key, d)

    def grown(s, starts, window):
        monkeypatch.setattr(F, "__new__", counted_new)
        try:
            return series.grow_starts(s, starts, window)
        finally:
            monkeypatch.setattr(F, "__new__", new)

    monkeypatch.setattr(series, "_class_exponent", counted_exponent)
    seen = Counter()
    for seed in range(8):
        s = random_nonconfluent_system(random.Random(seed), max_m=5)
        window = default_window(s)
        starts = [(sub, b, k0) for sub in enumerate_atomic(s)
                  for b, k0 in enumerate(branch_base_points(sub))]
        escaping = [start for start, r in zip(starts, series.grow_starts(s, starts, window))
                    if r.outcome == "exceeds_window"]
        built.clear()
        exponents.clear()
        results = grown(s, escaping, window)
        assert built["fractions"] == exponents["calls"] == 0, (s, built, exponents)
        assert all(r.outcome == "exceeds_window" for r in results)
        got = [r.initial_exponent for r in results]
        assert exponents["calls"] == len(results)
        assert got == [branch_initial_exponent(sub, k0) for sub, _, k0 in escaping]
        seen["escapes"] += len(results)
    for s, window in harvest_systems():
        starts = [(sub, b, k0) for sub in enumerate_atomic(s)
                  for b, k0 in enumerate(branch_base_points(sub))]
        built.clear()
        exponents.clear()
        results = grown(s, starts, window)
        assert built["fractions"] == exponents["calls"] == 0, (s, built, exponents)
        reads = 0
        for r in results:
            if r.outcome == "resonant_collision":
                assert r.collision_point is not None
                reads += 1
            if r.outcome != "exceeds_window":
                assert r.initial_exponent is not None
                reads += 1
            seen[r.outcome] += 1
        assert exponents["calls"] == reads
    assert seen["escapes"] > 50 and seen["exceeds_window"] > 500, seen
    assert seen["finite"] > 100 and seen["resonant_collision"] > 20, seen


def test_harvest_builds_factor_lists_only_for_finite_classes(monkeypatch):
    """A class's rational factor lists are built once, exactly when one of
    its starts reaches a finite support; a class whose starts all escape or
    collide costs integer work only.  On the systems of `harvest_systems`,
    every evaluator's `p_int`/`q_int` is the gcd-reduced one
    (`integer_rows_by_gcd`), and every staircase of the escape certificate
    decides as the sorting one did (`staircase_by_sorting`)."""
    import hornkit.series as series

    evaluators, lists_built, staircases = [], Counter(), Counter()
    init, build, staircase = _ClassFactors.__init__, _ClassFactors._factor_lists, _staircase_in

    def counted_init(self, system, key, base=(0, 0)):
        init(self, system, key, base)
        evaluators.append((self, system))

    def counted_build(self):
        lists_built[exponent_at(self, (0, 0))] += 1
        build(self)

    def checked_staircase(rows, w, radius):
        got = staircase(rows, w, radius)
        assert got == staircase_by_sorting(rows, w, radius), (rows, w, radius)
        staircases[got] += 1
        return got

    monkeypatch.setattr(_ClassFactors, "__init__", counted_init)
    monkeypatch.setattr(_ClassFactors, "_factor_lists", counted_build)
    monkeypatch.setattr(series, "_staircase_in", checked_staircase)
    seen = Counter()
    for s, window in harvest_systems():
        evaluators.clear()
        lists_built.clear()
        results = harvest_polynomials(s, window)
        finite = {(x - math.floor(x), y - math.floor(y))
                  for r in results if r.outcome == "finite" for x, y in [r.initial_exponent]}
        assert set(lists_built) == finite and set(lists_built.values()) <= {1}, s
        for ev, system in evaluators:
            anchor = exponent_at(ev, (0, 0))
            assert (ev.p_int, ev.q_int) == integer_rows_by_gcd(system, anchor), anchor
        seen["classes"] += len(evaluators)
        seen["finite classes"] += len(finite)
        seen["escapes"] += sum(r.outcome == "exceeds_window" for r in results)
        seen["collisions"] += sum(r.outcome == "resonant_collision" for r in results)
    assert seen["classes"] - seen["finite classes"] > 500 and seen["finite classes"] > 100, seen
    assert seen["escapes"] > 500 and seen["collisions"] > 20, seen
    assert staircases[True] > 500 and staircases[False] > 100, staircases


def test_staircase_matches_the_sorting_one_on_random_rows():
    """`_staircase_in` decides as `staircase_by_sorting` on seeded rows,
    directions and radii, beyond the recession directions the certificate
    passes it: about one case in a thousand here turns on the tie rule, the
    first axis first."""
    rng = random.Random(97)
    outcomes = Counter()
    for _ in range(20000):
        rows = {(rng.randint(-6, 0), rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 4))}
        w = (rng.randint(-5, 5), rng.randint(-5, 5))
        radius = rng.randint(1, 8)
        if w != (0, 0):
            got = _staircase_in(rows, w, radius)
            assert got == staircase_by_sorting(rows, w, radius), (rows, w, radius)
            outcomes[got] += 1
    assert min(outcomes.values()) > 1000, outcomes


@pytest.mark.parametrize("axis", [0, 1])
def test_residual_guard_raises(axis, monkeypatch, zonotope, atomic_32_43):
    """A finite support whose fill breaks a relation raises AssertionError
    from every route to a solution: the harvest, persistent solutions and
    atomic strip polynomials.  Doubling every value off the line through
    the start, d[axis] = start[axis], breaks the relations of equation
    axis + 1 alone."""
    import hornkit.series as series
    from hornkit.atomic import persistent_polynomials
    from hornkit.solver import persistent_solutions

    fill = series._fill

    def corrupted(ev, start, edges, one):
        values = fill(ev, start, edges, one)
        return {d: (n * 2, m) if d[axis] != start[axis] else (n, m)
                for d, (n, m) in values.items()}

    monkeypatch.setattr(series, "_fill", corrupted)
    (pair,) = enumerate_atomic(atomic_32_43)
    for call in (lambda: harvest_polynomials(zonotope, 20),
                 lambda: persistent_solutions(atomic_32_43),
                 lambda: persistent_polynomials(pair)):
        with pytest.raises(AssertionError, match="fails the operators"):
            call()


@pytest.mark.parametrize("j", [1, 2])
def test_residual_guard_raises_on_a_dropped_point(j, monkeypatch, zonotope, atomic_32_43):
    """A fill that drops one support point, an end of a walked e_j relation,
    breaks equation j where the point was and one e_j step past it, the
    terms that the residual reads off the support.  Every route to a
    solution raises AssertionError on it.  For j = 2 the point has no e_1
    neighbour in the support, so equation 1, which the guard checks first,
    still holds there."""
    import hornkit.series as series
    from hornkit.atomic import persistent_polynomials
    from hornkit.operators import _class_residual
    from hornkit.solver import persistent_solutions

    fill = series._fill
    dropped = []

    def corrupted(ev, start, edges, one):
        values = fill(ev, start, edges, one)
        ends = [p for a, b, step, _ in edges if step == j for p in (a, b)]
        if j == 2:
            ends = [(x, y) for x, y in ends if (x - 1, y) not in values and (x + 1, y) not in values]
        if ends:
            del values[ends[0]]
            dropped.append(ends[0])
            assert _class_residual(ev, j, values)
            assert j == 1 or not _class_residual(ev, 1, values)
        return values

    monkeypatch.setattr(series, "_fill", corrupted)
    (pair,) = enumerate_atomic(atomic_32_43)
    for call in (lambda: harvest_polynomials(zonotope, 20),
                 lambda: persistent_solutions(atomic_32_43),
                 lambda: persistent_polynomials(pair)):
        dropped.clear()
        with pytest.raises(AssertionError, match="fails the operators"):
            call()
        assert dropped


# -- the fill's unit-square check ----------------------------------------------


TABLE_FIXTURES = ("quadrilateral", "simplicial22", "example21", "example31")


def table_walks():
    """(ev, start, edges, one) of every series table of the series-tables
    fixtures (40 tables) at windows 0, 1, 8 and 24, as
    `series_from_submatrix` walks and fills them."""
    for name in TABLE_FIXTURES:
        s = load_system(name)
        for sub in enumerate_atomic(s):
            for k0 in branch_base_points(sub):
                ev = _ClassFactors(s, *_branch_start(sub, k0))
                for window in (0, 1, 8, 24):
                    yield ev, (0, 0), _walk_support(ev, (0, 0), window, False)[0], Decimal(1)


def harvest_systems():
    """(system, window) of all 8 fixtures at their default window, and of
    the systems of seeds 0-59 with small-denominator parameters at window
    10."""
    for name in FIXTURE_NAMES:
        s = load_system(name)
        yield s, default_window(s)
    for seed in range(60):
        rng = random.Random(seed)
        rows = random_nonconfluent_system(rng, max_m=5).rows
        yield HornSystem.make(rows, [F(rng.randint(-9, 9), seed % 3 + 1) for _ in rows]), 10


def harvest_walks():
    """(ev, start, edges, one) of every finite support that the harvest
    fills, on the systems of `harvest_systems`."""
    for s, window in harvest_systems():
        for sub in enumerate_atomic(s):
            for k0 in branch_base_points(sub):
                key, o = _branch_start(sub, k0)
                ev = _ClassFactors(s, key)
                if _escape_certified(ev, o, window):
                    continue
                try:
                    edges, exceeded = _walk_support(ev, o, window, True)
                except ResonantCollisionError:
                    continue
                if not exceeded:
                    yield ev, o, edges, 1


def test_fill_matches_the_pairwise_oracle():
    """The tree fill with its unit-square check returns the pairs, in the
    same order, that the fill comparing both ends of every relation
    (`fill_pairwise`) returns: on every series-tables table at windows 0, 1,
    8 and 24, in `Decimal` integers, and on the finite harvest supports of
    the fixtures and of seeded systems, in Python ints."""
    seen = Counter()
    for kind, walks in (("table", table_walks()), ("support", harvest_walks())):
        for ev, start, edges, one in walks:
            with localcontext(_EXACT):
                got = _fill(ev, start, edges, one)
                want = fill_pairwise(ev, start, edges, one)
            assert list(got.items()) == list(want.items()), (ev.key, start)
            seen[kind] += 1
            seen[kind + " squares"] += len(edges) - len(got) + 1
    assert seen["table"] == 160 and seen["support"] > 300, seen
    assert seen["table squares"] > 15000 and seen["support squares"] > 500, seen


def test_walked_supports_have_only_unit_square_faces():
    """The premise of `grow_component`'s lemma, read off the walk alone:
    every lattice edge between two walked points is a walked relation, and
    the walked relations close exactly one unit square per relation off the
    spanning tree."""
    for ev, start, edges, _ in itertools.chain(table_walks(), harvest_walks()):
        support = {start} | {b for _, b, _, _ in edges}
        walked = {(a, j) if forward else (b, j) for a, b, j, forward in edges}
        assert len(walked) == len(edges)
        lattice = {((x, y), j) for x, y in support
                   for j, nxt in ((1, (x + 1, y)), (2, (x, y + 1))) if nxt in support}
        assert walked == lattice, (ev.key, start)
        squares = sum(((x, y), 2) in walked and ((x + 1, y), 2) in walked
                      and ((x, y + 1), 1) in walked
                      for (x, y), j in walked if j == 1)
        assert squares == len(edges) - len(support) + 1, (ev.key, start)


@pytest.mark.parametrize("j", [1, 2])
def test_square_check_catches_a_corrupted_step_ratio(j, quadrilateral, monkeypatch):
    """Doubling P_j at one interior point of a quadrilateral table breaks
    the unit squares on its relation, and the table fill raises.  That
    point's e_1 relation is on the walk's spanning tree, its e_2 relation
    off it."""
    table = series_from_submatrix(quadrilateral, (0, 1), 0, 6)
    x, y = next((x, y) for x, y in table.coeffs
                if all((x + u, y + v) in table.coeffs for u in (-1, 0, 1) for v in (-1, 0, 1)))
    p_num = _ClassFactors.p_num

    def corrupted(self, jj, d):
        return p_num(self, jj, d) * (2 if (jj, d) == (j, (x, y)) else 1)

    monkeypatch.setattr(_ClassFactors, "p_num", corrupted)
    with pytest.raises(AssertionError, match="step ratios disagree"):
        series_from_submatrix(quadrilateral, (0, 1), 0, 6)


def test_square_count_check_catches_a_ring():
    """A walk of the eight points around a missing centre has one relation
    off its spanning tree but no unit square with all four relations: the
    ratios agree around the ring, as they telescope, yet the fill raises on
    the count."""
    ev = _ClassFactors(load_system("quadrilateral"), (1, 3, 2, 7))
    ring = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)]
    assert all(ev.p_num(j, d) and ev.q_num(j, d) for j in (1, 2) for d in ring)
    edges = [((-1, -1), (0, -1), 1, True), ((0, -1), (1, -1), 1, True),
             ((1, -1), (1, 0), 2, True), ((1, 0), (1, 1), 2, True),
             ((1, 1), (0, 1), 1, False), ((0, 1), (-1, 1), 1, False),
             ((-1, 1), (-1, 0), 2, False), ((-1, -1), (-1, 0), 2, True)]
    assert fill_pairwise(ev, (-1, -1), edges, 1).keys() == set(ring)
    with pytest.raises(AssertionError, match="unit squares: 0, relations off the spanning tree: 1"):
        _fill(ev, (-1, -1), edges, 1)


def test_default_window_formula(zonotope):
    from hornkit.counting import holonomic_rank

    assert default_window(zonotope) == 4 * (holonomic_rank(zonotope) + 8 * 3)


# -- the coefficient walk and the shell scan, kept as oracles ------------------


def coefficient_walk(s, alpha0, radius, early_exit=True):
    """The grower before the support walk: it carries coefficients along the
    depth-first walk, compares both ends of every live relation, and returns
    (values, exceeded); with early_exit it stops at the first step past the
    radius box."""
    ev = evaluator_at(s, alpha0)
    values = {(0, 0): F(1)}
    stack = [(0, 0)]
    exceeded = False
    while stack:
        d = stack.pop()
        u = values[d]
        for j, (s1, s2) in ((1, (1, 0)), (2, (0, 1))):
            fwd = (d[0] + s1, d[1] + s2)
            pv = ev.p_num(j, d)
            if pv:
                qv = ev.q_num(j, fwd)
                if not qv:
                    raise ResonantCollisionError(ev.key, ev.on_class(d))
                v = u * F(pv * ev.q_den[j], qv * ev.p_den[j])
                if max(abs(fwd[0]), abs(fwd[1])) > radius:
                    exceeded = True
                    if early_exit:
                        return values, True
                elif fwd in values:
                    if values[fwd] != v:
                        raise ResonantCollisionError(ev.key, ev.on_class(fwd))
                else:
                    values[fwd] = v
                    stack.append(fwd)
            bwd = (d[0] - s1, d[1] - s2)
            qv0 = ev.q_num(j, d)
            if qv0:
                pv0 = ev.p_num(j, bwd)
                if not pv0:
                    raise ResonantCollisionError(ev.key, ev.on_class(d))
                v = u * F(qv0 * ev.p_den[j], pv0 * ev.q_den[j])
                if max(abs(bwd[0]), abs(bwd[1])) > radius:
                    exceeded = True
                    if early_exit:
                        return values, True
                elif bwd in values:
                    if values[bwd] != v:
                        raise ResonantCollisionError(ev.key, ev.on_class(bwd))
                else:
                    values[bwd] = v
                    stack.append(bwd)
    return values, exceeded


def shell_scan_base_points(sub):
    """Scan shells max(k1, k2) = t outward, point by point, for each class."""
    quo = _Quotient(sub)
    (c10, c11), (_, c22) = quo.c1, quo.c2

    def reduce(k):
        t = k[0] // c10
        k2 = k[1] - t * c11
        return (k[0] - t * c10, k2 - (k2 // c22) * c22)

    out = []
    for rep in ((r1, r2) for r1 in range(c10) for r2 in range(c22)):
        t = 0
        while True:
            shell = [(k1, t) for k1 in range(t)] + [(t, k2) for k2 in range(t + 1)]
            base = next((k for k in sorted(shell) if reduce(k) == rep), None)
            if base is not None:
                out.append(base)
                break
            t += 1
    return out


def oracle_outcome(s, alpha0, window, grow=coefficient_walk):
    """(outcome, collision point, normalized polynomial) of one start."""
    try:
        values, exceeded = grow(s, alpha0, window)
    except ResonantCollisionError as exc:
        return "resonant_collision", exc.point, None
    if exceeded:
        return "exceeds_window", None, None
    poly = PuiseuxPolynomial({(alpha0[0] + d[0], alpha0[1] + d[1]): v
                              for d, v in values.items()}).normalized()
    if not is_solution(poly, s):
        return "resonant_collision", alpha0, None
    return "finite", None, poly


def oracle_harvest(s, window):
    """Every start through the coefficient walk; finite duplicates dropped.
    Each result is (outcome, row pair, branch, initial exponent, polynomial,
    collision point), the initial exponent from `branch_initial_exponent`."""
    out, seen = [], set()
    for sub in enumerate_atomic(s):
        for branch, k0 in enumerate(shell_scan_base_points(sub)):
            alpha0 = branch_initial_exponent(sub, k0)
            outcome, point, poly = oracle_outcome(s, alpha0, window)
            if poly is not None:
                if poly in seen:
                    continue
                seen.add(poly)
            out.append((outcome, sub.indices, branch, alpha0, poly, point))
    return out


def harvest_view(r):
    """A harvest result as `oracle_harvest` lists it."""
    return (r.outcome, r.subsystem, r.branch, r.initial_exponent, r.polynomial, r.collision_point)


def grower_outcome(s, alpha0, window):
    def grow(s, alpha0, window):
        res = grow_component(evaluator_at(s, alpha0), window)
        return res.values, res.exceeded
    return oracle_outcome(s, alpha0, window, grow)


def agreement_inputs():
    rng = random.Random(61)
    for _ in range(80):
        rows = random_nonconfluent_system(rng, max_m=5).rows
        params = [F(rng.randint(-8, 8), rng.choice((1, 2, 3))) for _ in rows]
        yield HornSystem.make(rows, params), 10
    for name in ("zonotope", "triangle_sides", "triangle_simplex"):
        base = load_system(name)
        for k in (1, 2):
            s = HornSystem.make([(k * r.a, k * r.b) for r in base.rows], base.params)
            yield s, default_window(s)


def test_harvest_agrees_with_coefficient_walk():
    """The support walk decides every start as the coefficient walk did, and
    the harvest, with covered starts skipped, lists the same results."""
    outcomes = Counter()
    for s, window in agreement_inputs():
        for sub in enumerate_atomic(s):
            for k0 in branch_base_points(sub):
                alpha0 = branch_initial_exponent(sub, k0)
                want = oracle_outcome(s, alpha0, window)
                assert grower_outcome(s, alpha0, window) == want, (s, alpha0)
                outcomes[want[0]] += 1
        harvest = harvest_polynomials(s, window)
        assert [harvest_view(r) for r in harvest] == oracle_harvest(s, window), s
    assert min(outcomes.values()) >= 20, outcomes


def test_tables_agree_with_coefficient_walk():
    """Series tables fill the whole box, in the coefficient walk's order."""
    for name in ("example21", "quadrilateral", "triangle_sides"):
        s = load_system(name)
        for sub in enumerate_atomic(s):
            for branch, k0 in enumerate(branch_base_points(sub)):
                t = series_from_submatrix(s, sub.indices, branch, 8)
                values, _ = coefficient_walk(s, t.alpha0, 8, early_exit=False)
                assert [(d, as_fraction(v)) for d, v in t.coeffs.items()] == list(values.items())


def test_branch_base_points_match_shell_scan():
    rng = random.Random(67)
    pairs = 0
    while pairs < 300:
        (a1, b1), (a2, b2) = rows = [(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(2)]
        if a1 * b2 == a2 * b1:
            continue
        sub = enumerate_atomic(HornSystem.make(rows, [0, 0]))[0]
        assert branch_base_points(sub) == shell_scan_base_points(sub), rows
        pairs += 1


def test_branch_base_points_match_the_period_scan():
    """The chain of prefix minima gives the base points that scanning each
    class's period gives (`period_scan_base_points`): on seeded pairs with
    |det| up to a few thousand, and on the pairs where the scan is quadratic,
    c1[0] = 1 with a shift prime to c2[1]."""
    rng = random.Random(89)
    pairs = [[[1, 0], [1, 1500]], [[1, 0], [-1, 1499]], [[1, 0], [-7, 1000]]]
    while len(pairs) < 300:
        bound = 7 if len(pairs) < 250 else 45
        rows = [[rng.randint(-bound, bound), rng.randint(-bound, bound)] for _ in range(2)]
        if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
            pairs.append(rows)
    dets = Counter()
    for rows in pairs:
        sub = enumerate_atomic(HornSystem.make(rows, [0, 0]))[0]
        assert branch_base_points(sub) == period_scan_base_points(sub), rows
        dets[abs(sub.det) > 1000] += 1
    assert dets[True] >= 10, dets


def test_branch_base_points_large_determinant():
    # |det| 3000, c1[0] = 1 and a shift prime to c2[1]: quadratic in the
    # period scan, about a second
    sub = enumerate_atomic(HornSystem.make([[1, 0], [1, 3000]], [0, 0]))[0]
    start = time.perf_counter()
    bases = branch_base_points(sub)
    assert time.perf_counter() - start < 0.25
    assert len(bases) == len(set(bases)) == 3000
    assert bases[:3] == [(0, 0), (0, 1), (0, 2)] and bases[-1] == (1, 0)


@pytest.mark.parametrize("window", (0, 1, 5, 12))
def test_tables_match_the_fraction_grower(window, tmp_path):
    """Every table coefficient, as a Fraction, is the value that the
    whole-box fill on Python ints (`grow_full`) gives it, in the same order,
    and `series` prints it as `format_rational` prints that value: on the
    series-tables fixtures and on seeded systems."""
    import json

    from click.testing import CliRunner

    from hornkit.cli import main
    from hornkit.puiseux import format_rational

    rng = random.Random(71)
    systems = [load_system(name) for name in
               ("quadrilateral", "simplicial22", "example21", "example31")]
    systems += [random_nonconfluent_system(rng, max_m=5) for _ in range(3)]
    seen = Counter()
    for k, s in enumerate(systems):
        path = tmp_path / f"system{k}.json"
        path.write_text(json.dumps(s.to_json()))
        for sub in enumerate_atomic(s):
            for branch, k0 in enumerate(branch_base_points(sub)):
                grown = grow_full(_ClassFactors(s, *_branch_start(sub, k0)), window)
                t = series_from_submatrix(s, sub.indices, branch, window)
                assert [(d, as_fraction(v)) for d, v in t.coeffs.items()] == \
                    list(grown.values.items())
                r = CliRunner().invoke(main, ["series", str(path),
                                              "--submatrix", "{},{}".format(*sub.indices),
                                              "--branch", str(branch), "--window", str(window)])
                assert r.exit_code == 0, r.output
                printed = [(tuple(c["offset"]), c["value"])
                           for c in json.loads(r.stdout)["coefficients"]]
                assert printed == [(d, format_rational(v)) for d, v in sorted(grown.values.items())]
                seen["tables"] += 1
                for v in grown.values.values():
                    seen["negative" if v < 0 else "positive"] += 1
                    seen["integer" if v.denominator == 1 else "fraction"] += 1
    assert seen["tables"] > 40 and seen["integer"] >= seen["tables"], seen
    if window:  # both signs and both printed forms occur
        assert seen["negative"] and seen["fraction"], seen


def test_tables_fill_exactly_and_leave_the_context_alone(quadrilateral, monkeypatch):
    """The table fill runs in the exact Decimal context: cut to 50 digits,
    a table whose coefficients are longer raises instead of rounding, and
    one whose coefficients fit is filled as before.  The caller's context
    keeps its precision and traps either way."""
    import decimal

    import hornkit.series as series

    def context_state():
        context = decimal.getcontext()
        return context.prec, dict(context.traps)

    before = context_state()
    example21 = ex21_system()
    long_table = series_from_submatrix(quadrilateral, (0, 1), 0, 3)
    short_table = series_from_submatrix(example21, (1, 2), 0, 3)
    assert max(len(str(n)) for n, _ in long_table.coeffs.values()) > 50
    assert max(len(str(x)) for v in short_table.coeffs.values() for x in v) < 50
    assert context_state() == before

    short = series._EXACT.copy()
    short.prec = 50
    monkeypatch.setattr(series, "_EXACT", short)
    with pytest.raises((decimal.Rounded, decimal.Inexact)):
        series_from_submatrix(quadrilateral, (0, 1), 0, 3)
    assert context_state() == before
    assert series_from_submatrix(example21, (1, 2), 0, 3) == short_table
    assert context_state() == before
