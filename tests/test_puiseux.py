import json
import sys
from fractions import Fraction as F

import pytest

from conftest import constructive_systems, eager_polynomial
from hornkit.atomic import _index_rects
from hornkit.operators import _ClassFactors
from hornkit.puiseux import PuiseuxPolynomial, _GrownPolynomial, format_rational, parse_rational
from hornkit.series import default_window, grow_component, grow_starts, harvest_polynomials
from hornkit.solver import check_constructive, independent_dimension
from hornkit.system import enumerate_atomic


def test_zero_coefficients_dropped():
    p = PuiseuxPolynomial({(F(1), F(0)): F(2)}) + PuiseuxPolynomial({(F(1), F(0)): F(-2)})
    assert p.is_zero()


def test_arithmetic():
    p = PuiseuxPolynomial.monomial(1, 0) + PuiseuxPolynomial.monomial(0, 1)
    q = p * p
    assert q.terms == {(F(2), F(0)): F(1), (F(1), F(1)): F(2), (F(0), F(2)): F(1)}
    assert (p ** 3).terms[(F(2), F(1))] == 3


def test_shift_and_normalize():
    p = PuiseuxPolynomial({(F(0), F(0)): F(3), (F(1), F(1)): F(6)})
    assert p.shift(F(1, 2), -1).terms == {(F(1, 2), F(-1)): F(3), (F(3, 2), F(0)): F(6)}
    n = p.normalized()
    assert n.terms[(F(0), F(0))] == 1
    assert n.terms[(F(1), F(1))] == 2


def test_purity():
    pure = PuiseuxPolynomial({(F(1, 2), F(0)): 1, (F(3, 2), F(2)): 5})
    assert pure.is_pure() == (True, None)
    impure = PuiseuxPolynomial({(F(1, 2), F(0)): 1, (F(1, 3), F(0)): 1})
    ok, witness = impure.is_pure()
    assert not ok and witness is not None


def test_json_round_trip():
    p = PuiseuxPolynomial({(F(-7, 5), F(2)): F(19, 3), (F(0), F(0)): -4})
    assert PuiseuxPolynomial.from_json(p.to_json()) == p
    # canonical term order: lex by exponent
    expts = [t["exponent"] for t in p.to_json()]
    assert expts == sorted(expts, key=lambda e: (parse_rational(e[0]), parse_rational(e[1])))


def test_parse_rational():
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational(7) == 7
    assert parse_rational(" 4 ") == 4
    with pytest.raises(ValueError):
        parse_rational("1.5")
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-1, 3)) == "-1/3"


def test_parse_rational_reads_ascii_digits_only():
    # int() reads underscores, surrounding spaces and any Unicode decimal digit;
    # each part of a rational must be an ASCII [+-]?[0-9]+
    assert parse_rational("+3/-6") == F(-1, 2)
    for bad in ("1_0", "\u0663", "\uff11/\uff12", "1/\u0663", "1 /2", "1/ 2", "+-1",
                "1/", "/2", "1/2/3", "", "-", "\u00a03", "3\u3000"):
        with pytest.raises(ValueError, match="invalid literal"):
            parse_rational(bad)
    # past the digit limit too
    with pytest.raises(ValueError, match="invalid literal"):
        parse_rational("1_" + "1" * 5000)
    with pytest.raises(ValueError, match="invalid literal"):
        parse_rational("1" * 5000 + "\u0663")


def test_rationals_past_the_digit_limit():
    # 5,000 digits pass the default int/str conversion limit of 4,300; the
    # zeros inside the numerator check that each half keeps its width
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    num = 3 * 10 ** 4999 + 7
    for q in (F(num, 2 ** 16000), F(-num), F(1, 7 ** 6000)):
        text = format_rational(q)
        assert parse_rational(text) == q
    assert format_rational(F(-num)) == "-3" + "0" * 4998 + "7"
    assert parse_rational("+3" + "0" * 4998 + "7/1") == num
    for bad in ("1" * 5000 + "x", "+-" + "1" * 5000, "1" * 5000 + "/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    # a malformed string is named as one, whatever its length
    with pytest.raises(ValueError, match="invalid literal"):
        parse_rational("1" * 5000 + "x")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def assert_integer_form_agrees(p, want):
    """The views of a `_GrownPolynomial` that answer from its integers, and
    then `==`, `hash`, the lazily built `terms` and `to_json`, against the
    Fraction polynomial want; class_parts also in order, and new on every
    call.  `terms_text` is what `json.dumps(..., indent=1)` writes for
    want's terms, at the top and one level down."""
    assert p.terms_text("\n") == json.dumps(want.to_json(), indent=1)
    assert '{\n "terms": ' + p.terms_text("\n ") + "\n}" == \
        json.dumps({"terms": want.to_json()}, indent=1)
    parts = p.class_parts()
    assert [(k, list(v.items())) for k, v in parts.items()] == \
        [(k, list(v.items())) for k, v in want.class_parts().items()]
    again = p.class_parts()
    assert again is not parts and all(again[k] is not v for k, v in parts.items())
    assert p.leading_exponent() == want.leading_exponent()
    assert p == want and want == p and hash(p) == hash(want)
    assert list(p.terms.items()) == list(want.terms.items())
    assert p.to_json() == want.to_json()


def test_grown_polynomial_digits_signs_and_offsets():
    # a lead pair with a negative numerator, negative offsets, an integer
    # class coordinate and a coefficient past the digit limit
    key = (2, 3, 0, 1)
    pairs = {(0, 0): (-2, 5), (-1, 3): (7, 1), (4, -2): (10 ** 5000 + 1, 9)}
    p = _GrownPolynomial(key, pairs)
    assert p.lead == (-1, 3) and p.coeffs[(-1, 3)] == (1, 1)
    assert all(m > 0 for _, m in p.coeffs.values())
    assert p.to_json()[0] == {"exponent": ["-1/3", "3"], "coefficient": "1"}
    assert_integer_form_agrees(p, eager_polynomial(key, pairs))


def grown_results():
    """(s, window, result) of every finite outcome grown on the systems of
    `constructive_systems` at their default window: from the persistent
    starts of `solver.persistent_solutions` and from the harvest's, each
    run on its own."""
    for s in constructive_systems():
        w = default_window(s)
        starts = [(a, i, uv) for a in enumerate_atomic(s) if a.nu
                  for i, uv in enumerate(_index_rects(a)[0])]
        for r in grow_starts(s, starts, w) + harvest_polynomials(s, w):
            if r.outcome == "finite":
                yield s, w, r


def test_grown_polynomials_agree_with_the_fraction_form():
    """Every finite outcome of `grow_starts`, against the polynomial built
    from a fresh growth of its start in Fractions (`eager_polynomial`)."""
    count = 0
    for s, w, r in grown_results():
        (key, offsets), = PuiseuxPolynomial.monomial(*r.initial_exponent).class_parts().items()
        (o,) = offsets
        pairs = grow_component(_ClassFactors(s, key), w, o).pairs
        assert_integer_form_agrees(r.polynomial, eager_polynomial(key, pairs))
        count += 1
    assert count > 900, count


def test_independent_dimension_leaves_its_input_alone():
    # the elimination builds its own vectors from class_parts, so it counts
    # the same list the same twice
    for s in constructive_systems():
        report = check_constructive(s, default_window(s))
        solutions = report.solutions
        assert independent_dimension(solutions) == independent_dimension(solutions) \
            == report.independent_count, s
