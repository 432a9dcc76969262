import sys
from fractions import Fraction as F

import pytest

from hornkit.puiseux import PuiseuxPolynomial, format_rational, parse_rational


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
