"""Puiseux polynomials: finite maps from rational exponent pairs to rational
coefficients, with exact arithmetic and a canonical serialized form, and
their one split by exponent class mod Z^2 (`PuiseuxPolynomial.class_parts`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .lattice import QVec, qvec

Expt = QVec  # (Fraction, Fraction) exponent pair
Offset = tuple[int, int]
# An exponent class mod Z^2, (r1, q1, r2, q2) for the class of
# (r1/q1, r2/q2), with 0 <= r_i < q_i and gcd(r_i, q_i) = 1.
ClassKey = tuple[int, int, int, int]


class PuiseuxPolynomial:
    """Finite linear combination of monomials x1^e1 * x2^e2 with rational
    exponents and coefficients.  Zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Expt, Fraction] | Iterable[tuple[Expt, Fraction]] = ()):
        clean: dict[Expt, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for e, c in items:
            c = Fraction(c)
            if c == 0:
                continue
            key = qvec(e[0], e[1])
            clean[key] = clean.get(key, Fraction(0)) + c
            if clean[key] == 0:
                del clean[key]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "PuiseuxPolynomial":
        return PuiseuxPolynomial()

    @staticmethod
    def monomial(e1, e2, coeff=1) -> "PuiseuxPolynomial":
        return PuiseuxPolynomial({qvec(e1, e2): Fraction(coeff)})

    @staticmethod
    def one() -> "PuiseuxPolynomial":
        return PuiseuxPolynomial.monomial(0, 0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PuiseuxPolynomial") -> "PuiseuxPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
            if out[e] == 0:
                del out[e]
        p = PuiseuxPolynomial.zero()
        p.terms = out
        return p

    def __sub__(self, other: "PuiseuxPolynomial") -> "PuiseuxPolynomial":
        return self + other.scale(-1)

    def scale(self, k) -> "PuiseuxPolynomial":
        k = Fraction(k)
        if k == 0:
            return PuiseuxPolynomial.zero()
        p = PuiseuxPolynomial.zero()
        p.terms = {e: c * k for e, c in self.terms.items()}
        return p

    def shift(self, e1, e2) -> "PuiseuxPolynomial":
        """Multiply by the monomial x1^e1 * x2^e2."""
        d1, d2 = Fraction(e1), Fraction(e2)
        p = PuiseuxPolynomial.zero()
        p.terms = {(e[0] + d1, e[1] + d2): c for e, c in self.terms.items()}
        return p

    def __mul__(self, other: "PuiseuxPolynomial") -> "PuiseuxPolynomial":
        out: dict[Expt, Fraction] = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                key = (e[0] + f[0], e[1] + f[1])
                out[key] = out.get(key, Fraction(0)) + c * d
                if out[key] == 0:
                    del out[key]
        p = PuiseuxPolynomial.zero()
        p.terms = out
        return p

    def __pow__(self, n: int) -> "PuiseuxPolynomial":
        if n < 0:
            raise ValueError("negative power of a Puiseux polynomial")
        result = PuiseuxPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def sorted_terms(self) -> list[tuple[Expt, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0])

    def leading_exponent(self) -> Expt:
        """Lex-smallest exponent; the canonical anchor for normalization."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading exponent")
        return min(self.terms)

    def normalized(self) -> "PuiseuxPolynomial":
        """Scale so the coefficient at the lex-smallest exponent is 1."""
        if not self.terms:
            return self
        return self.scale(1 / self.terms[self.leading_exponent()])

    def class_parts(self) -> dict[ClassKey, dict[Offset, tuple[int, int]]]:
        """The coefficients by class key and integer offset d, the exponent
        being (r1/q1 + d1, r2/q2 + d2) (`_class_of`), each as its reduced
        pair (numerator, denominator > 0); classes in the order of their
        first term, offsets in term order.  The dicts are new on every
        call."""
        parts: dict[ClassKey, dict[Offset, tuple[int, int]]] = {}
        for e, c in self.terms.items():
            key, d = _class_of(e)
            parts.setdefault(key, {})[d] = (c.numerator, c.denominator)
        return parts

    def is_pure(self) -> tuple[bool, tuple[Expt, Expt] | None]:
        """A polynomial is pure when all exponents agree mod Z^2.

        Returns (True, None) or (False, (e, f)) with a witnessing pair: the
        first term, and the first term outside its class.
        """
        parts = list(self.class_parts().items())
        if len(parts) < 2:
            return True, None
        return False, tuple(_class_exponent(key, next(iter(terms))) for key, terms in parts[:2])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PuiseuxPolynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        # Equal polynomials have equal exponent sets; hashing the exponents
        # alone skips the big coefficients.
        return hash(frozenset(self.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (e1, e2), c in self.sorted_terms():
            bits.append(f"{c}*x1^{e1}*x2^{e2}")
        return " + ".join(bits)

    # -- wire format -------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Term list sorted lex by exponent, rationals as 'p/q' strings."""
        return [
            {"exponent": [format_rational(e1), format_rational(e2)],
             "coefficient": format_rational(c)}
            for (e1, e2), c in self.sorted_terms()
        ]

    @staticmethod
    def from_json(data: Iterable[Mapping]) -> "PuiseuxPolynomial":
        """The inverse of `to_json`.  An exponent that is not a list of two
        items raises ValueError naming its term, by position from 0; so does
        an exponent listed twice, compared after parsing ("0" and "0/1"
        alike), as one of its coefficients would be dropped."""
        terms = {}
        for k, item in enumerate(data):
            exponent = item["exponent"]
            if type(exponent) is not list or len(exponent) != 2:
                got = (f"a list of {len(exponent)}" if type(exponent) is list
                       else f"a {type(exponent).__name__}")
                raise ValueError(f"term {k}: the exponent must be a list of two rationals, "
                                 f"got {got}")
            e1, e2 = (parse_rational(x) for x in exponent)
            if (e1, e2) in terms:
                raise ValueError(f"exponent ({format_rational(e1)}, {format_rational(e2)}) "
                                 "is listed twice")
            terms[(e1, e2)] = parse_rational(item["coefficient"])
        return PuiseuxPolynomial(terms)


class _GrownPolynomial(PuiseuxPolynomial):
    """A grown solution on one exponent class, kept in integers: its class
    key and, by offset, each coefficient as a reduced pair (numerator,
    denominator > 0), 1 at the lex-smallest offset `lead`, which carries the
    lex-smallest exponent since every term shares the class.

    `terms_text`, `class_parts` and `leading_exponent` answer from the
    pairs.  Everything else, `to_json` included, reads `terms`, the Fraction
    dict of a `PuiseuxPolynomial`, which is built on its first access
    (`_build_terms`), in the order of `coeffs`."""

    __slots__ = ("key", "coeffs", "lead")

    def __init__(self, key: ClassKey, pairs: Mapping[Offset, tuple[int, int]]):
        """Scale the pairs (n, m) of a fill to 1 at their lex-smallest offset:
        n/m over n0/m0 is (n*m0, m*n0), reduced, with its sign on top."""
        self.key = key
        self.lead = min(pairs)
        n0, m0 = pairs[self.lead]
        coeffs = {}
        for d, (n, m) in pairs.items():
            n, m = n * m0, m * n0
            g = gcd(n, m) if m > 0 else -gcd(n, m)
            coeffs[d] = (n // g, m // g)
        self.coeffs = coeffs

    def __getattr__(self, name: str):
        # called only while the `terms` slot is unset
        if name != "terms":
            raise AttributeError(f"'_GrownPolynomial' object has no attribute {name!r}")
        self._build_terms()
        return self.terms

    def _build_terms(self):
        key = self.key
        self.terms = {_class_exponent(key, d): Fraction(n, m) for d, (n, m) in self.coeffs.items()}

    def leading_exponent(self) -> Expt:
        return _class_exponent(self.key, self.lead)

    def class_parts(self) -> dict[ClassKey, dict[Offset, tuple[int, int]]]:
        return {self.key: dict(self.coeffs)}

    def terms_text(self, nl: str) -> str:
        """`to_json()` as `json.dumps(..., indent=1)` writes it at the depth
        whose line break and indent is nl, from the integers, without a
        Fraction or a dict per term: `cli._json_text` writes the terms of a
        reported solution with it.  Offsets sort as their exponents do, r/q
        + d is (r + d*q)/q in lowest terms, and a rational's text holds only
        digits, "-" and "/", which JSON escaping leaves as they are."""
        r1, q1, r2, q2 = self.key
        t = nl + " "
        u, v = t + " ", t + "  "
        # a term's fixed text, between its three rationals
        head, mid = f'{{{u}"exponent": [{v}"', f'",{v}"'
        tail, end = f'"{u}],{u}"coefficient": "', f'"{t}}}'
        return "[" + t + ("," + t).join([
            f'{head}{d1 if q1 == 1 else f"{r1 + d1 * q1}/{q1}"}{mid}'
            f'{d2 if q2 == 1 else f"{r2 + d2 * q2}/{q2}"}{tail}'
            f'{_int_str(n) if m == 1 else f"{_int_str(n)}/{_int_str(m)}"}{end}'
            for (d1, d2), (n, m) in sorted(self.coeffs.items())]) + nl + "]"


def _class_exponent(key: ClassKey, d: Offset) -> Expt:
    """The exponent (r1/q1 + d1, r2/q2 + d2) of offset d on the class key."""
    r1, q1, r2, q2 = key
    return (Fraction(r1 + d[0] * q1, q1), Fraction(r2 + d[1] * q2, q2))


def _class_of(e: Expt) -> tuple[ClassKey, Offset]:
    """The class key and offset of the exponent e, the inverse of
    `_class_exponent`."""
    xn, xd, yn, yd = e[0].numerator, e[0].denominator, e[1].numerator, e[1].denominator
    return (xn % xd, xd, yn % yd, yd), (xn // xd, yn // yd)


def _int_str(n: int) -> str:
    """The decimal digits of n, at any size.  str() refuses integers past the
    interpreter's digit limit (`sys.get_int_max_str_digits`); past it, the
    two halves of n in base 10**k are converted apart."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the decimal digits
        hi, lo = divmod(abs(n), 10 ** k)
        return ("-" if n < 0 else "") + _int_str(hi) + _int_str(lo).zfill(k)


_INT = re.compile(r"[+-]?[0-9]+")


def _parse_int(text: str) -> int:
    """The integer of an ASCII digit string with an optional sign, also past
    the interpreter's digit limit, where it is read in two halves.  Anything
    else raises int()'s "invalid literal" error, with a long string cut
    short: int() alone would read "1_0", spaces and non-ASCII digits."""
    if not _INT.fullmatch(text):
        shown = repr(text) if len(text) <= 60 else f"{text[:60]!r}... ({len(text)} characters)"
        raise ValueError(f"invalid literal for int() with base 10: {shown}")
    try:
        return int(text)
    except ValueError:  # past the digit limit
        digits = text.lstrip("+-")
        k = len(digits) // 2
        v = _parse_int(digits[:-k]) * 10 ** k + _parse_int(digits[-k:])
        return -v if text[0] == "-" else v


def parse_rational(text) -> Fraction:
    """Parse 'p/q' or bare integers (str or int); decimal forms and booleans
    are rejected.  Each of p and q is an ASCII [+-]?[0-9]+ (`_parse_int`),
    and only JSON's whitespace may surround the whole."""
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        s = text.strip(" \t\n\r")
        if "/" in s:
            num, den = (_parse_int(x) for x in s.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator: {text!r}")
            return Fraction(num, den)
        return Fraction(_parse_int(s))
    raise ValueError(f"not a rational: {text!r}")


def format_rational(q) -> str:
    """q as "n" or "n/d" in lowest terms, at any size (`_int_str`); a
    Fraction is read as it is, anything else through Fraction(q)."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"
