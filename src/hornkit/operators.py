"""Horn operators as integer factor products on exponent classes, exact
application to Puiseux polynomials, solution checking, and the
parameter-shift intertwiners.

The j-th equation is x_j * P_j(theta) f = Q_j(theta) f.  P_j collects one
factor <A_i, s> + c_i + l per row with A_{i,j} > 0 and l = 0..A_{i,j}-1;
Q_j the same for rows with A_{i,j} < 0 and l = 0..|A_{i,j}|-1.  Operators
stay factored; theta acts on x^alpha by the scalar alpha.  Growth, series
checks and operator application evaluate the factors on one exponent class
at a time, in integers (`_ClassFactors`), the one evaluator of P_j and Q_j.
Classes and offsets are those of `puiseux` (`PuiseuxPolynomial.class_parts`).
Residuals are computed class by class, on coefficients given as integer
pairs (`_class_residual`), which lets the harvest verify a support on the
evaluator it grew it with and on the pairs its fill made.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .lattice import QVec, dot
from .puiseux import Offset, PuiseuxPolynomial, _class_exponent
from .system import HornSystem


class _ClassFactors:
    """The operator factor products on one exponent class anchor + Z^2, in
    integers, addressed by integer offsets d from the anchor.

    Row i takes the value n_i/q_i at the anchor, so its l-th factor at d is
    (n_i + q_i*(<A_i, d> + l))/q_i.  The numerator of a side's product is a
    plain integer product, which vanishes exactly when the product does; its
    denominator, prod q_i^|A_ij| over the side's rows, is fixed per class.
    With gcd(n_i, q_i) = 1, a factor vanishes only where q_i = 1: `p_int` and
    `q_int` keep those rows of each side, as (n_i, a_i, b_i, |A_ij|, i) with
    i the row's index in s, so a zero test also names the row that vanishes.
    """

    def __init__(self, s: HornSystem, anchor):
        self.anchor = anchor
        xn, xd = anchor[0].numerator, anchor[0].denominator
        yn, yd = anchor[1].numerator, anchor[1].denominator
        # rows of P_j (pos[j]) and Q_j (neg[j]) for column j = 1, 2, as
        # (n_i, q_i*a_i, q_i*b_i, q_i, |A_ij|); slot 0 is unused
        self.pos: tuple[list, list, list] = ([], [], [])
        self.neg: tuple[list, list, list] = ([], [], [])
        self.p_int: tuple[list, list, list] = ([], [], [])
        self.q_int: tuple[list, list, list] = ([], [], [])
        self.p_den = [1, 1, 1]
        self.q_den = [1, 1, 1]
        for i, (r, c) in enumerate(zip(s.rows, s.params)):
            cn, cd = c.numerator, c.denominator
            n = (r.a * xn * yd + r.b * yn * xd) * cd + cn * xd * yd
            q = xd * yd * cd
            g = gcd(n, q)
            n, q = n // g, q // g
            for j, entry in ((1, r.a), (2, r.b)):
                if entry > 0:
                    self.pos[j].append((n, q * r.a, q * r.b, q, entry))
                    self.p_den[j] *= q ** entry
                    if q == 1:
                        self.p_int[j].append((n, r.a, r.b, entry, i))
                elif entry < 0:
                    self.neg[j].append((n, q * r.a, q * r.b, q, -entry))
                    self.q_den[j] *= q ** -entry
                    if q == 1:
                        self.q_int[j].append((n, r.a, r.b, -entry, i))

    def p_num(self, j: int, d: Offset) -> int:
        """Numerator of P_j at offset d, over the denominator p_den[j]."""
        return _product(self.pos[j], d)

    def q_num(self, j: int, d: Offset) -> int:
        """Numerator of Q_j at offset d, over the denominator q_den[j]."""
        return _product(self.neg[j], d)

    def exponent(self, d: Offset) -> QVec:
        return (self.anchor[0] + d[0], self.anchor[1] + d[1])


def _product(rows: list, d: Offset) -> int:
    d1, d2 = d
    out = 1
    for n, qa, qb, q, e in rows:
        v = n + qa * d1 + qb * d2
        for _ in range(e):
            if not v:
                return 0
            out *= v
            v += q
    return out


def _by_class(f: PuiseuxPolynomial, s: HornSystem) -> list[tuple[_ClassFactors, dict]]:
    """f's class parts (`PuiseuxPolynomial.class_parts`), each with its
    evaluator anchored at the class point in [0, 1)^2 and its coefficients
    as pairs (numerator, denominator), the input of `_class_residual`."""
    return [(_ClassFactors(s, _class_exponent(key, (0, 0))),
             {d: (c.numerator, c.denominator) for d, c in terms.items()})
            for key, terms in f.class_parts().items()]


def _class_residual(ev: _ClassFactors, j: int, terms: dict) -> dict[Offset, Fraction]:
    """The nonzero terms of x_j P_j(theta) f - Q_j(theta) f, by offset, for
    f = sum of (n/m) * x^(anchor + d) over terms[d] = (n, m), m > 0, on the
    class of ev.

    The term at b is P_j(b - e_j) u(b - e_j) - Q_j(b) u(b), u = 0 off the
    terms.  With a = b - e_j, u(a) = n_a/m_a, u(b) = n_b/m_b and P_j, Q_j
    over p_den, q_den, it is decided on the one integer cross product
    P_j(a)*n_a*m_b*q_den - Q_j(b)*n_b*m_a*p_den; only a nonzero one becomes
    a `Fraction`, over m_a*m_b*p_den*q_den.  The nonzero terms lie at the
    offsets of terms and one e_j-step past them.
    """
    s1, s2 = (1, 0) if j == 1 else (0, 1)
    p_num, q_num = ev.p_num, ev.q_num
    p_den, q_den = ev.p_den[j], ev.q_den[j]
    out: dict[Offset, Fraction] = {}
    for (b1, b2), (nb, mb) in terms.items():
        a = (b1 - s1, b2 - s2)
        na, ma = terms.get(a, (0, 1))
        r = (p_num(j, a) * q_den * na * mb if na else 0) - q_num(j, (b1, b2)) * p_den * nb * ma
        if r:
            out[(b1, b2)] = Fraction(r, ma * mb * p_den * q_den)
    for (a1, a2), (na, ma) in terms.items():
        b = (a1 + s1, a2 + s2)
        if b not in terms:
            r = p_num(j, (a1, a2)) * q_den * na
            if r:
                out[b] = Fraction(r, ma * p_den * q_den)
    return out


def apply_horn(j: int, f: PuiseuxPolynomial, s: HornSystem) -> PuiseuxPolynomial:
    """Residual x_j P_j(theta) f - Q_j(theta) f, exactly.

    A zero residual for both j means f solves the system; nonzero terms
    point at the offending support positions.  Each term is evaluated at its
    integer offset on its exponent class mod Z^2 (`_class_residual`, on the
    coefficients as integer pairs), so f may mix classes.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    res = PuiseuxPolynomial.zero()
    for ev, terms in _by_class(f, s):
        res.terms.update((ev.exponent(d), v) for d, v in _class_residual(ev, j, terms).items())
    return res


def is_solution(f: PuiseuxPolynomial, s: HornSystem) -> bool:
    if f.is_zero():
        raise ValueError("zero polynomial is trivially a solution; rejected")
    return not any(_class_residual(ev, j, terms)
                   for ev, terms in _by_class(f, s) for j in (1, 2))


def apply_intertwiner(j: int, f: PuiseuxPolynomial, s: HornSystem) -> PuiseuxPolynomial:
    """Apply <A_j, theta> + c_j - 1 (parameters of s are the target ones).

    Maps solutions at c - e_j to solutions at c; on a monomial x^alpha it is
    the scalar <A_j, alpha> + c_j - 1.
    """
    if not 1 <= j <= s.m:
        raise ValueError(f"row index {j} out of range 1..{s.m}")
    row, c = s.rows[j - 1], s.params[j - 1]
    out: dict = {}
    for alpha, coeff in f.terms.items():
        scalar = Fraction(dot(row, alpha)) + c - 1
        if scalar != 0:
            out[alpha] = coeff * scalar
    res = PuiseuxPolynomial.zero()
    res.terms = out
    return res
