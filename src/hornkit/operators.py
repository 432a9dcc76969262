"""Horn operators as explicit affine-factor lists, exact application to
Puiseux polynomials, solution checking, and the parameter-shift intertwiners.

The j-th equation is x_j * P_j(theta) f = Q_j(theta) f.  P_j collects one
factor <A_i, s> + c_i + l per row with A_{i,j} > 0 and l = 0..A_{i,j}-1;
Q_j the same for rows with A_{i,j} < 0 and l = 0..|A_{i,j}|-1.  Operators
stay factored; theta acts on x^alpha by the scalar alpha.  Growth, series
checks and operator application evaluate the factors on one exponent class
at a time, in integers (`_ClassFactors`); `eval_factors` is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .lattice import QVec, Vec2, dot
from .puiseux import PuiseuxPolynomial
from .system import HornSystem

Offset = tuple[int, int]


@dataclass(frozen=True)
class AffineFactor:
    """The linear form <normal, s> + offset."""

    normal: Vec2
    offset: Fraction

    def eval(self, alpha) -> Fraction:
        return Fraction(dot(self.normal, alpha)) + self.offset


@dataclass(frozen=True)
class HornOperatorPair:
    p1: tuple[AffineFactor, ...]
    q1: tuple[AffineFactor, ...]
    p2: tuple[AffineFactor, ...]
    q2: tuple[AffineFactor, ...]

    def p(self, j: int) -> tuple[AffineFactor, ...]:
        return self.p1 if j == 1 else self.p2

    def q(self, j: int) -> tuple[AffineFactor, ...]:
        return self.q1 if j == 1 else self.q2


def build_operators(s: HornSystem) -> HornOperatorPair:
    """Factor lists in row order, then offset order; deterministic."""
    parts: dict[tuple[int, str], list[AffineFactor]] = {
        (1, "p"): [], (1, "q"): [], (2, "p"): [], (2, "q"): [],
    }
    for row, c in zip(s.rows, s.params):
        for j, entry in ((1, row.a), (2, row.b)):
            if entry == 0:
                continue
            side = "p" if entry > 0 else "q"
            for ell in range(abs(entry)):
                parts[(j, side)].append(AffineFactor(row, c + ell))
    return HornOperatorPair(
        tuple(parts[(1, "p")]), tuple(parts[(1, "q")]),
        tuple(parts[(2, "p")]), tuple(parts[(2, "q")]),
    )


def eval_factors(factors: tuple[AffineFactor, ...], alpha) -> Fraction:
    out = Fraction(1)
    for f in factors:
        out *= f.eval(alpha)
        if out == 0:
            return out
    return out


class _ClassFactors:
    """The operator factor products on one exponent class anchor + Z^2, in
    integers, addressed by integer offsets d from the anchor.

    Row i takes the value n_i/q_i at the anchor, so its l-th factor at d is
    (n_i + q_i*(<A_i, d> + l))/q_i.  The numerator of a side's product is a
    plain integer product, which vanishes exactly when the product does; its
    denominator, prod q_i^|A_ij| over the side's rows, is fixed per class.
    With gcd(n_i, q_i) = 1, a factor vanishes only where q_i = 1: `p_int` and
    `q_int` keep those rows of each side, as (n_i, a_i, b_i, |A_ij|).
    """

    def __init__(self, s: HornSystem, anchor):
        self.anchor = anchor
        xn, xd = anchor[0].numerator, anchor[0].denominator
        yn, yd = anchor[1].numerator, anchor[1].denominator
        # rows of P_j (pos[j]) and Q_j (neg[j]) for column j = 1, 2, as
        # (n_i, q_i*a_i, q_i*b_i, q_i, |A_ij|); slot 0 is unused
        self.pos: tuple[list, list, list] = ([], [], [])
        self.neg: tuple[list, list, list] = ([], [], [])
        self.p_den = [1, 1, 1]
        self.q_den = [1, 1, 1]
        for r, c in zip(s.rows, s.params):
            cn, cd = c.numerator, c.denominator
            n = (r.a * xn * yd + r.b * yn * xd) * cd + cn * xd * yd
            q = xd * yd * cd
            g = gcd(n, q)
            n, q = n // g, q // g
            for j, entry in ((1, r.a), (2, r.b)):
                if entry > 0:
                    self.pos[j].append((n, q * r.a, q * r.b, q, entry))
                    self.p_den[j] *= q ** entry
                elif entry < 0:
                    self.neg[j].append((n, q * r.a, q * r.b, q, -entry))
                    self.q_den[j] *= q ** -entry
        self.p_int = tuple([(n, a, b, e) for n, a, b, q, e in rows if q == 1]
                           for rows in self.pos)
        self.q_int = tuple([(n, a, b, e) for n, a, b, q, e in rows if q == 1]
                           for rows in self.neg)

    def p_num(self, j: int, d: Offset) -> int:
        """Numerator of P_j at offset d, over the denominator p_den[j]."""
        return _product(self.pos[j], d)

    def q_num(self, j: int, d: Offset) -> int:
        """Numerator of Q_j at offset d, over the denominator q_den[j]."""
        return _product(self.neg[j], d)

    def p(self, j: int, d: Offset) -> Fraction:
        return Fraction(self.p_num(j, d), self.p_den[j])

    def q(self, j: int, d: Offset) -> Fraction:
        return Fraction(self.q_num(j, d), self.q_den[j])

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


def apply_horn(j: int, f: PuiseuxPolynomial, s: HornSystem) -> PuiseuxPolynomial:
    """Residual x_j P_j(theta) f - Q_j(theta) f, exactly.

    A zero residual for both j means f solves the system; nonzero terms
    point at the offending support positions.  Each term is evaluated at its
    integer offset on its exponent class mod Z^2, so f may mix classes.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    s1, s2 = (1, 0) if j == 1 else (0, 1)
    classes: dict = {}
    out: dict = {}  # (class, offset) -> residual coefficient
    for (x, y), c in f.terms.items():
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        cls = (xn % xd, xd, yn % yd, yd)
        ev = classes.get(cls)
        if ev is None:
            ev = classes[cls] = _ClassFactors(s, (Fraction(cls[0], xd), Fraction(cls[2], yd)))
        d1, d2 = xn // xd, yn // yd
        pv = ev.p_num(j, (d1, d2))
        if pv:
            key = (cls, d1 + s1, d2 + s2)
            v = out.get(key, 0) + c * Fraction(pv, ev.p_den[j])
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        qv = ev.q_num(j, (d1, d2))
        if qv:
            key = (cls, d1, d2)
            v = out.get(key, 0) - c * Fraction(qv, ev.q_den[j])
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    res = PuiseuxPolynomial.zero()
    res.terms = {classes[cls].exponent((d1, d2)): v for (cls, d1, d2), v in out.items()}
    return res


def is_solution(f: PuiseuxPolynomial, s: HornSystem) -> bool:
    if f.is_zero():
        raise ValueError("zero polynomial is trivially a solution; rejected")
    return apply_horn(1, f, s).is_zero() and apply_horn(2, f, s).is_zero()


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
