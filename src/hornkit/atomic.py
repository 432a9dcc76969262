"""Atomic subsystems (nondegenerate 2x2 row pairs, `system.AtomicSystem`):
their rank, the full exponent lattice of their polynomial solutions, and the
persistent solutions themselves: monomials, and essentially polynomial
solutions grown as finite components (`series.component_polynomial`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import QVec, Vec2, inverse_times, opposite_open_quadrants
from .operators import is_solution
from .puiseux import PuiseuxPolynomial
from .series import component_polynomial, default_window
from .system import AtomicSystem


@dataclass(frozen=True)
class FrameChange:
    """Monomial change of variables normalizing an atomic system: optional
    inversions x_j -> 1/x_j followed by an optional swap x_1 <-> x_2.

    A normalized-frame exponent maps back to the original frame through
    pull_back.
    """

    flip1: bool
    flip2: bool
    swap: bool

    def pull_back(self, beta: QVec) -> QVec:
        b1, b2 = beta
        if self.swap:
            b1, b2 = b2, b1
        if self.flip1:
            b1 = -b1
        if self.flip2:
            b2 = -b2
        return (b1, b2)

    def push_row(self, r: Vec2) -> Vec2:
        a, b = r.a, r.b
        if self.flip1:
            a = -a
        if self.flip2:
            b = -b
        if self.swap:
            a, b = b, a
        return Vec2(a, b)

    def is_identity(self) -> bool:
        return not (self.flip1 or self.flip2 or self.swap)


def atomic_rank(a: AtomicSystem) -> int:
    """|det M| + nu(M): fully supported count plus persistent count."""
    return abs(a.det) + a.nu


def normalize_frame(a: AtomicSystem) -> tuple[AtomicSystem, FrameChange]:
    """Invert variables so the first row is strictly positive and the second
    strictly negative, then swap variables if needed to reach
    |a1*b2| > |a2*b1|.  Requires rows in opposite open quadrants.
    """
    u, v = a.rows
    if not opposite_open_quadrants(u, v):
        raise ValueError("normalization undefined: rows not in opposite open quadrants")
    flip1 = u.a < 0
    flip2 = u.b < 0
    fc = FrameChange(flip1, flip2, swap=False)
    u2, v2 = fc.push_row(u), fc.push_row(v)
    (a1, b1), (a2, b2) = u2, v2
    if abs(a1 * b2) < abs(a2 * b1):
        fc = FrameChange(flip1, flip2, swap=True)
        u2, v2 = fc.push_row(u), fc.push_row(v)
    out = AtomicSystem(a.indices, (u2, v2), a.params)
    if abs(out.rows[0].a * out.rows[1].b) <= abs(out.rows[0].b * out.rows[1].a):
        raise AssertionError("frame normalization failed to order the diagonal products")
    return out, fc


def _rectangle(a_norm: AtomicSystem) -> list[tuple[int, int]]:
    """R in the normalized frame: 0 <= u < b1, 0 <= v < |a2|."""
    (_a1, b1), (a2, _b2) = a_norm.rows
    return [(u, v) for u in range(b1) for v in range(-a2)]


def _small_rectangle(a_norm: AtomicSystem) -> set[tuple[int, int]]:
    """The monomial sub-rectangle: u < min(a1, b1), v < min(|a2|, |b2|)."""
    (a1, b1), (a2, b2) = a_norm.rows
    return {(u, v) for u in range(min(a1, b1)) for v in range(min(-a2, -b2))}


def _exponent_for(norm: AtomicSystem, fc: FrameChange, uv: tuple[int, int]) -> QVec:
    w = inverse_times(norm.rows, (uv[0] + norm.params[0], uv[1] + norm.params[1]))
    return fc.pull_back((-w[0], -w[1]))


def polynomial_exponents(a: AtomicSystem) -> set[QVec]:
    """Initial exponents of all Puiseux polynomial solutions:
    -M^{-1}((u, v) + c) over the index rectangle; exactly nu(M) of them."""
    if a.nu == 0:
        return set()
    norm, fc = normalize_frame(a)
    return {_exponent_for(norm, fc, uv) for uv in _rectangle(norm)}


def persistent_monomials(a: AtomicSystem) -> list[PuiseuxPolynomial]:
    """Monomial solutions: exponents over the sub-rectangle where a factor of
    both P's and both Q's vanishes simultaneously."""
    if a.nu == 0:
        return []
    norm, fc = normalize_frame(a)
    expts = sorted(_exponent_for(norm, fc, uv) for uv in sorted(_small_rectangle(norm)))
    return [PuiseuxPolynomial.monomial(e[0], e[1]) for e in expts]


def persistent_polynomials(a: AtomicSystem) -> list[PuiseuxPolynomial]:
    """Essentially polynomial solutions, one per initial exponent over the
    boundary strips of the index rectangle.

    Each is the finite component through its initial exponent, grown in the
    system's own frame at `default_window`.  A component that escapes the
    window raises; every returned object is verified to be an exact solution
    of the atomic system.
    """
    if a.nu == 0:
        return []
    norm, fc = normalize_frame(a)
    strips = set(_rectangle(norm)) - _small_rectangle(norm)
    s = a.system()
    radius = default_window(s)
    out = []
    for alpha in sorted(_exponent_for(norm, fc, uv) for uv in strips):
        poly = component_polynomial(s, alpha, radius)
        if poly is None:
            raise ValueError(f"no finite solution through initial exponent {alpha}")
        if not is_solution(poly, s):
            raise AssertionError("strip component fails the atomic operators")
        out.append(poly)
    return out
