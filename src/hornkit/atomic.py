"""Atomic subsystems (nondegenerate 2x2 row pairs, `system.AtomicSystem`):
the full exponent lattice of their polynomial solutions, `is_generic`, and
the persistent solutions themselves: monomials, and essentially polynomial
solutions grown as finite components (`series.grow_starts`).
"""

from __future__ import annotations

from .lattice import QVec
from .puiseux import PuiseuxPolynomial
from .series import branch_initial_exponent, default_window, grow_starts
from .system import AtomicSystem, HornSystem, detect_resonance, enumerate_atomic


def _index_rects(a: AtomicSystem) -> tuple[list[tuple[int, int]], set[tuple[int, int]]]:
    """The index rectangle of a pair with nu(M) > 0, and its monomial
    sub-rectangle, read off the absolute values of the rows (a1, b1), (a2, b2):

        0 <= u < |b1|, 0 <= v < |a2|   if |a1*b2| > |a2*b1|,
        0 <= u < |a1|, 0 <= v < |b2|   otherwise;
        sub-rectangle: u < min(|a1|, |b1|), v < min(|a2|, |b2|).

    Each (u, v) gives the initial exponent -M^{-1}((u, v) + c).  This is the
    paper's rectangle in the frame where the first row is positive, the
    second negative and |a1*b2| > |a2*b1|, taken back to the rows as given:
    inverting x_j or swapping x_1, x_2 only negates or swaps columns of M,
    which leaves -M^{-1}(k + c) unchanged.  The tie |a1*b2| = |a2*b1| never
    occurs: the rows lie in opposite open quadrants, so a1*b2 and a2*b1 share
    a sign, and the tie would make det M = 0.
    """
    (a1, b1), (a2, b2) = ((abs(r.a), abs(r.b)) for r in a.rows)
    if a1 * b2 > a2 * b1:
        rect = [(u, v) for u in range(b1) for v in range(a2)]
    else:
        rect = [(u, v) for u in range(a1) for v in range(b2)]
    return rect, {(u, v) for u in range(min(a1, b1)) for v in range(min(a2, b2))}


def polynomial_exponents(a: AtomicSystem) -> set[QVec]:
    """Initial exponents of all Puiseux polynomial solutions:
    -M^{-1}((u, v) + c) over the index rectangle; exactly nu(M) of them."""
    if a.nu == 0:
        return set()
    return {branch_initial_exponent(a, uv) for uv in _index_rects(a)[0]}


def is_generic(s: HornSystem) -> bool:
    """Effective surrogate for 'generic parameters': no resonant circuit and
    no collision among atomic initial exponents of distinct subsystems."""
    if detect_resonance(s).is_resonant:
        return False
    seen = {}
    for a in enumerate_atomic(s):
        for e in polynomial_exponents(a):
            if seen.setdefault(e, a.indices) != a.indices:
                return False
    return True


def persistent_monomials(a: AtomicSystem) -> list[PuiseuxPolynomial]:
    """Monomial solutions: exponents over the sub-rectangle where a factor of
    both P's and both Q's vanishes simultaneously."""
    if a.nu == 0:
        return []
    expts = sorted(branch_initial_exponent(a, uv) for uv in _index_rects(a)[1])
    return [PuiseuxPolynomial.monomial(e[0], e[1]) for e in expts]


def persistent_polynomials(a: AtomicSystem) -> list[PuiseuxPolynomial]:
    """Essentially polynomial solutions, one per initial exponent over the
    boundary strips of the index rectangle, each scaled to 1 there.

    Each is the finite component through its initial exponent, grown at
    `default_window` and checked on its growth evaluator
    (`series.grow_starts`).  A component that escapes the window or meets a
    resonant collision raises ValueError, as does a strip start that lies
    on an earlier start's support.
    """
    if a.nu == 0:
        return []
    rect, small = _index_rects(a)
    starts = [(a, i, uv) for i, uv in enumerate(rect) if uv not in small]
    s = a.system()
    out = []
    for r in sorted(grow_starts(s, starts, default_window(s)), key=lambda r: r.initial_exponent):
        if r.outcome != "finite":
            raise ValueError(f"no finite solution through initial exponent {r.initial_exponent}")
        out.append(r.polynomial.scale(1 / r.polynomial.terms[r.initial_exponent]))
    if len(out) < len(starts):
        raise ValueError("two strip starts lie on one support")
    return out
