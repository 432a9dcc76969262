"""Recurrence-driven series machinery.

A pure solution lives on an exponent class alpha0 + Z^2.  Its coefficients
obey, for j = 1, 2 and every beta in the class,

    P_j(beta) * u(beta) = Q_j(beta + e_j) * u(beta + e_j).

The relations drive windowed fully supported series tables (the residue
series of the Mellin-Barnes representation, generated through coefficient
ratios, never through Gamma values) and `component_polynomial`, the one
grower of Puiseux polynomial solutions: the support component through a seed
exponent either closes off into a finitely supported solution or escapes the
window.  Atomic strip solutions and the full system's persistent solutions
grow at `default_window`, the harvest at the window it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import QVec, inverse_times, qvec
from .operators import Offset, _ClassFactors, is_solution
from .puiseux import PuiseuxPolynomial
from .system import AtomicSystem, HornSystem, enumerate_atomic
from .counting import ConeQ


class ResonantCollisionError(ValueError):
    """A recurrence denominator vanished against a nonvanishing numerator on
    a reachable point: the would-be pure solution degenerates (logarithmic
    case, out of scope)."""

    def __init__(self, point: QVec, message: str = ""):
        self.point = point
        super().__init__(message or f"resonant collision at offset {point}")


_STEPS = ((1, (1, 0)), (2, (0, 1)))


@dataclass
class GrowResult:
    values: dict[Offset, Fraction]
    exceeded: bool


def grow_component(s: HornSystem, alpha0: QVec, radius: int,
                   early_exit: bool = True) -> GrowResult:
    """Grow the coupled component through alpha0, assigning it coefficient 1.

    Follows every forced relation in all four lattice directions.  Stops a
    direction where the relevant numerator factor vanishes (support cut).
    Raises ResonantCollisionError when a relation forces the component to
    vanish or two paths disagree.  If the component reaches the radius box
    boundary the result is flagged exceeded (and, with early_exit, returned
    immediately with a partial table).

    Two paths never disagree.  With Phi(beta) = prod_i Gamma(<A_i, beta> + c_i),
    the functional equation of Gamma gives, as rational functions of beta,

        P_j(beta) / Q_j(beta + e_j) = Phi(beta + e_j) / Phi(beta),

    since the factors <A_i, beta> + c_i + l, l = 0..|A_ij|-1, are the ratio
    Gamma(<A_i, beta> + c_i + A_ij) / Gamma(<A_i, beta> + c_i) for A_ij > 0
    and its reciprocal for A_ij < 0.  So the step ratios telescope: their
    product around any closed lattice loop is identically 1, and two paths
    to one point give the same value wherever every step along them is
    defined.  The walk takes a step only where both factor products are
    nonzero, so every step it takes is defined.  The disagreement check is
    kept as a guard; every collision raised comes from the zero-denominator
    check.
    """
    ev = _ClassFactors(s, qvec(alpha0[0], alpha0[1]))
    p_num, q_num, p_den, q_den = ev.p_num, ev.q_num, ev.p_den, ev.q_den
    values: dict[Offset, Fraction] = {(0, 0): Fraction(1)}
    stack: list[Offset] = [(0, 0)]
    exceeded = False

    while stack:
        d = stack.pop()
        u = values[d]
        for j, (s1, s2) in _STEPS:
            fwd = (d[0] + s1, d[1] + s2)
            pv = p_num(j, d)
            if pv:
                qv = q_num(j, fwd)
                if not qv:
                    raise ResonantCollisionError(ev.exponent(d))
                v = u * Fraction(pv * q_den[j], qv * p_den[j])
                if max(abs(fwd[0]), abs(fwd[1])) > radius:
                    exceeded = True
                    if early_exit:
                        return GrowResult(values, True)
                elif fwd in values:
                    if values[fwd] != v:
                        raise ResonantCollisionError(ev.exponent(fwd))
                else:
                    values[fwd] = v
                    stack.append(fwd)
            bwd = (d[0] - s1, d[1] - s2)
            qv0 = q_num(j, d)
            if qv0:
                pv0 = p_num(j, bwd)
                if not pv0:
                    raise ResonantCollisionError(ev.exponent(d))
                v = u * Fraction(qv0 * p_den[j], pv0 * q_den[j])
                if max(abs(bwd[0]), abs(bwd[1])) > radius:
                    exceeded = True
                    if early_exit:
                        return GrowResult(values, True)
                elif bwd in values:
                    if values[bwd] != v:
                        raise ResonantCollisionError(ev.exponent(bwd))
                else:
                    values[bwd] = v
                    stack.append(bwd)

    return GrowResult(values, exceeded)


def component_polynomial(s: HornSystem, alpha0: QVec, radius: int) -> PuiseuxPolynomial | None:
    """The finite solution through alpha0, or None if it leaves the radius box."""
    res = grow_component(s, alpha0, radius, early_exit=True)
    if res.exceeded:
        return None
    return PuiseuxPolynomial(
        {(alpha0[0] + d[0], alpha0[1] + d[1]): v for d, v in res.values.items()}
    )


# -- atomic subsystems and branch bookkeeping --------------------------------


class _Quotient:
    """Canonical reduction of Z^2 modulo the column lattice of A_I, through
    the column Hermite form."""

    def __init__(self, sub: AtomicSystem):
        (a1, b1), (a2, b2) = sub.rows
        c1, c2 = [a1, a2], [b1, b2]  # columns of A_I
        while c2[0] != 0:
            if c1[0] == 0:
                c1, c2 = c2, c1
                continue
            qq = c1[0] // c2[0]
            c1 = [c1[0] - qq * c2[0], c1[1] - qq * c2[1]]
            c1, c2 = c2, c1
        if c1[0] < 0:
            c1 = [-c1[0], -c1[1]]
        if c2[1] < 0:
            c2 = [-c2[0], -c2[1]]
        if c1[0] * c2[1] != abs(sub.det):
            raise AssertionError("column reduction lost the determinant")
        self.c1, self.c2 = c1, c2

    def reduce(self, k: Offset) -> Offset:
        t = k[0] // self.c1[0]
        k = (k[0] - t * self.c1[0], k[1] - t * self.c1[1])
        u = k[1] // self.c2[1]
        return (k[0], k[1] - u * self.c2[1])

    def reps(self) -> list[Offset]:
        return [(r1, r2) for r1 in range(self.c1[0]) for r2 in range(self.c2[1])]


def branch_base_points(sub: AtomicSystem) -> list[Offset]:
    """One base point k0 in N^2 per residue class of Z^2 modulo A_I Z^2:
    the class point closest to the origin (smallest max-coordinate, ties by
    k1 then k2), the corner of the branch's distinguished pole family.
    There are exactly |det A_I| branches."""
    quo = _Quotient(sub)
    out = []
    for rep in quo.reps():
        base = None
        t = 0
        while base is None:
            shell = [(k1, t) for k1 in range(t)] + [(t, k2) for k2 in range(t + 1)]
            for k in sorted(shell):
                if quo.reduce(k) == rep:
                    base = k
                    break
            t += 1
        out.append(base)
    return out


def branch_initial_exponent(sub: AtomicSystem, k0: Offset) -> QVec:
    """alpha0 = -A_I^{-1}(k0 + c_I)."""
    w = inverse_times(sub.rows, (k0[0] + sub.params[0], k0[1] + sub.params[1]))
    return (-w[0], -w[1])


def support_cone(s: HornSystem, indices: tuple[int, int]) -> ConeQ:
    """Exponent-space cone of a branch's support: spanned by -A_I^{-1}e_1 and
    -A_I^{-1}e_2."""
    sub = next(x for x in enumerate_atomic(s) if x.indices == tuple(indices))
    g1 = inverse_times(sub.rows, (1, 0))
    g2 = inverse_times(sub.rows, (0, 1))
    return ConeQ((-g1[0], -g1[1]), (-g2[0], -g2[1]))


# -- windowed series tables ---------------------------------------------------


@dataclass
class TruncatedSeries:
    indices: tuple[int, int]
    branch: int
    alpha0: QVec
    coeffs: dict[Offset, Fraction]  # nonzero coefficients, offsets from alpha0
    window: int

    def polynomial(self) -> PuiseuxPolynomial:
        return PuiseuxPolynomial(
            {(self.alpha0[0] + d[0], self.alpha0[1] + d[1]): v for d, v in self.coeffs.items()}
        )


def series_from_submatrix(s: HornSystem, indices: tuple[int, int], branch: int,
                          window: int) -> TruncatedSeries:
    """Coefficient table of the pure fully supported solution attached to the
    row pair `indices` and residue class `branch`, to the given window radius.

    Coefficients are generated by the two-term ratio recurrences on the
    exponent lattice, normalized to 1 at the branch's initial exponent; only
    ratios of factor products are ever computed.
    """
    sub = next((x for x in enumerate_atomic(s) if x.indices == tuple(indices)), None)
    if sub is None:
        raise ValueError(f"rows {indices} are degenerate or out of range")
    bases = branch_base_points(sub)
    if not 0 <= branch < len(bases):
        raise ValueError(f"branch {branch} out of range 0..{len(bases) - 1}")
    alpha0 = branch_initial_exponent(sub, bases[branch])
    res = grow_component(s, alpha0, window, early_exit=False)
    return TruncatedSeries(tuple(indices), branch, alpha0, res.values, window)


def verify_truncated(t: TruncatedSeries, s: HornSystem) -> bool:
    """Check every coefficient relation whose two endpoints both lie inside
    the window box, reading absent points as exact zeros."""
    ev = _ClassFactors(s, qvec(t.alpha0[0], t.alpha0[1]))
    w = t.window

    for d1 in range(-w, w + 1):
        for d2 in range(-w, w + 1):
            d = (d1, d2)
            u = t.coeffs.get(d, 0)
            for j, (s1, s2) in _STEPS:
                nxt = (d1 + s1, d2 + s2)
                if max(abs(nxt[0]), abs(nxt[1])) > w:
                    continue
                v = t.coeffs.get(nxt, 0)
                # P_j(d) u(d) == Q_j(nxt) v(nxt), both sides over the
                # common denominator p_den * q_den * den(u) * den(v)
                lhs = ev.p_num(j, d) * ev.q_den[j] * u.numerator * v.denominator
                rhs = ev.q_num(j, nxt) * ev.p_den[j] * v.numerator * u.denominator
                if lhs != rhs:
                    return False
    return True


# -- window-bounded polynomial harvesting -------------------------------------


@dataclass
class HarvestResult:
    outcome: str  # "finite" | "exceeds_window" | "resonant_collision"
    subsystem: tuple[int, int]
    branch: int
    initial_exponent: QVec
    polynomial: PuiseuxPolynomial | None = None
    collision_point: QVec | None = None


def harvest_polynomials(s: HornSystem, window: int) -> list[HarvestResult]:
    """Run one exploration per (row pair, residue class) start point.

    From each branch base exponent the support component is grown along the
    coefficient relations; a direction is cut where its numerator factor
    vanishes.  If the frontier dies out inside the window, the outcome is
    finite and carries the assembled (verified) polynomial; paths touching
    the window boundary report exceeds_window; a vanishing denominator
    against a live numerator reports the offending point.

    Explorations landing on an already harvested polynomial are collapsed
    into the first finite result, so the finite outcomes are distinct
    solutions.
    """
    results: list[HarvestResult] = []
    seen_polys: set[PuiseuxPolynomial] = set()

    for sub in enumerate_atomic(s):
        for branch, k0 in enumerate(branch_base_points(sub)):
            alpha0 = branch_initial_exponent(sub, k0)
            try:
                poly = component_polynomial(s, alpha0, window)
            except ResonantCollisionError as exc:
                results.append(HarvestResult(
                    "resonant_collision", sub.indices, branch, alpha0,
                    collision_point=exc.point,
                ))
                continue
            if poly is None:
                results.append(HarvestResult(
                    "exceeds_window", sub.indices, branch, alpha0,
                ))
                continue
            poly = poly.normalized()
            if not is_solution(poly, s):
                results.append(HarvestResult(
                    "resonant_collision", sub.indices, branch, alpha0,
                    collision_point=alpha0,
                ))
                continue
            if poly in seen_polys:
                continue
            seen_polys.add(poly)
            results.append(HarvestResult(
                "finite", sub.indices, branch, alpha0, polynomial=poly,
            ))
    return results


def default_window(s: HornSystem) -> int:
    """The one growth radius: 4 * (rank + m * max |entry|), wide enough for
    every fixture.  The rank is the holonomic rank, or the atomic rank of a
    bare atomic pair; raises ValueError where neither is defined."""
    from .solver import system_rank

    max_entry = max(max(abs(r.a), abs(r.b)) for r in s.rows)
    return 4 * (system_rank(s) + s.m * max_entry)
