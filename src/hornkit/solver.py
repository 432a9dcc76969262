"""Full-system solution assembly: persistent Puiseux polynomial solutions,
persistence validation, diagonal monodromy data, closed forms for simplicial
and parallelepipedal configurations, and the constructive check that a
parameter choice spans the whole solution space by Puiseux polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import counting
from .atomic import _index_rects
from .lattice import QVec, Vec2, inverse_times, primitive
from .operators import _by_class, is_solution
from .polygon import build_polygon, classify, vertex_count
from .puiseux import ClassKey, Offset, PuiseuxPolynomial
from .series import default_window, grow_starts, harvest_polynomials
from .system import HornSystem, detect_resonance, enumerate_atomic


def persistent_solutions(s: HornSystem) -> list[PuiseuxPolynomial]:
    """The finite components of the full system through the index-rectangle
    starts of every row pair (`atomic.polynomial_exponents`), each scaled to
    1 at its lex-smallest exponent, and sorted by that exponent, which
    orders them as their sorted terms do: distinct finite supports are
    disjoint, so their lex-smallest exponents differ.  The sort compares
    the exponents in integers and builds no Fraction.

    Coefficients are recomputed against the full system: an atomic pair
    pins the support, the remaining rows reshape the coefficients.  Each
    solution is grown once and checked on its growth evaluator
    (`series.grow_starts`), whose covered-start skip keeps it from being
    found twice.  Growth runs at `default_window`, which raises ValueError
    on systems without a rank formula.
    """
    radius = default_window(s)
    starts = [(a, i, uv) for a in enumerate_atomic(s) if a.nu
              for i, uv in enumerate(_index_rects(a)[0])]
    out = [r.polynomial for r in grow_starts(s, starts, radius) if r.outcome == "finite"]
    # Each coordinate of a leading exponent, (r + lead*q)/q on its class key,
    # over the lcm of that coordinate's denominators: a key in integers.
    l1, l2 = lcm(*(p.key[1] for p in out)), lcm(*(p.key[3] for p in out))
    out.sort(key=lambda p: ((p.key[0] + p.lead[0] * p.key[1]) * (l1 // p.key[1]),
                            (p.key[2] + p.lead[1] * p.key[3]) * (l2 // p.key[3])))
    return out


def validate_persistence(f: PuiseuxPolynomial, s: HornSystem) -> bool:
    """A solution is persistent iff one independent row pair witnesses every
    vanishing its support relies on.

    At a support point whose neighbor in a coordinate direction lies outside
    the support, the corresponding operator factor product must vanish (f is
    a solution, so it does); persistence requires the vanishing factor to
    come from the witnessing pair, for every such boundary cut.  A parameter
    perturbation translates the support so that the pair's factor values are
    unchanged while every other row's values move, so cuts relying on a
    third row break and the support escapes to infinity.

    Each cut is read off the class evaluator (`operators._by_class`) as the
    set of rows whose integer factor of P_j (forward cut) or Q_j (backward
    cut) vanishes at the cut point, from `p_int`/`q_int`.
    """
    if not is_solution(f, s):
        raise ValueError("persistence is only defined for solutions")
    cuts: list[set[int]] = []
    for ev, terms in _by_class(f, s):
        for d1, d2 in terms:
            for j, s1, s2 in ((1, 1, 0), (2, 0, 1)):
                for rows, out in ((ev.p_int[j], (d1 + s1, d2 + s2)),
                                  (ev.q_int[j], (d1 - s1, d2 - s2))):
                    if out not in terms:
                        cuts.append({i for n, a, b, e, i in rows if -e < n + a * d1 + b * d2 <= 0})
    return any(all(i in cut or j in cut for cut in cuts)
               for i, j in (a.indices for a in enumerate_atomic(s)))


@dataclass(frozen=True)
class MonodromyDiagonal:
    """Rotation numbers mod 1, per axis, one entry per basis element: the
    loop around x_j = 0 acts diagonally by exp(2*pi*i*rotation)."""

    axis1: tuple[Fraction, ...]
    axis2: tuple[Fraction, ...]


def _pure_part(f: PuiseuxPolynomial) -> tuple[ClassKey, dict[Offset, tuple[int, int]]] | None:
    """f's one class part (`PuiseuxPolynomial.class_parts`), None if f is 0;
    ValueError naming is_pure's witness if f mixes classes."""
    parts = f.class_parts()
    if len(parts) > 1:
        _, witness = f.is_pure()
        raise ValueError(f"element is not pure: exponents {witness[0]} and {witness[1]}")
    return next(iter(parts.items()), None)


def monodromy_exponents(basis: list[PuiseuxPolynomial]) -> MonodromyDiagonal:
    keys = [_pure_part(f)[0] for f in basis]
    return MonodromyDiagonal(tuple(Fraction(r1, q1) for r1, q1, _, _ in keys),
                             tuple(Fraction(r2, q2) for _, _, r2, q2 in keys))


# -- closed forms -------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSolution:
    """x^prefactor times a product of (multi-term inner polynomial)^outer."""

    prefactor: QVec
    factors: tuple[tuple[PuiseuxPolynomial, Fraction], ...]


def simplicial_closed_form(m_rows, alpha_tilde) -> ClosedFormSolution:
    """Generating solution of the simplicial system with rows M_1, M_2 and
    -M_1-M_2: x^(-M^{-1} a) * (1 + x^(-M^{-1}e_1) + x^(-M^{-1}e_2))^(-|a~|).
    """
    m = (Vec2(*m_rows[0]), Vec2(*m_rows[1]))
    at = [Fraction(x) for x in alpha_tilde]
    if len(at) != 3:
        raise ValueError("simplicial form takes three parameters")
    pre = inverse_times(m, at[:2])
    prefactor = (-pre[0], -pre[1])
    g1 = inverse_times(m, (1, 0))
    g2 = inverse_times(m, (0, 1))
    inner = PuiseuxPolynomial(
        {
            (Fraction(0), Fraction(0)): Fraction(1),
            (-g1[0], -g1[1]): Fraction(1),
            (-g2[0], -g2[1]): Fraction(1),
        }
    )
    outer = -(at[0] + at[1] + at[2])
    if outer == 0:
        return ClosedFormSolution(prefactor, ())
    return ClosedFormSolution(prefactor, ((inner, outer),))


def parallelepipedal_closed_form(m_rows, alpha, beta) -> ClosedFormSolution:
    """Generating solution of the system with rows M, -M:
    x^(-M^{-1} a) * prod_j (1 + x^(-M^{-1}e_j))^(-a_j - b_j)."""
    m = (Vec2(*m_rows[0]), Vec2(*m_rows[1]))
    al = [Fraction(x) for x in alpha]
    be = [Fraction(x) for x in beta]
    pre = inverse_times(m, al)
    prefactor = (-pre[0], -pre[1])
    factors = []
    for j in (0, 1):
        g = inverse_times(m, (1, 0) if j == 0 else (0, 1))
        inner = PuiseuxPolynomial(
            {(Fraction(0), Fraction(0)): Fraction(1), (-g[0], -g[1]): Fraction(1)}
        )
        outer = -(al[j] + be[j])
        if outer != 0:
            factors.append((inner, outer))
    return ClosedFormSolution(prefactor, tuple(factors))


def simplicial_system(m_rows, alpha_tilde, name: str = "") -> HornSystem:
    rows = [Vec2(*m_rows[0]), Vec2(*m_rows[1])]
    rows.append(Vec2(-rows[0].a - rows[1].a, -rows[0].b - rows[1].b))
    return HornSystem(tuple(rows), tuple(Fraction(x) for x in alpha_tilde), name)


def parallelepipedal_system(m_rows, alpha, beta, name: str = "") -> HornSystem:
    rows = (Vec2(*m_rows[0]), Vec2(*m_rows[1]),
            -Vec2(*m_rows[0]), -Vec2(*m_rows[1]))
    params = tuple(Fraction(x) for x in (*alpha, *beta))
    return HornSystem(rows, params, name)


def expand_closed_form(cf: ClosedFormSolution) -> PuiseuxPolynomial:
    """Exact multinomial expansion; every outer exponent must be a
    nonnegative integer."""
    result = PuiseuxPolynomial.monomial(cf.prefactor[0], cf.prefactor[1])
    for inner, outer in cf.factors:
        if outer.denominator != 1 or outer < 0:
            raise ValueError(f"not polynomial-expandable: outer exponent {outer}")
        result = result * inner ** int(outer)
    return result


# -- constructive maximal reducibility ----------------------------------------


@dataclass(frozen=True)
class Report:
    """Every quantity hornkit reports on one system, each part computed on
    its first read and kept.  Solutions are grown at `radius`: `window`, or
    `series.default_window` when that is None.  A part the system lacks (a
    rank without a rank formula, the polygon of a confluent system) raises
    ValueError when read.  The four solution parts are found together, by
    `check_constructive`."""

    system: HornSystem
    window: int | None = None

    @cached_property
    def radius(self) -> int:
        return default_window(self.system) if self.window is None else self.window

    @cached_property
    def convergent_counts(self) -> list[int]:
        """`counting.convergent_count_S` at each vertex of the polygon."""
        p = self.polygon
        return [counting.convergent_count_S(p, i) for i in range(vertex_count(p))]

    rank = cached_property(lambda self: counting.system_rank(self.system))
    persistent_dim = cached_property(lambda self: counting.persistent_dim(self.system))
    fully_supported_count = cached_property(
        lambda self: counting.fully_supported_count(self.system))
    polygon = cached_property(lambda self: build_polygon(self.system))
    classification = cached_property(lambda self: classify(self.polygon))
    resonance = cached_property(lambda self: detect_resonance(self.system))
    _found = cached_property(lambda self: check_constructive(self.system, self.radius))
    persistent = cached_property(lambda self: self._found.persistent)
    harvest = cached_property(lambda self: self._found.harvest)
    solutions = cached_property(lambda self: self._found.solutions)
    independent_count = cached_property(lambda self: self._found.independent_count)

    @property
    def rank_attained(self) -> bool:
        return self.independent_count == self.rank


def independent_dimension(polys: list[PuiseuxPolynomial]) -> int:
    """Dimension of the span of pure polynomials: distinct exponent classes
    mod Z^2 are independent, and within a class the coefficient vectors, by
    integer offset, are row-reduced exactly.  A polynomial mixing classes
    raises ValueError; callers with mixed input split it themselves.

    The elimination runs in integers, on each class part's pairs
    (`PuiseuxPolynomial.class_parts`): a vector is brought over its common
    denominator, and v - (v_p/r_p) r at the pivot p becomes r_p*v - v_p*r,
    with its content removed.  Scaling a vector changes neither its pivot
    nor whether it vanishes, so the pivots and the count are those of the
    elimination in rationals."""
    bases: dict[ClassKey, dict[Offset, dict[Offset, int]]] = {}
    for p in polys:
        part = _pure_part(p)
        if part is None:
            continue
        basis, pairs = bases.setdefault(part[0], {}), part[1]
        den = lcm(*(m for _, m in pairs.values()))
        vec = _divide_content({d: n * (den // m) for d, (n, m) in pairs.items()})
        while vec:
            pivot = min(vec)
            row = basis.get(pivot)
            if row is None:
                basis[pivot] = vec
                break
            a, b = row[pivot], vec[pivot]
            vec = {k: a * v for k, v in vec.items()}
            for k, v in row.items():
                newv = vec.get(k, 0) - b * v
                if newv:
                    vec[k] = newv
                else:
                    del vec[k]
            vec = _divide_content(vec)
    return sum(len(basis) for basis in bases.values())


def _divide_content(vec: dict[Offset, int]) -> dict[Offset, int]:
    """vec divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g < 2 else {k: v // g for k, v in vec.items()}


def check_constructive(s: HornSystem, window: int | None = None) -> Report:
    """The `Report` of s at `window` with its solution parts found: the
    persistent and the harvested Puiseux polynomial solutions, each found
    once, and the count of the independent ones, which `rank_attained`
    compares with the rank.  A `Report` reads these parts from here alone.

    The harvest reuses each persistent support that fits its window, as that
    same object (`series.grow_starts`), and grows every other support it
    finds once, so two equal solutions are one object: `solutions` drops
    the persistent ones from the harvest by identity."""
    report = Report(s, window)
    persistent = persistent_solutions(s)
    harvest = harvest_polynomials(s, report.radius, persistent)
    solutions = list(persistent)
    seen = {id(p) for p in persistent}
    solutions.extend(r.polynomial for r in harvest
                     if r.outcome == "finite" and id(r.polynomial) not in seen)
    # a cached_property keeps its value in the instance dict
    vars(report).update(persistent=persistent, harvest=harvest, solutions=solutions,
                        independent_count=independent_dimension(solutions))
    return report


# Defaults of `suggest_polynomial_parameters`, shared with `hornkit suggest-params`.
SUGGEST_BOUND = 5
SUGGEST_WINDOW = 16


def suggest_polynomial_parameters(s: HornSystem, search_bound: int = SUGGEST_BOUND,
                                  window: int = SUGGEST_WINDOW) -> tuple[Fraction, ...] | None:
    """Deterministic bounded search for a parameter vector giving a full
    Puiseux polynomial basis, verified by check_constructive.

    Candidates group rows by direction line and impose a negative integer
    sum per line (which makes every antiparallel pair sum an integer and,
    with three lines, every triangle sum an integer); per-line depths, the
    leading offsets between lines, and the stagger between rows sharing a
    line are swept up to the bound.  Every candidate is accepted only when
    the independent polynomial count reaches the holonomic rank exactly.
    That proves a Puiseux polynomial basis only if the rank at the returned
    parameters is the generic rank, which is not certified here.
    """
    if not classify(build_polygon(s)).maximally_reducible:
        raise ValueError("not maximally reducible: no polynomial basis exists")

    tried = set()
    for budget in range(1, search_bound + 1):
        for candidate in _parameter_candidates(s, budget):
            if candidate in tried:
                continue
            tried.add(candidate)
            trial = s.with_params(candidate)
            if check_constructive(trial, window).rank_attained:
                return tuple(candidate)
    return None


_DEPTH_PATTERNS = ((1,), (1, 2), (1, 2, 2, 3), (1, 2, 3, 4), (1, 1), (2,),
                   (1, 5, 1), (1, 3), (2, 1), (3,), (1, 4, 1), (5, 1, 1))
_LEAD_PATTERNS = ((0,), (0, 1, 2, 3))
_STAGGERS = (5, 8)


def _parameter_candidates(s: HornSystem, budget: int):
    """Structured integer parameter assignments, cheapest shapes first.

    Line t receives rows staggered by an integer step plus a per-line lead;
    the last row of the line is then adjusted so the line sum equals a small
    negative integer from a cycled depth pattern.  Patterns whose maximum
    depth exceeds the budget are deferred to a later budget round.
    """
    lines: dict[Vec2, list[int]] = {}
    for i, r in enumerate(s.rows):
        d, _ = primitive(r)
        key = d if (d.a, d.b) > (-d.a, -d.b) else -d
        lines.setdefault(key, []).append(i)
    keys = sorted(lines, key=lambda v: (v.a, v.b))

    for depths in _DEPTH_PATTERNS:
        if max(depths) != budget:
            continue
        for leads in _LEAD_PATTERNS:
            for stagger in _STAGGERS:
                params: list[Fraction] = [Fraction(0)] * s.m
                for t, key in enumerate(keys):
                    idxs = lines[key]
                    for u, i in enumerate(idxs):
                        params[i] = Fraction(leads[t % len(leads)] + u * stagger)
                    total = sum(params[i] for i in idxs)
                    params[idxs[-1]] += -depths[t % len(depths)] - total
                yield tuple(params)
