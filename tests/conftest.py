import json
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from hornkit.lattice import Vec2, cross, dot, primitive, qvec
from hornkit.operators import _ClassFactors
from hornkit.polygon import Classification, OreSatoPolygon
from hornkit.puiseux import PuiseuxPolynomial, _class_exponent, _class_of
from hornkit.series import (GrowResult, ResonantCollisionError, _fill, _int_pair, _Quotient,
                            _walk_support)
from hornkit.system import (Circuit, HornSystem, ResonanceReport, _coprime, check_nonconfluent,
                            enumerate_atomic)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "hornkit" / "fixtures"
FIXTURE_NAMES = ("zonotope", "triangle_sides", "triangle_simplex", "atomic_32_43",
                 "quadrilateral", "simplicial22", "example21", "example31")


def load_system(name: str) -> HornSystem:
    with open(FIXTURES / f"{name}.json") as fh:
        return HornSystem.from_json(json.load(fh))


def load_expected(name: str) -> dict:
    with open(FIXTURES / "expected" / f"{name}.expected.json") as fh:
        return json.load(fh)


def as_pair(q) -> tuple[Decimal, Decimal]:
    """A rational as a `TruncatedSeries` coefficient: a reduced pair of
    Decimal integers, the inverse of `as_fraction`."""
    q = Fraction(q)
    return Decimal(q.numerator), Decimal(q.denominator)


def as_fraction(pair) -> Fraction:
    """The rational n/d of a `TruncatedSeries` coefficient pair."""
    return Fraction(*_int_pair(pair))


def evaluator_at(s: HornSystem, alpha) -> _ClassFactors:
    """The evaluator of s anchored at the exponent alpha: on alpha's class,
    at alpha's offset on it."""
    return _ClassFactors(s, *_class_of(qvec(alpha[0], alpha[1])))


def exponent_at(ev, d):
    """The exponent of the offset d from the anchor of the evaluator ev."""
    return _class_exponent(ev.key, ev.on_class(d))


def grow_full(ev, radius: int, start=(0, 0)) -> GrowResult:
    """`series.grow_component` without its early exit: the support walk
    covers the whole radius box around start, and every walked point is
    filled, as a series table is; `exceeded` says whether the component
    reaches past the box."""
    edges, exceeded = _walk_support(ev, start, radius, False)
    return GrowResult(_fill(ev, start, edges, 1), exceeded)


def eager_polynomial(key, pairs: dict) -> PuiseuxPolynomial:
    """The polynomial of a grown support as `series.grow_starts` built it
    before it kept the fill's pairs (`puiseux._GrownPolynomial`): every
    exponent and coefficient a Fraction at once, the pairs (n, m) taken
    over the pair (n0, m0) at the lex-smallest offset, in fill order."""
    n0, m0 = pairs[min(pairs)]
    poly = PuiseuxPolynomial.zero()
    poly.terms = {_class_exponent(key, d): Fraction(n * m0, m * n0) for d, (n, m) in pairs.items()}
    return poly


def fill_pairwise(ev, start, edges, one) -> dict:
    """`series._fill` as it was before its unit-square check: every walked
    relation is carried in big values, and the two ends of each relation
    off the spanning tree are compared as reduced pairs; a disagreement
    raises ResonantCollisionError at its upper end.  Two pairs in lowest
    terms are equal exactly when their rationals are."""
    p_num, q_num, p_den, q_den = ev.p_num, ev.q_num, ev.p_den, ev.q_den
    values = {start: (one, one)}
    for a, b, j, forward in edges:
        if forward:
            p, q = p_num(j, a) * q_den[j], q_num(j, b) * p_den[j]
        else:
            p, q = q_num(j, a) * p_den[j], p_num(j, b) * q_den[j]
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        p, q = p // g, q // g
        n, d = values[a]
        g1, g2 = gcd(int(n % q), q), gcd(p, int(d % p))
        v = (n // g1 * (p // g2), d // g2 * (q // g1))
        if b not in values:
            values[b] = v
        elif values[b] != v:
            raise ResonantCollisionError(ev.key, ev.on_class(b))
    return values


def integer_rows_by_gcd(s: HornSystem, anchor) -> tuple[tuple, tuple]:
    """`_ClassFactors.p_int` and `q_int` as the evaluator built them before
    its lazy factor lists: each row's value at the anchor is reduced by its
    gcd, and a row whose reduced denominator is 1 is kept, as
    (n_i, a_i, b_i, |A_ij|, i), on each side it belongs to."""
    p_int: tuple = ([], [], [])
    q_int: tuple = ([], [], [])
    for i, (r, c) in enumerate(zip(s.rows, s.params)):
        v = r.a * Fraction(anchor[0]) + r.b * Fraction(anchor[1]) + c
        g = gcd(v.numerator, v.denominator)
        if v.denominator // g != 1:
            continue
        for j, entry in ((1, r.a), (2, r.b)):
            if entry > 0:
                p_int[j].append((v.numerator // g, r.a, r.b, entry, i))
            elif entry < 0:
                q_int[j].append((v.numerator // g, r.a, r.b, -entry, i))
    return p_int, q_int


def staircase_by_sorting(rows: set, w, radius: int) -> bool:
    """`series._staircase_in` as it was, with a list of the possible steps
    sorted by their distance from the line through w at every step."""
    (w1, w2), x, y = w, 0, 0
    s1, s2 = (1 if w1 > 0 else -1), (1 if w2 > 0 else -1)
    while (x, y) != w:
        steps = ([(x + s1, y)] if x != w1 else []) + ([(x, y + s2)] if y != w2 else [])
        steps.sort(key=lambda p: abs(p[0] * w2 - p[1] * w1))
        inside = [p for p in steps if all(n + a * p[0] + b * p[1] <= 0 for n, a, b in rows)]
        if not inside:
            return False
        x, y = inside[0]
        if max(abs(x), abs(y)) > radius:
            return True
    return True


def escape_certified_by_sides(ev, start, radius: int) -> bool:
    """`series._escape_certified` as it was before `_ClassFactors.ints`: the
    integer-valued rows gathered from the four sides `p_int`/`q_int` into a
    set, and the candidate directions found afresh for every start; each
    staircase by `staircase_by_sorting`."""
    o1, o2 = start
    rows = set()
    for side in (ev.p_int[1], ev.p_int[2], ev.q_int[1], ev.q_int[2]):
        for n, a, b, _, _ in side:
            n += a * o1 + b * o2
            if n > 0:
                return False
            rows.add((n, a, b))
    if not rows:
        return True
    dirs = []
    for _, a, b in rows:
        g = gcd(a, b)
        for w in ((-b // g, a // g), (b // g, -a // g)):
            if w not in dirs and all(ra * w[0] + rb * w[1] <= 0 for _, ra, rb in rows):
                dirs.append(w)
    total = (sum(w[0] for w in dirs), sum(w[1] for w in dirs))
    if total != (0, 0):
        dirs.append(total)
    return any(staircase_by_sorting(rows, w, radius) for w in dirs)


def product_by_factors(rows: list, d) -> int:
    """`operators._product` as it was before its closed form: every factor
    of every row multiplied in one at a time."""
    out = 1
    for n, qa, qb, q, e in rows:
        v = n + qa * d[0] + qb * d[1]
        for _ in range(e):
            if not v:
                return 0
            out *= v
            v += q
    return out


def period_scan_base_points(sub) -> list:
    """`series.branch_base_points` as it was: for each class (r1, r2), every
    t up to the period of k2 = (r2 + t*c1[1]) mod c2[1], cut off once k1
    reaches the best max-coordinate.  Quadratic in |det A_I| when c1[0] = 1
    and c1[1] is prime to c2[1]."""
    quo = _Quotient(sub)
    (step1, shift), mod = quo.c1, quo.c2[1]
    period = mod // gcd(shift, mod)
    out = []
    for r1 in range(step1):
        for r2 in range(mod):
            best = (r1 if r1 > r2 else r2, r1, r2)
            for t in range(1, period):
                k1 = r1 + t * step1
                if k1 >= best[0]:
                    break
                k2 = (r2 + t * shift) % mod
                best = min(best, (k1 if k1 > k2 else k2, k1, k2))
            out.append(best[1:])
    return out


# -- polygon oracles ----------------------------------------------------------


def witness_edge_multiset(c: Classification) -> dict[Vec2, int]:
    """Edge multiset of the Minkowski sum of the witness summands."""
    out: dict[Vec2, int] = {}
    for seg in c.segments:
        for d in (seg.direction, -seg.direction):
            out[d] = out.get(d, 0) + seg.length
    if c.triangle is not None:
        for seg in c.triangle.edges:
            out[seg.direction] = out.get(seg.direction, 0) + seg.length
    return out


def polygon_edge_multiset(p: OreSatoPolygon) -> dict[Vec2, int]:
    return {e.direction: e.length for e in p.edges}


def is_centrally_symmetric(p: OreSatoPolygon) -> bool:
    """Direct symmetry test p == -p up to translation, as an independent
    cross-check of the zonotope branch."""
    ms = polygon_edge_multiset(p)
    return all(ms.get(-d, 0) == length for d, length in ms.items())


def outer_normal_holds(p: OreSatoPolygon) -> bool:
    """Every edge's normal attains its maximum over vertices on that edge."""
    for i, e in enumerate(p.edges):
        vals = [dot(e.normal, v) for v in p.vertices]
        edge_val = vals[i]
        if vals[(i + 1) % len(p.vertices)] != edge_val:
            return False
        if any(v > edge_val for v in vals):
            return False
    return True


# -- the recession-cone oracle for counting.convergent_count_S ---------------


@dataclass(frozen=True)
class ConeQ:
    """A strongly convex 2D cone spanned by two independent generators,
    stored in counterclockwise order."""

    gen1: tuple[Fraction, Fraction]
    gen2: tuple[Fraction, Fraction]

    def __post_init__(self):
        d = self.gen1[0] * self.gen2[1] - self.gen1[1] * self.gen2[0]
        if d == 0:
            raise ValueError("cone generators must be linearly independent")
        if d < 0:
            g1, g2 = self.gen1, self.gen2
            object.__setattr__(self, "gen1", g2)
            object.__setattr__(self, "gen2", g1)

    def contains(self, v: tuple[Fraction, Fraction]) -> bool:
        """Membership via Cramer coordinates, exact."""
        g1, g2 = self.gen1, self.gen2
        det = g1[0] * g2[1] - g1[1] * g2[0]
        a = (v[0] * g2[1] - v[1] * g2[0]) / det
        b = (g1[0] * v[1] - g1[1] * v[0]) / det
        return a >= 0 and b >= 0

    def contains_cone(self, other: "ConeQ") -> bool:
        return self.contains(other.gen1) and self.contains(other.gen2)


@dataclass(frozen=True)
class ComponentRef:
    """A complement component named by its polygon vertex; the recession cone
    is spanned by the two outer normals adjacent to the vertex."""

    vertex_index: int
    normal_cone: ConeQ


def cone_from_vectors(u: Vec2, v: Vec2) -> ConeQ:
    if cross(u, v) > 0:
        return ConeQ((Fraction(u.a), Fraction(u.b)), (Fraction(v.a), Fraction(v.b)))
    return ConeQ((Fraction(v.a), Fraction(v.b)), (Fraction(u.a), Fraction(u.b)))


def component_ref(p: OreSatoPolygon, i: int) -> ComponentRef:
    """Vertex i sits between edges i-1 and i; its normal cone is spanned by
    those two outer normals."""
    q = len(p.edges)
    if not 0 <= i < q:
        raise ValueError(f"vertex index {i} out of range 0..{q - 1}")
    n_prev = p.edges[(i - 1) % q].normal
    n_next = p.edges[i].normal
    return ComponentRef(i, cone_from_vectors(n_prev, n_next))


def convergent_dim_by_cone(s: HornSystem, comp: ComponentRef) -> int:
    """Sum |det| over row pairs whose spanned cone contains the component's
    recession cone; the independent oracle for convergent_count_S.  On the
    rows as given: |det(g*d, h*e)| = g*h * |det(d, e)|, the sum over the g*h
    pairs of Gauss-normalized copies, and the spanned cone is unchanged."""
    if not check_nonconfluent(s):
        raise ValueError("count requires nonconfluency")
    return sum(abs(a.det) for a in enumerate_atomic(s)
               if cone_from_vectors(*a.rows).contains_cone(comp.normal_cone))


def random_nonconfluent_system(rng: random.Random, max_m: int = 7,
                               bound: int = 3) -> HornSystem:
    """Nonconfluent rank-2 system with entries in [-bound, bound] and random
    rational parameters with large denominators."""
    while True:
        m = rng.randint(2, max_m - 1)
        rows = []
        for _ in range(m):
            while True:
                r = (rng.randint(-bound, bound), rng.randint(-bound, bound))
                if r != (0, 0):
                    rows.append(r)
                    break
        last = (-sum(r[0] for r in rows), -sum(r[1] for r in rows))
        if last == (0, 0) or max(abs(last[0]), abs(last[1])) > bound:
            continue
        rows.append(last)
        vs = [Vec2(*r) for r in rows]
        if all(cross(vs[0], v) == 0 for v in vs[1:]):
            continue
        params = [Fraction(rng.randint(1, 10**7), 10**7 + rng.randint(1, 997))
                  for _ in rows]
        return HornSystem.make(rows, params)


def constructive_systems():
    """The 8 fixtures, each also dilated by 2 (rows 2*A, the same
    parameters), and the systems `random_nonconfluent_system` draws from
    seeds 0-59."""
    for name in FIXTURE_NAMES:
        s = load_system(name)
        yield s
        yield HornSystem.make([(2 * r.a, 2 * r.b) for r in s.rows], s.params, f"{name}x2")
    for seed in range(60):
        yield random_nonconfluent_system(random.Random(seed))


def normalize_rows(s: HornSystem) -> HornSystem:
    """Split every row N*d (d primitive, N > 1) with parameter c into N rows d
    with parameters (c + k)/N, k = 0..N-1; primitive rows pass through.

    This is the Gauss-multiplication normalization; it preserves
    nonconfluency and all the combinatorial counts, which the library
    computes on the rows as given.
    """
    rows: list[Vec2] = []
    params: list[Fraction] = []
    for r, c in zip(s.rows, s.params):
        d, g = primitive(r)  # raises on a zero row
        if g == 1:
            rows.append(r)
            params.append(c)
        else:
            for k in range(g):
                rows.append(d)
                params.append(Fraction(c + k, g))
    return HornSystem(tuple(rows), tuple(params), s.name)


def factor_product(s: HornSystem, j: int, side: str, alpha) -> Fraction:
    """P_j (side "p") or Q_j (side "q") at the exponent alpha, straight from
    the definition: the product of <A_i, alpha> + c_i + l over the rows with
    A_ij > 0 (for P_j) or A_ij < 0 (for Q_j), and l = 0..|A_ij|-1."""
    out = Fraction(1)
    for row, c in zip(s.rows, s.params):
        entry = row.a if j == 1 else row.b
        if (entry > 0) if side == "p" else (entry < 0):
            for ell in range(abs(entry)):
                out *= row.a * alpha[0] + row.b * alpha[1] + c + ell
    return out


def reference_class_residual(ev, j: int, terms: dict) -> dict:
    """`operators._class_residual` as it was on `Fraction` coefficients: the
    nonzero terms of x_j P_j(theta) f - Q_j(theta) f, by offset, for
    f = sum of terms[d] * x^(anchor + d) on the class of ev, summed term by
    term in Fractions."""
    s1, s2 = (1, 0) if j == 1 else (0, 1)
    p_den, q_den = ev.p_den[j], ev.q_den[j]
    out: dict = {}
    for (d1, d2), c in terms.items():
        pv = ev.p_num(j, (d1, d2))
        if pv:
            key = (d1 + s1, d2 + s2)
            v = out.get(key, 0) + c * Fraction(pv, p_den)
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        qv = ev.q_num(j, (d1, d2))
        if qv:
            key = (d1, d2)
            v = out.get(key, 0) - c * Fraction(qv, q_den)
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def reference_persistence(f, s: HornSystem) -> bool:
    """Persistence of the solution f, worked out in `Fraction`s: every
    boundary cut of f's support (a point whose neighbour along e_j is
    missing) must have a vanishing factor of P_j (forward) or Q_j (backward)
    from one row of a single independent row pair."""
    supp = set(f.terms)
    cuts = []
    for alpha in supp:
        for ell, step in ((1, (1, 0)), (2, (0, 1))):
            if (alpha[0] + step[0], alpha[1] + step[1]) not in supp:
                cuts.append((alpha, ell, "p"))
            if (alpha[0] - step[0], alpha[1] - step[1]) not in supp:
                cuts.append((alpha, ell, "q"))

    def witnesses(idx: int, alpha, ell: int, side: str) -> bool:
        row, c = s.rows[idx], s.params[idx]
        entry = row.a if ell == 1 else row.b
        if side == "p" and entry <= 0:
            return False
        if side == "q" and entry >= 0:
            return False
        val = Fraction(dot(row, alpha)) + c
        return val.denominator == 1 and -abs(entry) < val <= 0

    return any(all(witnesses(i, *cut) or witnesses(j, *cut) for cut in cuts)
               for i, j in (a.indices for a in enumerate_atomic(s)))


def fraction_independent_dimension(polys) -> int:
    """`solver.independent_dimension` as it was, in Fractions: within each
    exponent class the coefficient vectors, by offset, are row-reduced with
    v - (v_p/r_p) r at the pivot p, the least offset of v.  A polynomial
    mixing classes raises ValueError."""
    bases: dict = {}
    for p in polys:
        parts = p.class_parts()
        if len(parts) > 1:
            raise ValueError("element is not pure")
        for key, pairs in parts.items():
            basis = bases.setdefault(key, {})
            vec = {d: Fraction(n, m) for d, (n, m) in pairs.items()}
            while vec:
                pivot = min(vec)
                if pivot not in basis:
                    basis[pivot] = vec
                    break
                row = basis[pivot]
                factor = vec[pivot] / row[pivot]
                for k, v in row.items():
                    newv = vec.get(k, Fraction(0)) - factor * v
                    if newv == 0:
                        vec.pop(k, None)
                    else:
                        vec[k] = newv
    return sum(len(basis) for basis in bases.values())


def fraction_detect_resonance(s: HornSystem) -> ResonanceReport:
    """`system.detect_resonance` as it was, summing each circuit's relation
    against the parameters in Fractions: the circuit is resonant when the
    sum is an integer."""
    rows, params = s.rows, s.params
    m = len(rows)
    circuits = []
    for i in range(m):
        for j in range(i + 1, m):
            u, v = rows[i], rows[j]
            if cross(u, v) != 0:
                continue
            lam = _coprime((v.a, -u.a) if (u.a, v.a) != (0, 0) else (v.b, -u.b))
            value = lam[0] * params[i] + lam[1] * params[j]
            circuits.append(Circuit((i, j), lam, value.denominator == 1))
    for i in range(m):
        for j in range(i + 1, m):
            if cross(rows[i], rows[j]) == 0:
                continue
            for k in range(j + 1, m):
                if cross(rows[i], rows[k]) == 0 or cross(rows[j], rows[k]) == 0:
                    continue
                lam = _coprime(
                    (cross(rows[j], rows[k]), cross(rows[k], rows[i]), cross(rows[i], rows[j])))
                value = lam[0] * params[i] + lam[1] * params[j] + lam[2] * params[k]
                circuits.append(Circuit((i, j, k), lam, value.denominator == 1))
    any_res = any(c.resonant for c in circuits)
    all_res = bool(circuits) and all(c.resonant for c in circuits)
    return ResonanceReport(tuple(circuits), any_res, all_res)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "xfailed", "xpassed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in name:
                continue
            key = name.split("test_criterion_")[1]
            tag = key.split("_")[0]
            label = key[len(tag) + 1:] or key
            if status == "passed":
                verdict = "PASS"
            elif status == "xfailed":
                verdict = "FAIL (expected: documented source discrepancy)"
            else:
                verdict = "FAIL"
            lines.setdefault((tag, label), verdict)
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for (tag, label), verdict in sorted(lines.items()):
            terminalreporter.write_line(f"  criterion {tag} ({label}): {verdict}")


@pytest.fixture
def zonotope():
    return load_system("zonotope")


@pytest.fixture
def triangle_sides():
    return load_system("triangle_sides")


@pytest.fixture
def triangle_simplex():
    return load_system("triangle_simplex")


@pytest.fixture
def atomic_32_43():
    return load_system("atomic_32_43")


@pytest.fixture
def quadrilateral():
    return load_system("quadrilateral")
