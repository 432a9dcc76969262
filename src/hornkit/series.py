"""Recurrence-driven series machinery.

A pure solution lives on an exponent class alpha0 + Z^2.  Its coefficients
obey, for j = 1, 2 and every beta in the class,

    P_j(beta) * u(beta) = Q_j(beta + e_j) * u(beta + e_j).

The relations drive windowed fully supported series tables (the residue
series of the Mellin-Barnes representation, generated through coefficient
ratios, never through Gamma values) and `grow_starts`, the one route from
a start to a Puiseux polynomial solution: harvested, persistent and atomic
strip solutions alike.  Growth walks the support first and fills
coefficients second.  The walk decides, from integer zero tests alone,
whether the support component through a start exponent closes off into a
finite support, escapes the window or meets a resonant collision; only a
support that closes, or a series table, gets coefficients.  One fill
(`_fill`) carries big values along the walk's spanning tree alone and
checks every other relation on unit squares, in small ints.  A closed
support is filled and checked as reduced pairs of Python ints, which the
polynomial reported keeps (`puiseux._GrownPolynomial`); a table is filled
in exact `Decimal` integers, which print in linear time.  Atomic strip
solutions and the full system's persistent solutions grow at
`default_window`, the harvest at the window it is given, reusing the
persistent supports that fit its window (`grow_starts`).

`grow_starts` runs on exponent classes in integers, from the start to the
report.  A start is a class key and an integer offset on it
(`_branch_start`), each class gets one factor evaluator
(`operators._ClassFactors`) at its class point, every walk on the class
starts at its offset on that evaluator, the covered-start skip compares
offsets, a finite support is verified on the evaluator it was grown with,
and a result keeps its start as integers (`HarvestResult`).

Before a walk that may stop at the window, an escape certificate
(`_escape_certified`) tries to prove the escape.  Let R be the offsets d
from the start where every integer-valued row has n_i + <A_i, d> <= 0, n_i
its value at the start.  If the start lies in R, a step from R is live
exactly when it stays in R, no collision test can fire, and the walk's
outcome does not depend on its order.  A monotone staircase in R from the
start to a recession direction w of R then proves the escape: its
translates by multiples of w leave every box.  Starts the certificate does
not prove are walked.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import (MAX_PREC, Context, Decimal, DivisionByZero, Inexact, InvalidOperation,
                     Rounded, localcontext)
from fractions import Fraction
from functools import cached_property
from math import gcd

from .counting import system_rank
from .lattice import QVec
from .operators import _class_residual, _ClassFactors
from .puiseux import (ClassKey, Offset, PuiseuxPolynomial, _class_exponent, _class_of,
                      _GrownPolynomial, _parse_int, format_rational)
from .system import AtomicSystem, HornSystem, enumerate_atomic


class ResonantCollisionError(ValueError):
    """A recurrence denominator vanished against a nonvanishing numerator on
    a reachable point: the would-be pure solution degenerates (logarithmic
    case, out of scope).  The point is kept as its class key and offset;
    its exponent, `point`, and the message are built when read."""

    def __init__(self, key: ClassKey, offset: Offset):
        self.key, self.offset = key, offset
        super().__init__(key, offset)

    @property
    def point(self) -> QVec:
        return _class_exponent(self.key, self.offset)

    def __str__(self) -> str:
        x, y = self.point
        return f"resonant collision at ({format_rational(x)}, {format_rational(y)})"


_STEPS = ((1, (1, 0)), (2, (0, 1)))

# A walked relation (a, b, j, forward): b = a + e_j if forward, else a - e_j.
_Edge = tuple[Offset, Offset, int, bool]


@dataclass
class GrowResult:
    """A grown component: each coefficient, keyed by its offset, as the
    fill's reduced pair (numerator, denominator > 0) of Python ints, empty
    when the component reaches past the window.  `values` gives them as
    `Fraction`s, built on first use: `grow_starts` reads the pairs, and the
    Fractions are for tests and for `bench/tracer.py`, which reads their
    count and bit lengths."""
    pairs: dict[Offset, tuple[int, int]]
    exceeded: bool

    @cached_property
    def values(self) -> dict[Offset, Fraction]:
        return {d: Fraction(n, m) for d, (n, m) in self.pairs.items()}


def grow_component(ev: _ClassFactors, radius: int, start: Offset = (0, 0),
                   directions: dict | None = None) -> GrowResult:
    """Grow the coupled component through offset start on the class of ev,
    assigning it coefficient 1, within the radius box around start.
    Coefficients are keyed by offsets on the class, like start, and kept as
    the fill's integer pairs (`GrowResult.pairs`).  `directions` is the
    escape certificate's store of candidate directions, which a run of
    starts shares (`_escape_certified`).

    Growth walks the support, then fills its coefficients.  The walk follows
    every forced relation in all four lattice directions, depth first.  It
    cuts a direction where the relevant numerator factor vanishes, raises
    ResonantCollisionError where a live relation meets a vanishing
    denominator, and stops at the first step past the radius box boundary:
    the result is then flagged exceeded and has no coefficients.  Series
    tables walk the whole box instead (`_walk_support` without the early
    exit, then `_fill`) and do not come through here.

    A factor product vanishes only through a row whose value on the class
    alpha0 + Z^2 is an integer, so the walk tests those rows alone, in small
    integers (`_ClassFactors.p_int`/`q_int`), and builds no coefficient.

    The fill (`_fill`, here on Python ints) assigns each point its value
    along the walk's spanning tree, one big-rational product per point, and
    returns each value as its reduced pair.  Two paths never disagree.  With
    Phi(beta) = prod_i Gamma(<A_i, beta> + c_i), the functional equation of
    Gamma gives, as rational functions of beta,

        P_j(beta) / Q_j(beta + e_j) = Phi(beta + e_j) / Phi(beta),

    since the factors <A_i, beta> + c_i + l, l = 0..|A_ij|-1, are the ratio
    Gamma(<A_i, beta> + c_i + A_ij) / Gamma(<A_i, beta> + c_i) for A_ij > 0
    and its reciprocal for A_ij < 0.  So the step ratios telescope: their
    product around any closed lattice loop is identically 1, and two paths
    to one point give the same value wherever every step along them is
    defined.  The walk takes a step only where both factor products are
    nonzero, so every step it takes is defined; every collision raised comes
    from the walk's zero-denominator test.

    The fill still checks path agreement, exactly and in small ints, on unit
    squares alone.  Lemma.  Let the walk end without collision, with support
    S, walked edges E and v_i(d) the value at offset d of an integer-valued
    row.
    1. The edge between d and d + e_j is live (P_j(d) and Q_j(d + e_j) both
       nonzero) exactly when no such row changes between v_i <= 0 and
       v_i >= 1 across it: a row with A_ij > 0 that does makes P_j(d)
       vanish, one with A_ij < 0 makes Q_j(d + e_j) vanish, one with
       A_ij = 0 stays put.  From a found point the walk takes exactly the
       live edges inside the box; one vanishing factor alone is a
       collision.  So the rows' pattern of v_i <= 0 is constant on S, which
       is the 4-connected component of the start among the lattice points
       of K, the convex cell of that pattern cut by the box, and every unit
       edge between two points of S is in E.
    2. In the plane graph (S, E) no bounded face is bigger than a unit
       square.  The closure of a bounded face lies in the convex hull of its
       boundary, so in K.  A lattice point inside it would lie in K and join
       the boundary along its lattice row through lattice points of K, by
       live edges, so it would be a point of S.  A unit edge inside it would
       join two lattice points of its boundary, points of S, so it would be
       in E.  A face with neither inside is one open unit square.
    3. (S, E) is connected, so by Euler's formula it has |E| - |S| + 1
       bounded faces, and their boundaries generate its cycles.
    4. So the identities r_1(c) r_2(c + e_1) = r_2(c) r_1(c + e_2) on the
       step ratios around every unit square of (S, E) give path agreement
       on every relation off the tree.  `_fill` checks them, and checks
       that there are |E| - |S| + 1 such squares, which is step 2 at run
       time: the proof assumes nothing that goes unchecked.

    A finite support grown without collision solves both equations, so the
    residual check of `grow_starts` is a guard that cannot fire.  The
    residual of equation j at b is P_j(b - e_j) u(b - e_j) - Q_j(b) u(b),
    with u = 0 off the support.  Where both points lie in the support, the
    relation between them was walked (a cut step from one end meets a live
    step from the other only as a collision) or both factors vanish, and
    the fill makes every walked relation hold.  Where only b - e_j lies in
    it, the forward step from b - e_j was cut, so P_j vanishes there; where
    only b does, the backward step from b was cut, so Q_j vanishes there.

    `_escape_certified` first tries to prove the escape from the
    integer-valued rows alone; a proved escape skips the walk.
    """
    if _escape_certified(ev, start, radius, directions):
        return GrowResult({}, True)
    edges, exceeded = _walk_support(ev, start, radius, True)
    if exceeded:
        return GrowResult({}, True)
    return GrowResult(_fill(ev, start, edges, 1), False)


def _walk_support(ev: _ClassFactors, start: Offset, radius: int,
                  early_exit: bool) -> tuple[list[_Edge], bool]:
    """Depth-first support walk from offset start with integer zero tests
    only, within the radius box around start.

    Returns the live relations in the order the fill needs them: each
    point's discovering relation when the point is found, and every other
    live relation once, from its lower end, when that end is popped.  Both
    ends are found by then.  `found[b]` is +j or -j for the step that found
    b (0 for the start): a popped a whose finder was a backward j-step came
    from a + e_j, so that forward relation is the tree's own.
    """
    p_int, q_int = ev.p_int, ev.q_int
    lo1, hi1 = start[0] - radius, start[0] + radius
    lo2, hi2 = start[1] - radius, start[1] + radius
    found: dict[Offset, int] = {start: 0}
    edges: list[_Edge] = []
    stack: list[Offset] = [start]
    exceeded = False

    while stack:
        d = stack.pop()
        for j, (s1, s2) in _STEPS:
            fwd = (d[0] + s1, d[1] + s2)
            if not _vanishes(p_int[j], d):
                if _vanishes(q_int[j], fwd):
                    raise ResonantCollisionError(ev.key, ev.on_class(d))
                if not (lo1 <= fwd[0] <= hi1 and lo2 <= fwd[1] <= hi2):
                    exceeded = True
                    if early_exit:
                        return edges, True
                elif fwd not in found:
                    found[fwd] = j
                    edges.append((d, fwd, j, True))
                    stack.append(fwd)
                elif found[d] != -j:
                    edges.append((d, fwd, j, True))
            bwd = (d[0] - s1, d[1] - s2)
            if not _vanishes(q_int[j], d):
                if _vanishes(p_int[j], bwd):
                    raise ResonantCollisionError(ev.key, ev.on_class(d))
                if not (lo1 <= bwd[0] <= hi1 and lo2 <= bwd[1] <= hi2):
                    exceeded = True
                    if early_exit:
                        return edges, True
                elif bwd not in found:
                    found[bwd] = -j
                    edges.append((d, bwd, j, False))
                    stack.append(bwd)

    return edges, exceeded


def _vanishes(rows: list, d: Offset) -> bool:
    """Whether a factor (v + l), v = n + <A_i, d>, l < |A_ij|, of an
    integer-valued row vanishes at offset d."""
    d1, d2 = d
    for n, a, b, e, _ in rows:
        if -e < n + a * d1 + b * d2 <= 0:
            return True
    return False


def _escape_certified(ev: _ClassFactors, start: Offset, radius: int,
                      directions: dict | None = None) -> bool:
    """Whether the support walk from offset start provably leaves the radius
    box around it.

    Write v_i(d) = n_i + <A_i, d> for the integer-valued rows (a_i, b_i) of
    the class (`_ClassFactors.ints`), with n_i the row's value at start and
    d the offset from start, and R = {d : v_i(d) <= 0 for every such row}.

    Lemma.  Let every n_i <= 0, so that the start, d = 0, lies in R.  From a
    point d of R, (i) a step to a neighbour is live exactly when the
    neighbour lies in R, on both the forward and the backward test; (ii) no
    collision test fires; (iii) so the walk covers the 4-connected component
    of 0 among the lattice points of R within the box, whatever its order,
    and exceeds exactly when that component leaves the box.  Proof: the
    forward j-step is cut where a row with A_ij > 0 has -A_ij < v_i(d) <= 0,
    which, as v_i(d) <= 0, says v_i(d + e_j) = v_i(d) + A_ij > 0; rows with
    A_ij <= 0 do not grow along e_j.  So the step is cut exactly when d + e_j
    leaves R.  Its collision test asks a row with A_ij < 0 for
    -|A_ij| < v_i(d + e_j) <= 0, but v_i(d + e_j) = v_i(d) - |A_ij| <= -|A_ij|.
    The backward step is the same argument with P_j and Q_j exchanged.

    Certificate.  A lattice vector w != 0 with <A_i, w> <= 0 for every row
    keeps R: d in R implies d + w in R.  If a monotone staircase from 0 to w
    lies in R, its translates by multiples of w chain into an unbounded path
    in R, which leaves the box through live steps.  The staircase
    (`_staircase_in`) is checked point by point, and reaching a point
    outside the box proves the escape at once.  The candidates
    (`_recession_candidates`) depend on the rows' directions alone, so they
    are kept in `directions`, by `ev.int_dirs`, for the next start with the
    same directions.  False means unproved; the walk decides.
    """
    o1, o2 = start
    rows: list[tuple[int, int, int]] = []
    for n, a, b in ev.ints:
        n += a * o1 + b * o2
        if n > 0:
            return False
        rows.append((n, a, b))
    if not rows:
        return True  # no factor can vanish: R is the plane
    if directions is None:
        directions = {}
    dirs = directions.get(ev.int_dirs)
    if dirs is None:
        dirs = directions[ev.int_dirs] = _recession_candidates(ev.int_dirs)
    return any(_staircase_in(rows, w, radius) for w in dirs)


def _recession_candidates(int_dirs: frozenset) -> list[Offset]:
    """The candidate recession directions of R for rows with the directions
    (a_i, b_i) of int_dirs: the rows' primitive boundary directions
    +-(-b_i, a_i) that satisfy every row, <A_i, w> <= 0, and their sum.  A
    nonzero recession cone of R has its edges on those lines, so when none
    qualifies, R is bounded and the list is empty."""
    dirs: list[Offset] = []
    for a, b in int_dirs:
        g = gcd(a, b)
        for w in ((-b // g, a // g), (b // g, -a // g)):
            if w not in dirs and all(ra * w[0] + rb * w[1] <= 0 for ra, rb in int_dirs):
                dirs.append(w)
    total = (sum(w[0] for w in dirs), sum(w[1] for w in dirs))
    if total != (0, 0):
        dirs.append(total)
    return dirs


def _staircase_in(rows: list, w: Offset, radius: int) -> bool:
    """Whether a monotone staircase from 0 to w stays in R up to w or up to
    its first point outside the radius box.  Each step goes along the axis
    that keeps the point nearer the line through w, or along the other axis
    where that point leaves R; on a tie, along the first axis.  The distance
    is kept as e = x*w2 - y*w1, which a step changes by a constant."""
    w1, w2 = w
    s1, s2 = (1 if w1 > 0 else -1), (1 if w2 > 0 else -1)
    x = y = e = 0
    ex, ey = s1 * w2, -s2 * w1  # the change of e per step along each axis
    while x != w1 or y != w2:
        can_x, can_y = x != w1, y != w2
        first_x = can_x and (not can_y or abs(e + ex) <= abs(e + ey))
        if first_x and _in_region(rows, x + s1, y):
            x, e = x + s1, e + ex
        elif can_y and _in_region(rows, x, y + s2):
            y, e = y + s2, e + ey
        elif can_x and not first_x and _in_region(rows, x + s1, y):
            x, e = x + s1, e + ex
        else:
            return False
        if abs(x) > radius or abs(y) > radius:
            return True
    return True


def _in_region(rows: list, x: int, y: int) -> bool:
    """Whether the offset (x, y) lies in R: n + a*x + b*y <= 0 on every row."""
    for n, a, b in rows:
        if n + a * x + b * y > 0:
            return False
    return True


def _fill(ev: _ClassFactors, start: Offset, edges: list[_Edge], one) -> dict[Offset, tuple]:
    """Coefficients over a walked support, 1 at offset start, in walk order,
    as reduced pairs (numerator, denominator > 0) of the type of one: Python
    ints, or `Decimal` integers inside the `_EXACT` context.

    Each walked relation's step ratio is recorded as a pair of small ints
    (p, q), keyed by its lower end c and its axis j: the forward ratio
    r_j(c) = u(c + e_j)/u(c) = p/q.  Only the spanning tree's relations,
    those that reach a point without a value, are carried into big values,
    each with its ratio reduced first.  With n/d and p/q in lowest terms,
    gcd(n*p, d*q) = gcd(n, q) * gcd(p, d), and both gcds are taken after a
    big value is reduced modulo a small one.  So a tree step costs a few
    products, exact quotients and remainders of a big integer by a small
    one, linear in its digits for either type; no two big values are ever
    divided.

    The relations off the tree are checked on unit squares, in small ints:
    every square c, c + e_1, c + e_2, c + e_1 + e_2 whose four relations
    were walked must have r_1(c) r_2(c + e_1) = r_2(c) r_1(c + e_2), one
    cross product, and there must be exactly as many such squares as
    relations off the tree, len(edges) - len(values) + 1.  By
    `grow_component`'s lemma the two checks together are path agreement on
    every walked relation; either failure raises AssertionError.
    """
    p_num, q_num, p_den, q_den = ev.p_num, ev.q_num, ev.p_den, ev.q_den
    values: dict[Offset, tuple] = {start: (one, one)}
    ratios: tuple[dict, dict, dict] = ({}, {}, {})  # r_j(c) by axis j; slot 0 is unused
    for a, b, j, forward in edges:
        low, high = (a, b) if forward else (b, a)
        p, q = p_num(j, low) * q_den[j], q_num(j, high) * p_den[j]
        ratios[j][low] = (p, q)
        if b in values:
            continue
        if not forward:
            p, q = q, p
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        p, q = p // g, q // g
        n, d = values[a]
        g1, g2 = gcd(int(n % q), q), gcd(p, int(d % p))
        values[b] = (n // g1 * (p // g2), d // g2 * (q // g1))

    right, up = ratios[1], ratios[2]
    squares = 0
    for (c1, c2), (p1, q1) in right.items():
        r2, r2e, r1e = up.get((c1, c2)), up.get((c1 + 1, c2)), right.get((c1, c2 + 1))
        if r2 is None or r2e is None or r1e is None:
            continue
        squares += 1
        if p1 * r2e[0] * r2[1] * r1e[1] != r2[0] * r1e[0] * q1 * r2e[1]:
            x, y = _class_exponent(ev.key, ev.on_class((c1, c2)))
            raise AssertionError(f"the step ratios disagree around the unit square at ({x}, {y})")
    if squares != len(edges) - len(values) + 1:
        raise AssertionError(f"complete unit squares: {squares}, relations off the "
                             f"spanning tree: {len(edges) - len(values) + 1}")
    return values


# -- atomic subsystems and branch bookkeeping --------------------------------


class _Quotient:
    """Z^2 modulo the column lattice of A_I, through the column Hermite form:
    the lattice has the basis c1 and c2 = (0, c2[1]), and the classes are
    represented by (r1, r2) with 0 <= r1 < c1[0] and 0 <= r2 < c2[1]."""

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


def branch_base_points(sub: AtomicSystem) -> list[Offset]:
    """One base point k0 in N^2 per residue class of Z^2 modulo A_I Z^2:
    the class point closest to the origin (smallest max-coordinate, ties by
    k1 then k2), the corner of the branch's distinguished pole family.
    There are exactly |det A_I| branches, listed by class (r1, r2).

    The class of (r1, r2) is {(r1 + t*c1[0], r2 + t*c1[1] + u*c2[1])}, so
    its points in N^2 have t >= 0, and for each t the least is the one with
    k1 = r1 + t*c1[0] and k2 = (r2 + t*c1[1]) mod c2[1].  k2 has period
    P = c2[1] / gcd(c1[1], c2[1]) in t, so the base point is the least key
    (max(k1, k2), k1, k2) over 0 <= t < P.

    The classes r2 = s_a = (rho + a*c1[1]) mod c2[1], a = 0..P-1, of one
    orbit rho < gcd(c1[1], c2[1]) share one sequence: class s_a takes
    k2 = s_(a+t) at t.  A point beats every later one of its class whose k2
    is no smaller, so only the chain of strict prefix minima of s from a
    competes, and s_P = s_0 = rho, the orbit's least value, ends it.  Along
    the chain k1 rises and k2 falls, so the best is one of the two links
    where k1 overtakes k2, found by bisection.  The chains for a = P-1..0
    are one monotone stack, so the whole is O(|det A_I| log |det A_I|).
    """
    quo = _Quotient(sub)
    (step1, shift), mod = quo.c1, quo.c2[1]
    orbits = gcd(shift, mod)
    period = mod // orbits
    out = []
    for r1 in range(step1):
        best: list = [None] * mod
        for rho in range(orbits):
            # the chain from a, deepest link first, as (u, s_u), with the
            # heights s_u - step1*u, which rise towards a
            links, heights = [(period, rho)], [rho - step1 * period]
            for a in range(period - 1, -1, -1):
                s_a = (rho + a * shift) % mod
                while links and links[-1][1] >= s_a:
                    links.pop()
                    heights.pop()
                links.append((a, s_a))
                heights.append(s_a - step1 * a)
                # The i deepest links have k1 = r1 + step1*(u - a) >= k2 = s_u.
                # Link i - 1 has the least such k1, link i the least k2 < k1;
                # link i - 1 wins when its k1 is below link i's k2, as the
                # deeper link has the larger k1.
                i = bisect_right(heights, r1 - step1 * a)
                if i == len(links) or (i and r1 + step1 * (links[i - 1][0] - a) < links[i][1]):
                    i -= 1
                u, k2 = links[i]
                best[s_a] = (r1 + step1 * (u - a), k2)
        out.extend(best)
    return out


def _branch_start(sub: AtomicSystem, k0: Offset) -> tuple[ClassKey, Offset]:
    """alpha0 = -A_I^{-1}(k0 + c_I) as its exponent class and integer part.

    With l the lcm of the denominators of c_I and D = l*|det A_I|, D*alpha0
    is the integer vector -sgn(det A_I) * adj(A_I) (l*k0 + l*c_I).  Each
    coordinate N/D is floor(N/D) plus (N mod D)/D, which in lowest terms r/q
    gives the class key (r1, q1, r2, q2) of `PuiseuxPolynomial.class_parts`.
    The pair's constants (`_pair_constants`) and the start's own part
    (`_start_of`) are kept apart, so that a harvest takes the first once per
    pair.
    """
    return _start_of(_pair_constants(sub), k0)


def _pair_constants(sub: AtomicSystem) -> tuple[int, int, int, int, int, int, int, int]:
    """The row pair's part of `_branch_start`: l, l*c_I as integers, D, and
    -sgn(det A_I) * adj(A_I), row by row."""
    (a1, b1), (a2, b2) = sub.rows
    c1, c2 = sub.params
    lcd = c1.denominator * c2.denominator // gcd(c1.denominator, c2.denominator)
    det = sub.det
    sign = -1 if det > 0 else 1
    return (lcd, c1.numerator * (lcd // c1.denominator), c2.numerator * (lcd // c2.denominator),
            lcd * abs(det), sign * b2, -sign * b1, -sign * a2, sign * a1)


def _start_of(pair: tuple, k0: Offset) -> tuple[ClassKey, Offset]:
    """The start of `_branch_start` at k0, from its pair's constants."""
    lcd, u1, u2, den, m11, m12, m21, m22 = pair
    v1, v2 = lcd * k0[0] + u1, lcd * k0[1] + u2
    o1, r1 = divmod(m11 * v1 + m12 * v2, den)
    o2, r2 = divmod(m21 * v1 + m22 * v2, den)
    g1, g2 = gcd(r1, den), gcd(r2, den)
    return (r1 // g1, den // g1, r2 // g2, den // g2), (o1, o2)


def branch_initial_exponent(sub: AtomicSystem, k0: Offset) -> QVec:
    """alpha0 = -A_I^{-1}(k0 + c_I), computed in integers (`_branch_start`)."""
    return _class_exponent(*_branch_start(sub, k0))


def _atomic_pair(s: HornSystem, indices: tuple[int, int]) -> AtomicSystem:
    """The nondegenerate row pair `indices` of s, in either order; ValueError
    if it is degenerate or out of range."""
    want = tuple(sorted(indices))
    for x in enumerate_atomic(s):
        if x.indices == want:
            return x
    raise ValueError(f"rows {tuple(indices)} are degenerate or out of range")


# -- windowed series tables ---------------------------------------------------


# Decimal integers stay exact in this context: a result that would need
# rounding raises Rounded or Inexact instead.
_EXACT = Context(prec=MAX_PREC, traps=[Inexact, Rounded, InvalidOperation, DivisionByZero])


@dataclass
class TruncatedSeries:
    """A windowed series table.  Each nonzero coefficient, keyed by its
    offset from alpha0, is a reduced pair (numerator, denominator > 0) of
    `Decimal` integers, which print in time linear in their digits;
    `_int_pair` reads one as Python ints."""
    indices: tuple[int, int]
    branch: int
    alpha0: QVec
    coeffs: dict[Offset, tuple[Decimal, Decimal]]
    window: int


def _int_pair(pair) -> tuple[int, int]:
    """A coefficient pair of `TruncatedSeries` as Python ints, read through
    its digits: past a few hundred digits, `int(Decimal)` is several times
    slower than `_parse_int` of the text."""
    n, d = pair
    return _parse_int(str(n)), _parse_int(str(d))


def series_from_submatrix(s: HornSystem, indices: tuple[int, int], branch: int,
                          window: int) -> TruncatedSeries:
    """Coefficient table of the pure fully supported solution attached to the
    row pair `indices` and residue class `branch`, to the given window radius.

    Coefficients are generated by the two-term ratio recurrences on the
    exponent lattice, normalized to 1 at the branch's initial exponent; only
    ratios of factor products are ever computed.  The support is walked
    without the early exit and filled in `Decimal` integers inside the
    `_EXACT` context, which is left again on return, so the table prints
    in time linear in its digits, where `str` of a Python int is quadratic.
    `cli.series` writes each pair's digits into the report text as a record
    (`cli._write_coefficients`, through `cli._json_text`), without a dict per
    coefficient.
    Tables skip `grow_component`, whose `GrowResult` keeps Python int pairs.
    """
    sub = _atomic_pair(s, indices)
    bases = branch_base_points(sub)
    if not 0 <= branch < len(bases):
        raise ValueError(f"branch {branch} out of range 0..{len(bases) - 1}")
    key, o = _branch_start(sub, bases[branch])
    ev = _ClassFactors(s, key, o)
    edges, _ = _walk_support(ev, (0, 0), window, early_exit=False)
    with localcontext(_EXACT):
        coeffs = _fill(ev, (0, 0), edges, Decimal(1))
    return TruncatedSeries(sub.indices, branch, _class_exponent(key, o), coeffs, window)


def verify_truncated(t: TruncatedSeries, s: HornSystem) -> bool:
    """Check every coefficient relation whose two endpoints both lie inside
    the window box, reading absent points as exact zeros.  The residual term
    of equation j at b is the relation between b - e_j and b
    (`operators._class_residual`)."""
    ev = _ClassFactors(s, *_class_of(t.alpha0))
    w = t.window
    coeffs = {d: _int_pair(v) for d, v in t.coeffs.items()}
    for j, (s1, s2) in _STEPS:
        for b1, b2 in _class_residual(ev, j, coeffs):
            if max(abs(b1), abs(b2), abs(b1 - s1), abs(b2 - s2)) <= w:
                return False
    return True


# -- window-bounded polynomial harvesting -------------------------------------


@dataclass
class HarvestResult:
    """One start's outcome.  The start is kept as its class key and offset
    (`_branch_start`), and a collision as its offset on that class; their
    exponents, `initial_exponent` and `collision_point`, are built when
    read."""
    outcome: str  # "finite" | "exceeds_window" | "resonant_collision"
    subsystem: tuple[int, int]
    branch: int  # the start's label: its branch in a harvest
    start: tuple[ClassKey, Offset]
    polynomial: PuiseuxPolynomial | None = None
    collision: Offset | None = None

    @property
    def initial_exponent(self) -> QVec:
        return _class_exponent(*self.start)

    @property
    def collision_point(self) -> QVec | None:
        return None if self.collision is None else _class_exponent(self.start[0], self.collision)


def harvest_polynomials(s: HornSystem, window: int,
                        known: Sequence[_GrownPolynomial] = ()) -> list[HarvestResult]:
    """Run one exploration per (row pair, residue class) start point: the
    branch base points of every row pair, labelled by branch
    (`grow_starts`, which reuses the finite supports `known`)."""
    return grow_starts(s, [(sub, branch, k0) for sub in enumerate_atomic(s)
                           for branch, k0 in enumerate(branch_base_points(sub))], window, known)


def grow_starts(s: HornSystem, starts: list[tuple[AtomicSystem, int, Offset]],
                window: int, known: Sequence[_GrownPolynomial] = ()) -> list[HarvestResult]:
    """Grow the component of s through each start (sub, label, k0), whose
    exponent is -A_I^{-1}(k0 + c_I) for the row pair sub; the one route
    from a start to a Puiseux polynomial solution.

    From each start the support component is walked along the coefficient
    relations; a direction is cut where its numerator factor vanishes.  If
    the frontier dies out inside the window, the outcome is finite and
    carries the polynomial, scaled to 1 at its lex-smallest exponent; paths
    touching the window boundary report exceeds_window, decided before any
    coefficient is computed; a vanishing denominator against a live
    numerator reports the offending point.

    Starts are taken in integers, as a class key and an offset on it
    (`_branch_start`, with its row pair's constants taken once for a run of
    starts on one pair).  Each exponent class gets one evaluator, built from
    its key at its class point, and every walk on the class starts at its
    offset on it; its rational factor lists are built only if a start on
    the class reaches a finite support.  A finite support is checked once,
    on the evaluator it was grown with and on the fill's integer pairs
    (`operators._class_residual`); a nonzero residual raises AssertionError,
    a guard that `grow_component` shows cannot fire.  The polynomial
    reported keeps the class key and the pairs (`puiseux._GrownPolynomial`),
    and each result its start and collision as integers (`HarvestResult`).
    So the run builds no Fraction: a start that escapes or collides costs
    integer work only, and so does a finite one until its terms are read.

    The finite outcomes are distinct solutions.  Let S be a support found
    finite from some start, at any radius: the walk of S met no cut step
    leaving S, no collision and no step past its box, so S is a whole
    component of the live relations in the plane.  A walk from a start o
    in S, at a window whose box around o holds S, therefore takes the same
    tests at the same points and finds S again, with the same fill, as the
    fill is scaled at the lex-smallest offset and not at the start.  So a
    start on a support that fits its window box is not walked: on a support
    of this run it is skipped, and on a support of `known`, the finite
    outcomes of an earlier `grow_starts` on s at any radius, that same
    object is reported finite at this start's label and initial exponent,
    once, after which the support counts as found here.  When S does not
    fit, the walk from o leaves the box, so no support is reported twice.
    Whether S fits is read off its bounding box, taken once per support.
    Starts share one store of the escape certificate's candidate directions
    (`_escape_certified`), which lives as long as the run.
    """
    results: list[HarvestResult] = []
    classes: dict[ClassKey, _ClassFactors] = {}
    directions: dict = {}  # the escape certificate's candidates, by row directions
    covered: dict[tuple[ClassKey, Offset], tuple[_GrownPolynomial, tuple]] = {}  # `_cover`
    for p in known:
        _cover(covered, p)
    unreported = {id(p) for p in known}
    pair_sub, pair = None, None

    for sub, label, k0 in starts:
        if sub is not pair_sub:
            pair_sub, pair = sub, _pair_constants(sub)
        key, o = _start_of(pair, k0)
        done = covered.get((key, o))
        if done is not None:
            done, (lo1, hi1, lo2, hi2) = done
            if max(o[0] - lo1, hi1 - o[0], o[1] - lo2, hi2 - o[1]) <= window:
                if id(done) in unreported:
                    unreported.remove(id(done))
                    results.append(HarvestResult("finite", sub.indices, label, (key, o), done))
                continue
        ev = classes.get(key)
        if ev is None:
            ev = classes[key] = _ClassFactors(s, key)
        try:
            res = grow_component(ev, window, o, directions)
        except ResonantCollisionError as exc:
            results.append(HarvestResult("resonant_collision", sub.indices, label, (key, o),
                                         collision=exc.offset))
            continue
        if res.exceeded:
            results.append(HarvestResult("exceeds_window", sub.indices, label, (key, o)))
            continue
        pairs = res.pairs
        if _class_residual(ev, 1, pairs) or _class_residual(ev, 2, pairs):
            x, y = _class_exponent(key, o)
            raise AssertionError(f"the finite support through ({x}, {y}) fails the operators")
        poly = _GrownPolynomial(key, pairs)
        _cover(covered, poly)
        results.append(HarvestResult("finite", sub.indices, label, (key, o), poly))
    return results


def _cover(covered: dict, poly: _GrownPolynomial):
    """Map every point of poly's support, as (class key, offset), to poly
    and the support's bounding box (lo1, hi1, lo2, hi2)."""
    xs, ys = [d[0] for d in poly.coeffs], [d[1] for d in poly.coeffs]
    entry = (poly, (min(xs), max(xs), min(ys), max(ys)))
    covered.update(dict.fromkeys(((poly.key, d) for d in poly.coeffs), entry))


def default_window(s: HornSystem) -> int:
    """The one growth radius: 4 * (rank + m * max |entry|), wide enough for
    every fixture.  The rank is `counting.system_rank`, which raises
    ValueError on systems without a rank formula."""
    max_entry = max(max(abs(r.a), abs(r.b)) for r in s.rows)
    return 4 * (system_rank(s) + s.m * max_entry)
