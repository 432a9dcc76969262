"""Checks of hornkit's outputs, computed apart from the program.

Nothing here imports hornkit.  The operator check is written from the
definition of the j-th Horn operator, x_j P_j(theta) - Q_j(theta), where
P_j collects one factor <A_i, s> + c_i + l per row with A_ij > 0 and
l = 0..A_ij-1, Q_j the same over rows with A_ij < 0, and theta acts on
x^alpha as the scalar alpha.  Each check returns None on success or a
one-line description of the first problem found.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from pathlib import Path

from workloads import parse_rational

Exponent = tuple[Fraction, Fraction]


def _factor_product(rows, params, j: int, positive: bool, alpha) -> Fraction:
    out = Fraction(1)
    for (a, b), c in zip(rows, params):
        entry = a if j == 1 else b
        if entry == 0 or (entry > 0) != positive:
            continue
        value = a * alpha[0] + b * alpha[1] + c
        for ell in range(abs(entry)):
            out *= value + ell
            if out == 0:
                return out
    return out


def p_value(rows, params, j, alpha) -> Fraction:
    return _factor_product(rows, params, j, True, alpha)


def q_value(rows, params, j, alpha) -> Fraction:
    return _factor_product(rows, params, j, False, alpha)


def residual(rows, params, j: int, terms: dict[Exponent, Fraction]) -> dict[Exponent, Fraction]:
    """Nonzero terms of x_j P_j(theta) f - Q_j(theta) f."""
    step = (1, 0) if j == 1 else (0, 1)
    out: dict[Exponent, Fraction] = {}
    for alpha, coeff in terms.items():
        up = (alpha[0] + step[0], alpha[1] + step[1])
        out[up] = out.get(up, 0) + coeff * p_value(rows, params, j, alpha)
        out[alpha] = out.get(alpha, 0) - coeff * q_value(rows, params, j, alpha)
    return {e: c for e, c in out.items() if c != 0}


def parse_terms(terms_json) -> dict[Exponent, Fraction]:
    return {(parse_rational(t["exponent"][0]), parse_rational(t["exponent"][1])):
            parse_rational(t["coefficient"]) for t in terms_json}


def solution_problem(rows, params, terms: dict[Exponent, Fraction]) -> str | None:
    if not terms:
        return "empty solution"
    for j in (1, 2):
        res = residual(rows, params, j, terms)
        if res:
            e, c = min(res.items())
            return f"operator {j} leaves residual {c}*x^({e[0]},{e[1]})"
    return None


def span_rank(polys: list[dict[Exponent, Fraction]]) -> int:
    """Exact dimension of the span.  Polynomials on distinct exponent classes
    mod Z^2 are independent, so a pure polynomial is eliminated only against
    its own class; a non-pure one sends everything to a single elimination."""
    groups: dict = {}
    for p in polys:
        classes = {(e[0] % 1, e[1] % 1) for e in p}
        key = classes.pop() if len(classes) == 1 else None
        groups.setdefault(key, []).append(p)
    if None in groups:
        groups = {None: polys}
    return sum(_rank(group) for group in groups.values())


def _rank(vectors) -> int:
    pivots: dict = {}  # pivot exponent -> row whose smallest key is the pivot
    for vec in vectors:
        v = {e: c for e, c in vec.items() if c != 0}
        while v:
            pivot = min(v)
            row = pivots.get(pivot)
            if row is None:
                pivots[pivot] = v
                break
            factor = v[pivot] / row[pivot]
            for e, c in row.items():
                new = v.get(e, 0) - factor * c
                if new:
                    v[e] = new
                else:
                    v.pop(e, None)
    return len(pivots)


def polygon_kind(rows) -> str:
    """Classification from the edge multiset of the polygon whose outer
    normals are the rows: a row g*d with d primitive adds g to normal d."""
    mult: dict[tuple[int, int], int] = {}
    for a, b in rows:
        g = gcd(a, b)
        d = (a // g, b // g)
        mult[d] = mult.get(d, 0) + g
    if all(mult.get((-a, -b), 0) == n for (a, b), n in mult.items()):
        return "Zonotope"
    lines = {max(d, (-d[0], -d[1])) for d in mult}
    return "TrianglePlusSegments" if len(lines) == 3 else "Other"


def check_analyze(out: dict, rows, params, expect) -> str | None:
    persistent = out["persistent_solutions"]
    for sol in persistent:
        problem = solution_problem(rows, params, parse_terms(sol["terms"]))
        if problem:
            return f"persistent solution: {problem}"
    counts = (len(persistent), out["persistent_dim"], out["independent_polynomial_count"])
    if len(set(counts)) != 1:
        return f"persistent solutions / persistent_dim / independent count differ: {counts}"
    svals = out["S_per_vertex"]
    if not svals or any(sv + out["persistent_dim"] != out["rank"] for sv in svals):
        return f"S_per_vertex {svals} + persistent_dim != rank {out['rank']}"
    edges = out["polygon"]["edges"]
    total = [sum(e["direction"][t] * e["length"] for e in edges) for t in (0, 1)]
    if total != [0, 0]:
        return f"polygon edge vectors sum to {total}"
    kind = polygon_kind(rows)
    if out["classification"]["kind"] != kind:
        return f"classification {out['classification']['kind']}, expected {kind}"
    return None


def check_solve(out: dict, rows, params, expect) -> str | None:
    polys = []
    for sol in out["solutions"]:
        terms = parse_terms(sol["terms"])
        problem = solution_problem(rows, params, terms)
        if problem:
            return f"emitted solution: {problem}"
        polys.append(terms)
    rank = span_rank(polys)
    if rank != out["independent_polynomial_count"]:
        return (f"solutions span {rank} dimensions, "
                f"independent_polynomial_count is {out['independent_polynomial_count']}")
    if out["rank"] != expect["rank"]:
        return f"rank {out['rank']}, expected {expect['k']}^2 * {expect['paper_rank']}"
    if expect["k"] == 1 and rank != expect["paper_rank"]:
        return f"{rank} independent polynomials, the paper's rank is {expect['paper_rank']}"
    return None


def check_series(out: dict, rows, params, expect) -> str | None:
    """u(0,0) = 1 and P_j(b) u(b) = Q_j(b + e_j) u(b + e_j) between every two
    in-window neighbours, absent points read as 0.  A relation with both
    ends absent holds trivially, so only neighbours of table entries are
    evaluated; both sides are compared by cross-multiplying integers."""
    w = out["window"]
    if w != expect["window"]:
        return f"window {w}, asked for {expect['window']}"
    a0 = (parse_rational(out["initial_exponent"][0]), parse_rational(out["initial_exponent"][1]))
    table = {(c["offset"][0], c["offset"][1]): parse_rational(c["value"])
             for c in out["coefficients"]}
    if table.get((0, 0)) != 1:
        return "coefficient at offset (0,0) is not 1"
    zero = Fraction(0)
    pairs = set()
    for d1, d2 in table:
        for s1, s2 in ((1, 0), (0, 1)):
            pairs.add(((d1, d2), (d1 + s1, d2 + s2)))
            pairs.add(((d1 - s1, d2 - s2), (d1, d2)))
    for lo, hi in sorted(pairs):
        if max(abs(lo[0]), abs(lo[1]), abs(hi[0]), abs(hi[1])) > w:
            continue
        j = 1 if hi[0] != lo[0] else 2
        p = p_value(rows, params, j, (a0[0] + lo[0], a0[1] + lo[1]))
        q = q_value(rows, params, j, (a0[0] + hi[0], a0[1] + hi[1]))
        u, v = table.get(lo, zero), table.get(hi, zero)
        if (p.numerator * u.numerator * q.denominator * v.denominator
                != q.numerator * v.numerator * p.denominator * u.denominator):
            return f"relation {j} fails between offsets {lo} and {hi}"
    return None


CHECKS = {"analyze": check_analyze, "solve": check_solve, "series": check_series}


def run_controls(fixtures: Path) -> None:
    """Prove the operator check on the atomic system (3,2;-4,-3) at zero
    parameters: it must reject the paper's displayed two-term solution with
    first-operator residual 6*x1^-8*x2^12, and accept the completed
    four-term solution."""
    system = json.loads((fixtures / "atomic_32_43.json").read_text())
    rows = [tuple(r) for r in system["matrix"]]
    params = [parse_rational(c) for c in system["parameters"]]
    expected = json.loads((fixtures / "expected" / "atomic_32_43.expected.json").read_text())
    displayed = parse_terms(expected["displayed_binomial_2"])
    want = {(Fraction(-8), Fraction(12)): Fraction(6)}
    got = residual(rows, params, 1, displayed)
    if got != want:
        raise RuntimeError(f"negative control: residual {got}, expected {want}")
    problem = solution_problem(rows, params, parse_terms(expected["completed_solution_2"]))
    if problem:
        raise RuntimeError(f"positive control rejected: {problem}")
