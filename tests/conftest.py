import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hornkit.lattice import Vec2, cross, dot, primitive
from hornkit.system import HornSystem, enumerate_atomic

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "hornkit" / "fixtures"


def load_system(name: str) -> HornSystem:
    with open(FIXTURES / f"{name}.json") as fh:
        return HornSystem.from_json(json.load(fh))


def load_expected(name: str) -> dict:
    with open(FIXTURES / "expected" / f"{name}.expected.json") as fh:
        return json.load(fh)


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
