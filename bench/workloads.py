"""Inputs of the benchmark workloads.

Each workload is a fixed list of `hornkit` command lines, run in the same
order on every pass. `build` writes the input systems as JSON files into a
run directory and returns the operations together with what the checks
need to know about each input.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

WORKLOADS = ("generic-escape", "finite-bases", "series-tables")

# Window of every `series` table: large enough that escaping components
# carry coefficients of thousands of bits, small enough that one pass of
# 40 tables stays near six seconds.
SERIES_WINDOW = 24

# generic-escape draws row shapes from `random_rows` at these pinned shape
# seeds (3-5 rows, entries in [-3, 3], default window <= 84, persistent
# dimension >= 1, `analyze` between 1 and 1.5 s).  The run seed draws only
# the parameters: how long `analyze` takes depends mostly on the rows, so a
# row mix drawn per seed would spread the end-to-end figures far more than
# any useful bound.  Shapes of like cost keep the operation times in one
# cluster, so their median does not hang on a single input.
SHAPE_SEEDS = (51, 301, 333, 362, 500, 685, 1412)
SHAPE_MAX_M = 5
SHAPE_BOUND = 3

# finite-bases: fixtures whose solution space is spanned by Puiseux
# polynomials, with the holonomic rank the paper gives for each.
PAPER_RANKS = {"zonotope": 31, "triangle_sides": 40, "triangle_simplex": 4}
DILATIONS = (1, 2)

SERIES_FIXTURES = ("quadrilateral", "simplicial22", "example21", "example31")


@dataclass
class Op:
    argv: list[str]
    rows: list[tuple[int, int]]
    params: list[Fraction]
    expect: dict = field(default_factory=dict)


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def random_rows(rng: random.Random, max_m: int = SHAPE_MAX_M,
                bound: int = SHAPE_BOUND) -> list[tuple[int, int]]:
    """Rows of a nonconfluent rank-2 system with entries in [-bound, bound],
    drawn in the same sequence as `random_nonconfluent_system` in the test
    suite's conftest."""
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
        if all(_cross(rows[0], v) == 0 for v in rows[1:]):
            continue
        return rows


def _coprime(coeffs: list[int]) -> list[int]:
    g = 0
    for a in coeffs:
        g = gcd(g, a)
    return [a // g for a in coeffs]


def is_resonant(rows, params) -> bool:
    """True iff some circuit (a dependent row pair or a pairwise independent
    triple) pairs its coprime integer relation to an integer against the
    parameters."""
    m = len(rows)
    for i in range(m):
        for j in range(i + 1, m):
            if _cross(rows[i], rows[j]) == 0:
                u, v = rows[i], rows[j]
                lam = (v[0], -u[0]) if (u[0], v[0]) != (0, 0) else (v[1], -u[1])
                lam = _coprime(list(lam))
                if (lam[0] * params[i] + lam[1] * params[j]).denominator == 1:
                    return True
                continue
            for k in range(j + 1, m):
                if _cross(rows[i], rows[k]) == 0 or _cross(rows[j], rows[k]) == 0:
                    continue
                lam = _coprime([_cross(rows[j], rows[k]), _cross(rows[k], rows[i]),
                                _cross(rows[i], rows[j])])
                value = lam[0] * params[i] + lam[1] * params[j] + lam[2] * params[k]
                if value.denominator == 1:
                    return True
    return False


def random_params(rng: random.Random, rows) -> list[Fraction]:
    """Large-denominator rational parameters, redrawn until nonresonant."""
    while True:
        params = [Fraction(rng.randint(1, 10**7), 10**7 + rng.randint(1, 997))
                  for _ in rows]
        if not is_resonant(rows, params):
            return params


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or 1))


def _load_fixture(fixtures: Path, name: str):
    data = json.loads((fixtures / f"{name}.json").read_text())
    rows = [(int(a), int(b)) for a, b in data["matrix"]]
    return rows, [parse_rational(c) for c in data["parameters"]]


def _system_doc(name: str, rows, params) -> dict:
    return {"name": name, "matrix": [list(r) for r in rows],
            "parameters": [_fmt(c) for c in params]}


def build(workload: str, seed: int, fixtures: Path, input_dir: Path) -> tuple[list[Op], str]:
    """Write the inputs of one workload and return its operations in pass
    order, with the sha256 digest of every system they read."""
    systems: list[tuple[dict, list, list, dict]] = []  # doc, rows, params, expect
    if workload == "generic-escape":
        rng = random.Random(seed)
        rows, params = _load_fixture(fixtures, "quadrilateral")
        systems.append((_system_doc("quadrilateral", rows, params), rows, params, {}))
        for shape_seed in SHAPE_SEEDS:
            rows = random_rows(random.Random(shape_seed))
            params = random_params(rng, rows)
            systems.append((_system_doc(f"shape{shape_seed}", rows, params), rows, params, {}))
    elif workload == "finite-bases":
        for name, paper_rank in PAPER_RANKS.items():
            base_rows, params = _load_fixture(fixtures, name)
            for k in DILATIONS:
                rows = [(k * a, k * b) for a, b in base_rows]
                systems.append((_system_doc(f"{name}x{k}", rows, params), rows, params,
                                {"rank": k * k * paper_rank, "paper_rank": paper_rank, "k": k}))
    elif workload == "series-tables":
        for name in SERIES_FIXTURES:
            rows, params = _load_fixture(fixtures, name)
            systems.append((_system_doc(name, rows, params), rows, params, {}))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    input_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    ops: list[Op] = []
    for doc, rows, params, expect in systems:
        text = json.dumps(doc, sort_keys=True)
        digest.update(text.encode() + b"\n")
        path = input_dir / f"{doc['name']}.json"
        path.write_text(text + "\n")
        if workload == "generic-escape":
            ops.append(Op(["analyze", str(path)], rows, params, expect))
        elif workload == "finite-bases":
            ops.append(Op(["solve", str(path)], rows, params, expect))
        else:
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    for branch in range(abs(_cross(rows[i], rows[j]))):
                        ops.append(Op(["series", str(path), "--submatrix", f"{i},{j}",
                                       "--branch", str(branch),
                                       "--window", str(SERIES_WINDOW)],
                                      rows, params, {"window": SERIES_WINDOW}))
    return ops, digest.hexdigest()
