"""The Horn system data model: an integer matrix of row vectors plus a
rational parameter per row, with atomic row pairs and resonance detection.
A pair's rank is in `counting`, its exponents and `is_generic` in `atomic`.

A system is the data (A, c) of the coefficient prod_i Gamma(<A_i, s> + c_i);
rows generate the operators, the polygon, and every count downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .lattice import Vec2, cross, index_nu
from .puiseux import format_rational, parse_rational


@dataclass(frozen=True)
class HornSystem:
    rows: tuple[Vec2, ...]
    params: tuple[Fraction, ...]
    name: str = ""

    # Computed on first use and kept in the instance dict, which a frozen
    # dataclass leaves writable; read through `enumerate_atomic` and
    # `check_nonconfluent`.
    _atomic = cached_property(lambda self: _atomic_pairs(self))
    _nonconfluent = cached_property(lambda self: _rows_sum_to_zero(self))

    def __post_init__(self):
        if len(self.rows) != len(self.params):
            raise ValueError("rows and parameters must have equal length")
        if len(self.rows) < 2:
            raise ValueError("a Horn system needs at least two rows")
        if any(r.is_zero() for r in self.rows):
            raise ValueError("matrix has a zero row")

    @staticmethod
    def make(rows: Sequence[Sequence[int]], params: Sequence, name: str = "") -> "HornSystem":
        vrows = tuple(Vec2(int(r[0]), int(r[1])) for r in rows)
        vparams = tuple(parse_rational(p) for p in params)
        return HornSystem(vrows, vparams, name)

    @property
    def m(self) -> int:
        return len(self.rows)

    def rank2(self) -> bool:
        first = self.rows[0]
        return any(cross(first, r) != 0 for r in self.rows[1:])

    def with_params(self, params: Sequence) -> "HornSystem":
        return HornSystem(self.rows, tuple(parse_rational(p) for p in params), self.name)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "matrix": [[r.a, r.b] for r in self.rows],
            "parameters": [format_rational(c) for c in self.params],
        }

    @staticmethod
    def from_json(data: dict) -> "HornSystem":
        """Parse the wire format.  Rows must be nonzero pairs of JSON integers,
        parameters rationals and the name, "" when absent, a string; anything
        else raises ValueError, KeyError or TypeError rather than being
        coerced."""
        matrix, params, name = data["matrix"], data["parameters"], data.get("name", "")
        if not isinstance(matrix, list) or not isinstance(params, list):
            raise ValueError("matrix and parameters must be JSON lists")
        if not isinstance(name, str):
            raise ValueError(f"name must be a JSON string, got {type(name).__name__}")
        for row in matrix:
            if not (isinstance(row, list) and len(row) == 2
                    and all(type(x) is int for x in row)):
                raise ValueError(f"matrix row {row!r} is not a pair of integers")
        return HornSystem.make(matrix, params, name)


@dataclass(frozen=True)
class AtomicSystem:
    """A nondegenerate 2x2 row selection (rows `indices`) of a parent system."""

    indices: tuple[int, int]
    rows: tuple[Vec2, Vec2]
    params: tuple[Fraction, Fraction]

    def __post_init__(self):
        if self.det == 0:
            raise ValueError("atomic system requires a nondegenerate row pair")

    @property
    def det(self) -> int:
        return cross(self.rows[0], self.rows[1])

    @property
    def nu(self) -> int:
        return index_nu(self.rows[0], self.rows[1])

    def system(self) -> HornSystem:
        return HornSystem(self.rows, self.params, name=f"atomic{self.indices}")


def enumerate_atomic(s: HornSystem) -> list[AtomicSystem]:
    """One atomic system per unordered nondegenerate row pair, index order,
    in a new list; the pairs are found once per system."""
    return list(s._atomic)


def _atomic_pairs(s: HornSystem) -> tuple[AtomicSystem, ...]:
    return tuple(AtomicSystem((i, j), (s.rows[i], s.rows[j]), (s.params[i], s.params[j]))
                 for i in range(s.m) for j in range(i + 1, s.m)
                 if cross(s.rows[i], s.rows[j]) != 0)


def check_nonconfluent(s: HornSystem) -> bool:
    """True iff the rows sum to the zero vector, decided once per system."""
    return s._nonconfluent


def _rows_sum_to_zero(s: HornSystem) -> bool:
    return sum(r.a for r in s.rows) == 0 and sum(r.b for r in s.rows) == 0


@dataclass(frozen=True)
class Circuit:
    """A minimal linearly dependent set of rows with its coprime relation."""

    indices: tuple[int, ...]
    relation: tuple[int, ...]
    resonant: bool


@dataclass(frozen=True)
class ResonanceReport:
    circuits: tuple[Circuit, ...]
    is_resonant: bool
    is_maximally_resonant: bool


def _coprime(coeffs: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for a in coeffs:
        g = gcd(g, abs(a))
    if g == 0:
        raise ValueError("zero relation")
    out = tuple(a // g for a in coeffs)
    for a in out:  # sign-normalize: first nonzero positive
        if a != 0:
            return out if a > 0 else tuple(-x for x in out)
    raise ValueError("zero relation")


def detect_resonance(s: HornSystem) -> ResonanceReport:
    """Enumerate circuits (dependent pairs and pairwise-independent triples)
    and flag each whose relation pairs to an integer against the parameters.

    The test is in integers: with L the lcm of the parameters' denominators
    and P_k = c_k * L, a relation lam pairs to an integer exactly when
    sum(lam_k * P_k) is divisible by L.
    """
    rows = s.rows
    m = len(rows)
    lcd = lcm(*(c.denominator for c in s.params))
    params = [c.numerator * (lcd // c.denominator) for c in s.params]
    circuits: list[Circuit] = []

    for i in range(m):
        for j in range(i + 1, m):
            u, v = rows[i], rows[j]
            if cross(u, v) != 0:
                continue
            # lambda1*u + lambda2*v = 0 from cross-multiplication
            lam = (v.a, -u.a) if (u.a, v.a) != (0, 0) else (v.b, -u.b)
            lam = _coprime(lam)
            value = lam[0] * params[i] + lam[1] * params[j]
            circuits.append(Circuit((i, j), lam, value % lcd == 0))

    for i in range(m):
        for j in range(i + 1, m):
            if cross(rows[i], rows[j]) == 0:
                continue
            for k in range(j + 1, m):
                if cross(rows[i], rows[k]) == 0 or cross(rows[j], rows[k]) == 0:
                    continue
                lam = _coprime(
                    (cross(rows[j], rows[k]), cross(rows[k], rows[i]), cross(rows[i], rows[j]))
                )
                value = lam[0] * params[i] + lam[1] * params[j] + lam[2] * params[k]
                circuits.append(Circuit((i, j, k), lam, value % lcd == 0))

    any_res = any(c.resonant for c in circuits)
    all_res = bool(circuits) and all(c.resonant for c in circuits)
    return ResonanceReport(tuple(circuits), any_res, all_res)
