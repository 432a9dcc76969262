"""Closed-form counts: the rank rules (`holonomic_rank`, `atomic_rank` and
`system_rank`), persistent dimension, fully supported series count, and the
per-vertex dimension of convergent fully supported solutions.

Vertices of the polygon index the components of the singular amoeba's
complement; the count attached to a vertex sums |det| over the pairs of the
polygon's normals whose cone contains the vertex's recession cone
(`convergent_count_S`).  The tests check it against the same count over the
system's rows, and against `holonomic_rank - persistent_dim`.
"""

from __future__ import annotations

from .lattice import cross, index_nu
from .polygon import OreSatoPolygon
from .system import AtomicSystem, HornSystem, check_nonconfluent, enumerate_atomic


# -- global counts ----------------------------------------------------------


def holonomic_rank(s: HornSystem) -> int:
    """(sum of positive first-column entries) * (sum of positive second-column
    entries) minus the indices of linearly dependent row pairs in opposite
    open quadrants.

    Evaluated on the rows as given, which equals the value on the
    Gauss-normalized rows: normalization replaces a row g*d (d primitive,
    parameter c) by g copies of d (parameters (c + k)/g, k = 0..g-1), which
    keeps both sums of positive column entries, and index_nu(g*d, h*e) =
    g*h * index_nu(d, e) is the sum over the g*h pairs of copies (positive
    scaling keeps the quadrants; two copies of one d have index 0).
    `persistent_dim` follows the same way.
    """
    if not check_nonconfluent(s):
        raise ValueError("rank formula requires nonconfluency")
    rows = s.rows
    pos1 = sum(r.a for r in rows if r.a > 0)
    pos2 = sum(r.b for r in rows if r.b > 0)
    correction = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if cross(rows[i], rows[j]) == 0:
                correction += index_nu(rows[i], rows[j])
    return pos1 * pos2 - correction


def atomic_rank(a: AtomicSystem) -> int:
    """|det M| + nu(M): fully supported count plus persistent count."""
    return abs(a.det) + a.nu


def system_rank(s: HornSystem) -> int:
    """Holonomic rank: the closed formula for nonconfluent systems, and
    |det M| + nu(M) for a bare atomic (two-row) system."""
    if check_nonconfluent(s):
        return holonomic_rank(s)
    if s.m == 2 and (pairs := enumerate_atomic(s)):
        return atomic_rank(pairs[0])
    raise ValueError("rank formula requires nonconfluency or an atomic system")


def persistent_dim(s: HornSystem) -> int:
    """Sum of pair indices over linearly independent row pairs, on the rows
    as given (see `holonomic_rank` for why this equals the normalized
    value)."""
    if not check_nonconfluent(s):
        raise ValueError("persistent dimension requires nonconfluency")
    return sum(a.nu for a in enumerate_atomic(s))


def fully_supported_count(s: HornSystem) -> int:
    """Sum of |det| over all unordered nondegenerate row pairs: the number of
    pure fully supported series solutions across all convergence domains.
    Also meaningful for a bare atomic pair, where it equals |det M|."""
    return sum(abs(a.det) for a in enumerate_atomic(s))


# -- per-vertex counts -------------------------------------------------------


def convergent_count_S(p: OreSatoPolygon, i: int) -> int:
    """Dimension of the convergent fully supported series on the component of
    vertex i, between edges i-1 and i: the sum of len_k * len_l * |det(B_k, B_l)|
    over the pairs of p's normals whose cone contains B_{i-1} and B_i, which
    span the component's recession cone.  Rows g*d and h*e add g*h*|det(d, e)|,
    and parallel or antiparallel rows span no cone."""
    edges = p.edges
    q = len(edges)
    if not 0 <= i < q:
        raise ValueError(f"vertex index {i} out of range 0..{q - 1}")
    cone = (edges[i - 1].normal, edges[i].normal)
    total = 0
    for k in range(q):
        for ell in range(k + 1, q):
            u, v = edges[k].normal, edges[ell].normal
            d = cross(u, v)
            if d < 0:
                u, v, d = v, u, -d
            if d and all(cross(u, w) >= 0 and cross(w, v) >= 0 for w in cone):
                total += edges[k].length * edges[ell].length * d
    return total
