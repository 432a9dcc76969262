"""Closed-form counts: the rank rules (`holonomic_rank`, `atomic_rank` and
`system_rank`), persistent dimension, fully supported series count, and the
per-vertex dimension of convergent fully supported solutions.

Vertices of the polygon index the components of the singular amoeba's
complement; the count attached to a vertex is the angular double sum over
the polygon's normals (`convergent_count_S`).  The tests check it against
the recession-cone inclusion count.
"""

from __future__ import annotations

from .lattice import RelAngle, cross, index_nu
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
    """Angular double sum over p's normals for the vertex between edges i-1 and i.

    With B_t the distinct normals (p's edges) in ccw order and the angle
    branch based at the ray opposite B_{next}: sum det(B_k, B_l) * mult_k *
    mult_l over k with 0 < arg B_k <= arg B_prev and l with arg B_next <=
    arg B_l < arg(-B_k).  Every summand determinant is positive.
    """
    normals, mults = [e.normal for e in p.edges], [e.length for e in p.edges]
    q = len(normals)
    if not 0 <= i < q:
        raise ValueError(f"vertex index {i} out of range 0..{q - 1}")
    b_prev = normals[(i - 1) % q]   # edge i-1 normal
    b_next = normals[i]             # edge i normal
    base = -b_next
    ang = {t: RelAngle(normals[t], base) for t in range(q)}
    neg_ang = {t: RelAngle(-normals[t], base) for t in range(q)}
    zero = RelAngle(base, base)
    top_k = RelAngle(b_prev, base)
    lo_l = RelAngle(b_next, base)

    total = 0
    for k in range(q):
        if not (zero < ang[k] <= top_k):
            continue
        for ell in range(q):
            if not (lo_l <= ang[ell] < neg_ang[k]):
                continue
            d = cross(normals[k], normals[ell])
            if d <= 0:
                raise AssertionError("summand determinant must be positive")
            total += mults[k] * mults[ell] * d
    return total

