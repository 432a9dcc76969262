"""hornkit: exact analysis of bivariate nonconfluent Horn hypergeometric
systems — operators, holonomic rank, solution-space decomposition counts,
Puiseux polynomial solutions, polygon classification, and the maximal
reducibility decision."""

from .lattice import Vec2, ccw_sort, index_nu, opposite_open_quadrants, primitive
from .puiseux import PuiseuxPolynomial, parse_rational
from .system import (
    AtomicSystem,
    HornSystem,
    ResonanceReport,
    check_nonconfluent,
    detect_resonance,
    enumerate_atomic,
)
from .operators import apply_horn, apply_intertwiner, is_solution
from .polygon import (
    Classification,
    Kind,
    OreSatoPolygon,
    build_polygon,
    classify,
    vertex_count,
)
from .counting import (
    atomic_rank,
    convergent_count_S,
    fully_supported_count,
    holonomic_rank,
    persistent_dim,
)
from .atomic import (
    is_generic,
    persistent_monomials,
    persistent_polynomials,
    polynomial_exponents,
)
from .series import (
    HarvestResult,
    ResonantCollisionError,
    TruncatedSeries,
    harvest_polynomials,
    series_from_submatrix,
    verify_truncated,
)
from .solver import (
    ClosedFormSolution,
    MonodromyDiagonal,
    check_constructive,
    expand_closed_form,
    monodromy_exponents,
    parallelepipedal_closed_form,
    parallelepipedal_system,
    persistent_solutions,
    simplicial_closed_form,
    simplicial_system,
    suggest_polynomial_parameters,
    validate_persistence,
)

__version__ = "0.1.0"
