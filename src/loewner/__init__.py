"""Numerical toolkit for the Loewner partial order on Hermitian matrices.

The order S <= T holds when T - S is positive semidefinite.  Pairs of
Hermitian matrices rarely have an infimum, so this package centres on the
structures that do exist: maximal lower bounds and their certificates, the
explicit M_T family for pairs, the parametrization of all maximal lower
bounds of {J, 0}, greatest lower bounds inside commuting families, greatest
positive lower bounds via parallel sums and range-limited parts, and lower
bounds constrained to match the set minimum at a unit vector.
"""

from .bounds import (
    MaximalityCertificate,
    StottPair,
    StottParam,
    certify_maximal,
    is_lower_bound,
    mlb_mt,
    signature_matrix,
    stott_mx,
    stott_recover_x,
)
from .constrained import ConstrainedReport, constrained_at_vector, maximal_in_lu
from .documents import (
    MatrixSetDocument,
    document_from_set,
    emit_document,
    parse_document,
)
from .ensembles import DEFAULT_DIMS, SUITE_NAMES, ensemble_run
from .errors import (
    ConsistencyError,
    LoewnerError,
    NumericalFailure,
    ParseError,
    UsageError,
    ValidationError,
)
from .fixtures import FIXTURE_NAMES, Fixture, fixture
from .infimum import (
    InfimumReport,
    PositiveGlbReport,
    commutant_basis,
    commuting_glb,
    commuting_glb_two_routes,
    distinct_maximals,
    extend_to_maximal,
    finite_infimum,
    pairwise_commuting,
    positive_glb_family,
    positive_maximal_lb,
    simultaneous_eigenbasis,
)
from .linalg import (
    DEFAULT_TOL,
    Comparability,
    HermitianMatrix,
    MatrixSet,
    Subspace,
    Tolerances,
    compare,
    hermitize,
    identity,
    is_psd,
    loewner_leq,
    matrix_abs,
    pinv,
    polar_abs,
    range_nullspace,
    spectral,
    sqrt_psd,
    subspace_intersect,
    zero,
)
from .parallel import (
    TwoOpGlbResult,
    ando_limit,
    parallel_sum,
    parallel_sum_family,
    two_op_positive_glb,
)
from .schur import (
    AlbertReport,
    SchurResult,
    albert_is_psd,
    schur_complement,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AlbertReport",
    "Comparability",
    "ConsistencyError",
    "ConstrainedReport",
    "DEFAULT_DIMS",
    "DEFAULT_TOL",
    "FIXTURE_NAMES",
    "Fixture",
    "HermitianMatrix",
    "InfimumReport",
    "LoewnerError",
    "MatrixSet",
    "MatrixSetDocument",
    "MaximalityCertificate",
    "NumericalFailure",
    "ParseError",
    "PositiveGlbReport",
    "SchurResult",
    "StottPair",
    "StottParam",
    "SUITE_NAMES",
    "Subspace",
    "Tolerances",
    "TwoOpGlbResult",
    "UsageError",
    "ValidationError",
    "albert_is_psd",
    "ando_limit",
    "certify_maximal",
    "commutant_basis",
    "commuting_glb",
    "commuting_glb_two_routes",
    "compare",
    "constrained_at_vector",
    "distinct_maximals",
    "document_from_set",
    "emit_document",
    "ensemble_run",
    "extend_to_maximal",
    "finite_infimum",
    "fixture",
    "hermitize",
    "identity",
    "is_lower_bound",
    "is_psd",
    "loewner_leq",
    "matrix_abs",
    "maximal_in_lu",
    "mlb_mt",
    "pairwise_commuting",
    "parallel_sum",
    "parallel_sum_family",
    "parse_document",
    "pinv",
    "polar_abs",
    "positive_glb_family",
    "positive_maximal_lb",
    "range_nullspace",
    "schur_complement",
    "signature_matrix",
    "simultaneous_eigenbasis",
    "spectral",
    "sqrt_psd",
    "stott_mx",
    "stott_recover_x",
    "subspace_intersect",
    "two_op_positive_glb",
    "zero",
]
