"""Parallel sums, the range-shrinking limit [A]B, and greatest positive
lower bounds of pairs of PSD matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveSemidefinite
from .linalg import (
    DEFAULT_TOL,
    Comparability,
    HermitianMatrix,
    MatrixSet,
    Subspace,
    Tolerances,
    _inverse,
    _map_eigenvalues,
    _require_psd_members,
    _verdict,
    _within,
    range_nullspace,
    spectral,
)

__all__ = [
    "parallel_sum",
    "parallel_sum_family",
    "ando_limit",
    "TwoOpGlbResult",
    "two_op_positive_glb",
]


def _require_psd(m: HermitianMatrix, tol: Tolerances, what: str, scale: float) -> None:
    if not _within(-m.min_eigenvalue(), "psd_rel", scale, tol):
        raise NotPositiveSemidefinite(f"{what} must be positive semidefinite")


def parallel_sum(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Parallel sum ``a : b = a (a + b)^# b`` of two PSD matrices.

    The result is PSD, bounded by both arguments, and its range is the
    intersection of the ranges of the arguments; downstream code relies on
    that range identity.  Eigenvalues of a + b and of the product below
    ``rank_rel`` on the inputs' scale count as zero, the product's rounded
    to exact zero: when the ranges meet only at the origin the product is
    pure rounding noise, and ranking it against its own largest eigenvalue
    would hand a zero matrix a full-dimensional range.
    """
    return parallel_sum_family(MatrixSet([a, b]), tol)


def parallel_sum_family(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Left fold of the parallel sum over a family on its scale; a singleton folds to itself."""
    _require_psd_members(mset, tol)
    scale = mset.max_norm()
    result = mset[0]
    for member in mset.members[1:]:
        inverse = _map_eigenvalues(result + member, lambda w: _inverse(w, tol, scale))
        w, v = spectral(HermitianMatrix(result.mat @ inverse.mat @ member.mat))
        result = HermitianMatrix((v * np.where(_within(np.abs(w), "rank_rel", scale, tol), 0.0, w)) @ v.conj().T)
    return result


def ando_limit(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """The limit [a]b of the decreasing sequence b : (n a) as n grows.

    In finite dimension the limit collapses to ``b^(1/2) P b^(1/2)`` where P
    projects onto the vectors whose image under ``b^(1/2)`` lies in the range
    of ``a``.  [a]b is the largest PSD matrix below b whose square root's
    range lies inside the range of ``a^(1/2)``; when the range of ``b^(1/2)``
    is already inside, [a]b equals b.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    _require_psd(a, tol, "first argument", a.norm())
    _require_psd(b, tol, "second argument", b.norm())
    return _ando_limit(range_nullspace(a, tol).range.projector(), b, tol, b.norm())


def _ando_limit(p_range_a: np.ndarray, b: HermitianMatrix, tol: Tolerances, scale: float) -> HermitianMatrix:
    """[a]b from the projector onto the range of ``a``, for b PSD on ``scale``."""
    broot = _map_eigenvalues(b, lambda w: np.sqrt(np.maximum(w, 0.0)))
    residual_map = broot.mat - p_range_a @ broot.mat
    # The zero decision is on sqrt(scale), the largest value the residual map could take, not
    # on its own largest singular value: a pure-noise residual must give the full null space.
    _, sing, vh = np.linalg.svd(residual_map)
    rank = int(np.sum(~_within(sing, "rank_rel", np.sqrt(scale), tol)))
    v = Subspace(vh[rank:].conj().T)
    return HermitianMatrix(broot.mat @ v.projector() @ broot.mat)


@dataclass(frozen=True)
class TwoOpGlbResult:
    """Existence analysis of the greatest positive lower bound of a pair.

    The bound exists exactly when [a]b and [b]a are comparable, and then it
    is the smaller of the two.
    """

    exists: bool
    glb: HermitianMatrix | None
    ando_ab: HermitianMatrix
    ando_ba: HermitianMatrix
    comparability: Comparability


def two_op_positive_glb(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> TwoOpGlbResult:
    """Greatest positive lower bound of two PSD matrices, when it exists."""
    ab = ando_limit(a, b, tol)
    ba = ando_limit(b, a, tol)
    verdict = _verdict(np.linalg.eigvalsh(ba.mat - ab.mat), max(a.norm(), b.norm()), tol)
    if verdict in (Comparability.LESS_EQUAL, Comparability.EQUAL):
        return TwoOpGlbResult(True, ab, ab, ba, verdict)
    if verdict is Comparability.GREATER_EQUAL:
        return TwoOpGlbResult(True, ba, ab, ba, verdict)
    return TwoOpGlbResult(False, None, ab, ba, verdict)
