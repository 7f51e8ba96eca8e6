"""Parallel sums, the range-shrinking limit [A]B, and greatest positive
lower bounds of pairs of PSD matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Comparability,
    HermitianMatrix,
    MatrixSet,
    RangeNullspace,
    Tolerances,
    _clear_of_cut,
    _inverse,
    _map_eigenvalues,
    _range_null,
    _require_psd_members,
    _verdict,
    _within,
    spectral,
    zero,
)
from .schur import _blocks, _corner_analysis, _shorted

__all__ = [
    "parallel_sum",
    "parallel_sum_family",
    "ando_limit",
    "TwoOpGlbResult",
    "two_op_positive_glb",
]


def parallel_sum(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Parallel sum ``a : b = a (a + b)^# b`` of two PSD matrices.

    The result is PSD, bounded by both arguments, and its range is the
    intersection of the ranges of the arguments; downstream code relies on
    that range identity.  Eigenvalues of a + b below ``rank_rel`` on the
    inputs' scale count as zero, and so do the product's (``_rounded``).
    """
    return parallel_sum_family(MatrixSet([a, b]), tol)


def parallel_sum_family(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Left fold of the parallel sum over a family on its scale; a singleton folds to itself.

    The parallel sum is Loewner-monotone: with a_i the members' smallest eigenvalues,
    1 / sum(1 / a_i) <= lambda_min(A_1 : ... : A_j) <= min a_i bound what ``_rounded``
    decides, the lower net of each product's rounding error, n eps scale^2 / lambda_min(A + B).
    """
    scale = mset.max_norm()
    lowest = mset.eigenvalues()[:, 0]
    _require_psd_members(lowest, scale, tol)
    result, noise = mset[0], 0.0
    for j, member in enumerate(mset.members[1:], start=2):
        total = result + member
        inverse = _map_eigenvalues(total, lambda w: _inverse(w, tol, scale))
        floor = float(spectral(total)[0][0])
        noise += mset.dim * math.ulp(1.0) * scale * (scale / floor) if floor > 0.0 else math.inf
        head = lowest[:j].tolist()
        low = 1.0 / sum(1.0 / a for a in head) - noise if min(head) > 0.0 else -math.inf
        result = _rounded(HermitianMatrix(result.mat @ inverse.mat @ member.mat), tol, scale, low, min(head))
    return result


def _rounded(s: HermitianMatrix, tol: Tolerances, scale: float, low=-math.inf, high=math.inf) -> HermitianMatrix:
    """``s``, PSD by theorem, with its eigenvalues at most ``rank_rel`` on ``scale`` (negative ones
    too) rounded to exact zero: on its own norm, a vanished result's noise would get a full range.
    It is returned as it is when ``low``, a lower bound on its smallest eigenvalue, clears the cut,
    or else its eigenvalues do (``_clear_of_cut``); they are not read when ``high``, an upper bound,
    is within the cut.  Otherwise it is rebuilt from ``spectral`` and carries its eigenpairs."""
    probe = s._eigenpairs is None and not _within(high, "rank_rel", scale, tol)
    if not _within(low, "rank_rel", scale, tol) or (probe and _clear_of_cut(s._spectrum(), tol, scale)):
        return s
    small = _within(spectral(s)[0], "rank_rel", scale, tol)
    return _map_eigenvalues(s, lambda w: np.where(small, 0.0, w)) if small.any() else s


def ando_limit(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """The limit [a]b of the decreasing sequence b : (n a) as n grows.

    In finite dimension [a]b is the shorted operator of b to the range of
    ``a``, the largest PSD matrix below b with range inside R(a): b's
    generalized Schur complement over the null space of ``a``, by ``schur``.
    The pair is checked PSD, as members 0 and 1, and split and decided on max(|a|, |b|).
    """
    a._require_same_dim(b)
    scale = max(a.norm(), b.norm())
    _require_psd_members([a.min_eigenvalue(), b.min_eigenvalue()], scale, tol)
    return _ando_limit(_range_null(a, tol, scale), b, tol, scale)


def _ando_limit(split: RangeNullspace, b: HermitianMatrix, tol: Tolerances, scale: float) -> HermitianMatrix:
    """[a]b from ``split``, a's (range, null space), for b PSD on ``scale``, its eigenvalues at most ``rank_rel``
    on ``scale`` rounded to exact zero, b's too when a is invertible.  The corner rule takes the eigen-gap of
    a's split; its range verdict is not consulted, as ``_rounded`` zeroes what it subtracts past b."""
    if split.range.dim == 0:  # a is zero
        return zero(b.dim)
    if split.nullspace.dim == 0:  # a is invertible
        return _rounded(b, tol, scale)
    _, _, complement = _corner_analysis(_blocks(b, split.nullspace, split.range), tol, scale, scale, split.gap)
    return _shorted(_rounded(complement, tol, scale), split.range)


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
