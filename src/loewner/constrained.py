"""Lower bounds constrained to agree with the set minimum at a given vector.

For a unit vector u and a finite set, alpha is the smallest quadratic-form
value (A u, u) over the members.  A lower bound L with (L u, u) = alpha can
exist only when every member attaining alpha sends u to one common vector;
when that holds, the constrained bounds correspond to lower bounds of a
reduced set of one-dimension-smaller matrices on the orthogonal complement
of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnitVector
from .infimum import extend_to_maximal
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    MatrixSet,
    Subspace,
    Tolerances,
    _freeze,
    _scale_free,
    _sym,
    _within,
    identity,
)

__all__ = [
    "ConstrainedReport",
    "constrained_at_vector",
    "maximal_in_lu",
]


@dataclass(frozen=True)
class ConstrainedReport:
    """Reduction of the constrained lower-bound problem at a unit vector.

    ``attainers_agree`` is the existence criterion: when False, no lower
    bound of the set matches the set minimum at u and the constrained family
    is empty.  When True and the ambient dimension exceeds one,
    ``reduced_set`` holds the reduced matrices in the coordinates of
    ``complement_basis``, and ``witness_row`` is the coupling row (u* B W)
    of the first attaining member, shared by every constrained bound.  It is
    held as numbers, as ``alpha`` is, since it moves with the family's scale;
    the arrays are bases and do not.
    """

    alpha: float
    mu_indices: tuple[int, ...]
    attainers_agree: bool
    reduced_set: MatrixSet | None
    witness_row: tuple[complex, ...] | None
    complement_basis: np.ndarray | None
    unit: np.ndarray


@_scale_free
def constrained_at_vector(mset: MatrixSet, u, tol: Tolerances = DEFAULT_TOL) -> ConstrainedReport:
    """Analyze the lower bounds that agree with the set minimum at ``u``.

    Members within ``eq_rel`` (relative to the family scale) of the minimum
    count as attaining it; their pseudo-inverted corner gaps are treated as
    zero by the same rule, which keeps the reduction deterministic.
    """
    vec = np.asarray(u, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != mset.dim:
        raise DimensionMismatch(f"vector has length {vec.shape[0]}, expected {mset.dim}")
    length = float(np.linalg.norm(vec))
    if not _within(abs(length - 1.0), "eq_rel", 1.0, tol):  # dimensionless
        raise NotUnitVector(f"|u| = {length:.12g} is not 1 within tolerance")
    unit = vec / length

    scale = mset.max_norm()
    values = [float(np.real(np.vdot(unit, member.mat @ unit))) for member in mset]
    alpha = min(values)
    mu = tuple(i for i, v in enumerate(values) if _within(v - alpha, "eq_rel", scale, tol))
    images = [mset[i].mat @ unit for i in mu]
    agree = all(
        _within(images[i] - images[j], "eq_rel", scale, tol)
        for i in range(len(mu))
        for j in range(i + 1, len(mu))
    )
    unit = _freeze(unit)
    if not agree:
        return ConstrainedReport(alpha, mu, False, None, None, None, unit)
    if mset.dim == 1:
        return ConstrainedReport(alpha, mu, True, None, None, None, unit)

    w = Subspace(unit[:, None]).complement().basis
    witness = unit.conj() @ (mset[mu[0]].mat @ w)
    attaining = set(mu)
    reduced = []
    for i, member in enumerate(mset):
        corner = _sym(w.conj().T @ member.mat @ w)
        if i in attaining:
            reduced.append(HermitianMatrix(corner))
            continue
        row = unit.conj() @ (member.mat @ w)
        gap = row - witness
        reduced.append(HermitianMatrix(corner - np.outer(gap.conj(), gap) / (values[i] - alpha)))
    return ConstrainedReport(alpha, mu, True, MatrixSet(reduced), tuple(witness.tolist()), _freeze(np.array(w)), unit)


@_scale_free
def maximal_in_lu(mset: MatrixSet, u, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix | None:
    """A maximal element of the constrained lower bounds at ``u``, or None.

    When the attaining members disagree at u the constrained family is empty.
    Otherwise a maximal constrained bound is assembled from alpha, the shared
    coupling row, and a maximal lower bound of the reduced set on the
    complement of u.
    """
    return _constrained(mset, u, tol)[1]


@_scale_free
def _constrained(mset: MatrixSet, u, tol: Tolerances) -> tuple[ConstrainedReport, HermitianMatrix | None]:
    """(the reduction at u, ``maximal_in_lu`` assembled from it), from one reduction."""
    report = constrained_at_vector(mset, u, tol)
    if not report.attainers_agree:
        return report, None
    n = report.unit.shape[0]
    if n == 1:
        return report, HermitianMatrix([[report.alpha]])
    reduced = report.reduced_set
    inner = extend_to_maximal(reduced.min_eigenvalue() * identity(reduced.dim), reduced, tol)
    blocks = np.zeros((n, n), dtype=np.complex128)
    blocks[0, 0] = report.alpha
    blocks[0, 1:] = report.witness_row
    blocks[1:, 0] = np.conj(report.witness_row)
    blocks[1:, 1:] = inner.mat
    rotation = np.hstack([report.unit[:, None], report.complement_basis])
    return report, HermitianMatrix(rotation @ blocks @ rotation.conj().T)
