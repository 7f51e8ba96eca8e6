"""Lower-bound predicates, maximality certificates, the explicit M_T family
of maximal lower bounds, and the contraction parametrization of the maximal
lower bounds of {J, 0}."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AngularExtractionFailed,
    ConsistencyError,
    DimensionMismatch,
    NotMaximalForJZero,
    SingularTransform,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    MatrixSet,
    Tolerances,
    _deciding_scale,
    _eigh,
    _freeze,
    _within,
    matrix_abs,
    range_nullspace,
    spectral,
    sqrt_psd,
    zero,
)

__all__ = [
    "is_lower_bound",
    "MaximalityCertificate",
    "certify_maximal",
    "mlb_mt",
    "signature_matrix",
    "StottParam",
    "StottPair",
    "stott_mx",
    "stott_recover_x",
]


def is_lower_bound(l: HermitianMatrix, mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when ``l`` is below every member, decided on all the gaps A - l at once."""
    l._require_same_dim(mset)
    return _below_every_member(np.linalg.eigvalsh(mset.stack - l.mat), l, mset, tol)


def _below_every_member(w: np.ndarray, l: HermitianMatrix, mset: MatrixSet, tol: Tolerances) -> bool:
    """Whether the gaps A - l, of ascending spectra ``w`` (one row per member), are PSD
    on max(|A|, |l|), with |l| computed only when its Frobenius bracket cannot decide."""
    margin = -w[:, 0].min()
    scale = _deciding_scale(lambda scale: _within(margin, "psd_rel", scale, tol), (l,), mset.max_norm())
    return bool(_within(margin, "psd_rel", scale, tol))


@dataclass(frozen=True)
class MaximalityCertificate:
    """Null-space spanning certificate for maximality among lower bounds.

    ``per_member_nullspace_dims`` holds dim(null(A - M)) per member; M is
    maximal exactly when it is a lower bound and those null spaces jointly
    span the whole space (``span_dim`` equals the ambient dimension).
    """

    per_member_nullspace_dims: tuple[int, ...]
    span_dim: int
    is_lower_bound: bool
    is_maximal: bool


def certify_maximal(m: HermitianMatrix, mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> MaximalityCertificate:
    """Certify whether ``m`` is a maximal lower bound of the set.

    M is maximal exactly when it is a lower bound and the null spaces of the
    gaps A - M span the space.  One batched eigendecomposition of the gaps
    decides both: its eigenvalues the order, and the singular values of the
    null-space eigenvectors of every gap, side by side, the span.  The scale
    is max(|M|, |A|), with |M| computed only when its Frobenius bracket
    cannot decide.
    """
    m._require_same_dim(mset)
    w, v = _eigh(mset.stack - m.mat)
    # the gaps are decided on the family scale, not their own norm: a gap
    # that is pure rounding noise must count as zero, not full rank
    magnitudes = np.abs(w)

    def decide(scale):
        # the null masks only grow with the scale, so equal counts mean equal masks
        null = _within(magnitudes, "rank_rel", scale, tol)
        return bool(_within(-w[:, 0].min(), "psd_rel", scale, tol)), int(null.sum())

    scale = _deciding_scale(decide, (m,), mset.max_norm())
    lower, _ = decide(scale)
    null = _within(magnitudes, "rank_rel", scale, tol)
    # every gap's null columns side by side
    columns = np.swapaxes(v, 1, 2)[null].T
    span_dim = 0
    if columns.size:
        sing = np.linalg.svd(columns, compute_uv=False)
        span_dim = int(np.count_nonzero(~_within(sing, "rank_rel", sing[0], tol)))
    return MaximalityCertificate(
        per_member_nullspace_dims=tuple(int(d) for d in null.sum(axis=1)),
        span_dim=span_dim,
        is_lower_bound=lower,
        is_maximal=lower and span_dim == m.dim,
    )


def mlb_mt(a: HermitianMatrix, b: HermitianMatrix, t, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Explicit maximal lower bound of {a, b} attached to an invertible T:

        M_T = (a + b - T* |T^-* (a - b) T^-1| T) / 2.

    M_T depends on T only through |T|, commutes with congruences, and shifts
    along with the pair.
    """
    a._require_same_dim(b)
    t_arr = np.asarray(t, dtype=np.complex128)
    if t_arr.shape != (a.dim, a.dim):
        raise DimensionMismatch(f"transform has shape {t_arr.shape}, expected {(a.dim, a.dim)}")
    sing = np.linalg.svd(t_arr, compute_uv=False)
    if _within(sing[-1], "rank_rel", sing[0], tol):
        raise SingularTransform("the congruence transform must be invertible")
    t_inv = np.linalg.inv(t_arr)
    core = HermitianMatrix(t_inv.conj().T @ (a - b).mat @ t_inv)
    absolute = matrix_abs(core)
    return HermitianMatrix(0.5 * (a.mat + b.mat - t_arr.conj().T @ absolute.mat @ t_arr))


def signature_matrix(p: int, q: int) -> HermitianMatrix:
    """J = diag(I_p, -I_q)."""
    if p < 1 or q < 1:
        raise ValueError("both signature blocks must be nonempty")
    return HermitianMatrix(np.diag(np.concatenate([np.ones(p), -np.ones(q)])))


@dataclass(frozen=True)
class StottParam:
    """A p x q contraction-free parameter X for the {J, 0} family."""

    p: int
    q: int
    x: np.ndarray

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError("both blocks must be nonempty")
        arr = np.asarray(self.x, dtype=np.complex128)
        if arr.shape != (self.p, self.q):
            raise DimensionMismatch(f"parameter has shape {arr.shape}, expected {(self.p, self.q)}")
        object.__setattr__(self, "x", _freeze(np.array(arr)))


class StottPair(NamedTuple):
    sx: HermitianMatrix
    mx: HermitianMatrix


def stott_mx(param: StottParam, tol: Tolerances = DEFAULT_TOL) -> StottPair:
    """Maximal lower bound M(X) = J - S(X) of {J, 0} built from X, where

        S(X) = [[I + XX*,          (I + XX*)^(1/2) X],
                [X* (I + XX*)^(1/2), X* X          ]].

    S(X) is PSD with null space of dimension q, M(X) is a maximal lower
    bound of {J, 0}, and X -> M(X) is a bijection onto those bounds.
    """
    x = np.asarray(param.x, dtype=np.complex128)
    p, q = param.p, param.q
    # tr S(X) = p + 2 |X|_F^2 bounds every entry of S(X), and symmetrizing S(X) doubles an entry
    with np.errstate(over="ignore"):
        if not np.isfinite(2.0 * (p + 2.0 * np.vdot(x, x).real)):
            raise ValidationError("I + XX* overflows: X is out of range")
    gram = HermitianMatrix(np.eye(p) + x @ x.conj().T)
    root = sqrt_psd(gram, tol).mat
    top = np.hstack([gram.mat, root @ x])
    bottom = np.hstack([x.conj().T @ root, x.conj().T @ x])
    sx = HermitianMatrix(np.vstack([top, bottom]))
    mx = signature_matrix(p, q) - sx
    return StottPair(sx, mx)


def stott_recover_x(m: HermitianMatrix, p: int, q: int, tol: Tolerances = DEFAULT_TOL) -> StottParam:
    """Invert the parametrization: recover X from a maximal lower bound of {J, 0}.

    The null space of M is a graph over the first block with angular
    operator K, a strict contraction, and X = -(I - K*K)^(-1/2) K*.
    The round trip through ``stott_mx`` is verified before returning.
    """
    n = p + q
    if p < 1 or q < 1:
        raise ValueError("both blocks must be nonempty")
    if m.dim != n:
        raise DimensionMismatch(f"matrix has dimension {m.dim}, expected {n}")
    family = MatrixSet([signature_matrix(p, q), zero(n)])
    cert = certify_maximal(m, family, tol)
    if not cert.is_maximal:
        raise NotMaximalForJZero(
            "the matrix is not a certified maximal lower bound of {J, 0} "
            f"(lower bound: {cert.is_lower_bound}, span {cert.span_dim} of {n})"
        )
    null = range_nullspace(m, tol).nullspace
    if null.dim != p:
        raise AngularExtractionFailed(
            f"null space has dimension {null.dim}, expected {p}"
        )
    v1 = null.basis[:p, :]
    v2 = null.basis[p:, :]
    # v1, the angular operator and I - K*K are dimensionless: scale 1
    if _within(np.linalg.svd(v1, compute_uv=False)[-1], "rank_rel", 1.0, tol):
        raise AngularExtractionFailed("null space is not a graph over the positive block")
    k = v2 @ np.linalg.inv(v1)
    c = HermitianMatrix(np.eye(p) - k.conj().T @ k)
    w, v = spectral(c)
    if _within(w[0], "rank_rel", 1.0, tol):
        raise AngularExtractionFailed("angular operator is not a strict contraction")
    inv_root = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    param = StottParam(p, q, -(inv_root @ k.conj().T))
    rebuilt = stott_mx(param, tol).mx
    if not _within((rebuilt - m).mat, "eq_rel", max(family.max_norm(), m.norm()), tol):
        raise ConsistencyError("recovered parameter does not reproduce the input bound")
    return param
