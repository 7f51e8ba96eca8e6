"""The three-part block positivity test, generalized Schur complements and
shorted operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, RangeConditionViolated, TrivialSubspace
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    Subspace,
    Tolerances,
    _NOISE_FLOOR,
    _sym,
    _top,
    _within,
    spectral,
)

__all__ = [
    "AlbertReport",
    "SchurResult",
    "albert_is_psd",
    "schur_complement",
]


def _split(h1: Subspace, n: int) -> Subspace:
    """The orthogonal complement of h1, a proper nontrivial subspace of C^n."""
    if h1.ambient_dim != n:
        raise DimensionMismatch(
            f"subspace ambient dimension {h1.ambient_dim} does not match matrix dimension {n}"
        )
    if not 0 < h1.dim < n:
        raise TrivialSubspace(
            f"need a proper nontrivial subspace, got dimension {h1.dim} of {n}"
        )
    return h1.complement()


def _blocks(s: HermitianMatrix, h1: Subspace, h2: Subspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner, coupling and remaining blocks (s1, s12, s2) of ``s`` over (h1, h2)."""
    u1, u2 = h1.basis, h2.basis
    s1 = _sym(u1.conj().T @ s.mat @ u1)
    s2 = _sym(u2.conj().T @ s.mat @ u2)
    s12 = u1.conj().T @ s.mat @ u2
    return s1, s12, s2


def _corner_analysis(
    blocks: tuple, tol: Tolerances, anchor: float, psd: bool = False
) -> tuple[bool, np.ndarray, HermitianMatrix]:
    """Whether the coupling stays in the corner's range, the part of it
    outside that range, and the complement block.

    A single eigendecomposition of the corner block drives both decisions, so
    the directions the range test treats as null are exactly the directions
    the inversion drops.  The corner is cut on its own norm, range inclusion
    on ``anchor``, the parent's scale, both floored at the parent's noise.

    With ``psd`` the parent is PSD within its margin, and a corner eigenvalue
    negative past the cut is inverted as the cut: the coupling along it then
    takes its direction out of the complement, which stays below s2.
    """
    s1, s12, s2 = blocks
    w, v = spectral(HermitianMatrix(s1))
    mask = ~(_within(np.abs(w), "rank_rel", _top(w), tol) | _within(np.abs(w), _NOISE_FLOOR, anchor))
    vr = v[:, mask]
    residual = s12 - vr @ (vr.conj().T @ s12)
    inside = _within(residual, "rank_rel", anchor, tol) or _within(residual, _NOISE_FLOOR, anchor)
    if psd:
        w = np.maximum(w, max(tol.rank_rel * _top(w), _NOISE_FLOOR * anchor))
    inv_w = np.where(mask, 1.0 / np.where(mask, w, 1.0), 0.0)
    y = v.conj().T @ s12  # in the corner's eigenbasis each 1/w scales its own row only, so none cancels
    correction = y.conj().T @ (inv_w[:, None] * y)
    return inside, residual, HermitianMatrix(s2 - correction)


@dataclass(frozen=True)
class AlbertReport:
    """Outcome of the three-part positivity test over a block split.

    ``failing_condition`` is ``"(i)"`` when the corner block is not PSD,
    ``"(ii)"`` when the coupling block leaves its range, ``"(iii)"`` when the
    generalized Schur complement is not PSD, and ``None`` when all pass.
    """

    is_psd: bool
    failing_condition: str | None


def albert_is_psd(s: HermitianMatrix, h1: Subspace, tol: Tolerances = DEFAULT_TOL) -> AlbertReport:
    """Decide positivity of ``s`` from its blocks over (h1, complement).

    ``s`` is PSD exactly when the corner block is PSD, the coupling block
    stays inside the corner block's range, and the generalized Schur
    complement is PSD.
    """
    blocks = _blocks(s, h1, _split(h1, s.dim))
    # the corner and the complement are decided on the scale of s
    if not _within(-np.linalg.eigvalsh(blocks[0])[0], "psd_rel", s.norm(), tol):
        return AlbertReport(False, "(i)")
    inside, _, complement = _corner_analysis(blocks, tol, s.norm())
    if not inside:
        return AlbertReport(False, "(ii)")
    if not _within(-complement.min_eigenvalue(), "psd_rel", s.norm(), tol):
        return AlbertReport(False, "(iii)")
    return AlbertReport(True, None)


class SchurResult(NamedTuple):
    complement: HermitianMatrix
    shorted: HermitianMatrix


def schur_complement(s: HermitianMatrix, h1: Subspace, tol: Tolerances = DEFAULT_TOL) -> SchurResult:
    """Generalized Schur complement of ``s`` over h1, plus the shorted operator.

    The complement ``s2 - s12* s1^# s12`` lives on the orthogonal complement
    of h1; the shorted operator embeds it back into the full space as
    ``[[0, 0], [0, complement]]`` in (h1, h2) coordinates.  Requires the
    coupling block to stay inside the corner block's range.
    """
    h2 = _split(h1, s.dim)
    inside, residual, complement = _corner_analysis(_blocks(s, h1, h2), tol, s.norm())
    if not inside:
        raise RangeConditionViolated(
            f"coupling block leaves the range of the corner block "
            f"(residual {np.linalg.norm(residual, 2):.3e} on scale {s.norm():.3e})"
        )
    return SchurResult(complement, _shorted(complement, h2))


def _shorted(complement: HermitianMatrix, h2: Subspace) -> HermitianMatrix:
    """The complement on h2 embedded into the full space as ``U2 complement U2*``."""
    return HermitianMatrix(h2.basis @ complement.mat @ h2.basis.conj().T)

