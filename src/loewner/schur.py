"""The three-part block positivity test, generalized Schur complements and
shorted operators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, RangeConditionViolated, TrivialSubspace
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    Subspace,
    Tolerances,
    _scale_free,
    _sym,
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


def _blocks(s: HermitianMatrix, h1: Subspace, h2: Subspace) -> tuple[HermitianMatrix, np.ndarray, np.ndarray]:
    """Corner, coupling and remaining blocks (s1, s12, s2) of ``s`` over (h1, h2)."""
    u1, u2 = h1.basis, h2.basis
    s12 = u1.conj().T @ s.mat @ u2
    return HermitianMatrix(u1.conj().T @ s.mat @ u1), s12, _sym(u2.conj().T @ s.mat @ u2)


def _corner(w: np.ndarray, c: np.ndarray, anchor, scale: float, tol: Tolerances, gap: float = math.inf, least=0.0):
    """The one corner rule: per corner eigen-direction j, the weight 1/pivot by which a generalized
    Schur complement subtracts its coupling row (0 where it is dropped), and whether j breaks the
    range test.  ``w`` holds a corner's eigenvalues, ascending along the last axis of a stack, ``c``
    its coupling rows' norms in that eigenbasis, ``anchor`` the parent's scale and ``scale`` the
    problem's.  j is cut when |w_j| <= max(rank_rel max|w|, 64 eps anchor), the floor.  Its coupling
    is real when c_j > max(rank_rel scale, 64 eps anchor max(1, scale / gap)): by Davis-Kahan a null
    space split ``gap`` from the kept eigenvalues is off by about 64 eps scale / gap, and a smaller
    coupling is its own error (``gap`` is infinite for a given subspace or line); admitted when
    c_j^2 <= 2 w_j anchor, twice Cauchy-Schwarz in a PSD parent.  Only a cut j with a real,
    unadmitted coupling fails the range test, and only a cut one without a real coupling is dropped.
    ``least`` is the least eigenvalue the parent is taken to have: 0 if PSD by premise, -psd_rel
    scale to ask if it passes as PSD, -inf if nothing is assumed.  Within the order margin, a j at
    or under the floor and not admitted (every negative one) is inverted as in the PSD parent - least,
    at max(w_j - least, floor); else only a cut one is, and fails.  Any other j is inverted at w_j."""
    floor = np.maximum(tol.rank_rel * np.maximum(-w[..., :1], w[..., -1:]), tol.noise_rel * anchor)
    cut = np.abs(w) <= floor
    real = c > np.maximum(tol.rank_rel * scale, tol.noise_rel * max(1.0, scale / gap) * anchor)
    over = c * c > 2.0 * w * anchor
    shifted = cut | _within(-least, "psd_rel", scale, tol)
    pivot = np.where((w <= floor) & over & shifted, np.maximum(w - least, floor), w)
    return np.divide(1.0, pivot, out=np.zeros(w.shape), where=~cut | real), cut & real & over


def _corner_analysis(
    blocks: tuple, tol: Tolerances, anchor: float, scale: float, gap: float = math.inf, least: float = 0.0
) -> tuple[bool, np.ndarray, HermitianMatrix]:
    """Whether the coupling stays in the corner's range, the coupling rows that leave it, and the
    complement block, by ``_corner`` on the one eigendecomposition of the corner block."""
    s1, s12, s2 = blocks
    w, v = spectral(s1)
    y = v.conj().T @ s12  # in the corner's eigenbasis each 1/w scales its own row only, so none cancels
    inverse, fails = _corner(w, np.linalg.norm(y, axis=1), anchor, scale, tol, gap, least)
    return not fails.any(), y[fails], HermitianMatrix(s2 - y.conj().T @ (inverse[:, None] * y))


@dataclass(frozen=True)
class AlbertReport:
    """Outcome of the three-part positivity test over a block split.

    ``failing_condition`` is ``"(i)"`` when the corner block is not PSD,
    ``"(ii)"`` when the coupling block leaves its range, ``"(iii)"`` when the
    generalized Schur complement is not PSD, and ``None`` when all pass.
    """

    is_psd: bool
    failing_condition: str | None


@_scale_free
def albert_is_psd(s: HermitianMatrix, h1: Subspace, tol: Tolerances = DEFAULT_TOL) -> AlbertReport:
    """Decide positivity of ``s`` from its blocks over (h1, complement).

    ``s`` is PSD exactly when the corner block is PSD, the coupling block
    stays inside the corner block's range, and the generalized Schur
    complement is PSD.
    """
    blocks, scale = _blocks(s, h1, _split(h1, s.dim)), s.norm()
    # the corner and the complement are decided on the scale of s; the corner's least diagonal
    # entry bounds its smallest eigenvalue above, and only when it passes is the one eigh taken
    least = blocks[0].mat.diagonal().real.min()
    if not (_within(-least, "psd_rel", scale, tol) and _within(-spectral(blocks[0])[0][0], "psd_rel", scale, tol)):
        return AlbertReport(False, "(i)")
    # s passes when it is PSD within the margin, so a negative corner is inverted as in s + margin
    inside, _, complement = _corner_analysis(blocks, tol, scale, scale, least=-tol.psd_rel * scale)
    if not inside:
        return AlbertReport(False, "(ii)")
    if not _within(-complement.min_eigenvalue(), "psd_rel", scale, tol):
        return AlbertReport(False, "(iii)")
    return AlbertReport(True, None)


class SchurResult(NamedTuple):
    complement: HermitianMatrix
    shorted: HermitianMatrix


@_scale_free
def schur_complement(s: HermitianMatrix, h1: Subspace, tol: Tolerances = DEFAULT_TOL) -> SchurResult:
    """Generalized Schur complement of ``s`` over h1, plus the shorted operator.

    The complement ``s2 - s12* s1^# s12`` lives on the orthogonal complement
    of h1; the shorted operator embeds it back into the full space as
    ``[[0, 0], [0, complement]]`` in (h1, h2) coordinates.  Requires the
    coupling block to stay inside the corner block's range.
    """
    h2, scale = _split(h1, s.dim), s.norm()
    inside, residual, complement = _corner_analysis(_blocks(s, h1, h2), tol, scale, scale, least=-math.inf)
    if not inside:
        raise RangeConditionViolated(
            f"coupling block leaves the range of the corner block "
            f"(residual {np.linalg.norm(residual, 2) / scale:.3e} of |s|)"
        )
    return SchurResult(complement, _shorted(complement, h2))


def _shorted(complement: HermitianMatrix, h2: Subspace) -> HermitianMatrix:
    """The complement on h2 embedded into the full space as ``U2 complement U2*``."""
    return HermitianMatrix(h2.basis @ complement.mat @ h2.basis.conj().T)

