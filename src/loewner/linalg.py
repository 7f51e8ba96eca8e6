"""Hermitian matrix values, spectral machinery, subspace algebra, and the
Loewner-order predicates everything else builds on.

All values are immutable after construction (arrays are frozen) and every
operation is a pure function of its inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    NonSquare,
    NotHermitianWithinTolerance,
    NotPositiveSemidefinite,
    ValidationError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "HermitianMatrix",
    "MatrixSet",
    "Subspace",
    "RangeNullspace",
    "Comparability",
    "identity",
    "zero",
    "hermitize",
    "spectral",
    "fix_column_phases",
    "sqrt_psd",
    "matrix_abs",
    "pinv",
    "polar_abs",
    "range_nullspace",
    "subspace_intersect",
    "compare",
    "loewner_leq",
    "is_psd",
]


@dataclass(frozen=True)
class Tolerances:
    """Every relative threshold a decision reads, each by its name.

    ``rank_rel`` drives range/null-space splits (relative to the largest
    eigenvalue or singular value), ``psd_rel`` drives order decisions, and
    ``eq_rel`` drives equality of values.  Rank and order decisions fail in
    different ways, hence the separate knobs.  The five fixed thresholds below
    them are class attributes, not fields: no flag sets them, ``as_dict`` omits them.
    """

    rank_rel: float = 1e-10
    psd_rel: float = 1e-9
    eq_rel: float = 1e-8
    # Rank decisions on a block or a corner are floored at the rounding noise of
    # the matrix it came from: when the split direction is null for that matrix,
    # the block is pure rounding noise, and treating that noise as invertible
    # would inject arbitrarily large errors downstream.
    noise_rel: ClassVar[float] = 64.0 * float(np.finfo(np.float64).eps)
    # Eigenvalues closer than this, relative to the family scale, are kept in one
    # cluster and left for later members to refine; splitting near-degenerate
    # pairs is what destabilizes a joint eigenbasis, merging them never does.
    cluster_rel: ClassVar[float] = 1e-5
    # Two independent routes to the same matrix must agree this tightly,
    # relative to the family scale.
    two_route_rel: ClassVar[float] = 1e-10
    # Constructed maximal bounds count as distinct only when separated by at
    # least this much (and by eq_rel), relative to the family scale.
    distinct_rel: ClassVar[float] = 1e-6
    # A basis is orthonormal when its Gram matrix is this close to the identity.
    orthonormal_rel: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        for name in ("rank_rel", "psd_rel", "eq_rel"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"tolerance {name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        return {"rank_rel": self.rank_rel, "psd_rel": self.psd_rel, "eq_rel": self.eq_rel}


DEFAULT_TOL = Tolerances()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sym(arr: np.ndarray) -> np.ndarray:
    return (arr + arr.conj().T) / 2.0


def _top(w: np.ndarray):
    """Largest magnitude of ascending eigenvalues ``w`` along the last axis."""
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm, retaken over the largest entry if the squares could under- or overflow."""
    f = math.sqrt(np.vdot(x, x).real)
    if 1e-150 < f < 1e150:
        return f
    mod = np.abs(x)
    top = float(mod.max(initial=0.0))
    return top * math.sqrt(np.vdot(mod / top, mod / top)) if 0.0 < top < math.inf else top


def _within(value, kind: str, scale, tol: Tolerances = DEFAULT_TOL):
    """The one decision rule: whether ``value`` is at most ``tol.<kind> * scale``.

    ``kind`` names an attribute of ``Tolerances``: ``"psd_rel"`` for order
    (minus an eigenvalue), ``"rank_rel"`` for rank (a singular value),
    ``"eq_rel"`` for equality (a residual), or one of the five fixed
    thresholds.  ``scale`` is that of the problem the value came from: the
    largest spectral norm of its family and of any candidate or shift, or 1
    for a dimensionless value.  Real values compare elementwise; a complex
    array by its spectral norm, which is computed only when its Frobenius
    norm |x|_F, with |x|_F / sqrt(rank) <= |x| <= |x|_F, cannot decide.
    """
    bound = getattr(tol, kind) * scale
    if not (isinstance(value, np.ndarray) and value.dtype.kind == "c"):
        return value <= bound
    f = _frobenius(value)
    if f <= bound or f / math.sqrt(value.size // max(value.shape)) > bound:
        return f <= bound
    return float(np.linalg.norm(value, 2)) <= bound


class HermitianMatrix:
    """Dense complex Hermitian matrix, Hermitian by construction.

    The constructor symmetrizes its input via (A + A*)/2, so that
    ``mat[i, j] == conj(mat[j, i])`` holds exactly in floating point; sums,
    differences, negations and real multiples keep that identity exactly and
    are wrapped as they are.  The eigenvalues are computed once, and so are
    the eigenpairs (``spectral``), which no sum, negation or multiple inherits.
    """

    __slots__ = ("mat", "_eigvals", "_eigenpairs")

    def __init__(self, entries) -> None:
        self.mat = _freeze(_sym(_square(entries)))
        self._eigvals = self._eigenpairs = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def _spectrum(self) -> np.ndarray:
        if self._eigvals is None:
            self._eigvals = _freeze(np.linalg.eigvalsh(self.mat))
        return self._eigvals

    def norm(self) -> float:
        """Spectral norm, i.e. the largest eigenvalue magnitude."""
        return float(_top(self._spectrum()))

    def min_eigenvalue(self) -> float:
        return float(self._spectrum()[0])

    def _require_same_dim(self, other: "HermitianMatrix | MatrixSet") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._require_same_dim(other)
        return _hermitian(self.mat + other.mat)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._require_same_dim(other)
        return _hermitian(self.mat - other.mat)

    def __neg__(self) -> "HermitianMatrix":
        return _hermitian(-self.mat)

    def __mul__(self, scalar) -> "HermitianMatrix":
        if abs(complex(scalar).imag) > 0.0:
            raise ValueError("only real scalars preserve hermiticity")
        return _hermitian(float(np.real(scalar)) * self.mat)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def _square(entries) -> np.ndarray:
    """``entries`` as a complex array, checked to be a nonempty square matrix."""
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise NonSquare("matrix dimension must be at least 1")
    return arr


def _hermitian(mat: np.ndarray) -> HermitianMatrix:
    """Wrap an exactly Hermitian array as it is: no copy, no symmetrizing."""
    out = HermitianMatrix.__new__(HermitianMatrix)
    out.mat = _freeze(mat)
    out._eigvals = out._eigenpairs = None
    return out


def identity(n: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(n))


def zero(n: int) -> HermitianMatrix:
    return HermitianMatrix(np.zeros((n, n)))


def hermitize(raw, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Validate that ``raw`` is Hermitian within tolerance and wrap it.

    The Hermitian defect must satisfy ``|raw - raw*| <= eq_rel * |raw|`` in
    spectral norm; anything beyond that is rejected rather than silently
    symmetrized away.  So is a non-finite entry, or one whose sum or
    difference with its mirror entry overflows, since symmetrizing it would
    silently give inf or NaN, and a matrix whose spectral norm overflows.
    """
    arr = _square(raw)
    with np.errstate(over="ignore", invalid="ignore"):
        skew = arr - arr.conj().T
        total = arr + arr.conj().T
        bad = ~np.isfinite(total) | ~np.isfinite(skew)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValidationError(f"entry [{r}][{c}] is not finite or overflows with its mirror entry")
    # |raw|_F / sqrt(n) <= |raw|, which is computed only when that cannot decide
    low = _frobenius(arr) / math.sqrt(arr.shape[0])
    if not (math.isfinite(low) and _within(skew, "eq_rel", low, tol)):
        scale = float(np.linalg.norm(arr, 2))
        if not math.isfinite(scale):
            raise ValidationError("the spectral norm overflows")
        if not _within(skew, "eq_rel", scale, tol):
            raise NotHermitianWithinTolerance(
                f"Hermitian defect {np.linalg.norm(skew, 2):.3e} exceeds eq_rel times |raw| = {scale:.3e}"
            )
    return _hermitian(total / 2.0)


class MatrixSet:
    """Nonempty ordered family of Hermitian matrices of one dimension, held
    as one frozen ``(k, n, n)`` array ``stack`` whose slices are the members;
    one batched eigenvalue call serves every member's spectrum."""

    __slots__ = ("stack", "members", "_eigvals")

    def __init__(self, members: Iterable[HermitianMatrix]) -> None:
        tup = tuple(members)
        if not tup:
            raise ValidationError("a matrix set must contain at least one member")
        for i, member in enumerate(tup):
            if member.dim != tup[0].dim:
                raise DimensionMismatch(f"member {i} has dimension {member.dim}, expected {tup[0].dim}")
        self.stack = _freeze(np.stack([member.mat for member in tup]))
        self.members = tuple(_hermitian(mat) for mat in self.stack)
        self._eigvals = None

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, index: int) -> HermitianMatrix:
        return self.members[index]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of every member, one row per member."""
        if self._eigvals is None:
            self._eigvals = _freeze(np.linalg.eigvalsh(self.stack))
            for member, w in zip(self.members, self._eigvals):
                member._eigvals = w
        return self._eigvals

    def max_norm(self) -> float:
        return float(_top(self.eigenvalues()).max())

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[:, 0].min())

    def __repr__(self) -> str:
        return f"MatrixSet(size={len(self)}, dim={self.dim})"


def fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rephase each column so its largest-modulus entry is real positive.

    Ties in modulus are broken by the lowest row index (argmax convention),
    which makes eigenbases deterministic across runs.  Every nonzero column
    is multiplied by conj(p) / |p| for its pivot p in one step; zero columns
    are left as they are.
    """
    out = np.array(vectors, dtype=np.complex128)
    pivots = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    # np.hypot rounds |p| as abs() of one complex scalar does, which np.abs of an
    # array need not: the phases, and the outputs built on them, stay byte-stable
    moduli = np.hypot(pivots.real, pivots.imag)
    nonzero = moduli > 0.0
    out[:, nonzero] *= pivots[nonzero].conj() / moduli[nonzero]
    return out


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` with non-convergence reported as ConvergenceFailure."""
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def spectral(s: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Frozen (w, v) with s = v diag(w) v*, ``w`` ascending and ``v`` phase-fixed,
    computed once per matrix and kept on it, ``w`` as its eigenvalues too when none are kept."""
    if s._eigenpairs is None:
        w, v = _eigh(s.mat)
        s._eigenpairs = (_freeze(w), _freeze(fix_column_phases(v)))
        if s._eigvals is None:
            s._eigvals = s._eigenpairs[0]
    return s._eigenpairs


def _clear_of_cut(values: np.ndarray, tol: Tolerances, scale: float) -> bool:
    """Whether ``values``, eigenvalues or their moduli, all exceed ``rank_rel`` on ``scale`` by more than
    64 eps times the largest modulus, by which eigh's and eigvalsh's may differ: then both do."""
    return not _within(values.min() - tol.noise_rel * np.abs(values).max(), "rank_rel", scale, tol)


def _map_eigenvalues(s: HermitianMatrix, fn) -> HermitianMatrix:
    """V fn(w) V* for s = V diag(w) V*, carrying (fn(w), V) as its eigenpairs when fn(w) is ascending."""
    w, v = spectral(s)
    mapped = fn(w)
    out = HermitianMatrix((v * mapped) @ v.conj().T)
    if np.all(np.diff(mapped) >= 0.0):
        out._eigenpairs = (_freeze(mapped), v)
    return out


def sqrt_psd(s: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """PSD square root; within-tolerance negative eigenvalues are clamped to
    zero and anything more negative is rejected."""

    def root(w):
        if not _within(-w[0], "psd_rel", _top(w), tol):
            raise NotPositiveSemidefinite(f"sqrt_psd needs a PSD input; smallest eigenvalue is {w[0]:.3e}")
        return np.sqrt(np.maximum(w, 0.0))

    return _map_eigenvalues(s, root)


def matrix_abs(s: HermitianMatrix) -> HermitianMatrix:
    return _map_eigenvalues(s, np.abs)


def pinv(s: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Pseudo-inverse that zeroes eigenvalues within ``rank_rel`` of zero,
    on the scale of ``s``, before inverting, so numerically rank-deficient
    inputs do not blow up."""
    return _map_eigenvalues(s, lambda w: _inverse(w, tol, _top(w)))


def _inverse(w: np.ndarray, tol: Tolerances, scale) -> np.ndarray:
    """1 / w, with the eigenvalues within ``rank_rel`` of zero on ``scale`` sent to 0."""
    small = _within(np.abs(w), "rank_rel", scale, tol)
    return np.where(small, 0.0, 1.0 / np.where(small, 1.0, w))


def polar_abs(t: np.ndarray) -> np.ndarray:
    """|T| = (T* T)^(1/2) for an arbitrary square matrix, via the SVD."""
    arr = np.asarray(t, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {arr.shape}")
    _, sing, vh = np.linalg.svd(arr)
    v = vh.conj().T
    return (v * sing) @ v.conj().T


class Subspace:
    """Subspace of C^n held as an n x k matrix with orthonormal columns.

    ``k`` may be zero (the trivial subspace).  The constructor checks that a
    basis is orthonormal, to ``orthonormal_rel``; ``from_span`` orthonormalizes
    spanning columns, and bases orthonormal by construction skip the check.
    """

    __slots__ = ("basis",)

    def __init__(self, basis) -> None:
        arr = np.asarray(basis, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError("a basis must be a 2-d array of column vectors")
        n, k = arr.shape
        if n < 1 or k > n:
            raise ValueError(f"invalid basis shape {arr.shape}")
        if k and not _within(arr.conj().T @ arr - np.eye(k), "orthonormal_rel", 1.0):
            raise ValueError("basis columns are not orthonormal")
        self.basis = _freeze(np.array(arr))

    @classmethod
    def zero_subspace(cls, n: int) -> "Subspace":
        return _subspace(np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return _subspace(np.eye(n, dtype=np.complex128))

    @classmethod
    def from_span(cls, columns, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Orthonormal basis of the span of the given columns (rank-revealing)."""
        arr = np.asarray(columns, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[:, None]
        n, m = arr.shape
        if m == 0:
            return cls.zero_subspace(n)
        u, sing, _ = np.linalg.svd(arr, full_matrices=False)
        return _subspace(np.array(u[:, ~_within(sing, "rank_rel", sing[0], tol)]))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        """Orthogonal complement, derived deterministically from the basis."""
        n, k = self.basis.shape
        if k == 0:
            return Subspace.full(n)
        if k == n:
            return Subspace.zero_subspace(n)
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return _subspace(np.array(u[:, k:]))

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim})"


def _subspace(basis: np.ndarray) -> Subspace:
    """Wrap a basis orthonormal by construction as it is: no Gram check."""
    out = Subspace.__new__(Subspace)
    out.basis = _freeze(basis)
    return out


class RangeNullspace(NamedTuple):
    range: Subspace
    nullspace: Subspace
    gap: float = math.inf  # the least kept |eigenvalue| less the largest cut one; infinite if either is absent


def _common_range(splits: Sequence[RangeNullspace], tol: Tolerances) -> RangeNullspace:
    """K, the intersection of the splits' ranges, as the complement of the span of their null
    spaces side by side: ``from_span``'s cut on the singular values of the stacked orthonormal
    bases, the sin(theta) rule ``certify_maximal``'s span is decided by.  Its gap, which the corner
    rule reads, is the least of the splits' gaps."""
    null = Subspace.from_span(np.hstack([split.nullspace.basis for split in splits]), tol)
    return RangeNullspace(null.complement(), null, min(split.gap for split in splits))


def subspace_intersect(subspaces: Sequence[Subspace], tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection of the given subspaces, by ``_common_range`` on each subspace and its
    complement: two lines at an angle above about 2 rank_rel meet only at 0."""
    if not subspaces:
        raise AmbientMismatch("need at least one subspace")
    for s in subspaces[1:]:
        if s.ambient_dim != subspaces[0].ambient_dim:
            raise AmbientMismatch(f"ambient dimensions differ: {s.ambient_dim} vs {subspaces[0].ambient_dim}")
    return _common_range([RangeNullspace(s, s.complement()) for s in subspaces], tol).range


def range_nullspace(s: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> RangeNullspace:
    """``_range_null`` of a lone matrix, on its own norm; a member of a pair or family,
    or a matrix built from one, is split on that problem's scale instead.  The range
    basis of an invertible matrix is the identity."""
    return _range_null(s, tol, None)


def _range_null(s: HermitianMatrix, tol: Tolerances, scale: float | None) -> RangeNullspace:
    """Orthonormal bases of range and null space from the eigendecomposition:
    eigenvalues within ``rank_rel`` of zero on ``scale``, or when it is None on
    |s| read off the same ``eigh``, count as zero.  The two bases partition the
    eigenvector basis, so their dimensions sum to n exactly.  When the cached eigenvalues, or one
    eigvalsh, all clear the cut (``_clear_of_cut``), it is (C^n, {0}) with no ``eigh``.  A lone
    split (``scale`` None) with nothing cached takes the ``eigh`` at once and tests its
    eigenvalues: the lone callers split matrices singular by construction, which need it anyway."""
    if s._eigenpairs is None and (scale is not None or s._eigvals is not None):
        known = s._spectrum()
    else:
        known = spectral(s)[0]
    if _clear_of_cut(np.abs(known), tol, _top(known) if scale is None else scale):
        return RangeNullspace(Subspace.full(s.dim), Subspace.zero_subspace(s.dim))
    w, v = spectral(s)
    mod = np.abs(w)
    mask = ~_within(mod, "rank_rel", _top(w) if scale is None else scale, tol)
    gap = mod[mask].min(initial=math.inf) - mod[~mask].max(initial=-math.inf)
    return RangeNullspace(_subspace(np.array(v[:, mask])), _subspace(np.array(v[:, ~mask])), gap)


class Comparability(enum.Enum):
    LESS_EQUAL = "S<=T"
    GREATER_EQUAL = "T<=S"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


_VERDICTS = {(True, True): Comparability.EQUAL, (True, False): Comparability.LESS_EQUAL,
             (False, True): Comparability.GREATER_EQUAL, (False, False): Comparability.INCOMPARABLE}


def compare(s: HermitianMatrix, t: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> Comparability:
    """Two-sided Loewner comparison of ``s`` and ``t``.

    ``s <= t`` holds when the smallest eigenvalue of ``t - s`` is no less
    than ``-psd_rel * max(|s|, |t|)``; the reverse direction mirrors that,
    and both together mean equality at tolerance.
    """
    s._require_same_dim(t)
    w = np.linalg.eigvalsh(t.mat - s.mat)
    return _verdict(w, _deciding_scale(lambda scale: _verdict(w, scale, tol), (s, t)), tol)


def _deciding_scale(decide, hermitians, floor: float = 0.0) -> float:
    """max(``floor``, the spectral norms of ``hermitians``), or a scale on which
    ``decide``, monotone in the scale, answers the same.  Since |x|_F / sqrt(n)
    <= |x| <= |x|_F, ``decide`` is taken at both ends of that bracket first,
    and the norms, one eigvalsh each unless cached, only if the two differ."""
    upper = max(_frobenius(h.mat) for h in hermitians)
    high = max(upper, floor)
    if decide(high) == decide(max(upper / math.sqrt(hermitians[0].dim), floor)):
        return high
    return max(floor, *(h.norm() for h in hermitians))


def _verdict(w: np.ndarray, scale: float, tol: Tolerances) -> Comparability:
    """``compare`` from the ascending spectrum ``w`` of t - s, decided on ``scale``."""
    return _VERDICTS[bool(_within(-w[0], "psd_rel", scale, tol)), bool(_within(w[-1], "psd_rel", scale, tol))]


def loewner_leq(s: HermitianMatrix, t: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    return compare(s, t, tol) in (Comparability.LESS_EQUAL, Comparability.EQUAL)


def is_psd(s: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """0 <= s, decided on the cached eigenvalues of ``s`` and on its norm."""
    return bool(_within(-s.min_eigenvalue(), "psd_rel", s.norm(), tol))


def _require_psd_members(lowest: np.ndarray, scale: float, tol: Tolerances) -> None:
    """Raise NotPositiveSemidefinite naming the first member that is not PSD on
    ``scale``, from the members' smallest eigenvalues ``lowest``."""
    bad = np.flatnonzero(~_within(-np.asarray(lowest), "psd_rel", scale, tol))
    if bad.size:
        raise NotPositiveSemidefinite(f"member {bad[0]} is not positive semidefinite")
