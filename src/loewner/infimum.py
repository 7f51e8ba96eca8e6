"""Infima of finite sets, greatest lower bounds under commutation, the
positive maximal lower bound recursion, maximal extensions, distinct
maximal lower bounds, and greatest positive lower bounds of families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _below_every_member, certify_maximal, mlb_mt
from .errors import (
    ConsistencyError,
    DistinctnessFailure,
    InfimumExists,
    NotCommutingFamily,
    NotLowerBound,
    SchurRangeViolation,
    UsageError,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    MatrixSet,
    Subspace,
    Tolerances,
    _eigh,
    _require_psd_members,
    _scale_free,
    _sym,
    _top,
    _within,
    fix_column_phases,
    identity,
    matrix_abs,
)
from .parallel import _ando_limit, _parallel_sum
from .schur import _corner
from .sampling import random_invertible, random_psd

__all__ = [
    "InfimumReport",
    "finite_infimum",
    "pairwise_commuting",
    "simultaneous_eigenbasis",
    "commuting_glb",
    "commuting_glb_two_routes",
    "commutant_basis",
    "positive_maximal_lb",
    "extend_to_maximal",
    "distinct_maximals",
    "PositiveGlbReport",
    "positive_glb_family",
]


@dataclass(frozen=True)
class InfimumReport:
    """Existence analysis for the infimum of a finite set.

    Two Hermitian matrices have an infimum only when they are comparable, so
    a finite set has one exactly when some member is below every other
    member; that member is the infimum.
    """

    exists: bool
    infimum: HermitianMatrix | None
    minimizing_index: int | None


@_scale_free
def finite_infimum(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> InfimumReport:
    """Scan for a member below all others; first such member wins."""
    return _finite_infimum(mset, tol, mset.max_norm())


def _finite_infimum(mset: MatrixSet, tol: Tolerances, scale: float) -> InfimumReport:
    """``finite_infimum`` on the scale of the problem the family came from."""
    # A_j - A_i >= -e I, e = psd_rel * scale, bounds each diagonal entry of
    # A_j - A_i below by -e, so only members whose diagonal is within e of
    # the family's least diagonal, widened by a rounding slack on a Frobenius
    # bound, can be the infimum
    diagonals = np.real(np.diagonal(mset.stack, axis1=1, axis2=2))
    slack = 2.0 * mset.dim**2 * tol.noise_rel * float(np.abs(mset.stack).max())
    ceiling = diagonals.min(axis=0) + (tol.psd_rel * scale + slack)
    for i in np.flatnonzero(~(diagonals > ceiling).any(axis=1)):
        # gaps in index order, in batches doubling from one: an early refutation stays cheap
        stop = 0
        while stop < len(mset):
            w = np.linalg.eigvalsh(mset.stack[stop:2 * stop + 1] - mset.stack[i])
            if not _within(-w[:, 0].min(), "psd_rel", scale, tol):
                break
            stop = 2 * stop + 1
        else:
            return InfimumReport(True, mset[i], int(i))
    return InfimumReport(False, None, None)


@_scale_free
def pairwise_commuting(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when every pair of members commutes within tolerance."""
    try:
        _check_commuting(mset, tol)
    except NotCommutingFamily:
        return False
    return True


def _check_commuting(mset: MatrixSet, tol: Tolerances) -> None:
    # commutators of the members over their norms are dimensionless and cannot overflow;
    # dividing the real view keeps a subnormal norm from overflowing a complex division
    norms = _top(mset.eigenvalues())
    unit = (mset.stack.view(np.float64) / np.where(norms > 0.0, norms, 1.0)[:, None, None]).view(np.complex128)
    for i in range(len(mset)):
        for j in range(i + 1, len(mset)):
            commutator = unit[i] @ unit[j] - unit[j] @ unit[i]
            if not _within(commutator, "eq_rel", 1.0, tol):
                raise NotCommutingFamily(
                    f"members {i} and {j} do not commute (relative commutator norm {np.linalg.norm(commutator, 2):.3e})"
                )


@_scale_free
def simultaneous_eigenbasis(mset: MatrixSet) -> np.ndarray:
    """Common unitary eigenbasis of a pairwise commuting family.

    Starts from the whole space as one cluster and refines member by member:
    each member is diagonalized inside the current clusters, and a cluster
    splits wherever consecutive eigenvalues jump by more than the clustering
    width.
    """
    n = mset.dim
    basis = np.eye(n, dtype=np.complex128)
    clusters: list[list[int]] = [list(range(n))]
    scale = mset.max_norm()
    for member in mset:
        refined: list[list[int]] = []
        for idx in clusters:
            if len(idx) == 1:
                refined.append(idx)
                continue
            cols = basis[:, idx]
            w, v = np.linalg.eigh(_sym(cols.conj().T @ member.mat @ cols))
            basis[:, idx] = cols @ v
            refined.extend(idx[a:b] for a, b in _cluster_bounds(w, scale))
        clusters = refined
    return fix_column_phases(basis)


def _cluster_bounds(w: np.ndarray, scale: float) -> list[tuple[int, int]]:
    """(start, stop) of the runs of ascending ``w`` whose consecutive gaps
    stay within the clustering width on ``scale``."""
    edges = [0, *(np.flatnonzero(~_within(np.diff(w), "cluster_rel", scale)) + 1).tolist(), len(w)]
    return list(zip(edges[:-1], edges[1:]))


@_scale_free
def commuting_glb_two_routes(
    mset: MatrixSet, tol: Tolerances = DEFAULT_TOL
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Both routes to the commuting greatest lower bound, without the
    agreement assertion: the pairwise fold M <- (M + A - |M - A|)/2 and the
    entrywise diagonal minimum in a joint eigenbasis."""
    _check_commuting(mset, tol)
    folded = mset[0]
    for member in mset.members[1:]:
        folded = 0.5 * (folded + member - matrix_abs(folded - member))
    basis = simultaneous_eigenbasis(mset)
    joint = HermitianMatrix((basis * _joint_diagonals(mset, basis).min(axis=0)) @ basis.conj().T)
    return folded, joint


def _joint_diagonals(mset: MatrixSet, basis: np.ndarray) -> np.ndarray:
    """Real diagonals of every member in ``basis``, one row per member."""
    return np.real(np.diagonal(basis.conj().T @ mset.stack @ basis, axis1=1, axis2=2))


@_scale_free
def commuting_glb(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Greatest lower bound among matrices commuting with every member.

    For a pairwise commuting family the bound is simultaneously
    diagonalizable with the members and carries the entrywise minimum of
    their joint diagonals.  The pairwise fold and the joint-diagonal routes
    are both evaluated and must agree; the fold is returned.
    """
    folded, joint = commuting_glb_two_routes(mset, tol)
    scale = mset.max_norm()
    if not _within((folded - joint).mat, "two_route_rel", scale):
        raise ConsistencyError(
            f"pairwise fold and joint diagonalization disagree by {(folded - joint).norm() / scale:.3e}"
            " of the family scale"
        )
    return folded


# Fixed weights of the combination whose eigenspaces carry the commutant:
# one plus the fractional parts of multiples of the golden ratio.  They are
# pairwise incommensurate, so the combination generically separates the
# joint eigenspaces of a commuting family; an accidental merge only enlarges
# a block.
_GOLDEN_FRACTION = 0.6180339887498949


@_scale_free
def commutant_basis(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of the algebra of matrices commuting with every member.

    Any such X commutes with C = sum_i t_i A_i, so it maps each eigenspace
    of C into itself: in C's eigenbasis X is block-diagonal over C's
    eigenvalue clusters.  Only those blocks are solved for, as one stacked
    system A_i X - X A_i = 0 over sum_j m_j^2 unknowns instead of n^2;
    clusters merged within the clustering width only enlarge the blocks,
    so no element is lost.  Singular values count as zero below
    ``rank_rel`` times sqrt(sum_i (lambda_max(A_i) - lambda_min(A_i))^2),
    an upper bound on the largest singular value of the full commutator
    operator that is within a factor sqrt(k) of it, and never below the
    rounding noise of the largest member norm, so that a family scalar only
    up to rounding keeps its full commutant.  The elements are
    orthonormal in the Frobenius inner product; the identity is always in
    their span, so there is at least one.
    """
    n = mset.dim
    spectra = mset.eigenvalues()
    weights = 1.0 + (np.arange(len(mset)) * _GOLDEN_FRACTION) % 1.0
    w, v = _eigh(sum(t * member.mat for t, member in zip(weights, mset)))
    norms = _top(spectra)
    # (row, column) of every unknown entry of the diagonal blocks
    pairs = [np.mgrid[a:b, a:b].reshape(2, -1) for a, b in _cluster_bounds(w, weights @ norms)]
    r, c = np.hstack(pairs)
    j = np.arange(r.size)
    # each member's block folds into one R factor, which has the stacked
    # system's singular values and right vectors in O(n^2 m) memory
    factor = np.zeros((0, r.size), dtype=np.complex128)
    for member in mset:
        b = v.conj().T @ member.mat @ v
        # column j holds B E - E B for the matrix unit E at (r[j], c[j])
        op = np.zeros((n, n, r.size), dtype=np.complex128)
        op[:, c, j] = b[:, r]
        op[r, :, j] -= b[c, :]
        factor = np.linalg.qr(np.vstack([factor, op.reshape(-1, r.size)]), mode="r")
    _, sing, vh = np.linalg.svd(factor)
    bound = float(np.sqrt(np.sum((spectra[:, -1] - spectra[:, 0]) ** 2)))
    zero = _within(sing, "rank_rel", bound, tol) | _within(sing, "noise_rel", norms.max())
    null = vh[int(np.sum(~zero)):].conj()
    blocks = np.zeros((null.shape[0], n, n), dtype=np.complex128)
    blocks[:, r, c] = null
    return list(v @ blocks @ v.conj().T)


@_scale_free
def positive_maximal_lb(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Positive maximal lower bound of a finite family of PSD matrices.

    One split per level, iteratively: shift the family so its smallest
    member eigenvalue is zero, split off the eigenvector attaining it, take
    generalized Schur complements of the shifted members over that line,
    and repeat on the quotient family down to dimension one.  The split
    lines u_1, ..., u_n are orthonormal in the ambient space, and the bound
    is U diag(cumsum gamma) U*.  The output is PSD, a lower bound, and
    certified maximal.
    """
    _require_psd_members(mset.eigenvalues()[:, 0], mset.max_norm(), tol)
    return _positive_mlb(mset.stack, mset.eigenvalues(), tol)


def _positive_mlb(a: np.ndarray, w: np.ndarray, tol: Tolerances) -> HermitianMatrix:
    # ``a`` holds the members on the span of ``frame``.  A level shifts them
    # by gamma, takes the line u from the minimizing member and replaces each
    # shifted member A' by A' - yy*/alpha (y = A'u, alpha = u*A'u), which is
    # zero on u; the reflector H = I - tau vv* taking u to the first axis
    # carries that to u's complement as a trailing block, at O(m^2) each.
    n = a.shape[1]
    scale = float(_top(w).max())
    frame = np.eye(n, dtype=np.complex128)
    lines, gammas = np.empty((n, n), dtype=np.complex128), np.empty(n)
    for level in range(n - 1):
        w = np.linalg.eigvalsh(a) if level else w
        k = int(np.argmin(w[:, 0]))
        gammas[level] = gamma = w[k, 0]
        u = _eigh(a[k])[1][:, 0]
        shifted = a - gamma * np.eye(len(u))
        y = shifted @ u
        alpha = (y @ u.conj()).real
        pivot = u[0] / abs(u[0]) if u[0] else 1.0
        v, tau = np.concatenate([[u[0] + pivot], u[1:]]), 1.0 / (1.0 + abs(u[0]))
        b = y[:, 1:] - tau * (y @ v.conj())[:, None] * v[1:]
        coupling = np.linalg.norm(b, axis=1)
        # every member's corner alpha on the given line u, and its coupling b, by schur._corner at its shifted top
        inverse, fails = _corner(alpha[:, None], coupling[:, None], (w[:, -1] - gamma)[:, None], scale, tol)
        bad = np.flatnonzero(fails)
        if bad.size:
            i = bad[0]
            raise SchurRangeViolation(
                f"splitting at the minimizing eigenvector broke down: member {i}: coupling block leaves"
                f" the range of the corner block (residual {coupling[i] / scale:.3e} of the family scale)"
            )
        # H A' H = A' - (vq* + qv*) with p = A'v = y + pivot A'e1; adding the
        # conjugate transpose keeps the new members exactly Hermitian
        p = y + pivot * shifted[:, :, 0]
        q = tau * p - (0.5 * tau * tau) * (p @ v.conj()).real[:, None] * v
        half = v[1:, None] * q[:, None, 1:].conj()
        half += 0.5 * inverse[:, :, None] * b[:, :, None] * b[:, None, :].conj()
        a = shifted[:, 1:, 1:] - (half + np.conj(np.swapaxes(half, 1, 2)))
        lines[:, level] = frame @ u
        frame = frame[:, 1:] - tau * (frame @ v)[:, None] * v[1:].conj()
    lines[:, -1] = frame[:, 0]
    gammas[-1] = a[:, 0, 0].real.min()
    return HermitianMatrix((lines * np.cumsum(gammas)) @ lines.conj().T)


@_scale_free
def extend_to_maximal(l: HermitianMatrix, mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Extend a lower bound to a maximal one above it.

    Shifting the family by L reduces the problem to the positive maximal
    lower bound of the shifted family; adding L back gives a maximal lower
    bound dominating L.  A maximal L is its own extension.
    """
    l._require_same_dim(mset)
    gaps = mset.stack - l.mat
    # the lower-bound verdict and the first level share the gaps' spectrum
    w = np.linalg.eigvalsh(gaps)
    if not _below_every_member(w, l, mset, tol):
        raise NotLowerBound("the given matrix is not a lower bound of the set")
    return l + _positive_mlb(gaps, w, tol)


_MAX_ROUTE_TRIES = 24


@_scale_free
def distinct_maximals(
    mset: MatrixSet,
    count: int,
    tol: Tolerances = DEFAULT_TOL,
    seed: int | tuple[int, ...] = 0,
) -> list[HermitianMatrix]:
    """``count`` pairwise distinct certified maximal lower bounds.

    Requires a set without an infimum (otherwise the infimum is the only
    maximal lower bound).  The first bound comes from the explicit pair
    formula or a maximal extension; the second from a randomized route
    (random congruence transform, or a jittered starting bound); later ones
    extend convex combinations of earlier bounds, which always lands on a
    fresh maximal element.
    """
    if count < 2:
        raise UsageError("count must be at least 2")
    if finite_infimum(mset, tol).exists:
        raise InfimumExists("the set has an infimum; it is the only maximal lower bound")
    seed_key = [int(s) for s in (seed if isinstance(seed, tuple) else (seed,))]
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    n = mset.dim
    scale = mset.max_norm()
    floor = mset.min_eigenvalue() * identity(n)

    def certified(candidate: HermitianMatrix) -> HermitianMatrix:
        cert = certify_maximal(candidate, mset, tol)
        if not cert.is_maximal:
            raise ConsistencyError("a constructed bound failed its maximality certificate")
        return candidate

    def separated(candidate: HermitianMatrix, chosen: list[HermitianMatrix]) -> bool:
        gaps = [(candidate - other).mat for other in chosen]
        return not any(_within(gap, "eq_rel", scale, tol) or _within(gap, "distinct_rel", scale) for gap in gaps)

    def routes():
        # the second bound: a random congruence transform of the pair formula, or a jittered floor
        for _ in range(_MAX_ROUTE_TRIES):
            if len(mset) == 2:
                yield mlb_mt(mset[0], mset[1], random_invertible(rng, n), tol)
            else:
                jitter = random_psd(rng, n)
                yield extend_to_maximal(floor - (0.25 * scale / jitter.norm()) * jitter, mset, tol)

    def blends():
        # each later bound: extensions of blends of the first and the last, their weights drawn up front
        thetas = [0.5] + [float(rng.uniform(0.25, 0.75)) for _ in range(_MAX_ROUTE_TRIES)]
        return (extend_to_maximal(HermitianMatrix(t * out[0].mat + (1.0 - t) * out[-1].mat), mset, tol) for t in thetas)

    if len(mset) == 2:
        first = mlb_mt(mset[0], mset[1], np.eye(n), tol)
    else:
        first = extend_to_maximal(floor, mset, tol)
    out = [certified(first)]
    while len(out) < count:
        found = next((c for c in (routes() if len(out) == 1 else blends()) if separated(c, out)), None)
        if found is None:
            raise DistinctnessFailure(f"could not separate bound {len(out) + 1} from the earlier ones")
        out.append(certified(found))
    return out


@dataclass(frozen=True)
class PositiveGlbReport:
    """Greatest positive lower bound analysis for a finite PSD family.

    ``k_subspace`` is the intersection K of the members' ranges, decided once
    from the members' own range/null splits by ``_common_range``, and
    ``s_parallel`` the parallel sum S, built on K, so K is S's range up to
    the rounding of K's basis, not read off S's eigenvectors.  ``tilde_set`` holds [S]A,
    A shorted to K, per member A; the greatest positive lower bound exists
    exactly when that set has an infimum, and then equals it.
    """

    k_subspace: Subspace
    s_parallel: HermitianMatrix
    tilde_set: MatrixSet
    exists: bool
    glb: HermitianMatrix | None
    minimizing_index: int | None


@_scale_free
def positive_glb_family(mset: MatrixSet, tol: Tolerances = DEFAULT_TOL) -> PositiveGlbReport:
    """Existence and value of the greatest positive lower bound of a family."""
    # [S]A depends on S only through its range K, so every [S]A is built on the K S is built on;
    # they and their infimum, one of them, are decided on the family's scale, as the member splits are
    s, k = _parallel_sum(mset, tol)
    scale = mset.max_norm()
    tilde = MatrixSet(_ando_limit(k, member, tol, scale) for member in mset)
    report = _finite_infimum(tilde, tol, scale)
    return PositiveGlbReport(k.range, s, tilde, report.exists, report.infimum, report.minimizing_index)
