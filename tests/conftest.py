"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import settings

from loewner import (
    DEFAULT_TOL,
    HermitianMatrix,
    MatrixSet,
    MaximalityCertificate,
    Subspace,
    identity,
    is_lower_bound,
    range_nullspace,
    spectral,
    sqrt_psd,
    subspace_intersect,
)
from loewner.errors import SchurRangeViolation
from loewner.linalg import _inverse, _within, fix_column_phases
from loewner.schur import _blocks, _corner_analysis

# Property tests draw the same bounded examples on every run and keep no
# example database, so the suite is reproducible and writes nothing.
settings.register_profile("loewner", derandomize=True, deadline=None, database=None, max_examples=15)
settings.load_profile("loewner")


def herm(entries) -> HermitianMatrix:
    return HermitianMatrix(np.asarray(entries, dtype=np.complex128))


def assert_matrix_close(actual, expected, atol=1e-12):
    a = actual.mat if isinstance(actual, HermitianMatrix) else np.asarray(actual)
    e = expected.mat if isinstance(expected, HermitianMatrix) else np.asarray(expected)
    np.testing.assert_allclose(a, e, rtol=0.0, atol=atol)


def record_calls(monkeypatch, owner, *names) -> dict:
    """Patch each named callable of ``owner`` to record the first argument of
    every call; returns name -> list of those arguments."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapped(arg, *args, _fn=getattr(owner, name), _log=calls[name], **kwargs):
            _log.append(arg)
            return _fn(arg, *args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)
    return calls


def is_psd_on(m, scale, tol=DEFAULT_TOL) -> bool:
    """0 <= m decided on ``scale``, that of the problem m came from, as the
    package decides derived matrices; ``is_psd`` decides on m's own norm."""
    return bool(_within(-m.min_eigenvalue(), "psd_rel", scale, tol))


def contains_vector(subspace, v, tol=DEFAULT_TOL) -> bool:
    """True when ``v`` lies in ``subspace`` within ``eq_rel`` of its length."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    residual = vec - subspace.projector() @ vec
    return float(np.linalg.norm(residual)) <= tol.eq_rel * float(np.linalg.norm(vec))


def commutant_kron(mset, tol=DEFAULT_TOL) -> list:
    """Reference commutant for small n: the null space of the stacked
    Kronecker system A X - X A = 0 on row-major vectorized X, with the rank
    cut relative to the system's largest singular value."""
    n = mset.dim
    eye = np.eye(n)
    system = np.vstack([np.kron(m.mat, eye) - np.kron(eye, m.mat.T) for m in mset])
    _, sing, vh = np.linalg.svd(system)
    cut = tol.rank_rel * (float(sing[0]) if sing.size and sing[0] > 0 else 1.0)
    null = vh[int(np.sum(sing > cut)):].conj().T
    return [null[:, j].reshape(n, n) for j in range(null.shape[1])]


def no_dominating_perturbation_exact(m, mset, rng, count, tol=DEFAULT_TOL) -> bool:
    """Reference perturbation sweep: every candidate m + s P is built and
    decided by batched eigenvalues, with the same draws, steps and margins
    as ``ensembles._no_dominating_perturbation``: each step a multiple of
    max(|A|, |m|)."""
    n = m.dim
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    p = np.einsum("kij,klj->kil", g, g.conj())
    p = (p + np.conj(np.swapaxes(p, 1, 2))) / 2.0
    norms = np.abs(np.linalg.eigvalsh(p)).max(axis=1)
    norms = np.where(norms > 0.0, norms, 1.0)
    scale = max(mset.max_norm(), m.norm())
    steps = scale * np.array([(1e-3, 1e-2, 1e-1)[k % 3] for k in range(count)])
    candidates = m.mat[None, :, :] + (steps / norms)[:, None, None] * p
    alive = np.ones(count, dtype=bool)
    for member in mset:
        index = np.flatnonzero(alive)
        if index.size == 0:
            break
        w = np.linalg.eigvalsh(member.mat[None, :, :] - candidates[index])
        alive[index] = w[:, 0] >= -tol.psd_rel * scale
    return not bool(alive.any())


def finite_infimum_reference(mset, tol=DEFAULT_TOL, scale=None) -> tuple:
    """Reference infimum scan: (exists, index) of the first member whose gap
    to every member, one ``eigvalsh`` each, is PSD on ``scale`` (by default
    the family's)."""
    scale = mset.max_norm() if scale is None else scale
    for i, candidate in enumerate(mset):
        if all(_within(-np.linalg.eigvalsh(m.mat - candidate.mat)[0], "psd_rel", scale, tol) for m in mset):
            return True, i
    return False, None


def positive_mlb_reference(mset, tol=DEFAULT_TOL) -> HermitianMatrix:
    """Reference positive-mlb recursion: per level a stacked ``eigh``, the
    phase-fixed minimizing line as a ``Subspace``, each shifted member's
    generalized Schur complement over it on an SVD-built complement, and a
    lift that rebuilds every level's rotation."""
    levels, scale = [], mset.max_norm()
    while True:
        w, v = np.linalg.eigh(mset.stack)
        k = int(np.argmin(w[:, 0]))
        gamma = float(w[k, 0])
        if mset.dim == 1:
            break
        shifted = MatrixSet(member - gamma * identity(mset.dim) for member in mset)
        line = Subspace(fix_column_phases(v[k, :, :1]))
        h2 = line.complement()
        complements = []
        for i, member in enumerate(shifted):
            blocks = _blocks(member, line, h2)
            inside, residual, complement = _corner_analysis(blocks, tol, float(w[i, -1]) - gamma, scale)
            if not inside:
                raise SchurRangeViolation(
                    "splitting at the minimizing eigenvector broke down: member "
                    f"{i}: coupling block leaves the range of the corner block "
                    f"(residual {np.linalg.norm(residual, 2):.3e})"
                )
            complements.append(complement)
        mset = MatrixSet(complements)
        levels.append((line, gamma))
    bound = HermitianMatrix([[gamma]])
    for line, gamma in reversed(levels):
        n = line.ambient_dim
        rotation = np.hstack([line.basis, line.complement().basis])
        lifted = np.zeros((n, n), dtype=np.complex128)
        lifted[1:, 1:] = bound.mat
        bound = HermitianMatrix(rotation @ lifted @ rotation.conj().T + gamma * np.eye(n))
    return bound


def fix_column_phases_reference(vectors) -> np.ndarray:
    """Reference phase fix, one column at a time: each column times
    conj(p) / |p| for its first largest-modulus entry p, zero columns kept."""
    out = np.array(vectors, dtype=np.complex128)
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 0.0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def certify_maximal_reference(m, mset, tol=DEFAULT_TOL) -> MaximalityCertificate:
    """Reference certificate: a phase-fixed eigendecomposition per gap A - M,
    cut at ``rank_rel`` times the family scale, for both the null-space
    spanning and the range intersection tests, which must agree; then
    ``is_lower_bound``."""
    cut = tol.rank_rel * max(m.norm(), mset.max_norm())
    nulls, ranges = [], []
    for member in mset:
        w, v = spectral(member - m)
        keep = np.abs(w) > cut
        nulls.append(v[:, ~keep])
        ranges.append(Subspace(v[:, keep]))
    span = Subspace.from_span(np.hstack(nulls), tol)
    meet = subspace_intersect(ranges, tol)
    spanning = span.dim == m.dim
    assert spanning == (meet.dim == 0)
    lower = is_lower_bound(m, mset, tol)
    return MaximalityCertificate(
        per_member_nullspace_dims=tuple(null.shape[1] for null in nulls),
        span_dim=span.dim,
        is_lower_bound=lower,
        is_maximal=lower and spanning,
    )


def ando_limit_reference(a, b, tol=DEFAULT_TOL) -> HermitianMatrix:
    """Reference [a]b by the square-root route: ``b^(1/2) P b^(1/2)``, with P
    the projector onto the vectors whose image under ``b^(1/2)`` lies in the
    range of ``a``, the residual map's rank cut at ``rank_rel`` times
    sqrt(|b|).  The square root amplifies b's rounding noise, so the route
    is accurate only on well-conditioned pairs; at condition 1e7 and beyond
    it can be off by the whole of b."""
    broot = sqrt_psd(b, tol).mat
    residual_map = broot - range_nullspace(a, tol).range.projector() @ broot
    _, sing, vh = np.linalg.svd(residual_map)
    rank = int(np.sum(sing > tol.rank_rel * np.sqrt(b.norm())))
    v = Subspace(vh[rank:].conj().T)
    return HermitianMatrix(broot @ v.projector() @ broot)


def _rebuilt(mat, fn) -> HermitianMatrix:
    """V fn(w) V* from a fresh phase-fixed ``eigh`` of ``mat``."""
    w, v = np.linalg.eigh(mat)
    v = fix_column_phases(v)
    return HermitianMatrix((v * fn(w)) @ v.conj().T)


def parallel_sum_family_reference(mset, tol=DEFAULT_TOL) -> tuple:
    """Reference fold: (S, kept) with every partial sum's product decomposed by
    a fresh ``eigh`` and rebuilt with its eigenvalues at most ``rank_rel`` on
    the family scale set to zero, ``kept`` the count not set to zero in the
    last product (a singleton's own count above the cut)."""
    scale = mset.max_norm()
    result = mset[0]
    kept = int(np.sum(~_within(np.abs(mset.eigenvalues()[0]), "rank_rel", scale, tol)))
    for member in mset.members[1:]:
        inverse = _rebuilt((result + member).mat, lambda w: _inverse(w, tol, scale))
        product = HermitianMatrix(result.mat @ inverse.mat @ member.mat)
        kept = int(np.sum(~_within(np.linalg.eigh(product.mat)[0], "rank_rel", scale, tol)))
        result = _rebuilt(product.mat, lambda w: np.where(_within(w, "rank_rel", scale, tol), 0.0, w))
    return result, kept
