"""Shared helpers for the test suite."""

import numpy as np

from loewner import DEFAULT_TOL, HermitianMatrix


def herm(entries) -> HermitianMatrix:
    return HermitianMatrix(np.asarray(entries, dtype=np.complex128))


def assert_matrix_close(actual, expected, atol=1e-12):
    a = actual.mat if isinstance(actual, HermitianMatrix) else np.asarray(actual)
    e = expected.mat if isinstance(expected, HermitianMatrix) else np.asarray(expected)
    np.testing.assert_allclose(a, e, rtol=0.0, atol=atol)


def contains_vector(subspace, v, tol=DEFAULT_TOL) -> bool:
    """True when ``v`` lies in ``subspace`` within ``eq_rel``."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    residual = vec - subspace.projector() @ vec
    return float(np.linalg.norm(residual)) <= tol.eq_rel * (1.0 + float(np.linalg.norm(vec)))


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
    as ``ensembles._no_dominating_perturbation``."""
    n = m.dim
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    p = np.einsum("kij,klj->kil", g, g.conj())
    p = (p + np.conj(np.swapaxes(p, 1, 2))) / 2.0
    norms = np.abs(np.linalg.eigvalsh(p)).max(axis=1)
    norms = np.where(norms > 0.0, norms, 1.0)
    steps = np.array([(1e-3, 1e-2, 1e-1)[k % 3] for k in range(count)])
    candidates = m.mat[None, :, :] + (steps / norms)[:, None, None] * p
    alive = np.ones(count, dtype=bool)
    for member in mset:
        index = np.flatnonzero(alive)
        if index.size == 0:
            break
        w = np.linalg.eigvalsh(member.mat[None, :, :] - candidates[index])
        margin = tol.psd_rel * (1.0 + np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])))
        alive[index] = w[:, 0] >= -margin
    return not bool(alive.any())
