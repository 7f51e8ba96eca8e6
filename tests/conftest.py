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
