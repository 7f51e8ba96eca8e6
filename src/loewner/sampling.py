"""Seeded random instance generators shared by the ensembles and the tests.

Every generator takes an explicit ``numpy.random.Generator`` so that trials
are reproducible; ``trial_rng`` derives an independent stream per trial
index, identical whether trials run serially or not.
"""

from __future__ import annotations

import numpy as np

from .linalg import Comparability, HermitianMatrix, MatrixSet, compare

__all__ = [
    "trial_rng",
    "random_hermitian",
    "random_psd",
    "random_unitary",
    "random_projection",
    "random_contraction",
    "random_invertible",
    "random_commuting_family",
    "random_incomparable_pair",
]


def trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, n: int) -> HermitianMatrix:
    return HermitianMatrix(_complex_gaussian(rng, (n, n)))


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> HermitianMatrix:
    """Gram matrix of an n x rank complex Gaussian; full rank by default."""
    r = n if rank is None else rank
    if not 0 <= r <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {r}")
    g = _complex_gaussian(rng, (n, r))
    return HermitianMatrix(g @ g.conj().T)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via the phase-normalized QR decomposition."""
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def random_projection(rng: np.random.Generator, n: int, k: int) -> HermitianMatrix:
    """Orthogonal projection of rank k."""
    if not 0 <= k <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {k}")
    u = random_unitary(rng, n)[:, :k]
    return HermitianMatrix(u @ u.conj().T)


def random_contraction(rng: np.random.Generator, n: int) -> HermitianMatrix:
    """Positive contraction: random unitary conjugate of a uniform diagonal."""
    u = random_unitary(rng, n)
    return HermitianMatrix((u * rng.uniform(0.0, 1.0, n)) @ u.conj().T)


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Invertible matrix with singular values floored at 0.1 times the
    largest, keeping the condition number at most 10."""
    u, sing, vh = np.linalg.svd(_complex_gaussian(rng, (n, n)))
    if sing[0] == 0.0:
        return np.eye(n, dtype=np.complex128)
    sing = np.maximum(sing, 0.1 * sing[0])
    return (u * sing) @ vh


def random_commuting_family(rng: np.random.Generator, n: int, size: int) -> MatrixSet:
    """Random real diagonals conjugated by one shared random unitary."""
    u = random_unitary(rng, n)
    return MatrixSet(
        HermitianMatrix((u * rng.standard_normal(n)) @ u.conj().T) for _ in range(size)
    )


def random_incomparable_pair(rng: np.random.Generator, n: int) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Pair of random Hermitian matrices, redrawn up to 64 times until incomparable."""
    if n < 2:
        raise ValueError("incomparable pairs need dimension at least 2")
    for _ in range(64):
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        if compare(a, b) is Comparability.INCOMPARABLE:
            return a, b
    raise RuntimeError("could not draw an incomparable pair")
