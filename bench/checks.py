"""Correctness checks for benchmark outputs, written in numpy alone.

Nothing here imports ``loewner``: each check recomputes the property it
tests from the inputs the benchmark generated, so a wrong answer from the
library cannot also slip into the reference.  Every check raises
``CheckFailed`` with a reason on a wrong answer and returns None otherwise.
"""

from __future__ import annotations

import numpy as np

# Order decisions: eigenvalues above -ORDER_REL * scale count as nonnegative.
ORDER_REL = 1e-8
# Null-space decisions: gap eigenvalues within NULL_REL * scale count as zero.
NULL_REL = 1e-8
# Spanning decision: stacked orthonormal null bases span C^n when their
# smallest singular value (of n) stays above this.
SPAN_MIN = 1e-6
# Equality of computed matrices, relative to the family scale.
EQ_REL = 1e-8


class CheckFailed(Exception):
    """A benchmark output disagreed with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def scale_of(*mats) -> float:
    """Largest spectral norm among Hermitian matrices, floored at 1e-300."""
    return max(max(float(np.abs(np.linalg.eigvalsh(m)).max()) for m in mats), 1e-300)


def assert_close(actual, expected, scale: float, what: str, rel: float = EQ_REL) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    gap = float(np.abs(actual - expected).max())
    require(gap <= rel * scale, f"{what}: off by {gap:.3e} (allowed {rel * scale:.3e})")


def min_gap_eigenvalue(upper, lower) -> float:
    return float(np.linalg.eigvalsh(np.asarray(upper) - np.asarray(lower))[0])


def check_lower_bound(m, members, scale: float | None = None) -> None:
    """eigvalsh(A - M) >= -tol * scale for every member A."""
    s = scale if scale is not None else scale_of(m, *members)
    for i, a in enumerate(members):
        w0 = min_gap_eigenvalue(a, m)
        require(w0 >= -ORDER_REL * s, f"not a lower bound: member {i} gap eigenvalue {w0:.3e}")


def gaps_span(m, members, scale: float | None = None) -> bool:
    """True when the null spaces of the gaps A - M jointly span C^n,
    decided by the SVD rank of the stacked null-space bases."""
    m = np.asarray(m)
    n = m.shape[0]
    s = scale if scale is not None else scale_of(m, *members)
    bases = []
    for a in members:
        w, v = np.linalg.eigh(np.asarray(a) - m)
        bases.append(v[:, np.abs(w) <= NULL_REL * s])
    stacked = np.hstack(bases)
    if stacked.shape[1] < n:
        return False
    sing = np.linalg.svd(stacked, compute_uv=False)
    return bool(sing[n - 1] > SPAN_MIN)


def check_maximal_lower_bound(m, members, scale: float | None = None) -> None:
    """M is a lower bound and the gaps' null spaces span C^n."""
    s = scale if scale is not None else scale_of(m, *members)
    check_lower_bound(m, members, s)
    require(gaps_span(m, members, s), "lower bound is not maximal: gap null spaces do not span")


def has_infimum(members, scale: float | None = None) -> int | None:
    """Index of the first member below all others, or None."""
    s = scale if scale is not None else scale_of(*members)
    for i, cand in enumerate(members):
        if all(min_gap_eigenvalue(a, cand) >= -ORDER_REL * s for a in members):
            return i
    return None


def comparability(s, t) -> str:
    """Loewner comparability of s and t, named as the library names it."""
    w = np.linalg.eigvalsh(np.asarray(t) - np.asarray(s))
    margin = ORDER_REL * scale_of(s, t)
    leq, geq = w[0] >= -margin, w[-1] <= margin
    if leq and geq:
        return "equal"
    if leq:
        return "S<=T"
    if geq:
        return "T<=S"
    return "incomparable"


def parallel_sum_reference(members):
    """(A1^-1 + A2^-1 + ...)^-1 for positive-definite members."""
    return np.linalg.inv(sum(np.linalg.inv(np.asarray(a)) for a in members))


def commuting_glb_reference(unitary, diagonals):
    """U diag(min_i d_i) U* for members U diag(d_i) U*."""
    low = np.min(np.asarray(diagonals), axis=0)
    return (unitary * low) @ unitary.conj().T


def joint_multiplicity_dim(diagonals) -> int:
    """Dimension of the commutant of {U diag(d_i) U*}: the sum of squared
    multiplicities of the joint eigenvalue tuples (d_1[j], d_2[j], ...)."""
    tuples = [tuple(col) for col in np.asarray(diagonals).T]
    counts: dict = {}
    for t in tuples:
        counts[t] = counts.get(t, 0) + 1
    return sum(c * c for c in counts.values())


def commutant_dim_kron(members) -> int:
    """Null-space dimension of the stacked systems A X - X A = 0, for small n."""
    n = np.asarray(members[0]).shape[0]
    eye = np.eye(n)
    system = np.vstack([np.kron(a, eye) - np.kron(eye, np.asarray(a).T) for a in members])
    sing = np.linalg.svd(system, compute_uv=False)
    return int(n * n - np.sum(sing > NULL_REL * max(float(sing[0]), 1e-300)))


def signature(p: int, q: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(np.complex128)


def stott_m_reference(x: np.ndarray) -> np.ndarray:
    """M(X) = J - S(X) with S(X) = [[G, G^(1/2) X], [X* G^(1/2), X* X]],
    G = I + X X*."""
    p, q = x.shape
    gram = np.eye(p) + x @ x.conj().T
    w, v = np.linalg.eigh(gram)
    root = (v * np.sqrt(w)) @ v.conj().T
    sx = np.block([[gram, root @ x], [x.conj().T @ root, x.conj().T @ x]])
    return signature(p, q) - sx


def ex43_members(n: int) -> list[np.ndarray]:
    """The ex4.3 family truncated at n members plus its limit diag(1, 0)."""
    out = []
    for k in range(1, n + 1):
        rk = np.sqrt(1.0 / k)
        out.append(np.array([[1.0 + 1.0 / k, rk], [rk, 1.0 / k]]))
    out.append(np.array([[1.0, 0.0], [0.0, 0.0]]))
    return out


def check_ensemble_counts(verdict: dict, trials: int, count_keys) -> None:
    """Every verdict count of an ensemble suite equals its trial count."""
    require(verdict.get("trials") == trials, f"suite ran {verdict.get('trials')} trials, asked {trials}")
    for key in count_keys:
        require(verdict.get(key) == trials, f"{key} = {verdict.get(key)} of {trials}")


def decode_matrix(rows) -> np.ndarray:
    """A matrix from the CLI's JSON encoding: rows of [re, im] pairs."""
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_exit(code: int, expected: int, stderr: str) -> None:
    require(code == expected, f"exit code {code}, expected {expected}; stderr: {stderr.strip()[-200:]}")
