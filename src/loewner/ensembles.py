"""Named seeded ensemble suites exercising the package's invariants.

Each suite states one trial, ``(rng, dims, key, tol) -> dict`` with ``key``
``(seed, t)``, and returns that trial's figures.  ``ensemble_run`` is the one
loop: trial t draws from ``trial_rng(seed, t)``, and the report gives
``trials`` and then each figure totalled over the trials (``_total``).  The
acceptance tests call ``ensemble_run``; the CLI exposes it through
``ensemble``.
"""

from __future__ import annotations

import numpy as np

from .bounds import (
    StottParam,
    certify_maximal,
    is_lower_bound,
    mlb_mt,
    signature_matrix,
    stott_mx,
    stott_recover_x,
)
from .errors import UnknownSuite, ValidationError
from .infimum import (
    _joint_diagonals,
    commuting_glb_two_routes,
    distinct_maximals,
    finite_infimum,
    positive_glb_family,
    positive_maximal_lb,
    simultaneous_eigenbasis,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    MatrixSet,
    Subspace,
    Tolerances,
    _eigh,
    _range_null,
    _top,
    _within,
    identity,
    loewner_leq,
    pinv,
    polar_abs,
    zero,
)
from .parallel import _parallel_sum, ando_limit, parallel_sum, two_op_positive_glb
from .sampling import (
    random_commuting_family,
    random_contraction,
    random_hermitian,
    random_incomparable_pair,
    random_invertible,
    random_projection,
    random_psd,
    random_unitary,
    trial_rng,
)
from .schur import albert_is_psd

__all__ = ["SUITE_NAMES", "DEFAULT_DIMS", "ensemble_run"]

# The largest dimension a suite may draw.  The positive-mlb suite draws 1000
# complex n x n perturbations per trial, 16 n^2 kB: 66 MB at n = 64, where the
# trial's peak under tracemalloc is 73 MB, and 640 MB at n = 200.
MAX_SUITE_DIM = 64


def _draw_dim(rng: np.random.Generator, dims: tuple[int, int], least: int = 1) -> int:
    return int(rng.integers(max(dims[0], least), max(dims[1], least) + 1))


def _anti_lattice(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """An incomparable pair has no infimum and carries at least three
    pairwise distinct certified maximal lower bounds."""
    a, b = random_incomparable_pair(rng, _draw_dim(rng, dims, 2))
    mset = MatrixSet([a, b])
    nonexistent = not finite_infimum(mset, tol).exists
    bounds = distinct_maximals(mset, 3, tol, seed=(*key, 1))
    scale = mset.max_norm()
    gaps = [(bounds[i] - bounds[j]).norm() / scale for i in range(3) for j in range(i + 1, 3)]
    return {
        "infimum_nonexistent": nonexistent,
        "distinct_triples": not any(_within(gap, "distinct_rel", 1.0) for gap in gaps),
        "certified_triples": all(certify_maximal(m, mset, tol).is_maximal for m in bounds),
        "min_separation": min(gaps),
    }


def _stott_roundtrip(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """Parameters round-trip through the {J, 0} bound they generate, and the
    generated bound certifies maximal.  ``dims`` bounds the block sizes p, q."""
    p, q = _draw_dim(rng, dims), _draw_dim(rng, dims)
    x = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    mx = stott_mx(StottParam(p, q, x), tol).mx
    certified = certify_maximal(mx, MatrixSet([signature_matrix(p, q), zero(p + q)]), tol).is_maximal
    err = float(np.abs(stott_recover_x(mx, p, q, tol).x - x).max())
    return {"certified": certified, "roundtrips_within_1e-8": err <= 1e-8, "max_x_error": err}


def _mt_family(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """The explicit pair bound is a certified maximal lower bound, commutes
    with congruences and shifts, and depends on T only through |T|."""
    n = _draw_dim(rng, dims)
    a = random_hermitian(rng, n)
    b = random_hermitian(rng, n)
    t_mat = random_invertible(rng, n)
    m = mlb_mt(a, b, t_mat, tol)
    mset = MatrixSet([a, b])
    lower_bound = is_lower_bound(m, mset, tol)
    certified = certify_maximal(m, mset, tol).is_maximal
    scale = max(mset.max_norm(), m.norm())

    s_mat = random_invertible(rng, n)
    a_s = HermitianMatrix(s_mat.conj().T @ a.mat @ s_mat)
    b_s = HermitianMatrix(s_mat.conj().T @ b.mat @ s_mat)
    moved = mlb_mt(a_s, b_s, t_mat @ s_mat, tol)
    direct = HermitianMatrix(s_mat.conj().T @ m.mat @ s_mat)
    congruence = (moved - direct).norm() / max(a_s.norm(), b_s.norm(), direct.norm())

    polar = (mlb_mt(a, b, polar_abs(t_mat), tol) - m).norm() / scale

    shift = random_hermitian(rng, n)
    a_t, b_t, m_t = a + shift, b + shift, m + shift
    shift_scale = max(a_t.norm(), b_t.norm(), m_t.norm())
    return {
        "lower_bounds": lower_bound,
        "certified": certified,
        "max_congruence_residual": congruence,
        "max_polar_residual": polar,
        "max_shift_residual": (mlb_mt(a_t, b_t, t_mat, tol) - m_t).norm() / shift_scale,
    }


def _below(folded: HermitianMatrix, basis: np.ndarray, lows: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Whether each candidate ``basis diag(lows[j]) basis*``, symmetrized as
    ``HermitianMatrix`` does, is below ``folded`` by ``compare``'s rule: psd_rel
    on max(|candidate|, |folded|), with |candidate| read off ``lows``.  One
    stacked eigvalsh serves every candidate."""
    raw = (basis * lows[:, None, :]) @ basis.conj().T
    gaps = folded.mat - (raw + raw.conj().transpose(0, 2, 1)) / 2.0
    scales = np.maximum(np.abs(lows).max(axis=1), folded.norm())
    return _within(-np.linalg.eigvalsh(gaps)[:, 0], "psd_rel", scales, tol)


def _commuting_tworoute(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """Both routes to the commuting greatest lower bound agree, the bound
    commutes with the members, and it dominates 50 random commuting lower
    bounds."""
    n = _draw_dim(rng, dims)
    family = random_commuting_family(rng, n, int(rng.integers(2, 6)))
    scale = family.max_norm()
    folded, joint = commuting_glb_two_routes(family, tol)
    commutator = max(
        float(np.linalg.norm(folded.mat @ member.mat - member.mat @ folded.mat, 2)) / scale**2 for member in family
    )
    basis = simultaneous_eigenbasis(family)
    lows = _joint_diagonals(family, basis).min(axis=0) - scale * np.abs(rng.standard_normal((50, n)))
    return {
        "max_route_gap": (folded - joint).norm() / scale,
        "max_commutator": commutator,
        "dominates_candidates": _below(folded, basis, lows, tol).all(),
    }


_PERTURBATION_STEPS = (1e-3, 1e-2, 1e-1)
# The screen forms |G* u|^2 in blocks of at most this many product entries, so its memory stays
# a few MB at any dimension; a trial of the suites' own sizes (n <= 6, k <= 4) is one block.
_SCREEN_ENTRIES = 2**18


def _no_dominating_perturbation(
    m: HermitianMatrix, mset: MatrixSet, rng: np.random.Generator, count: int, tol: Tolerances
) -> bool:
    """True when no perturbation m + s P (P = G G* random PSD, s = step / |P|, each
    step a fixed fraction of the scale max(|A|, |m|)) stays a lower bound of the set.

    A bound rejects most candidates first (``_screen``, block by block).  For each
    member A and each eigenpair (w_j, u_j) of A - m, the Rayleigh quotient gives
    lambda_min(A - m - s P) <= w_j - s |G* u_j|^2, and s >= step / |G|_F^2
    since |P| <= tr P = |G|_F^2.  The exact test's margin is psd_rel times
    the scale of the family and m, so a candidate whose bound lies below
    minus that, widened by a rounding slack, fails the exact test too.  Only
    the survivors are built and decided by batched eigenvalues.
    """
    n = m.dim
    real, imag = rng.standard_normal((count, n, n)), rng.standard_normal((count, n, n))
    scale = max(mset.max_norm(), m.norm())
    steps = scale * np.resize(_PERTURBATION_STEPS, count)
    gap_w, gap_u = _eigh(mset.stack - m.mat)
    # the members' eigenvector matrices side by side, n x (k n), conjugated and transposed
    columns = np.swapaxes(gap_u, 0, 1).reshape(n, -1).conj().T
    block = max(1, _SCREEN_ENTRIES // columns.size)
    survivors = np.concatenate([
        start + _screen(real[start:start + block] + 1j * imag[start:start + block], columns, gap_w,
                        steps[start:start + block], scale, tol)
        for start in range(0, count, block)
    ])
    if survivors.size == 0:
        return True
    g, steps = real[survivors] + 1j * imag[survivors], steps[survivors]
    p = np.einsum("kij,klj->kil", g, g.conj())
    p = (p + np.conj(np.swapaxes(p, 1, 2))) / 2.0
    norms = np.abs(np.linalg.eigvalsh(p)).max(axis=1)
    norms = np.where(norms > 0.0, norms, 1.0)
    candidates = m.mat[None, :, :] + (steps / norms)[:, None, None] * p
    alive = np.ones(survivors.size, dtype=bool)
    for member in mset:
        index = np.flatnonzero(alive)
        if index.size == 0:
            break
        w = np.linalg.eigvalsh(member.mat[None, :, :] - candidates[index])
        alive[index] = _within(-w[:, 0], "psd_rel", scale, tol)
    return not bool(alive.any())


def _screen(
    g: np.ndarray, columns: np.ndarray, gap_w: np.ndarray, steps: np.ndarray, scale: float, tol: Tolerances
) -> np.ndarray:
    """The indices of the draws ``g`` whose Rayleigh bound does not rule them out."""
    count, n = len(g), g.shape[1]
    # |G* u|^2 = |u* G|^2 for every column and draw from one product U* [G_1 ... G_count];
    # it and |G|_F^2 are sums of squares of the real and imaginary parts
    products = columns @ np.swapaxes(g, 0, 1).reshape(n, -1)
    parts = products.view(np.float64).reshape(-1, count, 2 * n)
    forms = np.einsum("ckx,ckx->kc", parts, parts).reshape(count, len(gap_w), n)
    flat = g.view(np.float64).reshape(count, -1)
    frobenius = np.einsum("kx,kx->k", flat, flat)
    shrink = steps / np.where(frobenius > 0.0, frobenius, 1.0)
    bounds = (gap_w[None, :, :] - shrink[:, None, None] * forms).min(axis=2)
    # n times the noise floor covers the rounding of the eigenpairs, of the
    # forms and of the exact route's eigenvalues, each a few n * eps * |A - m|
    slack = tol.noise_rel * n * (_top(gap_w)[None, :] + steps[:, None])
    return np.flatnonzero(_within((-bounds - slack).max(axis=1), "psd_rel", scale, tol))


def _positive_mlb(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """The recursion output is PSD, a lower bound, certified maximal,
    dominates the scalar floor, and admits no dominating perturbation."""
    n = _draw_dim(rng, dims)
    size = int(rng.integers(2, 5))
    mset = MatrixSet(
        random_psd(rng, n, int(rng.integers(max(1, n - 2), n + 1))) for _ in range(size)
    )
    m = positive_maximal_lb(mset, tol)
    scale = max(mset.max_norm(), m.norm())
    return {
        "psd": _within(-m.min_eigenvalue(), "psd_rel", scale, tol),
        "lower_bounds": is_lower_bound(m, mset, tol),
        "certified": certify_maximal(m, mset, tol).is_maximal,
        "dominates_scalar_floor": _within(
            -(m - mset.min_eigenvalue() * identity(n)).min_eigenvalue(), "psd_rel", scale, tol
        ),
        "no_dominating_perturbation": _no_dominating_perturbation(m, mset, rng, 1000, tol),
    }


def _albert_vs_spectral(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """The block positivity test agrees with the spectral test on a mixed
    ensemble (PSD, indefinite, negative by trial index) over a random block split."""
    n = max(_draw_dim(rng, dims), 2)
    mode = key[1] % 3
    s = random_hermitian(rng, n) if mode == 1 else random_psd(rng, n, int(rng.integers(1, n + 1)))
    if mode == 2:
        s = -s
    split = Subspace(random_unitary(rng, n)[:, : int(rng.integers(1, n))])
    block_verdict = albert_is_psd(s, split, tol).is_psd
    direct = loewner_leq(zero(n), s, tol)
    return {"agreements": block_verdict == direct, "psd_instances": direct}


def _parallel_ando(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """A scalar parallel sum matches the resistor formula, the rank matches the
    range intersection, [a:b]b equals [a]b, and the pair bound matches the
    family route."""
    sa, sb = map(float, rng.uniform(0.1, 3.0, 2))
    s = parallel_sum(HermitianMatrix([[sa]]), HermitianMatrix([[sb]]), tol)
    scalar = abs(float(np.real(s.mat[0, 0])) - sa * sb / (sa + sb)) / max(sa, sb)

    n = _draw_dim(rng, dims)
    a = random_psd(rng, n, int(rng.integers(1, n + 1)))
    b = random_psd(rng, n, int(rng.integers(1, n + 1)))
    pair_scale = max(a.norm(), b.norm())
    members = MatrixSet([a, b])
    para, meet = _parallel_sum(members, tol)
    # S's own split on the pair's scale is the meet K, by the one rank rule that both follow
    rank_identity = _range_null(para, tol, pair_scale).range.dim == meet.range.dim
    bounded = loewner_leq(para, a, tol) and loewner_leq(para, b, tol)

    pair = two_op_positive_glb(a, b, tol)
    absorb = (ando_limit(para, b, tol) - pair.ando_ab).norm() / pair_scale
    family = positive_glb_family(members, tol)
    return {
        "max_scalar_residual": scalar,
        "rank_identity": rank_identity,
        "max_absorb_residual": absorb,
        "pair_family_agreements": pair.exists == family.exists and (
            not pair.exists or _within((pair.glb - family.glb).norm(), "psd_rel", pair_scale, tol)
        ),
        "bounded_by_both": bounded,
    }


def _effect_projection(rng: np.random.Generator, dims: tuple[int, int], key: tuple[int, int], tol: Tolerances) -> dict:
    """For a positive contraction and a projection the greatest positive
    lower bound exists and equals the contraction shorted to the
    projection's range."""
    n = _draw_dim(rng, dims, 2)
    a = random_contraction(rng, n)
    proj = random_projection(rng, n, int(rng.integers(1, n)))
    mset = MatrixSet([a, proj])
    family = positive_glb_family(mset, tol)
    if not family.exists:
        return {"glb_exists": False, "max_shorted_gap": 0.0}
    # Anderson-Trapp: an invertible a shorted to R(P) is (P a^-1 P)^+, no Schur complement
    shorted = pinv(HermitianMatrix(proj.mat @ pinv(a, tol).mat @ proj.mat), tol)
    return {"glb_exists": True, "max_shorted_gap": (family.glb - shorted).norm() / mset.max_norm()}


_SUITES = {
    "anti-lattice": (_anti_lattice, (2, 5)),
    "stott-roundtrip": (_stott_roundtrip, (1, 4)),
    "mt-family": (_mt_family, (2, 6)),
    "commuting-tworoute": (_commuting_tworoute, (2, 6)),
    "positive-mlb": (_positive_mlb, (2, 6)),
    "albert-vs-spectral": (_albert_vs_spectral, (2, 6)),
    "parallel-ando": (_parallel_ando, (2, 6)),
    "effect-projection": (_effect_projection, (2, 6)),
}

SUITE_NAMES = tuple(sorted(_SUITES))

DEFAULT_DIMS = {name: dims for name, (_, dims) in _SUITES.items()}


def ensemble_run(
    suite: str,
    trials: int,
    dims: tuple[int, int] | None = None,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> dict:
    """Run ``trials`` trials of a named suite, trial t on ``trial_rng(seed, t)``,
    and report ``trials`` and then each of the suite's figures totalled by ``_total``."""
    if suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; available: {', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    trial, default = _SUITES[suite]
    dims = default if dims is None else dims
    lo, hi = int(dims[0]), int(dims[1])
    if lo < 1 or hi < lo:
        raise ValidationError(f"invalid dimension range {dims}")
    if hi > MAX_SUITE_DIM:
        raise ValidationError(f"dimension {hi} exceeds the suites' limit of {MAX_SUITE_DIM}")
    seed = int(seed)
    rows = [trial(trial_rng(seed, t), (lo, hi), (seed, t), tol) for t in range(trials)]
    return {"trials": trials, **{name: _total(name, [row[name] for row in rows]) for name in rows[0]}}


def _total(name: str, values: list):
    """A ``max_`` residual's worst value, from 0.0; a ``min_`` separation's least
    value; any other figure's count of the trials in which it held."""
    if name.startswith("max_"):
        return max(0.0, *values)
    if name.startswith("min_"):
        return min(values)
    return sum(map(bool, values))
