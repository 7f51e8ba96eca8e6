"""Named seeded ensemble suites exercising the package's invariants.

Each suite runs ``trials`` independent seeded instances and returns a flat
dict of counts and worst-case residuals.  The acceptance tests call these
directly; the CLI exposes them through ``ensemble``.
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
    _common_range,
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
from .parallel import ando_limit, parallel_sum, two_op_positive_glb
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

# The largest dimension a suite may draw.  The positive-mlb suite holds 1000
# complex n x n perturbations per trial: 66 MB at n = 64, 640 MB at n = 200.
MAX_SUITE_DIM = 64


def _draw_dim(rng: np.random.Generator, dims: tuple[int, int]) -> int:
    lo, hi = dims
    return int(rng.integers(lo, hi + 1))


def _anti_lattice(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """Incomparable pairs never have an infimum and carry at least three
    pairwise distinct certified maximal lower bounds."""
    lo, hi = max(dims[0], 2), max(dims[1], 2)
    nonexistent = 0
    triples_ok = 0
    certified = 0
    min_separation = float("inf")
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = _draw_dim(rng, (lo, hi))
        a, b = random_incomparable_pair(rng, n)
        mset = MatrixSet([a, b])
        if not finite_infimum(mset, tol).exists:
            nonexistent += 1
        bounds = distinct_maximals(mset, 3, tol, seed=(seed, t, 1))
        scale = 1.0 + mset.max_norm()
        gaps = [
            (bounds[i] - bounds[j]).norm() / scale
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        min_separation = min(min_separation, min(gaps))
        if not any(_within(gap, "distinct_rel", 1.0) for gap in gaps):
            triples_ok += 1
        if all(certify_maximal(m, mset, tol).is_maximal for m in bounds):
            certified += 1
    return {
        "trials": trials,
        "infimum_nonexistent": nonexistent,
        "distinct_triples": triples_ok,
        "certified_triples": certified,
        "min_separation": min_separation,
    }


def _stott_roundtrip(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """Parameters round-trip through the {J, 0} bound they generate, and the
    generated bounds certify maximal.  ``dims`` bounds the block sizes p, q."""
    lo, hi = max(dims[0], 1), max(dims[1], 1)
    certified = 0
    roundtrips = 0
    max_x_error = 0.0
    for t in range(trials):
        rng = trial_rng(seed, t)
        p = _draw_dim(rng, (lo, hi))
        q = _draw_dim(rng, (lo, hi))
        x = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        mx = stott_mx(StottParam(p, q, x), tol).mx
        pair_set = MatrixSet([signature_matrix(p, q), zero(p + q)])
        if certify_maximal(mx, pair_set, tol).is_maximal:
            certified += 1
        recovered = stott_recover_x(mx, p, q, tol)
        err = float(np.abs(recovered.x - x).max())
        max_x_error = max(max_x_error, err)
        if err <= 1e-8:
            roundtrips += 1
    return {
        "trials": trials,
        "certified": certified,
        "roundtrips_within_1e-8": roundtrips,
        "max_x_error": max_x_error,
    }


def _mt_family(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """The explicit pair bounds are certified maximal lower bounds, commute
    with congruences and shifts, and depend on T only through |T|."""
    lower_bounds = 0
    certified = 0
    max_congruence = 0.0
    max_polar = 0.0
    max_shift = 0.0
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = _draw_dim(rng, dims)
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        t_mat = random_invertible(rng, n)
        m = mlb_mt(a, b, t_mat, tol)
        mset = MatrixSet([a, b])
        if is_lower_bound(m, mset, tol):
            lower_bounds += 1
        if certify_maximal(m, mset, tol).is_maximal:
            certified += 1
        scale = 1.0 + max(a.norm(), b.norm(), m.norm())

        s_mat = random_invertible(rng, n)
        a_s = HermitianMatrix(s_mat.conj().T @ a.mat @ s_mat)
        b_s = HermitianMatrix(s_mat.conj().T @ b.mat @ s_mat)
        moved = mlb_mt(a_s, b_s, t_mat @ s_mat, tol)
        direct = HermitianMatrix(s_mat.conj().T @ m.mat @ s_mat)
        max_congruence = max(
            max_congruence, (moved - direct).norm() / (1.0 + direct.norm())
        )

        collapsed = mlb_mt(a, b, polar_abs(t_mat), tol)
        max_polar = max(max_polar, (collapsed - m).norm() / scale)

        shift = random_hermitian(rng, n)
        shifted = mlb_mt(a + shift, b + shift, t_mat, tol)
        max_shift = max(max_shift, (shifted - (m + shift)).norm() / (1.0 + scale + shift.norm()))
    return {
        "trials": trials,
        "lower_bounds": lower_bounds,
        "certified": certified,
        "max_congruence_residual": max_congruence,
        "max_polar_residual": max_polar,
        "max_shift_residual": max_shift,
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


def _commuting_tworoute(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """Both routes to the commuting greatest lower bound agree, the bound
    commutes with the members, and it dominates random commuting lower
    bounds."""
    candidates_per_trial = 50
    max_route_gap = 0.0
    max_commutator = 0.0
    dominated = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = _draw_dim(rng, dims)
        size = int(rng.integers(2, 6))
        family = random_commuting_family(rng, n, size)
        scale = 1.0 + family.max_norm()
        folded, joint = commuting_glb_two_routes(family, tol)
        max_route_gap = max(max_route_gap, (folded - joint).norm() / scale)
        for member in family:
            comm = folded.mat @ member.mat - member.mat @ folded.mat
            max_commutator = max(max_commutator, float(np.linalg.norm(comm, 2)) / scale)
        basis = simultaneous_eigenbasis(family)
        diag_min = _joint_diagonals(family, basis).min(axis=0)
        lows = diag_min - np.abs(rng.standard_normal((candidates_per_trial, n)))
        if _below(folded, basis, lows, tol).all():
            dominated += 1
    return {
        "trials": trials,
        "max_route_gap": max_route_gap,
        "max_commutator": max_commutator,
        "dominates_candidates": dominated,
    }


_PERTURBATION_STEPS = (1e-3, 1e-2, 1e-1)


def _no_dominating_perturbation(
    m: HermitianMatrix, mset: MatrixSet, rng: np.random.Generator, count: int, tol: Tolerances
) -> bool:
    """True when no perturbation m + s P (P = G G* random PSD, s = step / |P|)
    stays a lower bound of the set.

    A bound rejects most candidates first.  For each member A and each
    eigenpair (w_j, u_j) of A - m, the Rayleigh quotient gives
    lambda_min(A - m - s P) <= w_j - s |G* u_j|^2, and s >= step / |G|_F^2
    since |P| <= tr P = |G|_F^2.  The exact test's margin is psd_rel times
    the scale of the family and m, so a candidate whose bound lies below
    minus that, widened by a rounding slack, fails the exact test too.  Only
    the survivors are built and decided by batched eigenvalues.
    """
    n = m.dim
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    steps = np.resize(_PERTURBATION_STEPS, count)
    gap_w, gap_u = _eigh(mset.stack - m.mat)
    # the members' eigenvector matrices side by side, n x (k n)
    columns = np.swapaxes(gap_u, 0, 1).reshape(n, -1)
    # |G* u|^2 = |u* G|^2 for every column and draw from one product U* [G_1 ... G_count];
    # it and |G|_F^2 are sums of squares of the real and imaginary parts
    products = columns.conj().T @ np.swapaxes(g, 0, 1).reshape(n, -1)
    parts = products.view(np.float64).reshape(-1, count, 2 * n)
    forms = np.einsum("ckx,ckx->kc", parts, parts).reshape(count, len(mset), n)
    flat = g.view(np.float64).reshape(count, -1)
    frobenius = np.einsum("kx,kx->k", flat, flat)
    shrink = steps / np.where(frobenius > 0.0, frobenius, 1.0)
    bounds = (gap_w[None, :, :] - shrink[:, None, None] * forms).min(axis=2)
    scale = max(mset.max_norm(), m.norm())
    # n times the noise floor covers the rounding of the eigenpairs, of the
    # forms and of the exact route's eigenvalues, each a few n * eps * |A - m|
    slack = tol.noise_rel * n * (_top(gap_w)[None, :] + steps[:, None])
    survivors = np.flatnonzero(_within((-bounds - slack).max(axis=1), "psd_rel", scale, tol))
    if survivors.size == 0:
        return True
    g, steps = g[survivors], steps[survivors]
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


def _positive_mlb(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """The recursion output is PSD, a lower bound, certified maximal,
    dominates the scalar floor, and admits no dominating perturbation."""
    perturbations = 1000
    psd_ok = 0
    lower_bounds = 0
    certified = 0
    floor_ok = 0
    unperturbable = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = _draw_dim(rng, dims)
        size = int(rng.integers(2, 5))
        mset = MatrixSet(
            random_psd(rng, n, int(rng.integers(max(1, n - 2), n + 1))) for _ in range(size)
        )
        m = positive_maximal_lb(mset, tol)
        scale = 1.0 + mset.max_norm()
        if _within(-m.min_eigenvalue(), "psd_rel", scale, tol):
            psd_ok += 1
        if is_lower_bound(m, mset, tol):
            lower_bounds += 1
        if certify_maximal(m, mset, tol).is_maximal:
            certified += 1
        if _within(-(m - mset.min_eigenvalue() * identity(n)).min_eigenvalue(), "psd_rel", scale, tol):
            floor_ok += 1
        if _no_dominating_perturbation(m, mset, rng, perturbations, tol):
            unperturbable += 1
    return {
        "trials": trials,
        "psd": psd_ok,
        "lower_bounds": lower_bounds,
        "certified": certified,
        "dominates_scalar_floor": floor_ok,
        "no_dominating_perturbation": unperturbable,
    }


def _albert_vs_spectral(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """The block positivity test agrees with the spectral test on mixed
    ensembles (PSD, indefinite, negative) over random block splits."""
    agreements = 0
    psd_seen = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = max(_draw_dim(rng, dims), 2)
        mode = t % 3
        if mode == 0:
            s = random_psd(rng, n, int(rng.integers(1, n + 1)))
        elif mode == 1:
            s = random_hermitian(rng, n)
        else:
            s = -random_psd(rng, n, int(rng.integers(1, n + 1)))
        k = int(rng.integers(1, n))
        split = Subspace(random_unitary(rng, n)[:, :k])
        block_verdict = albert_is_psd(s, split, tol).is_psd
        direct = loewner_leq(zero(n), s, tol)
        psd_seen += int(direct)
        if block_verdict == direct:
            agreements += 1
    return {"trials": trials, "agreements": agreements, "psd_instances": psd_seen}


def _parallel_ando(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """Scalar parallel sums match the resistor formula, ranks match range
    intersections, [a:b]b equals [a]b, and the pair bound matches the
    family route."""
    max_scalar_residual = 0.0
    rank_matches = 0
    max_absorb_residual = 0.0
    pair_family_agreements = 0
    bounded_by_both = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        sa, sb = rng.uniform(0.1, 3.0, 2)
        s = parallel_sum(HermitianMatrix([[sa]]), HermitianMatrix([[sb]]), tol)
        max_scalar_residual = max(
            max_scalar_residual, abs(float(np.real(s.mat[0, 0])) - sa * sb / (sa + sb))
        )

        n = _draw_dim(rng, dims)
        a = random_psd(rng, n, int(rng.integers(1, n + 1)))
        b = random_psd(rng, n, int(rng.integers(1, n + 1)))
        pair_scale = max(a.norm(), b.norm())
        scale = 1.0 + pair_scale
        para = parallel_sum(a, b, tol)
        meet = _common_range([_range_null(a, tol, pair_scale), _range_null(b, tol, pair_scale)], tol)
        # S's own split, apart from the K it was built on, checks its range against the meet
        if _range_null(para, tol, pair_scale).range.dim == meet.range.dim:
            rank_matches += 1
        if loewner_leq(para, a, tol) and loewner_leq(para, b, tol):
            bounded_by_both += 1

        absorbed = ando_limit(para, b, tol)
        plain = ando_limit(a, b, tol)
        max_absorb_residual = max(max_absorb_residual, (absorbed - plain).norm() / scale)

        pair = two_op_positive_glb(a, b, tol)
        family = positive_glb_family(MatrixSet([a, b]), tol)
        if pair.exists == family.exists and (
            not pair.exists or _within((pair.glb - family.glb).norm(), "psd_rel", scale, tol)
        ):
            pair_family_agreements += 1
    return {
        "trials": trials,
        "max_scalar_residual": max_scalar_residual,
        "rank_identity": rank_matches,
        "max_absorb_residual": max_absorb_residual,
        "pair_family_agreements": pair_family_agreements,
        "bounded_by_both": bounded_by_both,
    }


def _effect_projection(trials: int, dims: tuple[int, int], seed: int, tol: Tolerances) -> dict:
    """For a positive contraction and a projection the greatest positive
    lower bound always exists and equals the contraction shorted to the
    projection's range."""
    lo = max(dims[0], 2)
    hi = max(dims[1], lo)
    existing = 0
    max_shorted_gap = 0.0
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = _draw_dim(rng, (lo, hi))
        a = random_contraction(rng, n)
        k = int(rng.integers(1, n))
        proj = random_projection(rng, n, k)
        family = positive_glb_family(MatrixSet([a, proj]), tol)
        if family.exists:
            existing += 1
            # Anderson-Trapp: an invertible a shorted to R(P) is (P a^-1 P)^+, no Schur complement
            shorted = pinv(HermitianMatrix(proj.mat @ pinv(a, tol).mat @ proj.mat), tol)
            max_shorted_gap = max(
                max_shorted_gap, (family.glb - shorted).norm() / (1.0 + a.norm())
            )
    return {
        "trials": trials,
        "glb_exists": existing,
        "max_shorted_gap": max_shorted_gap,
    }


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
    """Run a named suite and return its verdict dict."""
    if suite not in _SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; available: {', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    run, default = _SUITES[suite]
    dims = default if dims is None else dims
    lo, hi = int(dims[0]), int(dims[1])
    if lo < 1 or hi < lo:
        raise ValidationError(f"invalid dimension range {dims}")
    if hi > MAX_SUITE_DIM:
        raise ValidationError(f"dimension {hi} exceeds the suites' limit of {MAX_SUITE_DIM}")
    return run(trials, (lo, hi), int(seed), tol)
