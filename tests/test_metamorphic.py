"""Metamorphic checks of the decision rule.

Every question the package decides is homogeneous: rescaling the family by
c > 0 rescales every bound by c, as in [cA](cB) = c[A]B, a unitary
congruence moves every bound along, as in [U*AU](U*BU) = U*([A]B)U, and
permuting the members permutes the per-member answers.  So the
verdicts must be invariant, and the certified bounds equivariant, under
rescaling by 10^(+-1, +-6, +-12, +-100), a random unitary congruence, a
permutation of the members and the embedding of real input as complex.
The inputs are drawn from seeds by Hypothesis; the test profile in
``conftest`` derandomizes and bounds the examples.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import (
    Comparability,
    HermitianMatrix,
    MatrixSet,
    Subspace,
    ando_limit,
    certify_maximal,
    commuting_glb,
    compare,
    distinct_maximals,
    finite_infimum,
    is_lower_bound,
    pairwise_commuting,
    parallel_sum_family,
    positive_glb_family,
    positive_maximal_lb,
    subspace_intersect,
    two_op_positive_glb,
)
from loewner.cli import main
from loewner.documents import MatrixSetDocument, emit_document
from loewner.errors import NotCommutingFamily
from loewner.linalg import DEFAULT_TOL, _range_null
from loewner.sampling import (
    random_commuting_family,
    random_contraction,
    random_hermitian,
    random_incomparable_pair,
    random_projection,
    random_psd,
    random_unitary,
    trial_rng,
)

from .conftest import herm, is_psd_on

SCALES = [10.0 ** e for e in (1, -1, 6, -6, 12, -12, 100, -100)]
seeds = st.integers(0, 2**20)
scales = st.sampled_from(SCALES)
MIRROR = {
    Comparability.LESS_EQUAL: Comparability.GREATER_EQUAL,
    Comparability.GREATER_EQUAL: Comparability.LESS_EQUAL,
    Comparability.EQUAL: Comparability.EQUAL,
    Comparability.INCOMPARABLE: Comparability.INCOMPARABLE,
}


def real_symmetric(rng, n) -> HermitianMatrix:
    g = rng.standard_normal((n, n))
    return HermitianMatrix(g + g.T)


def variants(mset: MatrixSet, rng, c: float) -> list:
    """(family, map of a bound, member order) for each transformation: the
    rescaled family, a unitary congruence U* A U, a member permutation and,
    for a real family, the phase congruence D* A D that embeds it as a
    genuinely complex one."""
    u = random_unitary(rng, mset.dim)
    d = np.diag(np.exp(2j * np.pi * rng.uniform(size=mset.dim)))
    perm = [int(i) for i in rng.permutation(len(mset))]
    same = list(range(len(mset)))
    out = [
        (MatrixSet(c * m for m in mset), lambda x: c * x, same),
        (MatrixSet(HermitianMatrix(u.conj().T @ m.mat @ u) for m in mset),
         lambda x: HermitianMatrix(u.conj().T @ x.mat @ u), same),
        (MatrixSet(mset[i] for i in perm), lambda x: x, perm),
    ]
    if not mset.stack.imag.any():
        out.append((MatrixSet(HermitianMatrix(d.conj().T @ m.mat @ d) for m in mset),
                    lambda x: HermitianMatrix(d.conj().T @ x.mat @ d), same))
    return out


def assert_close(actual: HermitianMatrix, expected: HermitianMatrix, scale: float, rel: float = 1e-7):
    gap = float(np.abs(actual.mat - expected.mat).max())
    assert gap <= rel * scale, f"off by {gap:.3e} on scale {scale:.3e}"


def family_scale(mset: MatrixSet) -> float:
    return max(mset.max_norm(), np.finfo(float).tiny)


class TestCompare:
    @given(seeds, scales)
    def test_verdict_invariant(self, seed, c):
        rng = trial_rng(seed, 0)
        n = int(rng.integers(2, 6))
        a, b = random_incomparable_pair(rng, n)
        p = random_psd(rng, n, int(rng.integers(1, n + 1)))
        u = random_unitary(rng, n)
        for s, t in ((a, b), (a, a + p), (a + p, a), (a, a)):
            verdict = compare(s, t)
            assert compare(c * s, c * t) is verdict
            assert compare(HermitianMatrix(u.conj().T @ s.mat @ u), HermitianMatrix(u.conj().T @ t.mat @ u)) is verdict
            assert compare(t, s) is MIRROR[verdict]
        assert compare(a, b) is Comparability.INCOMPARABLE
        assert compare(a, a + p) is Comparability.LESS_EQUAL


class TestFiniteInfimum:
    @given(seeds, scales, st.booleans())
    def test_verdict_invariant_and_infimum_equivariant(self, seed, c, planted):
        rng = trial_rng(seed, 1)
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        base = random_hermitian(rng, n)
        members = [base + random_psd(rng, n, int(rng.integers(0, n + 1))) for _ in range(k)]
        if planted:
            members[int(rng.integers(0, k))] = base
        mset = MatrixSet(members)
        report = finite_infimum(mset)
        for family, forward, order in variants(mset, rng, c):
            moved = finite_infimum(family)
            assert moved.exists == report.exists
            if report.exists:
                assert_close(moved.infimum, forward(report.infimum), family_scale(family))


class TestPositiveMaximalLb:
    @given(seeds, scales)
    def test_bound_equivariant_and_certificate_invariant(self, seed, c):
        # full-rank members: the minimizing member of every level is unique,
        # so the construction itself moves along with the family
        rng = trial_rng(seed, 2)
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        mset = MatrixSet(random_psd(rng, n) for _ in range(k))
        m = positive_maximal_lb(mset)
        cert = certify_maximal(m, mset)
        assert cert.is_maximal
        for family, forward, order in variants(mset, rng, c):
            moved = positive_maximal_lb(family)
            assert_close(moved, forward(m), family_scale(family))
            moved_cert = certify_maximal(moved, family)
            assert moved_cert.is_maximal and moved_cert.span_dim == cert.span_dim
            dims = cert.per_member_nullspace_dims
            assert moved_cert.per_member_nullspace_dims == tuple(dims[i] for i in order)
            assert certify_maximal(forward(m), family).is_maximal

    @given(seeds, scales)
    def test_rank_deficient_families_certify(self, seed, c):
        rng = trial_rng(seed, 3)
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        mset = MatrixSet(random_psd(rng, n, int(rng.integers(max(1, n - 2), n + 1))) for _ in range(k))
        for family, _, _ in [(mset, None, None)] + variants(mset, rng, c):
            m = positive_maximal_lb(family)
            assert is_lower_bound(m, family)
            assert certify_maximal(m, family).is_maximal


class TestCommuting:
    @given(seeds, scales)
    def test_commuting_verdict_invariant_and_glb_equivariant(self, seed, c):
        rng = trial_rng(seed, 4)
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        mset = random_commuting_family(rng, n, k)
        glb = commuting_glb(mset)
        for family, forward, _ in variants(mset, rng, c):
            assert pairwise_commuting(family)
            assert_close(commuting_glb(family), forward(glb), family_scale(family))

    @given(seeds, scales)
    def test_noncommuting_verdict_invariant(self, seed, c):
        rng = trial_rng(seed, 5)
        n = int(rng.integers(2, 6))
        mset = MatrixSet(random_hermitian(rng, n) for _ in range(int(rng.integers(2, 4))))
        assert not pairwise_commuting(mset)
        for family, _, _ in variants(mset, rng, c):
            assert not pairwise_commuting(family)
            with pytest.raises(NotCommutingFamily):
                commuting_glb(family)


class TestPositiveGlbFamily:
    @given(seeds, scales, st.booleans())
    def test_existence_invariant_and_glb_equivariant(self, seed, c, effect):
        rng = trial_rng(seed, 6)
        n = int(rng.integers(2, 6))
        if effect:
            # a contraction and a projection always have one
            members = [random_contraction(rng, n), random_projection(rng, n, int(rng.integers(1, n)))]
        else:
            members = [random_psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(int(rng.integers(2, 4)))]
        mset = MatrixSet(members)
        report = positive_glb_family(mset)
        assert report.exists or not effect
        # the first two members as a pair: [A]B and the pair bound move along too
        part = ando_limit(mset[0], mset[1])
        pair = two_op_positive_glb(mset[0], mset[1])
        for family, forward, order in variants(mset, rng, c):
            moved = positive_glb_family(family)
            assert moved.exists == report.exists
            assert moved.k_subspace.dim == report.k_subspace.dim
            if report.exists:
                assert_close(moved.glb, forward(report.glb), family_scale(family))
            a, b = family[order.index(0)], family[order.index(1)]
            assert_close(ando_limit(a, b), forward(part), family_scale(family))
            moved_pair = two_op_positive_glb(a, b)
            assert moved_pair.comparability is pair.comparability
            assert moved_pair.exists == pair.exists
            if pair.exists:
                assert_close(moved_pair.glb, forward(pair.glb), family_scale(family))


class TestCommonRange:
    """A unitary congruence carries the common range K along, P_{UK} = U P_K U*, and
    rescaling or permuting the members keeps it, for ``subspace_intersect`` and for
    ``positive_glb_family``'s ``k_subspace``; each input plants a common part."""

    @given(seeds)
    def test_subspace_intersect_rotates_and_ignores_order(self, seed):
        rng = trial_rng(seed, 12)
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        shared = random_unitary(rng, n)[:, :int(rng.integers(0, n))]
        own = [rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
               for m in rng.integers(0, n - shared.shape[1] + 1, size=k)]
        subspaces = [Subspace.from_span(np.hstack([shared, cols])) for cols in own]
        meet = subspace_intersect(subspaces)
        assert meet.dim >= shared.shape[1]
        u = random_unitary(rng, n)
        rotated = subspace_intersect([Subspace(u @ s.basis) for s in subspaces])
        reordered = subspace_intersect([subspaces[i] for i in rng.permutation(k)])
        for moved, expected in ((rotated, u @ meet.projector() @ u.conj().T), (reordered, meet.projector())):
            assert moved.dim == meet.dim
            assert float(np.abs(moved.projector() - expected).max()) <= 1e-8

    @given(seeds, scales)
    def test_k_subspace_rotates_and_keeps_its_dimension(self, seed, c):
        rng = trial_rng(seed, 13)
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        shared = random_unitary(rng, n)[:, :int(rng.integers(0, n))]
        planted = HermitianMatrix(shared @ shared.conj().T)
        mset = MatrixSet(random_psd(rng, n, int(rng.integers(1, n - shared.shape[1] + 1))) + planted for _ in range(k))
        common = positive_glb_family(mset).k_subspace
        assert common.dim >= shared.shape[1]
        projector = HermitianMatrix(common.projector())
        for i, (family, forward, _) in enumerate(variants(mset, rng, c)):
            moved = positive_glb_family(family).k_subspace
            assert moved.dim == common.dim
            # the rescaled family, the first variant, keeps K's projector; the rest carry it along
            assert_close(HermitianMatrix(moved.projector()), projector if i == 0 else forward(projector), 1.0)


class TestParallelSum:
    @given(seeds, scales)
    def test_rank_invariant_and_sum_equivariant(self, seed, c):
        # full-rank and rank-deficient members, whose products are and are not decomposed
        rng = trial_rng(seed, 9)
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        mset = MatrixSet(random_psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(k))
        s = parallel_sum_family(mset)
        rank = _range_null(s, DEFAULT_TOL, mset.max_norm()).range.dim
        for family, forward, _ in [(mset, lambda x: x, None)] + variants(mset, rng, c):
            moved = parallel_sum_family(family)
            scale = family.max_norm()
            assert _range_null(moved, DEFAULT_TOL, scale).range.dim == rank
            assert is_psd_on(moved, scale)
            assert is_lower_bound(moved, family)
            assert_close(moved, forward(s), family_scale(family))


class TestAndoLimit:
    @given(seeds, scales)
    def test_part_psd_below_b_zero_off_a_and_equivariant(self, seed, c):
        # [A]B is PSD and below B on the pair's scale, vanishes on N(A), and moves with
        # rescaling and a unitary congruence; swapping the pair is another question
        rng = trial_rng(seed, 11)
        n = int(rng.integers(2, 6))
        pair = MatrixSet(random_psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(2))
        part = ando_limit(*pair)
        for family, forward, _ in [(pair, lambda x: x, None)] + variants(pair, rng, c)[:2]:
            a, b = family
            moved = ando_limit(a, b)
            scale = family.max_norm()
            assert is_psd_on(moved, scale)
            assert is_psd_on(b - moved, scale)
            null = _range_null(a, DEFAULT_TOL, scale).nullspace.basis
            assert float(np.abs(moved.mat @ null).max(initial=0.0)) <= 1e-12 * scale
            assert_close(moved, forward(part), family_scale(family))


class TestTwoOpPositiveGlb:
    @given(seeds, scales)
    def test_existence_and_comparability_invariant(self, seed, c):
        # swapping the pair swaps [A]B and [B]A, so the comparability mirrors
        rng = trial_rng(seed, 10)
        n = int(rng.integers(2, 6))
        pair = MatrixSet(random_psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(2))
        result = two_op_positive_glb(*pair)
        for family, _, order in variants(pair, rng, c):
            moved = two_op_positive_glb(*family)
            assert moved.exists == result.exists
            assert moved.comparability is (result.comparability if order == [0, 1] else MIRROR[result.comparability])


class TestDistinctMaximals:
    @given(seeds, scales, st.sampled_from([2, 3]))
    def test_distinct_certified_bounds_at_every_scale(self, seed, c, size):
        rng = trial_rng(seed, 7)
        n = int(rng.integers(2, 5))
        a, b = random_incomparable_pair(rng, n)
        members = [a, b] + [random_hermitian(rng, n) for _ in range(size - 2)]
        mset = MatrixSet(members)
        for family, _, _ in [(mset, None, None)] + variants(mset, rng, c):
            bounds = distinct_maximals(family, 3, seed=seed)
            for m in bounds:
                assert certify_maximal(m, family).is_maximal
            scale = family.max_norm()
            for i in range(3):
                for j in range(i + 1, 3):
                    assert (bounds[i] - bounds[j]).norm() > DEFAULT_TOL.distinct_rel * scale


def run_cli(argv, stdin: str) -> tuple[int, dict]:
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, (json.loads(out.getvalue()) if out.getvalue() else {})


class TestRealAsComplex:
    @settings(max_examples=5)
    @given(seeds, scales)
    def test_field_tag_changes_no_verdict(self, seed, c):
        # the same real family written with the complex field tag, entries
        # [x, 0], and the rescaled family, decide every command alike
        rng = trial_rng(seed, 8)
        n = int(rng.integers(2, 5))
        a, b = real_symmetric(rng, n), real_symmetric(rng, n)
        gram = rng.standard_normal((n, n))
        psd = [HermitianMatrix(gram @ gram.T), HermitianMatrix(np.diag(rng.uniform(0.0, 1.0, n)))]
        for command, mset in (("check-order", MatrixSet([a, b])), ("infimum", MatrixSet([a, b])),
                              ("positive-mlb", MatrixSet(psd)), ("positive-glb", MatrixSet(psd)),
                              ("commuting-glb", MatrixSet(psd))):
            verdicts = []
            for family, tag in ((mset, "real"), (mset, "complex"), (MatrixSet(c * m for m in mset), "complex")):
                code, report = run_cli([command, "--json"], emit_document(MatrixSetDocument(n, tag, family)))
                assert code == 0
                verdicts.append(report["verdicts"])
            assert verdicts[0] == verdicts[1]
            flags = [{k: v for k, v in d.items() if isinstance(v, (bool, str)) or v is None} for d in verdicts]
            assert flags[1] == flags[2]


class TestScaleRepros:
    """Decisions that an absolute 1 + floor in the order and equality
    thresholds got wrong on small families."""

    EX62 = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("c", [1e-9, 1e-12])
    def test_scaled_ex62_stays_incomparable(self, c):
        a, b = (herm(c * m) for m in self.EX62)
        mset = MatrixSet([a, b])
        assert compare(a, b) is Comparability.INCOMPARABLE
        assert not finite_infimum(mset).exists
        assert not pairwise_commuting(mset)
        with pytest.raises(NotCommutingFamily):
            commuting_glb(mset)

    def test_tiny_incomparable_diagonals_have_no_infimum(self):
        mset = MatrixSet([herm(np.diag([1e-300, 0.0])), herm(np.diag([0.0, 1e-300]))])
        assert compare(mset[0], mset[1]) is Comparability.INCOMPARABLE
        assert not finite_infimum(mset).exists

    def test_seeded_pairs_keep_their_verdicts_at_1e_minus_12(self):
        flipped = 0
        for t in range(40):
            rng = trial_rng(7, t)
            if t < 20:
                a, b = random_incomparable_pair(rng, 4)
            else:
                a = random_hermitian(rng, 4)
                b = a + random_psd(rng, 4)
            flipped += compare(1e-12 * a, 1e-12 * b) is not compare(a, b)
        assert flipped == 0

    def test_distinct_maximals_of_a_pair_scaled_by_1e_minus_9(self):
        rng = trial_rng(7, 40)
        a, b = random_incomparable_pair(rng, 4)
        mset = MatrixSet([1e-9 * a, 1e-9 * b])
        bounds = distinct_maximals(mset, 2)
        assert all(certify_maximal(m, mset).is_maximal for m in bounds)
        assert (bounds[0] - bounds[1]).norm() > DEFAULT_TOL.distinct_rel * mset.max_norm()
