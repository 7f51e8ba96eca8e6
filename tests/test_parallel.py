"""Parallel sums, range-limited parts, and greatest positive pair bounds."""

import math

import numpy as np
import pytest

from loewner import (
    DEFAULT_TOL,
    Comparability,
    MatrixSet,
    ando_limit,
    certify_maximal,
    identity,
    is_lower_bound,
    is_psd,
    loewner_leq,
    parallel_sum,
    parallel_sum_family,
    positive_glb_family,
    positive_maximal_lb,
    range_nullspace,
    subspace_intersect,
    two_op_positive_glb,
    zero,
)
from loewner.cli import _cmd_parallel_sum
from loewner.documents import document_from_set
from loewner.ensembles import ensemble_run
from loewner.errors import DimensionMismatch, NotPositiveSemidefinite, SchurRangeViolation
from loewner.linalg import _range_null, spectral
from loewner.sampling import random_psd, random_unitary, trial_rng

from .conftest import (
    ando_limit_reference,
    assert_matrix_close,
    herm,
    parallel_sum_family_reference,
    record_calls,
)


class TestParallelSum:
    def test_scalar_resistor_formula(self):
        s = parallel_sum(herm([[2.0]]), herm([[3.0]]))
        assert s.mat[0, 0] == pytest.approx(6.0 / 5.0, abs=1e-14)

    def test_diagonal_entrywise(self):
        a = herm(np.diag([1.0, 2.0, 0.0]))
        b = herm(np.diag([2.0, 1.0, 0.0]))
        assert_matrix_close(parallel_sum(a, b), np.diag([2.0 / 3.0, 2.0 / 3.0, 0.0]), atol=1e-13)

    def test_self_halves(self):
        a = herm(np.diag([3.0, 0.0]))
        assert_matrix_close(parallel_sum(a, a), np.diag([1.5, 0.0]), atol=1e-13)

    def test_symmetric(self):
        rng = trial_rng(31, 0)
        for _ in range(20):
            a = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            b = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            assert_matrix_close(parallel_sum(a, b), parallel_sum(b, a), atol=1e-10)

    def test_bounded_by_both(self):
        rng = trial_rng(31, 1)
        for _ in range(20):
            a = random_psd(rng, 4)
            b = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            s = parallel_sum(a, b)
            assert is_psd(s)
            assert loewner_leq(s, a)
            assert loewner_leq(s, b)

    def test_disjoint_ranges_give_exact_zero(self):
        # both rank one on different lines: the product is rounding noise
        # and must come back as the exact zero matrix, not a full-rank speck
        a = herm([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = herm([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        s = parallel_sum(a, b)
        assert np.array_equal(s.mat, np.zeros((3, 3)))
        assert range_nullspace(s).range.dim == 0

    def test_range_is_intersection(self):
        rng = trial_rng(31, 2)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            s = parallel_sum(a, b)
            meet = subspace_intersect(
                [range_nullspace(a).range, range_nullspace(b).range]
            )
            assert range_nullspace(s).range.dim == meet.dim

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            parallel_sum(herm([[-1.0]]), herm([[1.0]]))

    def test_rejects_mismatched(self):
        with pytest.raises(DimensionMismatch):
            parallel_sum(herm([[1.0]]), herm(np.eye(2)))

    def test_family_fold(self):
        members = MatrixSet([herm([[2.0]]), herm([[3.0]]), herm([[6.0]])])
        total = parallel_sum_family(members)
        assert total.mat[0, 0] == pytest.approx(1.0, abs=1e-13)

    def test_family_singleton(self):
        a = herm(np.diag([1.0, 2.0]))
        assert_matrix_close(parallel_sum_family(MatrixSet([a])), a)


class TestAndoLimit:
    def test_full_range_returns_b(self):
        b = herm([[2.0, 1.0], [1.0, 1.0]])
        assert_matrix_close(ando_limit(herm(np.eye(2)), b), b, atol=1e-12)

    def test_oracle_corner(self):
        # the largest multiple of the first coordinate projection below
        # [[1, 1], [1, 2]] is 1/2
        a = herm([[1.0, 0.0], [0.0, 0.0]])
        b = herm([[1.0, 1.0], [1.0, 2.0]])
        assert_matrix_close(ando_limit(a, b), np.diag([0.5, 0.0]), atol=1e-12)

    def test_zero_absorbs(self):
        b = herm([[1.0, 1.0], [1.0, 2.0]])
        assert_matrix_close(ando_limit(zero(2), b), np.zeros((2, 2)), atol=1e-12)
        assert_matrix_close(ando_limit(b, zero(2)), np.zeros((2, 2)), atol=1e-12)

    def test_below_b_with_range_inside_a(self):
        rng = trial_rng(32, 0)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            part = ando_limit(a, b)
            assert is_psd(part)
            assert loewner_leq(part, b)
            p = range_nullspace(a).range.projector()
            leak = float(np.linalg.norm(part.mat - p @ part.mat @ p, 2))
            assert leak <= 1e-8 * (1.0 + b.norm())

    def test_maximal_part(self):
        # nothing strictly larger with the same range constraint fits under b
        a = herm([[1.0, 0.0], [0.0, 0.0]])
        b = herm([[1.0, 1.0], [1.0, 2.0]])
        part = ando_limit(a, b)
        bigger = part + herm([[1e-3, 0.0], [0.0, 0.0]])
        assert not loewner_leq(bigger, b)

    def test_absorption_identity(self):
        rng = trial_rng(32, 1)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            lhs = ando_limit(parallel_sum(a, b), b)
            rhs = ando_limit(a, b)
            assert (lhs - rhs).norm() <= 1e-9 * (1.0 + max(a.norm(), b.norm()))


    def test_matches_square_root_reference(self):
        for t in range(60):
            rng = trial_rng(32, 100 + t)
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            gap = float(np.abs(ando_limit(a, b).mat - ando_limit_reference(a, b).mat).max())
            assert gap <= 1e-10 * max(a.norm(), b.norm())

    @pytest.mark.parametrize(
        "da, db",
        [
            ([0.0, 1.0, 1e7], [0.0, 1e7, 1.0]),
            ([0.0, 5.0, 3.1418334e7], [0.0, 5.839961e7, 20.0]),
            ([0.0, 1.0, 1e7], [3.0, 1e7, 1.0]),
        ],
    )
    def test_ill_conditioned_commuting_pairs(self, da, db):
        # a and b share an eigenbasis, so [a]b keeps b's eigenvalues on the
        # range of a and drops the rest exactly
        u = random_unitary(trial_rng(0, 0), 3)
        a = herm(u @ np.diag(da) @ u.conj().T)
        b = herm(u @ np.diag(db) @ u.conj().T)
        expected = u @ np.diag(np.where(np.array(da) > 0.0, db, 0.0)) @ u.conj().T
        assert np.linalg.norm(ando_limit(a, b).mat - expected, 2) <= 1e-8 * b.norm()

    @pytest.mark.parametrize(
        "b",
        [
            # smallest eigenvalue -9e-10, inside the PSD margin: the Schur
            # complement 1 - |b12|^2 / b11 is -899
            [[1e-12, 3e-5], [3e-5, 1.0]],
            # a negative corner inside the PSD margin: inverted as it stands
            # it would give a complement of 1.2, above b
            [[-5e-10, 1e-5], [1e-5, 1.0]],
        ],
    )
    def test_tiny_corner_inside_the_psd_margin(self, b):
        b = herm(b)
        part = ando_limit(herm(np.diag([0.0, 1.0])), b)
        assert is_psd(part)
        assert loewner_leq(part, b)
        assert part.norm() <= 1e-9 * b.norm()

    def test_rank_one_b_off_the_range_of_a(self):
        # [a]b = 0 exactly, but b's corner 1e-12 carries rounding of about
        # 2e-16, so the complement is of either sign at about 1e-4 |b|
        v = np.array([1e-6, 1.0])
        for s in range(8):
            u = random_unitary(trial_rng(0, s), 2)
            a = herm(u @ np.diag([0.0, 1.0]) @ u.conj().T)
            b = herm(u @ np.outer(v, v) @ u.conj().T)
            part = ando_limit(a, b)
            assert is_psd(part)
            assert loewner_leq(part, b)
            assert part.norm() <= 1e-3 * b.norm()

    def test_negative_corner_beside_an_ordinary_one(self):
        # the corner's negative eigenvalue takes its coupled range direction
        # out of [a]b; the ordinary one leaves 1 - 0.5^2 on the other
        a = herm(np.diag([0.0, 0.0, 1.0, 1.0]))
        for s in range(10):
            q = random_unitary(trial_rng(1, s), 2)
            m = np.eye(4, dtype=complex)
            m[:2, :2] = q @ np.diag([1.0, -5e-10]) @ q.conj().T
            m[:2, 2:] = q @ np.diag([0.5, 1e-5])
            m[2:, :2] = m[:2, 2:].conj().T
            b = herm(m)
            part = ando_limit(a, b)
            assert loewner_leq(part, b)
            assert_matrix_close(part, np.diag([0.0, 0.0, 0.75, 0.0]), atol=1e-10)

    def test_absorption_gate_holds_off_its_own_seed(self):
        # at seed 12345, trial 147's b has rank one and eigenvalues of
        # rounding size that a square root would amplify past the rank cut
        result = ensemble_run("parallel-ando", 200, seed=12345)
        assert result["max_absorb_residual"] <= 1e-9


class TestTwoOpPositiveGlb:
    def test_exists_oracle(self):
        a = herm([[1.0, 0.0], [0.0, 0.0]])
        b = herm([[1.0, 1.0], [1.0, 2.0]])
        result = two_op_positive_glb(a, b)
        assert result.exists
        assert_matrix_close(result.glb, np.diag([0.5, 0.0]), atol=1e-12)
        assert result.comparability is Comparability.LESS_EQUAL

    def test_nonexistence_oracle(self):
        # shorted parts diag(2, 1) and diag(1, 2) on the shared plane are
        # incomparable, so no greatest positive lower bound exists
        a = herm(np.diag([1.0, 2.0, 0.0]))
        b = herm(np.diag([2.0, 1.0, 1.0]))
        result = two_op_positive_glb(a, b)
        assert not result.exists
        assert result.glb is None
        assert result.comparability is Comparability.INCOMPARABLE
        assert_matrix_close(result.ando_ab, np.diag([2.0, 1.0, 0.0]), atol=1e-12)
        assert_matrix_close(result.ando_ba, np.diag([1.0, 2.0, 0.0]), atol=1e-12)

    def test_comparable_chain(self):
        a = herm(np.diag([1.0, 1.0]))
        b = herm(np.diag([2.0, 3.0]))
        result = two_op_positive_glb(a, b)
        assert result.exists
        assert_matrix_close(result.glb, np.diag([1.0, 1.0]), atol=1e-12)

    def test_glb_dominates_positive_lower_bounds(self):
        rng = trial_rng(32, 2)
        hits = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            result = two_op_positive_glb(a, b)
            if not result.exists:
                continue
            hits += 1
            assert loewner_leq(result.glb, a)
            assert loewner_leq(result.glb, b)
            for _ in range(10):
                c = random_psd(rng, n)
                c = (0.5 / (1.0 + c.norm())) * c
                if loewner_leq(c, a) and loewner_leq(c, b):
                    assert loewner_leq(c, result.glb)
        assert hits > 0


class TestPairPsdCheck:
    """The pair routines check their members as the family routines do: on
    max(|A|, |B|), naming the first member that is not PSD."""

    @pytest.mark.parametrize("swap", [False, True])
    def test_accepts_what_the_family_route_accepts(self, swap):
        # diag(1e-3, -5e-12) is PSD within the margin of the pair's scale 1,
        # though not within that of its own norm 1e-3
        a, b = herm(np.diag([1e-3, -5e-12])), identity(2)
        if swap:
            a, b = b, a
        result = two_op_positive_glb(a, b)
        family = positive_glb_family(MatrixSet([a, b]))
        assert result.exists and family.exists
        assert_matrix_close(result.glb, family.glb, atol=1e-9)
        assert_matrix_close(ando_limit(a, b), result.ando_ab, atol=0.0)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_names_the_failing_member(self, bad):
        pair = [identity(2), identity(2)]
        pair[bad] = herm(np.diag([1.0, -1e-6]))
        for routine in (ando_limit, two_op_positive_glb):
            with pytest.raises(NotPositiveSemidefinite, match=rf"^member {bad} is not positive semidefinite$"):
                routine(*pair)


# members whose small eigenvalues fall under the rank cut of the pair's scale 1,
# though not under that of their own norm: exactly PSD, PSD within the pair's
# margin, and a multiple of the identity
PLANTED = {
    "diag(1e-3,1e-12)": np.diag([1e-3, 1e-12]),
    "diag(1e-3,-5e-12)": np.diag([1e-3, -5e-12]),
    "1e-12*I": 1e-12 * np.eye(2),
}


def _rank_verdicts(mset):
    """``loewner parallel-sum``'s rank and common range dimension of ``mset``."""
    verdicts, _, _ = _cmd_parallel_sum(None, DEFAULT_TOL, document_from_set(mset))
    return verdicts["rank"], verdicts["common_range_dim"]


class TestSplitOnTheProblemScale:
    """Pair and family members and their parallel sum are split into range and
    null space on the scale of their pair or family, so the pair route, the
    family route and the parallel sum's rank identity give one answer."""

    @pytest.mark.parametrize("name", PLANTED)
    @pytest.mark.parametrize("swap", [False, True])
    def test_planted_pairs_agree(self, name, swap):
        pair = [herm(PLANTED[name]), identity(2)]
        if swap:
            pair.reverse()
        mset = MatrixSet(pair)
        rank, common = _rank_verdicts(mset)
        assert rank == common
        result = two_op_positive_glb(*pair)
        family = positive_glb_family(mset)
        assert family.k_subspace.dim == rank
        assert np.array_equal(result.ando_ab.mat, family.tilde_set[1].mat)
        assert np.array_equal(result.glb.mat, family.glb.mat)

    def test_invertible_a_rounds_b_at_the_cut(self):
        # [a]b = b for invertible a, with b's -5e-12 rounded as every part's is
        part = ando_limit(identity(2), herm(np.diag([1e-3, -5e-12])))
        assert np.array_equal(part.mat, np.diag([1e-3, 0.0]))

    def test_one_member_scaled_down(self):
        # one member of each pair scaled by 10^-k, in both orders; at k = 9 and 10 a's
        # eigenvalues, and S's, straddle the cut; every [S]A stays below its member
        disagreements = []
        for k in (0, 3, 9, 10, 12, 14):
            for t in range(60):
                rng = trial_rng(900 + k, t)
                n = int(rng.integers(2, 7))
                a = random_psd(rng, n, int(rng.integers(1, n + 1))) * 10.0**-k
                b = random_psd(rng, n, int(rng.integers(1, n + 1)))
                for order, pair in enumerate(((a, b), (b, a))):
                    mset = MatrixSet(pair)
                    rank, common = _rank_verdicts(mset)
                    family = positive_glb_family(mset)
                    gap = two_op_positive_glb(*pair).ando_ab - family.tilde_set[1]
                    if (rank != common or gap.norm() > DEFAULT_TOL.eq_rel * mset.max_norm()
                            or _least_headroom(family, mset) < -DEFAULT_TOL.psd_rel * mset.max_norm()):
                        disagreements.append((k, t, order))
        assert disagreements == []

    def test_shorted_parts_of_a_scaled_down_pair_stay_below_their_members(self):
        # trial 55 at k = 6: [S]B was 3.0e-7 above B on scale 21.8 while K was read
        # off the eigenvectors of S, whose smallest nonzero eigenvalue is 4.6e-7
        rng = trial_rng(906, 55)
        n = int(rng.integers(2, 7))
        a = random_psd(rng, n, int(rng.integers(1, n + 1))) * 1e-6
        b = random_psd(rng, n, int(rng.integers(1, n + 1)))
        for pair in ((a, b), (b, a)):
            mset = MatrixSet(pair)
            assert _least_headroom(positive_glb_family(mset), mset) >= -DEFAULT_TOL.psd_rel * mset.max_norm()


def _least_headroom(report, mset):
    """The least eigenvalue of A - [S]A over the members A of ``mset``: negative where a part exceeds its member."""
    return min(np.linalg.eigvalsh(member.mat - part.mat)[0] for member, part in zip(mset, report.tilde_set))


# angles between two lines in C^2, on both sides of the sin(theta) cut near 2 rank_rel
LINE_ANGLES = [1e-3, 1e-5, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12]


class TestOneCommonRange:
    """K = R(A_1) ∩ ... ∩ R(A_k) is decided once, as the complement of the span of the
    members' null spaces, by the rule the maximality certificate decides its span by."""

    @pytest.mark.parametrize("theta", LINE_ANGLES)
    def test_planted_lines_give_one_answer(self, theta):
        lines = [np.array([1.0, 0.0]), np.array([math.cos(theta), math.sin(theta)])]
        mset = MatrixSet(herm(np.outer(x, x)) for x in lines)
        meet = subspace_intersect([range_nullspace(member).range for member in mset]).dim
        rank, common = _rank_verdicts(mset)
        report = positive_glb_family(mset)
        unspanned = 2 - certify_maximal(zero(2), mset).span_dim
        assert meet == rank == common == report.k_subspace.dim == unspanned == int(theta <= 1e-10)
        if report.k_subspace.dim == 0:
            assert report.exists and np.array_equal(report.glb.mat, np.zeros((2, 2)))


def _square(calls, n):
    """The recorded arguments that are single n x n matrices."""
    return [arr for arr in calls if np.shape(arr) == (n, n)]


class TestDecomposeOnce:
    """Exact LAPACK counts of the parallel-sum and shorted-operator path:
    every matrix is decomposed at most once, and not at all when its
    eigenvalues, or bounds on them, show that nothing needs rounding."""

    N = 12

    def _pd_pair(self, seed):
        rng = trial_rng(61, seed)
        return [random_psd(rng, self.N) + 0.5 * identity(self.N) for _ in range(2)]

    def test_pd_pair_takes_one_eigh_and_no_probe(self, monkeypatch):
        mset = MatrixSet(self._pd_pair(0))
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        parallel_sum_family(mset)
        assert len(calls["eigh"]) == 1
        assert [np.shape(arr) for arr in calls["eigvalsh"]] == [(2, self.N, self.N)]

    @pytest.mark.parametrize("rank", [N, N - 3])
    def test_ando_limit_takes_no_eigh_of_an_invertible_a(self, monkeypatch, rank):
        a, _ = self._pd_pair(1)
        b = random_psd(trial_rng(61, 2), self.N, rank)
        calls = record_calls(monkeypatch, np.linalg, "eigh")
        part = ando_limit(a, b)
        # b itself is decomposed only when its spectrum reaches the cut
        assert [arr is b.mat for arr in calls["eigh"]] == ([] if rank == self.N else [True])
        assert np.array_equal(part.mat, b.mat) == (rank == self.N)

    def test_two_op_positive_glb_decomposes_s_once(self, monkeypatch):
        rng = trial_rng(61, 3)
        s = random_psd(rng, self.N, self.N - 3)
        sr = s + random_psd(rng, self.N)
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        result = two_op_positive_glb(s, sr)
        assert result.exists
        assert [arr is s.mat for arr in _square(calls["eigh"], self.N)] == [True]
        # the Schur complement on the range of s is probed, not decomposed
        assert len(_square(calls["eigh"], self.N - 3)) == 0
        assert len(_square(calls["eigvalsh"], self.N - 3)) == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_family_with_a_singular_member_takes_two_eigh_per_step(self, monkeypatch, k):
        rng = trial_rng(61, 4 + k)
        s = random_psd(rng, self.N, self.N - 3)
        mset = MatrixSet([s] + [s + random_psd(rng, self.N) for _ in range(k - 1)])
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        report = positive_glb_family(mset)
        assert report.exists and report.k_subspace.dim == self.N - 3
        # one eigh of each partial sum A + B and one of each product, none of S; K takes one
        # of the singular member, the invertible ones are split on their cached spectra
        assert len(_square(calls["eigh"], self.N)) == 2 * (k - 1) + 1
        # a product whose members' bound reaches the cut is decomposed without a probe;
        # each [S]A's Schur complement on K is probed, not decomposed
        assert _square(calls["eigvalsh"], self.N) == []
        assert len(_square(calls["eigvalsh"], self.N - 3)) == k
        assert _square(calls["eigh"], self.N - 3) == []


class TestAgainstTheEighAlwaysFold:
    """The fold decides on eigenvalues before it decomposes; the reference
    decomposes and rounds every product, as the fold once did."""

    def test_seeded_families(self):
        # full rank, where the members' bound skips the rounding; rank-deficient, where
        # every product is decomposed; and full rank over up to 8 decades, where it is probed
        for t in range(90):
            rng = trial_rng(62, t)
            n, k = int(rng.integers(1, 31)), int(rng.integers(2, 6))
            ranks = [n if t % 3 != 1 else int(rng.integers(1, n + 1)) for _ in range(k)]
            decades = [int(rng.integers(0, 9)) if t % 3 == 2 else 0 for _ in range(k)]
            mset = MatrixSet(random_psd(rng, n, r) * 10.0**-d for r, d in zip(ranks, decades))
            scale = mset.max_norm()
            s = parallel_sum_family(mset)
            reference, kept = parallel_sum_family_reference(mset)
            assert float(np.abs(s.mat - reference.mat).max()) <= DEFAULT_TOL.eq_rel * scale
            assert _range_null(s, DEFAULT_TOL, scale).range.dim == kept

    def test_rounding_verdict_is_eighs_at_the_cut(self):
        # b's smallest eigenvalue planted on the cut, where eigvalsh and eigh often fall on
        # either side of it: [I]b is rounded exactly when eigh's eigenvalue is at or below it
        n, cut = 6, DEFAULT_TOL.rank_rel * 2.0
        for s in range(20):
            u = random_unitary(trial_rng(64, s), n)
            b = herm(u @ np.diag(np.concatenate([[cut], np.linspace(0.5, 2.0, n - 1)])) @ u.conj().T)
            rounds = np.linalg.eigh(b.mat)[0][0] <= DEFAULT_TOL.rank_rel * b.norm()
            assert np.array_equal(ando_limit(identity(n), b).mat, b.mat) != rounds

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 10.0])
    def test_smallest_eigenvalue_near_the_cut(self, c):
        # a commuting PD pair whose parallel sum has smallest eigenvalue c times the cut
        n, cut = 6, DEFAULT_TOL.rank_rel * 2.0
        rest = np.linspace(0.5, 2.0, n - 1)
        for s in range(5):
            u = random_unitary(trial_rng(63, s), n)
            pair = [herm(u @ np.diag(np.concatenate([[2.0 * c * cut], d])) @ u.conj().T)
                    for d in (rest, rest[::-1])]
            mset = MatrixSet(pair)
            total = parallel_sum_family(mset)
            _, kept = parallel_sum_family_reference(mset)
            assert _range_null(total, DEFAULT_TOL, mset.max_norm()).range.dim == kept
            if c != 1.0:
                assert kept == (n - 1 if c < 1.0 else n)
            # the smallest eigenvalue is rounded to exact zero exactly when the reference rounds it
            assert (spectral(total)[0][0] == 0.0) == (kept < n)


def _planted(eps, theta):
    """A = diag(0, 1, 1) and B = [[eps, c, 0], [c, 1.25, 0], [0, 0, 1]] with c^2 = theta eps 1.25,
    whose exact [A]B is diag(0, 1.25 (1 - theta), 1)."""
    c = math.sqrt(theta * eps * 1.25)
    return np.diag([0.0, 1.0, 1.0]), np.array([[eps, c, 0.0], [c, 1.25, 0.0], [0.0, 0.0, 1.0]])


PLANTED_CORNERS = [(10.0 ** e, theta) for e in range(-16, -8) for theta in (0.1, 0.5, 0.9)]


class TestOneCornerRule:
    """A corner direction under the cut whose coupling is real, not the computed null
    space's own error, is subtracted, never dropped, so [A]B stays below B."""

    @pytest.mark.parametrize(
        "a, b, exact",
        [
            (np.diag([0.0, 1.0]), [[1e-14, math.sqrt(5e-15)], [math.sqrt(5e-15), 1.25]], np.diag([0.0, 0.75])),
            (np.diag([0.0, 0.0, 1.0]), [[1.0, 0.0, 0.0], [0.0, 9e-11, math.sqrt(4.5e-11)],
                                        [0.0, math.sqrt(4.5e-11), 1.0]], np.diag([0.0, 0.0, 0.5])),
        ],
    )
    def test_corner_under_the_cut_with_a_real_coupling(self, a, b, exact):
        a, b = herm(a), herm(b)
        scale = max(a.norm(), b.norm())
        part = ando_limit(a, b)
        assert_matrix_close(part, exact, atol=1e-12 * scale)
        assert np.linalg.eigvalsh(b.mat - part.mat)[0] >= -DEFAULT_TOL.psd_rel * scale
        result = two_op_positive_glb(a, b)
        assert result.exists and is_lower_bound(result.glb, MatrixSet([a, b]))

    @pytest.mark.xfail(strict=True, reason="the Davis-Kahan term on A's gap 1e-8 drops a real coupling")
    def test_corner_under_the_cut_beside_a_small_eigenvalue_of_a(self):
        # A's eigh is exact here, yet its eigen-gap 1e-8 widens the null-space error the rule allows
        # to 2.2e-6, so the coupling 7.1e-8 is dropped and [A]B = diag(0, 1.25, 1) exceeds B by 7.1e-8
        c = math.sqrt(5e-15)
        a, b = herm(np.diag([0.0, 1e-8, 1.0])), herm([[1e-14, c, 0.0], [c, 1.25, 0.0], [0.0, 0.0, 1.0]])
        part = ando_limit(a, b)
        assert np.linalg.eigvalsh(b.mat - part.mat)[0] >= -DEFAULT_TOL.psd_rel * 1.25
        assert_matrix_close(part, np.diag([0.0, 0.75, 1.0]), atol=1e-12 * 1.25)

    @pytest.mark.parametrize("eps, theta", PLANTED_CORNERS)
    def test_planted_part_is_exact(self, eps, theta):
        a, b = _planted(eps, theta)
        part = ando_limit(herm(a), herm(b))
        assert_matrix_close(part, np.diag([0.0, 1.25 * (1.0 - theta), 1.0]), atol=DEFAULT_TOL.eq_rel * 1.25)

    @pytest.mark.parametrize("eps, theta", PLANTED_CORNERS)
    def test_rotated_planted_part_stays_below_b(self, eps, theta):
        # under rotation B's rounding is of the size of eps, so only the order is asserted
        a0, b0 = _planted(eps, theta)
        for s in range(8):
            u = random_unitary(trial_rng(17, s), 3)
            a, b = (herm(u @ m @ u.conj().T) for m in (a0, b0))
            part = ando_limit(a, b)
            assert np.linalg.eigvalsh(b.mat - part.mat)[0] >= -DEFAULT_TOL.psd_rel * 1.25
            assert part.min_eigenvalue() >= -DEFAULT_TOL.psd_rel * 1.25

    @pytest.mark.xfail(strict=True, raises=SchurRangeViolation,
                       reason="A's shifted corner on B's minimizing line falls under A's rounding")
    def test_positive_mlb_of_the_rotated_pairs_at_eps_1e_minus_16(self):
        # 4 of these 16 pairs raise: A's corner u*(A - gamma)u comes out near -2e-17 while its
        # 6.3e-9 coupling is real, so the direction fails admission
        for theta in (0.5, 0.9):
            a0, b0 = _planted(1e-16, theta)
            for s in range(8):
                u = random_unitary(trial_rng(17, s), 3)
                mset = MatrixSet(herm(u @ m @ u.conj().T) for m in (a0, b0))
                assert is_lower_bound(positive_maximal_lb(mset), mset)

    @pytest.mark.parametrize("eps, theta", [(e, t) for e, t in PLANTED_CORNERS if t >= 0.2])
    def test_positive_mlb_and_ando_limit_give_one_answer(self, eps, theta):
        # for theta >= 0.2 [A]B <= A is the greatest positive lower bound of the pair, so the
        # positive maximal lower bound, which splits its first level on the same corner, is it
        a, b = (herm(m) for m in _planted(eps, theta))
        assert_matrix_close(positive_maximal_lb(MatrixSet([a, b])), ando_limit(a, b), atol=1e-12 * 1.25)
