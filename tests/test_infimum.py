"""Finite infima, commuting greatest lower bounds, the positive recursion,
maximal extensions, distinctness, and family positive bounds."""

import sys
import tracemalloc

import numpy as np
import pytest

from loewner import (
    DEFAULT_TOL,
    MatrixSet,
    certify_maximal,
    commutant_basis,
    commuting_glb,
    commuting_glb_two_routes,
    distinct_maximals,
    extend_to_maximal,
    finite_infimum,
    fixture,
    identity,
    is_lower_bound,
    loewner_leq,
    pairwise_commuting,
    parallel_sum_family,
    positive_glb_family,
    positive_maximal_lb,
    simultaneous_eigenbasis,
    zero,
)
from loewner.errors import (
    DimensionMismatch,
    InfimumExists,
    NotCommutingFamily,
    NotLowerBound,
    NotPositiveSemidefinite,
    SchurRangeViolation,
    UsageError,
)
from loewner.infimum import _finite_infimum, _positive_mlb
from loewner.sampling import (
    random_commuting_family,
    random_hermitian,
    random_incomparable_pair,
    random_psd,
    random_unitary,
    trial_rng,
)

from .conftest import (
    assert_matrix_close,
    certify_maximal_reference,
    commutant_kron,
    finite_infimum_reference,
    herm,
    is_psd_on,
    positive_mlb_reference,
    record_calls,
)


EX_PAIR = MatrixSet([herm([[1.0, 0.0], [0.0, 0.0]]), herm([[1.0, 1.0], [1.0, 2.0]])])


class TestFiniteInfimum:
    def test_minimum_member_wins(self):
        mset = MatrixSet([identity(2), 2.0 * identity(2), herm(np.diag([1.0, 3.0]))])
        report = finite_infimum(mset)
        assert report.exists
        assert report.minimizing_index == 0
        assert_matrix_close(report.infimum, np.eye(2))

    def test_incomparable_pair_has_none(self):
        rng = trial_rng(51, 0)
        for _ in range(10):
            a, b = random_incomparable_pair(rng, 3)
            assert not finite_infimum(MatrixSet([a, b])).exists

    def test_first_of_equal_members_wins(self):
        mset = MatrixSet([identity(2), identity(2)])
        assert finite_infimum(mset).minimizing_index == 0

    def test_singleton(self):
        report = finite_infimum(MatrixSet([herm([[5.0]])]))
        assert report.exists
        assert report.minimizing_index == 0

    @pytest.mark.parametrize("scale", [1e-200, 1e-9, 1.0, 1e9])
    def test_matches_reference_scan(self, scale):
        # random families, families with an infimum, duplicates, and members
        # apart by margin-sized shifts, at scales the diagonal cut must follow
        for t in range(120):
            rng = trial_rng(56, t)
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            base = random_hermitian(rng, n)
            if t % 4 == 0:
                members = [random_hermitian(rng, n) for _ in range(k)]
            elif t % 4 == 1:
                members = [base + random_psd(rng, n, int(rng.integers(0, n + 1))) for _ in range(k)]
            elif t % 4 == 2:
                members = [base] * k + [base + random_psd(rng, n, 1)]
            else:
                shift = [1e-9, 0.5e-9, 2e-9, 1e-12][t % 16 // 4] * base.norm()
                members = [base + (shift * (j % 3 - 1)) * herm(np.diag(rng.uniform(0.0, 1.0, n))) for j in range(k)]
            mset = MatrixSet(scale * m for m in members)
            report = finite_infimum(mset)
            assert (report.exists, report.minimizing_index) == finite_infimum_reference(mset)

    @pytest.mark.parametrize("name", ["ex3.2", "ex4.3", "ex4.7", "ex4.8i", "ex4.8ii"])
    def test_fixtures_and_tilde_sets_match_reference_scan(self, name):
        mset = fixture(name, 40).document.matrix_set
        report = finite_infimum(mset)
        assert (report.exists, report.minimizing_index) == finite_infimum_reference(mset)
        if mset.min_eigenvalue() >= 0.0:
            tilde = positive_glb_family(mset).tilde_set
            report = _finite_infimum(tilde, DEFAULT_TOL, mset.max_norm())
            assert (report.exists, report.minimizing_index) == finite_infimum_reference(tilde, scale=mset.max_norm())

    def test_one_stacked_scan_for_a_family_of_many(self, monkeypatch):
        # the diagonal cut leaves one candidate of the 2002 members, and its
        # gaps take one eigvalsh per doubling batch, not one per member
        mset = fixture("ex4.8ii", 1000).document.matrix_set
        mset.eigenvalues()
        calls = record_calls(monkeypatch, np.linalg, "eigvalsh")
        assert not finite_infimum(mset).exists
        assert len(calls["eigvalsh"]) <= 12


class TestCommuting:
    def test_pairwise_commuting_flags(self):
        diag = MatrixSet([herm(np.diag([1.0, 2.0])), herm(np.diag([2.0, 1.0]))])
        assert pairwise_commuting(diag)
        assert not pairwise_commuting(EX_PAIR)

    def test_joint_basis_diagonalizes_degenerate_family(self):
        a = herm(np.diag([1.0, 1.0, 2.0]))
        b = herm([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        basis = simultaneous_eigenbasis(MatrixSet([a, b]))
        for member in (a, b):
            core = basis.conj().T @ member.mat @ basis
            off = core - np.diag(np.diagonal(core))
            assert float(np.abs(off).max()) <= 1e-10

    def test_glb_of_diagonals_is_entrywise_min(self):
        mset = MatrixSet(
            [herm(np.diag([1.0, 4.0, 2.0])), herm(np.diag([3.0, 1.0, 2.0]))]
        )
        assert_matrix_close(commuting_glb(mset), np.diag([1.0, 1.0, 2.0]), atol=1e-12)

    def test_two_routes_agree(self):
        rng = trial_rng(51, 1)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            family = random_commuting_family(rng, n, int(rng.integers(2, 5)))
            folded, joint = commuting_glb_two_routes(family)
            assert (folded - joint).norm() <= 1e-10 * (1.0 + family.max_norm())

    def test_glb_is_greatest_commuting_lower_bound(self):
        rng = trial_rng(51, 2)
        family = random_commuting_family(rng, 4, 3)
        g = commuting_glb(family)
        assert is_lower_bound(g, family)
        for member in family:
            comm = g.mat @ member.mat - member.mat @ g.mat
            assert float(np.linalg.norm(comm, 2)) <= 1e-9 * (1.0 + family.max_norm())
        basis = simultaneous_eigenbasis(family)
        diag_min = np.stack(
            [np.real(np.diagonal(basis.conj().T @ m.mat @ basis)) for m in family]
        ).min(axis=0)
        for _ in range(30):
            drop = np.abs(rng.standard_normal(4))
            candidate = herm((basis * (diag_min - drop)) @ basis.conj().T)
            assert loewner_leq(candidate, g)

    def test_rejects_noncommuting(self):
        with pytest.raises(NotCommutingFamily):
            commuting_glb(EX_PAIR)

    def test_commutant_dimensions(self):
        # distinct eigenvalues: the commutant is the diagonal algebra
        assert len(commutant_basis(MatrixSet([herm(np.diag([1.0, 2.0]))]))) == 2
        # scalars only
        assert len(commutant_basis(EX_PAIR)) == 1
        # a single identity constrains nothing
        assert len(commutant_basis(MatrixSet([identity(2)]))) == 4

    def test_commutant_elements_commute(self):
        for element in commutant_basis(EX_PAIR):
            for member in EX_PAIR:
                gap = element @ member.mat - member.mat @ element
                assert float(np.abs(gap).max()) <= 1e-10


def _repeated_commuting_family(rng, n: int, size: int) -> MatrixSet:
    """Members U diag(d_i) U* whose joint eigenvalue tuples repeat: the
    coordinates are drawn into at most max(2, n/2) groups that share every
    d_i.  The first two coordinates lie in different groups, so the family
    is not scalar; a scalar family built this way is scalar only up to
    rounding, and its commutant dimension is then decided by the noise."""
    u = random_unitary(rng, n)
    groups = rng.integers(0, max(2, n // 2), n)
    groups[:2] = (0, 1)
    diagonals = rng.standard_normal((size, n))[:, groups]
    return MatrixSet(herm((u * d) @ u.conj().T) for d in diagonals)


def _commutant_cases():
    rng = trial_rng(53, 0)
    cases = []
    for t in range(12):
        n = int(rng.integers(2, 7))
        size = int(rng.integers(1, 4))
        cases.append((f"repeated-joint-{t}-n{n}-k{size}", _repeated_commuting_family(rng, n, size)))
    for n in range(2, 7):
        cases.append((f"noncommuting-pair-n{n}", MatrixSet([random_hermitian(rng, n) for _ in range(2)])))
        u = random_unitary(rng, n)
        single = herm((u * np.arange(1.0, n + 1.0)) @ u.conj().T)
        cases.append((f"distinct-single-n{n}", MatrixSet([single])))
        cases.append((f"identity-n{n}", MatrixSet([identity(n)])))
        cases.append((f"zero-n{n}", MatrixSet([zero(n)])))
    cases.append(("ex6.2", fixture("ex6.2").document.matrix_set))
    return cases


class TestCommutantOracle:
    """The block solve in a combination's eigenspaces against the full
    Kronecker solve, on families whose commutants differ in structure."""

    @pytest.mark.parametrize("mset", [pytest.param(m, id=name) for name, m in _commutant_cases()])
    def test_matches_kronecker_oracle(self, mset):
        basis = commutant_basis(mset)
        assert len(basis) == len(commutant_kron(mset))
        for element in basis:
            for member in mset:
                gap = float(np.linalg.norm(member.mat @ element - element @ member.mat, 2))
                bound = 1.0 + member.norm() * float(np.linalg.norm(element, 2))
                assert gap <= DEFAULT_TOL.eq_rel * bound
        stacked = np.stack([element.ravel() for element in basis], axis=1)
        assert np.linalg.matrix_rank(stacked) == len(basis)

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e6, 1e12])
    def test_scalar_up_to_rounding_keeps_full_commutant(self, scale):
        # c_i U U* is c_i I only up to rounding; its commutators are noise
        # of order eps * c_i, which the rank cut must not count
        rng = trial_rng(57, 0)
        for _ in range(5):
            u = random_unitary(rng, 2)
            pair = MatrixSet(herm(scale * c * (u @ u.conj().T)) for c in rng.uniform(0.5, 2.0, 2))
            assert len(commutant_basis(pair)) == 4

    def test_peak_memory_of_a_commuting_family(self):
        # The dense Kronecker system of this family, with the full left
        # singular vectors of its SVD, needs several hundred MB.
        family = _repeated_commuting_family(trial_rng(54, 0), 30, 3)
        tracemalloc.start()
        try:
            basis = commutant_basis(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) > 30
        assert peak < 32e6

    def test_peak_memory_of_many_members(self):
        # ex3.2 at N = 48 has 48 members of size 48: their stacked block
        # system needs 167 MiB, one member's block at a time 7 MiB
        family = fixture("ex3.2", 48).document.matrix_set
        tracemalloc.start()
        try:
            basis = commutant_basis(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) == 48
        assert peak < 16e6


class TestPositiveMaximalLb:
    def test_oracle(self):
        m = positive_maximal_lb(EX_PAIR)
        assert_matrix_close(m, np.diag([0.5, 0.0]), atol=1e-12)

    def test_one_dimensional_base(self):
        m = positive_maximal_lb(MatrixSet([herm([[3.0]]), herm([[2.0]])]))
        assert_matrix_close(m, [[2.0]])

    def test_seeded_properties(self):
        rng = trial_rng(52, 0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            members = [
                random_psd(rng, n, rank=int(rng.integers(max(1, n - 2), n + 1)))
                for _ in range(int(rng.integers(2, 5)))
            ]
            mset = MatrixSet(members)
            m = positive_maximal_lb(mset)
            scale = 1.0 + mset.max_norm()
            assert m.min_eigenvalue() >= -1e-9 * scale
            assert is_lower_bound(m, mset)
            assert certify_maximal(m, mset).is_maximal

    def test_rejects_indefinite_member(self):
        with pytest.raises(NotPositiveSemidefinite):
            positive_maximal_lb(MatrixSet([herm(np.diag([1.0, -1.0]))]))

    def test_split_work_per_level(self, monkeypatch):
        # Per level one stacked eigvalsh over the members (the first is the
        # PSD precheck's, reused) and one eigh of the minimizing member; the
        # Schur complements, the reflector and the lift need no SVD and no
        # matrix 2-norm.
        counts = {"svd": 0, "norm2": 0, "eigh": 0, "eigvalsh": 0}
        svd, norm, eigh, eigvalsh = np.linalg.svd, np.linalg.norm, np.linalg.eigh, np.linalg.eigvalsh

        def counting(kind, fn):
            def wrapped(*args, **kwargs):
                counts[kind] += 1
                return fn(*args, **kwargs)
            return wrapped

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                counts["norm2"] += 1
            return norm(x, ord, *args, **kwargs)

        n = 10
        mset = MatrixSet(random_psd(trial_rng(56, 0), n) for _ in range(3))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        positive_maximal_lb(mset)
        assert counts == {"svd": 0, "norm2": 0, "eigh": n - 1, "eigvalsh": n - 1}

    def test_agrees_with_reference_recursion(self):
        # every n from 1 to 30, k from 1 to 4 and ranks n - 2 to n, over
        # complex, real, exactly diagonal and repeated-eigenvalue families
        rng = trial_rng(57, 0)
        for n in range(1, 31):
            size = 1 + n % 4
            kind = (n // 4) % 4
            members = []
            for _ in range(size):
                rank = int(rng.integers(max(1, n - 2), n + 1))
                if kind == 0:
                    members.append(random_psd(rng, n, rank))
                elif kind == 1:
                    g = rng.standard_normal((n, rank))
                    members.append(herm(g @ g.T))
                else:
                    d = np.zeros(n)
                    d[:rank] = rng.uniform(0.5, 2.0, rank) if kind == 2 else rng.integers(1, 3, rank)
                    d = rng.permutation(d)
                    u = np.eye(n) if kind == 2 else random_unitary(rng, n)
                    members.append(herm((u * d) @ u.conj().T))
            mset = MatrixSet(members)
            m = positive_maximal_lb(mset)
            assert_matrix_close(m, positive_mlb_reference(mset), atol=1e-12 * (1.0 + mset.max_norm()))
            cert = certify_maximal(m, mset)
            assert cert.is_maximal
            assert cert == certify_maximal_reference(m, mset)

    def test_range_violation_names_the_member(self):
        # a planted first-level spectrum puts gamma = 0 at member 0, so
        # member 1, which is not PSD, has a zero corner on e1 and a coupling
        # of 0.5: it leaves the corner's range
        mset = MatrixSet([herm(np.diag([0.0, 1.0])), herm([[0.0, 0.5], [0.5, 1.0]])])
        with pytest.raises(SchurRangeViolation, match="member 1"):
            _positive_mlb(mset.stack, np.array([[0.0, 1.0], [0.5, 1.0]]), DEFAULT_TOL)

    def test_noise_level_corner_splits(self):
        # member 1 is PSD with a corner of 1e-14 on e1, under the noise floor
        # of its norm, and a coupling of sqrt(5e-15) far above the rank cut
        # but within what positivity allows; it splits on its corner
        eps = 5e-15
        mset = MatrixSet([
            herm(np.diag([0.0, 1.0])),
            herm([[2 * eps, np.sqrt(eps)], [np.sqrt(eps), 1.0 + eps]]),
        ])
        m = positive_maximal_lb(mset)
        assert_matrix_close(m, np.diag([0.0, 0.5]), atol=1e-12)
        assert certify_maximal(m, mset).is_maximal

    def test_stack_depth_does_not_grow_with_dimension(self):
        rng = trial_rng(55, 0)
        n = 80
        pair = MatrixSet([random_psd(rng, n), random_psd(rng, n)])
        family = MatrixSet([random_psd(rng, n, rank=n - 1), random_psd(rng, n), random_psd(rng, n)])
        lower = (min(m.min_eigenvalue() for m in family) - 1.0) * identity(n)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            bound = positive_maximal_lb(pair)
            extended = extend_to_maximal(lower, family)
        finally:
            sys.setrecursionlimit(limit)
        assert is_lower_bound(bound, pair)
        assert is_lower_bound(extended, family) and loewner_leq(lower, extended)


class TestExtendToMaximal:
    def test_extends_zero_for_example_pair(self):
        extended = extend_to_maximal(zero(2), EX_PAIR)
        assert_matrix_close(extended, np.diag([0.5, 0.0]), atol=1e-12)

    def test_maximal_bound_is_fixed_point(self):
        m = herm(np.diag([0.5, 0.0]))
        assert_matrix_close(extend_to_maximal(m, EX_PAIR), m, atol=1e-10)

    def test_dominates_start(self):
        rng = trial_rng(52, 1)
        for _ in range(15):
            a, b = random_incomparable_pair(rng, 3)
            mset = MatrixSet([a, b])
            gamma = min(member.min_eigenvalue() for member in mset)
            start = (gamma - 1.0) * identity(3)
            extended = extend_to_maximal(start, mset)
            assert loewner_leq(start, extended)
            assert certify_maximal(extended, mset).is_maximal

    def test_rejects_non_lower_bound(self):
        with pytest.raises(NotLowerBound):
            extend_to_maximal(identity(2) * 5.0, EX_PAIR)

    def test_rejects_other_dimension(self):
        with pytest.raises(DimensionMismatch, match="^dimensions differ: 3 vs 2$"):
            extend_to_maximal(identity(3), EX_PAIR)

    def test_one_spectrum_of_the_gaps(self, monkeypatch):
        # the lower-bound verdict and the first level of the recursion share
        # one batched eigvalsh of the gaps A - L
        n = 6
        mset = MatrixSet(random_hermitian(trial_rng(52, 2), n) for _ in range(3))
        start = (mset.min_eigenvalue() - 1.0) * identity(n)
        calls = record_calls(monkeypatch, np.linalg, "eigvalsh")
        extend_to_maximal(start, mset)
        assert [np.shape(arr) for arr in calls["eigvalsh"]].count((3, n, n)) == 1


class TestDistinctMaximals:
    def test_three_for_example_pair(self):
        bounds = distinct_maximals(EX_PAIR, 3, seed=7)
        assert len(bounds) == 3
        scale = 1.0 + EX_PAIR.max_norm()
        for i in range(3):
            assert certify_maximal(bounds[i], EX_PAIR).is_maximal
            for j in range(i + 1, 3):
                assert (bounds[i] - bounds[j]).norm() > 1e-6 * scale

    def test_three_member_family(self):
        rng = trial_rng(53, 0)
        a, b = random_incomparable_pair(rng, 3)
        c = random_hermitian(rng, 3) + 2.0 * identity(3)
        mset = MatrixSet([a, b, c])
        if finite_infimum(mset).exists:
            pytest.skip("sampled family unexpectedly has an infimum")
        bounds = distinct_maximals(mset, 3, seed=(53, 1))
        assert len(bounds) == 3

    def test_rejects_small_count(self):
        with pytest.raises(UsageError):
            distinct_maximals(EX_PAIR, 1)

    def test_rejects_when_infimum_exists(self):
        mset = MatrixSet([identity(2), 2.0 * identity(2)])
        with pytest.raises(InfimumExists):
            distinct_maximals(mset, 2)

    def test_seed_reproducibility(self):
        first = distinct_maximals(EX_PAIR, 3, seed=9)
        second = distinct_maximals(EX_PAIR, 3, seed=9)
        for x, y in zip(first, second):
            assert np.array_equal(x.mat, y.mat)


class TestPositiveGlbFamily:
    def test_example_pair(self):
        report = positive_glb_family(EX_PAIR)
        assert report.exists
        assert report.k_subspace.dim == 1
        assert_matrix_close(report.glb, np.diag([0.5, 0.0]), atol=1e-10)
        assert report.minimizing_index == 1

    def test_comparable_family(self):
        mset = MatrixSet([herm(np.diag([2.0, 3.0])), identity(2)])
        report = positive_glb_family(mset)
        assert report.exists
        assert_matrix_close(report.glb, np.eye(2), atol=1e-10)

    def test_incomparable_full_rank_pair_has_none(self):
        # full-rank commuting diagonals keep their incomparability after
        # compression, so no greatest positive lower bound exists
        mset = MatrixSet([herm(np.diag([1.0, 2.0])), herm(np.diag([2.0, 1.0]))])
        report = positive_glb_family(mset)
        assert not report.exists
        assert report.glb is None

    def test_contraction_and_projection_oracle(self):
        a = herm([[0.5, 0.25], [0.25, 0.5]])
        p = herm(np.diag([1.0, 0.0]))
        report = positive_glb_family(MatrixSet([a, p]))
        assert report.exists
        assert_matrix_close(report.glb, np.diag([0.375, 0.0]), atol=1e-12)

    def test_glb_is_positive_lower_bound(self):
        rng = trial_rng(54, 0)
        hits = 0
        for _ in range(30):
            n = int(rng.integers(2, 5))
            mset = MatrixSet(
                [random_psd(rng, n, rank=int(rng.integers(1, n + 1))) for _ in range(3)]
            )
            report = positive_glb_family(mset)
            if not report.exists:
                continue
            hits += 1
            assert is_psd_on(report.glb, mset.max_norm())
            assert is_lower_bound(report.glb, mset)
        assert hits > 0

    def test_rejects_indefinite_member(self):
        with pytest.raises(NotPositiveSemidefinite):
            positive_glb_family(MatrixSet([herm(np.diag([1.0, -1.0]))]))

    def test_one_eigh_of_the_parallel_sum(self, monkeypatch):
        # S is decomposed once, as the fold's last product; K, which serves every [S]A,
        # is split from the members' own splits and takes no eigh of S
        mset = MatrixSet(random_psd(trial_rng(54, 1), 5, rank=4) for _ in range(3))
        calls = record_calls(monkeypatch, np.linalg, "eigh")
        report = positive_glb_family(mset)
        assert sum(np.array_equal(arr, report.s_parallel.mat) for arr in calls["eigh"]) == 0
        # one eigh of each partial sum A + B and one of each product, and one of each
        # singular member, which keeps it: a second call decomposes only the fold
        fold = 2 * (len(mset) - 1)
        assert [np.shape(arr) for arr in calls["eigh"]].count((5, 5)) == fold + len(mset)
        positive_glb_family(mset)
        assert [np.shape(arr) for arr in calls["eigh"]].count((5, 5)) == 2 * fold + len(mset)


class TestFamilyPsdCheck:
    """The check on cached spectra names the member a loop over the members,
    each decided on the family scale, names first, in each of the three
    routines that require a PSD family."""

    @pytest.mark.parametrize("routine", [positive_maximal_lb, positive_glb_family, parallel_sum_family])
    def test_names_first_failing_member(self, routine):
        for t in range(10):
            rng = trial_rng(62, t)
            n = int(rng.integers(1, 6))
            members = [random_psd(rng, n, rank=int(rng.integers(0, n + 1))) for _ in range(4)]
            scale = max(m.norm() for m in members)
            # push some members below zero, a few of them barely past the margin
            for i in rng.choice(4, size=int(rng.integers(1, 4)), replace=False):
                depth = [1e-3, 2e-9 * scale][int(rng.integers(0, 2))]
                members[i] = members[i] - (members[i].min_eigenvalue() + depth) * identity(n)
            scale = max(m.norm() for m in members)
            first = next(i for i, m in enumerate(members) if not is_psd_on(m, scale))
            with pytest.raises(NotPositiveSemidefinite, match=rf"^member {first} is not positive semidefinite$"):
                routine(MatrixSet(members))
