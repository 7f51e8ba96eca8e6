"""Core Hermitian arithmetic, spectral helpers, subspaces, and order tests."""

import dataclasses

import numpy as np
import pytest

from loewner import (
    Comparability,
    HermitianMatrix,
    MatrixSet,
    Subspace,
    Tolerances,
    compare,
    hermitize,
    identity,
    is_psd,
    loewner_leq,
    matrix_abs,
    pinv,
    polar_abs,
    range_nullspace,
    spectral,
    sqrt_psd,
    subspace_intersect,
    zero,
)
from loewner.errors import (
    AmbientMismatch,
    DimensionMismatch,
    NonSquare,
    NotHermitianWithinTolerance,
    NotPositiveSemidefinite,
)
from loewner import linalg
from loewner.linalg import _sym, fix_column_phases
from loewner.sampling import random_hermitian, random_psd, random_unitary, trial_rng

from .conftest import assert_matrix_close, contains_vector, fix_column_phases_reference, herm, record_calls


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rel == 1e-10
        assert tol.psd_rel == 1e-9
        assert tol.eq_rel == 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerances(psd_rel=-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Tolerances(rank_rel=float("nan"))

    def test_as_dict(self):
        assert Tolerances().as_dict() == {
            "rank_rel": 1e-10,
            "psd_rel": 1e-9,
            "eq_rel": 1e-8,
        }

    def test_three_settable_fields(self):
        assert [f.name for f in dataclasses.fields(Tolerances)] == ["rank_rel", "psd_rel", "eq_rel"]

    @pytest.mark.parametrize("name", ["noise_rel", "cluster_rel", "two_route_rel", "distinct_rel", "orthonormal_rel"])
    def test_fixed_thresholds_are_not_settable(self, name):
        with pytest.raises(TypeError):
            Tolerances(**{name: 1.0})

    def test_fixed_values(self):
        tol = Tolerances(rank_rel=1.0, psd_rel=1.0, eq_rel=1.0)
        assert tol.noise_rel == 64 * np.finfo(np.float64).eps
        assert (tol.cluster_rel, tol.two_route_rel, tol.distinct_rel, tol.orthonormal_rel) == (1e-5, 1e-10, 1e-6, 1e-6)



class TestHermitianMatrix:
    def test_exact_symmetrization(self):
        m = HermitianMatrix([[1.0, 2.0 + 1.0j], [2.0 - 0.5j, 3.0]])
        assert np.array_equal(m.mat, m.mat.conj().T)

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSquare):
            HermitianMatrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(NonSquare):
            HermitianMatrix(np.zeros((0, 0)))

    def test_frozen_storage(self):
        m = herm([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            m.mat[0, 0] = 5.0

    def test_norm_is_spectral(self):
        m = herm([[0.0, 3.0], [3.0, 0.0]])
        assert m.norm() == pytest.approx(3.0)
        assert m.min_eigenvalue() == pytest.approx(-3.0)

    def test_arithmetic(self):
        a = herm([[1.0, 0.0], [0.0, 2.0]])
        b = herm([[0.0, 1.0], [1.0, 0.0]])
        assert_matrix_close(a + b, [[1.0, 1.0], [1.0, 2.0]])
        assert_matrix_close(a - b, [[1.0, -1.0], [-1.0, 2.0]])
        assert_matrix_close(-a, [[-1.0, 0.0], [0.0, -2.0]])
        assert_matrix_close(2.0 * a, [[2.0, 0.0], [0.0, 4.0]])

    def test_complex_scalar_rejected(self):
        with pytest.raises(ValueError):
            1.0j * herm([[1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            herm([[1.0]]) + herm([[1.0, 0.0], [0.0, 1.0]])


class TestHermitize:
    def test_accepts_within_tolerance(self):
        raw = np.array([[1.0, 1.0 + 1e-12], [1.0, 2.0]])
        m = hermitize(raw)
        assert np.array_equal(m.mat, m.mat.conj().T)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(NotHermitianWithinTolerance):
            hermitize(np.array([[1.0, 1.0], [0.5, 2.0]]))

    @staticmethod
    def _two_skew_blocks(x):
        # I + D/2 for D two 2x2 skew blocks of spectral norm x, so the
        # Hermitian defect has spectral norm x and Frobenius norm 2x
        raw = np.eye(4)
        raw[0, 1] = raw[2, 3] = x / 2.0
        raw[1, 0] = raw[3, 2] = -x / 2.0
        return raw

    def test_spectral_norm_decides_past_the_frobenius_bound(self):
        # the bound is eq_rel * |raw| = 1e-8 here, and the Frobenius bounds
        # on the defect and on |raw| leave 0.75e-8 and 1.25e-8 undecided
        assert hermitize(self._two_skew_blocks(0.75e-8)).dim == 4
        with pytest.raises(NotHermitianWithinTolerance, match="defect 1.250e-08"):
            hermitize(self._two_skew_blocks(1.25e-8))


class TestMatrixSet:
    def test_requires_nonempty(self):
        from loewner.errors import ValidationError

        with pytest.raises(ValidationError):
            MatrixSet([])

    def test_requires_shared_dim(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet([herm([[1.0]]), identity(2)])

    def test_access(self):
        s = MatrixSet([identity(2), zero(2)])
        assert len(s) == 2
        assert s.dim == 2
        assert s.max_norm() == pytest.approx(1.0)
        assert_matrix_close(s[1], np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_frozen_stack(self, n, k):
        rng = trial_rng(31, 10 * n + k)
        source = [random_hermitian(rng, n) for _ in range(k)]
        mset = MatrixSet(source)
        assert mset.stack.shape == (k, n, n)
        assert not mset.stack.flags.writeable
        with pytest.raises(ValueError):
            mset.stack[0, 0, 0] = 1.0
        for member, original in zip(mset, source):
            assert np.shares_memory(member.mat, mset.stack)
            assert not np.shares_memory(member.mat, original.mat)
            assert np.array_equal(member.mat, original.mat)
        assert mset[0] is mset[0]
        w = mset.eigenvalues()
        assert np.array_equal(w, np.stack([np.linalg.eigvalsh(m.mat) for m in source]))
        assert mset.min_eigenvalue() == min(m.min_eigenvalue() for m in source)
        assert mset.max_norm() == max(m.norm() for m in source)
        assert all(m.norm() == o.norm() for m, o in zip(mset, source))


class TestArithmetic:
    """Sums, differences, negations and real multiples of Hermitian matrices
    are exactly Hermitian, so they are wrapped without symmetrizing."""

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_no_symmetrizing(self, n, monkeypatch):
        rng = trial_rng(32, n)
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
        calls = []
        monkeypatch.setattr(linalg, "_sym", lambda arr: calls.append(1) or _sym(arr))
        results = [a + b, a - b, -a, 2.5 * a, a * -0.3, a * 0.0]
        assert calls == []
        for result in results:
            assert np.array_equal(result.mat, _sym(result.mat))
            assert not result.mat.flags.writeable
        herm(a.mat)
        assert calls == [1]


class TestSpectral:
    def test_reconstruct(self):
        rng = trial_rng(11, 0)
        for _ in range(20):
            m = random_hermitian(rng, 4)
            w, v = spectral(m)
            assert_matrix_close((v * w) @ v.conj().T, m, atol=1e-12)
            assert np.all(np.diff(w) >= 0.0)

    def test_phase_convention(self):
        rng = trial_rng(11, 1)
        m = random_hermitian(rng, 5)
        _, v = spectral(m)
        for j in range(5):
            pivot = v[int(np.argmax(np.abs(v[:, j]))), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real > 0.0

    def test_phases_idempotent(self):
        rng = trial_rng(11, 2)
        _, v = spectral(random_hermitian(rng, 4))
        assert_matrix_close(fix_column_phases(v), v, atol=1e-15)

    def test_phase_fix_matches_column_loop(self):
        # byte for byte the column-at-a-time fix, on eigenbases and on
        # bases with zero columns, tied moduli, real entries and -0.0
        rng = trial_rng(11, 3)
        for n in range(2, 61):
            _, v = np.linalg.eigh(random_hermitian(rng, n).mat)
            _, real = np.linalg.eigh(random_hermitian(rng, n).mat.real)
            zeroed = v.copy()
            zeroed[:, ::3] = 0.0
            tied = rng.choice(np.array([1.0, -1.0, 1j, -1j, 0.0]), size=(n, n))
            signed = np.where(rng.random((n, n)) < 0.5, -0.0, 1.0) * np.where(rng.random((n, n)) < 0.5, 1.0, -1j)
            signed[:, 0] = -0.0
            for basis in (v, real, zeroed, tied, signed, real[:, : n // 2]):
                assert fix_column_phases(basis).tobytes() == fix_column_phases_reference(basis).tobytes(), n

    def test_computed_once(self, monkeypatch):
        m = random_hermitian(trial_rng(11, 4), 6)
        calls = record_calls(monkeypatch, np.linalg, "eigh")
        first, second = spectral(m), spectral(m)
        assert len(calls["eigh"]) == 1
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable

    def test_keeps_the_eigenvalues(self, monkeypatch):
        # the eigh's eigenvalues serve norm and min_eigenvalue; eigenvalues kept before stay
        rng = trial_rng(11, 6)
        h, kept = random_hermitian(rng, 5), random_hermitian(rng, 5)
        known = kept._spectrum()
        calls = record_calls(monkeypatch, np.linalg, "eigvalsh")
        w, _ = spectral(h)
        assert (h.norm(), h.min_eigenvalue()) == (float(np.abs(w).max()), float(w[0]))
        spectral(kept)
        assert kept._spectrum() is known
        assert calls["eigvalsh"] == []

    def test_new_values_inherit_no_pair(self, monkeypatch):
        rng = trial_rng(11, 5)
        s, t = random_hermitian(rng, 4), random_hermitian(rng, 4)
        spectral(s)
        calls = record_calls(monkeypatch, np.linalg, "eigh")
        for value in (-s, s + t, 2.0 * s, MatrixSet([s, t])[0]):
            spectral(value)
        assert len(calls["eigh"]) == 4

    def test_phase_fix_of_one_row(self):
        # a 1 x k basis: every entry becomes its modulus, here 1
        row = np.exp(1j * np.linspace(-3.0, 3.0, 7))[None, :]
        fixed = fix_column_phases(row)
        assert np.all(fixed.real > 0.0)
        np.testing.assert_allclose(fixed, 1.0, rtol=0.0, atol=4 * np.finfo(float).eps)


class TestMatrixFunctions:
    def test_sqrt_psd_oracle(self):
        assert_matrix_close(sqrt_psd(herm([[4.0, 0.0], [0.0, 9.0]])), np.diag([2.0, 3.0]))

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            sqrt_psd(herm([[-1.0, 0.0], [0.0, 1.0]]))

    def test_abs_oracle(self):
        assert_matrix_close(matrix_abs(herm([[-2.0, 0.0], [0.0, 3.0]])), np.diag([2.0, 3.0]))

    def test_pinv_oracle(self):
        assert_matrix_close(pinv(herm([[2.0, 0.0], [0.0, 0.0]])), np.diag([0.5, 0.0]))

    def test_pinv_pseudoinverse_identities(self):
        rng = trial_rng(12, 0)
        for _ in range(15):
            s = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            plus = pinv(s)
            assert_matrix_close(s.mat @ plus.mat @ s.mat, s.mat, atol=1e-9)
            assert_matrix_close(plus.mat @ s.mat @ plus.mat, plus.mat, atol=1e-9)

    def test_polar_abs_oracle(self):
        t = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert_matrix_close(polar_abs(t), np.diag([0.0, 2.0]))

    def test_polar_abs_matches_root(self):
        rng = trial_rng(12, 1)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = sqrt_psd(HermitianMatrix(t.conj().T @ t))
        assert_matrix_close(polar_abs(t), expected, atol=1e-10)


class TestSubspace:
    def test_from_span_rank_reveal(self):
        cols = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        s = Subspace.from_span(cols)
        assert s.dim == 1
        assert contains_vector(s, np.array([1.0, 0.0, 1.0]))

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    @staticmethod
    def _stretched(stretch):
        # orthonormal columns scaled by sqrt(1 + stretch): the Gram defect is
        # diag(stretch), so its spectral norm is max(stretch) and its
        # Frobenius norm |stretch|
        q = random_unitary(trial_rng(14, 0), 5)[:, :4]
        return q * np.sqrt(1.0 + np.asarray(stretch))

    def test_orthonormality_boundary(self, monkeypatch):
        calls = []
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        assert Subspace(self._stretched([1e-12] * 4)).dim == 4
        assert calls == []
        # spectral defect 0.9e-6 <= 1e-6 < Frobenius defect 1.8e-6
        assert Subspace(self._stretched([0.9e-6] * 4)).dim == 4
        assert calls == [(4, 4)]
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(self._stretched([0.0, 0.0, 0.0, 1.1e-6]))

    def test_gram_check_guards_only_outside_input(self, monkeypatch):
        # bases orthonormal by construction are wrapped as they are: contiguous, frozen, unchecked
        kinds = []
        within = linalg._within

        def recording(value, kind, *args):
            kinds.append(kind)
            return within(value, kind, *args)

        monkeypatch.setattr(linalg, "_within", recording)
        u = random_unitary(trial_rng(14, 1), 5)
        bases = [
            Subspace.from_span(u[:, :3] @ np.diag([1.0, 2.0, 3.0])),
            Subspace.from_span(u[:, :2]).complement(),
            *range_nullspace(herm(u @ np.diag([0.0, 0.0, 1.0, 2.0, 3.0]) @ u.conj().T))[:2],
        ]
        assert [b.dim for b in bases] == [3, 3, 3, 2]
        assert "orthonormal_rel" not in kinds
        for b in bases:
            assert (b.basis.flags.c_contiguous or b.basis.flags.f_contiguous) and not b.basis.flags.writeable
            assert_matrix_close(b.basis.conj().T @ b.basis, np.eye(b.dim), atol=1e-14)
        Subspace(u[:, :2])
        assert kinds[-1] == "orthonormal_rel"

    def test_complement(self):
        s = Subspace(np.array([[1.0], [0.0], [0.0]]))
        c = s.complement()
        assert c.dim == 2
        assert_matrix_close(s.projector() + c.projector(), np.eye(3), atol=1e-14)

    def test_zero_and_full(self):
        assert Subspace.zero_subspace(3).dim == 0
        assert Subspace.full(3).dim == 3
        assert_matrix_close(Subspace.zero_subspace(2).projector(), np.zeros((2, 2)))

    def test_sum_and_intersection_planes(self):
        e = np.eye(3)
        a = Subspace(e[:, :2])
        b = Subspace(e[:, 1:])
        assert Subspace.from_span(np.hstack([a.basis, b.basis])).dim == 3
        meet = subspace_intersect([a, b])
        assert meet.dim == 1
        assert contains_vector(meet, e[:, 1])

    def test_skew_lines_meet_trivially(self):
        a = Subspace(np.array([[1.0], [0.0]]))
        b = Subspace.from_span(np.array([[1.0], [1.0]]))
        assert subspace_intersect([a, b]).dim == 0

    def test_intersection_unequal_dims(self):
        # first factor wider than the second, both orders
        e = np.eye(4)
        wide = Subspace(e[:, :3])
        narrow = Subspace(e[:, 2:3])
        assert subspace_intersect([wide, narrow]).dim == 1
        assert subspace_intersect([narrow, wide]).dim == 1

    def test_intersection_random_consistency(self):
        rng = trial_rng(13, 0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            u = random_unitary(rng, n)
            ka = int(rng.integers(1, n + 1))
            kb = int(rng.integers(1, n + 1))
            shared = int(rng.integers(0, min(ka, kb) + 1))
            a_cols = u[:, :ka]
            b_cols = np.hstack([u[:, :shared], u[:, ka : ka + kb - shared]])
            if b_cols.shape[1] == 0:
                continue
            meet = subspace_intersect([Subspace(a_cols), Subspace(b_cols)])
            assert meet.dim == shared

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            subspace_intersect([Subspace.full(2), Subspace.full(3)])


class TestRangeNullspace:
    def test_oracle(self):
        split = range_nullspace(herm(np.diag([1.0, 0.0, -2.0])))
        assert split.range.dim == 2
        assert split.nullspace.dim == 1
        assert contains_vector(split.nullspace, np.array([0.0, 1.0, 0.0]))
        # the least kept |eigenvalue| less the largest cut one
        assert split.gap == 1.0
        assert range_nullspace(herm(np.diag([1.0, 2.0]))).gap == np.inf

    def test_invertible_split_from_eigenvalues(self, monkeypatch):
        # an invertible matrix is split with the identity as range basis: on its cached
        # eigenvalues with no eigh, or with nothing cached on the one eigh a lone split takes
        u = random_unitary(trial_rng(13, 2), 4)
        s = herm(u @ np.diag([-2.0, 1e-6, 1.0, 3.0]) @ u.conj().T)
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        s.norm()
        split = range_nullspace(s)
        assert (len(calls["eigh"]), len(calls["eigvalsh"])) == (0, 1)
        assert np.array_equal(split.range.basis, np.eye(4)) and split.nullspace.dim == 0
        split = range_nullspace(herm(s.mat))
        assert (len(calls["eigh"]), len(calls["eigvalsh"])) == (1, 1)
        assert np.array_equal(split.range.basis, np.eye(4)) and split.nullspace.dim == 0
        singular = herm(u @ np.diag([-2.0, 0.0, 1.0, 3.0]) @ u.conj().T)
        assert range_nullspace(singular).nullspace.dim == 1
        assert (len(calls["eigh"]), len(calls["eigvalsh"])) == (2, 1)

    def test_dims_partition(self):
        rng = trial_rng(13, 1)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            split = range_nullspace(s)
            assert split.range.dim + split.nullspace.dim == n


class TestOrder:
    def test_comparable_pairs(self):
        a = herm(np.diag([1.0, 2.0]))
        b = herm(np.diag([2.0, 3.0]))
        assert compare(a, b) is Comparability.LESS_EQUAL
        assert compare(b, a) is Comparability.GREATER_EQUAL
        assert compare(a, a) is Comparability.EQUAL

    def test_incomparable_pair(self):
        a = herm(np.diag([1.0, -1.0]))
        assert compare(a, zero(2)) is Comparability.INCOMPARABLE
        assert not loewner_leq(a, zero(2))
        assert not loewner_leq(zero(2), a)

    def test_equality_at_tolerance(self):
        a = identity(2)
        b = herm(np.eye(2) + 1e-12)
        assert compare(a, b) is Comparability.EQUAL

    def test_is_psd(self):
        assert is_psd(herm([[2.0, 1.0], [1.0, 1.0]]))
        assert not is_psd(herm([[1.0, 2.0], [2.0, 1.0]]))

    def test_congruence_preserves_order(self):
        rng = trial_rng(13, 2)
        for _ in range(10):
            s = random_psd(rng, 3)
            t = rng.standard_normal((3, 3))
            moved = HermitianMatrix(t.T @ s.mat @ t)
            assert is_psd(moved)
