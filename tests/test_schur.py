"""Block positivity test and generalized Schur complements."""

import numpy as np
import pytest

from loewner import (
    Subspace,
    albert_is_psd,
    is_psd,
    loewner_leq,
    schur_complement,
)
from loewner.errors import DimensionMismatch, RangeConditionViolated, TrivialSubspace
from loewner.sampling import random_hermitian, random_psd, random_unitary, trial_rng

from .conftest import assert_matrix_close, herm, record_calls


def _span(*cols):
    return Subspace(np.array(cols, dtype=np.complex128).T)


E1 = _span([1.0, 0.0])
E1_3 = _span([1.0, 0.0, 0.0])


class TestPartition:
    def test_rejects_trivial_split(self):
        s = herm(np.eye(2))
        with pytest.raises(TrivialSubspace):
            schur_complement(s, Subspace.full(2))
        with pytest.raises(TrivialSubspace):
            schur_complement(s, Subspace.zero_subspace(2))

    def test_rejects_wrong_ambient(self):
        with pytest.raises(DimensionMismatch):
            schur_complement(herm(np.eye(3)), E1)


class TestAlbert:
    def test_psd_passes(self):
        report = albert_is_psd(herm([[2.0, 1.0], [1.0, 1.0]]), E1)
        assert report.is_psd
        assert report.failing_condition is None

    def test_fails_corner(self):
        report = albert_is_psd(herm([[-1.0, 0.0], [0.0, 1.0]]), E1)
        assert not report.is_psd
        assert report.failing_condition == "(i)"

    def test_fails_range(self):
        # zero corner cannot carry a nonzero coupling block
        report = albert_is_psd(herm([[0.0, 1.0], [1.0, 0.0]]), E1)
        assert not report.is_psd
        assert report.failing_condition == "(ii)"

    def test_fails_complement(self):
        report = albert_is_psd(herm([[1.0, 2.0], [2.0, 1.0]]), E1)
        assert not report.is_psd
        assert report.failing_condition == "(iii)"

    def test_agrees_with_spectral(self):
        rng = trial_rng(21, 1)
        for t in range(200):
            n = int(rng.integers(2, 7))
            if t % 3 == 0:
                s = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            elif t % 3 == 1:
                s = random_hermitian(rng, n)
            else:
                s = -random_psd(rng, n)
            k = int(rng.integers(1, n))
            h1 = Subspace(random_unitary(rng, n)[:, :k])
            assert albert_is_psd(s, h1).is_psd == is_psd(s)

    def test_corner_under_the_cut_with_an_admitted_coupling(self):
        # the corner 1e-17 is cut, but its coupling 1e-9 has 1e-18 <= 2 * 1e-17 * |s|:
        # it is subtracted, and s is PSD, as its spectrum says
        s = herm([[1e-17, 1e-9], [1e-9, 1.0]])
        assert is_psd(s)
        assert albert_is_psd(s, E1).is_psd

    @pytest.mark.parametrize("coupling", [1e-5, 1.0])
    def test_negative_corner_inside_the_margin_agrees_with_the_spectrum(self, coupling):
        # a corner of -5e-10 passes (i) and is inverted as in s + psd_rel |s|: with the coupling
        # 1e-5 s is PSD within its margin (smallest eigenvalue -6e-10), with 1 it is not (-0.618);
        # inverted as it stands the corner passes both, at the floor it fails both
        s = herm([[-5e-10, coupling], [coupling, 1.0]])
        assert albert_is_psd(s, E1).is_psd == is_psd(s) == (coupling < 1.0)
        assert albert_is_psd(s, E1).failing_condition in (None, "(iii)")

    def test_one_decomposition_of_the_corner(self, monkeypatch):
        rng = trial_rng(21, 2)
        s = random_psd(rng, 5)
        h1 = Subspace(random_unitary(rng, 5)[:, :2])
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        assert albert_is_psd(s, h1).is_psd
        # one eigh of the 2 x 2 corner decides (i) and the complement; s and the 3 x 3 complement take one eigvalsh each
        assert [np.shape(arr) for arr in calls["eigh"]] == [(2, 2)]
        assert sorted(np.shape(arr) for arr in calls["eigvalsh"]) == [(3, 3), (5, 5)]
        # a negative diagonal entry of the corner fails (i) before any decomposition of it
        for log in calls.values():
            log.clear()
        assert albert_is_psd(-s, h1).failing_condition == "(i)"
        assert calls["eigh"] == [] and [np.shape(arr) for arr in calls["eigvalsh"]] == [(5, 5)]


class TestSchurComplement:
    def test_oracle(self):
        result = schur_complement(herm([[4.0, 2.0], [2.0, 2.0]]), E1)
        assert_matrix_close(result.complement, [[1.0]])
        assert_matrix_close(result.shorted, [[0.0, 0.0], [0.0, 1.0]])

    def test_singular_corner_zero_coupling(self):
        s = herm([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
        result = schur_complement(s, E1_3)
        assert_matrix_close(result.complement, [[2.0, 1.0], [1.0, 1.0]])

    def test_negative_corner_of_an_indefinite_matrix_is_inverted_as_it_stands(self):
        # s is not taken PSD: its corner -5e-10, past the cut, is inverted as the pseudo-inverse does
        result = schur_complement(herm([[-5e-10, 1e-6], [1e-6, 1.0]]), E1)
        assert_matrix_close(result.complement, [[1.0 + 1e-12 / 5e-10]], atol=1e-12)

    def test_range_condition_violated(self):
        with pytest.raises(RangeConditionViolated):
            schur_complement(herm([[0.0, 1.0], [1.0, 1.0]]), E1)

    def test_shorted_below_and_supported(self):
        # the shorted operator sits below the input and lives on the
        # complement of the split subspace
        rng = trial_rng(21, 2)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            s = random_psd(rng, n)
            k = int(rng.integers(1, n))
            h1 = Subspace(random_unitary(rng, n)[:, :k])
            shorted = schur_complement(s, h1).shorted
            assert is_psd(shorted)
            assert loewner_leq(shorted, s)
            p1 = h1.projector()
            assert float(np.linalg.norm(p1 @ shorted.mat, 2)) <= 1e-9 * (1.0 + s.norm())

    def test_null_direction_quotient_is_clean(self):
        # splitting a singular PSD matrix along a computed null eigenvector
        # leaves corner and coupling blocks that are pure rounding noise; the
        # complement must come out as the clean remaining spectrum, not a
        # noise-amplified value
        rng = trial_rng(21, 4)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            s = random_hermitian(rng, n)
            w, v = np.linalg.eigh(s.mat)
            shifted = herm(s.mat - w[0] * np.eye(n))
            line = Subspace(v[:, :1])
            comp = schur_complement(shifted, line).complement
            got = np.linalg.eigvalsh(comp.mat)
            want = w[1:] - w[0]
            assert np.allclose(got, want, atol=1e-9 * (1.0 + abs(float(w[-1]))))
            assert is_psd(comp)

    def test_shorted_maximality(self):
        # nothing PSD strictly between the shorted operator and the input
        # can live on the complement subspace
        rng = trial_rng(21, 3)
        s = random_psd(rng, 4)
        h1 = Subspace(np.eye(4)[:, :2])
        shorted = schur_complement(s, h1).shorted
        h2 = h1.complement()
        for _ in range(50):
            bump = random_psd(rng, 2)
            bump = (0.05 / (1.0 + bump.norm())) * bump
            candidate = shorted + herm(h2.basis @ bump.mat @ h2.basis.conj().T)
            assert not loewner_leq(candidate, s)

