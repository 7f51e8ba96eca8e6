"""Maximality certificates, the explicit pair bounds, and the signature-pair
parametrization."""

import numpy as np
import pytest

from loewner import (
    DEFAULT_TOL,
    HermitianMatrix,
    MatrixSet,
    StottParam,
    Subspace,
    certify_maximal,
    identity,
    is_lower_bound,
    mlb_mt,
    positive_maximal_lb,
    signature_matrix,
    stott_mx,
    stott_recover_x,
    zero,
)
from loewner.errors import (
    DimensionMismatch,
    NotMaximalForJZero,
    SingularTransform,
)
from loewner.linalg import polar_abs
from loewner.sampling import (
    random_hermitian,
    random_incomparable_pair,
    random_invertible,
    random_psd,
    random_unitary,
    trial_rng,
)

from .conftest import assert_matrix_close, certify_maximal_reference, herm, record_calls


PAIR = MatrixSet([herm(np.diag([1.0, 2.0])), herm(np.diag([2.0, 1.0]))])


class TestCertificate:
    def test_identity_is_maximal_for_pair(self):
        cert = certify_maximal(identity(2), PAIR)
        assert cert.is_lower_bound
        assert cert.is_maximal
        assert cert.per_member_nullspace_dims == (1, 1)
        assert cert.span_dim == 2
        assert certify_maximal(identity(2), PAIR).is_maximal

    def test_zero_is_not_maximal_for_pair(self):
        cert = certify_maximal(zero(2), PAIR)
        assert cert.is_lower_bound
        assert not cert.is_maximal
        assert cert.span_dim == 0
        assert not certify_maximal(zero(2), PAIR).is_maximal

    def test_non_lower_bound(self):
        cert = certify_maximal(herm(np.diag([3.0, 3.0])), PAIR)
        assert not cert.is_lower_bound
        assert not cert.is_maximal

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            certify_maximal(identity(3), PAIR)

    def test_is_lower_bound_helper(self):
        assert is_lower_bound(zero(2), PAIR)
        assert not is_lower_bound(identity(2) * 3.0, PAIR)

    def test_one_eigh_over_the_gaps(self, monkeypatch):
        # the order verdict and the null-space splits come from one batched
        # eigh of the gaps A - M, the span from the singular values alone of
        # the null columns; |M| is not computed when its Frobenius bracket decides
        rng = trial_rng(42, 0)
        mset = MatrixSet(random_psd(rng, 6, rank=5) for _ in range(3))
        m = HermitianMatrix(positive_maximal_lb(mset).mat)  # no cached spectrum
        mset.max_norm()  # the family's spectra, computed before counting
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        svd_options = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kwargs: svd_options.append(kwargs) or svd(a, **kwargs))
        built = record_calls(monkeypatch, Subspace, "__init__")
        assert certify_maximal(m, mset).is_maximal
        assert [np.shape(arr) for arr in calls["eigh"]] == [(3, 6, 6)]
        assert not calls["eigvalsh"]
        assert svd_options == [{"compute_uv": False}]
        assert not built["__init__"]

    @pytest.mark.parametrize("planted, null_dim", [(0.9e-8, 1), (1.5e-8, 0), (-1.5e-7, 0)])
    def test_norm_of_m_decides_between_the_bracket_ends(self, monkeypatch, planted, null_dim):
        # |M| = 100 lies between |M|_F / sqrt(n) = 86.6 and |M|_F = 173.2,
        # over a family of norm 1: the planted gap eigenvalue lies between
        # the rank (or order) thresholds at the two ends of that bracket, so
        # only |M|, one eigvalsh of M, decides it
        u = random_unitary(trial_rng(44, 0), 4)

        def frame(diagonal):
            return HermitianMatrix((u * np.asarray(diagonal)) @ u.conj().T)
        m = frame([-100.0, -100.0, -100.0, 0.0])
        mset = MatrixSet([frame([1.0, 1.0, 1.0, planted]), frame([1.0, 1.0, 1.0, 1.0])])
        mset.max_norm()
        calls = record_calls(monkeypatch, np.linalg, "eigvalsh")
        cert = certify_maximal(m, mset)
        assert len(calls["eigvalsh"]) == 1 and np.array_equal(calls["eigvalsh"][0], m.mat)
        assert cert.per_member_nullspace_dims == (null_dim, 0)
        assert cert.is_lower_bound is (planted > 0.0)
        assert cert == certify_maximal_reference(m, mset)

    @pytest.mark.parametrize("theta", [1e-3, 1e-5, 1e-7, 1e-9])
    def test_nearly_parallel_null_spaces_span(self, theta):
        # projectors onto the complements of x and of y, y at angle theta
        # from x: the null spaces x and y span the plane, so 0 is maximal
        x, y = np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])
        mset = MatrixSet([herm(np.eye(2) - np.outer(x, x)), herm(np.eye(2) - np.outer(y, y))])
        cert = certify_maximal(zero(2), mset)
        assert cert.is_maximal
        assert cert.span_dim == 2

    def test_agrees_with_two_route_reference(self):
        # M_T bounds of seeded pairs and positive maximal lower bounds of
        # seeded PSD families for n up to 30, and a lower bound below each
        rng = trial_rng(43, 0)
        for n in range(2, 31):
            a, b = random_incomparable_pair(rng, n)
            family = MatrixSet(random_psd(rng, n, rank=int(rng.integers(n - 1, n + 1))) for _ in range(1 + n % 3))
            cases = [(mlb_mt(a, b, random_invertible(rng, n)), MatrixSet([a, b])), (positive_maximal_lb(family), family)]
            for m, mset in cases:
                # a lower bound below m, and one whose norm exceeds the family's
                shifts = (0.1 * (1.0 + mset.max_norm()), 10.0 * mset.max_norm())
                for candidate in (m, *(m - shift * identity(n) for shift in shifts)):
                    cert = certify_maximal(candidate, mset)
                    assert cert == certify_maximal_reference(candidate, mset)
                    assert cert.is_maximal is (candidate is m)


class TestMlbMt:
    def test_identity_transform_oracle(self):
        # (a + b - |a - b|) / 2 reduces to the entrywise minimum for
        # commuting diagonals
        m = mlb_mt(PAIR[0], PAIR[1], np.eye(2))
        assert_matrix_close(m, np.eye(2), atol=1e-14)

    def test_seeded_family_certifies(self):
        rng = trial_rng(41, 0)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            t = random_invertible(rng, n)
            m = mlb_mt(a, b, t)
            mset = MatrixSet([a, b])
            assert is_lower_bound(m, mset)
            assert certify_maximal(m, mset).is_maximal

    def test_certifies_when_bound_equals_a_member(self):
        # comparable pair: the bound collapses to the smaller member exactly,
        # so one gap is rounding noise and must rank as the zero matrix
        rng = trial_rng(41, 2)
        b = random_hermitian(rng, 4)
        a = b + identity(4)
        t = random_invertible(rng, 4)
        m = mlb_mt(a, b, t)
        assert (m - b).norm() <= 1e-10
        cert = certify_maximal(m, MatrixSet([a, b]))
        assert cert.is_maximal
        assert cert.per_member_nullspace_dims == (0, 4)

    def test_depends_only_on_polar_factor(self):
        rng = trial_rng(41, 1)
        n = 4
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        t = random_invertible(rng, n)
        u = random_unitary(rng, n)
        left = mlb_mt(a, b, u @ t)
        right = mlb_mt(a, b, polar_abs(t))
        base = mlb_mt(a, b, t)
        assert_matrix_close(left, base, atol=1e-10)
        assert_matrix_close(right, base, atol=1e-10)

    def test_congruence_equivariance(self):
        rng = trial_rng(41, 2)
        n = 3
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        t = random_invertible(rng, n)
        s = random_invertible(rng, n)
        a_s = HermitianMatrix(s.conj().T @ a.mat @ s)
        b_s = HermitianMatrix(s.conj().T @ b.mat @ s)
        moved = mlb_mt(a_s, b_s, t @ s)
        direct = HermitianMatrix(s.conj().T @ mlb_mt(a, b, t).mat @ s)
        assert (moved - direct).norm() <= 1e-10 * (1.0 + direct.norm())

    def test_shift_equivariance(self):
        rng = trial_rng(41, 3)
        n = 3
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        c = random_hermitian(rng, n)
        t = random_invertible(rng, n)
        shifted = mlb_mt(a + c, b + c, t)
        assert (shifted - (mlb_mt(a, b, t) + c)).norm() <= 1e-10 * (
            1.0 + a.norm() + b.norm() + c.norm()
        )

    def test_rejects_singular_transform(self):
        with pytest.raises(SingularTransform):
            mlb_mt(PAIR[0], PAIR[1], np.ones((2, 2)))


class TestStott:
    def test_signature_matrix(self):
        assert_matrix_close(signature_matrix(2, 1), np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            signature_matrix(0, 1)

    def test_build_oracle(self):
        pair = stott_mx(StottParam(1, 1, np.array([[1.0]])))
        r2 = np.sqrt(2.0)
        assert_matrix_close(pair.sx, [[2.0, r2], [r2, 1.0]], atol=1e-12)
        assert_matrix_close(pair.mx, [[-1.0, -r2], [-r2, -2.0]], atol=1e-12)

    def test_built_bound_is_maximal_for_pair(self):
        rng = trial_rng(42, 0)
        for _ in range(30):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            x = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            mx = stott_mx(StottParam(p, q, x)).mx
            mset = MatrixSet([signature_matrix(p, q), zero(p + q)])
            assert certify_maximal(mx, mset).is_maximal

    def test_roundtrip(self):
        rng = trial_rng(42, 1)
        for _ in range(30):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            x = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            mx = stott_mx(StottParam(p, q, x)).mx
            recovered = stott_recover_x(mx, p, q)
            assert float(np.abs(recovered.x - x).max()) <= 1e-8

    def test_distinct_parameters_distinct_bounds(self):
        a = stott_mx(StottParam(1, 1, np.array([[0.5]]))).mx
        b = stott_mx(StottParam(1, 1, np.array([[-0.5]]))).mx
        assert (a - b).norm() > 1e-3

    def test_recover_rejects_non_maximal(self):
        # -5 I is a lower bound of {J, 0} but far from maximal
        with pytest.raises(NotMaximalForJZero):
            stott_recover_x(herm(np.diag([-5.0, -5.0])), 1, 1)

    def test_recover_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            stott_recover_x(zero(3), 1, 1)


def j_form_transform(a, b):
    """T with T^-* (a - b) T^-1 = diag(I_p, -I_q), and (p, q); None when
    a - b is singular."""
    w, u = np.linalg.eigh((a - b).mat)
    if np.abs(w).min() <= 1e-10 * np.abs(w).max():
        return None
    order = np.argsort(-w, kind="stable")
    lam = w[order]
    return np.sqrt(np.abs(lam))[:, None] * u[:, order].conj().T, (int(np.sum(lam > 0)), int(np.sum(lam < 0)))


class TestNormalizePair:
    def test_roundtrip_through_signature_pair(self):
        # normalize, pick a maximal lower bound of {J, 0}, pull it back:
        # the result is a maximal lower bound of the original pair
        rng = trial_rng(43, 0)
        for _ in range(10):
            a, b = random_incomparable_pair(rng, 3)
            normal = j_form_transform(a, b)
            if normal is None:
                continue
            t, (p, q) = normal
            x = rng.standard_normal((p, q))
            mj = stott_mx(StottParam(p, q, x)).mx
            pulled = HermitianMatrix(t.conj().T @ mj.mat @ t) + b
            assert certify_maximal(pulled, MatrixSet([a, b])).is_maximal


class TestStackedLowerBound:
    """The one batched eigenvalue call of ``is_lower_bound`` decides as the
    member-by-member fold of the order rule on the scale of the family and
    the candidate does, on both sides of the order margin too."""

    def test_agrees_with_member_fold(self):
        verdicts = []
        for t in range(12):
            rng = trial_rng(61, t)
            n = int(rng.integers(1, 7))
            mset = MatrixSet([random_hermitian(rng, n) for _ in range(int(rng.integers(1, 5)))])
            s = mset.max_norm()
            for base in (mset.min_eigenvalue() * identity(n), mset[0]):
                for delta in (-1e-3, -2e-9 * s, -0.5e-9 * s, 0.0, 0.5e-9 * s, 2e-9 * s, 1e-3):
                    lower = base - delta * identity(n)
                    margin = DEFAULT_TOL.psd_rel * max(s, lower.norm())
                    stacked = is_lower_bound(lower, mset)
                    assert stacked == all(np.linalg.eigvalsh((m - lower).mat)[0] >= -margin for m in mset)
                    verdicts.append(stacked)
        assert True in verdicts and False in verdicts

    def test_rejects_other_dimension(self):
        with pytest.raises(DimensionMismatch):
            is_lower_bound(zero(3), PAIR)
