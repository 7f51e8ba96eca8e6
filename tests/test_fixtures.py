"""Bundled example families."""

import numpy as np
import pytest

from loewner import (
    FIXTURE_NAMES,
    emit_document,
    fixture,
    parse_document,
    positive_glb_family,
)
from loewner.errors import UnknownFixture, ValidationError
from loewner.fixtures import MAX_PAIR_TRUNCATION, MAX_SQUARE_TRUNCATION

from .conftest import assert_matrix_close


class TestCatalog:
    def test_names(self):
        assert FIXTURE_NAMES == (
            "ex3.2",
            "ex3.5i",
            "ex3.5ii",
            "ex3.5iii",
            "ex4.3",
            "ex4.7",
            "ex4.8i",
            "ex4.8ii",
            "ex6.2",
        )

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_fixture_emits_and_reparses(self, name):
        fx = fixture(name, truncation=4)
        text = emit_document(fx.document)
        doc = parse_document(text)
        assert doc.dim == fx.document.dim
        assert len(doc.matrix_set) == len(fx.document.matrix_set)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_notes_nonempty(self, name):
        notes = fixture(name).notes
        assert notes
        assert all(isinstance(s, str) and s for s in notes)

    def test_unknown_name(self):
        with pytest.raises(UnknownFixture, match="available"):
            fixture("ex9.9")

    def test_truncation_must_be_positive(self):
        with pytest.raises(ValidationError, match="at least 1"):
            fixture("ex3.2", truncation=0)

    def test_square_family_truncation_limit(self):
        assert len(fixture("ex3.2", truncation=MAX_SQUARE_TRUNCATION).document.matrix_set) == 128
        for name in ("ex3.2", "ex3.5iii"):
            with pytest.raises(ValidationError, match="limited to 128"):
                fixture(name, truncation=MAX_SQUARE_TRUNCATION + 1)
        assert len(fixture("ex4.3", truncation=1000).document.matrix_set) == 1001

    def test_pair_family_truncation_limit(self):
        for name in ("ex3.5i", "ex3.5ii", "ex4.3", "ex4.7", "ex4.8i", "ex4.8ii"):
            with pytest.raises(ValidationError, match=f"limited to {MAX_PAIR_TRUNCATION}"):
                fixture(name, truncation=MAX_PAIR_TRUNCATION + 1)

    def test_default_truncation(self):
        fx = fixture("ex3.2")
        assert fx.truncation == 8
        assert len(fx.document.matrix_set) == 8


class TestScaledProjections:
    def test_members_are_scaled_basis_projections(self):
        fx = fixture("ex3.2", truncation=5)
        for k, member in enumerate(fx.document.matrix_set, start=1):
            expected = np.zeros((5, 5))
            expected[k - 1, k - 1] = k * k
            assert_matrix_close(member, expected)
        assert fx.document.labels == tuple(f"n={k}" for k in range(1, 6))

    def test_alias_matches_original(self):
        original = fixture("ex3.2", truncation=3)
        alias = fixture("ex3.5iii", truncation=3)
        assert alias.name == "ex3.5iii"
        for a, b in zip(alias.document.matrix_set, original.document.matrix_set):
            assert_matrix_close(a, b)


class TestRankOneProjections:
    @pytest.mark.parametrize("name", ["ex3.5i", "ex3.5ii"])
    def test_members_are_rank_one_projections(self, name):
        fx = fixture(name, truncation=6)
        for member in fx.document.matrix_set:
            assert member.dim == 2
            assert_matrix_close(member.mat @ member.mat, member.mat, atol=1e-12)
            assert np.trace(member.mat).real == pytest.approx(1.0)


class TestTruncatedPairFamilies:
    def test_corner_family_structure(self):
        fx = fixture("ex4.3", truncation=3)
        mset = fx.document.matrix_set
        assert len(mset) == 4
        assert fx.document.labels == ("n=1", "n=2", "n=3", "limit")
        r2 = np.sqrt(0.5)
        assert_matrix_close(mset[1], [[1.5, r2], [r2, 0.5]])
        assert_matrix_close(mset[3], np.diag([1.0, 0.0]))

    def test_corner_family_glb_matches_notes(self):
        fx = fixture("ex4.3", truncation=3)
        result = positive_glb_family(fx.document.matrix_set)
        assert result.exists
        assert_matrix_close(result.glb, np.diag([1.0 / 3.0, 0.0]), atol=1e-10)

    def test_unbounded_reduction_structure(self):
        fx = fixture("ex4.7", truncation=3)
        mset = fx.document.matrix_set
        assert len(mset) == 4
        assert_matrix_close(mset[2], [[1.0 + 1.0 / 9.0, np.sqrt(1 / 3)], [np.sqrt(1 / 3), 1 / 3]])
        assert_matrix_close(mset[3], np.diag([1.0, 0.0]))

    def test_unattained_corner_family(self):
        fx = fixture("ex4.8i", truncation=4)
        mset = fx.document.matrix_set
        assert len(mset) == 4
        assert_matrix_close(mset[0], [[2.0, 1.0], [1.0, 1.0]])
        assert fx.document.labels == ("n=1", "n=2", "n=3", "n=4")

    def test_two_branch_family(self):
        fx = fixture("ex4.8ii", truncation=4)
        mset = fx.document.matrix_set
        assert len(mset) == 10
        assert fx.document.labels[:2] == ("a n=1", "a n=2")
        assert fx.document.labels[-2:] == ("a limit", "b limit")
        assert_matrix_close(mset[8], [[1.0, 1.0], [1.0, 1.0]])
        assert_matrix_close(mset[9], [[1.0, 2.0], [2.0, 4.0]])


class TestFixedPair:
    def test_exact_members(self):
        fx = fixture("ex6.2")
        assert fx.truncation is None
        mset = fx.document.matrix_set
        assert len(mset) == 2
        assert_matrix_close(mset[0], np.diag([1.0, 0.0]))
        assert_matrix_close(mset[1], [[1.0, 1.0], [1.0, 2.0]])
        assert fx.document.labels == ("A", "B")

    def test_truncation_ignored(self):
        fx = fixture("ex6.2", truncation=25)
        assert len(fx.document.matrix_set) == 2
