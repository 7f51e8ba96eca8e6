"""JSON interchange format for finite Hermitian families."""

import json

import numpy as np
import pytest

from loewner import (
    MatrixSet,
    document_from_set,
    emit_document,
    parse_document,
)
from loewner import documents
from loewner.documents import decode_grid
from loewner.errors import ParseError, ValidationError
from loewner.report import encode_array

from .conftest import assert_matrix_close, herm


def assert_documents_match(left, right):
    assert left.dim == right.dim
    assert left.field_tag == right.field_tag
    assert left.labels == right.labels
    assert len(left.matrix_set) == len(right.matrix_set)
    for a, b in zip(left.matrix_set, right.matrix_set):
        assert_matrix_close(a, b)


REAL_DOC = json.dumps(
    {
        "dim": 2,
        "field_tag": "real",
        "matrices": [[[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]],
        "labels": ["first", "second"],
    }
)

COMPLEX_DOC = json.dumps(
    {
        "dim": 2,
        "field_tag": "complex",
        "matrices": [[[[1.0, 0.0], [2.0, 1.0]], [[2.0, -1.0], [3.0, 0.0]]]],
    }
)


class TestParse:
    def test_real_roundtrip(self):
        doc = parse_document(REAL_DOC)
        assert doc.dim == 2
        assert doc.field_tag == "real"
        assert len(doc.matrix_set) == 2
        assert doc.labels == ("first", "second")
        assert_matrix_close(doc.matrix_set[0], np.diag([1.0, 2.0]))
        assert_matrix_close(doc.matrix_set[1], [[0.0, 1.0], [1.0, 0.0]])
        assert_documents_match(parse_document(emit_document(doc)), doc)

    def test_complex_roundtrip(self):
        doc = parse_document(COMPLEX_DOC)
        assert doc.field_tag == "complex"
        expected = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
        assert_matrix_close(doc.matrix_set[0], expected)
        assert_documents_match(parse_document(emit_document(doc)), doc)

    def test_labels_optional(self):
        doc = parse_document(json.dumps({"dim": 1, "field_tag": "real", "matrices": [[[5.0]]]}))
        assert doc.labels is None
        assert doc.label_of(0) == "0"

    def test_label_of_with_labels(self):
        doc = parse_document(REAL_DOC)
        assert doc.label_of(1) == "second"

    def test_integer_entries_accepted(self):
        doc = parse_document(json.dumps({"dim": 1, "field_tag": "real", "matrices": [[[3]]]}))
        assert_matrix_close(doc.matrix_set[0], [[3.0]])

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_document("{not json")

    def test_non_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_document("[1, 2]")

    def test_unknown_field(self):
        bad = json.dumps({"dim": 1, "field_tag": "real", "matrices": [[[1.0]]], "extra": 1})
        with pytest.raises(ParseError, match="unknown top-level fields.*extra"):
            parse_document(bad)

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing required field 'matrices'"):
            parse_document(json.dumps({"dim": 1, "field_tag": "real"}))

    def test_bad_dim_type(self):
        bad = json.dumps({"dim": "two", "field_tag": "real", "matrices": [[[1.0]]]})
        with pytest.raises(ParseError, match="'dim'"):
            parse_document(bad)

    def test_bool_dim_rejected(self):
        bad = json.dumps({"dim": True, "field_tag": "real", "matrices": [[[1.0]]]})
        with pytest.raises(ParseError, match="'dim'"):
            parse_document(bad)

    def test_nonpositive_dim(self):
        bad = json.dumps({"dim": 0, "field_tag": "real", "matrices": [[[1.0]]]})
        with pytest.raises(ValidationError, match="at least 1"):
            parse_document(bad)

    def test_bad_field_tag(self):
        bad = json.dumps({"dim": 1, "field_tag": "quaternion", "matrices": [[[1.0]]]})
        with pytest.raises(ParseError, match="field_tag"):
            parse_document(bad)

    def test_empty_matrices(self):
        bad = json.dumps({"dim": 1, "field_tag": "real", "matrices": []})
        with pytest.raises(ParseError, match="nonempty"):
            parse_document(bad)

    def test_row_count_mismatch(self):
        bad = json.dumps({"dim": 2, "field_tag": "real", "matrices": [[[1.0, 0.0]]]})
        with pytest.raises(ValidationError, match=r"matrices\[0\].*1 rows, expected 2"):
            parse_document(bad)

    def test_entry_count_mismatch(self):
        bad = json.dumps({"dim": 2, "field_tag": "real", "matrices": [[[1.0], [0.0, 1.0]]]})
        with pytest.raises(ValidationError, match=r"matrices\[0\]\[0\].*1 entries"):
            parse_document(bad)

    def test_bool_entry_rejected(self):
        bad = json.dumps({"dim": 1, "field_tag": "real", "matrices": [[[True]]]})
        with pytest.raises(ParseError, match="expected a number"):
            parse_document(bad)

    def test_string_entry_rejected(self):
        bad = json.dumps({"dim": 1, "field_tag": "real", "matrices": [[["1.0"]]]})
        with pytest.raises(ParseError, match="expected a number"):
            parse_document(bad)

    def test_complex_entry_needs_pair(self):
        bad = json.dumps({"dim": 1, "field_tag": "complex", "matrices": [[[1.0]]]})
        with pytest.raises(ParseError, match=r"\[re, im\] pair"):
            parse_document(bad)

    def test_complex_entry_wrong_length(self):
        bad = json.dumps({"dim": 1, "field_tag": "complex", "matrices": [[[[1.0, 0.0, 0.0]]]]})
        with pytest.raises(ParseError, match=r"\[re, im\] pair"):
            parse_document(bad)

    def test_non_hermitian_rejected(self):
        bad = json.dumps(
            {"dim": 2, "field_tag": "real", "matrices": [[[1.0, 5.0], [0.0, 1.0]]]}
        )
        with pytest.raises(ValidationError, match=r"matrices\[0\]"):
            parse_document(bad)

    def test_label_count_mismatch(self):
        bad = json.dumps(
            {"dim": 1, "field_tag": "real", "matrices": [[[1.0]]], "labels": ["a", "b"]}
        )
        with pytest.raises(ValidationError, match="labels.*2 entries, expected 1"):
            parse_document(bad)

    def test_label_type(self):
        bad = json.dumps({"dim": 1, "field_tag": "real", "matrices": [[[1.0]]], "labels": [7]})
        with pytest.raises(ParseError, match="list of strings"):
            parse_document(bad)

    def test_matrix_not_list(self):
        bad = json.dumps({"dim": 1, "field_tag": "real", "matrices": [7]})
        with pytest.raises(ParseError, match=r"matrices\[0\].*list of rows"):
            parse_document(bad)

    def test_row_not_list(self):
        bad = json.dumps({"dim": 1, "field_tag": "real", "matrices": [[7]]})
        with pytest.raises(ParseError, match=r"matrices\[0\]\[0\].*list of entries"):
            parse_document(bad)


class TestEmit:
    def test_deterministic(self):
        doc = parse_document(REAL_DOC)
        assert emit_document(doc) == emit_document(doc)

    def test_trailing_newline(self):
        doc = parse_document(REAL_DOC)
        assert emit_document(doc).endswith("\n")

    def test_indent(self):
        doc = parse_document(REAL_DOC)
        pretty = emit_document(doc, indent=2)
        assert "\n  " in pretty
        assert_documents_match(parse_document(pretty), doc)

    def test_complex_entries_are_pairs(self):
        mset = MatrixSet([herm([[0.0, 1.0j], [-1.0j, 0.0]])])
        text = emit_document(document_from_set(mset))
        payload = json.loads(text)
        assert payload["field_tag"] == "complex"
        assert payload["matrices"][0][0][1] == [0.0, 1.0]


class TestDocumentFromSet:
    def test_real_tag_for_real_set(self):
        mset = MatrixSet([herm(np.diag([1.0, 2.0]))])
        doc = document_from_set(mset)
        assert doc.field_tag == "real"
        assert doc.dim == 2
        assert doc.labels is None

    def test_complex_tag_when_imaginary_present(self):
        mset = MatrixSet([herm([[1.0, 2.0j], [-2.0j, 1.0]])])
        assert document_from_set(mset).field_tag == "complex"

    def test_labels_kept(self):
        mset = MatrixSet([herm([[1.0]]), herm([[2.0]])])
        doc = document_from_set(mset, labels=["x", "y"])
        assert doc.labels == ("x", "y")

    def test_label_count_checked(self):
        mset = MatrixSet([herm([[1.0]])])
        with pytest.raises(ValidationError, match="2 labels for 1 matrices"):
            document_from_set(mset, labels=["x", "y"])

    def test_roundtrip_through_text(self):
        mset = MatrixSet([herm([[1.0, 0.5], [0.5, 2.0]]), herm(np.eye(2))])
        doc = document_from_set(mset, labels=["a", "b"])
        again = parse_document(emit_document(doc))
        assert again.labels == ("a", "b")
        for original, parsed in zip(mset, again.matrix_set):
            assert_matrix_close(parsed, original)


def one_member(grid, field_tag="real"):
    return json.dumps({"dim": len(grid), "field_tag": field_tag, "matrices": [grid]})


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "token",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "huge-int"],
    )
    def test_real_entry_rejected_with_locator(self, token):
        text = '{"dim": 2, "field_tag": "real", "matrices": [[[1.0, 0.0], [0.0, %s]]]}' % token
        with pytest.raises(ParseError, match=r"matrices\[0\]\[1\]\[1\]: expected a finite number"):
            parse_document(text)

    @pytest.mark.parametrize(
        "token", ["NaN", "Infinity", "1e400", "-" + "9" * 400], ids=["nan", "inf", "1e400", "huge-int"]
    )
    def test_complex_component_rejected_with_locator(self, token):
        text = (
            '{"dim": 1, "field_tag": "complex", "matrices": [[[[1.0, 0.0]]], [[[2.0, %s]]]]}' % token
        )
        with pytest.raises(ParseError, match=r"matrices\[1\]\[0\]\[0\]\[1\]: expected a finite number"):
            parse_document(text)

    def test_symmetrization_overflow_rejected(self):
        text = one_member([[1e308, 1e308], [1e308, -1e308]])
        with pytest.raises(ValidationError, match=r"matrices\[0\]: entry \[0\]\[0\].*overflows"):
            parse_document(text)

    def test_off_diagonal_overflow_rejected(self):
        text = one_member([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(ValidationError, match=r"matrices\[0\]: entry \[0\]\[1\]"):
            parse_document(text)

    def test_spectral_norm_overflow_rejected(self):
        text = one_member([[8e307] * 4 for _ in range(4)])
        with pytest.raises(ValidationError, match=r"matrices\[0\]: the spectral norm overflows"):
            parse_document(text)


class TestDecodeGrid:
    def test_valid_documents_never_walk_entries(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a valid document reached the per-entry walk")

        monkeypatch.setattr(documents, "_walk", fail)
        parse_document(REAL_DOC)
        parse_document(COMPLEX_DOC)

    @pytest.mark.parametrize("field_tag", ["real", "complex"])
    def test_whole_grid_decode_matches_walk(self, field_tag):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((5, 5, 2))
        values[0, 1] = [-0.0, -0.0]
        values[2, 3, 0] = 3
        if field_tag == "real":
            grid = values[..., 0].tolist()
            grid[2][3] = 3
        else:
            grid = values.tolist()
            grid[2][3][0] = 3
        fast = decode_grid(grid, (5, 5), "m", field_tag)
        slow = documents._walk(grid, (5, 5), "m", field_tag)
        assert fast.tobytes() == slow.tobytes()

    def test_mixed_numbers_and_pairs_take_the_walk(self):
        grid = [[1, [2.0, -1.0]], [[2.0, 1.0], 3.5]]
        out = decode_grid(grid, (2, 2), "--x")
        np.testing.assert_array_equal(out, [[1.0, 2.0 - 1.0j], [2.0 + 1.0j, 3.5]])

    def test_vector(self):
        out = decode_grid([1, [0.0, 2.0], 3.0], (3,), "--u")
        np.testing.assert_array_equal(out, [1.0, 2.0j, 3.0])

    @pytest.mark.parametrize(
        "grid, field_tag, message",
        [
            ([[1.0, True]], "real", r"m\[0\]\[1\]: expected a number, got True"),
            ([[1.0, "2"]], "real", r"m\[0\]\[1\]: expected a number, got '2'"),
            ([[1.0, [1.0, 0.0]]], "real", r"m\[0\]\[1\]: expected a number"),
            ([[[1.0, 0.0], 2.0]], "complex", r"m\[0\]\[1\]: expected an \[re, im\] pair"),
            ([[[1.0, 0.0], [2.0, None]]], "complex", r"m\[0\]\[1\]\[1\]: expected a number"),
            ([[1.0, [1.0, 0.0, 0.0]]], None, r"m\[0\]\[1\]: expected a number or an \[re, im\] pair"),
            ([[1.0, float("nan")]], None, r"m\[0\]\[1\]: expected a finite number"),
            ([[1.0, [0.0, float("inf")]]], None, r"m\[0\]\[1\]\[1\]: expected a finite number"),
        ],
    )
    def test_first_bad_entry_is_named(self, grid, field_tag, message):
        with pytest.raises(ParseError, match=message):
            decode_grid(grid, (1, 2), "m", field_tag)


def encode_reference(arr):
    """Entry-by-entry encoding of a complex grid as [re, im] pairs."""
    return [[[float(e.real) + 0.0, float(e.imag) + 0.0] for e in row] for row in np.atleast_2d(arr)]


class TestEncodeArray:
    def test_matches_entrywise_encoding_and_folds_negative_zero(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        arr[0, 0] = complex(-0.0, -0.0)
        encoded = encode_array(arr)
        assert json.dumps(encoded) == json.dumps(encode_reference(arr))
        assert "-0.0" not in json.dumps(encoded)

    def test_vector_is_one_row(self):
        assert encode_array(np.array([1.0 + 2.0j, -0.0j])) == [[[1.0, 2.0], [0.0, 0.0]]]

    def test_real_array_and_set_and_none(self):
        assert encode_array(np.array([[1.0, -0.0]])) == [[1.0, 0.0]]
        mset = MatrixSet([herm([[1.0]]), herm([[2.0]])])
        assert encode_array(mset) == [[[[1.0, 0.0]]], [[[2.0, 0.0]]]]
        assert encode_array(None) is None
