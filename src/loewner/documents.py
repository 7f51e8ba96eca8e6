"""The matrix-set document: a JSON interchange format for finite Hermitian
families.

Schema (one JSON object):

* ``dim``: positive integer, the shared matrix dimension;
* ``field_tag``: ``"real"`` or ``"complex"``;
* ``matrices``: nonempty list of dim x dim entry grids -- plain numbers when
  real, ``[re, im]`` pairs when complex;
* ``labels`` (optional): one string per matrix.

Parsing is strict: structural problems raise ``ParseError`` with a field
locator, semantic problems (shape, hermiticity, label count) raise
``ValidationError``.  ``decode_grid`` reads every entry grid, here and in the
CLI's inline matrix and vector arguments.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError
from .linalg import DEFAULT_TOL, MatrixSet, Tolerances, hermitize
from .report import encode_array

__all__ = [
    "MatrixSetDocument",
    "parse_document",
    "emit_document",
    "document_from_set",
    "decode_grid",
]

_FIELD_TAGS = ("real", "complex")
_TOP_LEVEL_KEYS = {"dim", "field_tag", "matrices", "labels"}
_NUMBER_TYPES = {int, float}
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class MatrixSetDocument:
    """A validated matrix set plus its interchange metadata."""

    dim: int
    field_tag: str
    matrix_set: MatrixSet
    labels: tuple[str, ...] | None = None

    def label_of(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return str(index)


def _number(value, where: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise ParseError(f"{where}: expected a number, got {value!r}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # also false for NaN
        raise ParseError(f"{where}: expected a finite number")
    return float(value)


def _entry(value, where: str, field_tag: str | None) -> complex:
    if field_tag is None:  # an inline argument: each entry a number or a pair
        pair = isinstance(value, list) and len(value) == 2
        if not (type(value) in _NUMBER_TYPES or (pair and set(map(type, value)) <= _NUMBER_TYPES)):
            raise ParseError(f"{where}: expected a number or an [re, im] pair")
        field_tag = "complex" if pair else "real"
    if field_tag == "real":
        return complex(_number(value, where), 0.0)
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected an [re, im] pair")
    return complex(_number(value[0], where + "[0]"), _number(value[1], where + "[1]"))


def _walk(grid, shape: tuple, where: str, field_tag: str | None) -> np.ndarray:
    """Entry-by-entry decode, raising at the first bad row or entry."""
    noun = "rows" if len(shape) == 2 else "entries"
    if not isinstance(grid, list):
        raise ParseError(f"{where}: expected a list of {noun}")
    if len(grid) != shape[0]:
        raise ValidationError(f"{where}: has {len(grid)} {noun}, expected {shape[0]}")
    out = np.empty(shape, dtype=np.complex128)
    for i, item in enumerate(grid):
        at = f"{where}[{i}]"
        out[i] = _walk(item, shape[1:], at, field_tag) if len(shape) > 1 else _entry(item, at, field_tag)
    return out


def decode_grid(grid, shape: tuple, where: str, field_tag: str | None = None) -> np.ndarray:
    """Decode a list of entries (1-d) or of rows (2-d) into a complex array.

    ``field_tag`` ``"real"`` asks for plain numbers, ``"complex"`` for
    ``[re, im]`` pairs, and ``None`` (for an inline argument already checked
    to be a nonempty array) takes either, entry by entry.  A grid whose
    entries all have the asked-for form and are finite is converted in one
    numpy call.  Any other is walked entry by entry, which raises
    ``ParseError`` or ``ValidationError`` at ``where`` plus the index of the
    first bad row or entry, or decodes a mix of numbers and pairs.
    """
    depth = len(shape) - 1
    pairs = field_tag == "complex" or (field_tag is None and isinstance(grid[0][0] if depth else grid[0], list))
    try:
        leaves = iter(grid)
        for _ in range(depth + pairs):
            leaves = chain.from_iterable(leaves)
        arr = np.array(grid, dtype=np.float64) if set(map(type, leaves)) <= _NUMBER_TYPES else None
    except (TypeError, ValueError, OverflowError):  # mis-nested, ragged, or past the float range
        arr = None
    if arr is None or arr.shape != shape + (2,) * pairs or not np.isfinite(arr).all():
        return _walk(grid, shape, where, field_tag)
    return arr.view(np.complex128)[..., 0] if pairs else arr.astype(np.complex128)


def parse_document(text: str, tol: Tolerances = DEFAULT_TOL) -> MatrixSetDocument:
    """Parse and validate a matrix-set document from JSON text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(payload, dict):
        raise ParseError("document must be a JSON object")
    unknown = set(payload) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    for required in ("dim", "field_tag", "matrices"):
        if required not in payload:
            raise ParseError(f"missing required field {required!r}")

    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError("field 'dim': expected an integer")
    if dim < 1:
        raise ValidationError(f"field 'dim': must be at least 1, got {dim}")

    field_tag = payload["field_tag"]
    if field_tag not in _FIELD_TAGS:
        raise ParseError(f"field 'field_tag': expected one of {_FIELD_TAGS}, got {field_tag!r}")

    grids = payload["matrices"]
    if not isinstance(grids, list) or not grids:
        raise ParseError("field 'matrices': expected a nonempty list")

    members = []
    for i, grid in enumerate(grids):
        where = f"matrices[{i}]"
        arr = decode_grid(grid, (dim, dim), where, field_tag)
        try:
            members.append(hermitize(arr, tol))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    labels = payload.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ParseError("field 'labels': expected a list of strings")
        if len(labels) != len(members):
            raise ValidationError(
                f"field 'labels': has {len(labels)} entries, expected {len(members)}"
            )
        labels = tuple(labels)

    return MatrixSetDocument(dim, field_tag, MatrixSet(members), labels)


def emit_document(document: MatrixSetDocument, indent: int | None = None) -> str:
    """Serialize a document back to JSON text (deterministically)."""
    real = document.field_tag == "real"
    payload: dict = {
        "dim": document.dim,
        "field_tag": document.field_tag,
        "matrices": encode_array(document.matrix_set.stack.real if real else document.matrix_set),
    }
    if document.labels is not None:
        payload["labels"] = list(document.labels)
    return json.dumps(payload, indent=indent) + "\n"


def document_from_set(mset: MatrixSet, labels=None) -> MatrixSetDocument:
    """Wrap a matrix set as a document, choosing the narrowest field tag."""
    tag = "complex" if np.abs(mset.stack.imag).max() > 0.0 else "real"
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(mset):
            raise ValidationError(f"{len(labels)} labels for {len(mset)} matrices")
    return MatrixSetDocument(mset.dim, tag, mset, labels)
