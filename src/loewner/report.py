"""Structured run reports with a human rendering and a byte-stable JSON
rendering.

The JSON form deliberately omits wall-clock time: identical inputs must
produce identical bytes, and elapsed time is the one nondeterministic field.
The human rendering shows it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianMatrix, MatrixSet, Tolerances

__all__ = [
    "RunReport",
    "encode_array",
    "encode_certificate",
    "canonical_digest",
]


def _as_array(value) -> np.ndarray:
    """The array behind a ``MatrixSet`` (its stack), a ``HermitianMatrix`` or an array."""
    if isinstance(value, MatrixSet):
        return value.stack
    if isinstance(value, HermitianMatrix):
        return value.mat
    return np.asarray(value)


def encode_array(value):
    """Wire encoding of a matrix, vector or matrix set (``None`` passes through).

    Complex entries become ``[re, im]`` pairs and real entries plain numbers;
    a vector encodes as a one-row grid and a ``MatrixSet`` (its stacked
    array) as a list of grids.  Adding 0.0 folds negative zero into plain
    zero, so equal values always encode to equal bytes.
    """
    if value is None:
        return None
    arr = np.atleast_2d(_as_array(value))
    if np.iscomplexobj(arr):
        arr = np.stack((arr.real, arr.imag), axis=-1)
    return (arr + 0.0).tolist()


def encode_certificate(cert) -> dict:
    return {
        "per_member_nullspace_dims": list(cert.per_member_nullspace_dims),
        "span_dim": cert.span_dim,
        "is_lower_bound": cert.is_lower_bound,
        "is_maximal": cert.is_maximal,
    }


def canonical_digest(command: str, inputs: dict, tolerances: dict, seed: int | None) -> str:
    """Short stable digest of the inputs of a run: the first 12 hex digits of
    one SHA-256 over a canonical byte stream.

    The stream starts with the UTF-8 ``json.dumps(sort_keys=True)`` of the
    skeleton ``{"command", "inputs", "seed", "tolerances"}``, in which every
    array of ``inputs`` (an ndarray, a ``MatrixSet`` or a ``HermitianMatrix``)
    stands as ``{"shape": [...]}``.  Each array's little-endian complex128
    bytes, C order, follow in the order the skeleton lists them.  Adding 0.0
    folds negative zero into plain zero, so equal values digest alike, as
    they encode alike, and a real array digests as its complex twin.
    """
    arrays = []

    def skeleton(value):
        if isinstance(value, dict):
            return {key: skeleton(value[key]) for key in sorted(value)}
        if isinstance(value, (np.ndarray, MatrixSet, HermitianMatrix)):
            arrays.append(_as_array(value))
            return {"shape": list(arrays[-1].shape)}
        return value

    head = {"command": command, "inputs": skeleton(inputs), "seed": seed, "tolerances": tolerances}
    digest = hashlib.sha256(json.dumps(head, sort_keys=True).encode())
    for arr in arrays:
        digest.update((np.asarray(arr, dtype="<c16") + 0.0).tobytes())
    return digest.hexdigest()[:12]


def _looks_like_matrix(value) -> bool:
    if not isinstance(value, list) or not value:
        return False
    if not all(isinstance(row, list) and len(row) == len(value[0]) and row for row in value):
        return False
    return all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, (int, float)) for x in e)
        for row in value
        for e in row
    )


def _format_entry(pair) -> str:
    re_part, im_part = pair
    if im_part == 0.0:
        return f"{re_part:.10g}"
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part:.10g}{sign}{abs(im_part):.10g}i"


def _render_matrix(rows, indent: str) -> list[str]:
    cells = [[_format_entry(e) for e in row] for row in rows]
    widths = [max(len(cells[r][c]) for r in range(len(cells))) for c in range(len(cells[0]))]
    return [
        indent + "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row))
        for row in cells
    ]


def _render_value(key: str, value, indent: str = "  ") -> list[str]:
    if _looks_like_matrix(value):
        return [f"{indent}{key}:"] + _render_matrix(value, indent + "    ")
    if isinstance(value, dict):
        lines = [f"{indent}{key}:"]
        for sub_key, sub_value in value.items():
            lines.extend(_render_value(sub_key, sub_value, indent + "  "))
        return lines
    if isinstance(value, list) and value and all(_looks_like_matrix(v) for v in value):
        lines = [f"{indent}{key}:"]
        for i, sub in enumerate(value):
            lines.append(f"{indent}  [{i}]")
            lines.extend(_render_matrix(sub, indent + "    "))
        return lines
    if isinstance(value, float):
        return [f"{indent}{key}: {value:.12g}"]
    return [f"{indent}{key}: {value}"]


@dataclass
class RunReport:
    """Outcome of one CLI invocation or ensemble run."""

    command: str
    digest: str
    tolerances: Tolerances
    seed: int | None
    verdicts: dict
    notes: tuple[str, ...] = ()
    elapsed_ms: float = 0.0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "digest": self.digest,
            "seed": self.seed,
            "tolerances": self.tolerances.as_dict(),
            "verdicts": self.verdicts,
            "notes": list(self.notes),
        }
        # elapsed_ms stays out: the JSON rendering is byte-stable.
        return json.dumps(payload, sort_keys=True) + "\n"

    def render_text(self) -> str:
        tolerances = "  ".join(f"{k}={v:g}" for k, v in self.tolerances.as_dict().items())
        lines = [
            f"= {self.command} =",
            f"  digest: {self.digest}",
            f"  tolerances: {tolerances}",
        ]
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        for key, value in self.verdicts.items():
            lines.extend(_render_value(key, value))
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  elapsed: {self.elapsed_ms:.1f} ms")
        return "\n".join(lines) + "\n"
