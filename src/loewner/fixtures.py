"""Bundled example families, truncated to finite size where needed.

Each fixture is a matrix-set document plus human-oriented notes stating the
analytic behavior of the untruncated family, so desk experiments can be
checked against the known limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .documents import MatrixSetDocument, document_from_set
from .errors import UnknownFixture, ValidationError
from .linalg import HermitianMatrix, MatrixSet

__all__ = ["Fixture", "FIXTURE_NAMES", "fixture"]

DEFAULT_TRUNCATION = 8

# ex3.2 (and its alias ex3.5iii) holds N members of size N x N, so its
# truncation is capped: 128 members take 34 MB, 2,000 would take 128 GB.
MAX_SQUARE_TRUNCATION = 128

# The other families hold N to 2N + 2 members of size 2 x 2, about 570 bytes
# each: 10,000 takes under 12 MB, 10^9 would take 570 GB.
MAX_PAIR_TRUNCATION = 10_000

# Golden-ratio fractions drive the low-discrepancy angle sequence of ex3.5i.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Fixture:
    name: str
    truncation: int | None
    document: MatrixSetDocument
    notes: tuple[str, ...]


def _vector_projection(c: complex, s: complex) -> HermitianMatrix:
    v = np.array([c, s], dtype=np.complex128)
    return HermitianMatrix(np.outer(v, v.conj()))


def _ex32(n: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    # members k^2 P_k, with P_k the projection onto the k-th basis vector
    members = [HermitianMatrix(np.diag(np.eye(n)[k - 1] * float(k * k))) for k in range(1, n + 1)]
    labels = [f"n={k}" for k in range(1, n + 1)]
    notes = (
        "unbounded family of scaled one-dimensional projections;"
        " the untruncated family has infimum 0, which is not a member",
        "any two members are incomparable, so no truncation has an infimum"
        " once it holds two or more members",
    )
    return MatrixSet(members), labels, notes


def _ex35i(n: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    members = []
    for k in range(1, n + 1):
        theta = 0.5 * np.pi * ((k * _GOLDEN) % 1.0)
        phase = 2.0 * np.pi * ((k * _GOLDEN * _GOLDEN) % 1.0)
        members.append(_vector_projection(np.cos(theta), np.exp(1j * phase) * np.sin(theta)))
    labels = [f"k={k}" for k in range(1, n + 1)]
    notes = (
        "rank-one projections onto a low-discrepancy sequence of unit vectors;"
        " the untruncated family is bounded but not closed and has infimum 0",
    )
    return MatrixSet(members), labels, notes


def _ex35ii(n: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    members = []
    for k in range(1, n + 1):
        theta = 0.5 * np.pi * k / (n + 1)
        members.append(_vector_projection(np.cos(theta), np.sin(theta)))
    labels = [f"k={k}" for k in range(1, n + 1)]
    notes = (
        "equally spaced rank-one projections sampled from the compact family"
        " of all unit-vector projections, whose infimum is 0 with 0 not a member",
    )
    return MatrixSet(members), labels, notes


def _ex43(n: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    members = []
    for k in range(1, n + 1):
        rk = np.sqrt(1.0 / k)
        members.append(HermitianMatrix([[1.0 + 1.0 / k, rk], [rk, 1.0 / k]]))
    members.append(HermitianMatrix([[1.0, 0.0], [0.0, 0.0]]))
    labels = [f"n={k}" for k in range(1, n + 1)] + ["limit"]
    notes = (
        f"the greatest positive lower bound of this truncation is diag(1/{n}, 0)",
        "as the truncation grows, the greatest positive lower bound decreases to 0;"
        " 0 is the only positive lower bound of the untruncated family,"
        " and it is a maximal lower bound whose spanning certificate fails"
        " in the untruncated limit",
    )
    return MatrixSet(members), labels, notes


def _ex47(n: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    members = []
    for k in range(1, n + 1):
        rk = np.sqrt(1.0 / k)
        members.append(HermitianMatrix([[1.0 + 1.0 / (k * k), rk], [rk, 1.0 / k]]))
    members.append(HermitianMatrix([[1.0, 0.0], [0.0, 0.0]]))
    labels = [f"n={k}" for k in range(1, n + 1)] + ["limit"]
    notes = (
        "at u = e1 only the last member attains the minimum 1, and the reduced"
        f" family on the complement is {{1/n - n : n <= {n}}} with 0 adjoined",
        "the reduced family is unbounded below as the truncation grows, so the"
        " untruncated family has no lower bound agreeing with it at e1,"
        " although every finite truncation does",
    )
    return MatrixSet(members), labels, notes


def _ex48i(n: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    members = [HermitianMatrix([[1.0 + 1.0 / k, 1.0], [1.0, 1.0]]) for k in range(1, n + 1)]
    labels = [f"n={k}" for k in range(1, n + 1)]
    notes = (
        "the corner values 1 + 1/n approach 1 without attaining it; in the"
        " truncation the minimum at e1 is attained by the last member only",
        "the rank-one matrix of all ones bounds the untruncated family from"
        " below and agrees with its unattained corner infimum at e1",
    )
    return MatrixSet(members), labels, notes


def _ex48ii(n: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    members = [HermitianMatrix([[1.0 + 1.0 / k, 1.0], [1.0, 1.0]]) for k in range(1, n + 1)]
    members += [HermitianMatrix([[1.0 + 1.0 / k, 2.0], [2.0, 4.0]]) for k in range(1, n + 1)]
    members.append(HermitianMatrix([[1.0, 1.0], [1.0, 1.0]]))
    members.append(HermitianMatrix([[1.0, 2.0], [2.0, 4.0]]))
    labels = (
        [f"a n={k}" for k in range(1, n + 1)]
        + [f"b n={k}" for k in range(1, n + 1)]
        + ["a limit", "b limit"]
    )
    notes = (
        "the two adjoined limit matrices both attain the minimum 1 at e1 but"
        " send e1 to different vectors, so no lower bound of the family agrees"
        " with the minimum at e1: the constrained family at e1 is empty",
    )
    return MatrixSet(members), labels, notes


def _ex62(_: int) -> tuple[MatrixSet, list[str], tuple[str, ...]]:
    members = [
        HermitianMatrix([[1.0, 0.0], [0.0, 0.0]]),
        HermitianMatrix([[1.0, 1.0], [1.0, 2.0]]),
    ]
    notes = (
        "the positive maximal lower bound of this pair is diag(1/2, 0)",
        "only scalar multiples of the identity commute with both members; the"
        " greatest commuting lower bound is 0 and it is not a maximal lower"
        " bound, so no commuting maximal lower bound exists",
    )
    return MatrixSet(members), ["A", "B"], notes


_TRUNCATED = {
    "ex3.2": _ex32,
    "ex3.5i": _ex35i,
    "ex3.5ii": _ex35ii,
    "ex4.3": _ex43,
    "ex4.7": _ex47,
    "ex4.8i": _ex48i,
    "ex4.8ii": _ex48ii,
}

_FIXED = {"ex6.2": _ex62}

# ex3.5iii realizes the same unbounded projection family as ex3.2.
_ALIASES = {"ex3.5iii": "ex3.2"}

FIXTURE_NAMES = tuple(sorted(list(_TRUNCATED) + list(_FIXED) + list(_ALIASES)))


def fixture(name: str, truncation: int | None = None) -> Fixture:
    """Build a bundled example family by name.

    ``truncation`` bounds the number of members drawn from a countable
    family (default 8) and is ignored by the families that are already
    finite.
    """
    key = _ALIASES.get(name, name)
    if key in _FIXED:
        mset, labels, notes = _FIXED[key](0)
        return Fixture(name, None, document_from_set(mset, labels), notes)
    if key not in _TRUNCATED:
        raise UnknownFixture(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    n = DEFAULT_TRUNCATION if truncation is None else int(truncation)
    if n < 1:
        raise ValidationError(f"truncation must be at least 1, got {n}")
    limit, size = (MAX_SQUARE_TRUNCATION, f"{n} x {n}") if key == "ex3.2" else (MAX_PAIR_TRUNCATION, "2 x 2")
    if n > limit:
        raise ValidationError(
            f"{name} builds {n} or more members of size {size}; its truncation is limited to {limit}")
    mset, labels, notes = _TRUNCATED[key](n)
    return Fixture(name, n, document_from_set(mset, labels), notes)
