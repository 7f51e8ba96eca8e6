"""Command-line interface for the Loewner-order toolkit.

Every subcommand reads matrix sets as JSON documents (see ``documents``),
emits an annotated human report by default or a byte-stable JSON report with
``--json``, and exits with 0 on success, 1 on usage errors, 2 on validation
or parse errors, and 3 on numerical failures.

The subcommands are the rows of ``COMMANDS``; the parser and the dispatch
are both built from that table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bounds import (
    StottParam,
    certify_maximal,
    is_lower_bound,
    mlb_mt,
    signature_matrix,
    stott_mx,
    stott_recover_x,
)
from .constrained import _maximal_from_report, constrained_at_vector
from .documents import decode_grid, emit_document, parse_document
from .ensembles import DEFAULT_DIMS, SUITE_NAMES, ensemble_run
from .errors import (
    LoewnerError,
    NotCommutingFamily,
    ParseError,
    UsageError,
    ValidationError,
)
from .fixtures import FIXTURE_NAMES, fixture
from .infimum import (
    commutant_basis,
    commuting_glb,
    extend_to_maximal,
    finite_infimum,
    positive_glb_family,
    positive_maximal_lb,
)
from .linalg import (
    DEFAULT_TOL,
    Comparability,
    HermitianMatrix,
    MatrixSet,
    Tolerances,
    compare,
    hermitize,
    identity,
    loewner_leq,
    range_nullspace,
)
from .parallel import _parallel_sum, two_op_positive_glb
from .report import RunReport, canonical_digest, encode_array, encode_certificate

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _arg_payload(value: str, name: str):
    text = value
    if value.startswith("@"):
        text = _read_text(value[1:])
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: invalid JSON: {exc.msg}") from exc


def _parse_matrix_arg(value: str, name: str) -> np.ndarray:
    payload = _arg_payload(value, name)
    if not isinstance(payload, list) or not payload or not all(isinstance(r, list) for r in payload):
        raise ParseError(f"{name}: expected a 2-d array")
    width = len(payload[0])
    if width == 0 or any(len(r) != width for r in payload):
        raise ValidationError(f"{name}: rows have unequal lengths")
    return decode_grid(payload, (len(payload), width), name)


def _parse_vector_arg(value: str, name: str) -> np.ndarray:
    payload = _arg_payload(value, name)
    if not isinstance(payload, list) or not payload:
        raise ParseError(f"{name}: expected a nonempty 1-d array")
    return decode_grid(payload, (len(payload),), name)


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return int(lo), int(hi)
        single = int(text)
        return single, single
    except ValueError as exc:
        raise UsageError(f"--dims expects LO:HI or N, got {text!r}") from exc


# ---------------------------------------------------------------------------
# command handlers: each takes (args, tol, document or None) and returns
# (verdicts, notes, digest inputs beyond the document, arrays as they are),
# or None when it has written its own output


def _cmd_check_order(args, tol, doc):
    s, t = doc.matrix_set[0], doc.matrix_set[1]
    verdict = compare(s, t, tol)
    verdicts = {
        "comparability": verdict.value,
        "first_below_second": verdict in (Comparability.LESS_EQUAL, Comparability.EQUAL),
        "second_below_first": verdict in (Comparability.GREATER_EQUAL, Comparability.EQUAL),
    }
    notes = (
        "S <= T in the Loewner order exactly when T - S is positive semidefinite;"
        " eigenvalues above -psd_rel * max(|S|, |T|) count as nonnegative.",
    )
    return verdicts, notes, {}


def _cmd_infimum(args, tol, doc):
    report = finite_infimum(doc.matrix_set, tol)
    verdicts = {
        "exists": report.exists,
        "minimizing_index": report.minimizing_index,
        "minimizing_label": (
            doc.label_of(report.minimizing_index) if report.exists else None
        ),
        "infimum": encode_array(report.infimum),
    }
    notes = (
        "a finite set has an infimum exactly when one member is a lower bound of"
        " all members; incomparable matrices never have one, so nonexistence is"
        " the generic outcome.",
    )
    return verdicts, notes, {}


def _cmd_certify(args, tol, doc):
    candidate = hermitize(_parse_matrix_arg(args.candidate, "--candidate"), tol)
    cert = certify_maximal(candidate, doc.matrix_set, tol)
    verdicts = {
        "is_lower_bound": cert.is_lower_bound,
        "certificate": encode_certificate(cert),
        "is_maximal": cert.is_maximal,
        "extreme_certified": cert.is_maximal,
    }
    notes = (
        "maximality holds exactly when the null spaces of the gaps A - M jointly"
        " span the whole space; a passing certificate also marks M as an extreme"
        " point of the lower-bound set.",
    )
    return verdicts, notes, {"candidate": candidate}


def _cmd_maximal_extend(args, tol, doc):
    lower = hermitize(_parse_matrix_arg(args.lower, "--lower"), tol)
    extension = extend_to_maximal(lower, doc.matrix_set, tol)
    cert = certify_maximal(extension, doc.matrix_set, tol)
    verdicts = {
        "extension": encode_array(extension),
        "certificate": encode_certificate(cert),
        "dominates_input": loewner_leq(lower, extension, tol),
    }
    notes = (
        "the extension adds a positive maximal lower bound of the family shifted"
        " by the input, so it dominates the input and is itself maximal.",
    )
    return verdicts, notes, {"lower": lower}


def _cmd_commuting_glb(args, tol, doc):
    mset = doc.matrix_set
    commutant = commutant_basis(mset, tol)
    try:
        glb = commuting_glb(mset, tol)
        commuting = True
    except NotCommutingFamily:
        commuting = False
    notes: list[str] = []
    if commuting:
        notes.append(
            "for a pairwise commuting family the bound carries the entrywise"
            " minimum of the joint diagonals; a pairwise fold and a joint"
            " diagonalization were compared and agree."
        )
    elif len(commutant) == 1:
        glb = mset.min_eigenvalue() * identity(mset.dim)
        notes.append(
            "the members do not pairwise commute and only scalars commute with"
            " all of them, so the commuting lower bounds are c I with c at most"
            " every member's smallest eigenvalue; the greatest one is reported."
        )
    else:
        raise NotCommutingFamily(
            "members neither pairwise commute nor have a scalar-only commutant;"
            " the greatest commuting lower bound is not computed for this case"
        )
    cert = certify_maximal(glb, mset, tol)
    notes.append(
        "a commuting maximal lower bound exists exactly when this bound"
        " certifies maximal, and it is then the unique one."
    )
    verdicts = {
        "pairwise_commuting": commuting,
        "commutant_dimension": len(commutant),
        "glb": encode_array(glb),
        "certificate": encode_certificate(cert),
        "commuting_maximal_exists": cert.is_maximal,
    }
    return verdicts, notes, {}


def _cmd_positive_mlb(args, tol, doc):
    bound = positive_maximal_lb(doc.matrix_set, tol)
    cert = certify_maximal(bound, doc.matrix_set, tol)
    verdicts = {
        "bound": encode_array(bound),
        "certificate": encode_certificate(cert),
        "smallest_member_eigenvalue": doc.matrix_set.min_eigenvalue(),
    }
    notes = (
        "built one split per level, each at the eigenvector attaining the smallest"
        " member eigenvalue; the certificate re-checks maximality from scratch.",
    )
    return verdicts, notes, {}


def _cmd_positive_glb(args, tol, doc):
    report = positive_glb_family(doc.matrix_set, tol)
    verdicts = {
        "exists": report.exists,
        "common_range_dim": report.k_subspace.dim,
        "parallel_sum": encode_array(report.s_parallel),
        "tilde_set": encode_array(report.tilde_set),
        "glb": encode_array(report.glb),
        "minimizing_index": report.minimizing_index,
        "minimizing_label": (
            doc.label_of(report.minimizing_index) if report.exists else None
        ),
    }
    notes = (
        "S is the parallel-sum fold of the family and its range K the common"
        " effective subspace; the greatest positive lower bound exists exactly"
        " when the compressed family {[S]A} has a minimum member, and equals it.",
    )
    return verdicts, notes, {}


def _cmd_mlb_mt(args, tol, doc):
    a, b = doc.matrix_set[0], doc.matrix_set[1]
    if args.transform is None:
        transform = np.eye(doc.dim, dtype=np.complex128)
    else:
        transform = _parse_matrix_arg(args.transform, "--transform")
    bound = mlb_mt(a, b, transform, tol)
    cert = certify_maximal(bound, doc.matrix_set, tol)
    verdicts = {
        "bound": encode_array(bound),
        "certificate": encode_certificate(cert),
    }
    notes = (
        "M_T = (A + B - T*|T^-*(A - B)T^-1|T) / 2 is a maximal lower bound of"
        " {A, B} for every invertible T and depends on T only through |T|.",
    )
    return verdicts, notes, {"transform": transform}


def _cmd_stott(args, tol, doc):
    p, q = args.p, args.q
    if p < 1 or q < 1:
        raise UsageError("--p and --q must both be at least 1")
    if (args.x is None) == (args.matrix is None):
        raise UsageError("stott needs exactly one of --x or --matrix")
    if args.x is not None:
        x = _parse_matrix_arg(args.x, "--x")
        pair = stott_mx(StottParam(p, q, x), tol)
        mset = MatrixSet([signature_matrix(p, q), HermitianMatrix(np.zeros((p + q, p + q)))])
        cert = certify_maximal(pair.mx, mset, tol)
        verdicts = {
            "mode": "build",
            "s_matrix": encode_array(pair.sx),
            "m_matrix": encode_array(pair.mx),
            "certificate": encode_certificate(cert),
            "nullspace_dim_s": range_nullspace(pair.sx, tol).nullspace.dim,
            "nullspace_dim_m": range_nullspace(pair.mx, tol).nullspace.dim,
        }
        notes = (
            "M(X) = J - S(X) runs over all maximal lower bounds of {J, 0}"
            " exactly once as X runs over p x q matrices.",
        )
        return verdicts, notes, {"p": p, "q": q, "x": x}
    m = hermitize(_parse_matrix_arg(args.matrix, "--matrix"), tol)
    param = stott_recover_x(m, p, q, tol)
    rebuilt = stott_mx(param, tol).mx
    verdicts = {
        "mode": "recover",
        "x": encode_array(param.x),
        "roundtrip_error": (rebuilt - m).norm(),
    }
    notes = (
        "X is recovered from the angular operator of the null space of M, which"
        " is a graph over the positive block whenever M is maximal for {J, 0}.",
    )
    return verdicts, notes, {"p": p, "q": q, "matrix": m}


def _cmd_constrained(args, tol, doc):
    u = _parse_vector_arg(args.u, "--u")
    report = constrained_at_vector(doc.matrix_set, u, tol)
    element = _maximal_from_report(report, tol)
    verdicts = {
        "alpha": report.alpha,
        "attaining_indices": list(report.mu_indices),
        "attaining_labels": [doc.label_of(i) for i in report.mu_indices],
        "attainers_agree": report.attainers_agree,
        "constrained_family_empty": not report.attainers_agree,
        "reduced_set": encode_array(report.reduced_set),
        "witness_row": encode_array(report.witness_row),
        "maximal_element": encode_array(element),
        "certificate": (
            encode_certificate(certify_maximal(element, doc.matrix_set, tol))
            if element is not None
            else None
        ),
    }
    notes = (
        "a lower bound matching the set minimum alpha at u exists exactly when"
        " every member attaining alpha sends u to one common vector; the problem"
        " then reduces to lower bounds of a smaller family on the complement of u.",
    )
    return verdicts, notes, {"u": u}


def _cmd_parallel_sum(args, tol, doc):
    # the sum is built on the members' common range K, so its rank is K's dimension
    total, k = _parallel_sum(doc.matrix_set, tol)
    verdicts = {
        "parallel_sum": encode_array(total),
        "rank": k.range.dim,
        "common_range_dim": k.range.dim,
        "below_every_member": is_lower_bound(total, doc.matrix_set, tol),
    }
    notes = (
        "the parallel sum is the matrix analogue of resistors in parallel; its"
        " range is the intersection of the member ranges.",
    )
    return verdicts, notes, {}


def _cmd_ando(args, tol, doc):
    a, b = doc.matrix_set[0], doc.matrix_set[1]
    result = two_op_positive_glb(a, b, tol)
    verdicts = {
        "ando_ab": encode_array(result.ando_ab),
        "ando_ba": encode_array(result.ando_ba),
        "comparability": result.comparability.value,
        "exists": result.exists,
        "glb": encode_array(result.glb),
    }
    notes = (
        "[A]B is the largest part of B supported inside the range of A; the"
        " greatest positive lower bound of the pair exists exactly when [A]B"
        " and [B]A are comparable, and is then the smaller of the two.",
    )
    return verdicts, notes, {}


def _cmd_ensemble(args, tol, doc):
    dims = _parse_dims(args.dims) if args.dims else DEFAULT_DIMS.get(args.suite)
    inputs = {"suite": args.suite, "trials": args.trials, "dims": list(dims) if dims else None}
    verdicts = {
        "suite": args.suite,
        "dims": inputs["dims"],
        **ensemble_run(args.suite, args.trials, dims, args.seed, tol),
    }
    notes = (
        "seeded suite: identical seed, trials, dims, and tolerances reproduce"
        " this report byte for byte.",
    )
    return verdicts, notes, inputs


def _cmd_fixture(args, tol, doc):
    fx = fixture(args.name, args.truncate_n)
    sys.stdout.write(emit_document(fx.document, indent=None if args.json else 2))
    if not args.json:
        for note in fx.notes:
            sys.stdout.write(f"note: {note}\n")
    return None


class Command(NamedTuple):
    name: str
    help: str
    arguments: tuple  # (flags, add_argument keywords) per extra argument
    arity: int | None  # members the document must hold; None any, 0 reads none
    handler: Callable


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


COMMANDS = (
    Command("check-order", "compare two matrices in the Loewner order", (), 2, _cmd_check_order),
    Command("infimum", "decide whether the set has an infimum", (), None, _cmd_infimum),
    Command("certify", "certify a candidate maximal lower bound",
            (_arg("--candidate", required=True, help="candidate matrix as inline JSON or @file"),),
            None, _cmd_certify),
    Command("maximal-extend", "extend a lower bound to a maximal one",
            (_arg("--lower", required=True, help="starting lower bound as inline JSON or @file"),),
            None, _cmd_maximal_extend),
    Command("commuting-glb", "greatest lower bound among commuting matrices", (), None,
            _cmd_commuting_glb),
    Command("positive-mlb", "positive maximal lower bound of a PSD family", (), None,
            _cmd_positive_mlb),
    Command("positive-glb", "greatest positive lower bound of a PSD family", (), None,
            _cmd_positive_glb),
    Command("mlb-mt", "explicit maximal lower bound of a pair",
            (_arg("--transform", default=None,
                  help="invertible transform T as inline JSON or @file (default identity)"),),
            2, _cmd_mlb_mt),
    Command("stott", "parametrize maximal lower bounds of {J, 0}",
            (_arg("--p", type=int, required=True, help="positive block size"),
             _arg("--q", type=int, required=True, help="negative block size"),
             _arg("--x", default=None, help="p x q parameter as inline JSON or @file"),
             _arg("--matrix", default=None,
                  help="maximal lower bound of {J, 0} to invert, inline JSON or @file")),
            0, _cmd_stott),
    Command("constrained", "lower bounds pinned to the set minimum at a vector",
            (_arg("--u", required=True, help="unit vector as inline JSON or @file"),),
            None, _cmd_constrained),
    Command("parallel-sum", "parallel sum of a PSD family", (), None, _cmd_parallel_sum),
    Command("ando", "range-limited parts [A]B, [B]A and the pair's positive glb", (), 2, _cmd_ando),
    Command("fixture", "emit a bundled example family as a document",
            (_arg("name", choices=sorted(FIXTURE_NAMES), metavar="name",
                  help=f"one of: {', '.join(sorted(FIXTURE_NAMES))}"),
             _arg("--truncate-n", type=int, default=None,
                  help="members to draw from a countable family (default 8)")),
            0, _cmd_fixture),
    Command("ensemble", "run a named seeded invariant suite",
            (_arg("--suite", required=True, choices=sorted(SUITE_NAMES), metavar="SUITE",
                  help=f"one of: {', '.join(sorted(SUITE_NAMES))}"),
             _arg("--trials", type=int, default=100, help="number of trials"),
             _arg("--dims", default=None, help="dimension range LO:HI (or a single N)"),
             _arg("--seed", type=int, default=0, help="seed of the suite's trials")),
            0, _cmd_ensemble),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel,
                        help="relative rank threshold")
    common.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.psd_rel,
                        help="relative positivity threshold")
    common.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq_rel,
                        help="relative equality threshold")
    common.add_argument("--json", action="store_true",
                        help="emit the byte-stable JSON report instead of text")

    reader = argparse.ArgumentParser(add_help=False)
    reader.add_argument("-i", "--input", default="-",
                        help="matrix-set document path, or - for stdin (default)")

    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Infima, maximal lower bounds, and greatest positive lower"
        " bounds of finite Hermitian matrix families.",
    )
    sub = parser.add_subparsers(dest="command")
    for spec in COMMANDS:
        parents = [common] if spec.arity == 0 else [common, reader]
        p = sub.add_parser(spec.name, parents=parents, help=spec.help)
        for flags, kwargs in spec.arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(spec=spec)
    return parser


def _execute(spec: Command, args, tol: Tolerances):
    """Read the command's document, if it takes one, and run its handler.

    Returns (verdicts, notes, digest inputs), or None when the handler wrote
    its own output.  The digest inputs hold the document's matrix set and
    every matrix argument as arrays, which ``canonical_digest`` hashes as bytes.
    """
    doc = None
    if spec.arity != 0:
        doc = parse_document(_read_text(args.input), tol)
        if spec.arity is not None and len(doc.matrix_set) != spec.arity:
            raise UsageError(
                f"{spec.name} needs exactly {spec.arity} matrices, got {len(doc.matrix_set)}"
            )
    result = spec.handler(args, tol, doc)
    if result is None or doc is None:
        return result
    verdicts, notes, extra = result
    payload = {
        "dim": doc.dim,
        "matrices": doc.matrix_set,
        "labels": list(doc.labels) if doc.labels else None,
    }
    return verdicts, notes, ({"set": payload, **extra} if extra else payload)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        try:
            tol = Tolerances(rank_rel=args.tol_rank, psd_rel=args.tol_psd, eq_rel=args.tol_eq)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        started = time.perf_counter()
        result = _execute(args.spec, args, tol)
    except (LoewnerError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return 1
        return 2 if isinstance(exc, ValidationError) else 3
    if result is None:
        return 0
    verdicts, notes, inputs = result
    elapsed = (time.perf_counter() - started) * 1000.0
    # only the ensemble suites are randomized, and only they take --seed
    seed = getattr(args, "seed", None)
    report = RunReport(
        command=args.command,
        digest=canonical_digest(args.command, inputs, tol.as_dict(), seed),
        tolerances=tol,
        seed=seed,
        verdicts=verdicts,
        notes=tuple(notes),
        elapsed_ms=elapsed,
    )
    sys.stdout.write(report.to_json() if args.json else report.render_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
