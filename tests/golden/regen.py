"""Golden CLI outputs: the cases, how one is run, and how they are regenerated.

Each case is one ``loewner`` invocation run in-process.  Its stdout, less the
``elapsed`` line of a text report, is kept verbatim in ``<case>.out`` and its
exit code in ``exit_codes.json``; ``tests/test_golden.py`` replays every case
and requires both to match byte for byte.  Document inputs are the stored
``fixture ... --json`` outputs and ``complex12.json``, a seeded complex n = 12
family with ``-0.0`` entries.

Regenerate, only when a change is meant to alter the output, with

    python tests/golden/regen.py

It reports what moved against the outputs it replaces: each changed case with
the largest change of a float in it, and, flagged, any change outside floats
(a verdict, count, digest, text or exit code).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
SRC = GOLDEN.parents[1] / "src"

FIXTURES = (
    "ex3.2", "ex3.5i", "ex3.5ii", "ex3.5iii", "ex4.3", "ex4.7", "ex4.8i", "ex4.8ii", "ex6.2",
)
SUITES = (
    "albert-vs-spectral", "anti-lattice", "commuting-tworoute", "effect-projection",
    "mt-family", "parallel-ando", "positive-mlb", "stott-roundtrip",
)
# the commands that read a document and take no other argument
DOCUMENT_COMMANDS = (
    "check-order", "infimum", "commuting-glb", "positive-mlb", "positive-glb",
    "mlb-mt", "parallel-sum", "ando",
)
ROOT2 = "1.4142135623730951"
# the cases whose default text report is kept too, as ``<case>-text``
TEXT_CASES = {f"{command}-{name}" for command in DOCUMENT_COMMANDS for name in ("ex6.2", "complex12")} | {
    "certify-ex6.2-half", "maximal-extend-ex6.2", "constrained-ex4.7", "mlb-mt-ex6.2-transform",
    "stott-build-complex", "stott-recover-complex", "ensemble-anti-lattice",
}
# the one line of a text report that differs between runs
_ELAPSED = re.compile(r"^  elapsed: [^\n]* ms\n", re.MULTILINE)


def _doc(name: str) -> str:
    return "{dir}/" + ("complex12.json" if name == "complex12" else f"fixture-{name}-json.out")


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) pairs; ``{dir}`` in an argument stands for this directory."""
    out = []
    for name in FIXTURES:
        out.append((f"fixture-{name}-json", ["fixture", name, "--json"]))
        out.append((f"fixture-{name}-text", ["fixture", name]))
    out.append(("fixture-ex4.3-truncated", ["fixture", "ex4.3", "--truncate-n", "3", "--json"]))
    for name in FIXTURES + ("complex12",):
        for command in DOCUMENT_COMMANDS:
            out.append((f"{command}-{name}", [command, "-i", _doc(name), "--json"]))

    def with_doc(case: str, command: str, doc: str, *extra: str) -> None:
        out.append((case, [command, "-i", _doc(doc), "--json", *extra]))

    with_doc("certify-ex6.2-half", "certify", "ex6.2", "--candidate", "[[0.5, 0], [0, 0]]")
    with_doc("certify-ex6.2-zero", "certify", "ex6.2", "--candidate", "[[0, 0], [0, 0]]")
    with_doc("certify-ex6.2-pairs", "certify", "ex6.2",
             "--candidate", "[[[0.5, 0], [0, 0]], [[0, 0], [0, -0.0]]]")
    with_doc("certify-ex6.2-mixed", "certify", "ex6.2", "--candidate", "[[0.5, [0, 0]], [0, 0]]")
    with_doc("maximal-extend-ex6.2", "maximal-extend", "ex6.2", "--lower", "[[0, 0], [0, 0]]")
    with_doc("maximal-extend-ex4.7", "maximal-extend", "ex4.7", "--lower", "[[-1, 0], [0, -1]]")
    minus_identity = json.dumps((-np.eye(12)).tolist())
    with_doc("maximal-extend-complex12", "maximal-extend", "complex12", "--lower", minus_identity)
    with_doc("mlb-mt-ex6.2-transform", "mlb-mt", "ex6.2", "--transform", "[[2, 1], [0, 1]]")
    with_doc("mlb-mt-ex6.2-transform-pairs", "mlb-mt", "ex6.2",
             "--transform", "[[[1, 0], [0, 1]], [[0, 0], [1, 0]]]")
    with_doc("mlb-mt-ex6.2-singular", "mlb-mt", "ex6.2", "--transform", "[[0, 0], [0, 0]]")
    with_doc("constrained-ex4.7", "constrained", "ex4.7", "--u", "[1, 0]")
    with_doc("constrained-ex6.2", "constrained", "ex6.2", "--u", "[1, 0]")
    with_doc("constrained-complex12", "constrained", "complex12", "--u", json.dumps([1] + [0] * 11))
    half = "0.7071067811865476"
    with_doc("constrained-complex12-pairs", "constrained", "complex12",
             "--u", f"[[{half}, 0], [0, {half}]" + ", 0" * 10 + "]")
    out.append(("stott-build-real", ["stott", "--p", "2", "--q", "1", "--x", "[[0.3], [-0.2]]", "--json"]))
    out.append(("stott-build-complex",
                ["stott", "--p", "2", "--q", "1", "--x", "[[[0.3, 0.1]], [[-0.2, 0.4]]]", "--json"]))
    out.append(("stott-recover-real", ["stott", "--p", "1", "--q", "1", "--json", "--matrix",
                                       f"[[-1, -{ROOT2}], [-{ROOT2}, -2]]"]))
    out.append(("stott-recover-complex", ["stott", "--p", "1", "--q", "1", "--json", "--matrix",
                                          f"[[[-1, 0], [0, -{ROOT2}]], [[0, {ROOT2}], [-2, 0]]]"]))
    for suite in SUITES:
        out.append((f"ensemble-{suite}", ["ensemble", "--suite", suite, "--trials", "5", "--json"]))
    for suite in SUITES:
        out.append((f"ensemble-{suite}-seed601",
                    ["ensemble", "--suite", suite, "--trials", "10", "--seed", "601", "--json"]))
    out += [(f"{name}-text", [arg for arg in argv if arg != "--json"]) for name, argv in out if name in TEXT_CASES]
    return out


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation in-process; return its exit code, its stdout, less
    a text report's elapsed line, and its stderr."""
    from loewner.cli import main

    argv = [arg.replace("{dir}", str(GOLDEN)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, _ELAPSED.sub("", stdout.getvalue()), stderr.getvalue()


def complex12_document() -> str:
    """Three PSD members, block diagonal with 5 x 5 and 7 x 7 blocks of rank
    3 and 5; every entry of the off-diagonal blocks is written as -0.0."""
    rng = np.random.default_rng(20260412)
    grids = []
    for _ in range(3):
        mat = np.zeros((12, 12), dtype=np.complex128)
        for lo, hi in ((0, 5), (5, 12)):
            g = rng.standard_normal((hi - lo, hi - lo - 2)) + 1j * rng.standard_normal((hi - lo, hi - lo - 2))
            mat[lo:hi, lo:hi] = g @ g.conj().T
        mat = (mat + mat.conj().T) / 2.0
        re, im = mat.real.copy(), mat.imag.copy()
        re[:5, 5:] = re[5:, :5] = -0.0
        im[:5, 5:] = -0.0
        grids.append(np.stack([re, im], axis=-1).tolist())
    return json.dumps({"dim": 12, "field_tag": "complex", "matrices": grids}) + "\n"


# a float literal in text output: it has a fraction, an exponent or is not a number
_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+|-?Infinity|NaN")


def _leaves(text: str) -> tuple[list[float], list]:
    """The floats of an output, in order, and everything else: the JSON leaves that
    are not floats with their paths, or the text with its float literals cut out."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [float(x) for x in _FLOAT.findall(text)], _FLOAT.split(text)
    floats, rest = [], []

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{path}/{key}")
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}/{i}")
        elif isinstance(node, float):
            floats.append(node)
        else:
            rest.append((path, node))
    walk(doc, "")
    return floats, rest


def _moved(old: str, new: str) -> str | None:
    """How ``new`` differs from ``old``, or None when it does not."""
    if old == new:
        return None
    (f0, rest0), (f1, rest1) = _leaves(old), _leaves(new)
    if rest0 != rest1 or len(f0) != len(f1):
        changed = [f"{a} -> {b}" for a, b in zip(rest0, rest1) if a != b][:3] or ["shape"]
        return "CHANGED OUTSIDE FLOATS: " + "; ".join(map(str, changed))
    delta = max((abs(a - b) for a, b in zip(f0, f1) if a != b and not (math.isnan(a) and math.isnan(b))),
                default=0.0)
    return f"floats only, max |delta| = {delta:.3e}"


def main() -> int:
    sys.path.insert(0, str(SRC))
    old = {stale.stem: stale.read_text() for stale in GOLDEN.glob("*.out")}
    codes_path = GOLDEN / "exit_codes.json"
    old_codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    (GOLDEN / "complex12.json").write_text(complex12_document())
    codes = {}
    for name, argv in cases():
        codes[name], stdout, _ = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(stdout)
    codes_path.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} golden cases to {GOLDEN}")
    moved = 0
    for name in sorted(set(old) | set(codes)):
        if name not in codes or name not in old:
            report = "CHANGED OUTSIDE FLOATS: case " + ("removed" if name in old else "added")
        elif old_codes.get(name) != codes[name]:
            report = f"CHANGED OUTSIDE FLOATS: exit code {old_codes.get(name)} -> {codes[name]}"
        else:
            report = _moved(old[name], (GOLDEN / f"{name}.out").read_text())
        if report:
            moved += 1
            print(f"  {name}: {report}")
    print(f"{moved} case(s) moved" if moved else "no case moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
