"""Golden CLI outputs: every stored case reproduces its stdout byte for byte
and its exit code, and every case that reads a document reproduces its
verdicts on the document times 2^600 and 2^-600, every float moved by exactly
that power of two.  The cases and the regenerate command live in
``tests/golden/regen.py``."""

import json
import warnings

import numpy as np
import pytest

from .golden.regen import GOLDEN, cases, run_case

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
CASES = cases()
# the JSON cases that read a document; their matrix arguments are scaled along with it,
# and a transform or a unit vector, which is dimensionless, is not
DOCUMENT_CASES = [(name, argv) for name, argv in CASES if "-i" in argv and "--json" in argv]
SCALED_ARGUMENTS = ("--candidate", "--lower")


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    code, stdout, _ = run_case(argv)
    assert code == EXIT_CODES[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_stored_output_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(EXIT_CODES)
    assert sorted(EXIT_CODES) == sorted(name for name, _ in CASES)


def times_two_to(node, k: int):
    """A JSON grid with every number in it times 2^k."""
    if isinstance(node, list):
        return [times_two_to(item, k) for item in node]
    return float(np.ldexp(node, k))


def moved_leaves(node, k: int, path: str = "") -> list:
    """The leaves of a JSON report with their paths, each float times 2^k."""
    if isinstance(node, dict):
        return [leaf for key in sorted(node) for leaf in moved_leaves(node[key], k, f"{path}/{key}")]
    if isinstance(node, list):
        return [(path, len(node))] + [leaf for i, item in enumerate(node) for leaf in moved_leaves(item, k, f"{path}/{i}")]
    return [(path, float(np.ldexp(node, k)) if isinstance(node, float) else node)]


@pytest.mark.parametrize("k", [600, -600])
@pytest.mark.parametrize("name, argv", DOCUMENT_CASES, ids=[name for name, _ in DOCUMENT_CASES])
def test_golden_output_at_a_power_of_two(tmp_path, name, argv, k):
    argv = [arg.replace("{dir}", str(GOLDEN)) for arg in argv]
    scaled = list(argv)
    document = json.loads(open(argv[argv.index("-i") + 1]).read())
    document["matrices"] = times_two_to(document["matrices"], k)
    scaled[argv.index("-i") + 1] = str(tmp_path / "scaled.json")
    (tmp_path / "scaled.json").write_text(json.dumps(document))
    for flag in set(SCALED_ARGUMENTS) & set(argv):
        scaled[argv.index(flag) + 1] = json.dumps(times_two_to(json.loads(argv[argv.index(flag) + 1]), k))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run_case(scaled)
    assert caught == []
    assert code == EXIT_CODES[name]
    # an error is reported as at scale 1, and a report moves by 2^k
    assert stderr == run_case(argv)[2]
    if code == 0:
        golden = json.loads((GOLDEN / f"{name}.out").read_text())
        report = json.loads(stdout)
        assert moved_leaves(report.pop("verdicts"), 0) == moved_leaves(golden.pop("verdicts"), k)
        assert {**report, "digest": None} == {**golden, "digest": None}
