"""Golden CLI outputs: every stored case reproduces its stdout byte for byte
and its exit code.  The cases and the regenerate command live in
``tests/golden/regen.py``."""

import json

import pytest

from .golden.regen import GOLDEN, cases, run_case

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
CASES = cases()


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv):
    code, stdout = run_case(argv)
    assert code == EXIT_CODES[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_stored_output_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(EXIT_CODES)
    assert sorted(EXIT_CODES) == sorted(name for name, _ in CASES)
