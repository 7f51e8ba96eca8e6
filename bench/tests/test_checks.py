"""The benchmark's correctness checks accept right answers and reject
planted wrong ones.  Run with: python -m pytest bench/tests"""

import json

import numpy as np
import pytest

import checks as C
from workloads import Cli, commuting_family, rand_hermitian


def _pair(n=6, seed=3):
    rng = np.random.default_rng(seed)
    while True:
        a, b = rand_hermitian(rng, n), rand_hermitian(rng, n)
        if C.comparability(a, b) == "incomparable":
            return a, b


def _m_identity(a, b):
    """M_I = (A + B - |A - B|) / 2, a maximal lower bound of {A, B}."""
    w, v = np.linalg.eigh(a - b)
    return (a + b - (v * np.abs(w)) @ v.conj().T) / 2.0


def test_maximal_lower_bound_accepted():
    a, b = _pair()
    C.check_maximal_lower_bound(_m_identity(a, b), [a, b])


def test_non_maximal_lower_bound_rejected():
    a, b = _pair()
    lowered = _m_identity(a, b) - 1e-3 * C.scale_of(a, b) * np.eye(6)
    C.check_lower_bound(lowered, [a, b])
    with pytest.raises(C.CheckFailed, match="not maximal"):
        C.check_maximal_lower_bound(lowered, [a, b])


def test_bound_above_a_member_rejected():
    a, b = _pair()
    raised = _m_identity(a, b) + 1e-3 * C.scale_of(a, b) * np.eye(6)
    with pytest.raises(C.CheckFailed, match="not a lower bound"):
        C.check_lower_bound(raised, [a, b])


def test_checks_are_scale_free():
    a, b = _pair()
    m = _m_identity(a, b)
    C.check_maximal_lower_bound(1e-9 * m, [1e-9 * a, 1e-9 * b])
    with pytest.raises(C.CheckFailed):
        C.check_maximal_lower_bound(1e-9 * (m - 1e-3 * np.eye(6)), [1e-9 * a, 1e-9 * b])


def test_commuting_glb_off_by_epsilon_rejected():
    u, diagonals, members = commuting_family(np.random.default_rng(5), 9)
    ref = C.commuting_glb_reference(u, diagonals)
    scale = C.scale_of(*members)
    C.assert_close(ref, ref, scale, "glb")
    C.check_maximal_lower_bound(ref, members, scale)
    off = ref + 1e-6 * scale * np.outer(u[:, 0], u[:, 0].conj())
    with pytest.raises(C.CheckFailed, match="off by"):
        C.assert_close(off, ref, scale, "glb")


def test_commutant_dimension_references_agree():
    u, diagonals, members = commuting_family(np.random.default_rng(6), 7)
    assert C.joint_multiplicity_dim(diagonals) == C.commutant_dim_kron(members)
    assert C.joint_multiplicity_dim(diagonals) > 7


def test_parallel_sum_reference():
    rng = np.random.default_rng(8)
    g, h = rng.standard_normal((2, 5, 5))
    a, b = g @ g.T + np.eye(5), h @ h.T + np.eye(5)
    C.assert_close(C.parallel_sum_reference([a, b]), a @ np.linalg.inv(a + b) @ b, 1.0, "a:b")


def test_stott_reference_is_maximal_for_j_zero():
    x = np.array([[0.3 + 0.1j], [-0.7j]])
    m = C.stott_m_reference(x)
    j = C.signature(2, 1)
    C.check_maximal_lower_bound(m, [j, np.zeros_like(j)])
    with pytest.raises(C.CheckFailed):
        C.check_maximal_lower_bound(m - 1e-4 * np.eye(3), [j, np.zeros_like(j)])


def test_ensemble_count_short_of_trials_rejected():
    verdict = {"trials": 20, "certified": 20, "roundtrips_within_1e-8": 20}
    C.check_ensemble_counts(verdict, 20, ("certified", "roundtrips_within_1e-8"))
    with pytest.raises(C.CheckFailed, match="certified = 19"):
        C.check_ensemble_counts(dict(verdict, certified=19), 20, ("certified",))


@pytest.fixture
def cli(tmp_path):
    workload = Cli(seed=1)
    try:
        ops = {op.name: op for op in workload.prepare(tmp_path)}

        def check(name: str, code: int, stdout: str, stderr: str) -> None:
            """Plant a child's output and exit code, then run the op's check."""
            out = workload.outputs[name]
            out.write_text(stdout)
            out.with_suffix(".err").write_text(stderr)
            ops[name].check(code)

        check.ops = ops
        yield check
    finally:
        workload.close()


def _report(verdicts) -> str:
    return json.dumps({"verdicts": verdicts})


def _encode(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def test_cli_wrong_exit_code_rejected(cli):
    good = _report({"bound": _encode(np.diag([0.5, 0.0]))})
    cli("positive-mlb/ex6.2", 0, good, "")
    with pytest.raises(C.CheckFailed, match="exit code 1"):
        cli("positive-mlb/ex6.2", 1, good, "Traceback")


def test_cli_fixture_glb_off_by_epsilon_rejected(cli):
    with pytest.raises(C.CheckFailed, match="off by"):
        cli("positive-mlb/ex6.2", 0, _report({"bound": _encode(np.diag([0.5 + 1e-6, 0.0]))}), "")


def test_cli_nan_document_needs_exit_2_and_error_line(cli):
    assert cli.ops["infimum/nan-document"].fault
    cli("infimum/nan-document", 2, "", "error: matrices[0]: entries must be finite\n")
    with pytest.raises(C.CheckFailed, match="exit code 1"):
        cli("infimum/nan-document", 1, "", "Traceback (most recent call last):\n")
    with pytest.raises(C.CheckFailed, match="error: line"):
        cli("infimum/nan-document", 2, "", "matrices[0]: entries must be finite\n")


def test_cli_non_maximal_extension_rejected(cli):
    half = np.diag([0.5, 0.0])
    cli("maximal-extend/ex6.2", 0, _report({"extension": _encode(half), "dominates_input": True}), "")
    lowered = _report({"extension": _encode(half - 1e-3 * np.eye(2)), "dominates_input": True})
    with pytest.raises(C.CheckFailed, match="not maximal"):
        cli("maximal-extend/ex6.2", 0, lowered, "")
