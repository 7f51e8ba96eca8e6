"""Command-line interface: exit codes, report shape, byte stability."""

import contextlib
import hashlib
import io
import json
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import cli, constrained, infimum, report
from loewner.cli import main
from loewner.documents import MatrixSetDocument, emit_document
from loewner.errors import ConvergenceFailure
from loewner.linalg import Comparability, MatrixSet

from .conftest import record_calls, scale_probe_family
from .golden.regen import GOLDEN


ROOT2 = "1.4142135623730951"

EX62 = json.dumps(
    {
        "dim": 2,
        "field_tag": "real",
        "matrices": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 2.0]]],
        "labels": ["A", "B"],
    }
)

COMMUTING_PAIR = json.dumps(
    {
        "dim": 2,
        "field_tag": "real",
        "matrices": [[[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 1.0]]],
    }
)

# members neither pairwise commute nor have a scalar-only commutant: the
# degenerate eigenvalue 3 of the first leaves a 2 x 2 block free
AWKWARD_FAMILY = json.dumps(
    {
        "dim": 4,
        "field_tag": "real",
        "matrices": [
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 2.0, 0.0, 0.0],
                [0.0, 0.0, 3.0, 0.0],
                [0.0, 0.0, 0.0, 3.0],
            ],
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
        ],
    }
)


def run_traced(argv, capsys):
    """``run``, also asserting that the command allocated under 1 MB."""
    tracemalloc.start()
    try:
        result = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak allocation {peak} bytes"
    return result


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, text, name="set.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def matrix_from_pairs(grid):
    return np.array([[complex(e[0], e[1]) for e in row] for row in grid])


class TestExitCodes:
    def test_no_command(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert "usage" in err

    def test_help(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "check-order" in out

    def test_unknown_command(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

    def test_parse_error_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "{broken")
        code, _, err = run(["infimum", "-i", path], capsys)
        assert code == 2
        assert "error:" in err

    def test_validation_error_is_exit_2(self, tmp_path, capsys):
        nonherm = json.dumps(
            {"dim": 2, "field_tag": "real", "matrices": [[[1.0, 5.0], [0.0, 1.0]]]}
        )
        path = write_doc(tmp_path, nonherm)
        code, _, err = run(["infimum", "-i", path], capsys)
        assert code == 2
        assert "Hermitian" in err

    def test_bad_tolerance_is_exit_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, _, _ = run(["infimum", "-i", path, "--tol-psd", "-1"], capsys)
        assert code == 1

    def test_wrong_arity_is_exit_1(self, tmp_path, capsys):
        one = json.dumps({"dim": 1, "field_tag": "real", "matrices": [[[1.0]]]})
        path = write_doc(tmp_path, one)
        code, _, err = run(["check-order", "-i", path], capsys)
        assert code == 1
        assert "exactly 2" in err

    def test_missing_input_file_is_exit_1(self, capsys):
        code, _, err = run(["infimum", "-i", "/no/such/file.json"], capsys)
        assert code == 1
        assert "cannot read" in err

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(*args):
            raise ConvergenceFailure("eigensolver stalled")

        monkeypatch.setattr(cli, "finite_infimum", boom)
        path = write_doc(tmp_path, EX62)
        code, _, err = run(["infimum", "-i", path], capsys)
        assert code == 3
        assert "stalled" in err

    def test_no_incomparable_pair_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr("loewner.sampling.compare", lambda a, b: Comparability.LESS_EQUAL)
        code, out, err = run(["ensemble", "--suite", "anti-lattice", "--trials", "1", "--json"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: could not draw an incomparable pair")

    def test_singular_transform_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, _, _ = run(
            ["mlb-mt", "-i", path, "--transform", "[[0, 0], [0, 0]]", "--json"], capsys
        )
        assert code == 2

    def test_transform_of_the_wrong_shape_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, _, err = run(["mlb-mt", "-i", path, "--transform", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"], capsys)
        assert code == 2
        assert "transform has shape (3, 3), expected (2, 2)" in err

    def test_vector_argument_that_is_not_a_list_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, _, err = run(["constrained", "-i", path, "--u", "{}"], capsys)
        assert code == 2
        assert "--u: expected a nonempty 1-d array" in err


class TestStdinAndFiles:
    def test_stdin_is_default_input(self, capsys, monkeypatch):
        code, out, _ = run(["infimum", "--json"], capsys, monkeypatch, stdin_text=EX62)
        assert code == 0
        assert json.loads(out)["verdicts"]["exists"] is False

    def test_at_file_matrix_argument(self, tmp_path, capsys):
        doc = write_doc(tmp_path, EX62)
        cand = tmp_path / "cand.json"
        cand.write_text("[[0.5, 0.0], [0.0, 0.0]]")
        code, out, _ = run(
            ["certify", "-i", doc, "--candidate", f"@{cand}", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdicts"]["is_maximal"] is True

    def test_at_file_missing_is_exit_1(self, tmp_path, capsys):
        doc = write_doc(tmp_path, EX62)
        code, _, _ = run(
            ["certify", "-i", doc, "--candidate", "@/no/such/cand.json", "--json"],
            capsys,
        )
        assert code == 1

    def test_inline_matrix_bad_json_is_exit_2(self, tmp_path, capsys):
        doc = write_doc(tmp_path, EX62)
        code, _, err = run(["certify", "-i", doc, "--candidate", "[[1,", "--json"], capsys)
        assert code == 2
        assert "invalid JSON" in err


class TestInlineArguments:
    def test_pairs_and_numbers_decode_alike(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        outs = []
        for cand in (
            "[[0.5, 0], [0, 0]]",
            "[[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]",
            "[[0.5, [0, 0]], [[0, 0], 0]]",
        ):
            code, out, _ = run(["certify", "-i", path, "--candidate", cand, "--json"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["verdicts"]["is_maximal"] is True

    def test_complex_x_builds_and_recovers(self, tmp_path, capsys):
        code, out, _ = run(["stott", "--p", "1", "--q", "1", "--x", "[[[0, 1]]]", "--json"], capsys)
        assert code == 0
        built = json.loads(out)["verdicts"]
        assert built["certificate"]["is_maximal"] is True
        m_path = tmp_path / "m.json"
        m_path.write_text(json.dumps(built["m_matrix"]))
        code, out, _ = run(["stott", "--p", "1", "--q", "1", "--matrix", f"@{m_path}", "--json"], capsys)
        assert code == 0
        x = matrix_from_pairs(json.loads(out)["verdicts"]["x"])
        np.testing.assert_allclose(x, [[1.0j]], atol=1e-8)

    def test_mixed_vector(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["constrained", "-i", path, "--u", "[[1, 0], 0]", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["verdicts"]["attaining_labels"] == ["A", "B"]

    @pytest.mark.parametrize(
        "argv, locator",
        [
            (["certify", "--candidate", '[[0.5, "x"], [0, 0]]'], "--candidate[0][1]"),
            (["certify", "--candidate", "[[NaN, 0], [0, 0]]"], "--candidate[0][0]"),
            (["certify", "--candidate", "[[1e400, 0], [0, 0]]"], "--candidate[0][0]"),
            (["certify", "--candidate", "[[0, [0, Infinity]], [0, 0]]"], "--candidate[0][1][1]"),
            (["maximal-extend", "--lower", "[[0, 0], [0, 1" + "0" * 400 + "]]"], "--lower[1][1]"),
            (["mlb-mt", "--transform", "[[1, 0], [0, [1, 2, 3]]]"], "--transform[1][1]"),
            (["constrained", "--u", '[1, "a"]'], "--u[1]"),
            (["constrained", "--u", "[1, NaN]"], "--u[1]"),
        ],
    )
    def test_bad_entry_is_exit_2_with_locator(self, tmp_path, capsys, argv, locator):
        path = write_doc(tmp_path, EX62)
        code, out, err = run([argv[0], "-i", path, "--json", *argv[1:]], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {locator}: ")

    def test_bad_x_entry_is_exit_2_with_locator(self, capsys):
        code, _, err = run(["stott", "--p", "1", "--q", "1", "--x", "[[true]]"], capsys)
        assert code == 2
        assert err.startswith("error: --x[0][0]: expected a number")

    def test_candidate_past_the_symmetrization_overflow_is_certified(self, tmp_path, capsys):
        # the candidate is symmetrized on itself times 2^-e, and certified on the problem times 2^-e
        path = write_doc(tmp_path, EX62)
        code, out, err = run(["certify", "-i", path, "--candidate", "[[1e308, 1e308], [1e308, 0]]", "--json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["verdicts"]["is_lower_bound"] is False


class TestNonFiniteDocuments:
    @pytest.mark.parametrize(
        "token", ["NaN", "Infinity", "1e400", "1" + "0" * 400], ids=["nan", "inf", "1e400", "huge-int"]
    )
    def test_exit_2_with_locator(self, tmp_path, capsys, token):
        text = '{"dim": 2, "field_tag": "real", "matrices": [[[1.0, %s], [%s, 1.0]]]}' % (token, token)
        path = write_doc(tmp_path, text)
        code, out, err = run(["infimum", "-i", path, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrices[0][0][1]: expected a finite number")

    def test_document_past_the_symmetrization_overflow_is_read(self, tmp_path, capsys):
        grid = [[1e308, 1e308], [1e308, -1e308]]
        path = write_doc(tmp_path, json.dumps({"dim": 2, "field_tag": "real", "matrices": [grid]}))
        code, out, err = run(["infimum", "-i", path, "--json"], capsys)
        assert (code, err) == (0, "")
        assert np.array_equal(matrix_from_pairs(json.loads(out)["verdicts"]["infimum"]), grid)


class TestReports:
    def test_json_report_shape(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["check-order", "-i", path, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "digest", "seed", "tolerances", "verdicts", "notes"}
        assert payload["command"] == "check-order"
        assert payload["seed"] is None
        assert payload["verdicts"]["comparability"] == "incomparable"
        assert payload["notes"]

    def test_json_is_byte_stable(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        _, first, _ = run(["positive-mlb", "-i", path, "--json"], capsys)
        _, second, _ = run(["positive-mlb", "-i", path, "--json"], capsys)
        assert first == second
        assert "elapsed" not in first

    def test_no_negative_zero_in_json(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        _, out, _ = run(["positive-mlb", "-i", path, "--json"], capsys)
        assert "-0.0" not in out

    def test_digest_tracks_input(self, tmp_path, capsys):
        a = write_doc(tmp_path, EX62, "a.json")
        b = write_doc(tmp_path, COMMUTING_PAIR, "b.json")
        _, out_a, _ = run(["check-order", "-i", a, "--json"], capsys)
        _, out_b, _ = run(["check-order", "-i", b, "--json"], capsys)
        assert json.loads(out_a)["digest"] != json.loads(out_b)["digest"]

    def test_digest_tracks_tolerances(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        _, out_a, _ = run(["check-order", "-i", path, "--json"], capsys)
        _, out_b, _ = run(
            ["check-order", "-i", path, "--tol-eq", "1e-7", "--json"], capsys
        )
        assert json.loads(out_a)["digest"] != json.loads(out_b)["digest"]

    def test_human_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["positive-mlb", "-i", path], capsys)
        assert code == 0
        assert out.startswith("= positive-mlb =")
        assert "note:" in out
        assert "elapsed:" in out

    def test_human_report_renders_complex_entries(self, capsys):
        # an entry prints as a+bi or a-bi to 10 significant digits, so it reads back within 1e-9
        path = str(GOLDEN / "complex12.json")
        _, out, _ = run(["parallel-sum", "-i", path, "--json"], capsys)
        exact = matrix_from_pairs(json.loads(out)["verdicts"]["parallel_sum"])
        code, out, _ = run(["parallel-sum", "-i", path], capsys)
        lines = out.splitlines()
        start = lines.index("  parallel_sum:") + 1
        shown = np.array([[complex(cell.replace("i", "j")) for cell in line.split()] for line in lines[start:start + 12]])
        assert code == 0
        assert (shown.imag > 0.0).any() and (shown.imag < 0.0).any()
        np.testing.assert_allclose(shown, exact, rtol=1e-9, atol=0.0)


def digest_of(argv, capsys) -> str:
    code, out, err = run([*argv, "--json"], capsys)
    assert code == 0, err
    return json.loads(out)["digest"]


def spec_digest(command, inputs, arrays, seed=None) -> str:
    """The digest as README's Conventions lay out its bytes: the sorted JSON
    skeleton, each array standing as its shape, then each array's little-endian
    complex128 bytes plus 0.0, in skeleton order."""
    tolerances = {"eq_rel": 1e-08, "psd_rel": 1e-09, "rank_rel": 1e-10}
    head = {"command": command, "inputs": inputs, "seed": seed, "tolerances": tolerances}
    stream = json.dumps(head, sort_keys=True).encode()
    for arr in arrays:
        stream += (np.asarray(arr, dtype="<c16") + 0.0).tobytes()
    return hashlib.sha256(stream).hexdigest()[:12]


EX62_SET = {"dim": 2, "labels": ["A", "B"], "matrices": {"shape": [2, 2, 2]}}
EX62_STACK = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 2.0]]]


class TestDigest:
    def test_spec(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        assert digest_of(["check-order", "-i", path], capsys) == spec_digest(
            "check-order", EX62_SET, [EX62_STACK]
        )
        # "candidate" sorts before "set", so its bytes come first
        inputs = {"candidate": {"shape": [2, 2]}, "set": EX62_SET}
        assert digest_of(["certify", "-i", path, "--candidate", "[[0.5, -0.0], [-0.0, 0]]"], capsys) == (
            spec_digest("certify", inputs, [[[0.5, 0.0], [0.0, 0.0]], EX62_STACK])
        )
        x = [[0.3 + 0.1j], [-0.2 + 0.0j]]
        assert digest_of(["stott", "--p", "2", "--q", "1", "--x", "[[[0.3, 0.1]], [-0.2]]"], capsys) == (
            spec_digest("stott", {"p": 2, "q": 1, "x": {"shape": [2, 1]}}, [x])
        )
        argv = ["ensemble", "--suite", "stott-roundtrip", "--trials", "1", "--dims", "2:3", "--seed", "4"]
        assert digest_of(argv, capsys) == spec_digest(
            "ensemble", {"dims": [2, 3], "suite": "stott-roundtrip", "trials": 1}, [], seed=4
        )

    def test_invariant_under_spelling(self, tmp_path, capsys):
        base = digest_of(["certify", "-i", write_doc(tmp_path, EX62), "--candidate", "[[0.5, 0], [0, 0]]"], capsys)
        doc = json.loads(EX62)
        reordered = json.dumps(dict(reversed(list(doc.items()))), indent=3)
        twin = dict(doc, field_tag="complex",
                    matrices=[[[[e, 0.0] for e in row] for row in grid] for grid in doc["matrices"]])
        signed = dict(doc, matrices=[[[1.0, -0.0], [-0.0, -0.0]], doc["matrices"][1]])
        for name, text, candidate in (
            ("reordered.json", reordered, "[[0.5, 0], [0, 0]]"),
            ("twin.json", json.dumps(twin), "[[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]"),
            ("signed.json", json.dumps(signed), "[[0.5, -0.0], [-0.0, -0.0]]"),
        ):
            path = write_doc(tmp_path, text, name)
            assert digest_of(["certify", "-i", path, "--candidate", candidate], capsys) == base, name

    def test_tracks_every_input(self, tmp_path, capsys):
        doc = json.loads(EX62)
        path = write_doc(tmp_path, EX62)
        nudged = dict(doc, matrices=[doc["matrices"][0], [[1.0, 1.0], [1.0, float(np.nextafter(2.0, 3.0))]]])
        relabelled = dict(doc, labels=["A", "C"])
        _, built, _ = run(["stott", "--p", "1", "--q", "1", "--x", "[[0.5]]", "--json"], capsys)
        m_matrix = json.dumps(json.loads(built)["verdicts"]["m_matrix"])
        ensemble = ["ensemble", "--suite", "stott-roundtrip", "--trials", "1", "--dims", "2:3"]
        pairs = [
            (["check-order", "-i", path], ["check-order", "-i", write_doc(tmp_path, json.dumps(nudged), "n.json")]),
            (["check-order", "-i", path], ["check-order", "-i", write_doc(tmp_path, json.dumps(relabelled), "l.json")]),
            (["check-order", "-i", path], ["ando", "-i", path]),
            (["check-order", "-i", path], ["check-order", "-i", path, "--tol-rank", "1e-11"]),
            (["check-order", "-i", path], ["check-order", "-i", path, "--tol-psd", "1e-8"]),
            ([*ensemble, "--seed", "1"], [*ensemble, "--seed", "2"]),
            (["certify", "-i", path, "--candidate", "[[0.5, 0], [0, 0]]"],
             ["certify", "-i", path, "--candidate", "[[0, 0], [0, 0]]"]),
            (["maximal-extend", "-i", path, "--lower", "[[0, 0], [0, 0]]"],
             ["maximal-extend", "-i", path, "--lower", "[[-1, 0], [0, -1]]"]),
            (["mlb-mt", "-i", path, "--transform", "[[2, 1], [0, 1]]"],
             ["mlb-mt", "-i", path, "--transform", "[[1, 0], [0, 1]]"]),
            (["constrained", "-i", path, "--u", "[1, 0]"], ["constrained", "-i", path, "--u", "[0, 1]"]),
            (["stott", "--p", "1", "--q", "1", "--x", "[[0.5]]"], ["stott", "--p", "1", "--q", "1", "--x", "[[1]]"]),
            (["stott", "--p", "1", "--q", "1", "--matrix", m_matrix],
             ["stott", "--p", "1", "--q", "1", "--matrix", f"[[-1, -{ROOT2}], [-{ROOT2}, -2]]"]),
        ]
        for first, second in pairs:
            assert digest_of(first, capsys) != digest_of(second, capsys), (first, second)

    def test_serializes_no_entry_as_json(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(21)
        grids = []
        for _ in range(3):
            g = rng.standard_normal((200, 200))
            grids.append(((g + g.T) / 2).tolist())
        path = write_doc(tmp_path, json.dumps({"dim": 200, "field_tag": "real", "matrices": grids}))
        sizes = []

        def dumps(obj, **kwargs):
            sizes.append(len(json.dumps(obj, **kwargs)))
            return json.dumps(obj, **kwargs)

        monkeypatch.setattr(report, "json", types.SimpleNamespace(dumps=dumps))
        code, out, _ = run(["infimum", "-i", path, "--json"], capsys)
        assert code == 0 and json.loads(out)["verdicts"]["exists"] is False
        assert sizes and max(sizes) <= 1024


class TestCommands:
    def test_check_order_takes_one_spectrum_of_the_gap(self, tmp_path, capsys, monkeypatch):
        path = write_doc(tmp_path, EX62)
        calls = record_calls(monkeypatch, np.linalg, "eigvalsh")
        code, _, _ = run(["check-order", "-i", path, "--json"], capsys)
        assert code == 0
        gap = np.array([[0.0, 1.0], [1.0, 2.0]])
        assert sum(np.array_equal(np.abs(arr), gap) for arr in calls["eigvalsh"]) == 1

    @pytest.mark.parametrize("command", ["ando", "positive-glb"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_pair_psd_check_on_the_pair_scale(self, tmp_path, capsys, command, swap):
        # diag(1e-3, -5e-12) is PSD within the margin of the pair's scale 1
        members = [[[1e-3, 0.0], [0.0, -5e-12]], [[1.0, 0.0], [0.0, 1.0]]]
        doc = {"dim": 2, "field_tag": "real", "matrices": members[::-1] if swap else members}
        code, out, _ = run([command, "-i", write_doc(tmp_path, json.dumps(doc)), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["verdicts"]["exists"] is True

    @pytest.mark.parametrize("small", [[1e-3, 1e-12], [1e-3, -5e-12], [1e-12, 1e-12]])
    @pytest.mark.parametrize("swap", [False, True])
    def test_pair_routes_split_on_the_pair_scale(self, tmp_path, capsys, small, swap):
        # the small eigenvalues fall under the rank cut of the pair's scale 1
        members = [np.diag(small).tolist(), np.eye(2).tolist()]
        doc = {"dim": 2, "field_tag": "real", "matrices": members[::-1] if swap else members}
        path = write_doc(tmp_path, json.dumps(doc))
        verdicts = {}
        for command in ("parallel-sum", "ando", "positive-glb"):
            code, out, _ = run([command, "-i", path, "--json"], capsys)
            assert code == 0
            verdicts[command] = json.loads(out)["verdicts"]
        assert verdicts["parallel-sum"]["rank"] == verdicts["parallel-sum"]["common_range_dim"]
        assert verdicts["ando"]["glb"] == verdicts["positive-glb"]["glb"]

    @pytest.mark.parametrize("low", [[-5e-10, 5e-10], [-3e-10, 3.2e-10]])
    def test_tolerated_negative_eigenvalue_is_null(self, tmp_path, capsys, low):
        # -5e-10 passes the PSD check at scale 1 but exceeds the rank cut in modulus; kept in
        # range, its inverse cancels the other member's and the parallel sum fails or goes negative
        doc = {"dim": 2, "field_tag": "real", "matrices": [np.diag([w, 1.0]).tolist() for w in low]}
        code, out, _ = run(["parallel-sum", "-i", write_doc(tmp_path, json.dumps(doc)), "--json"], capsys)
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        np.testing.assert_allclose(matrix_from_pairs(verdicts["parallel_sum"]), np.diag([0.0, 0.5]), atol=1e-15)
        assert verdicts["rank"] == verdicts["common_range_dim"] == 1

    def test_ando_names_the_member_that_is_not_psd(self, tmp_path, capsys):
        doc = {"dim": 2, "field_tag": "real", "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1e-3]]]}
        code, _, err = run(["ando", "-i", write_doc(tmp_path, json.dumps(doc))], capsys)
        assert code == 2
        assert "member 1 is not positive semidefinite" in err

    def test_infimum_of_comparable_chain(self, tmp_path, capsys):
        chain = json.dumps(
            {
                "dim": 2,
                "field_tag": "real",
                "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 3.0]]],
                "labels": ["small", "big"],
            }
        )
        path = write_doc(tmp_path, chain)
        code, out, _ = run(["infimum", "-i", path, "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["exists"] is True
        assert verdicts["minimizing_index"] == 0
        assert verdicts["minimizing_label"] == "small"

    def test_positive_mlb_oracle(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["positive-mlb", "-i", path, "--json"], capsys)
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        bound = matrix_from_pairs(verdicts["bound"])
        np.testing.assert_allclose(bound, np.diag([0.5, 0.0]), atol=1e-12)
        assert verdicts["certificate"]["is_maximal"] is True

    @pytest.mark.filterwarnings("error")
    def test_positive_mlb_at_1e200(self, tmp_path, capsys):
        # the recursion runs on the family times 2^-e, so no squared coupling overflows
        family = MatrixSet(1e200 * m for m in scale_probe_family())
        path = write_doc(tmp_path, emit_document(MatrixSetDocument(5, "complex", family)))
        code, out, err = run(["positive-mlb", "-i", path, "--json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["verdicts"]["certificate"]["is_maximal"] is True

    def test_certify_non_maximal(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(
            ["certify", "-i", path, "--candidate", "[[0, 0], [0, 0]]", "--json"], capsys
        )
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["is_lower_bound"] is True
        assert verdicts["is_maximal"] is False
        assert verdicts["extreme_certified"] is False

    def test_certify_nearly_parallel_null_spaces(self, tmp_path, capsys):
        # the gaps' null spaces meet at an angle of about 1e-7; they span
        doc = json.dumps({
            "dim": 2,
            "field_tag": "real",
            "matrices": [[[0.0, 0.0], [0.0, 1.0]], [[1e-14, -1e-7], [-1e-7, 1.0]]],
        })
        code, out, _ = run(
            ["certify", "-i", write_doc(tmp_path, doc), "--candidate", "[[0, 0], [0, 0]]", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdicts"]["is_maximal"] is True

    def test_positive_mlb_noise_level_corner(self, tmp_path, capsys):
        # the second member's corner on e1 sits under the noise floor while
        # its coupling is far above the rank cut
        eps = 5e-15
        doc = json.dumps({
            "dim": 2,
            "field_tag": "real",
            "matrices": [[[0.0, 0.0], [0.0, 1.0]], [[2 * eps, eps ** 0.5], [eps ** 0.5, 1.0 + eps]]],
        })
        code, out, _ = run(["positive-mlb", "-i", write_doc(tmp_path, doc), "--json"], capsys)
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        np.testing.assert_allclose(matrix_from_pairs(verdicts["bound"]), np.diag([0.0, 0.5]), atol=1e-12)
        assert verdicts["certificate"]["is_maximal"] is True

    def test_maximal_extend(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(
            ["maximal-extend", "-i", path, "--lower", "[[0, 0], [0, 0]]", "--json"],
            capsys,
        )
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        extension = matrix_from_pairs(verdicts["extension"])
        np.testing.assert_allclose(extension, np.diag([0.5, 0.0]), atol=1e-10)
        assert verdicts["dominates_input"] is True
        assert verdicts["certificate"]["is_maximal"] is True

    def test_commuting_glb_commuting_family(self, tmp_path, capsys):
        path = write_doc(tmp_path, COMMUTING_PAIR)
        code, out, _ = run(["commuting-glb", "-i", path, "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["pairwise_commuting"] is True
        glb = matrix_from_pairs(verdicts["glb"])
        np.testing.assert_allclose(glb, np.eye(2), atol=1e-12)
        assert verdicts["commuting_maximal_exists"] is True

    def test_commuting_glb_scalar_commutant_fallback(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["commuting-glb", "-i", path, "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["pairwise_commuting"] is False
        assert verdicts["commutant_dimension"] == 1
        glb = matrix_from_pairs(verdicts["glb"])
        np.testing.assert_allclose(glb, np.zeros((2, 2)), atol=1e-12)
        assert verdicts["commuting_maximal_exists"] is False

    def test_commuting_glb_awkward_family_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, AWKWARD_FAMILY)
        code, _, err = run(["commuting-glb", "-i", path, "--json"], capsys)
        assert code == 2
        assert "commutant" in err

    def test_commuting_glb_decides_commutation_once(self, tmp_path, capsys, monkeypatch):
        checks = record_calls(monkeypatch, infimum, "_check_commuting")
        for doc in (COMMUTING_PAIR, EX62):
            run(["commuting-glb", "-i", write_doc(tmp_path, doc)], capsys)
        assert len(checks["_check_commuting"]) == 2

    def test_constrained_reduces_once(self, tmp_path, capsys, monkeypatch):
        reductions = record_calls(monkeypatch, constrained, "constrained_at_vector")
        code, out, _ = run(["constrained", "-i", write_doc(tmp_path, COMMUTING_PAIR), "--u", "[1, 0]", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["verdicts"]["maximal_element"] is not None
        assert len(reductions["constrained_at_vector"]) == 1

    def test_positive_glb(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["positive-glb", "-i", path, "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["exists"] is True
        assert verdicts["common_range_dim"] == 1
        assert verdicts["minimizing_index"] == 1
        assert verdicts["minimizing_label"] == "B"
        glb = matrix_from_pairs(verdicts["glb"])
        np.testing.assert_allclose(glb, np.diag([0.5, 0.0]), atol=1e-10)

    def test_mlb_mt_default_transform(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["mlb-mt", "-i", path, "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["certificate"]["is_maximal"] is True

    def test_stott_build_then_recover(self, tmp_path, capsys):
        code, out, _ = run(["stott", "--p", "1", "--q", "1", "--x", "[[1]]", "--json"], capsys)
        assert code == 0
        built = json.loads(out)["verdicts"]
        assert built["mode"] == "build"
        assert built["certificate"]["is_maximal"] is True
        m_path = tmp_path / "m.json"
        m_path.write_text(json.dumps(built["m_matrix"]))
        code, out, _ = run(
            ["stott", "--p", "1", "--q", "1", "--matrix", f"@{m_path}", "--json"], capsys
        )
        recovered = json.loads(out)["verdicts"]
        assert code == 0
        assert recovered["mode"] == "recover"
        x = matrix_from_pairs(recovered["x"])
        np.testing.assert_allclose(x, [[1.0]], atol=1e-8)
        assert recovered["roundtrip_error"] <= 1e-8

    def test_stott_build_reads_null_spaces_from_the_certificate(self, capsys, monkeypatch):
        # null(S(X)) and null(M(X)) are the gaps J - M and 0 - M that the certificate
        # splits in its one batched eigh: neither matrix is split again
        calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        code, out, _ = run(
            ["stott", "--p", "2", "--q", "3", "--x", "[[0.3, 0.1, 0.2], [-0.2, 0.5, 0.1]]", "--json"],
            capsys,
        )
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert (verdicts["nullspace_dim_s"], verdicts["nullspace_dim_m"]) == (3, 2)
        assert [np.shape(arr) for arr in calls["eigvalsh"]] == [(2, 5, 5)]
        assert (5, 5) not in [np.shape(arr) for arr in calls["eigh"]]

    def test_stott_needs_exactly_one_mode(self, capsys):
        code, _, err = run(["stott", "--p", "1", "--q", "1"], capsys)
        assert code == 1
        assert "exactly one" in err
        code, _, _ = run(
            ["stott", "--p", "1", "--q", "1", "--x", "[[1]]", "--matrix", "[[1]]"], capsys
        )
        assert code == 1

    def test_stott_rejects_nonpositive_blocks(self, capsys):
        code, _, err = run(["stott", "--p", "0", "--q", "1", "--x", "[[1]]"], capsys)
        assert code == 1
        assert "at least 1" in err

    @pytest.mark.parametrize("x", ["[[1.26e299]]", "[[1e154]]", "[[1e200, 1], [1, 1]]"])
    def test_stott_overflowing_x_is_exit_2_without_warnings(self, capsys, x):
        p = len(json.loads(x))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["stott", "--p", str(p), "--q", str(p), "--x", x, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: I + XX* overflows") and err.count("\n") == 1
        assert caught == []

    def test_stott_rejects_non_maximal_matrix(self, capsys):
        code, _, _ = run(
            ["stott", "--p", "1", "--q", "1", "--matrix", "[[-5, 0], [0, -5]]", "--json"],
            capsys,
        )
        assert code == 2

    def test_constrained_empty_family(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(
            ["constrained", "-i", path, "--u", "[1, 0]", "--json"], capsys
        )
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["alpha"] == pytest.approx(1.0)
        assert verdicts["attaining_labels"] == ["A", "B"]
        assert verdicts["attainers_agree"] is False
        assert verdicts["constrained_family_empty"] is True
        assert verdicts["maximal_element"] is None
        assert verdicts["certificate"] is None

    def test_constrained_nonempty_family(self, tmp_path, capsys):
        chain = json.dumps(
            {
                "dim": 2,
                "field_tag": "real",
                "matrices": [[[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 3.0]]],
            }
        )
        path = write_doc(tmp_path, chain)
        code, out, _ = run(["constrained", "-i", path, "--u", "[1, 0]", "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["attainers_agree"] is True
        element = matrix_from_pairs(verdicts["maximal_element"])
        np.testing.assert_allclose(element, np.diag([1.0, 2.0]), atol=1e-10)

    def test_parallel_sum(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["parallel-sum", "-i", path, "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        total = matrix_from_pairs(verdicts["parallel_sum"])
        np.testing.assert_allclose(total, np.diag([1.0 / 3.0, 0.0]), atol=1e-12)
        assert verdicts["rank"] == 1
        assert verdicts["common_range_dim"] == 1
        assert verdicts["below_every_member"] is True

    def test_ando(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX62)
        code, out, _ = run(["ando", "-i", path, "--json"], capsys)
        verdicts = json.loads(out)["verdicts"]
        assert code == 0
        assert verdicts["exists"] is True
        glb = matrix_from_pairs(verdicts["glb"])
        np.testing.assert_allclose(glb, np.diag([0.5, 0.0]), atol=1e-10)


# every command that reads a document, with the arguments it needs on scale_probe_family's n = 5;
# the pair commands read its first two members
PROBE_COMMANDS = {
    "check-order": (2, []),
    "infimum": (3, []),
    "certify": (3, ["--candidate", json.dumps(np.zeros((5, 5)).tolist())]),
    "maximal-extend": (3, ["--lower", json.dumps(np.zeros((5, 5)).tolist())]),
    "commuting-glb": (3, []),
    "positive-mlb": (3, []),
    "positive-glb": (3, []),
    "mlb-mt": (2, []),
    "constrained": (3, ["--u", "[1, 0, 0, 0, 0]"]),
    "parallel-sum": (3, []),
    "ando": (2, []),
}


def verdict_leaves(verdicts) -> list:
    """The verdicts' leaves other than floats, with their paths: what a rescaling leaves as it is."""
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{path}/{key}")
        elif isinstance(node, list):
            out.append((path, len(node)))
            for i, item in enumerate(node):
                walk(item, f"{path}/{i}")
        elif not isinstance(node, float):
            out.append((path, node))
    walk(verdicts, "")
    return out


class TestScaleBoundary:
    """Every document command gives scale_probe_family's verdicts at 1e200 to 1e-310, where
    commuting-glb exited 2 and constrained 3 at 1e200, and four commands exited 3 at 1e-310."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e300, 1e-300, 1e-310])
    @pytest.mark.parametrize("command", sorted(PROBE_COMMANDS))
    def test_verdicts_at_every_scale(self, tmp_path, capsys, command, scale):
        members, extra = PROBE_COMMANDS[command]
        verdicts = []
        for c in (1.0, scale):
            family = MatrixSet(c * m for m in scale_probe_family().members[:members])
            path = write_doc(tmp_path, emit_document(MatrixSetDocument(5, "complex", family)))
            code, out, err = run([command, "-i", path, "--json", *extra], capsys)
            assert (code, err) == (0, "")
            verdicts.append(verdict_leaves(json.loads(out)["verdicts"]))
        assert verdicts[1] == verdicts[0]


class TestFixtureCommand:
    def test_json_mode_emits_document(self, capsys):
        code, out, _ = run(["fixture", "ex6.2", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 2
        assert payload["labels"] == ["A", "B"]

    def test_human_mode_adds_notes(self, capsys):
        code, out, _ = run(["fixture", "ex6.2"], capsys)
        assert code == 0
        assert "note:" in out

    def test_truncation_flag(self, capsys):
        code, out, _ = run(["fixture", "ex4.3", "--truncate-n", "3", "--json"], capsys)
        assert code == 0
        assert len(json.loads(out)["matrices"]) == 4

    def test_unknown_fixture_rejected_by_parser(self, capsys):
        code, _, _ = run(["fixture", "ex9.9"], capsys)
        assert code == 1

    def test_pipes_into_other_commands(self, capsys, monkeypatch, tmp_path):
        _, doc_text, _ = run(["fixture", "ex6.2", "--json"], capsys)
        code, out, _ = run(
            ["positive-mlb", "--json"], capsys, monkeypatch, stdin_text=doc_text
        )
        assert code == 0
        bound = matrix_from_pairs(json.loads(out)["verdicts"]["bound"])
        np.testing.assert_allclose(bound, np.diag([0.5, 0.0]), atol=1e-12)


class TestTruncationLimit:
    @pytest.mark.parametrize("name", ["ex3.2", "ex3.5iii"])
    @pytest.mark.parametrize("n", ["129", "2000"])
    def test_square_family_is_capped_before_it_is_built(self, name, n, capsys):
        code, out, err = run_traced(["fixture", name, "--truncate-n", n, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert "limited to 128" in err

    @pytest.mark.parametrize("name", ["ex3.5i", "ex3.5ii", "ex4.3", "ex4.7", "ex4.8i", "ex4.8ii"])
    def test_pair_families_are_capped_before_they_are_built(self, name, capsys):
        code, out, err = run_traced(["fixture", name, "--truncate-n", "1000000000", "--json"], capsys)
        assert code == 2
        assert out == ""
        assert "limited to 10000" in err

    def test_families_of_fixed_size_keep_long_truncations(self, capsys):
        code, out, _ = run(["fixture", "ex4.3", "--truncate-n", "200", "--json"], capsys)
        assert code == 0
        assert len(json.loads(out)["matrices"]) == 201


class TestEnsembleCommand:
    def test_runs_and_reports_seed(self, capsys):
        code, out, _ = run(
            [
                "ensemble",
                "--suite",
                "albert-vs-spectral",
                "--trials",
                "3",
                "--seed",
                "5",
                "--json",
            ],
            capsys,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["seed"] == 5
        assert payload["verdicts"]["suite"] == "albert-vs-spectral"
        assert payload["verdicts"]["agreements"] == 3

    def test_text_report_shows_the_seed(self, capsys):
        code, out, _ = run(["ensemble", "--suite", "albert-vs-spectral", "--trials", "3", "--seed", "5"], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "= ensemble =" and "  seed: 5" in lines and "  agreements: 3" in lines

    def test_seed_is_rejected_by_other_commands(self, capsys):
        code, _, err = run(["infimum", "--seed", "5"], capsys)
        assert code == 1
        assert "usage:" in err and "--seed" in err

    def test_byte_stable(self, capsys):
        argv = ["ensemble", "--suite", "parallel-ando", "--trials", "3", "--json"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_dims_single_number(self, capsys):
        code, out, _ = run(
            [
                "ensemble",
                "--suite",
                "albert-vs-spectral",
                "--trials",
                "2",
                "--dims",
                "3",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["verdicts"]["dims"] == [3, 3]

    def test_bad_dims_is_exit_1(self, capsys):
        code, _, err = run(
            ["ensemble", "--suite", "mt-family", "--trials", "1", "--dims", "abc"],
            capsys,
        )
        assert code == 1
        assert "LO:HI" in err

    @pytest.mark.parametrize("dims", ["2:65", "200", "1:100000000"])
    def test_dims_past_the_limit_are_rejected_before_any_trial(self, dims, capsys):
        code, _, err = run_traced(
            ["ensemble", "--suite", "positive-mlb", "--trials", "1000", "--dims", dims], capsys
        )
        assert code == 2
        assert "limit of 64" in err

    def test_unknown_suite_rejected_by_parser(self, capsys):
        code, _, _ = run(["ensemble", "--suite", "nonsense", "--trials", "1"], capsys)
        assert code == 1


# Entries of every kind a document or an inline argument may carry: finite,
# non-finite, subnormal, huge and out-of-range numbers, [re, im] pairs of
# any length, and values of the wrong type.
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308]),
    st.integers(-(10**400), 10**400),
)
_ENTRIES = st.one_of(_NUMBERS, st.lists(_NUMBERS, max_size=3), st.sampled_from([None, True, "1", {}]))
_GRIDS = st.one_of(
    st.lists(st.lists(_ENTRIES, max_size=4), max_size=4),
    st.lists(_ENTRIES, max_size=4),
    _ENTRIES,
)


@st.composite
def _hermitian_grid(draw, dim, tag=None):
    """A well-formed Hermitian grid at an extreme or zero magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.0, 1e-320, 1e-160, 1e-12, 1.0, 1e12, 1e154, 1e300]))
    g = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = (g + g.conj().T) / 2.0
    if (tag or draw(st.sampled_from(["real", "complex"]))) == "real":
        return h.real.tolist()
    return np.stack([h.real, h.imag], axis=-1).tolist()


@st.composite
def _documents(draw):
    """Document text: well-formed families at extreme magnitudes, documents
    with ragged, non-finite or mis-tagged entries, and broken JSON."""
    kind = draw(st.sampled_from(["family", "family", "fuzzed", "text"]))
    if kind == "text":
        return draw(st.sampled_from(["", "{", "[]", "null", "NaN", '{"dim": 1}']))
    dim = draw(st.integers(1, 3))
    if kind == "family":
        tag = draw(st.sampled_from(["real", "complex"]))
        return json.dumps({"dim": dim, "field_tag": tag,
                           "matrices": draw(st.lists(_hermitian_grid(dim, tag), min_size=1, max_size=3))})
    if draw(st.booleans()):
        dim = draw(st.sampled_from([0, -1, True, "2", 2.5]))
    doc = {"dim": dim, "field_tag": draw(st.sampled_from(["real", "complex", "quaternion"])),
           "matrices": draw(st.lists(_GRIDS, max_size=3))}
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.text(max_size=2), max_size=3))
    return json.dumps(doc)


_INLINE = st.one_of(
    st.integers(1, 3).flatmap(_hermitian_grid).map(json.dumps),
    st.builds(json.dumps, _GRIDS),
    st.sampled_from(["", "[", "[[1]]", "[1, 0]", "@/nonexistent/file.json", "@-"]),
)
# argv before the flags; a trailing option takes the inline argument
_COMMANDS = st.sampled_from([
    ["check-order"], ["infimum"], ["commuting-glb"], ["positive-mlb"], ["positive-glb"], ["parallel-sum"],
    ["ando"], ["mlb-mt"], ["mlb-mt", "--transform"], ["certify", "--candidate"], ["maximal-extend", "--lower"],
    ["constrained", "--u"], ["stott", "--p", "1", "--q", "1", "--x"], ["stott", "--p", "1", "--q", "1", "--matrix"],
    ["fixture", "ex6.2"], ["no-such-command"],
])
_FLAGS = st.one_of(st.just([]), st.just(["--json"]), st.sampled_from([
    ["--bogus"], ["--tol-psd", "-1"], ["--tol-rank", "nan"], ["--tol-eq", "inf"], ["--tol-psd", "x"],
    ["--tol-rank", "0"], ["--p", "0"], ["--truncate-n", "-3"], ["--seed", "1"],
]))


class TestFuzz:
    """Whatever the document, the inline arguments or the flags, ``main``
    returns one of the documented exit codes and raises nothing."""

    @settings(max_examples=60)
    @given(_COMMANDS, _documents(), _INLINE, _FLAGS)
    def test_exit_code_is_documented(self, command, document, inline, flags):
        argv = [*command, inline] if command[-1].startswith("--") else list(command)
        argv[1:1] = flags
        saved, sys.stdin = sys.stdin, io.StringIO(document)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            sys.stdin = saved
        assert code in (0, 1, 2, 3)
