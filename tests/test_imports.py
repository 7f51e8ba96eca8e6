"""Every name a package module imports is used there or re-exported through
the module's ``__all__``, every private module-level function or class is
referenced somewhere in the package, the common range K is decided only
beside the parallel sum, trials are seeded only in the one trial loop, only
the report and the document writer encode arrays, every threshold is named
on ``Tolerances``, no number is added to a scale, and every degree-one
routine runs through the one scale boundary, which alone takes and applies
powers of two, and every value accessor of a spectrum is covariant on its own."""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

from loewner.linalg import Tolerances

from .test_metamorphic import COVARIANT_ACCESSORS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loewner"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == ["os", "w"]


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``_private`` function or class
    that no module of ``sources`` (name -> source) refers to."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            f"{module}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(name for name in defined if name.split(".", 1)[1] not in referenced)


def test_no_unreferenced_private_helpers():
    assert unreferenced_helpers({path.stem: path.read_text() for path in MODULES}) == []


def test_finds_an_unreferenced_helper():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef __dunder__(): pass\n",
        "b": "from .a import _used\n",
    }
    assert unreferenced_helpers(sources) == ["a._Gone", "a._dead"]


def eigh_of_a_matrix(module: str, source: str) -> list[str]:
    """``module.name`` of each top-level definition, other than ``linalg.spectral``,
    that passes a ``.mat`` attribute to ``eigh`` or ``_eigh``: a matrix is
    decomposed through ``spectral``, which keeps the result on it."""
    found = []
    for top in ast.parse(source).body:
        if module == "linalg" and getattr(top, "name", None) == "spectral":
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("eigh", "_eigh")
                and node.args
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "mat"
            ):
                found.append(f"{module}.{getattr(top, 'name', '<module>')}")
    return found


def test_matrices_are_decomposed_through_spectral():
    assert [hit for path in MODULES for hit in eigh_of_a_matrix(path.stem, path.read_text())] == []


def test_finds_an_eigh_of_a_matrix():
    source = (
        "def f(s):\n    return np.linalg.eigh(s.mat)\n"
        "def g(s):\n    return _eigh(s.mat)\n"
        "def stacked(m, s):\n    return _eigh(m.stack - s.mat), np.linalg.eigh(m.stack)\n"
        "def spectral(s):\n    return _eigh(s.mat)\n"
        "w = eigh(m.mat)\n"
    )
    assert eigh_of_a_matrix("a", source) == ["a.f", "a.g", "a.spectral", "a.<module>"]
    assert eigh_of_a_matrix("linalg", source) == ["linalg.f", "linalg.g", "linalg.<module>"]


def callers(function: str, module: str, source: str) -> list[str]:
    """``module.name`` of each top-level definition that calls ``function``."""
    return [
        f"{module}.{getattr(top, 'name', '<module>')}"
        for top in ast.parse(source).body for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == function
    ]


def package_callers(function: str) -> set[str]:
    return {hit for path in MODULES for hit in callers(function, path.stem, path.read_text())}


# K = R(A_1) ∩ ... ∩ R(A_k) is decided beside S, which is built on it, and by the subspace meet:
# no command or suite decides it again
COMMON_RANGE_CALLERS = {"linalg.subspace_intersect", "parallel._parallel_sum"}


def test_common_range_is_decided_beside_the_parallel_sum():
    assert package_callers("_common_range") - COMMON_RANGE_CALLERS == set()


def test_finds_common_range_callers():
    source = (
        "def _parallel_sum(m, tol):\n    return _common_range(m, tol)\n"
        "def cmd(m, tol):\n    return linalg._common_range([_range_null(x) for x in m], tol).range.dim\n"
        "def named(m):\n    return common_range(m)\n"
        "k = _common_range([], tol)\n"
    )
    assert callers("_common_range", "parallel", source) == [
        "parallel._parallel_sum", "parallel.cmd", "parallel.<module>"
    ]


def test_trials_are_seeded_in_the_trial_loop():
    # trial t of every suite draws from trial_rng(seed, t), and only the one trial loop draws it
    assert package_callers("trial_rng") == {"ensembles.ensemble_run"}


def test_finds_trial_rng_callers():
    source = (
        "def ensemble_run(trial, trials, seed):\n    return [trial(trial_rng(seed, t)) for t in range(trials)]\n"
        "def _suite(trials, seed):\n    for t in range(trials):\n        rng = sampling.trial_rng(seed, t)\n"
        "def _trial(rng, key):\n    return rng.integers(2, 5), key\n"
        "rng = trial_rng(0, 0)\n"
    )
    assert callers("trial_rng", "ensembles", source) == [
        "ensembles.ensemble_run", "ensembles._suite", "ensembles.<module>"
    ]


# handlers put plain values in their verdicts; the report encodes them, and a document is emitted
# by its own encoding
ENCODE_ARRAY_CALLERS = {"report._encode", "documents.emit_document"}


def test_only_the_report_and_the_document_writer_encode():
    assert package_callers("encode_array") <= ENCODE_ARRAY_CALLERS


def test_finds_encode_array_callers():
    source = (
        "def _cmd_bound(args, tol, doc):\n    return {'bound': encode_array(bound), 'cert': cert}\n"
        "class RunReport:\n    def to_json(self):\n        return json.dumps(self.verdicts, default=_encode)\n"
        "def _cmd_glb(args, tol, doc):\n    return {'glb': report.encode_array(glb)}\n"
        "grid = encode_array(zero(2))\n"
    )
    assert callers("encode_array", "cli", source) == ["cli._cmd_bound", "cli._cmd_glb", "cli.<module>"]


def loose_thresholds(source: str) -> list[str]:
    """Each module-level name ending in ``_REL`` or ``_FLOOR`` that ``source`` assigns:
    a threshold belongs on ``Tolerances``."""
    found = []
    for top in ast.parse(source).body:
        targets = top.targets if isinstance(top, ast.Assign) else [top.target] if isinstance(top, ast.AnnAssign) else []
        found += [
            node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id.endswith(("_REL", "_FLOOR"))
        ]
    return found


def unnamed_kinds(source: str) -> list[str]:
    """The kind of each ``_within`` call in ``source``, as source text, that is not
    a string literal naming a threshold of ``Tolerances``."""
    names = set(Tolerances.__annotations__)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_within":
            keywords = {k.arg: k.value for k in node.keywords}
            kind = node.args[1] if len(node.args) > 1 else keywords.get("kind")
            if not (isinstance(kind, ast.Constant) and kind.value in names):
                found.append(ast.unparse(kind) if kind is not None else "<none>")
    return found


def _is_scale(node) -> bool:
    return any("scale" in getattr(sub, "id", getattr(sub, "attr", "")) for sub in ast.walk(node))


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def literal_scale_thresholds(source: str) -> list[str]:
    """Each number times a scale, or times an expression of one, inside a comparison
    in ``source``, as source text: a threshold on a scale is ``_within`` of a kind
    named on ``Tolerances``."""
    found = []
    for compare in ast.walk(ast.parse(source)):
        if not isinstance(compare, ast.Compare):
            continue
        found += [
            ast.unparse(node) for node in ast.walk(compare)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_is_number(node.left) and _is_scale(node.right) or _is_scale(node.left) and _is_number(node.right))
        ]
    return found


def _is_scale_valued(node) -> bool:
    """Whether ``node`` evaluates to a scale: a name that says so, a ``.norm()`` or
    ``.max_norm()`` call, or ``max``, ``min``, ``abs`` or arithmetic of one."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return "scale" in getattr(node, "id", getattr(node, "attr", ""))
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name in ("norm", "max_norm") or name in ("max", "min", "abs") and any(map(_is_scale_valued, node.args))
    if isinstance(node, ast.BinOp):
        return _is_scale_valued(node.left) or _is_scale_valued(node.right)
    return isinstance(node, ast.UnaryOp) and _is_scale_valued(node.operand)


def additive_floors(source: str) -> list[str]:
    """Each number added to a scale, as source text: a floor such as ``1 + |S|`` puts
    a unit scale beside the problem's, so a decision moves when the problem is rescaled."""
    return [
        ast.unparse(node) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and (_is_number(node.left) and _is_scale_valued(node.right)
             or _is_scale_valued(node.left) and _is_number(node.right))
    ]


def test_every_threshold_is_named_on_tolerances():
    sources = [path.read_text() for path in MODULES]
    assert [name for source in sources for name in loose_thresholds(source)] == []
    assert [kind for source in sources for kind in unnamed_kinds(source)] == []
    assert [text for source in sources for text in literal_scale_thresholds(source)] == []
    assert [text for source in sources for text in additive_floors(source)] == []


def test_finds_loose_thresholds_and_unnamed_kinds():
    source = (
        "_CUT_REL = 1e-6\n_NOISE_FLOOR: float = 1.0\nA_REL, b = 1, 2\nclass T:\n    inner_REL = 1\n"
        "def f(x, rel, tol):\n    LOCAL_REL = 1\n    return (_within(x, 1e-6, 1.0), _within(x, rel, 1.0),\n"
        "            linalg._within(x, 'no_rel', 1.0), _within(x), _within(x, 'psd_rel', 1.0, tol),\n"
        "            _within(x, kind='cluster_rel', scale=1.0), _within(x, 'noise_rel', 1.0))\n"
    )
    assert loose_thresholds(source) == ["_CUT_REL", "_NOISE_FLOOR", "A_REL"]
    assert unnamed_kinds(source) == ["1e-06", "rel", "'no_rel'", "<none>"]
    source = (
        "def g(m, x, scale, pair_scale, tol):\n"
        "    jitter = 0.25 * scale * x\n"
        "    ok = m.min_eigenvalue() >= -1e-9 * scale\n"
        "    if x.norm() <= 1e-9 * (1.0 + pair_scale) or x < pair_scale * 2:\n"
        "        return x <= tol.psd_rel * scale and _within(x, 'psd_rel', scale, tol)\n"
    )
    assert literal_scale_thresholds(source) == ["-1e-09 * scale", "1e-09 * (1.0 + pair_scale)", "pair_scale * 2"]


def test_finds_additive_floors():
    source = (
        "def g(a, b, m, mset, shift, pair_scale, k):\n"
        "    scale = 1.0 + mset.max_norm()\n"
        "    top = 1 + max(a.norm(), b.norm(), m.norm())\n"
        "    wide = 1.0 + scale + shift.norm()\n"
        "    low = np.linalg.norm(a, 2) + 1e-300 + pair_scale\n"
        "    cuts = np.flatnonzero(~_within(np.diff(w), 'cluster_rel', scale)) + 1\n"
        "    return [[1.0 + 1.0 / k, scale + pair_scale], [a.norm() * 2.0, 1.0 + abs(k)]]\n"
    )
    assert additive_floors(source) == [
        "1.0 + mset.max_norm()", "1 + max(a.norm(), b.norm(), m.norm())", "1.0 + scale",
        "np.linalg.norm(a, 2) + 1e-300",
    ]


# the scale boundary: an exact power of two is taken and applied only by its helpers
SCALE_HELPERS = {"linalg._exponent", "linalg._ldexp"}


def power_of_two_calls(module: str, source: str) -> list[str]:
    """``module.name`` of each top-level definition that calls ``frexp`` or ``ldexp``."""
    return sorted({hit for function in ("frexp", "ldexp") for hit in callers(function, module, source)})


def test_powers_of_two_are_taken_only_at_the_scale_boundary():
    assert {hit for path in MODULES for hit in power_of_two_calls(path.stem, path.read_text())} <= SCALE_HELPERS


def test_finds_power_of_two_calls():
    source = (
        "def _exponent(arrays):\n    return math.frexp(max(arrays))[1]\n"
        "def _positive_mlb(a, w):\n    e = frexp(w.max())[1]\n    return np.ldexp(a, -e)\n"
        "def shift(x):\n    return x * 2.0 ** -3\n"
        "top = math.ldexp(1.0, 5)\n"
    )
    assert power_of_two_calls("infimum", source) == ["infimum.<module>", "infimum._exponent", "infimum._positive_mlb"]
    # an accessor moves its eigenvalues through the helpers too
    source = (
        "class HermitianMatrix:\n    def norm(self):\n"
        "        return np.ldexp(_top(np.linalg.eigvalsh(np.ldexp(self.mat, -self.e))), self.e)\n"
        "    def min_eigenvalue(self):\n        return _ldexp(self._spectrum()[0], 0)\n"
    )
    assert power_of_two_calls("linalg", source) == ["linalg.HermitianMatrix"]


# every public routine homogeneous of degree one, f(cM) = c f(M) for c > 0, runs through the
# scale boundary: matrices and numbers in its result move with the input's scale, verdicts,
# counts and bases do not
DEGREE_ONE = (
    "linalg.matrix_abs", "linalg.range_nullspace", "linalg.compare", "linalg.loewner_leq", "linalg.is_psd",
    "schur.albert_is_psd", "schur.schur_complement",
    "parallel.parallel_sum", "parallel.parallel_sum_family", "parallel.ando_limit", "parallel.two_op_positive_glb",
    "infimum.finite_infimum", "infimum.pairwise_commuting", "infimum.simultaneous_eigenbasis",
    "infimum.commuting_glb", "infimum.commuting_glb_two_routes", "infimum.commutant_basis",
    "infimum.positive_maximal_lb", "infimum.extend_to_maximal", "infimum.distinct_maximals",
    "infimum.positive_glb_family",
    "bounds.is_lower_bound", "bounds.certify_maximal", "bounds.mlb_mt",
    "constrained.constrained_at_vector", "constrained.maximal_in_lu",
)
# the public routines that are not: square roots, inverses, the {J, 0} parametrization, which
# is not homogeneous in X, constructors, a lone eigendecomposition, whose vectors do not move,
# routines of bare arrays or subspaces, and ``hermitize``, which normalizes its raw input itself
NOT_DEGREE_ONE = (
    "linalg.identity", "linalg.zero", "linalg.hermitize", "linalg.spectral", "linalg.fix_column_phases",
    "linalg.sqrt_psd", "linalg.pinv", "linalg.polar_abs", "linalg.subspace_intersect",
    "bounds.signature_matrix", "bounds.stott_mx", "bounds.stott_recover_x",
)
NUMERIC_MODULES = ("linalg", "schur", "parallel", "infimum", "bounds", "constrained")


def resolve(dotted: str):
    module, *attrs = dotted.split(".")
    value = importlib.import_module(f"loewner.{module}")
    for attr in attrs:
        value = getattr(value, attr)
    return value


def unbounded(names, lookup=resolve) -> list[str]:
    """The names whose routine has no ``__wrapped__``, the mark of the scale boundary."""
    return [name for name in names if not hasattr(lookup(name), "__wrapped__")]


def test_degree_one_routines_run_through_the_scale_boundary():
    assert unbounded(DEGREE_ONE) == []
    assert unbounded(NOT_DEGREE_ONE) == list(NOT_DEGREE_ONE)
    # every public function is classified
    public = {
        f"{module}.{name}" for module in NUMERIC_MODULES for name in resolve(module).__all__
        if inspect.isfunction(resolve(f"{module}.{name}"))
    }
    assert public == {name for name in DEGREE_ONE + NOT_DEGREE_ONE if name.count(".") == 1}


def spectrum_readers(source: str) -> list[str]:
    """``linalg.Class.name`` of each public method of ``HermitianMatrix`` or ``MatrixSet`` in ``source``
    that reads a spectrum: calls ``_spectrum``, ``eigenvalues`` or ``eigvalsh``."""
    return [
        f"linalg.{top.name}.{method.name}"
        for top in ast.parse(source).body if isinstance(top, ast.ClassDef) and top.name in ("HermitianMatrix", "MatrixSet")
        for method in top.body if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        if any(
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("_spectrum", "eigenvalues", "eigvalsh")
            for node in ast.walk(method)
        )
    ]


def test_value_accessors_are_covariant_on_their_own():
    # a value solves its eigenvalues times 2^-e past the native exponents, so its accessors need no
    # boundary; each one is listed, and TestScaleBoundary moves it by 2^k bit for bit
    readers = spectrum_readers((PACKAGE / "linalg.py").read_text())
    assert sorted(COVARIANT_ACCESSORS) == sorted(readers)
    assert unbounded(readers) == readers


def test_finds_spectrum_readers():
    source = (
        "class HermitianMatrix:\n    def norm(self):\n        return float(_top(self._spectrum()))\n"
        "    def _spectrum(self):\n        return np.linalg.eigvalsh(self.mat)\n"
        "    def __add__(self, other):\n        return _hermitian(self.mat + other.mat)\n"
        "class MatrixSet:\n    def eigenvalues(self):\n        return np.linalg.eigvalsh(self.stack)\n"
        "    def least(self):\n        return self.eigenvalues()[:, 0].min()\n"
        "class Subspace:\n    def dim(self):\n        return eigvalsh(self.basis)\n"
    )
    assert spectrum_readers(source) == [
        "linalg.HermitianMatrix.norm", "linalg.MatrixSet.eigenvalues", "linalg.MatrixSet.least"
    ]


def test_finds_routines_without_the_boundary():
    def plain(m):
        return m

    @functools.wraps(plain)
    def bounded(m):
        return plain(m)

    lookup = {"a.bounded": bounded, "a.plain": plain, "b.Set.method": plain}.get
    assert unbounded(["a.bounded", "a.plain", "b.Set.method"], lookup) == ["a.plain", "b.Set.method"]


def unbounded_private_calls(source: str, lookup=resolve) -> list[str]:
    """``handler -> module.name`` for each call in a ``_cmd_*`` handler of ``source`` to a private
    routine it imports from the package that has no scale boundary (``lookup`` finds it by name):
    a handler that skips the public routine must not skip its boundary too."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names
    }
    return [
        f"{top.name} -> {imported[node.func.id]}"
        for top in tree.body if isinstance(top, ast.FunctionDef) and top.name.startswith("_cmd_")
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id.startswith("_")
        and node.func.id in imported and not hasattr(lookup(imported[node.func.id]), "__wrapped__")
    ]


def test_cli_handlers_call_no_private_routine_past_the_boundary():
    assert unbounded_private_calls((PACKAGE / "cli.py").read_text()) == []


def test_finds_private_calls_past_the_boundary():
    source = (
        "from .parallel import _parallel_sum, _ando_limit\nfrom .constrained import _maximal_from_report as _mfr\n"
        "def _parse(text):\n    return _ando_limit(text)\n"
        "def _cmd_sum(args, tol, doc):\n    return _parallel_sum(doc.matrix_set, tol), _parse(args.x)\n"
        "def _cmd_ando(args, tol, doc):\n    return _ando_limit(doc.split, doc.b, tol, 1.0), _mfr(doc, tol)\n"
    )
    def bare(*args):
        return args

    lookup = {"parallel._parallel_sum": functools.wraps(bare)(lambda *args: bare(*args)),
              "parallel._ando_limit": bare, "constrained._maximal_from_report": bare}.get
    assert unbounded_private_calls(source, lookup) == [
        "_cmd_ando -> parallel._ando_limit", "_cmd_ando -> constrained._maximal_from_report"
    ]
