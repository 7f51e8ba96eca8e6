"""Every name a package module imports is used there or re-exported through
the module's ``__all__``, every private module-level function or class is
referenced somewhere in the package, the common range K is decided only
beside the parallel sum, trials are seeded only in the one trial loop, every
threshold is named on ``Tolerances``, and no number is added to a scale."""

import ast
from pathlib import Path

import pytest

from loewner.linalg import Tolerances

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


# K = R(A_1) ∩ ... ∩ R(A_k) is decided beside S, which is built on it, by the subspace meet,
# and by the parallel-ando suite's check of S's range against it: no command decides it again
COMMON_RANGE_CALLERS = {"linalg.subspace_intersect", "parallel._parallel_sum", "ensembles._parallel_ando"}


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
