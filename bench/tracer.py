"""Span tracer for the benchmark's traced runs.

``Tracer.install`` wraps, from outside the package, the public functions of
every ``loewner`` module, the recursion step ``infimum._positive_mlb``, the
``HermitianMatrix`` and ``Subspace`` constructors (counted, not timed) and
the ``numpy.linalg`` entry points the package calls.  Each wrapped call
records a span (name, parent, start, end) in flat in-memory arrays; nothing
is written until ``save``.  Recording is active only while ``enabled`` is
set, so the benchmark's own checks never appear in the trace.

``metrics`` turns the spans into the per-layer figures listed in
``PER_LAYER``: call counts, inclusive milliseconds (outermost call of a
name only, so recursion is not counted twice), self milliseconds (span
minus its direct children), and LAPACK work computed from operand shapes.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("lapack.eigh.calls", "count"),
    ("lapack.eigvalsh.calls", "count"),
    ("lapack.svd.calls", "count"),
    ("lapack.svd_full.calls", "count"),
    ("lapack.norm2.calls", "count"),
    ("lapack.inv.calls", "count"),
    ("lapack.ms", "ms"),
    ("lapack.gflop", "GFLOP"),
    ("lapack.svd_full.peak_mb", "MB"),
    ("linalg.spectral.calls", "count"),
    ("linalg.compare.calls", "count"),
    ("linalg.spectral.ms", "ms"),
    ("linalg.range_nullspace.ms", "ms"),
    ("linalg.subspace_sum.ms", "ms"),
    ("linalg.subspace_intersect.ms", "ms"),
    ("linalg.compare.ms", "ms"),
    ("linalg.hermitize.ms", "ms"),
    ("linalg.hermitian_new.calls", "count"),
    ("linalg.subspace_new.calls", "count"),
    ("schur.quotient_set.calls", "count"),
    ("schur.schur_complement.calls", "count"),
    ("schur.quotient_set.ms", "ms"),
    ("schur.albert_is_psd.ms", "ms"),
    ("infimum.positive_mlb.levels", "count"),
    ("bounds.certify_maximal.calls", "count"),
    ("bounds.certify_maximal.ms", "ms"),
    ("bounds.mlb_mt.ms", "ms"),
    ("bounds.stott.ms", "ms"),
    ("infimum.finite_infimum.ms", "ms"),
    ("infimum.positive_maximal_lb.ms", "ms"),
    ("infimum.extend_to_maximal.ms", "ms"),
    ("infimum.distinct_maximals.ms", "ms"),
    ("infimum.commutant_basis.ms", "ms"),
    ("infimum.commuting_glb.ms", "ms"),
    ("infimum.positive_glb_family.ms", "ms"),
    ("parallel.parallel_sum.calls", "count"),
    ("parallel.parallel_sum.ms", "ms"),
    ("parallel.ando_limit.ms", "ms"),
    ("constrained.ms", "ms"),
    ("documents.parse.ms", "ms"),
    ("documents.emit.ms", "ms"),
    ("report.encode.ms", "ms"),
    ("report.digest.ms", "ms"),
    ("report.json.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("ensembles.self_ms", "ms"),
    ("sampling.ms", "ms"),
    ("trace.overhead_pct", "%"),
)

MODULES = (
    "linalg", "bounds", "schur", "infimum", "parallel", "constrained",
    "documents", "report", "sampling", "ensembles", "fixtures", "cli",
)

# Functions that share one span name, so that a layer made of several
# functions is timed once even when they call each other.
_GROUPS = {
    "bounds.stott_mx": "bounds.stott",
    "bounds.stott_recover_x": "bounds.stott",
    "constrained.constrained_at_vector": "constrained",
    "constrained.maximal_in_lu": "constrained",
    "documents.parse_document": "documents.parse",
    "documents.emit_document": "documents.emit",
    "report.canonical_digest": "report.digest",
}
for _fn in ("encode_matrix", "encode_matrix_or_none", "encode_set", "encode_array", "encode_certificate"):
    _GROUPS[f"report.{_fn}"] = "report.encode"

_LAPACK = ("eigh", "eigvalsh", "svd", "svd_full", "norm2", "inv")

# (metric, span name) pairs read straight off the spans.
_CALLS = {
    "linalg.spectral.calls": "linalg.spectral",
    "linalg.compare.calls": "linalg.compare",
    "schur.quotient_set.calls": "schur.quotient_set",
    "schur.schur_complement.calls": "schur.schur_complement",
    "bounds.certify_maximal.calls": "bounds.certify_maximal",
    "parallel.parallel_sum.calls": "parallel.parallel_sum",
}
_CALLS.update({f"lapack.{k}.calls": f"lapack.{k}" for k in _LAPACK})
_INCLUSIVE = {
    metric: metric[: -len(".ms")]
    for metric, unit in PER_LAYER
    if unit == "ms" and metric.endswith(".ms") and metric != "lapack.ms"
}
_SELF = {"cli.main.self_ms": "cli.main", "ensembles.self_ms": "ensembles.ensemble_run"}


def _batch(shape) -> int:
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _field(a) -> float:
    # real flops per operation: 4 for complex arithmetic, 1 for real
    return 4.0 if np.iscomplexobj(a) else 1.0


def _svd_flops(m: int, n: int, uv: bool, full: bool) -> float:
    m, n = max(m, n), min(m, n)
    if not uv:
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    if full:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    return 14.0 * m * n * n + 8.0 * n ** 3


class Tracer:
    """In-memory span recorder over the ``loewner`` package and ``numpy.linalg``."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self.counts = {"linalg.hermitian_new": 0, "linalg.subspace_new": 0}
        self.flops = 0.0
        self.svd_full_peak_bytes = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        nid = self._id(name)
        idx = len(self.start)
        depth = self._depth.get(nid, 0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(depth == 0)
        self.end.append(0.0)
        self._depth[nid] = depth + 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._depth[nid] = depth

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)

        return traced

    def _wrap_counter(self, key: str, init):
        def counted(obj, *args, **kwargs):
            if self.enabled:
                self.counts[key] += 1
            return init(obj, *args, **kwargs)

        return counted

    def _wrap_lapack(self, kind: str, fn):
        def traced(a, *args, **kwargs):
            if not self.enabled:
                return fn(a, *args, **kwargs)
            arr = np.asarray(a)
            name, flops = self._lapack_cost(kind, arr, args, kwargs)
            if name is None:
                return fn(a, *args, **kwargs)
            self.flops += flops
            return self.call(name, fn, (a,) + args, kwargs)

        return traced

    def _lapack_cost(self, kind: str, arr: np.ndarray, args, kwargs):
        """Span name and computed real flop count of one LAPACK-backed call;
        a name of None means the call does no LAPACK work (vector norms)."""
        if arr.ndim < 2:
            return None, 0.0
        m, n = arr.shape[-2], arr.shape[-1]
        scale = _batch(arr.shape) * _field(arr)
        if kind == "eigh":
            return "lapack.eigh", scale * 9.0 * n ** 3
        if kind == "eigvalsh":
            return "lapack.eigvalsh", scale * 4.0 * n ** 3 / 3.0
        if kind == "inv":
            return "lapack.inv", scale * 2.0 * n ** 3
        if kind == "norm":
            ord_ = args[0] if args else kwargs.get("ord")
            if ord_ != 2 or arr.ndim != 2:
                return None, 0.0
            return "lapack.norm2", scale * _svd_flops(m, n, False, False)
        full = args[0] if args else kwargs.get("full_matrices", True)
        uv = args[1] if len(args) > 1 else kwargs.get("compute_uv", True)
        if uv and full and m != n:
            itemsize = 16.0 if _field(arr) == 4.0 else 8.0
            self.svd_full_peak_bytes = max(
                self.svd_full_peak_bytes, _batch(arr.shape) * itemsize * (m * m + n * n + m * n)
            )
            return "lapack.svd_full", scale * _svd_flops(m, n, True, True)
        return "lapack.svd", scale * _svd_flops(m, n, bool(uv), bool(full) and m != n)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's public functions and numpy.linalg in place."""
        pkg = importlib.import_module("loewner")
        modules = {m: importlib.import_module(f"loewner.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, module in modules.items():
            names = list(getattr(module, "__all__", ()))
            if short == "infimum":
                names.append("_positive_mlb")
            for attr in names:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                key = f"{short}.{attr}"
                span = "sampling" if short == "sampling" else _GROUPS.get(key, key)
                wrapped[id(fn)] = self._wrap(span, fn)
        for owner in [pkg, *modules.values()]:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(owner, attr, wrapped[id(value)])
        report_cls = modules["report"].RunReport
        self._patch(report_cls, "to_json", self._wrap("report.json", report_cls.to_json))
        linalg = modules["linalg"]
        self._patch(linalg.HermitianMatrix, "__init__",
                    self._wrap_counter("linalg.hermitian_new", linalg.HermitianMatrix.__init__))
        self._patch(linalg.Subspace, "__init__",
                    self._wrap_counter("linalg.subspace_new", linalg.Subspace.__init__))
        for kind in ("eigh", "eigvalsh", "svd", "norm", "inv"):
            self._patch(np.linalg, kind, self._wrap_lapack(kind, getattr(np.linalg, kind)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write the recorded spans as a compressed npz table."""
        np.savez_compressed(path, **self.spans())

    def metrics(self) -> dict:
        """Per-layer totals over everything recorded (not per pass)."""
        t = self.spans()
        name, parent = t["name"], t["parent"]
        dur = (t["end"] - t["start"]) * 1000.0
        outer = np.array(self.outer, dtype=bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ms = dur - child[: dur.size]

        def ids(span: str) -> np.ndarray:
            nid = self._ids.get(span)
            return name == nid if nid is not None else np.zeros(dur.size, dtype=bool)

        out: dict[str, float] = {}
        for metric, span in _CALLS.items():
            out[metric] = float(ids(span).sum())
        for metric, span in _INCLUSIVE.items():
            out[metric] = float(dur[ids(span) & outer].sum())
        for metric, span in _SELF.items():
            out[metric] = float(self_ms[ids(span)].sum())
        out["lapack.ms"] = float(sum(dur[ids(f"lapack.{k}")].sum() for k in _LAPACK))
        out["lapack.gflop"] = self.flops / 1e9
        out["lapack.svd_full.peak_mb"] = self.svd_full_peak_bytes / 1e6
        out["linalg.hermitian_new.calls"] = float(self.counts["linalg.hermitian_new"])
        out["linalg.subspace_new.calls"] = float(self.counts["linalg.subspace_new"])
        out["infimum.positive_mlb.levels"] = float(self._count_under("schur.quotient_set", "infimum._positive_mlb"))
        return out

    def _count_under(self, inner: str, ancestor: str) -> int:
        inner_id, anc_id = self._ids.get(inner), self._ids.get(ancestor)
        if inner_id is None or anc_id is None:
            return 0
        count = 0
        for idx in np.flatnonzero(np.array(self.name, dtype=np.int32) == inner_id):
            p = self.parent[idx]
            while p >= 0:
                if self.name[p] == anc_id:
                    count += 1
                    break
                p = self.parent[p]
        return count


# Metrics that combine across processes and passes by maximum, not by sum.
PEAK_METRICS = ("lapack.svd_full.peak_mb",)


def merge(totals: dict, extra: dict) -> dict:
    """Combine two per-layer total dicts (sum, or max for peaks)."""
    out = dict(totals)
    for key, value in extra.items():
        if key in PEAK_METRICS:
            out[key] = max(out.get(key, 0.0), value)
        else:
            out[key] = out.get(key, 0.0) + value
    return out
