"""The benchmark's three workloads: seeded inputs and fixed operation lists.

Inputs are drawn here with numpy from the workload seed; the library only
ever receives the generated matrices.  Each workload's ``prepare`` builds
its inputs and returns its operation list; one pass runs every operation
once, in order.  An operation pairs a call into ``loewner`` (or one CLI
process) with a check from ``checks`` that recomputes the expected answer
independently.  Operations with a ``fault`` are known defects kept in the
benchmark: they fail today on fixed, seed-independent inputs, and pass once
the named fault is mended.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
from checks import require

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The acceptance gate's seed; the suites workload never runs on it.
TEST_SEED = 20260825

# The fixture ex6.2: an incomparable pair whose positive mlb is diag(1/2, 0).
EX62 = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 1.0], [1.0, 2.0]])]


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.  A pass
    runs it ``repeat`` times back to back."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None
    repeat: int = 1


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _cgauss(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_hermitian(rng, n: int) -> np.ndarray:
    g = _cgauss(rng, (n, n))
    return (g + g.conj().T) / 2.0


def rand_psd(rng, n: int, rank: int | None = None, shift: float = 0.0) -> np.ndarray:
    g = _cgauss(rng, (n, n if rank is None else rank))
    return g @ g.conj().T / n + shift * np.eye(n)


def rand_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cgauss(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def rand_unit(rng, n: int) -> np.ndarray:
    u = _cgauss(rng, n)
    return u / np.linalg.norm(u)


def _memo(fn):
    """Compute an input-derived reference once, on first use by a check."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


class InProcess:
    """A workload of library calls made inside the benchmark process."""

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def warmup(self, ops: list[Op]) -> list[Op]:
        # the first operation of each kind (the name up to its first "/")
        kinds: dict[str, Op] = {}
        for op in ops:
            kinds.setdefault(op.name.split("/")[0], op)
        return list(kinds.values())

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# suites-recursion: the ensemble suites


# Trials and dims of the acceptance gate; each suite is cut into chunks of
# similar run time, each chunk an ensemble_run call on its own derived seed.
SUITES = {
    # suite: (acceptance trials, dims, chunk trials)
    "anti-lattice": (500, (2, 5), 25),
    "stott-roundtrip": (200, (1, 4), 100),
    "mt-family": (300, (2, 6), 150),
    "commuting-tworoute": (200, (2, 6), 50),
    "positive-mlb": (500, (2, 6), 20),
    "albert-vs-spectral": (1000, (2, 6), 500),
    "parallel-ando": (300, (2, 6), 50),
    "effect-projection": (100, (2, 6), 100),
}

# Verdict keys that count trials passing a property; each must equal trials.
SUITE_COUNTS = {
    "anti-lattice": ("infimum_nonexistent", "distinct_triples", "certified_triples"),
    "stott-roundtrip": ("certified", "roundtrips_within_1e-8"),
    "mt-family": ("lower_bounds", "certified"),
    "commuting-tworoute": ("dominates_candidates",),
    "positive-mlb": ("psd", "lower_bounds", "certified", "dominates_scalar_floor",
                     "no_dominating_perturbation"),
    "albert-vs-spectral": ("agreements",),
    "parallel-ando": ("rank_identity", "pair_family_agreements", "bounded_by_both"),
    "effect-projection": ("glb_exists",),
}

_WARMUP_TRIALS = 2


def _chunk_seed(seed: int, suite_index: int, chunk: int) -> int:
    value = int(np.random.SeedSequence([int(seed), 1000 + suite_index, chunk]).generate_state(1)[0])
    return value + 1 if value == TEST_SEED else value


def suite_ops(L, seed: int) -> tuple[list[Op], list[Op]]:
    """The suites at the acceptance gate's trial counts, cut into chunks, and
    a warm-up of two trials per suite on seeds of their own."""

    def op(suite, trials, dims, chunk_seed) -> Op:
        def run():
            return L.ensemble_run(suite, trials, dims, seed=chunk_seed)

        def check(verdict):
            C.check_ensemble_counts(verdict, trials, SUITE_COUNTS[suite])

        return Op(f"{suite}/seed={chunk_seed}/trials={trials}", run, check)

    ops, warm = [], []
    for index, (suite, (trials, dims, chunk)) in enumerate(SUITES.items()):
        for c in range(trials // chunk):
            ops.append(op(suite, chunk, dims, _chunk_seed(seed, index, c)))
        warm.append(op(suite, _WARMUP_TRIALS, dims, _chunk_seed(seed, index, trials // chunk)))
    return ops, warm


# ---------------------------------------------------------------------------
# suites-recursion: the super-cubic layers

PMLB_DIMS = (40, 70, 100)
EXTEND_DIM = 60
DISTINCT_DIM = 50
LU_DIM = 60
COMMUTING_DIMS = (12, 18, 24)


def psd_family(rng, n: int) -> list[np.ndarray]:
    """Three PSD members of ranks n - 1, n and n."""
    return [rand_psd(rng, n, rank=n - 1), rand_psd(rng, n), rand_psd(rng, n)]


def commuting_family(rng, n: int, size: int = 3):
    """``size`` members U diag(d_i) U* whose joint eigenvalue tuples repeat
    with multiplicities 1 to 3, so the commutant is larger than n."""
    groups = []
    while sum(groups) < n:
        groups.append(int(min(rng.integers(1, 4), n - sum(groups))))
    u = rand_unitary(rng, n)
    diagonals = np.stack([np.repeat(rng.standard_normal(len(groups)), groups) for _ in range(size)])
    members = [(u * d) @ u.conj().T for d in diagonals]
    return u, diagonals, [(m + m.conj().T) / 2.0 for m in members]


def recursion_ops(L, seed: int) -> list[Op]:
    """The positive-mlb recursion (per-dimension Schur complements) and the
    Kronecker commutant solve of ``loewner commuting-glb``."""
    H = L.HermitianMatrix

    def mset(mats):
        return L.MatrixSet([H(m) for m in mats])

    ops: list[Op] = []
    rng = _rng(seed, 7)
    for n in PMLB_DIMS:
        fam = psd_family(rng, n)
        ops.append(Op(f"positive_maximal_lb/n={n}", (lambda s=mset(fam): L.positive_maximal_lb(s)),
                      _check_psd_maximal(fam)))

    fam = psd_family(rng, EXTEND_DIM)
    gamma = min(float(np.linalg.eigvalsh(m)[0]) for m in fam)
    jitter = rand_psd(rng, EXTEND_DIM)
    lower = gamma * np.eye(EXTEND_DIM) - 0.25 * jitter / float(np.linalg.eigvalsh(jitter)[-1])
    ext_set, ext_lower = mset(fam), H(lower)

    def check_extend(m, fam=fam, lower=lower):
        C.check_maximal_lower_bound(m.mat, fam)
        require(C.min_gap_eigenvalue(m.mat, lower) >= -C.ORDER_REL * C.scale_of(*fam),
                "extension does not dominate its starting bound")

    ops.append(Op(f"extend_to_maximal/n={EXTEND_DIM}", lambda: L.extend_to_maximal(ext_lower, ext_set),
                  check_extend))

    fam = psd_family(rng, DISTINCT_DIM)
    dist_set = mset(fam)
    ops.append(Op(f"distinct_maximals/psd-triple/n={DISTINCT_DIM}",
                  lambda: L.distinct_maximals(dist_set, 2, seed=DISTINCT_DIM),
                  lambda bounds, fam=fam: check_distinct_maximals(bounds, fam, C.scale_of(*fam))))

    fam = psd_family(rng, LU_DIM)
    u = rand_unit(rng, LU_DIM)
    lu_set = mset(fam)

    def check_lu(m, fam=fam, u=u):
        require(m is not None, "constrained family reported empty for a single attainer")
        C.check_maximal_lower_bound(m.mat, fam)
        alpha = min(float(np.real(np.vdot(u, a @ u))) for a in fam)
        value = float(np.real(np.vdot(u, m.mat @ u)))
        require(abs(value - alpha) <= C.EQ_REL * C.scale_of(*fam), f"(Mu, u) = {value}, alpha {alpha}")

    ops.append(Op(f"maximal_in_lu/n={LU_DIM}", lambda: L.maximal_in_lu(lu_set, u), check_lu))

    for n in COMMUTING_DIMS:
        unitary, diagonals, members = commuting_family(rng, n)
        ops.append(Op(f"commuting-glb/n={n}", _run_commuting(L, mset(members)),
                      _check_commuting(unitary, diagonals, members)))
    return ops


def _check_psd_maximal(fam):
    def check(m):
        scale = C.scale_of(*fam)
        require(float(np.linalg.eigvalsh(m.mat)[0]) >= -C.ORDER_REL * scale, "bound is not PSD")
        C.check_maximal_lower_bound(m.mat, fam, scale)

    return check


def _run_commuting(L, family):
    """The call sequence of ``loewner commuting-glb`` on a commuting family."""

    def run():
        commuting = L.pairwise_commuting(family)
        basis = L.commutant_basis(family)
        glb = L.commuting_glb(family)
        return commuting, len(basis), glb, L.certify_maximal(glb, family)

    return run


def _check_commuting(unitary, diagonals, members):
    def check(result):
        commuting, dim, glb, cert = result
        require(commuting, "commuting family reported non-commuting")
        want = C.joint_multiplicity_dim(diagonals)
        require(dim == want, f"commutant dimension {dim}, reference {want}")
        scale = C.scale_of(*members)
        C.assert_close(glb.mat, C.commuting_glb_reference(unitary, diagonals), scale, "commuting glb")
        C.check_maximal_lower_bound(glb.mat, members, scale)
        require(cert.is_maximal, "certificate rejected the commuting glb")

    return check


class SuitesRecursion(InProcess):
    """The eight seeded ensemble suites at the acceptance gate's trial counts,
    then the two super-cubic layers at n up to 100: small-n per-call overhead
    and the layers that ROADMAP direction 3 rewrites, in one workload whose
    pass is long enough to measure steadily."""

    name = "suites-recursion"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, workdir: Path) -> list[Op]:
        import loewner as L

        suites, warm = suite_ops(L, self.seed)
        recursion = recursion_ops(L, self.seed)
        # a full pass takes about 20 s; two trials per suite and the smallest
        # case of each super-cubic operation load every code path
        self._warm = warm + InProcess.warmup(self, recursion)
        return suites + recursion

    def warmup(self, ops: list[Op]) -> list[Op]:
        return self._warm


# ---------------------------------------------------------------------------
# desk-dense

DESK_DIMS = (50, 100, 200)
# Each pass repeats the faster operations back to back, so that every
# operation's latency is a median over enough samples to stay steady on a
# shared, noisy CPU.
DESK_REPEAT = {50: 8, 100: 3, 200: 1}


class Desk(InProcess):
    """Dense library calls at desk scale, LAPACK-bound; no positive-mlb
    recursion and no commutant, so rewrites of those layers leave it alone."""

    name = "desk-dense"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, workdir: Path) -> list[Op]:
        import loewner as L

        ops: list[Op] = []
        for n in DESK_DIMS:
            ops += self._dims_ops(L, n, _rng(self.seed, n))
        return ops + self._fault_ops(L)

    @staticmethod
    def _dims_ops(L, n: int, rng) -> list[Op]:
        H = L.HermitianMatrix
        a, b, c = (rand_hermitian(rng, n) for _ in range(3))
        p1, p2 = rand_psd(rng, n), rand_psd(rng, n)
        t = _cgauss(rng, (n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        pd1, pd2 = rand_psd(rng, n, shift=0.5), rand_psd(rng, n, shift=0.5)
        s = rand_psd(rng, n, rank=(4 * n) // 5)
        r1, r2 = rand_psd(rng, n), rand_psd(rng, n)
        p, q = n // 2, n - n // 2
        x = _cgauss(rng, (p, q)) / np.sqrt(n)
        u = rand_unit(rng, n)

        abc = L.MatrixSet([H(a), H(b), H(c)])
        above = [b + p1, b, b + p2]
        with_inf = L.MatrixSet([H(m) for m in above])
        pair = L.MatrixSet([H(a), H(b)])
        ha, hb, hbp = H(a), H(b), H(b + p1)
        pd_pair = L.MatrixSet([H(pd1), H(pd2)])
        hs, hsr = H(s), H(s + r1)
        glb_family = L.MatrixSet([H(s), H(s + r1), H(s + r2)])
        scale_abc = _memo(lambda: C.scale_of(a, b, c))
        scale_pair = _memo(lambda: C.scale_of(a, b))
        scale_s = _memo(lambda: C.scale_of(s, s + r1, s + r2))

        def check_no_infimum(rep):
            require(C.has_infimum([a, b, c], scale_abc()) is None, "reference: inputs have an infimum")
            require(not rep.exists, "reported an infimum for an incomparable family")

        def check_infimum(rep):
            require(C.has_infimum(above) == 1, "reference: member 1 is not the infimum")
            require(rep.exists and rep.minimizing_index == 1, f"infimum index {rep.minimizing_index}")
            C.assert_close(rep.infimum.mat, b, C.scale_of(b), "infimum")

        def check_compare(verdicts):
            got = tuple(v.value for v in verdicts)
            want = (C.comparability(a, b), C.comparability(b, b + p1))
            require(got == want, f"compare gave {got}, reference {want}")

        def run_mlb_certify():
            m = L.mlb_mt(ha, hb, t)
            return m, L.certify_maximal(m, pair)

        def check_mlb_certify(result):
            m, cert = result
            C.check_maximal_lower_bound(m.mat, [a, b], max(scale_pair(), C.scale_of(m.mat)))
            require(cert.is_lower_bound and cert.is_maximal, "certificate rejected a maximal bound")

        def check_distinct(bounds):
            check_distinct_maximals(bounds, [a, b], scale_pair())

        def check_parallel(total):
            ref = C.parallel_sum_reference([pd1, pd2])
            C.assert_close(total.mat, ref, C.scale_of(ref), "parallel sum")

        def check_glb_s(report):
            require(report.exists, "greatest positive lower bound reported missing")
            C.assert_close(report.glb.mat, s, scale_s(), "greatest positive lower bound")

        def run_stott():
            pair_ = L.stott_mx(L.StottParam(p, q, x))
            return pair_.mx, L.stott_recover_x(pair_.mx, p, q)

        def check_stott(result):
            mx, param = result
            ref = C.stott_m_reference(x)
            C.assert_close(mx.mat, ref, C.scale_of(ref), "M(X)")
            j = C.signature(p, q)
            C.check_maximal_lower_bound(mx.mat, [j, np.zeros_like(j)], C.scale_of(ref))
            C.assert_close(param.x, x, 1.0, "recovered X")

        def check_constrained(rep):
            values = [float(np.real(np.vdot(u, m @ u))) for m in (a, b, c)]
            alpha = min(values)
            require(abs(rep.alpha - alpha) <= C.EQ_REL * scale_abc(), f"alpha {rep.alpha} vs {alpha}")
            require(rep.mu_indices == (int(np.argmin(values)),), f"attainers {rep.mu_indices}")
            require(rep.attainers_agree, "a single attainer must agree with itself")

        ops = [
            Op(f"finite_infimum/none/n={n}", lambda: L.finite_infimum(abc), check_no_infimum),
            Op(f"finite_infimum/exists/n={n}", lambda: L.finite_infimum(with_inf), check_infimum),
            Op(f"compare/n={n}", lambda: (L.compare(ha, hb), L.compare(hb, hbp)), check_compare),
            Op(f"mlb_mt+certify_maximal/n={n}", run_mlb_certify, check_mlb_certify),
            Op(f"distinct_maximals/pair/n={n}", lambda: L.distinct_maximals(pair, 2, seed=n), check_distinct),
            Op(f"parallel_sum_family/pd-pair/n={n}", lambda: L.parallel_sum_family(pd_pair), check_parallel),
            Op(f"two_op_positive_glb/n={n}", lambda: L.two_op_positive_glb(hs, hsr), check_glb_s),
            Op(f"positive_glb_family/n={n}", lambda: L.positive_glb_family(glb_family), check_glb_s),
            Op(f"stott_mx+stott_recover_x/n={n}", run_stott, check_stott),
            Op(f"constrained_at_vector/n={n}", lambda: L.constrained_at_vector(abc, u), check_constrained),
        ]
        for op in ops:
            op.repeat = DESK_REPEAT[n]
        return ops

    @staticmethod
    def _fault_ops(L) -> list[Op]:
        # Fixed inputs, independent of --seed, so that the failed share of
        # every run is exactly the same.
        H = L.HermitianMatrix
        rng = np.random.default_rng(4)
        while True:
            a, b = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
            if C.comparability(a, b) == "incomparable":
                break
        a, b = 1e-9 * a, 1e-9 * b
        tiny_pair = L.MatrixSet([H(a), H(b)])
        ex62 = [1e-12 * m for m in EX62]
        tiny_ex62 = L.MatrixSet([H(m) for m in ex62])

        def check_tiny_distinct(bounds):
            check_distinct_maximals(bounds, [a, b], C.scale_of(a, b))

        def check_tiny_infimum(rep):
            require(C.has_infimum(ex62) is None, "reference: scaled ex6.2 has an infimum")
            require(not rep.exists, "scaled ex6.2 reported an infimum")

        return [
            Op("distinct_maximals/pair-scaled-1e-9/n=4", lambda: L.distinct_maximals(tiny_pair, 2),
               check_tiny_distinct, fault="distinct_maximals raises DistinctnessFailure on a pair scaled by 1e-9"),
            Op("finite_infimum/ex6.2-scaled-1e-12", lambda: L.finite_infimum(tiny_ex62),
               check_tiny_infimum, fault="finite_infimum reports an infimum for ex6.2 scaled by 1e-12"),
        ]


def check_distinct_maximals(bounds, members, scale: float) -> None:
    require(len(bounds) == 2, f"{len(bounds)} bounds returned")
    for m in bounds:
        C.check_maximal_lower_bound(m.mat, members, max(scale, C.scale_of(m.mat)))
    gap = float(np.abs(bounds[0].mat - bounds[1].mat).max())
    require(gap > 1e-6 * scale, f"bounds not distinct: separation {gap:.3e}")


# ---------------------------------------------------------------------------
# cli-pipeline

FIXTURE_TRUNCATION = 8
SEEDED_DIMS = {"infimum": 200, "positive-glb": 120, "parallel-sum": 150}
# A child still running after this long is killed and its operation fails.
CHILD_TIMEOUT_S = 120.0


def _ex32(n: int) -> list[np.ndarray]:
    out = []
    for k in range(1, n + 1):
        m = np.zeros((n, n))
        m[k - 1, k - 1] = float(k * k)
        out.append(m)
    return out


def _ex47(n: int) -> list[np.ndarray]:
    out = [np.array([[1.0 + 1.0 / (k * k), np.sqrt(1.0 / k)], [np.sqrt(1.0 / k), 1.0 / k]])
           for k in range(1, n + 1)]
    return out + [np.array([[1.0, 0.0], [0.0, 0.0]])]


def _ex48i(n: int) -> list[np.ndarray]:
    return [np.array([[1.0 + 1.0 / k, 1.0], [1.0, 1.0]]) for k in range(1, n + 1)]


def document(mats) -> str:
    """A matrix-set document: real entries when possible, else [re, im]."""
    mats = [np.asarray(m) for m in mats]
    if all(np.isrealobj(m) for m in mats):
        grids = [np.asarray(m, dtype=float).tolist() for m in mats]
        tag = "real"
    else:
        grids = [np.stack([m.real, m.imag], axis=-1).tolist() for m in mats]
        tag = "complex"
    return json.dumps({"dim": int(mats[0].shape[0]), "field_tag": tag, "matrices": grids})


def wait_child(proc: subprocess.Popen, timeout: float):
    """Block until ``proc`` exits (killing it after ``timeout`` seconds) and
    return its exit code and resource usage.  A blocking wait4 returns the
    moment the child ends, where Popen.wait with a timeout polls."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass
class Completed:
    code: int
    stdout: str
    stderr: str


def _verdicts(done: Completed) -> dict:
    C.check_exit(done.code, 0, done.stderr)
    return json.loads(done.stdout)["verdicts"]


class Cli:
    """One fresh ``python -m loewner.cli ... --json`` process per command,
    run one at a time; the only workload that pays for import, document
    parsing and validation, the digest and JSON encoding."""

    name = "cli-pipeline"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.peak_kb = 0
        self.trace_dir: Path | None = None
        self.workdir: Path | None = None
        self.outputs: dict[str, Path] = {}
        self._traced_runs = 0

    # -- processes -------------------------------------------------------------

    def _command(self, argv: list[str]) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "loewner.cli", *argv]
        self._traced_runs += 1
        dump = self.trace_dir / f"child-{self._traced_runs:05d}"
        return [sys.executable, str(BENCH / "traced_cli.py"), "--trace-out", str(dump), "--", *argv]

    def spawn(self, argv: list[str], out: Path) -> int:
        """Run one CLI process to completion and return its exit code.  Its
        output goes to files (a pipe would fill at n = 200); the child's own
        peak RSS is recorded."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(out, "wb") as fout, open(out.with_suffix(".err"), "wb") as ferr:
            proc = subprocess.Popen(self._command(argv), stdout=fout, stderr=ferr,
                                    stdin=subprocess.DEVNULL, env=env, cwd=str(ROOT))
            code, usage = wait_child(proc, CHILD_TIMEOUT_S)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return code

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def warmup(self, ops: list[Op]) -> list[Op]:
        # two small commands load the interpreter, numpy and loewner from disk
        return ops[:2]

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- inputs and operations ---------------------------------------------------

    def prepare(self, workdir: Path) -> list[Op]:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.seed, 11)
        n_fx = FIXTURE_TRUNCATION
        ex43 = C.ex43_members(n_fx)
        docs = {
            "ex6.2": EX62,
            "ex3.2": _ex32(n_fx),
            "ex4.3": ex43,
            "ex4.7": _ex47(n_fx),
            "ex4.8i": _ex48i(n_fx),
        }
        n = SEEDED_DIMS["infimum"]
        inf_family = [rand_hermitian(rng, n) for _ in range(3)]
        n = SEEDED_DIMS["positive-glb"]
        s = rand_psd(rng, n, rank=(4 * n) // 5)
        glb_family = [s, s + rand_psd(rng, n), s + rand_psd(rng, n)]
        n = SEEDED_DIMS["parallel-sum"]
        pd_pair = [rand_psd(rng, n, shift=0.5), rand_psd(rng, n, shift=0.5)]
        docs.update({"seeded-infimum": inf_family, "seeded-positive-glb": glb_family,
                     "seeded-parallel-sum": pd_pair})
        paths = {}
        for key, mats in docs.items():
            paths[key] = workdir / f"{key}.json"
            paths[key].write_text(document(mats))
        paths["nan"] = workdir / "nan.json"
        paths["nan"].write_text('{"dim": 2, "field_tag": "real", "matrices": [[[1.0, NaN], [NaN, 1.0]]]}')
        x = _cgauss(rng, (2, 1))
        m_of_x = C.stott_m_reference(x)
        paths["stott-m"] = workdir / "stott-m.json"
        paths["stott-m"].write_text(json.dumps(np.stack([m_of_x.real, m_of_x.imag], axis=-1).tolist()))
        truncation = int(rng.integers(100, 201))
        return self._ops(workdir, paths, docs, x, m_of_x, truncation, ex43)

    def _op(self, name: str, argv: list[str], check, out: Path, fault: str | None = None) -> Op:
        """An operation running one CLI command; its check reads the output
        files after the timed run."""
        self.outputs[name] = out

        def check_files(code: int) -> None:
            check(Completed(code, out.read_text(), out.with_suffix(".err").read_text()))

        return Op(name, lambda: self.spawn(argv, out), check_files, fault)

    def _ops(self, workdir, paths, docs, x, m_of_x, truncation, ex43) -> list[Op]:
        a, b = EX62
        out = {}

        def o(key: str) -> Path:
            out[key] = workdir / f"out-{key}.json"
            return out[key]

        def inp(key: str) -> list[str]:
            return ["-i", str(paths[key]), "--json"]

        half = np.diag([0.5, 0.0])

        def check_order(done):
            v = _verdicts(done)
            require(v["comparability"] == C.comparability(a, b), f"comparability {v['comparability']}")
            require(not v["first_below_second"] and not v["second_below_first"], "incomparable pair ordered")

        def check_no_infimum(key):
            def check(done):
                v = _verdicts(done)
                require(C.has_infimum(docs[key]) is None, "reference: inputs have an infimum")
                require(v["exists"] is False, "reported an infimum for an incomparable family")
            return check

        def check_certify(done):
            v = _verdicts(done)
            C.check_maximal_lower_bound(half, EX62)
            require(v["is_lower_bound"] and v["is_maximal"], "diag(1/2, 0) not certified maximal")

        def check_extend(done):
            v = _verdicts(done)
            ext = C.decode_matrix(v["extension"])
            C.check_maximal_lower_bound(ext, EX62)
            require(C.min_gap_eigenvalue(ext, np.zeros((2, 2))) >= -C.ORDER_REL, "extension below 0")
            require(v["dominates_input"], "extension reported below its input")

        def check_commuting(done):
            v = _verdicts(done)
            require(v["pairwise_commuting"] is bool(np.abs(a @ b - b @ a).max() <= 1e-12), "commuting verdict")
            want = C.commutant_dim_kron(EX62)
            require(v["commutant_dimension"] == want, f"commutant dimension {v['commutant_dimension']} vs {want}")
            glb = C.decode_matrix(v["glb"])
            gamma = min(float(np.linalg.eigvalsh(m)[0]) for m in EX62)
            C.assert_close(glb, gamma * np.eye(2), 1.0, "commuting glb")
            require(v["commuting_maximal_exists"] == C.gaps_span(glb, EX62), "commuting maximal verdict")

        def check_positive_mlb(done):
            C.assert_close(C.decode_matrix(_verdicts(done)["bound"]), half, 1.0, "ex6.2 positive mlb")

        def check_glb_value(expected):
            def check(done):
                v = _verdicts(done)
                require(v["exists"], "greatest positive lower bound reported missing")
                C.assert_close(C.decode_matrix(v["glb"]), expected, C.scale_of(expected), "positive glb")
            return check

        def check_mlb_mt(done):
            bound = C.decode_matrix(_verdicts(done)["bound"])
            w, v = np.linalg.eigh(a - b)
            ref = (a + b - (v * np.abs(w)) @ v.conj().T) / 2.0
            C.assert_close(bound, ref, C.scale_of(a, b), "M_I")
            C.check_maximal_lower_bound(bound, EX62)

        def check_stott_build(done):
            mx = C.decode_matrix(_verdicts(done)["m_matrix"])
            C.assert_close(mx, m_of_x, C.scale_of(m_of_x), "M(X)")
            j = C.signature(2, 1)
            C.check_maximal_lower_bound(mx, [j, np.zeros_like(j)], C.scale_of(m_of_x))

        def check_stott_recover(done):
            C.assert_close(C.decode_matrix(_verdicts(done)["x"]), x, 1.0, "recovered X")

        def check_constrained(done):
            v = _verdicts(done)
            fam = docs["ex4.7"]
            values = [float(m[0, 0]) for m in fam]
            alpha = min(values)
            require(abs(v["alpha"] - alpha) <= C.EQ_REL, f"alpha {v['alpha']} vs {alpha}")
            want = [i for i, val in enumerate(values) if val == alpha]
            require(v["attaining_indices"] == want, f"attainers {v['attaining_indices']} vs {want}")
            require(v["attainers_agree"], "a single attainer must agree with itself")
            m = C.decode_matrix(v["maximal_element"])
            C.check_maximal_lower_bound(m, fam)
            require(abs(float(m[0, 0].real) - alpha) <= C.EQ_REL * C.scale_of(*fam), "(M e1, e1) != alpha")

        def check_parallel(key):
            def check(done):
                total = C.decode_matrix(_verdicts(done)["parallel_sum"])
                ref = C.parallel_sum_reference(docs[key])
                C.assert_close(total, ref, C.scale_of(ref), "parallel sum")
            return check

        def check_ando(done):
            v = _verdicts(done)
            require(v["exists"], "pair glb reported missing")
            C.assert_close(C.decode_matrix(v["glb"]), half, 1.0, "ex6.2 positive glb")
            C.assert_close(C.decode_matrix(v["ando_ba"]), a, 1.0, "[B]A")

        def check_fixture(done):
            C.check_exit(done.code, 0, done.stderr)
            doc = json.loads(done.stdout)
            got = np.asarray(doc["matrices"], dtype=float)
            C.assert_close(got, np.stack(ex43_n), 1.0, f"ex4.3 truncated at {truncation}")

        ex43_n = C.ex43_members(truncation)

        def check_ensemble(done):
            C.check_ensemble_counts(_verdicts(done), 20, SUITE_COUNTS["stott-roundtrip"])

        def check_nan(done):
            C.check_exit(done.code, 2, done.stderr)
            require(any(line.startswith("error:") for line in done.stderr.splitlines()),
                    "no error: line on stderr")

        fixture_out = o("fixture")
        ops = [
            self._op("check-order/ex6.2", ["check-order", *inp("ex6.2")], check_order, o("check-order")),
            self._op("infimum/ex3.2", ["infimum", *inp("ex3.2")], check_no_infimum("ex3.2"), o("infimum")),
            self._op("certify/ex6.2", ["certify", *inp("ex6.2"), "--candidate", "[[0.5, 0], [0, 0]]"],
                     check_certify, o("certify")),
            self._op("maximal-extend/ex6.2", ["maximal-extend", *inp("ex6.2"), "--lower", "[[0, 0], [0, 0]]"],
                     check_extend, o("maximal-extend")),
            self._op("commuting-glb/ex6.2", ["commuting-glb", *inp("ex6.2")], check_commuting,
                     o("commuting-glb")),
            self._op("positive-mlb/ex6.2", ["positive-mlb", *inp("ex6.2")], check_positive_mlb,
                     o("positive-mlb")),
            self._op(f"positive-glb/ex4.3-{FIXTURE_TRUNCATION}", ["positive-glb", *inp("ex4.3")],
                     check_glb_value(np.diag([1.0 / FIXTURE_TRUNCATION, 0.0])), o("positive-glb")),
            self._op("mlb-mt/ex6.2", ["mlb-mt", *inp("ex6.2")], check_mlb_mt, o("mlb-mt")),
            self._op("stott/build", ["stott", "--p", "2", "--q", "1", "--json", "--x",
                                     json.dumps(np.stack([x.real, x.imag], axis=-1).tolist())],
                     check_stott_build, o("stott-build")),
            self._op("stott/recover", ["stott", "--p", "2", "--q", "1", "--json", "--matrix",
                                       "@" + str(paths["stott-m"])], check_stott_recover, o("stott-recover")),
            self._op("constrained/ex4.7", ["constrained", *inp("ex4.7"), "--u", "[1, 0]"],
                     check_constrained, o("constrained")),
            self._op("parallel-sum/ex4.8i", ["parallel-sum", *inp("ex4.8i")], check_parallel("ex4.8i"),
                     o("parallel-sum")),
            self._op("ando/ex6.2", ["ando", *inp("ex6.2")], check_ando, o("ando")),
            self._op(f"fixture/ex4.3-{truncation}", ["fixture", "ex4.3", "--truncate-n", str(truncation),
                                                     "--json"], check_fixture, fixture_out),
            self._op(f"positive-glb/fixture-ex4.3-{truncation}",
                     ["positive-glb", "-i", str(fixture_out), "--json"],
                     check_glb_value(np.diag([1.0 / truncation, 0.0])), o("positive-glb-fixture")),
            self._op("ensemble/stott-roundtrip", ["ensemble", "--suite", "stott-roundtrip", "--trials", "20",
                                                  "--seed", str(self.seed), "--json"],
                     check_ensemble, o("ensemble")),
            self._op(f"infimum/seeded-n={SEEDED_DIMS['infimum']}", ["infimum", *inp("seeded-infimum")],
                     check_no_infimum("seeded-infimum"), o("seeded-infimum")),
            self._op(f"positive-glb/seeded-n={SEEDED_DIMS['positive-glb']}",
                     ["positive-glb", *inp("seeded-positive-glb")],
                     check_glb_value(docs["seeded-positive-glb"][0]), o("seeded-positive-glb")),
            self._op(f"parallel-sum/seeded-n={SEEDED_DIMS['parallel-sum']}",
                     ["parallel-sum", *inp("seeded-parallel-sum")], check_parallel("seeded-parallel-sum"),
                     o("seeded-parallel-sum")),
            self._op("infimum/nan-document", ["infimum", *inp("nan")], check_nan, o("nan"),
                     fault="a NaN entry crashes hermitize's norm(., 2): exit 1 with a traceback, not exit 2"),
        ]
        return ops


WORKLOADS = {w.name: w for w in (SuitesRecursion, Desk, Cli)}
