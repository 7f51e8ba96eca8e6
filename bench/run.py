"""Closed-loop benchmark of the ``loewner`` toolkit.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suites-recursion, desk-dense, cli-pipeline
(see bench/README.md).  One client runs a workload's fixed operation list
pass after pass, each operation starting when the previous one ends: one
short warm-up, then measured passes, as many whole passes as come nearest
to S seconds (always at least one).  Every output is checked against an
independent numpy computation.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Progress and failures go to standard error.

BLAS and OpenMP are pinned to one thread below, before numpy loads, for
this process and every child it starts.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("suites-recursion", "desk-dense", "cli-pipeline")
# Fresh interpreters timed per run for setup_s; one more runs first, untimed,
# to compile bytecode and load the file cache.
SETUP_PROBES = 3
IMPORT_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import the program and
    build this workload's inputs, then exit."""
    from workloads import wait_child

    times = []
    for i in range(SETUP_PROBES + 1):
        probe_dir = OUT / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--setup-probe", str(probe_dir)]
        started = time.perf_counter()
        code, _ = wait_child(subprocess.Popen(cmd, stdout=subprocess.DEVNULL), 120.0)
        times.append(time.perf_counter() - started)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times[1:])


def measure_import_ms() -> float:
    """Median time of ``import loewner.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), "--import-only"], check=True,
                              timeout=120, capture_output=True, text=True, env=env)
        values.append(float(done.stdout.strip()))
    return statistics.median(values)


class Runner:
    """Runs passes over one operation list and keeps every latency."""

    def __init__(self, ops, tracer=None) -> None:
        self.ops = ops
        self.tracer = tracer
        self.unexpected: dict[str, str] = {}
        self.faults: dict[str, str] = {}

    def run_pass(self, ops=None) -> tuple[list[list[float]], int]:
        """Latencies of each operation's repetitions and the number that failed."""
        latencies, failed = [], 0
        for op in ops if ops is not None else self.ops:
            samples = []
            for _ in range(op.repeat):
                latency, error = self._attempt(op)
                samples.append(latency)
                if error is not None:
                    failed += 1
                    (self.faults if op.fault else self.unexpected).setdefault(op.name, error)
            latencies.append(samples)
        return latencies, failed

    def _attempt(self, op) -> tuple[float, str | None]:
        """Run and time one operation, then check its output untimed."""
        from checks import CheckFailed

        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        started = time.perf_counter()
        try:
            result = tracer.call("bench.op", op.run) if tracer is not None else op.run()
        except Exception as exc:  # the program under test failed this operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            latency = time.perf_counter() - started
            if tracer is not None:
                tracer.enabled = False
        if error is None:
            try:
                op.check(result)
            except CheckFailed as exc:
                error = f"wrong answer: {exc}"
            except (KeyError, TypeError, ValueError) as exc:
                error = f"malformed output: {type(exc).__name__}: {exc}"
        return latency, error

    def passes(self, seconds: float) -> list[tuple[list[float], int]]:
        """The number of whole passes that comes nearest to ``seconds``: a
        further pass starts while it would end less than half a pass late."""
        out = []
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            out.append(self.run_pass())
            now = time.perf_counter()
            if (now - started) + (now - pass_started) / 2.0 >= seconds:
                return out


def solve_s(passes) -> float:
    """Median over passes of the time spent inside operations."""
    return statistics.median(sum(map(sum, lat)) for lat, _ in passes)


def op_p50_ms(passes) -> float:
    """Median over operations of each one's median latency over all passes."""
    per_op = zip(*(lat for lat, _ in passes))
    return 1000.0 * statistics.median(
        statistics.median(s for samples in op_samples for s in samples) for op_samples in per_op
    )


def end_to_end(workload, runner: Runner, seconds: float, setup: float) -> tuple[dict, list]:
    runner.run_pass(workload.warmup(runner.ops))
    passes = runner.passes(seconds)
    metrics = {
        "setup_s": (setup, "s"),
        "solve_s": (solve_s(passes), "s"),
        "op_p50_ms": (op_p50_ms(passes), "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    return metrics, passes


def per_layer(workload, ops, seconds: float, name: str) -> tuple[dict, list, Runner]:
    """Untraced passes for half the time, traced passes for the other half."""
    import tracer as T
    from workloads import Cli

    runner = Runner(ops)
    runner.run_pass(workload.warmup(ops))
    plain = runner.passes(seconds / 2.0)
    tracer = T.Tracer()
    in_process = not isinstance(workload, Cli)
    if in_process:
        tracer.install()
        runner.tracer = tracer
    else:
        workload.trace_dir = OUT / f"trace-{name}"
        shutil.rmtree(workload.trace_dir, ignore_errors=True)
        workload.trace_dir.mkdir(parents=True)
    try:
        traced = runner.passes(seconds / 2.0)
    finally:
        tracer.uninstall()
        runner.tracer = None
    if in_process:
        totals = tracer.metrics()
        tracer.save(OUT / f"trace-{name}.npz")
        import_ms = measure_import_ms()
    else:
        totals, imports = {}, []
        for path in sorted(workload.trace_dir.glob("child-*.json")):
            child = json.loads(path.read_text())
            totals = T.merge(totals, child["metrics"])
            imports.append(child["import_ms"])
        import_ms = statistics.median(imports)
    values = {
        key: (value if key in T.PEAK_METRICS else value / len(traced)) for key, value in totals.items()
    }
    values["cli.import_ms"] = import_ms
    values["trace.overhead_pct"] = 100.0 * (solve_s(traced) / solve_s(plain) - 1.0)
    metrics = {key: (values.get(key, 0.0), unit) for key, unit in T.PER_LAYER}
    return metrics, plain + traced, runner


def report(name: str, metrics: dict, passes, runner: Runner, ops) -> dict:
    for op, error in sorted(runner.unexpected.items()):
        print(f"FAILED {op}: {error}", file=sys.stderr)
    for op, error in sorted(runner.faults.items()):
        print(f"known fault {op}: {error}", file=sys.stderr)
    per_pass = sum(op.repeat for op in ops)
    print(f"{name}: {len(passes)} passes of {per_pass} operations", file=sys.stderr)
    return {
        "correct": not runner.unexpected,
        "attempted": per_pass * len(passes),
        "failed": sum(failed for _, failed in passes),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loewner" / "__init__.py").is_file():
        print(f"error: no loewner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.setup_probe is not None:
        WORKLOADS[args.workload](args.seed).prepare(Path(args.setup_probe))
        return 0

    OUT.mkdir(exist_ok=True)
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        ops = workload.prepare(OUT / f"{args.workload}-{os.getpid()}")
        if args.trace:
            metrics, passes, runner = per_layer(workload, ops, args.seconds, args.workload)
        else:
            runner = Runner(ops)
            metrics, passes = end_to_end(workload, runner, args.seconds, setup)
    finally:
        workload.close()
    print(json.dumps(report(args.workload, metrics, passes, runner, ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
