"""Run one ``loewner`` CLI command under the span tracer.

Usage: python bench/traced_cli.py --trace-out PREFIX -- <cli arguments>
       python bench/traced_cli.py --import-only

The command behaves as ``python -m loewner.cli <cli arguments>`` does (same
output, same exit code, same traceback on an uncaught error).  Afterwards
PREFIX.json holds the per-layer totals and the time ``import loewner.cli``
took in this fresh interpreter, and PREFIX.npz the spans.  With
``--import-only`` the script prints that import time in milliseconds and
exits.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    started = time.perf_counter()
    import loewner.cli

    import_ms = (time.perf_counter() - started) * 1000.0
    if sys.argv[1:] == ["--import-only"]:
        print(f"{import_ms:.6f}")
        return 0
    if len(sys.argv) < 4 or sys.argv[1] != "--trace-out" or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    from tracer import Tracer

    prefix = Path(sys.argv[2])
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return loewner.cli.main(sys.argv[4:])
    finally:
        tracer.enabled = False
        tracer.uninstall()
        tracer.save(prefix.with_suffix(".npz"))
        totals = {"metrics": tracer.metrics(), "import_ms": import_ms}
        prefix.with_suffix(".json").write_text(json.dumps(totals))


if __name__ == "__main__":
    sys.exit(main())
