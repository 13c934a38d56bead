"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC is a JSON object with `invocations` (CLI argument lists, run in order),
`trace` (wrap the layers and record spans), `context` (also report the run
context) and `result` (where to write this pass's JSON result).  The worker
imports `photonam.cli`, which is the set-up every CLI invocation pays, and
records when that finished on the system-wide monotonic clock, so the
parent can time set-up from the moment it spawned the process.  It then
calls `photonam.cli.main` once per invocation and writes the pass wall time
(first call to last report written), the exit codes and the peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    env = {k: v for k, v in os.environ.items()
           if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"openblas_threads": found, "env": env}


def _context() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_threads(),
    }


def _invoke(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed invocation, reported by the parent
        traceback.print_exc()
        return -1


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import photonam.cli as cli

    result: dict = {"ready": time.monotonic()}
    if spec["context"]:
        result["context"] = _context()
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    def run_pass() -> list[int]:
        return [_invoke(cli.main, argv) for argv in spec["invocations"]]

    if tracer is not None:
        run_pass = tracer.wrap("bench.pass", run_pass)
    start = time.perf_counter()
    result["exit_codes"] = run_pass()
    result["pass_wall_s"] = time.perf_counter() - start
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        import photonam.fock as fock
        import photonam.suites as suites

        info = fock._lowering.cache_info()
        tracer.dump(spec["trace_out"], {
            "suites": {f"suites.{getattr(fn, '__wrapped__', fn).__name__}": name for name, fn in suites.SUITES.items()},
            "lowering_cache": {"hits": info.hits, "misses": info.misses},
        })
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
