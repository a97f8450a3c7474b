"""One fresh benchmark process: set up one workload, then run timed passes.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
``time.monotonic()`` reading the parent took just before starting this
process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s`` covers
interpreter start, imports, input construction and warm-up.  The last line
of standard output is a JSON object with the raw timings, spans and counters.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, "_work")


def run_cases(order, tracer):
    """Run cases in order; returns the wall time, each case's times and the
    checks' failures.  Outputs are checked after the last case, outside the
    timed region."""
    outputs, case_s = [], {}
    start = time.monotonic()
    for case in order:
        t = time.monotonic()
        try:
            with tracer.span("case", case.id):
                out = case.run(tracer)
        except Exception as exc:  # a raising case is a failed case, not a crashed run
            out = exc
        case_s.setdefault(case.id, []).append(time.monotonic() - t)
        outputs.append((case, out))
    wall = time.monotonic() - start
    return wall, case_s, check_outputs(outputs)


def check_outputs(outputs):
    failures = []
    for case, out in outputs:
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                problems = case.check(out)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"case": case.id, "problems": problems})
    return failures


def run_passes(workload, seconds, tracer):
    order = workload.pass_order()
    passes = []
    deadline = time.monotonic() + seconds
    while len(passes) < workload.min_passes or time.monotonic() < deadline:
        tracer.pass_index = len(passes)
        wall, case_s, failures = run_cases(order, tracer)
        passes.append({"wall": wall, "case_s": case_s, "failures": failures})
    return passes


def run_probes(workload, tracer):
    tracer.pass_index = "probe"
    return run_cases(workload.probes, tracer)[2]


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_record():
    import networkx
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time for passes; 0 or less: set up and exit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args(argv)

    import spans
    import workloads

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        workload = workloads.BUILDERS[args.workload](
            args.seed, args.quick, args.wrong_expected, tmp)
        workload.warmup()
        result = {"setup_s": time.monotonic() - args.t0}
        if args.seconds > 0:
            result.update(small=workload.small, large=workload.large,
                          cases=[c.id for c in workload.cases])
            if args.trace:
                result["untraced"] = run_passes(workload, args.seconds / 2, spans.NullTracer())
                tracer = spans.Tracer()
                result["traced"] = run_passes(workload, args.seconds / 2, tracer)
                result["probe_failures"] = run_probes(workload, tracer)
                result["spans"], result["counters"] = tracer.spans, tracer.counters
                result["probe_info"] = {c.id: c.info for c in workload.probes}
                result["case_info"] = {c.id: c.info for c in workload.cases}
            else:
                result["passes"] = run_passes(workload, args.seconds, spans.NullTracer())
            who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            result["machine"] = machine_record()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
