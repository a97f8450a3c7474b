"""coxdeform benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dim-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Workloads (closed loop, one client, each in fresh processes):
  dim-sweep    L2: certify the deformation dimension of prebuilt orbifolds
  check-sweep  L1: validate polytope documents, circuits, factors, Andreev
               (not listed in BENCHMARK.json: see perfbench/README.md)
  stats        L3: Monte Carlo and exact weak-orderability statistics
  cli          L4: the six README commands, each a fresh interpreter

``--trace 0`` starts the workload in SETUP_PROCESSES fresh processes, one
after another.  Each reports its set-up time and then makes timed passes over
the case list with its share of ``--seconds``.  ``--trace 1`` runs one process that makes untraced
passes for half the time and traced passes (spans around every public call)
for the other half, and reports per-layer self times and the tracing
overhead.  Every case output is checked; the last line of standard output is
the JSON result, and the run exits 1 when any check failed.

``--self-check`` runs every workload at tiny sizes in both modes and
confirms that each metric named in BENCHMARK.json is printed with its unit,
then plants a wrong expected value and confirms the run reports it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, "_work")
WORKLOADS = ("dim-sweep", "check-sweep", "stats", "cli")
SETUP_PROCESSES = 3
RUN_LIMIT_S = 170

# Spans that get a per-pass metric "<span>_s" and a "<span>_s.large" metric
# for the workload's large case.
LAYER_SPANS = (
    "polytope.build", "polytope.circuits", "polytope.truncation",
    "orbifold.make", "orbifold.counts", "orbifold.weak_order", "orbifold.andreev",
    "matchstats.find_factor", "matchstats.orbifold_from_factor",
    "lorentz.seed", "lorentz.newton", "vinberg.point", "vinberg.rank_phi",
    "vinberg.rank_sum", "lorentz.kernel", "vinberg.u_membership",
    "matchstats.mc", "matchstats.exact",
)
# Counters reported per pass and for the large case.
LAYER_COUNTS = ("polytope.circuits_found", "vinberg.phi_cells", "matchstats.exact_assignments")
CLI_COMMANDS = ("check", "realize", "dim", "cartan", "curve", "stats")


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def timings(passes, case):
    """Every timing of one case over the given passes."""
    return [t for p in passes for t in p["case_s"].get(case, ())]


# -- end-to-end metrics (--trace 0) ---------------------------------------------

def end_to_end(setups, full):
    passes = full["passes"]
    return {
        "setup_s": (median(setups), "s"),
        "pass_s": (median(p["wall"] for p in passes), "s"),
        # The minimum: short timings here are bimodal (the machine runs at two
        # speeds), so their median jumps between modes from run to run.
        "case_s.small": (min(timings(passes, full["small"])), "s"),
        "case_s.large": (median(timings(passes, full["large"])), "s"),
        "peak_rss_mb": (full["peak_rss_mb"], "MB"),
    }


# -- per-layer metrics (--trace 1) -----------------------------------------------

def per_layer(res):
    traced = range(len(res["traced"]))
    own = spans.self_times(res["spans"])
    span_s = defaultdict(float)    # (pass, name, case) -> self time
    for s in res["spans"]:
        span_s[(s["pass"], s["name"], s["case"])] += own[s["id"]]
    counts = defaultdict(float)    # (pass, name, case) -> total
    for c in res["counters"]:
        counts[(c["pass"], c["name"], c["case"])] += c["value"]

    def per_pass(table, name, case=None):
        return median(sum(v for (p, n, c), v in table.items()
                          if p == i and n == name and case in (None, c)) for i in traced)

    large = res["large"]
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = (per_pass(span_s, name), "s")
        out[f"{name}_s.large"] = (per_pass(span_s, name, large), "s")
    for name in LAYER_COUNTS:
        out[name] = (per_pass(counts, name), "count")
        out[f"{name}.large"] = (per_pass(counts, name, large), "count")

    # Monte Carlo: acceptance, and fixed cost / per-sample slope from the
    # quarter-sample probes.
    samples = sum(v for (p, n, c), v in counts.items() if n == "matchstats.mc_samples" and p != "probe")
    attempts = sum(v for (p, n, c), v in counts.items() if n == "matchstats.mc_attempts" and p != "probe")
    out["matchstats.mc_acceptance"] = (samples / attempts if attempts else 0.0, "ratio")
    fixed = slope_time = slope_samples = 0.0
    for cid, info in res["case_info"].items():
        if info.get("mode") != "montecarlo":
            continue
        n, nq = info["samples"], res["probe_info"][cid + "@quarter"]["samples"]
        t_n = median(own[s["id"]] for s in res["spans"] if s["name"] == "matchstats.mc"
                     and s["case"] == cid and s["pass"] != "probe")
        t_q = span_s[("probe", "matchstats.mc", cid + "@quarter")]
        fixed += t_n - (t_n - t_q) / (n - nq) * n
        slope_time += t_n - t_q
        slope_samples += n - nq
    out["matchstats.mc_fixed_s"] = (fixed, "s")
    out["matchstats.mc_per_sample_ms"] = (1e3 * slope_time / slope_samples if slope_samples else 0.0, "ms")

    # Untraced engine throughput, the same quantities the stats workload's
    # end-to-end run spends its time on.
    untraced = res["untraced"]
    mc_ids = [c for c, i in res["case_info"].items() if i.get("mode") == "montecarlo"]
    exact_ids = [c for c, i in res["case_info"].items() if i.get("mode") == "exact"]
    out["mc_samples_per_s"] = (median(
        sum(res["case_info"][c]["samples"] * len(timings([p], c)) for c in mc_ids)
        / sum(sum(timings([p], c)) for c in mc_ids) for p in untraced) if mc_ids else 0.0, "1/s")
    out["exact_s"] = (median(sum(sum(timings([p], c)) for c in exact_ids) for p in untraced)
                      if exact_ids else 0.0, "s")

    probe = defaultdict(list)
    for s in res["spans"]:
        if s["pass"] == "probe":
            probe[s["name"]].append(s["end"] - s["start"])
    interpreter = median(probe["cli.interpreter"])
    out["cli.interpreter_s"] = (interpreter, "s")
    out["cli.import_s"] = (median(probe["cli.import"]) - interpreter if probe["cli.import"] else 0.0, "s")
    for command in CLI_COMMANDS:
        out[f"cli.cmd_s.{command}"] = (per_pass(span_s, f"cli.{command}"), "s")

    attempted, failed = count_cases(untraced + res["traced"])
    out["failed_frac"] = (failed / attempted, "ratio")
    out["trace.overhead_s"] = (median(p["wall"] for p in res["traced"])
                               - median(p["wall"] for p in untraced), "s")
    return out


# -- processes -------------------------------------------------------------------

def count_cases(passes):
    """(cases attempted, cases whose run or output check failed)."""
    return (sum(len(ts) for p in passes for ts in p["case_s"].values()),
            sum(len(p["failures"]) for p in passes))


class RunError(RuntimeError):
    pass


def worker_env(root):
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, root, deadline, seconds):
    """One fresh worker process; ``seconds`` <= 0 means set up and exit."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.quick:
        argv.append("--quick")
    if args.wrong_expected:
        argv.append("--wrong-expected")
    env = worker_env(root)
    t0 = time.monotonic()
    # A session of its own, so a timeout also ends the worker's children.
    with subprocess.Popen(argv + ["--t0", repr(t0)], cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - t0, 1.0))
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError(f"worker for {args.workload} exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker for {args.workload} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_untraced(args, root, deadline):
    """SETUP_PROCESSES fresh processes.  Process k makes passes until the
    run's passes have used k/SETUP_PROCESSES of ``--seconds``, so the passes
    spread over processes and over the run; a process that finds its share
    used up only sets up."""
    setups, passes, workers = [], [], []
    used = 0.0
    for k in range(1, SETUP_PROCESSES + 1):
        res = run_worker(args, root, deadline, args.seconds * k / SETUP_PROCESSES - used)
        setups.append(res["setup_s"])
        if "passes" in res:
            workers.append(res)
            passes += res["passes"]
            used += sum(p["wall"] for p in res["passes"])
    res = dict(workers[0], passes=passes,
               peak_rss_mb=max(w["peak_rss_mb"] for w in workers))
    return setups, res


def run_benchmark(args, root):
    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    if args.trace:
        res = run_worker(args, root, deadline, args.seconds)
        metrics = per_layer(res)
        passes = res["untraced"] + res["traced"]
        failures = [f for p in passes for f in p["failures"]] + res["probe_failures"]
        detail = {"untraced_passes": len(res["untraced"]), "traced_passes": len(res["traced"])}
        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": res["spans"], "counters": res["counters"]}, fh)
        detail["spans_file"] = os.path.relpath(path, root)
    else:
        setups, res = run_untraced(args, root, deadline)
        metrics = end_to_end(setups, res)
        passes = res["passes"]
        failures = [f for p in passes for f in p["failures"]]
        detail = {"passes": len(passes), "setup_s": setups,
                  "pass_s": summary(p["wall"] for p in passes),
                  "case_s": {c: summary(timings(passes, c)) for c in res["cases"]}}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  small=res["small"], large=res["large"], machine=res["machine"],
                  failures=failures)
    attempted, _ = count_cases(passes)
    attempted += len(res.get("probe_info", ()))
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return detail, result


def summary(values):
    values = sorted(values)
    return {"n": len(values), "median": median(values), "min": values[0], "max": values[-1]}


# -- self-check ------------------------------------------------------------------

def self_check(root):
    """Tiny runs of every workload in both modes; returns a list of problems."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    listed = [w["name"] for w in spec["workloads"]]
    problems = [f"BENCHMARK.json names unknown workload {w}" for w in listed if w not in WORKLOADS]
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            rc, result = run_self(root, workload, trace)
            print(f"[{label}] exit {rc}: " + json.dumps(result), flush=True)
            if rc != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {rc}, result {result}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metric names/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}, "
                                f"unit mismatch {sorted(n for n in got if n in expected[trace] and got[n] != expected[trace][n])}")
            for name, m in result["metrics"].items():
                if not math.isfinite(m["value"]) or (trace == 0 and m["value"] <= 0):
                    problems.append(f"{label}: {name} = {m['value']}")
        rc, result = run_self(root, workload, 0, "--wrong-expected")
        print(f"[{workload} --wrong-expected] exit {rc}: " + json.dumps(result), flush=True)
        if rc == 0 or not result or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: a wrong expected value was not reported")
    return problems


def run_self(root, workload, trace, *extra):
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick", *extra]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S + 10, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny case lists")
    ap.add_argument("--wrong-expected", action="store_true",
                    help="plant one wrong expected value (the run must then fail)")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coxdeform", "__init__.py")):
        print("error: run from the root of a coxdeform checkout (src/coxdeform not found)",
              file=sys.stderr)
        return 2
    try:
        if args.self_check:
            problems = self_check(root)
            for p in problems:
                print("FAIL", p, file=sys.stderr)
            print("self-check:", "FAILED" if problems else "all metrics present, checks fire")
            return 1 if problems else 0
        if not args.workload:
            ap.error("--workload is required")
        detail, result = run_benchmark(args, root)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
