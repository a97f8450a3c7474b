"""The statements of ``src/coxdeform`` that the program's traffic never runs.

Traffic is what the package is run for:

- ``check``, ``realize`` and ``dim`` on every bundled name;
- ``cartan`` on a one-component and a two-component matrix, ``curve
  esselmann``, and an exact, a Monte Carlo and a CSV ``stats`` run;
- one pass over the case lists of perfbench's dim-sweep, stats and
  check-sweep workloads, whose builders are imported from ``perfbench/``
  and called as the benchmark calls them.

The commands run in this process through ``cli.main``, with their output
discarded.  Lines are recorded under ``sys.settrace``, so no coverage
package is needed.  A statement counts as run when any line it spans ran;
docstrings and ``global``/``nonlocal`` declarations, which compile to no
instruction, are not statements here.  The report lists each statement
never run, by file and then by innermost function, with its first line.

Run from the repository root:

    python tests/traffic_coverage.py           # all traffic, about a minute
    python tests/traffic_coverage.py --quick   # check and dim on two names

pytest does not collect this file; ``test_traffic_coverage.py`` runs the
``--quick`` subset.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxdeform"
QUICK_COMMANDS = (["check", "tetrahedron353"], ["dim", "loebell5_factor"])


def _statements(path):
    """(function, first line, last line) of every statement of a source
    file, ``function`` the qualified name of the innermost function or
    class around it ("<module>" at the top level)."""
    out = []

    def visit(node, scope):
        body = getattr(node, "body", None)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                docstring = (isinstance(body, list) and child is body[0]
                             and isinstance(child, ast.Expr)
                             and isinstance(child.value, ast.Constant)
                             and isinstance(child.value.value, str))
                if not (docstring or isinstance(child, (ast.Global, ast.Nonlocal))):
                    first = min([child.lineno] + [d.lineno for d in
                                                  getattr(child, "decorator_list", ())])
                    out.append((scope, first, child.end_lineno))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return out


def _run_cli(argv):
    from coxdeform import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _cli_traffic(tmp):
    """The commands of the traffic, as argument lists; writes their inputs
    to ``tmp``."""
    import numpy as np

    from coxdeform import bundled, vinberg

    essel = vinberg.esselmann_base_matrix()
    path = 2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    blocks = np.zeros((len(essel) + 4, len(essel) + 4))
    blocks[:len(essel), :len(essel)], blocks[len(essel):, len(essel):] = essel, path
    matrices = []
    for name, M in (("esselmann", essel), ("two_blocks", blocks)):
        matrices.append(os.path.join(tmp, f"{name}.json"))
        with open(matrices[-1], "w", encoding="utf-8") as fh:
            json.dump({"matrix": M.tolist()}, fh)
    commands = [[command, name] for name in bundled.BUILTIN_NAMES
                for command in ("check", "realize", "dim")]
    commands += [["cartan", M] for M in matrices]
    commands += [["curve", "esselmann", "--res", "21", "--out", os.path.join(tmp, "ess")],
                 ["stats", "cube", "--d", "5", "--mode", "exact"],
                 ["stats", "dodecahedron", "--d", "7", "--samples", "200", "--seed", "1"],
                 ["stats", "prism8", "--d", "20", "--samples", "100", "--format", "csv"]]
    return commands


def _bench_traffic(tmp):
    """One pass of perfbench's dim-sweep, stats and check-sweep case lists:
    (workload, case id, problems its output check found)."""
    sys.dont_write_bytecode = True  # import perfbench without writing to it
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name, build in (("dim-sweep", workloads.build_dim_sweep),
                        ("stats", workloads.build_stats),
                        ("check-sweep", workloads.build_check_sweep)):
        for case in build(1, False, False, tmp).cases:
            yield name, case.id, case.check(case.run(workloads._NO_TRACE))


def trace_traffic(quick):
    """The (file, line) pairs of ``src/coxdeform`` that the traffic runs,
    and a log of what it ran."""
    prefix = str(PACKAGE) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    log = []
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(call)
        try:
            commands = QUICK_COMMANDS if quick else _cli_traffic(tmp)
            for argv in commands:
                log.append(f"exit {_run_cli(argv)}: coxdeform {' '.join(argv)}")
            if not quick:
                for name, cid, problems in _bench_traffic(tmp):
                    log.append(f"{'ok' if not problems else problems}: {name} {cid}")
        finally:
            sys.settrace(None)
    return hits, log


def not_run(hits):
    """{file: {function: [(line, source line)]}} of the statements whose
    lines were never hit."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = {line for name, line in hits if name == str(path)}
        missed = defaultdict(list)
        for scope, first, last in _statements(path):
            if ran.isdisjoint(range(first, last + 1)):
                missed[scope].append((first, lines[first - 1].strip()))
        if missed:
            report[path.relative_to(ROOT).as_posix()] = dict(missed)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="trace only " + " and ".join(" ".join(c) for c in QUICK_COMMANDS))
    args = parser.parse_args(argv)
    hits, log = trace_traffic(args.quick)
    print("traffic:")
    for entry in log:
        print("  " + entry)
    for path, functions in not_run(hits).items():
        count = sum(map(len, functions.values()))
        print(f"\n{path}: {count} statements not run")
        for scope, statements in functions.items():
            print(f"  {scope}")
            for line, text in statements:
                print(f"    {line:5d}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
