"""Command-line front end.

Commands: ``check`` (validity, counts, weak orderability, Andreev report),
``realize`` (hyperbolic realization), ``dim`` (full pipeline to the local
deformation dimension), ``cartan`` (matrix conditions, components, normal
form), ``curve esselmann`` (determinant zero-set sampling), and ``stats``
(weak-orderability statistics).  Each command takes only the shared options
it reads (--tol, --rank-tol, --seed, --force), plus --out, and its report's
"config" echoes their values (``coxdeform <command> -h``).  Exit status: 0
success, 1 validation failure, 2 numerical failure (divergence or an
uncertain rank decision without --force) or a command-line usage error.

Each command imports the modules it uses, so ``check`` on a 3-dimensional
orbifold runs without numpy.

A command's time goes mostly to starting the interpreter and importing
numpy; its own work takes a few milliseconds, and interpreter shutdown would
take about as long again in cyclic collections over the heap.  So the process
entry point, ``run()``, freezes the heap (``gc.freeze``) once ``main()``
returns, and shutdown skips it.  ``main()`` called in-process does not freeze.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys

from coxdeform import bundled, errors, orbifold, polytope, serialize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class NumericalFailure(RuntimeError):
    pass


VALIDATION_ERRORS = (errors.SchemaError, errors.CombinatoricsError,
                     errors.OrbifoldError, errors.CartanError,
                     errors.GraphConditionError, errors.VinbergError,
                     FileNotFoundError, json.JSONDecodeError)
NUMERICAL_ERRORS = (NumericalFailure, errors.ConvergenceError, errors.RealizationError)


def _checked(convert, value, accept, expected):
    """``convert(value)``, refused as a usage error unless ``accept`` holds."""
    try:
        x = convert(value)
        if accept(x):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")


def _tolerance(value):
    from coxdeform.lorentz import VALID_RESIDUAL  # imports numpy: only realize and dim take --tol

    return _checked(float, value, lambda x: 0.0 < x <= VALID_RESIDUAL,
                    f"a number in (0, {VALID_RESIDUAL:g}]")


def _rank_tolerance(value):
    return _checked(float, value, lambda x: 0.0 < x < math.inf, "a finite number above 0")


def _non_negative(value):
    return _checked(int, value, lambda x: x >= 0, "an integer of at least 0")


# Each command takes exactly its shared options listed here, plus --out, and
# its report's "config" echoes their values.
SHARED_OPTIONS = {
    "tol": {"type": _tolerance, "default": 1e-10,
            "help": "residual tolerance for solvers, in (0, 1e-8] (default 1e-10)"},
    "rank_tol": {"type": _rank_tolerance, "default": 1e-12,
                 "help": "relative singular-value threshold, finite and above 0 "
                         "(default 1e-12)"},
    "seed": {"type": _non_negative, "default": 0, "help": "random seed, at least 0 (default 0)"},
    "force": {"action": "store_true", "help": "downgrade uncertain rank decisions to warnings"},
}
COMMAND_OPTIONS = {"check": (), "realize": ("tol", "seed"),
                   "dim": ("tol", "rank_tol", "seed", "force"),
                   "cartan": ("rank_tol",), "curve": (), "stats": ("seed",)}


def build_parser():
    ap = argparse.ArgumentParser(prog="coxdeform", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        for key in COMMAND_OPTIONS[name]:
            p.add_argument("--" + key.replace("_", "-"), **SHARED_OPTIONS[key])
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    p = command("check", "validate an orbifold and report its invariants")
    p.add_argument("orbifold", help="path to an orbifold JSON or a builtin name")

    p = command("realize", "compute a hyperbolic realization")
    p.add_argument("orbifold")
    p.add_argument("--seed-name", choices=("random",), default=None,
                   help="random: start Newton from a --seed draw instead of "
                        "the seed inferred from the polytope")

    p = command("dim", "realize and measure the local deformation dimension")
    p.add_argument("orbifold")
    p.add_argument("--seed-name", choices=("random",), default=None)

    p = command("cartan", "analyze a Cartan matrix")
    p.add_argument("matrix", help="path to a matrix JSON")
    p.add_argument("--n", type=_non_negative, default=None,
                   help="ambient dimension for classification (default: rank - 1)")

    p = command("curve", "sample a parametrized family's determinant zero set")
    p.add_argument("family", choices=("esselmann",))
    p.add_argument("--box", type=float, nargs=4, default=(0.5, 2.0, 0.5, 2.0),
                   metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--res", type=int, default=101)

    p = command("stats", "weak-orderability statistics over order assignments")
    p.add_argument("polytope", help="path to a polytope JSON or a builtin name")
    p.add_argument("--d", type=int, required=True, help="order bound")
    p.add_argument("--mode", choices=("exact", "montecarlo"), default="montecarlo")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


def load_orbifold_arg(value):
    if value in bundled.BUILTIN_NAMES:
        return bundled.load_builtin(value), value
    with open(value, encoding="utf-8") as fh:
        doc = json.load(fh)
    return serialize.load_orbifold(doc), os.path.basename(value)


def load_polytope_arg(value):
    m = re.fullmatch(r"prism(\d+)", value)
    if m:
        return polytope.prism(int(m.group(1))), value
    m = re.fullmatch(r"loebell(\d+)", value)
    if m:
        return polytope.loebell(int(m.group(1))), value
    if value in polytope.BUILTIN_POLYTOPES:
        return polytope.BUILTIN_POLYTOPES[value](), value
    if value in bundled.BUILTIN_NAMES:
        return bundled.load_builtin(value).base, value
    with open(value, encoding="utf-8") as fh:
        doc = json.load(fh)
    return serialize.load_polytope(doc), os.path.basename(value)


def config_echo(args):
    return {key: getattr(args, key) for key in COMMAND_OPTIONS[args.command]}


def cmd_check(args):
    Q, name = load_orbifold_arg(args.orbifold)
    counts = orbifold.counts(Q)
    wo = orbifold.weak_order_combinatorial(Q)
    report = {
        "command": "check",
        "input": name,
        "config": config_echo(args),
        "valid": True,
        "counts": counts,
        "delta": counts.delta,
        "weakly_orderable": bool(wo),
    }
    if wo:
        report["ordering"] = list(wo.order)
        report["qualifying_sets"] = wo.qualifying
    else:
        report["certificate"] = sorted(wo.certificate)
    witness = polytope.is_truncation_polytope(Q.base)
    report["truncation_polytope"] = {"is_truncation": witness.is_truncation,
                                     "history": witness.history,
                                     "method": witness.method}
    if Q.n == 3:
        report["andreev"] = orbifold.andreev_necessary_check(Q)
    return report, EXIT_OK


def _realize(Q, args):
    from coxdeform import lorentz

    if not Q.base.nonadjacent_pairs:  # the prescribed Gram matrix is complete
        return lorentz.realize_gram(Q), "direct" if Q.f == Q.n + 1 else "direct-gram"
    if args.seed_name == "random":
        import numpy as np

        initial = np.random.default_rng(args.seed).normal(size=(Q.f, Q.n + 1))
    else:
        initial = lorentz.initial_guess(Q)
    R = lorentz.solve_hyperbolic_newton(Q, initial, tol=args.tol)
    return R, "newton"


def cmd_realize(args):
    Q, name = load_orbifold_arg(args.orbifold)
    R, method = _realize(Q, args)
    report = {"command": "realize", "input": name, "config": config_echo(args),
              "method": method, "realization": serialize.dump_realization(R)}
    return report, EXIT_OK


def cmd_dim(args):
    from coxdeform import vinberg
    from coxdeform.numerics import RankPolicy

    Q, name = load_orbifold_arg(args.orbifold)
    policy = RankPolicy(rel_tol=args.rank_tol)
    R, method = _realize(Q, args)
    p = vinberg.hyperbolic_point(R)
    rank_sum = vinberg.check_rank_sum(Q, p, policy)
    dim_report = rank_sum.rank_phi
    membership = vinberg.check_U_membership(Q, p)
    report = {
        "command": "dim",
        "input": name,
        "config": config_echo(args),
        "method": method,
        "residual_norm": R.residual_norm,
        "counts": orbifold.counts(Q),
        "rank_phi": dim_report,
        "rank_psi": {"rank": rank_sum.rank_psi.rank,
                     "kernel_dim": rank_sum.rank_psi.kernel_dim,
                     "uncertain": rank_sum.rank_psi.uncertain,
                     "method": rank_sum.rank_psi.method},
        "rank_sum": {"identity_holds": rank_sum.identity_holds,
                     "e2": rank_sum.e2,
                     "weakly_orderable": rank_sum.weakly_orderable,
                     "staircase_rank": rank_sum.staircase_rank},
        "dimension": dim_report.deformation_dim,
        "formula_dimension": dim_report.formula_dim,
        "domain_membership": membership.passed,
    }
    uncertain = dim_report.uncertain or rank_sum.rank_psi.uncertain
    if uncertain and not args.force:
        raise NumericalFailure("rank decision uncertain (re-run with --force to accept)")
    report["rank_uncertain"] = uncertain
    return report, EXIT_OK


def cmd_cartan(args):
    from coxdeform import cartan
    from coxdeform.numerics import RankPolicy, numerical_rank

    with open(args.matrix, encoding="utf-8") as fh:
        doc = json.load(fh)
    A = serialize.load_cartan(doc)
    policy = RankPolicy(rel_tol=args.rank_tol)
    rank = numerical_rank(A.entries, policy)
    n = args.n if args.n is not None else rank.rank - 1
    conditions = cartan.check_vinberg_conditions(A)
    components = cartan.decompose_components(A)
    report = {
        "command": "cartan",
        "input": os.path.basename(args.matrix),
        "config": config_echo(args),
        "size": A.f,
        "rank": rank.rank,
        "n": n,
        "conditions_passed": conditions.passed,
        "conditions": conditions,
        "components": components,
        "classification": cartan.classify_group(components, rank.rank, n),
    }
    if len(components) == 1:
        nf = cartan.diagonal_normalize(A)
        report["normal_form"] = {"matrix": nf.matrix.entries,
                                 "cycle_coordinates": nf.cycle_coordinates,
                                 "tree": [list(t) for t in nf.tree]}
    return report, EXIT_OK


def cmd_curve(args):
    from coxdeform import vinberg

    family = vinberg.esselmann_family()
    samples = vinberg.family_curve(family, box=tuple(args.box), res=args.res)
    xs = [f"{x:.12g}" for x in samples.xs.tolist()]
    ys = [f"{y:.12g}" for y in samples.ys.tolist()]
    lines = ["x,y,det"]
    for y, row in zip(ys, samples.values.tolist()):
        lines.extend([f"{x},{y},{v:.12g}" for x, v in zip(xs, row)])
    csv_text = "\n".join(lines) + "\n"
    contour = serialize.dumps({
        "command": "curve",
        "family": args.family,
        "config": config_echo(args),
        "box": list(args.box),
        "res": args.res,
        "segments": [[list(a), list(b)] for a, b in samples.segments],
    })
    if args.out:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        with open(base + ".csv", "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(contour)
        return None, EXIT_OK
    sys.stdout.write(csv_text)
    return None, EXIT_OK


def cmd_stats(args):
    from coxdeform import matchstats

    P, name = load_polytope_arg(args.polytope)
    report = matchstats.estimate_wo_fraction(
        P, args.d, mode=args.mode, samples=args.samples, seed=args.seed, name=name)
    if args.format == "csv":
        # an empty field where there is no fraction (no valid assignment)
        cells = ["" if x is None else f"{x:.12g}"
                 for x in (report.fraction, report.ci_low, report.ci_high)]
        text = "d,fraction,ci_low,ci_high\n" + ",".join([str(report.d), *cells]) + "\n"
        _write_text(args, text)
        return None, EXIT_OK
    out = {"command": "stats", "input": name, "config": config_echo(args),
           "report": report}
    return out, EXIT_OK


def _write_text(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


COMMANDS = {"check": cmd_check, "realize": cmd_realize, "dim": cmd_dim,
            "cartan": cmd_cartan, "curve": cmd_curve, "stats": cmd_stats}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, status = COMMANDS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if report is not None:
        _write_text(args, serialize.dumps(report))
    return status


def run():
    """Entry point of a ``coxdeform`` process: ``main()``, then freeze the heap.

    Finalization's cyclic collections skip a frozen heap; stdio is still
    flushed, and atexit handlers and refcount deallocation still run.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
