"""The four benchmark workloads: case lists, inputs, warm-up and output checks.

Every case calls public functions of ``coxdeform`` in the order its command
line front end does, wrapping each call in a span named after the module and
function.  Expected values come from closed forms or fixed reference numbers,
never from the code under test.

Each builder returns a :class:`Workload`.  Inputs depend only on the
workload seed (and on ``quick``, which shrinks the case list for the
benchmark's self-check).  ``wrong`` plants one deliberately wrong expected
value so that the self-check can show a failed output check is reported.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

from coxdeform import lorentz, matchstats, orbifold, polytope, serialize, vinberg
from coxdeform.numerics import RankPolicy
from spans import NullTracer

POLICY = RankPolicy()  # the CLI default (--rank-tol 1e-12)
CLI_TIMEOUT_S = 60


@dataclass
class Case:
    id: str
    run: Callable      # run(tracer) -> output
    check: Callable    # check(output) -> list of problems, empty when correct
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    cases: list
    small: str
    large: str
    warmup: Callable = lambda: None
    min_passes: int = 1
    probes: list = field(default_factory=list)  # traced once, after the passes
    rss_of_children: bool = False
    # The small case is short, so one timing per pass is mostly machine noise;
    # it runs this many times per pass, spread evenly through the case list.
    small_repeats: int = 1

    def pass_order(self):
        small = next(c for c in self.cases if c.id == self.small)
        others = [c for c in self.cases if c is not small]
        before = {len(others) * j // self.small_repeats for j in range(self.small_repeats)}
        order = []
        for k, case in enumerate(others):
            if k in before:
                order.append(small)
            order.append(case)
        return order


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# -- dim-sweep: L2 (Newton, Jacobian ranks, rank sum, U-membership) --------------

def _loebell_factor_orbifold(m):
    """Order 3 on the factor through the smallest ridge, order 2 elsewhere."""
    P = polytope.loebell(m)
    factor = set(matchstats.find_factor(P, min(P.ridges)))
    return orbifold.make_orbifold(P, {r: (3 if r in factor else 2) for r in P.ridges})


def _prism_cap_orbifold(m):
    """Order 3 on the ridges of the two caps (facets 1 and 2), 2 on the sides."""
    P = polytope.prism(m)
    return orbifold.make_orbifold(P, {r: (3 if r[0] in (1, 2) else 2) for r in P.ridges})


def _dim_case(cid, Q, m, e2, wrong=False):
    # Both families have delta_P = e - 3f + 6 = 0 and e_+ = 2m, so the
    # deformation dimension e_+ - n - 2 delta_P is 2m - 3.
    want_dim = 2 * m - 3 + (1 if wrong else 0)

    def run(tr):
        with tr.span("lorentz.seed", cid):
            initial = lorentz.initial_guess(Q)
        with tr.span("lorentz.newton", cid):
            R = lorentz.solve_hyperbolic_newton(Q, initial)
        with tr.span("vinberg.point", cid):
            p = vinberg.hyperbolic_point(R)
        with tr.span("vinberg.rank_phi", cid):
            dim = vinberg.local_deformation_dimension(Q, p, POLICY)
        with tr.span("vinberg.rank_sum", cid):
            rank_sum = vinberg.check_rank_sum(Q, p, POLICY)
        with tr.span("lorentz.kernel", cid):
            ker_psi = lorentz.kernel_dimension(Q, R.normals, POLICY)
        with tr.span("vinberg.u_membership", cid):
            membership = vinberg.check_U_membership(Q, p)
        tr.count("vinberg.phi_cells", int(dim.shape[0] * dim.shape[1]), cid)
        return {"residual": R.residual_norm, "dimension": dim.deformation_dim,
                "formula_dimension": dim.formula_dim,
                "uncertain": bool(dim.uncertain or rank_sum.rank_psi.uncertain),
                "rank_phi": rank_sum.rank_phi.rank, "rank_psi": rank_sum.rank_psi.rank,
                "e2": rank_sum.e2, "identity_holds": rank_sum.identity_holds,
                "kernel_psi": ker_psi, "membership": membership.passed}

    def check(out):
        problems = []
        _expect(problems, "dimension", out["dimension"], want_dim)
        _expect(problems, "formula_dimension", out["formula_dimension"], want_dim)
        _expect(problems, "e2", out["e2"], e2)
        _expect(problems, "rank_phi - rank_psi", out["rank_phi"] - out["rank_psi"], e2)
        _expect(problems, "identity_holds", out["identity_holds"], True)
        _expect(problems, "uncertain", out["uncertain"], False)
        _expect(problems, "kernel_psi (dim so(1,3))", out["kernel_psi"], 6)
        _expect(problems, "U-membership", out["membership"], True)
        if not out["residual"] < 1e-10:
            problems.append(f"Newton residual {out['residual']:.3e} >= 1e-10")
        return problems

    return Case(cid, run, check)


def build_dim_sweep(seed, quick, wrong, tmp):
    loebells = (8,) if quick else (8, 16, 32, 48, 64)
    prisms = (8,) if quick else (8, 32, 64)
    cases = [_dim_case(f"loebell{m}", _loebell_factor_orbifold(m), m, 4 * m)
             for m in loebells]
    cases += [_dim_case(f"prism{m}", _prism_cap_orbifold(m), m, m, wrong and m == 8)
              for m in prisms]
    # Large enough that OpenBLAS starts its thread pool here, not in a timed case.
    warm = _dim_case("warmup", _prism_cap_orbifold(16), 16, 16)

    def warmup():  # first BLAS calls and the lazy scipy.optimize import
        warm.run(_NO_TRACE)

    return Workload(cases, small="prism8", large="loebell8" if quick else "loebell64",
                    warmup=warmup, small_repeats=len(cases) - 1)


# -- check-sweep: L1 (validation, prismatic circuits, factors, Andreev) --------

def _document(P, rng):
    """P as a JSON polytope document with facets renamed and every list in a
    seeded random order.  Vertices are left out, so loading reconstructs them
    from the planar facet adjacency."""
    names = list(range(1, P.f + 1))
    rng.shuffle(names)
    rename = dict(zip(P.facets, names))
    facets = [rename[i] for i in P.facets]
    rng.shuffle(facets)
    ridges = [[rename[i], rename[j]] if rng.random() < 0.5 else [rename[j], rename[i]]
              for i, j in sorted(P.ridges)]
    rng.shuffle(ridges)
    return json.loads(json.dumps({"n": 3, "facets": facets, "ridges": ridges})), rename


def _check_case(cid, family, m, rng, wrong=False):
    base = polytope.loebell(m) if family == "loebell" else polytope.prism(m)
    doc, rename = _document(base, rng)
    position = {name: k for k, name in enumerate(doc["facets"], start=1)}
    caps = {position[rename[1]], position[rename[2]]}
    prism_orders = {}
    for a, b in doc["ridges"]:
        i, j = sorted((position[a], position[b]))
        prism_orders[(i, j)] = 3 if (i in caps or j in caps) else 2
    # L(m), m >= 6, has no prismatic 3- or 4-circuits; prism(m) has none of
    # length 3 and one 4-circuit per pair of non-adjacent side facets.
    want_c4 = 0 if family == "loebell" else m * (m - 3) // 2
    if wrong:
        want_c4 += 1
    want_e2 = 4 * m if family == "loebell" else m

    def run(tr):
        with tr.span("polytope.build", cid):
            P = serialize.load_polytope(doc)
        with tr.span("polytope.circuits", cid):
            c3 = polytope.prismatic_circuits(P, 3)
            c4 = polytope.prismatic_circuits(P, 4)
        tr.count("polytope.circuits_found", len(c3) + len(c4), cid)
        if family == "loebell":
            with tr.span("matchstats.find_factor", cid):
                factor = matchstats.find_factor(P, min(P.ridges))
            with tr.span("matchstats.orbifold_from_factor", cid):
                Q = matchstats.orbifold_from_factor(P, factor, 3)
        else:
            with tr.span("orbifold.make", cid):
                Q = orbifold.make_orbifold(P, prism_orders)
        with tr.span("orbifold.counts", cid):
            counts = orbifold.counts(Q)
        with tr.span("orbifold.weak_order", cid):
            wo = orbifold.weak_order_combinatorial(Q)
        with tr.span("polytope.truncation", cid):
            truncation = polytope.is_truncation_polytope(Q.base)
        with tr.span("orbifold.andreev", cid):
            andreev = orbifold.andreev_necessary_check(Q)
        return {"c3": len(c3), "c4": len(c4), "f": counts.f, "e": counts.e,
                "e2": counts.e2, "eplus": counts.eplus, "delta": counts.delta,
                "weakly_orderable": bool(wo), "truncation": truncation.is_truncation,
                "andreev": andreev.passed}

    def check(out):
        problems = []
        _expect(problems, "prismatic 3-circuits", out["c3"], 0)
        _expect(problems, "prismatic 4-circuits", out["c4"], want_c4)
        _expect(problems, "f", out["f"], base.f)
        _expect(problems, "e2", out["e2"], want_e2)
        _expect(problems, "e_+", out["eplus"], 2 * m)
        _expect(problems, "delta_P = e - 3f + 6", out["delta"], out["e"] - 3 * out["f"] + 6)
        _expect(problems, "weakly orderable", out["weakly_orderable"], True)
        _expect(problems, "truncation polytope", out["truncation"], False)
        _expect(problems, "Andreev passed", out["andreev"], True)
        return problems

    return Case(cid, run, check)


def build_check_sweep(seed, quick, wrong, tmp):
    rng = random.Random(seed)
    loebells = (8,) if quick else (8, 12, 16, 24)
    prisms = (16,) if quick else (16, 32, 48)
    cases = [_check_case(f"loebell{m}", "loebell", m, rng, wrong and m == 8)
             for m in loebells]
    cases += [_check_case(f"prism{m}", "prism", m, rng) for m in prisms]
    warm = [_check_case("warmup-loebell6", "loebell", 6, rng),
            _check_case("warmup-prism5", "prism", 5, rng)]

    def warmup():
        for case in warm:
            case.run(_NO_TRACE)

    return Workload(cases, small="loebell8", large="prism16" if quick else "loebell24",
                    warmup=warmup, small_repeats=len(cases) - 1)


# -- stats: L3 (DP sampler, exact enumeration, weak-orderability predicate) -----

def wilson_interval(successes, total, z=1.959963984540054):
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return center - half, center + half


def _mc_case(cid, P, d, samples, seed):
    def run(tr):
        with tr.span("matchstats.mc", cid):
            report = matchstats.estimate_wo_fraction(
                P, d, mode="montecarlo", samples=samples, seed=seed)
        tr.count("matchstats.mc_samples", report.samples, cid)
        tr.count("matchstats.mc_attempts", report.attempts, cid)
        return report

    def check(r):
        problems = []
        _expect(problems, "samples", r.samples, samples)
        _expect(problems, "valid_count", r.valid_count, samples)
        _expect(problems, "sum of N_j", sum(r.nj.values()), samples)
        if not 0 <= r.wo_count <= samples:
            problems.append(f"wo_count {r.wo_count} outside [0, {samples}]")
        if not r.attempts >= samples:
            problems.append(f"attempts {r.attempts} < samples {samples}")
        fraction = r.wo_count / samples
        low, high = wilson_interval(r.wo_count, samples)
        if abs(r.fraction - fraction) > 1e-12:
            problems.append(f"fraction {r.fraction} != wo/samples {fraction}")
        if not (low - 1e-12 <= r.fraction <= high + 1e-12):
            problems.append(f"fraction {r.fraction} outside Wilson [{low}, {high}]")
        if abs(r.ci_low - max(low, 0.0)) > 1e-9 or abs(r.ci_high - min(high, 1.0)) > 1e-9:
            problems.append(f"reported interval [{r.ci_low}, {r.ci_high}] is not "
                            f"the Wilson interval [{low}, {high}]")
        return problems

    return Case(cid, run, check, {"mode": "montecarlo", "samples": samples})


def _exact_case(cid, P, d, valid, nj, wrong=False):
    # (d-1)^e assignments, plus the d = 7 recount behind the N_j identity.
    assignments = (d - 1) ** P.e + (6 ** P.e if d == 8 else 0)
    if wrong:
        valid += 1

    def run(tr):
        with tr.span("matchstats.exact", cid):
            report = matchstats.estimate_wo_fraction(P, d, mode="exact")
        tr.count("matchstats.exact_assignments", assignments, cid)
        return report

    def check(r):
        problems = []
        _expect(problems, "valid_count", r.valid_count, valid)
        _expect(problems, "wo_count", r.wo_count, valid)
        _expect(problems, "N_j", {int(j): int(c) for j, c in r.nj.items()}, nj)
        if d in (7, 8):
            _expect(problems, "N_j identity checked", r.identity_checked, True)
            _expect(problems, "N_j identity holds", r.identity_holds, True)
        return problems

    return Case(cid, run, check, {"mode": "exact"})


def build_stats(seed, quick, wrong, tmp):
    dodeca, prism8 = polytope.dodecahedron(), polytope.prism(8)
    mc = [(dodeca, 7, 20 if quick else 300), (dodeca, 20, 300), (dodeca, 100, 300),
          (prism8, 20, 8 if quick else 120)]
    if quick:
        mc = [mc[0], mc[3]]
    cases = []
    probes = []
    for k, (P, d, n) in enumerate(mc):
        name = "dodecahedron" if P is dodeca else "prism8"
        cid = f"mc-{name}-d{d}"
        cases.append(_mc_case(cid, P, d, n, seed * 100 + k))
        # The same case at a quarter of the samples gives the fixed cost
        # (sampler build) and the per-sample slope.
        probes.append(_mc_case(cid + "@quarter", P, d, max(n // 4, 1), seed * 100 + k))
    cases.append(_exact_case("exact-cube-d5", polytope.cube(), 5, 72194, {0: 72194},
                             wrong))
    if not quick:
        cases.append(_exact_case("exact-prism3-d8", polytope.prism(3), 8, 1696,
                                 {0: 998, 1: 630, 2: 60, 3: 8}))
    cube = polytope.cube()

    def warmup():
        matchstats.estimate_wo_fraction(cube, 5, mode="montecarlo", samples=4, seed=seed)
        matchstats.estimate_wo_fraction(polytope.prism(3), 3, mode="exact")

    return Workload(cases, small="mc-dodecahedron-d7",
                    large="exact-cube-d5" if quick else "exact-prism3-d8",
                    warmup=warmup, probes=probes, small_repeats=1 if quick else 6)


# -- cli: L4 (interpreter, imports and cmd_* glue, one fresh process each) ------

def _cli(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          timeout=CLI_TIMEOUT_S, check=False)


def _cli_case(command, argv, tmp, content_check, outputs=()):
    cid = command
    reference = {}

    def run(tr):
        with tr.span(f"cli.{command}", cid):
            proc = _cli(["-m", "coxdeform.cli", *argv], tmp)
        files = {}
        for name in outputs:
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = fh.read()
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "files": files}

    def check(out):
        if out["rc"] != 0:
            return [f"exit {out['rc']}: {out['stderr'].decode(errors='replace')[-300:]}"]
        problems = []
        produced = (out["stdout"], out["files"])
        reference.setdefault("first", produced)
        if produced != reference["first"]:
            problems.append("output differs from the first invocation")
        problems += content_check(out)
        return problems

    return Case(cid, run, check)


def _json_check(*expectations):
    def check(out):
        report = json.loads(out["stdout"])
        problems = []
        for path, want in expectations:
            got = report
            for key in path.split("."):
                got = got[key]
            _expect(problems, path, got, want)
        return problems
    return check


def build_cli(seed, quick, wrong, tmp):
    rng = random.Random(seed)
    x, y = (round(rng.uniform(0.6, 1.6), 6) for _ in range(2))
    matrix = vinberg.esselmann_family().matrix(x, y)
    with open(os.path.join(tmp, "matrix.json"), "w", encoding="utf-8") as fh:
        json.dump({"matrix": matrix.tolist()}, fh)
    samples = 200
    res = 101

    def csv_rows(out):
        rows = out["files"]["ess.csv"].count(b"\n")
        return [] if rows == res * res + 1 else [f"ess.csv has {rows} lines"]

    # loebell5_factor: the dodecahedron with order 7 on a perfect matching, so
    # e_+ = 10, delta_P = 0 and the dimension is e_+ - 3 = 7.
    cases = [
        _cli_case("check", ["check", "tetrahedron353"], tmp,
                  _json_check(("valid", True), ("counts.e2", 3),
                              ("weakly_orderable", True))),
        _cli_case("realize", ["realize", "cube_flex"], tmp,
                  _json_check(("method", "newton"))),
        _cli_case("dim", ["dim", "loebell5_factor"], tmp,
                  _json_check(("dimension", 8 if wrong else 7), ("formula_dimension", 7),
                              ("rank_sum.identity_holds", True),
                              ("domain_membership", True), ("rank_uncertain", False))),
        _cli_case("cartan", ["cartan", "matrix.json"], tmp,
                  _json_check(("size", 6), ("conditions_passed", True))),
        _cli_case("curve", ["curve", "esselmann", "--out", "ess"], tmp, csv_rows,
                  outputs=("ess.csv", "ess.json")),
        _cli_case("stats", ["stats", "dodecahedron", "--d", "20", "--mode", "montecarlo",
                            "--samples", str(samples), "--seed", str(seed)], tmp,
                  _json_check(("report.samples", samples), ("report.valid_count", samples),
                              ("config.seed", seed))),
    ]

    def probe(name, code, k):
        cid = f"{name}#{k}"

        def run(tr):
            with tr.span(name, cid):
                proc = _cli(["-c", code], tmp)
            return proc.returncode

        return Case(cid, run, lambda rc: [] if rc == 0 else [f"exit {rc}"])

    probes = [probe("cli.interpreter", "pass", k) for k in range(5)]
    probes += [probe("cli.import", "import coxdeform.cli", k) for k in range(5)]
    return Workload(cases, small="check", large="dim", min_passes=2, probes=probes,
                    rss_of_children=True, small_repeats=2)


_NO_TRACE = NullTracer()

BUILDERS = {"dim-sweep": build_dim_sweep, "check-sweep": build_check_sweep,
            "stats": build_stats, "cli": build_cli}
