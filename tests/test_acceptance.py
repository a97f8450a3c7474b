"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s to see them on success)."""

import time

import numpy as np
import pytest

from coxdeform import (bundled, cartan, lorentz, matchstats as ms,
                       orbifold as ob, polytope as pt, vinberg)
from coxdeform.numerics import numerical_rank
from conftest import (apply_gauge, enumerate_perfect_matchings, finite_difference_jacobian,
                      flatten, labelled_orbifold, qualifying_sets_full_rank, random_gauge,
                      random_parity_labels, removable_edges_oracle, unflatten,
                      weak_order_induction_oracle)

GAP_REQUIRED = 1e3


def _rank_with_gap(M):
    rr = numerical_rank(M)
    assert rr.gap > GAP_REQUIRED, f"rank decision uncertain (gap {rr.gap:.2e})"
    return rr


def test_criterion_01_tetrahedron_pipeline():
    t0 = time.perf_counter()
    Q = bundled.load_builtin("tetrahedron353")
    R = lorentz.realize_gram(Q)
    p = vinberg.hyperbolic_point(R)
    psi = _rank_with_gap(lorentz.psi_jacobian(Q, R.normals))
    phi = _rank_with_gap(vinberg.phi_jacobian(vinberg.EquationIndex.from_orbifold(Q), p))
    report = vinberg.local_deformation_dimension(Q, p)
    elapsed = time.perf_counter() - t0
    assert R.residual_norm < 1e-10
    assert psi.rank == 10 and psi.kernel_dimension(16) == 6
    assert phi.rank == 13 and report.full_rank
    assert report.deformation_dim == 0 == ob.counts(Q).eplus - 3
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: tetrahedron rank(psi)=10 ker=6 rank(phi)=13 "
          f"dim=0 in {elapsed:.3f}s")


def test_criterion_02_rank_sum_identity(tetra_orbifold, tetra_point,
                                        cube_orbifolds, cube_realizations,
                                        loebell5_orbifold, loebell5_realization):
    cases = [("tetrahedron353", tetra_orbifold, tetra_point)]
    for name, Q in cube_orbifolds.items():
        cases.append((name, Q, vinberg.hyperbolic_point(cube_realizations[name])))
    cases.append(("loebell5_factor", loebell5_orbifold,
                  vinberg.hyperbolic_point(loebell5_realization)))
    lines = []
    for name, Q, p in cases:
        assert ob.weak_order_combinatorial(Q)
        report = vinberg.check_rank_sum(Q, p)
        assert report.rank_phi.gap > GAP_REQUIRED
        assert report.rank_psi.gap > GAP_REQUIRED
        assert report.identity_holds, name
        lines.append(f"{name}: {report.rank_phi.rank}="
                     f"{report.rank_psi.rank}+{report.e2}")
    print("\nACCEPTANCE 2 PASS: rank-sum identity on " + "; ".join(lines))


def test_criterion_03_esselmann(esselmann_orbifold, esselmann_matrix):
    t0 = time.perf_counter()
    c = ob.counts(esselmann_orbifold)
    assert (c.delta, c.e2, c.eplus) == (1, 8, 7)

    fam = vinberg.esselmann_family()
    xs = np.linspace(0.5, 2.0, 101)
    ys = np.linspace(0.5, 2.0, 101)
    worst = 0.0
    for y in ys:
        mats = np.stack([fam.matrix(x, y) for x in xs])
        dets = np.linalg.det(mats)
        f = np.array([vinberg.esselmann_polynomial(x, y) for x in xs])
        worst = max(worst, np.abs(dets * 2 * xs * y - f).max())
    assert worst < 1e-9

    assert abs(vinberg.esselmann_polynomial(1.0, 1.0)) < 1e-12
    assert np.abs(vinberg.esselmann_polynomial_gradient(1.0, 1.0)).max() < 1e-12

    p = cartan.realize_point_from_cartan(esselmann_matrix, 4)
    alphas = {facet: p.alphas[k] for k, facet in enumerate(p.facets)}
    ordering = ob.weak_order_geometric(esselmann_orbifold, alphas)
    assert ordering and qualifying_sets_full_rank(ordering, alphas)
    assert c.eplus - 4 - 2 * c.delta == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: esselmann delta=1 e2=8 e+=7, quintic match "
          f"{worst:.1e}, singular point, weakly orderable, formula=1 "
          f"in {elapsed:.2f}s")


def test_criterion_04_doubled_cube(doubled_cube_orbifold):
    result = ob.weak_order_combinatorial(doubled_cube_orbifold)
    assert not result
    assert result.certificate == frozenset(doubled_cube_orbifold.base.facets)
    N = vinberg.EquationIndex.from_orbifold(doubled_cube_orbifold).N
    try:
        R = lorentz.solve_hyperbolic_newton(doubled_cube_orbifold)
    except (lorentz.ConvergenceError, lorentz.RealizationError) as exc:
        print(f"\nACCEPTANCE 4 PARTIAL: combinatorial half passed; "
              f"blocked: realization ({exc})")
        return
    p = vinberg.hyperbolic_point(R)
    phi = _rank_with_gap(vinberg.phi_jacobian(
        vinberg.EquationIndex.from_orbifold(doubled_cube_orbifold), p))
    assert phi.rank <= N - 1
    print(f"\nACCEPTANCE 4 PASS: doubled cube certificate = all 9 facets, "
          f"rank(phi)={phi.rank} <= N-1={N - 1}")


def test_criterion_05_weil_rigidity(tetra_orbifold, tetra_realization,
                                    cube_orbifolds, cube_realizations,
                                    doubled_cube_orbifold, doubled_cube_realization,
                                    loebell5_orbifold, loebell5_realization):
    cases = [("tetrahedron353", tetra_orbifold, tetra_realization),
             ("doubled_cube", doubled_cube_orbifold, doubled_cube_realization),
             ("loebell5_factor", loebell5_orbifold, loebell5_realization)]
    cases += [(name, cube_orbifolds[name], cube_realizations[name])
              for name in cube_orbifolds]
    for name, Q, R in cases:
        assert lorentz.kernel_dimension(Q, R.normals) == 6, name
    print(f"\nACCEPTANCE 5 PASS: ker(D psi) = 6 at {len(cases)} realizations")


def test_criterion_06_gauge_properties(tetra_orbifold, tetra_point):
    rng = np.random.default_rng(2024)
    index = vinberg.EquationIndex.from_orbifold(tetra_orbifold)
    base_rank = _rank_with_gap(vinberg.phi_jacobian(index, tetra_point)).rank
    worst = 0.0
    for _ in range(100):
        d, g = random_gauge(4, 4, rng)
        moved = apply_gauge(tetra_point, d, g)
        worst = max(worst, np.abs(vinberg.phi_eval(index, moved)).max())
        assert numerical_rank(vinberg.phi_jacobian(index, moved)).rank == base_rank
    assert worst < 1e-9
    print(f"\nACCEPTANCE 6 PASS: 100 random gauges, max |residual| = {worst:.2e}, "
          f"rank constant {base_rank}")


def test_criterion_07_integer_bookkeeping():
    for name in bundled.BUILTIN_NAMES:
        Q = bundled.load_builtin(name)
        c = ob.counts(Q)
        n = Q.n
        lhs = 2 * (n + 1) * c.f - c.N - (c.f + (n + 1) ** 2 - 1)
        assert lhs == c.eplus - n - 2 * c.delta, name
    print(f"\nACCEPTANCE 7 PASS: bookkeeping identity on "
          f"{len(bundled.BUILTIN_NAMES)} bundled orbifolds (n = 3 and 4)")


def test_criterion_08_matching_combinatorics():
    # a {0, 1} labelling with odd vertex sums, read as order 2 on the 0-edges
    # and 3 elsewhere, is weakly orderable: greedy_peel's ordering and the
    # deletion induction's both pass the independent validator
    graphs = [("cube", pt.cube()), ("prism3", pt.prism(3)),
              ("prism4", pt.prism(4)), ("prism5", pt.prism(5)),
              ("prism6", pt.prism(6)), ("dodecahedron", pt.dodecahedron()),
              ("loebell5", pt.loebell(5)), ("loebell6", pt.loebell(6))]
    for name, P in graphs:
        for edge in sorted(P.ridges):
            factor = ms.find_factor(P, edge)
            assert ms.is_factor(P, factor) and edge in factor
        if P.e > 6:
            for face in P.facets:
                assert len(removable_edges_oracle(P, face)) >= 2
        rng = np.random.default_rng(P.f * 1009 + P.e)
        for k in range(100):
            labels = random_parity_labels(P, rng)
            Q = labelled_orbifold(P, labels)
            result = ob.weak_order_combinatorial(Q)
            assert result and ob.check_weak_ordering(Q, result.order), name
            if k < 25:  # the slow oracle on a quarter of them
                ordering = weak_order_induction_oracle(P, labels)
                assert ob.check_weak_ordering(Q, ordering), name
                # the same ordering with its first facet listed again is refused
                assert not ob.check_weak_ordering(Q, ordering + ordering[:1]), name
    assert len(enumerate_perfect_matchings(pt.cube())) == 9
    print("\nACCEPTANCE 8 PASS: factors through every edge, >= 2 removable "
          "edges per face, 100 random labelings weakly ordered and 25 ordered "
          "by the deletion induction per graph, cube has 9 matchings")


def test_criterion_09_statistics():
    r8 = ms.estimate_wo_fraction(pt.prism(3), 8, mode="exact")
    assert r8.identity_checked and r8.identity_holds

    rc = ms.estimate_wo_fraction(pt.cube(), 5, mode="exact")
    assert rc.fraction == 1.0 and rc.wo_count == rc.valid_count

    P = pt.dodecahedron()
    reports = [ms.estimate_wo_fraction(P, d, mode="montecarlo",
                                       samples=10000, seed=20240815)
               for d in (7, 20, 100)]
    fractions = [r.fraction for r in reports]
    for lo, hi in zip(reports, reports[1:]):
        # non-decreasing within the 95% intervals
        assert hi.fraction >= lo.fraction - ((lo.fraction - lo.ci_low)
                                             + (hi.fraction - hi.ci_low))
    print(f"\nACCEPTANCE 9 PASS: N_j(8) = N_j(7) 2^j on the prism, cube "
          f"fraction at d=5 is exactly 1, dodecahedron fractions {fractions} "
          f"non-decreasing within CI")


def test_criterion_10_jacobians_vs_finite_differences(
        tetra_orbifold, tetra_realization, cube_orbifolds, cube_realizations,
        doubled_cube_orbifold, doubled_cube_realization,
        loebell5_orbifold, loebell5_realization,
        esselmann_orbifold, esselmann_realization):
    cases = [(tetra_orbifold, tetra_realization),
             (doubled_cube_orbifold, doubled_cube_realization),
             (loebell5_orbifold, loebell5_realization),
             (esselmann_orbifold, esselmann_realization)]
    cases += [(cube_orbifolds[k], cube_realizations[k]) for k in cube_orbifolds]
    worst = 0.0
    for Q, R in cases:
        f, dim = R.normals.shape
        psi = lorentz.psi_jacobian(Q, R.normals)
        fd = finite_difference_jacobian(
            lambda x: lorentz.psi_eval(Q, x.reshape(f, dim)), R.normals.ravel())
        scale = max(1.0, np.abs(psi).max())
        worst = max(worst, np.abs(fd - psi).max() / scale)

        index = vinberg.EquationIndex.from_orbifold(Q)
        p = vinberg.hyperbolic_point(R)
        phi = vinberg.phi_jacobian(index, p)
        fd = finite_difference_jacobian(
            lambda x: vinberg.phi_eval(index, unflatten(x, f, dim)),
            flatten(p))
        scale = max(1.0, np.abs(phi).max())
        worst = max(worst, np.abs(fd - phi).max() / scale)
    assert worst < 1e-5
    print(f"\nACCEPTANCE 10 PASS: analytic vs central differences on "
          f"{len(cases)} realizations, worst relative error {worst:.2e}")
