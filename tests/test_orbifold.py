import argparse
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from coxdeform import bundled, cartan, orbifold as ob, polytope as pt, vinberg
from coxdeform.errors import ConvergenceError, RealizationError
from conftest import (andreev_oracle, bitmask_peel, brute_force_weak_order, ids_of,
                      loebell_factor_orbifold, qualifying_sets_full_rank, random_truncation)

# the order triples whose sum of 1/m is exactly 1; (2, 2, 2, 2) sums to 2
EUCLIDEAN_TRIPLES = ((2, 3, 6), (2, 4, 4), (3, 3, 3))


def cube_orders(high=()):
    P = pt.cube()
    orders = {r: 2 for r in P.ridges}
    orders.update(high)
    return P, orders


def test_tetrahedron_counts(tetra_orbifold):
    c = ob.counts(tetra_orbifold)
    assert (c.f, c.e, c.e2, c.eplus, c.N) == (4, 6, 3, 3, 13)
    assert c.e == c.e2 + c.eplus and c.N == c.f + c.e + c.e2


def test_counts_equal_equation_index(tetra_orbifold, esselmann_orbifold,
                                     doubled_cube_orbifold):
    for Q in (tetra_orbifold, esselmann_orbifold, doubled_cube_orbifold):
        index = vinberg.EquationIndex.from_orbifold(Q)
        assert index.N == ob.counts(Q).N


def test_all_right_angles_cube_is_valid():
    P, orders = cube_orders()
    Q = ob.make_orbifold(P, orders)
    assert ob.counts(Q).e2 == 12


def test_non_elliptic_vertex_rejected():
    # orders (3,3,4) around one cube vertex: 1/3 + 1/3 + 1/4 < 1
    P, orders = cube_orders({(1, 3): 3, (1, 4): 3, (3, 4): 4})
    with pytest.raises(ob.OrbifoldError, match="not elliptic"):
        ob.make_orbifold(P, orders)


def test_order_below_two_rejected():
    P, orders = cube_orders()
    orders[(1, 3)] = 1
    with pytest.raises(ob.OrbifoldError):
        ob.make_orbifold(P, orders)


def test_order_that_is_not_a_number_rejected():
    # a string is not read as its number, and None or "abc" is an
    # OrbifoldError, not a TypeError or a ValueError
    P, orders = cube_orders()
    for m in ("3", b"3", None, "abc", [3], 2.5, float("nan"), float("inf"), True,
              np.array(2.5)):
        orders[(1, 3)] = m
        with pytest.raises(ob.OrbifoldError, match="need an integer >= 2"):
            ob.make_orbifold(P, orders)
    for m in (3.0, np.float64(3), np.int64(3), 10 ** 400):
        orders[(1, 3)] = m
        assert ob.make_orbifold(P, orders).order(1, 3) == m


def test_missing_and_extra_orders_rejected():
    P, orders = cube_orders()
    missing = dict(orders)
    missing.pop((1, 3))
    with pytest.raises(ob.OrbifoldError, match="missing"):
        ob.make_orbifold(P, missing)
    extra = dict(orders)
    extra[(1, 2)] = 2  # caps are not adjacent
    with pytest.raises(ob.OrbifoldError, match="non-ridge"):
        ob.make_orbifold(P, extra)


def test_doubled_cube_counts(doubled_cube_orbifold):
    c = ob.counts(doubled_cube_orbifold)
    assert c.eplus == 3 and c.f == 9


def test_esselmann_counts(esselmann_orbifold):
    c = ob.counts(esselmann_orbifold)
    assert (c.e2, c.eplus, c.delta) == (8, 7, 1)


def test_weak_order_cube_always_succeeds(cube_orbifolds):
    for Q in cube_orbifolds.values():
        result = ob.weak_order_combinatorial(Q)
        assert result and ob.check_weak_ordering(Q, result.order)
        assert all(len(F) <= Q.n for F in result.qualifying.values())


def test_weak_order_doubled_cube_fails(doubled_cube_orbifold):
    result = ob.weak_order_combinatorial(doubled_cube_orbifold)
    assert not result
    assert result.certificate == frozenset(doubled_cube_orbifold.base.facets)
    # every certificate member really has > n order-2 ridges inside it
    for i in result.certificate:
        inside = [j for j in doubled_cube_orbifold.order2_neighbors(i)
                  if j in result.certificate]
        assert len(inside) > 3


def test_weak_order_no_order2_edges():
    # combinatorial op works on raw structures regardless of ellipticity
    P = pt.simplex(3)
    Q = ob.CoxeterOrbifold(P, {r: 7 for r in P.ridges})
    result = ob.weak_order_combinatorial(Q)
    assert result and all(not F for F in result.qualifying.values())


def test_weak_order_against_brute_force():
    rng = np.random.default_rng(11)
    for P in (pt.prism(3), pt.cube()):
        for _ in range(40):
            orders = {r: int(rng.choice([2, 3])) for r in P.ridges}
            Q = ob.CoxeterOrbifold(P, orders)
            greedy = ob.weak_order_combinatorial(Q)
            brute = brute_force_weak_order(Q)
            assert bool(greedy) == (brute is not None)
            if greedy:
                assert ob.check_weak_ordering(Q, greedy.order)


def test_check_weak_ordering_rejects_bad_ordering():
    # all orders 2 on the dodecahedron: whichever face comes first has five
    # order-2 ridges into later faces
    P = pt.dodecahedron()
    Q = ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges})
    order = tuple(sorted(P.facets))
    assert not ob.check_weak_ordering(Q, order)
    assert not ob.check_weak_ordering(Q, order[:-1])
    assert not ob.check_weak_ordering(Q, order + order[:1])
    # a valid ordering stops passing with a facet missing or listed twice
    Q = loebell_factor_orbifold(pt.loebell(6))
    order = ob.weak_order_combinatorial(Q).order
    assert ob.check_weak_ordering(Q, order)
    assert not ob.check_weak_ordering(Q, order[1:])
    assert not ob.check_weak_ordering(Q, order + order[:1])


def test_weak_orderability_verdict_matches_ordering():
    cases = [bundled.load_builtin(name) for name in bundled.BUILTIN_NAMES]
    rng = np.random.default_rng(29)
    for base in (pt.cube(), pt.prism(5), pt.dodecahedron()):
        for cuts in range(1, 6):
            P = random_truncation(base, cuts, rng)
            cases += [ob.CoxeterOrbifold(P, {r: int(rng.choice([2, 2, 2, 3])) for r in P.ridges})
                      for _ in range(4)]
    verdicts = [ob.is_weakly_orderable(Q) for Q in cases]
    assert verdicts == [bool(ob.weak_order_combinatorial(Q)) for Q in cases]
    assert set(verdicts) == {True, False}


def test_weak_order_matches_bitmask_scan():
    # orderings, qualifying sets and failure certificates of the heap peel
    # equal the rescanning bitmask peel's, on bundled, family and truncated
    # bases with random order-2 sets
    rng = np.random.default_rng(37)
    bases = [bundled.load_builtin(name).base for name in bundled.BUILTIN_NAMES]
    bases += [pt.prism(m) for m in range(3, 13)] + [pt.loebell(m) for m in range(4, 13)]
    bases += [random_truncation(base, int(rng.integers(1, 12)), rng)
              for base in (pt.simplex(3), pt.cube(), pt.prism(5), pt.dodecahedron())
              for _ in range(8)]
    cases = [bundled.load_builtin(name) for name in bundled.BUILTIN_NAMES]
    cases += [ob.CoxeterOrbifold(P, {r: int(rng.choice([2] * 8 + [3])) for r in P.ridges})
              for P in bases for _ in range(5)]
    outcomes = []
    for Q in cases:
        ids = tuple(sorted(Q.base.facets))
        order, stuck = bitmask_peel(ids, Q.e2_pairs(), Q.n)
        result = ob.weak_order_combinatorial(Q)
        outcomes.append(bool(result))
        if stuck:
            assert not result and result.certificate == frozenset(ids_of(ids, stuck))
        else:
            assert list(result.qualifying.items()) == [(ids[k], ids_of(ids, later))
                                                       for k, later in order]
            assert result.order == tuple(result.qualifying)
    assert outcomes.count(False) > 50 and outcomes.count(True) > 50


def test_weak_order_of_a_large_factor_orbifold():
    Q = loebell_factor_orbifold(pt.loebell(2000))
    result = ob.weak_order_combinatorial(Q)
    assert result and ob.check_weak_ordering(Q, result.order)
    assert ob.is_weakly_orderable(Q)


def test_truncation_orbifolds_weakly_orderable():
    rng = np.random.default_rng(23)
    for _ in range(5):
        P = pt.simplex(3)
        for _ in range(int(rng.integers(1, 5))):
            P = pt.truncate_vertex(P, int(rng.integers(len(P.vertices))))
        orders = {r: int(rng.choice([2, 3, 5])) for r in P.ridges}
        Q = ob.CoxeterOrbifold(P, orders)
        assert ob.weak_order_combinatorial(Q)


def test_weak_order_geometric_dimension_three(tetra_orbifold, tetra_point):
    alphas = {facet: tetra_point.alphas[k]
              for k, facet in enumerate(tetra_point.facets)}
    result = ob.weak_order_geometric(tetra_orbifold, alphas)
    assert result and qualifying_sets_full_rank(result, alphas)


def test_weak_order_geometric_esselmann(esselmann_orbifold, esselmann_matrix):
    p = cartan.realize_point_from_cartan(esselmann_matrix, 4)
    alphas = {facet: p.alphas[k] for k, facet in enumerate(p.facets)}
    result = ob.weak_order_geometric(esselmann_orbifold, alphas)
    assert result
    assert qualifying_sets_full_rank(result, alphas)
    assert all(len(F) <= 4 for F in result.qualifying.values())


def test_weak_order_geometric_dependent_covectors(esselmann_orbifold, esselmann_point):
    alphas = {facet: esselmann_point.alphas[k]
              for k, facet in enumerate(esselmann_point.facets)}
    alphas[6] = alphas[5]
    # a qualifying set {.., 5, 6} fails the rank test, so the backtracking
    # search must find an ordering that never groups 5 and 6 together
    result = ob.weak_order_geometric(esselmann_orbifold, alphas)
    assert result
    for F in result.qualifying.values():
        assert not {5, 6} <= set(F)
    # fully degenerate covectors leave no admissible ordering at all
    flat = {facet: alphas[5] for facet in alphas}
    assert not ob.weak_order_geometric(esselmann_orbifold, flat)


def test_weak_order_geometric_needs_realization(tetra_orbifold):
    with pytest.raises(ob.OrbifoldError):
        ob.weak_order_geometric(tetra_orbifold, None)


def test_andreev_matching_orders_pass():
    P = pt.dodecahedron()
    from coxdeform import matchstats as ms
    factor = ms.find_factor(P, sorted(P.ridges)[0])
    Q = ob.make_orbifold(P, {r: (7 if r in set(factor) else 2) for r in P.ridges})
    report = ob.andreev_necessary_check(Q)
    assert report.passed and not report.is_tetrahedron
    # no prismatic circuits on the dodecahedron: checks are vacuous
    assert report.circuit3_violations == [] and report.circuit4_violations == []


def test_andreev_all_right_angles_cube_fails():
    P, orders = cube_orders()
    Q = ob.make_orbifold(P, orders)
    report = _assert_andreev_exact(Q)
    assert not report.passed
    assert len(report.circuit4_violations) == 3  # each equator sums to exactly 2 pi
    for _, s in report.circuit4_violations:
        assert s == pytest.approx(2.0)


def test_andreev_passes_exactly_the_realizable_triangular_prisms():
    # seeded prism(3) orders: 2 or 3 on the cap ridges (2 twice as likely),
    # 2..6 on the sides.  Right-angled caps meet at infinity, so the
    # realization is refused; on some draws only the prism condition says so.
    from coxdeform import cli

    P = pt.prism(3)
    caps = [r for r in sorted(P.ridges) if r[0] in (1, 2)]
    sides = [r for r in sorted(P.ridges) if r[0] > 2]
    args = argparse.Namespace(seed_name=None, seed=0, tol=1e-10)
    rng = np.random.default_rng(1)
    outcomes = Counter()
    for _ in range(400):
        orders = dict(zip(caps, rng.choice([2, 2, 3], size=6).tolist()))
        orders.update(zip(sides, rng.integers(2, 7, size=3).tolist()))
        try:
            Q = ob.make_orbifold(P, orders)
        except ob.OrbifoldError:
            continue
        report = _assert_andreev_exact(Q)
        try:
            cli._realize(Q, args)
            realized = True
        except (ConvergenceError, RealizationError):
            realized = False
        assert report.passed == realized, orders
        outcomes[report.passed, bool(report.prism_violations),
                 bool(report.vertex_violations or report.circuit3_violations)] += 1
    assert set(outcomes) == {(True, False, False), (False, True, False),
                             (False, False, True), (False, True, True)}


def test_andreev_tetrahedron_flag(tetra_orbifold):
    report = ob.andreev_necessary_check(tetra_orbifold)
    assert report.is_tetrahedron and report.passed


def test_reciprocal_sum_sign_matches_fractions():
    near = ((2, 3, 5), (2, 3, 7), (3, 3, 4), (2, 2, 2, 3), (2, 2, 3, 7), (7, 7, 7, 7))
    for base in EUCLIDEAN_TRIPLES + ((2, 2, 2, 2),) + near:
        for orders in itertools.permutations(base):
            s = sum(Fraction(1, m) for m in orders)
            for k in (1, 2):
                want = (s > k) - (s < k)
                assert ob.reciprocal_sum_sign(orders, k) == want, (orders, k)


def _assert_andreev_exact(Q):
    """The report's violations are the Fraction oracle's, each printed with
    the float sum of 1/m over its orders."""
    report = ob.andreev_necessary_check(Q)
    vertices, c3, c4, prism = andreev_oracle(Q)
    assert {V for V, _ in report.vertex_violations} == vertices
    assert {c for c, _ in report.circuit3_violations} == c3
    assert {c for c, _ in report.circuit4_violations} == c4
    assert set(report.prism_violations) == prism
    for V, s in report.vertex_violations:
        assert s == sum(1.0 / Q.order(i, j) for i, j in itertools.combinations(V, 2))
    for c, s in report.circuit3_violations + report.circuit4_violations:
        assert s == sum(1.0 / Q.order(c[t], c[(t + 1) % len(c)]) for t in range(len(c)))
    assert report.passed == (not (vertices or c3 or c4 or prism))
    return report


def test_andreev_circuit_sums_are_exact():
    # prism(3): caps 1 and 2, sides 3, 4, 5; the sides form the one prismatic
    # 3-circuit.  A Euclidean triple on it fails in every order, although
    # 1/2 + 1/6 + 1/3 rounds to 0.9999999999999999 in floats.  The caps are
    # right-angled, which the prism condition rejects in every case.
    P = pt.prism(3)
    sides = [(3, 4), (3, 5), (4, 5)]
    for base in EUCLIDEAN_TRIPLES + ((2, 3, 7),):
        for perm in itertools.permutations(base):
            orders = {r: 2 for r in P.ridges}
            orders.update(zip(sides, perm))
            report = _assert_andreev_exact(ob.make_orbifold(P, orders))
            assert (not report.circuit3_violations) == (base == (2, 3, 7)), perm
            assert report.prism_violations == [(1, 2)] and not report.passed


def test_andreev_vertex_sums_are_exact():
    # make_orbifold refuses these vertices, so the orbifold is built directly;
    # with right angles elsewhere no other vertex fails
    P = pt.cube()
    V = tuple(sorted(P.vertices[0]))
    for base in EUCLIDEAN_TRIPLES + ((2, 3, 5),):
        for perm in itertools.permutations(base):
            orders = {r: 2 for r in P.ridges}
            orders.update(zip(itertools.combinations(V, 2), perm))
            report = _assert_andreev_exact(ob.CoxeterOrbifold(P, orders))
            assert [W for W, _ in report.vertex_violations] == \
                ([] if base == (2, 3, 5) else [V]), perm


SIMPLEX = pt.simplex(3)


def _eigenvalue_vertex_oracle(orders):
    """The vertex test as it was for n = 3 and still is for n >= 4: the
    smallest eigenvalue of the cosine matrix against ELLIPTIC_EIG_TOL."""
    Q = ob.CoxeterOrbifold(SIMPLEX, _simplex_orders(orders))
    M = ob.vertex_cosine_matrix(Q, {1, 2, 3})
    return np.linalg.eigvalsh(M)[0] > ob.ELLIPTIC_EIG_TOL * np.linalg.norm(M)


def _simplex_orders(orders):
    """Orders on the tetrahedron: ``orders`` on the ridges of vertex {1,2,3},
    2 elsewhere, so that the other three vertices are always elliptic."""
    return {(1, 2): orders[0], (1, 3): orders[1], (2, 3): orders[2],
            (1, 4): 2, (2, 4): 2, (3, 4): 2}


def _integer_vertex_test(orders):
    try:
        ob.make_orbifold(SIMPLEX, _simplex_orders(orders))
    except ob.OrbifoldError:
        return False
    return True


def test_integer_vertex_test_matches_eigenvalue_oracle():
    # both tests are symmetric in the three orders, so sorted triples suffice
    rejected_at_one = set()
    for orders in itertools.combinations_with_replacement(range(2, 41), 3):
        verdict = _integer_vertex_test(orders)
        assert verdict == _eigenvalue_vertex_oracle(orders), orders
        if not verdict and sum(Fraction(1, m) for m in orders) == 1:
            rejected_at_one.add(orders)
    assert rejected_at_one == set(EUCLIDEAN_TRIPLES)


def test_vertex_test_accepts_large_dihedral_orders():
    # (2, 2, m) is elliptic for every m; the eigenvalue test's tolerance
    # rejected it from m of about 5 * 10^4 (smallest eigenvalue ~ (pi/m)^2)
    for m in (10 ** 5, 10 ** 9):
        assert _integer_vertex_test((2, 2, m))
        assert not _eigenvalue_vertex_oracle((2, 2, m))
    with pytest.raises(ob.OrbifoldError, match=r"1/3 \+ 1/3 \+ 1/3 <= 1"):
        ob.make_orbifold(SIMPLEX, _simplex_orders((3, 3, 3)))


def test_vertex_cosine_matrix_values(tetra_orbifold):
    M = ob.vertex_cosine_matrix(tetra_orbifold, frozenset({1, 2, 3}))
    # orders (1,2)=3, (1,3)=2, (2,3)=5
    assert M[0, 1] == pytest.approx(-1.0)
    assert M[0, 2] == pytest.approx(0.0)
    assert M[1, 2] == pytest.approx(-2 * np.cos(np.pi / 5))


def test_e4_pairs_with_descending_facet_list():
    # facets listed 6..1: every layer still reports only the 3 opposite pairs
    cube = pt.cube()
    P = pt.PolytopeCombinatorics(3, (6, 5, 4, 3, 2, 1), cube.ridges, cube.vertices)
    flex = bundled.load_builtin("cube_flex")
    Q = ob.make_orbifold(P, flex.orders)
    opposite = [(1, 2), (3, 5), (4, 6)]
    assert Q.e4_pairs() == opposite
    assert list(vinberg.EquationIndex.from_orbifold(Q).e4) == opposite
    A = cartan.CartanMatrix(2.0 * np.eye(6), orders=flex.orders, facets=(6, 5, 4, 3, 2, 1))
    assert A.e4_pairs() == opposite
