import argparse
import gc
import math
import weakref

import numpy as np
import pytest

from coxdeform import bundled, cartan, cli, lorentz, orbifold as ob, polytope as pt, vinberg
from coxdeform.numerics import numerical_rank
from conftest import (apply_gauge, component_eigenpairs_oracle, family_realization,
                      finite_difference_jacobian, flatten, gauge_directions_oracle,
                      interior_point_eig_oracle, interior_point_oracle, newton_case,
                      open_conditions_oracle, phi_eval_oracle, phi_jacobian_oracle,
                      random_gauge, reduced_rank_oracle, unflatten)


def test_hyperbolic_point_solves_equations(tetra_orbifold, tetra_point):
    resid = vinberg.phi_eval(tetra_orbifold, tetra_point)
    assert len(resid) == 13
    assert np.abs(resid).max() < 1e-9
    a = tetra_point.cartan()
    assert np.allclose(np.diag(a), 2.0)
    # adjacent entries are -2 cos(pi/n_ij)
    assert a[0, 1] == pytest.approx(-2 * math.cos(math.pi / 3))
    assert a[1, 2] == pytest.approx(-2 * math.cos(math.pi / 5))


def test_equation_index_is_built_once_per_orbifold(monkeypatch):
    # dim's rank analysis, the phi structure and U-membership share one
    # cached index, equal to one built from the orbifold's pair lists, and
    # released with the orbifold; its E4 pairs are the polytope's own tuple
    Q = bundled.load_builtin("cube_rigid")
    p = vinberg.hyperbolic_point(lorentz.solve_hyperbolic_newton(Q))
    fresh = vinberg.EquationIndex(Q.base.facets, Q.n, Q.e2_pairs(),
                                  {r: Q.order(*r) for r in Q.e3_pairs()}, Q.e4_pairs())
    built = []
    build = vinberg.EquationIndex.from_orbifold
    monkeypatch.setattr(vinberg.EquationIndex, "from_orbifold",
                        lambda Q: built.append(Q) or build(Q))
    vinberg.local_deformation_dimension(Q, p)
    vinberg.check_U_membership(Q, p)
    assert built == [Q]
    index = vinberg._as_index(Q)
    assert (index.facets, index.n, index.e2, index.e3_orders, index.e4) == \
        (fresh.facets, fresh.n, fresh.e2, fresh.e3_orders, fresh.e4)
    assert index.e4 is Q.base.nonadjacent_pairs
    ref = weakref.ref(Q)
    del Q, built
    gc.collect()
    assert ref() is None


def test_sign_positions_are_cached_with_the_index():
    # U-membership's E3 and E4 positions, built once per index; the
    # descending facet list makes positions differ from facet ids
    cube = pt.cube()
    P = pt.PolytopeCombinatorics(3, (6, 5, 4, 3, 2, 1), cube.ridges, cube.vertices)
    descending = ob.make_orbifold(P, bundled.load_builtin("cube_mixed").orders)
    for Q in (descending, bundled.load_builtin("loebell8_factor"),
              bundled.load_builtin("esselmann")):
        index = vinberg._as_index(Q)
        ii, jj = index.sign_positions
        want_i, want_j = index.positions(index.e3 + index.e4)
        assert np.array_equal(ii, want_i) and np.array_equal(jj, want_j)
        assert vinberg._as_index(Q).sign_positions is index.sign_positions


def test_equation_row_order(tetra_orbifold):
    index = vinberg.EquationIndex.from_orbifold(tetra_orbifold)
    kinds = [kind for kind, _ in index.rows()]
    assert kinds == ["e2a"] * 3 + ["e2b"] * 3 + ["e3"] * 3 + ["e1"] * 4
    assert index.e2 == ((1, 3), (1, 4), (2, 4))
    assert index.e3 == ((1, 2), (2, 3), (3, 4))
    assert index.N == 13


def test_jacobian_matches_finite_differences(tetra_orbifold, tetra_point):
    index = vinberg.EquationIndex.from_orbifold(tetra_orbifold)
    M = vinberg.phi_jacobian(index, tetra_point)
    assert M.shape == (13, 32)

    def func(x):
        return vinberg.phi_eval(index, unflatten(x, 4, 4))

    fd = finite_difference_jacobian(func, flatten(tetra_point))
    assert np.abs(fd - M).max() < 1e-5


def test_jacobian_block_layout(tetra_orbifold, tetra_point):
    index = vinberg.EquationIndex.from_orbifold(tetra_orbifold)
    M = vinberg.phi_jacobian(index, tetra_point)
    p = tetra_point
    a = p.cartan()
    # first row: order-2 pair (1,3), first slot: b_3 in alpha-block 1,
    # alpha_1 in b-block 3
    assert np.allclose(M[0, 0:4], p.bs[2])
    assert np.allclose(M[0, (4 + 2) * 4:(4 + 3) * 4], p.alphas[0])
    # product row for (1,2): row index 6
    row = M[6]
    assert np.allclose(row[0:4], a[1, 0] * p.bs[1])
    assert np.allclose(row[4:8], a[0, 1] * p.bs[0])
    assert np.allclose(row[16:20], a[0, 1] * p.alphas[1])
    assert np.allclose(row[20:24], a[1, 0] * p.alphas[0])


def test_gauge_invariance(tetra_orbifold, tetra_point):
    rng = np.random.default_rng(4)
    index = vinberg.EquationIndex.from_orbifold(tetra_orbifold)
    rank0 = numerical_rank(vinberg.phi_jacobian(index, tetra_point)).rank
    for _ in range(20):
        d, g = random_gauge(4, 4, rng)
        moved = apply_gauge(tetra_point, d, g)
        assert np.abs(vinberg.phi_eval(index, moved)).max() < 1e-9
        assert numerical_rank(vinberg.phi_jacobian(index, moved)).rank == rank0


def test_identity_gauge_is_identity(tetra_point):
    moved = apply_gauge(tetra_point, np.ones(4), np.eye(4))
    assert np.allclose(moved.alphas, tetra_point.alphas)
    assert np.allclose(moved.bs, tetra_point.bs)


def test_diagonal_gauge_rescales_cartan(tetra_point):
    rng = np.random.default_rng(8)
    d = np.exp(rng.uniform(-1, 1, 4))
    moved = apply_gauge(tetra_point, d, np.eye(4))
    a0 = tetra_point.cartan()
    a1 = moved.cartan()
    assert np.allclose(a1, (d[:, None] / d[None, :]) * a0)


def test_gauge_rejects_singular_matrix(tetra_point):
    with pytest.raises(vinberg.VinbergError):
        apply_gauge(tetra_point, np.ones(4), np.zeros((4, 4)))


def test_gauge_directions_lie_in_kernel(tetra_orbifold, tetra_point):
    index = vinberg.EquationIndex.from_orbifold(tetra_orbifold)
    M = vinberg.phi_jacobian(index, tetra_point)
    G = vinberg.gauge_directions(tetra_point)
    assert G.shape[0] == vinberg.gauge_dimension(4, 4) == 19
    assert np.abs(M @ G.T).max() < 1e-9
    assert numerical_rank(G).rank == 19


def test_gauge_directions_match_loop_oracle():
    points = [_hyperbolic_case(name)[1] for name in bundled.BUILTIN_NAMES]
    rng = np.random.default_rng(12)
    points += [vinberg.VinbergPoint(rng.normal(size=(f, dim)), rng.normal(size=(f, dim)))
               for f, dim in ((1, 2), (5, 3), (7, 4), (6, 5))]
    for p in points:
        G = vinberg.gauge_directions(p)
        assert G.shape == (vinberg.gauge_dimension(p.f, p.dim), 2 * p.f * p.dim)
        assert G.tobytes() == gauge_directions_oracle(p).tobytes()


def test_numerical_rank_basics():
    assert numerical_rank(np.eye(5)).rank == 5
    u = np.arange(1.0, 5.0)
    assert numerical_rank(np.outer(u, u)).rank == 1
    rr = numerical_rank(np.diag([1.0, 1e-4, 0.0]))
    assert rr.rank == 2 and rr.gap == np.inf


def test_numerical_rank_uncertain_flag():
    rr = numerical_rank(np.diag([1.0, 1e-13]))
    assert rr.rank == 1 and not rr.uncertain  # gap 1e13 is decisive
    # singular values straddling the threshold with a narrow gap are flagged
    rr2 = numerical_rank(np.diag([1.0, 5e-12, 2.2e-12]))
    assert rr2.rank == 2 and rr2.uncertain


def test_psi_rank_formula(tetra_orbifold, tetra_realization):
    M = lorentz.psi_jacobian(tetra_orbifold, tetra_realization.normals)
    c = ob.counts(tetra_orbifold)
    assert numerical_rank(M).rank == c.f + c.e - c.delta == 10


def test_rank_sum_tetrahedron(tetra_orbifold, tetra_point):
    report = vinberg.check_rank_sum(tetra_orbifold, tetra_point)
    assert report.rank_phi.rank == 13
    assert report.rank_psi.rank == 10
    assert report.e2 == 3
    assert report.identity_holds and report.weakly_orderable
    assert report.reduction_zero_block < 1e-9
    assert report.reduction_psi_block < 1e-9
    assert report.staircase_rank == 3
    assert report.reduction_rank_match


def test_rank_sum_esselmann(esselmann_orbifold, esselmann_point):
    report = vinberg.check_rank_sum(esselmann_orbifold, esselmann_point)
    assert report.rank_phi.rank == 28
    assert report.rank_psi.rank == 20
    assert report.identity_holds  # 28 = 20 + 8: weakly orderable, delta != 0
    assert report.staircase_rank == 8
    assert report.reduction_psi_block < 1e-9


def test_rank_sum_doubled_cube_deficient(doubled_cube_orbifold,
                                         doubled_cube_realization):
    p = vinberg.hyperbolic_point(doubled_cube_realization)
    report = vinberg.check_rank_sum(doubled_cube_orbifold, p)
    assert not report.weakly_orderable
    N = vinberg.EquationIndex.from_orbifold(doubled_cube_orbifold).N
    assert report.rank_phi.rank <= N - 1
    assert not report.identity_holds  # rank deficiency from the bending direction
    assert report.reduction_psi_block < 1e-9


RANK_SUM_CASES = list(bundled.BUILTIN_NAMES) + ["loebell16", "prism16"]


def _hyperbolic_case(name):
    defaults = argparse.Namespace(seed_name=None, seed=0, tol=1e-10)
    Q = newton_case(name)
    if name in bundled.BUILTIN_NAMES:
        R = cli._realize(Q, defaults)[0]
    else:
        R = lorentz.solve_hyperbolic_newton(Q)
    return Q, vinberg.hyperbolic_point(R)


@pytest.mark.parametrize("name", RANK_SUM_CASES)
def test_rank_sum_block_form_against_rerank_oracle(name):
    Q, p = _hyperbolic_case(name)
    report = vinberg.check_rank_sum(Q, p)
    staircase, psi, phi = report.staircase_rank, report.rank_psi.rank, report.rank_phi.rank
    assert reduced_rank_oracle(Q, p) == phi
    assert staircase + psi <= phi <= report.e2 + psi
    assert report.reduction_rank_match
    assert report.reduction_zero_block < 1e-9
    assert report.reduction_psi_block < 1e-9
    if staircase == report.e2:
        assert report.identity_holds
    if name == "doubled_cube":  # the staircase is one short, and so is rank D phi
        assert (staircase, report.e2) == (17, 18)
        assert phi == staircase + psi and not report.identity_holds


def _assert_phi_matches_oracle(index, p):
    assert np.array_equal(vinberg.phi_eval(index, p), phi_eval_oracle(index, p))
    assert np.array_equal(vinberg.phi_jacobian(index, p), phi_jacobian_oracle(index, p))


def _random_point(p, rng):
    """A point off the solution set: E2 entries nonzero and a_ij != a_ji, so
    the two weights of an E3 row differ."""
    return vinberg.VinbergPoint(rng.normal(size=(p.f, p.dim)), rng.normal(size=(p.f, p.dim)),
                                p.facets)


@pytest.mark.parametrize("name", RANK_SUM_CASES)
def test_phi_matches_row_loop_oracle(name):
    Q, p = _hyperbolic_case(name)
    index = vinberg.EquationIndex.from_orbifold(Q)
    _assert_phi_matches_oracle(index, p)
    _assert_phi_matches_oracle(index, _random_point(p, np.random.default_rng(41)))


def test_phi_matches_row_loop_oracle_on_bare_pattern():
    A = cartan.CartanMatrix(vinberg.esselmann_family().matrix(1.2, 0.9),
                            orders=vinberg.ESSELMANN_ORDERS)
    index = A.equation_index(5)
    p = cartan.realize_point_from_cartan(A, 5)
    _assert_phi_matches_oracle(index, p)
    _assert_phi_matches_oracle(index, _random_point(p, np.random.default_rng(42)))


def test_rank_sum_rejects_non_solution(tetra_orbifold, tetra_point):
    bad = vinberg.VinbergPoint(tetra_point.alphas * 1.1, tetra_point.bs)
    with pytest.raises(vinberg.VinbergError):
        vinberg.check_rank_sum(tetra_orbifold, bad)


def test_deformation_dimension_tetrahedron(tetra_orbifold, tetra_point):
    report = vinberg.local_deformation_dimension(tetra_orbifold, tetra_point)
    assert report.full_rank
    assert report.deformation_dim == 0 == report.formula_dim
    assert report.gauge_dim == 19


def test_deformation_dimension_cube_patterns(cube_orbifolds, cube_realizations):
    expected = {"cube_rigid": 0, "cube_flex": 1, "cube_mixed": 1}
    for name, Q in cube_orbifolds.items():
        p = vinberg.hyperbolic_point(cube_realizations[name])
        report = vinberg.local_deformation_dimension(Q, p)
        assert report.full_rank
        assert report.deformation_dim == expected[name]
        assert report.deformation_dim == ob.counts(Q).eplus - 3


def test_deformation_dimension_esselmann(esselmann_orbifold, esselmann_point):
    report = vinberg.local_deformation_dimension(esselmann_orbifold, esselmann_point)
    assert not report.full_rank
    assert report.formula_dim == 1            # e+ - n - 2 delta = 7 - 4 - 2
    assert report.kernel_minus_gauge == 2     # tangent cone of the nodal curve


def test_dimension_bookkeeping_identity():
    # 2(n+1)f - N - (f + (n+1)^2 - 1) = e+ - n - 2 delta as exact integers
    for name in bundled.BUILTIN_NAMES:
        Q = bundled.load_builtin(name)
        c = ob.counts(Q)
        n = Q.n
        lhs = 2 * (n + 1) * c.f - c.N - (c.f + (n + 1) ** 2 - 1)
        assert lhs == c.eplus - n - 2 * c.delta


def test_u_membership_passes_at_hyperbolic_point(tetra_orbifold, tetra_point):
    report = vinberg.check_U_membership(tetra_orbifold, tetra_point)
    assert report.passed
    assert np.all(tetra_point.alphas @ report.interior_point > 0)


def test_u_membership_span_failure(tetra_orbifold, tetra_point):
    alphas = tetra_point.alphas.copy()
    alphas[3] = alphas[0] + alphas[1]  # rank drops to 3
    bad = vinberg.VinbergPoint(alphas, tetra_point.bs)
    report = vinberg.check_U_membership(tetra_orbifold, bad)
    assert not report.alphas_span and not report.passed


def test_u_membership_open_condition():
    # synthetic non-adjacent pair with product 3.9 < 4
    index = vinberg.EquationIndex([1, 2], 1, [], {}, [(1, 2)])
    alphas = np.array([[2.0, 0.0], [-1.95, 1.0]])
    bs = np.array([[1.0, 0.0], [-1.0, 0.05]])
    p = vinberg.VinbergPoint(alphas, bs)
    a = p.cartan()
    assert a[0, 1] * a[1, 0] == pytest.approx(3.9)
    report = vinberg.check_U_membership(index, p)
    assert not report.open_condition_ok


def test_u_membership_conditions_match_pair_loop():
    # a Cartan matrix with E3/E4 signs flipped and E4 products pushed below 4,
    # carried by the point alpha = I, b = A^T so that a = A exactly
    Q, p = _hyperbolic_case("loebell5_factor")
    index = vinberg.EquationIndex.from_orbifold(Q)
    A = p.cartan()
    rng = np.random.default_rng(5)
    pos = index.pos
    e4 = rng.permutation(len(index.e4))
    flipped = [index.e3[t] for t in rng.choice(len(index.e3), 3, replace=False)]
    flipped += [index.e4[t] for t in e4[:4]]
    for k, (i, j) in enumerate(flipped):  # a_ij on even k, a_ji on odd k
        A[(pos[i], pos[j])[k % 2], (pos[j], pos[i])[k % 2]] *= -1.0
    for i, j in (index.e4[t] for t in e4[4:9]):
        A[pos[i], pos[j]] *= 3.9 / (A[pos[i], pos[j]] * A[pos[j], pos[i]])
    for q in (p, vinberg.VinbergPoint(np.eye(Q.f), A.T, p.facets)):
        signs_ok, open_ok, failures = open_conditions_oracle(index, q)
        report = vinberg.check_U_membership(Q, q)
        assert (report.signs_ok, report.open_condition_ok) == (signs_ok, open_ok)
        assert [m for m in report.failures
                if m.startswith(("non-negative", "open condition"))] == failures
    assert not signs_ok and not open_ok
    assert sum(m.startswith("non-negative") for m in failures) == 7
    assert sum(m.startswith("open condition") for m in failures) == 9


def test_u_membership_matches_oracle_on_bundled_points():
    defaults = argparse.Namespace(seed_name=None, seed=0, tol=1e-10)
    for name in bundled.BUILTIN_NAMES:
        Q = bundled.load_builtin(name)
        p = vinberg.hyperbolic_point(cli._realize(Q, defaults)[0])
        report = vinberg.check_U_membership(Q, p)
        assert report.has_interior_point is interior_point_oracle(p) is True, name
        assert report.passed, name
        assert np.all(p.alphas @ report.interior_point > 0), name


def test_u_membership_matches_oracle_on_esselmann_cartan_points():
    fam = vinberg.esselmann_family()
    for (x, y), n in [((1.0, 1.0), 4), ((1.2, 0.9), 5), ((0.8, 1.5), 5), ((1.5, 1.5), 5)]:
        A = cartan.CartanMatrix(fam.matrix(x, y), orders=vinberg.ESSELMANN_ORDERS)
        p = cartan.realize_point_from_cartan(A, n)
        report = vinberg.check_U_membership(A.equation_index(n), p)
        assert report.has_interior_point is interior_point_oracle(p) is True, (x, y)


def test_u_membership_affine_point_has_no_interior_point():
    # affine A~1: A = [[2, -2], [-2, 2]] is of zero type; y = (1, 1) has
    # y^T alpha = 0, so no v has alpha_1(v) > 0 and alpha_2(v) > 0
    index = vinberg.EquationIndex([1, 2], 1, [], {}, [(1, 2)])
    p = vinberg.VinbergPoint([[2.0, 0.0], [-2.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])
    assert np.allclose(p.cartan(), [[2, -2], [-2, 2]])
    assert np.all(np.ones(2) @ p.alphas == 0)
    report = vinberg.check_U_membership(index, p)
    assert report.has_interior_point is False
    assert interior_point_oracle(p) is False
    assert "no common interior point" in report.failures and not report.passed


def test_u_membership_undecided_off_solution_set(tetra_orbifold, tetra_point):
    # move the order-2 entries of the Cartan matrix from 0 to +1; the alphas
    # are a basis, so new bs realize it exactly.  An interior point still
    # exists (the alphas span), but neither certificate applies off the
    # solution set
    A = tetra_point.cartan()
    for i, j in tetra_orbifold.e2_pairs():
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
    bad = vinberg.VinbergPoint(tetra_point.alphas, np.linalg.solve(tetra_point.alphas, A).T)
    assert np.allclose(bad.cartan(), A)
    assert np.abs(vinberg.phi_eval(tetra_orbifold, bad)).max() > 0.5
    report = vinberg.check_U_membership(tetra_orbifold, bad)
    assert report.has_interior_point is None
    assert "interior point undecided" in report.failures and not report.passed
    assert interior_point_oracle(bad) is True


def _assert_membership_matches_eig_oracle(Q_or_index, p, hyperbolic):
    """Where the (n+1) x (n+1) factor gives a real eigenvalue below -zero_tol
    it is the whole block's smallest real eigenvalue; at a hyperbolic point
    it gives the block's eigenvector too, and does so for one component.  The
    membership verdict and point equal the whole-block eigensolve's."""
    a = p.cartan()
    zero_tol = cartan.ZERO_TYPE_TOL * np.linalg.norm(a)
    factored = 0
    for comp, lam, u in component_eigenpairs_oracle(p):
        mu, w = vinberg.factored_smallest_real_eigenpair(p.alphas[comp], p.bs[comp])
        if mu < -zero_tol:
            factored += 1
            assert lam is not None and abs(mu - lam) <= 1e-10 * np.linalg.norm(a)
            if hyperbolic:
                assert np.abs(w - u).max() <= 1e-9
    if hyperbolic:
        assert factored == 1
    report = vinberg.check_U_membership(Q_or_index, p)
    has_point, point = interior_point_eig_oracle(p)
    assert report.has_interior_point is has_point
    assert np.allclose(report.interior_point, point, rtol=1e-9, atol=1e-12)


def _off_solution_points(f, dim, rng, count=2):
    return [vinberg.VinbergPoint(rng.normal(size=(f, dim)), rng.normal(size=(f, dim)))
            for _ in range(count)]


def test_factored_membership_matches_eig_oracle_on_bundled():
    rng = np.random.default_rng(23)
    for name in bundled.BUILTIN_NAMES:
        Q, p = _hyperbolic_case(name)
        _assert_membership_matches_eig_oracle(Q, p, True)
        for q in _off_solution_points(Q.f, Q.n + 1, rng):
            _assert_membership_matches_eig_oracle(Q, q, False)
    fam = vinberg.esselmann_family()
    for (x, y), n in [((1.0, 1.0), 4), ((1.2, 0.9), 5), ((0.8, 1.5), 5), ((1.5, 1.5), 5)]:
        A = cartan.CartanMatrix(fam.matrix(x, y), orders=vinberg.ESSELMANN_ORDERS)
        p = cartan.realize_point_from_cartan(A, n)
        _assert_membership_matches_eig_oracle(A.equation_index(n), p, True)


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_factored_membership_matches_eig_oracle_on_families(family):
    rng = np.random.default_rng(29)
    for m in range(5, 33):
        Q, R = family_realization(family, m)
        _assert_membership_matches_eig_oracle(Q, vinberg.hyperbolic_point(R), True)
        for q in _off_solution_points(Q.f, Q.n + 1, rng, 1):
            _assert_membership_matches_eig_oracle(Q, q, False)


def test_family_quintic_identity():
    fam = vinberg.esselmann_family()
    xs = np.linspace(0.5, 2.0, 41)
    for x in xs:
        for y in xs[::8]:
            det = np.linalg.det(fam.matrix(x, y))
            assert det * 2 * x * y == pytest.approx(
                vinberg.esselmann_polynomial(x, y), abs=1e-9)


def test_family_singular_point():
    assert vinberg.esselmann_polynomial(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    grad = vinberg.esselmann_polynomial_gradient(1.0, 1.0)
    assert np.abs(grad).max() < 1e-12
    # cross-check the closed-form gradient by central differences
    h = 1e-6
    for k, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
        fd = (vinberg.esselmann_polynomial(1.0 + dx, 1.0 + dy)
              - vinberg.esselmann_polynomial(1.0 - dx, 1.0 - dy)) / (2 * h)
        assert fd == pytest.approx(grad[k], abs=1e-6)


def test_family_two_branches_cross():
    # the zero set has a node at (1,1): signs alternate around a small circle
    f = vinberg.esselmann_polynomial
    angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    signs = np.sign([f(1 + 0.05 * np.cos(t), 1 + 0.05 * np.sin(t)) for t in angles])
    changes = int(np.sum(signs != np.roll(signs, 1)))
    assert changes == 4


def test_family_curve_contour():
    fam = vinberg.esselmann_family()
    samples = vinberg.family_curve(fam, box=(0.5, 2.0, 0.5, 2.0), res=81)
    assert samples.distance_to(1.0, 1.0) < 0.03
    # both branches appear: contour points on either side of x = 1 near y = 1
    pts = samples.points()
    near = pts[np.abs(pts[:, 1] - 1.0) < 0.2]
    assert (near[:, 0] < 0.97).any() and (near[:, 0] > 1.03).any()


def test_family_parameter_validation():
    fam = vinberg.esselmann_family()
    with pytest.raises(vinberg.VinbergError):
        fam.matrix(1.0)
    with pytest.raises(vinberg.VinbergError):
        fam.matrix(-1.0, 1.0)
    one_param = vinberg.ParametrizedFamily(vinberg.esselmann_base_matrix(), [(1, 4)])
    with pytest.raises(vinberg.VinbergError):
        vinberg.family_curve(one_param)


def test_loebell_pipeline(loebell5_orbifold, loebell5_realization):
    p = vinberg.hyperbolic_point(loebell5_realization)
    report = vinberg.local_deformation_dimension(loebell5_orbifold, p)
    assert report.full_rank and report.deformation_dim == 7
    rs = vinberg.check_rank_sum(loebell5_orbifold, p)
    assert rs.identity_holds


def test_full_jacobian_pattern_reconstruction(tetra_orbifold, tetra_point):
    # rebuild the entire 13x32 matrix from the documented row recipe and
    # compare entrywise; the recipe here is written out independently of the
    # library's block loop
    index = vinberg.EquationIndex.from_orbifold(tetra_orbifold)
    p = tetra_point
    a = p.cartan()
    f, dim = 4, 4
    expected = np.zeros((13, 32))

    def put(row, block, vec):
        expected[row, block * dim:(block + 1) * dim] = vec

    e2 = [(1, 3), (1, 4), (2, 4)]
    e3 = [(1, 2), (2, 3), (3, 4)]
    for r, (i, j) in enumerate(e2):                      # first-slot rows
        put(r, i - 1, p.bs[j - 1])
        put(r, f + j - 1, p.alphas[i - 1])
    for r, (i, j) in enumerate(e2):                      # second-slot rows
        put(3 + r, j - 1, p.bs[i - 1])
        put(3 + r, f + i - 1, p.alphas[j - 1])
    for r, (i, j) in enumerate(e3):                      # product rows
        put(6 + r, i - 1, a[j - 1, i - 1] * p.bs[j - 1])
        put(6 + r, j - 1, a[i - 1, j - 1] * p.bs[i - 1])
        put(6 + r, f + i - 1, a[i - 1, j - 1] * p.alphas[j - 1])
        put(6 + r, f + j - 1, a[j - 1, i - 1] * p.alphas[i - 1])
    for r, i in enumerate((1, 2, 3, 4)):                 # diagonal rows
        put(9 + r, i - 1, p.bs[i - 1])
        put(9 + r, f + i - 1, p.alphas[i - 1])

    assert np.allclose(vinberg.phi_jacobian(index, p), expected, atol=0)
