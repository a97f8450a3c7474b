import argparse
import copy
import gc
import math
import weakref

import numpy as np
import pytest

from coxdeform import bundled, cartan, cli, lorentz, numerics, orbifold as ob, polytope as pt
from coxdeform import vinberg
from coxdeform.numerics import (DEFAULT_RANK_POLICY, BlockRows, RankPolicy, _gamma,
                                numerical_rank)
from conftest import (apply_gauge, cartan_from_point, component_eigenpairs_oracle,
                      components_oracle, det_grid_oracle, family_matrix_oracle,
                      family_realization, finite_difference_jacobian, flatten,
                      gauge_directions_oracle, interior_point_eig_oracle, interior_point_oracle,
                      marching_squares_oracle, newton_case, one_order_changed,
                      open_conditions_oracle, phi_eval_oracle, phi_jacobian_oracle,
                      prism_cap_orbifold, random_gauge, random_lorentz_transform,
                      reduced_rank_oracle, reduction_operators_oracle, traced_peak, unflatten)


def test_hyperbolic_point_solves_equations(tetra_orbifold, tetra_point):
    resid = vinberg.phi_eval(tetra_orbifold, tetra_point)
    assert len(resid) == 13
    assert np.abs(resid).max() < 1e-9
    a = tetra_point.cartan()
    assert np.allclose(np.diag(a), 2.0)
    # adjacent entries are -2 cos(pi/n_ij)
    assert a[0, 1] == pytest.approx(-2 * math.cos(math.pi / 3))
    assert a[1, 2] == pytest.approx(-2 * math.cos(math.pi / 5))


@pytest.mark.parametrize("name", ["cube_rigid", "loebell16"])
def test_equation_index_is_built_once_per_orbifold(monkeypatch, name):
    # dim's rank analysis, the phi structure and U-membership share one
    # cached index, equal to one built from the orbifold's pair lists, and
    # released with the orbifold; its E4 pairs are the polytope's own tuple.
    # On the loebell(16) factor the orbifold goes with what Newton, the
    # rank-sum check, the kernel and U-membership built on the way: its ring
    # rotation, the rotation's orbit system, the row symmetries and D psi's
    # mode form.  The index goes too, although the point, which stored its
    # analysis keyed by the index, lives on
    Q = newton_case(name)
    R = lorentz.solve_hyperbolic_newton(Q)
    p = vinberg.hyperbolic_point(R)
    fresh = vinberg.EquationIndex(Q.base.facets, Q.n, Q.e2_pairs(),
                                  {r: Q.order(*r) for r in Q.e3_pairs()}, Q.e4_pairs())
    built = []
    build = vinberg.EquationIndex.from_orbifold
    monkeypatch.setattr(vinberg.EquationIndex, "from_orbifold",
                        lambda Q: built.append(Q) or build(Q))
    vinberg.local_deformation_dimension(Q, p)
    vinberg.check_rank_sum(Q, p)
    lorentz.kernel_dimension(Q, R.normals)
    vinberg.check_U_membership(Q, p)
    assert built == [Q]
    index = vinberg._as_index(Q)
    assert (index.facets, index.n, index.e2, index.e3_orders, index.e4) == \
        (fresh.facets, fresh.n, fresh.e2, fresh.e3_orders, fresh.e4)
    assert index.e4 is Q.base.nonadjacent_pairs
    S = lorentz.psi_structure(Q)
    if name == "loebell16":
        assert S.rotation.orbit_system is not None and S.rows._modes[1] is not None
        assert None not in index.symmetries
    refs = [weakref.ref(Q), weakref.ref(S), weakref.ref(index)]
    del Q, R, S, built, index
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert not p._analyses


def test_phi_structure_is_built_once_per_index(monkeypatch):
    # D phi's pattern is kept with its equation index, whether the index or
    # its orbifold is passed
    built = []
    init = vinberg.PhiStructure.__init__
    monkeypatch.setattr(vinberg.PhiStructure, "__init__",
                        lambda self, index: built.append(index) or init(self, index))
    Q = bundled.load_builtin("tetrahedron353")
    p = vinberg.hyperbolic_point(lorentz.realize_gram(Q))
    index = vinberg.EquationIndex.from_orbifold(Q)
    for _ in range(2):
        vinberg.phi_matrix(index, p)
        vinberg.phi_jacobian(index, p)
    assert built == [index]
    assert vinberg._as_index(index).phi_structure is index.phi_structure
    vinberg.phi_matrix(Q, p)
    vinberg.phi_jacobian(Q, p)
    vinberg.local_deformation_dimension(Q, p)
    cached = vinberg._as_index(Q)
    assert built == [index, cached]
    assert vinberg._as_index(Q).phi_structure is cached.phi_structure


def test_sign_positions_are_cached_with_the_index():
    # U-membership's flat E3 and E4 positions in the Cartan matrix, built
    # once per index; the descending facet list makes positions differ from
    # facet ids
    cube = pt.cube()
    P = pt.PolytopeCombinatorics(3, (6, 5, 4, 3, 2, 1), cube.ridges, cube.vertices)
    descending = ob.make_orbifold(P, bundled.load_builtin("cube_mixed").orders)
    for Q in (descending, bundled.load_builtin("loebell8_factor"),
              bundled.load_builtin("esselmann")):
        index = vinberg._as_index(Q)
        ij, ji = index.sign_positions
        want_i, want_j = index.positions(index.e3 + index.e4)
        assert np.array_equal(ij, want_i * index.f + want_j)
        assert np.array_equal(ji, want_j * index.f + want_i)
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


def test_membership_and_components_unchanged_by_the_search(monkeypatch):
    """check_U_membership and decompose_components report the same with
    the components of conftest's list search, on the bundled points and on
    both families."""
    cases = [_hyperbolic_case(name) for name in bundled.BUILTIN_NAMES]
    cases += [(Q, vinberg.hyperbolic_point(R)) for Q, R in
              (family_realization(family, m) for family in ("loebell", "prism") for m in (8, 64))]

    def reports():
        return [(vinberg.check_U_membership(Q, p),
                 cartan.decompose_components(cartan_from_point(p, Q))) for Q, p in cases]
    got = reports()
    monkeypatch.setattr(cartan, "_components", lambda pattern: components_oracle(
        {a: np.flatnonzero(row).tolist() for a, row in enumerate(pattern)}, len(pattern)))
    for (membership, comps), (membership0, comps0) in zip(got, reports()):
        assert comps == comps0
        assert membership.has_interior_point == membership0.has_interior_point
        assert np.array_equal(membership.interior_point, membership0.interior_point)
        assert membership[2:] == membership0[2:]


def _gauge_points():
    """The bundled hyperbolic points, both families up to m = 128, and
    seeded random points in dimensions 3 to 5."""
    points = [_hyperbolic_case(name)[1] for name in bundled.BUILTIN_NAMES]
    points += [vinberg.hyperbolic_point(family_realization(family, m)[1])
               for family in ("loebell", "prism") for m in (8, 32, 64, 128)]
    rng = np.random.default_rng(71)
    points += [vinberg.VinbergPoint(rng.normal(size=(f, dim)), rng.normal(size=(f, dim)))
               for f, dim in ((3, 3), (5, 3), (7, 4), (20, 4), (6, 5))]
    return points


def test_gauge_arrow_certificate_matches_dense_decision():
    """The gauge rank from the arrow form equals the decision on the dense
    gauge directions: same rank and method, and the same threshold up to
    the order in which the two diagonals sum the same squares (each trace
    is within gamma_{q+k} of the exact one; cube_mixed's differ by 2.4
    ulps).  The dense form was tried first, so every point certifies."""
    for p in _gauge_points():
        M = vinberg.gauge_matrix(p)
        got, want = numerical_rank(M), numerical_rank(vinberg.gauge_directions(p))
        assert (got.rank, got.method) == (want.rank, want.method) == (M.shape[0], "cholesky")
        assert got.threshold == pytest.approx(want.threshold, rel=_gamma(sum(M.shape)), abs=0)


def _planted_gauge_point(rng, f, dim):
    """A point whose gauge orbit is not free: every b_i lies in w^perp and
    every alpha_i vanishes on some v in w^perp, so X = v w^t is traceless
    and -alpha_i X = 0 = X b_i.  In coordinates w = e_0 and v = e_{dim-1};
    the point is (alphas g^-1, bs g^t) for the returned change of basis g,
    which hides w and v from the coordinate units.  Only the middle
    coordinates enter the Cartan matrix."""
    alphas, bs = rng.normal(size=(f, dim)), rng.normal(size=(f, dim))
    alphas[:, -1] = 0.0
    bs[:, 0] = 0.0
    g = rng.normal(size=(dim, dim))
    return alphas, bs, g


def _axis_gauge_point(rng, f, dim):
    """A point whose alpha_i and b_i lie on the same coordinate axis k(i),
    every axis taken: each traceless diagonal X acts on facet i as the
    rescaling by X_k(i)k(i), so dim - 1 combinations of the traceless and
    the rescaling rows vanish, while the traceless rows alone keep full
    rank.  A random change of basis hides the axes."""
    axis = np.concatenate([np.arange(dim), rng.integers(0, dim, f - dim)])
    scale = rng.uniform(0.5, 2.0, f)
    alphas, bs = np.zeros((f, dim)), np.zeros((f, dim))
    alphas[np.arange(f), axis] = scale
    bs[np.arange(f), axis] = 2.0 / scale
    g = rng.normal(size=(dim, dim))
    return vinberg.VinbergPoint(alphas @ np.linalg.inv(g), bs @ g.T)


def test_gauge_rank_deficiency_found_on_both_paths():
    """At a planted point the traceless direction X = v w^t is a kernel
    direction of the gauge map, so the arrow certificate fails and the SVD
    of the dense gauge directions decides: both paths give a rank of at
    most f + dim^2 - 2.  At an axis point the deficiency, dim - 1, mixes
    the traceless rows with the rescalings, so only the Schur update of
    the arrow form shows it.  A random point of the same size has full
    rank."""
    rng = np.random.default_rng(73)
    for f, dim in ((3, 3), (6, 4), (12, 4), (40, 4), (9, 5)):
        alphas, bs, g = _planted_gauge_point(rng, f, dim)
        planted = vinberg.VinbergPoint(alphas @ np.linalg.inv(g), bs @ g.T)
        for p, deficiency in ((planted, 1), (_axis_gauge_point(rng, f, dim), dim - 1)):
            got = numerical_rank(vinberg.gauge_matrix(p))
            want = numerical_rank(vinberg.gauge_directions(p))
            assert got.method == want.method == "svd"
            assert got.rank == want.rank <= vinberg.gauge_dimension(f, dim) - deficiency
        control = vinberg.VinbergPoint(rng.normal(size=(f, dim)), rng.normal(size=(f, dim)))
        assert numerical_rank(vinberg.gauge_matrix(control)).rank == \
            vinberg.gauge_dimension(f, dim)


def test_dimension_refused_where_gauge_orbit_is_not_free():
    """A solution of the equations of three facets pairwise of order 3
    whose Cartan matrix, the affine [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    of rank 2, is factored through the middle coordinates of R^4, as in
    ``_planted_gauge_point``: the point solves Vinberg's equations, but its
    gauge orbit is not free, and the dimension count refuses it."""
    index = vinberg.EquationIndex((1, 2, 3), 3, (), {(1, 2): 3, (1, 3): 3, (2, 3): 3}, ())
    A = 3.0 * np.eye(3) - 1.0
    lam, V = np.linalg.eigh(A)
    U = V[:, 1:] * np.sqrt(lam[1:])  # A = U U^t
    rng = np.random.default_rng(79)
    alphas, bs, g = _planted_gauge_point(rng, 3, 4)
    alphas[:, 1:3], bs[:, 1:3] = U, U
    p = vinberg.VinbergPoint(alphas @ np.linalg.inv(g), bs @ g.T)
    assert np.abs(vinberg.phi_eval(index, p)).max() < 1e-12
    assert numerical_rank(vinberg.gauge_directions(p)).rank < vinberg.gauge_dimension(3, 4)
    with pytest.raises(vinberg.VinbergError, match="gauge orbit is not free"):
        vinberg.local_deformation_dimension(index, p)


def test_traceless_basis_built_once_per_dimension():
    """The traceless basis is cached per dimension and read-only."""
    basis = vinberg._traceless_basis(4)
    assert vinberg._traceless_basis(4) is basis and not basis.flags.writeable
    assert basis.shape == (15, 2, 4, 4)
    assert np.array_equal(basis[:, 1], basis[:, 0].transpose(0, 2, 1))
    assert not np.trace(basis[:, 0], axis1=1, axis2=2).any()


def test_dimension_report_peak_memory():
    """A warm local_deformation_dimension at the loebell(64) factor, on a
    second point with its Cartan matrix formed, has a traced peak under 1
    MiB: the gauge rank needs no dense (f + 15) x 8f matrix (1.2 MB at f =
    130), and the blocks left to LAPACK are formed in their patterns' work
    arrays."""
    Q, R = family_realization("loebell", 64)
    p = vinberg.hyperbolic_point(R)
    assert vinberg.local_deformation_dimension(Q, p).full_rank  # the patterns' arrays, once
    warm = vinberg.hyperbolic_point(R)  # a point of its own, which has stored no analysis
    warm.cartan()
    report, peak = traced_peak(lambda: vinberg.local_deformation_dimension(Q, warm))
    assert report.deformation_dim == 2 * 64 - 3
    assert peak < 2 ** 20 < (p.f + 15) * 8 * p.f * 8


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


def _assert_block_form(Q, p, R):
    """The reduction R of D phi (``reduced_rank_oracle``) has the block form
    [[A, B], [0, D psi]] up to rounding, with the rows of D psi put in
    EquationIndex order."""
    index = vinberg.EquationIndex.from_orbifold(Q)
    n2, half = len(index.e2), p.f * p.dim
    Dpsi = lorentz.psi_jacobian(Q, p.bs)
    psi_row = {pair: r for r, pair in enumerate(lorentz.psi_rows(Q))}
    order = [psi_row[pair] for _, pair in index.rows()[n2:]]
    assert np.abs(R[n2:, :half]).max() < 1e-9
    assert np.abs(R[n2:, half:] - Dpsi[order]).max() < 1e-9 * np.abs(Dpsi).max()


def test_rank_sum_tetrahedron(tetra_orbifold, tetra_point):
    report = vinberg.check_rank_sum(tetra_orbifold, tetra_point)
    assert report.rank_phi.rank == 13
    assert report.rank_psi.rank == 10
    assert report.e2 == 3
    assert report.identity_holds and report.weakly_orderable
    _assert_block_form(tetra_orbifold, tetra_point,
                       reduced_rank_oracle(tetra_orbifold, tetra_point)[1])
    assert report.staircase_rank == 3
    assert report.reduction_rank_match


def test_rank_sum_esselmann(esselmann_orbifold, esselmann_point):
    report = vinberg.check_rank_sum(esselmann_orbifold, esselmann_point)
    assert report.rank_phi.rank == 28
    assert report.rank_psi.rank == 20
    assert report.identity_holds  # 28 = 20 + 8: weakly orderable, delta != 0
    assert report.staircase_rank == 8
    _assert_block_form(esselmann_orbifold, esselmann_point,
                       reduced_rank_oracle(esselmann_orbifold, esselmann_point)[1])


def test_rank_sum_doubled_cube_deficient(doubled_cube_orbifold,
                                         doubled_cube_realization):
    p = vinberg.hyperbolic_point(doubled_cube_realization)
    report = vinberg.check_rank_sum(doubled_cube_orbifold, p)
    assert not report.weakly_orderable
    N = vinberg.EquationIndex.from_orbifold(doubled_cube_orbifold).N
    assert report.rank_phi.rank <= N - 1
    assert not report.identity_holds  # rank deficiency from the bending direction
    _assert_block_form(doubled_cube_orbifold, p, reduced_rank_oracle(doubled_cube_orbifold, p)[1])


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
    rank, R = reduced_rank_oracle(Q, p)
    assert rank == phi
    assert staircase + psi <= phi <= report.e2 + psi
    assert report.reduction_rank_match
    _assert_block_form(Q, p, R)
    if staircase == report.e2:
        assert report.identity_holds
    if name == "doubled_cube":  # the staircase is one short, and so is rank D phi
        assert (staircase, report.e2) == (17, 18)
        assert phi == staircase + psi and not report.identity_holds


def test_rank_sum_builds_no_dense_matrix_when_certified(monkeypatch):
    # D phi, D psi and the staircase are all decided from their row
    # structure on loebell16, so no BlockRows pattern is made dense
    Q, p = _hyperbolic_case("loebell16")
    built = []
    dense = BlockRows.dense
    monkeypatch.setattr(BlockRows, "dense",
                        lambda self, values: built.append(self.nrows) or dense(self, values))
    report = vinberg.check_rank_sum(Q, p)
    assert report.rank_phi.method == "block" and report.rank_psi.method == "cholesky"
    assert report.identity_holds and report.staircase_rank == report.e2
    assert built == []


# The rows of D psi's and of the staircase's Gram matrices, and of the
# blocks that their level of closed-form pivots leaves to LAPACK.
LEVEL_SIZES = {"loebell16": ([130, 96], [64, 48]),
               "prism16": ([66, 48], [16, 8]),
               "loebell48": ([386, 288], [192, 144]),
               "prism24": ([98, 72], [24, 12]),
               "prism32": ([130, 96], [32, 16]),
               "loebell24": ([194, 144], [96, 72]),
               "loebell32": ([258, 192], [128, 96])}
# Whether D psi's and the staircase's certificates take the mode path: where
# the level leaves at least numerics.MODE_PATH_ROWS rows.  D psi of prism24
# and the staircase of loebell24 leave 72 rows, those of prism32 and
# loebell32 leave 96, on the two sides of the rule.
MODE_PATHS = {"loebell16": (True, False), "prism16": (False, False), "loebell48": (True, True),
              "prism24": (False, False), "prism32": (True, False),
              "loebell24": (True, False), "loebell32": (True, True)}


@pytest.mark.parametrize("name", LEVEL_SIZES)
def test_rank_sum_forms_each_gram_once_when_block_certified(name, monkeypatch):
    """The block certificate assembles the Gram matrices of D psi and of the
    staircase once each, which check_rank_sum reuses, and never D phi's:
    that is read only through its diagonal.  D psi's full (f + e)^2 Gram
    matrix is never formed: its f diagonal rows are eliminated in closed
    form, and so is a greedy matching of the staircase's rows; LAPACK
    factors only what is left, D psi's e x e ridge block and the rest of
    the staircase (``LEVEL_SIZES``), or, where the level leaves enough rows
    for the mode path of the ring rotation (``MODE_PATHS``), the stack of
    mode blocks instead, in one call.  The gauge
    directions' Gram matrix is never formed either: its f rescaling rows
    are eliminated in closed form, and LAPACK factors the (n+1)^2 - 1
    traceless rows' block that is left."""
    family = name.rstrip("0123456789")
    m = int(name[len(family):])
    Q, R = family_realization(family, m)
    p = vinberg.hyperbolic_point(R)
    index = vinberg.EquationIndex.from_orbifold(Q)
    f, e, n2 = index.f, len(index.e2) + len(index.e3), len(index.e2)
    psi_rows = lorentz.psi_structure(Q).rows
    psi_sizes, staircase_sizes = LEVEL_SIZES[name]
    assert [psi_rows.nrows, psi_rows.elimination.size] == psi_sizes == [f + e, e]
    matching = len(index.staircase_rows.elimination.level.pivot_rows)
    assert 0 < matching <= f // 2
    assert [n2, index.staircase_rows.elimination.size] == staircase_sizes
    assert staircase_sizes == [n2, n2 - matching]
    grams, diagonals, factored = [], [], []
    gram, diagonal, cholesky = BlockRows.gram, BlockRows.gram_diagonal, np.linalg.cholesky
    monkeypatch.setattr(BlockRows, "gram", lambda self, values, *hint:
                        grams.append(self.nrows) or gram(self, values, *hint))
    monkeypatch.setattr(BlockRows, "gram_diagonal",
                        lambda self, values: diagonals.append(self.nrows) or diagonal(self, values))
    monkeypatch.setattr(np.linalg, "cholesky", lambda A: factored.append(A.shape) or cholesky(A))
    report = vinberg.check_rank_sum(Q, p)
    assert report.rank_phi.method == "block" and report.rank_phi.full_rank
    assert sorted(grams) == sorted([n2, f + e])
    assert diagonals == [index.N]
    g = p.dim * p.dim - 1  # the traceless block of the gauge directions' arrow form
    expected = [(g, g)]
    for rows, symmetry, last in ((psi_rows, lorentz.psi_structure(Q).symmetry, psi_sizes[-1]),
                                 (index.staircase_rows, index.symmetries[1],
                                  staircase_sizes[-1])):
        form = rows.modes(symmetry)
        assert (form is not None) == MODE_PATHS[name][len(expected) - 1]
        expected.append((last, last) if form is None else form.layout.shape)
    assert sorted(factored) == sorted(expected)


def test_rank_sum_searches_each_pivot_mask_once(monkeypatch):
    """One check_rank_sum on a fresh prism(16) cap orbifold searches the
    level's pivots of D psi's pattern (66 rows) and of the staircase's (16
    rows) once each: the mask, kept on the pattern, serves both the choice
    of the mode path and the level."""
    _, R = family_realization("prism", 16)
    p = vinberg.hyperbolic_point(R)
    Q = prism_cap_orbifold(16)
    searched, independent_rows = [], numerics._independent_rows
    monkeypatch.setattr(numerics, "_independent_rows", lambda m, rows, cols:
                        searched.append(m) or independent_rows(m, rows, cols))
    report = vinberg.check_rank_sum(Q, p)
    assert report.rank_psi.method == "cholesky" and report.identity_holds
    assert sorted(searched) == [16, 66]


@pytest.mark.parametrize("name", RANK_SUM_CASES)
def test_rank_sum_builds_psi_matrix_only_where_undecided(name, monkeypatch):
    """After the dimension report, ``check_rank_sum`` builds D psi's matrix
    only where the stored analysis holds no decision on it, and reports the
    same ``rank_psi`` as one built from that matrix."""
    Q, p = _hyperbolic_case(name)
    vinberg.local_deformation_dimension(Q, p)
    psi = vinberg._phi_analysis(Q, p, DEFAULT_RANK_POLICY)[2]
    calls, original = [], lorentz.psi_matrix
    monkeypatch.setattr(lorentz, "psi_matrix", lambda *args: calls.append(args) or original(*args))
    got = vinberg.check_rank_sum(Q, p).rank_psi
    assert len(calls) == (psi is None)
    M = original(Q, p.bs)
    want = vinberg.jacobian_report("psi", M.shape, psi or numerics.numerical_rank(M))
    for field, value in want._asdict().items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(got, field), value), field
        else:
            assert getattr(got, field) == value, field


def test_reduction_norms_bound_the_oracle_operators():
    """||L||, ||C|| and ||B|| from ``_reduction_norms`` against the
    operations written out as matrices and the B block of R = L (D phi) C.
    ||L|| = 2 from the E1 rows, ||C|| = sqrt(3 + sqrt 5), and the B bound
    lies between ||B||_2 and ||B||_F."""
    for name in RANK_SUM_CASES:
        Q, p = _hyperbolic_case(name)
        index = vinberg.EquationIndex.from_orbifold(Q)
        L, C = reduction_operators_oracle(Q, p)
        R = reduced_rank_oracle(Q, p)[1]
        B = R[:len(index.e2), p.f * p.dim:]
        norm_L, norm_C, norm_B = vinberg._reduction_norms(index, p, p.cartan())
        assert 2.0 <= np.linalg.norm(L, 2) <= norm_L, name
        assert math.sqrt(3.0 + math.sqrt(5.0)) - 1e-12 < np.linalg.norm(C, 2) <= norm_C, name
        if len(index.e2):
            assert np.linalg.norm(B, 2) <= norm_B <= np.linalg.norm(B) * (1.0 + 1e-12), name


def test_one_ulp_off_the_hyperbolic_form_takes_the_phi_path():
    """The block form needs alpha_i = 2 J b_i bit for bit; one ulp off it,
    D phi is certified on its own, with the same rank and threshold."""
    Q, p = _hyperbolic_case("loebell16")
    block = vinberg.check_rank_sum(Q, p)
    alphas = p.alphas.copy()
    alphas[3, 2] = np.nextafter(alphas[3, 2], np.inf)
    off = vinberg.check_rank_sum(Q, vinberg.VinbergPoint(alphas, p.bs, p.facets))
    assert block.rank_phi.method == "block" and off.rank_phi.method == "cholesky"
    assert off.rank_phi.rank == block.rank_phi.rank == vinberg._as_index(Q).N
    assert off.rank_psi.method == "cholesky" and off.identity_holds
    assert off.rank_phi.threshold == pytest.approx(block.rank_phi.threshold, rel=1e-12)


def test_block_certificate_honours_the_policy_threshold():
    """A policy whose threshold sits just below sigma_min(D phi), far above
    the block bound: D phi's own Cholesky certificate decides."""
    Q, p = _hyperbolic_case("loebell16")
    sigma_min = np.linalg.svd(vinberg.phi_jacobian(Q, p), compute_uv=False)[-1]
    base = vinberg.local_deformation_dimension(Q, p)
    assert base.method == "block"
    policy = RankPolicy(rel_tol=1e-12 * 0.8 * sigma_min / base.threshold)
    report = vinberg.local_deformation_dimension(Q, p, policy)
    assert report.method == "cholesky" and report.full_rank
    assert base.threshold < report.threshold < sigma_min


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_block_certificate_holds_at_size_128(family):
    # sigma_min(D psi) falls like 1/m while the target grows, so the split of
    # the floors between A and D psi decides how far the certificate reaches
    Q, R = family_realization(family, 128)
    report = vinberg.check_rank_sum(Q, vinberg.hyperbolic_point(R))
    assert report.rank_phi.method == "block" and report.identity_holds
    assert report.rank_phi.deformation_dim == 2 * 128 - 3


def _assert_phi_matches_oracle(index, p):
    assert np.array_equal(vinberg.phi_eval(index, p), phi_eval_oracle(index, p))
    assert np.array_equal(vinberg.phi_jacobian(index, p), phi_jacobian_oracle(index, p))


def _random_point(p, rng):
    """A point off the solution set: E2 entries nonzero and a_ij != a_ji, so
    the two weights of an E3 row differ."""
    return vinberg.VinbergPoint(rng.normal(size=(p.f, p.dim)), rng.normal(size=(p.f, p.dim)),
                                p.facets)


@pytest.mark.parametrize("name", RANK_SUM_CASES)
def test_staircase_is_the_reduced_e2_block(name):
    # off the solution set alpha_j != 2 J b_j, so the two blocks of each row
    # are told apart there
    Q, p = _hyperbolic_case(name)
    index = vinberg.EquationIndex.from_orbifold(Q)
    for q in (p, _random_point(p, np.random.default_rng(43))):
        R = reduced_rank_oracle(Q, q)[1]
        staircase = vinberg.e2_staircase(index, q).build()
        assert np.array_equal(staircase, R[:len(index.e2), :q.f * q.dim])


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


def _renamed_case(Q, p):
    """Q with facet x renamed 3 x + 7 and the facets listed in descending
    order, so that no name is its position, and p with its rows in that
    order."""
    P = Q.base
    name = {x: 3 * x + 7 for x in P.facets}
    facets = sorted(name.values(), reverse=True)
    renamed = pt.PolytopeCombinatorics(
        P.n, facets, [(name[i], name[j]) for i, j in P.ridges],
        [frozenset(name[x] for x in V) for V in P.vertices])
    R = ob.make_orbifold(renamed, {(name[i], name[j]): m for (i, j), m in Q.orders.items()})
    rows = [P.facets.index((x - 7) // 3) for x in facets]
    return R, vinberg.VinbergPoint(p.alphas[rows], p.bs[rows], tuple(facets))


def test_u_membership_conditions_match_pair_loop():
    # a Cartan matrix with E3/E4 signs flipped and E4 products pushed below 4,
    # carried by the point alpha = I, b = A^T so that a = A exactly; on
    # loebell5_factor, the loebell(64) factor and a renamed copy of it
    Q5, p5 = _hyperbolic_case("loebell5_factor")
    Q64, R64 = family_realization("loebell", 64)
    p64 = vinberg.hyperbolic_point(R64)
    rng = np.random.default_rng(5)
    for Q, p in ((Q5, p5), (Q64, p64), _renamed_case(Q64, p64)):
        index = vinberg.EquationIndex.from_orbifold(Q)
        A = p.cartan().copy()
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


def test_cartan_matrix_formed_once_per_point(monkeypatch):
    """local_deformation_dimension, check_rank_sum and check_U_membership at
    the loebell(64) factor read one Cartan matrix of the point, formed once
    and read-only; check_U_membership, which forms the E4 products in
    place, leaves it as it was."""
    Q, R = family_realization("loebell", 64)
    p = vinberg.hyperbolic_point(R)
    calls, formed, cartan_of = [], [], vinberg.VinbergPoint.cartan

    def counted(self):
        a = cartan_of(self)
        calls.append(a)
        if not any(a is b for b in formed):
            formed.append(a)
        return a
    monkeypatch.setattr(vinberg.VinbergPoint, "cartan", counted)
    vinberg.local_deformation_dimension(Q, p)
    vinberg.check_rank_sum(Q, p)
    assert vinberg.check_U_membership(Q, p).passed
    assert len(calls) >= 3 and len(formed) == 1
    assert not formed[0].flags.writeable
    assert np.array_equal(formed[0], p.alphas @ p.bs.T)


def _fields(x):
    """A report, rank decision or tuple of them as nested lists, with each
    array as its dtype, shape and bytes, for comparison with ==."""
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return [_fields(v) for v in x]
    return x


@pytest.mark.parametrize("name", RANK_SUM_CASES)
def test_rank_analysis_made_once_per_point(name, monkeypatch):
    """local_deformation_dimension and then check_rank_sum at one point,
    orbifold and policy analyse D phi once: the block decisions run once,
    and the rank sum reports the dimension report itself.  Its report
    equals that of a fresh point with the same alphas and bs."""
    Q, p = _hyperbolic_case(name)
    made, decide = [], vinberg._block_decisions
    monkeypatch.setattr(vinberg, "_block_decisions",
                        lambda *args: made.append(args[1]) or decide(*args))
    report = vinberg.local_deformation_dimension(Q, p)
    rank_sum = vinberg.check_rank_sum(Q, p)
    assert len(made) == 1
    assert rank_sum.rank_phi is report
    fresh = vinberg.check_rank_sum(Q, vinberg.VinbergPoint(p.alphas, p.bs, p.facets))
    assert len(made) == 2
    assert _fields(rank_sum) == _fields(fresh)


def test_rank_analysis_kept_apart_by_policy():
    """A point stores one analysis per policy: a looser policy gets an
    analysis of its own, with its own threshold, equal to a fresh point's,
    which a repeat returns, here and in check_rank_sum."""
    Q, p = _hyperbolic_case("loebell16")
    base = vinberg.local_deformation_dimension(Q, p)
    loose = RankPolicy(rel_tol=1e-10)
    report = vinberg.local_deformation_dimension(Q, p, loose)
    assert report is not base and report.threshold > base.threshold
    fresh = vinberg.VinbergPoint(p.alphas, p.bs, p.facets)
    assert _fields(report) == _fields(vinberg.local_deformation_dimension(Q, fresh, loose))
    assert vinberg.local_deformation_dimension(Q, p, loose) is report
    assert vinberg.check_rank_sum(Q, p, loose).rank_phi is report
    assert vinberg.check_rank_sum(Q, p).rank_phi is base


def test_rank_analysis_kept_apart_by_orbifold():
    """A point stores one analysis per orbifold: at an orbifold with one
    order changed, whose equations the point does not solve, it is refused
    on every call after it stored Q's analysis, by
    local_deformation_dimension and check_rank_sum alike, and nothing is
    stored for it."""
    Q, p = _hyperbolic_case("loebell16")
    base = vinberg.local_deformation_dimension(Q, p)
    changed = one_order_changed(Q)
    for _ in range(2):
        for check in (vinberg.local_deformation_dimension, vinberg.check_rank_sum):
            with pytest.raises(vinberg.VinbergError, match="point is not a solution"):
                check(changed, p)
    assert [(index, list(stored)) for index, stored in p._analyses.items()] == \
        [(vinberg._as_index(Q), [DEFAULT_RANK_POLICY])]
    assert vinberg.check_rank_sum(Q, p).rank_phi is base


@pytest.mark.parametrize("name", ["esselmann", "loebell16"])
def test_stored_analysis_cannot_change_under_the_caller(name):
    """The report a point stores is read-only, and no field of it, or of
    the decisions on D psi and the staircase stored with it, shares memory
    with a pattern's work arrays: the analysis of a second solution of the
    same orbifold, the first moved by a Lorentz boost, whose certificates
    form their blocks in those arrays again, leaves the first analysis as
    a deep copy saw it.  On esselmann D phi is rank-deficient and the SVD
    decides, so the report keeps its spectrum; on the loebell(16) factor
    the block certificate decides."""
    Q, p = _hyperbolic_case(name)
    report = vinberg.local_deformation_dimension(Q, p)
    stored = vinberg._phi_analysis(Q, p, DEFAULT_RANK_POLICY)[1:]
    assert stored[0] is report
    assert report.method == ("svd" if name == "esselmann" else "block")
    assert len(report.singular_values) == (report.shape[0] if name == "esselmann" else 0)
    with pytest.raises(ValueError, match="read-only"):
        report.singular_values[...] = 0.0
    before = copy.deepcopy(stored)
    g = random_lorentz_transform(p.dim, np.random.default_rng(73))
    moved = vinberg.hyperbolic_point(lorentz.HyperbolicRealization(Q, p.bs @ g.T))
    other = vinberg.check_rank_sum(Q, moved)
    assert other.rank_phi.rank == report.rank
    if name == "esselmann":
        assert not np.array_equal(other.rank_phi.singular_values, report.singular_values)
    assert vinberg._phi_analysis(Q, p, DEFAULT_RANK_POLICY)[1] is report
    assert _fields(stored) == _fields(before)


def test_u_membership_allocates_no_square_temporary():
    """A warm check_U_membership at the loebell(64) factor (f = 130) traces
    a peak under its own Cartan product (f^2 doubles), one float per E4
    pair and 16 KiB: the nonzero pattern, the scale and the norm need no f
    x f float temporary, the sign checks gather from boolean masks, and the
    E4 products are formed in place, with one gather of e4 entries.  |a|
    and two E4 gathers beside their product exceed it."""
    Q, R = family_realization("loebell", 64)
    p = vinberg.hyperbolic_point(R)
    index = vinberg._as_index(Q)
    assert vinberg.check_U_membership(Q, p).passed  # the index's positions, once
    report, peak = traced_peak(lambda: vinberg.check_U_membership(Q, p))
    assert report.passed
    assert peak < 8 * p.f * p.f + 8 * len(index.e4) + 2 ** 14


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
    A = tetra_point.cartan().copy()
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


def test_family_matrix_broadcasts():
    fam = vinberg.esselmann_family()
    base = fam.base.copy()
    X, Y = np.meshgrid(np.linspace(0.3, 2.5, 7), np.linspace(0.4, 1.9, 5))
    stack = fam.matrix(X, Y)
    assert stack.shape == (5, 7, 6, 6)
    for r, c in np.ndindex(X.shape):
        assert np.array_equal(stack[r, c], family_matrix_oracle(fam, X[r, c], Y[r, c]))
    assert np.array_equal(fam.matrix(X[0], Y[:, :1]), stack)
    assert fam.matrix(1.3, 0.7).shape == (6, 6)
    assert np.array_equal(fam.matrix(1.3, 0.7), family_matrix_oracle(fam, 1.3, 0.7))
    for bad in (np.where(Y > 1.5, 0.0, Y), np.where(Y > 1.5, -1.0, Y)):
        with pytest.raises(vinberg.VinbergError, match="^family parameters must be positive$"):
            fam.matrix(X, bad)
        with pytest.raises(vinberg.VinbergError, match="^family parameters must be positive$"):
            fam.matrix(bad, Y)
    for bad in (np.where(Y > 1.5, np.nan, Y), np.where(Y > 1.5, np.inf, Y), np.nan, np.inf):
        with pytest.raises(vinberg.VinbergError, match="^family parameters must be finite$"):
            fam.matrix(X, bad)
    assert np.array_equal(fam.base, base)
    # pair products other than 1 (the Esselmann pairs have a_14 a_41 = 1)
    fam = vinberg.ParametrizedFamily(base, [(1, 2), (5, 6)])
    stack = fam.matrix(X, Y)
    for r, c in np.ndindex(X.shape):
        assert np.array_equal(stack[r, c], family_matrix_oracle(fam, X[r, c], Y[r, c]))


def test_det_grid_and_contour_match_per_cell_oracles():
    # the det grid equals the per-point determinants bit for bit, and the
    # segments equal those of the contour that visits every cell
    fam = vinberg.esselmann_family()
    for box in [(0.5, 2.0, 0.5, 2.0), (0.9, 1.1, 0.95, 1.2), (2.5, 0.3, 1.5, 0.4)]:
        for res in (2, 5, 61, 101):
            samples = vinberg.family_curve(fam, box=box, res=res)
            xs, ys = np.linspace(*box[:2], res), np.linspace(*box[2:], res)
            assert np.array_equal(samples.xs, xs) and np.array_equal(samples.ys, ys)
            assert np.array_equal(samples.values, det_grid_oracle(fam, xs, ys))
            segments = marching_squares_oracle(xs, ys, samples.values)
            assert repr(samples.segments) == repr(segments), (box, res)
            assert len(segments) > 0 or res == 2


def test_marching_squares_matches_all_cells_oracle():
    rng = np.random.default_rng(29)
    xs, ys = np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 2.0, 7)
    fields = []
    for _ in range(12):
        v = rng.normal(size=(7, 9))
        fields.append(v)
        corner = v.copy()
        corner[3, 4] = 0.0
        fields.append(corner)
        edge = v.copy()
        edge[2, 1:3] = 0.0
        edge[4:6, 7] = 0.0
        fields.append(edge)
        row = v.copy()
        row[rng.integers(7)] = 0.0
        fields.append(row)
        neg_zero = v.copy()
        neg_zero[rng.random(v.shape) < 0.2] = -0.0
        fields.append(neg_zero)
        nan = v.copy()
        nan[rng.random(v.shape) < 0.1] = np.nan
        fields.append(nan)
        fields.append(rng.choice([-1.0, -0.0, 0.0, 1.0, np.nan], size=v.shape))
    fields += [np.ones((7, 9)), -np.ones((7, 9)), np.zeros((7, 9)), np.full((7, 9), -0.0)]
    crossed = 0
    for v in fields:
        segments = vinberg.marching_squares(xs, ys, v)
        assert repr(segments) == repr(marching_squares_oracle(xs, ys, v))
        crossed += bool(segments)
    assert crossed == len(fields) - 2       # only the constant +-1 fields are quiet


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


def test_orbifold_verdicts_found_once_per_orbifold(monkeypatch):
    """The counts and the weak-orderability verdict depend on the orbifold
    alone: after a first dimension report and rank sum, further ones at new
    points of the same realization find neither again, and give the same
    answers."""
    calls = []
    counts, weakly = ob.counts, ob.is_weakly_orderable
    monkeypatch.setattr(ob, "counts", lambda Q: calls.append("counts") or counts(Q))
    monkeypatch.setattr(ob, "is_weakly_orderable",
                        lambda Q: calls.append("weak order") or weakly(Q))
    Q = ob.make_orbifold(pt.loebell(16), family_realization("loebell", 16)[0].orders)
    R = lorentz.solve_hyperbolic_newton(Q)
    p = vinberg.hyperbolic_point(R)
    first = vinberg.local_deformation_dimension(Q, p), vinberg.check_rank_sum(Q, p)
    assert sorted(calls) == ["counts", "weak order"]
    calls.clear()
    for _ in range(2):
        p = vinberg.hyperbolic_point(R)
        again = vinberg.local_deformation_dimension(Q, p), vinberg.check_rank_sum(Q, p)
        assert again[0].formula_dim == first[0].formula_dim == counts(Q).eplus - 3
        assert again[1].weakly_orderable == first[1].weakly_orderable == weakly(Q)
    assert calls == []
