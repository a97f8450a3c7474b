import argparse
import math

import numpy as np
import pytest

from coxdeform import bundled, cli, lorentz, orbifold as ob, polytope as pt, vinberg
from coxdeform.numerics import numerical_rank
from conftest import (family_realization, finite_difference_jacobian, gauss_newton_step_oracle,
                      loebell_factor_orbifold, newton_case, newton_lstsq_oracle, psi_eval_oracle,
                      psi_jacobian_oracle, random_lorentz_transform, relabelled,
                      seed_structure_oracle, vertex_point)


def simplex_orbifold(orders_by_pair):
    P = pt.simplex(3)
    orders = {r: 2 for r in P.ridges}
    orders.update(orders_by_pair)
    return ob.CoxeterOrbifold(P, orders)


def test_gram_matrix_entries(tetra_orbifold):
    G = lorentz.gram_matrix(tetra_orbifold)
    assert np.allclose(np.diag(G), 1.0)
    assert G[0, 1] == pytest.approx(-math.cos(math.pi / 3))   # order 3
    assert G[1, 2] == pytest.approx(-math.cos(math.pi / 5))   # order 5
    assert G[0, 2] == pytest.approx(0.0)                      # order 2
    assert not np.isnan(G).any()


def test_gram_matrix_marks_unknown_entries():
    P = pt.cube()
    Q = ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges})
    G = lorentz.gram_matrix(Q)
    assert np.isnan(G[0, 1])  # caps not adjacent
    assert G[0, 2] == pytest.approx(0.0)


def test_realize_simplex(tetra_orbifold, tetra_realization):
    R = tetra_realization
    assert R.residual_norm < 1e-10
    assert all(R.vertex_flags.values())
    G = lorentz.gram_matrix(tetra_orbifold)
    assert np.abs(lorentz.lorentz_gram(R.normals) - G).max() < 1e-10
    lam = np.linalg.eigvalsh(G)
    assert np.sum(lam < 0) == 1


def test_realize_simplex_wrong_signature():
    # all orders 2: the group is finite (a sphere quotient), Gram is identity
    Q = simplex_orbifold({})
    with pytest.raises(lorentz.RealizationError, match="signature"):
        lorentz.realize_simplex(Q)


def test_realize_simplex_zero_type():
    # linear diagram with orders 4, 3, 4: the Euclidean reflection simplex
    Q = simplex_orbifold({(1, 2): 4, (2, 3): 3, (3, 4): 4})
    with pytest.raises(lorentz.RealizationError, match="zero type"):
        lorentz.realize_simplex(Q)


def test_realize_gram_esselmann(esselmann_realization):
    R = esselmann_realization
    assert R.residual_norm < 1e-10
    assert R.normals.shape == (6, 5)
    assert all(R.vertex_flags.values())


def test_psi_residual_zero_and_perturbation(tetra_orbifold, tetra_realization):
    resid = lorentz.psi_eval(tetra_orbifold, tetra_realization.normals)
    assert len(resid) == 10  # f + e = 4 + 6
    assert np.abs(resid).max() < 1e-10
    rng = np.random.default_rng(0)
    direction = rng.normal(size=(4, 4))
    norms = []
    for eps in (1e-4, 1e-5):
        r = lorentz.psi_eval(tetra_orbifold,
                             tetra_realization.normals + eps * direction)
        norms.append(np.linalg.norm(r))
    # first order in the perturbation: ratio tracks eps
    assert norms[0] / norms[1] == pytest.approx(10.0, rel=0.05)


def test_psi_row_order(tetra_orbifold):
    rows = lorentz.psi_rows(tetra_orbifold)
    assert rows[:4] == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert rows[4:] == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_psi_jacobian_blocks_and_fd(tetra_orbifold, tetra_realization):
    nus = tetra_realization.normals
    M = lorentz.psi_jacobian(tetra_orbifold, nus)
    assert M.shape == (10, 16)
    J = lorentz.LorentzForm(4).matrix
    alphas = 2.0 * nus @ J
    # diagonal row for facet 1 carries 2 alpha_1 in block 1
    assert np.allclose(M[0, :4], 2 * alphas[0])
    assert np.allclose(M[0, 4:], 0)
    # ridge row (1,2) carries alpha_2 in block 1 and alpha_1 in block 2
    assert np.allclose(M[4, :4], alphas[1])
    assert np.allclose(M[4, 4:8], alphas[0])

    def func(x):
        return lorentz.psi_eval(tetra_orbifold, x.reshape(4, 4))

    fd = finite_difference_jacobian(func, nus.ravel())
    assert np.abs(fd - M).max() < 1e-6


def test_psi_kernel_dimension(tetra_realization, tetra_orbifold):
    assert lorentz.kernel_dimension(tetra_orbifold, tetra_realization.normals) == 6


def test_newton_from_exact_start(tetra_orbifold, tetra_realization):
    R = lorentz.solve_hyperbolic_newton(tetra_orbifold, tetra_realization.normals)
    assert R.residual_norm < 1e-10


def test_newton_doubled_cube(doubled_cube_realization):
    R = doubled_cube_realization
    assert R.residual_norm < 1e-10
    assert all(R.vertex_flags.values())
    assert all(v < -1.0 for v in R.nonadjacent_products.values())


def test_newton_divergence_reported(doubled_cube_orbifold):
    rng = np.random.default_rng(123)
    bad = rng.normal(size=(9, 4))
    with pytest.raises(lorentz.ConvergenceError):
        lorentz.solve_hyperbolic_newton(doubled_cube_orbifold, bad, max_iter=40)


def test_lorentz_invariance(tetra_orbifold, tetra_realization):
    # residuals stay zero and the rank/kernel of the Jacobian is unchanged
    # (individual singular values are not invariant: the Jacobian transforms
    # by a block boost, which is not Euclidean-orthogonal)
    rng = np.random.default_rng(2)
    nus = tetra_realization.normals
    r0 = numerical_rank(lorentz.psi_jacobian(tetra_orbifold, nus)).rank
    assert r0 == 10
    for _ in range(5):
        g = random_lorentz_transform(4, rng)
        J = lorentz.LorentzForm(4).matrix
        assert np.abs(g.T @ J @ g - J).max() < 1e-10
        assert g[0, 0] > 0  # time-orientation preserving
        moved = nus @ g.T
        assert np.abs(lorentz.psi_eval(tetra_orbifold, moved)).max() < 1e-10
        assert numerical_rank(lorentz.psi_jacobian(tetra_orbifold, moved)).rank == r0
        assert lorentz.kernel_dimension(tetra_orbifold, moved) == 6


def test_random_lorentz_transform_rejects_time_reversal():
    # at scale 3 the boost of this draw has rapidity above 2, where the
    # Cayley map leaves the time-orientation preserving component
    with pytest.raises(ValueError, match="reverses time"):
        random_lorentz_transform(4, np.random.default_rng(1), scale=3.0)


def test_seed_library_available():
    for gen, name in [(pt.cube, "prism"), (pt.dodecahedron, "loebell"),
                      (pt.doubled_cube, "doubled_cube")]:
        P = gen()
        Q = ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges})
        guess = lorentz.initial_guess(Q, name)
        assert guess.shape == (P.f, 4)
        # seeds are unit spacelike vectors
        norms = np.diag(lorentz.lorentz_gram(guess))
        assert np.all(norms > 0)


def test_seed_inference_no_match():
    P = pt.truncate_vertex(pt.cube(), 0)
    Q = ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges})
    with pytest.raises(lorentz.RealizationError, match="seed"):
        lorentz.initial_guess(Q)


def test_seed_table_detects_each_structure_once(monkeypatch):
    calls = []

    def counted(name, detect):
        def run(P):
            calls.append(name)
            return detect(P)
        return run

    for name, (detect, seed, kind) in list(lorentz._SEEDS.items()):
        monkeypatch.setitem(lorentz._SEEDS, name, (counted(name, detect), seed, kind))
    # inference tries the doubled cube, then the prism, then the two rings
    order = ["doubled_cube", "prism", "loebell"]
    for builtin, name in [("cube_flex", "prism"), ("doubled_cube", "doubled_cube"),
                          ("loebell6_factor", "loebell"), ("loebell5_factor", "loebell")]:
        Q = bundled.load_builtin(builtin)
        calls.clear()
        inferred = lorentz.initial_guess(Q)
        assert calls == order[:order.index(name) + 1]
        calls.clear()
        assert np.array_equal(lorentz.initial_guess(Q, name), inferred) and calls == [name]
    Q = bundled.load_builtin("cube_flex")
    assert np.array_equal(lorentz.initial_guess(Q, "cube"), lorentz.initial_guess(Q))
    refusals = [("cube_flex", "loebell", "polytope does not have two-ring combinatorics"),
                ("cube_flex", "doubled_cube", "polytope does not have doubled-cube combinatorics"),
                ("loebell6_factor", "cube", "polytope does not have prism combinatorics"),
                ("cube_flex", "simplex", "base polytope is not a simplex"),
                ("cube_flex", "bogus", "unknown seed name 'bogus'")]
    for builtin, name, message in refusals:
        with pytest.raises(lorentz.RealizationError) as info:
            lorentz.initial_guess(bundled.load_builtin(builtin), name)
        assert str(info.value) == message


def test_vertex_points_inside_ball(loebell5_realization):
    R = loebell5_realization
    form = lorentz.LorentzForm(4)
    for V in R.Q.base.vertices:
        x = vertex_point(R, V)
        assert x[0] == pytest.approx(1.0)
        assert form.inner(x, x) < 0


def test_degenerate_euclidean_cube_rejected():
    # all right angles: Newton converges onto the solution manifold, but the
    # opposite-face products sit on the divergence boundary (asymptotic
    # hyperplanes), so the realization is rejected
    P = pt.cube()
    Q = ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges})
    with pytest.raises((lorentz.RealizationError, lorentz.ConvergenceError)):
        lorentz.solve_hyperbolic_newton(Q)


# -- the Gram-system Gauss-Newton step against the SVD least-squares oracle ---

# the bundled orbifolds that cli._realize solves by Newton, and two larger ones
NEWTON_CASES = ["cube_flex", "cube_mixed", "cube_rigid", "doubled_cube", "loebell5_factor",
                "loebell6_factor", "loebell7_factor", "loebell8_factor", "loebell16", "prism16"]


@pytest.mark.parametrize("name", NEWTON_CASES)
def test_newton_matches_lstsq_oracle(name):
    Q = newton_case(name)
    seed = lorentz.initial_guess(Q)
    R = lorentz.solve_hyperbolic_newton(Q, seed)
    oracle = lorentz.HyperbolicRealization(Q, newton_lstsq_oracle(Q, seed), validate=False)
    # the Gram matrix is gauge-invariant; the normals themselves are not
    assert np.abs(lorentz.lorentz_gram(R.normals)
                  - lorentz.lorentz_gram(oracle.normals)).max() < 1e-9
    assert R.vertex_flags == oracle.vertex_flags


def _rank_deficient_seeds(Q):
    """The seed with facet 1's normal set to 0, and one with every normal equal."""
    seed = lorentz.initial_guess(Q)
    zeroed = seed.copy()
    zeroed[Q.base.facets.index(1)] = 0.0
    return zeroed, np.tile(seed[0], (Q.f, 1))


def test_newton_rank_deficient_jacobian(cube_orbifolds):
    Q = cube_orbifolds["cube_flex"]
    zeroed, equal = _rank_deficient_seeds(Q)
    for x in (zeroed, equal):
        assert numerical_rank(lorentz.psi_jacobian(Q, x)).rank < Q.f + Q.base.e
    # the shifted Gram system stays solvable where J J^t is singular
    R = lorentz.solve_hyperbolic_newton(Q, zeroed)
    assert R.residual_norm < 1e-10
    with pytest.raises(lorentz.ConvergenceError):
        lorentz.solve_hyperbolic_newton(Q, equal)


@pytest.mark.parametrize("name", NEWTON_CASES)
def test_psi_structure_matches_row_loop(name):
    Q = newton_case(name)
    seed = lorentz.initial_guess(Q)
    points = [seed, lorentz.solve_hyperbolic_newton(Q, seed).normals]
    if name == "cube_flex":
        points += _rank_deficient_seeds(Q)
    for x in points:
        assert np.abs(lorentz.psi_eval(Q, x) - psi_eval_oracle(Q, x)).max() < 1e-14
        assert np.abs(lorentz.psi_jacobian(Q, x) - psi_jacobian_oracle(Q, x)).max() < 1e-14


def _assert_step_matches_full_solve(Q, x):
    """The Schur step equals the full-system solve to 1e-12 relative, or to
    4 kappa(G) u where the shifted system G is worse conditioned: both are
    backward-stable solves of G, so each is accurate only to about
    kappa(G) u."""
    S = lorentz.psi_structure(Q)
    r = S.eval(x)
    step = S.gauss_newton_step(lorentz._alphas(x), r)
    ref, G = gauss_newton_step_oracle(Q, x, r)
    tol = max(1e-12, 4.0 * np.linalg.cond(G) * 2.0 ** -53)
    assert np.linalg.norm(step - ref) <= tol * np.linalg.norm(ref)


def _step_points(x, rng):
    """x, two perturbations of it and one random point."""
    return [x, x + 0.05 * rng.normal(size=x.shape), x + 0.05 * rng.normal(size=x.shape),
            rng.normal(size=x.shape)]


@pytest.mark.parametrize("name", NEWTON_CASES + ["esselmann", "tetrahedron353"])
def test_schur_step_matches_full_solve(name):
    Q = newton_case(name)
    if name in bundled.BUILTIN_NAMES:
        R = cli._realize(Q, argparse.Namespace(seed_name=None, seed=0, tol=1e-10))[0]
    else:
        R = lorentz.solve_hyperbolic_newton(Q)
    rng = np.random.default_rng(17)
    points = _step_points(R.normals, rng)
    if name in NEWTON_CASES:
        points.append(lorentz.initial_guess(Q))
    for x in points:
        _assert_step_matches_full_solve(Q, x)


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_schur_step_matches_full_solve_on_families(family):
    rng = np.random.default_rng(19)
    for m in range(5, 33):
        Q, R = family_realization(family, m)
        for x in _step_points(R.normals, rng) + [lorentz.initial_guess(Q)]:
            _assert_step_matches_full_solve(Q, x)


def _dimension_report(Q):
    R = lorentz.solve_hyperbolic_newton(Q)
    rank_sum = vinberg.check_rank_sum(Q, vinberg.hyperbolic_point(R))
    return rank_sum.rank_phi.deformation_dim, rank_sum.rank_phi.rank, rank_sum.rank_psi.rank


def test_newton_independent_of_facet_labels():
    P = pt.loebell(16)
    base = _dimension_report(loebell_factor_orbifold(P))
    assert base[0] == 29  # 2m - 3
    rng = np.random.default_rng(20)
    for _ in range(8):
        assert _dimension_report(loebell_factor_orbifold(relabelled(P, rng))) == base


def test_newton_loebell128():
    Q = loebell_factor_orbifold(pt.loebell(128))
    R = lorentz.solve_hyperbolic_newton(Q)
    assert R.check_valid()
    assert lorentz.kernel_dimension(Q, R.normals) == 6


# -- batched realization checks and seed detection against their oracles -----

def _realization_matches_oracle(R):
    """vertex_flags against ``vertex_point`` per vertex, and the non-adjacent
    products against the Gram matrix at ``e4_pairs``, both in their order."""
    Q, form = R.Q, lorentz.LorentzForm(R.dim)
    flags = {V: bool(form.inner(vertex_point(R, V), vertex_point(R, V)) < 0)
             for V in Q.base.vertices}
    pos = {facet: k for k, facet in enumerate(Q.base.facets)}
    gram = lorentz.lorentz_gram(R.normals)
    products = {(i, j): float(gram[pos[i], pos[j]]) for i, j in Q.e4_pairs()}
    assert list(R.vertex_flags.items()) == list(flags.items())
    assert list(R.nonadjacent_products.items()) == list(products.items())
    return flags


def test_vertex_flags_match_vertex_point_oracle():
    defaults = argparse.Namespace(seed_name=None, seed=0, tol=1e-10)
    for name in bundled.BUILTIN_NAMES:
        Q = bundled.load_builtin(name)
        if Q.n == 3:
            assert all(_realization_matches_oracle(cli._realize(Q, defaults)[0]).values())
    R = lorentz.solve_hyperbolic_newton(loebell_factor_orbifold(pt.loebell(64)))
    assert all(_realization_matches_oracle(R).values())
    rng = np.random.default_rng(9)
    seen = set()
    for Q in (bundled.load_builtin("cube_flex"), loebell_factor_orbifold(pt.loebell(8))):
        for _ in range(4):
            normals = rng.normal(size=(Q.f, 4))
            R = lorentz.HyperbolicRealization(Q, normals, validate=False)
            seen |= set(_realization_matches_oracle(R).values())
    assert seen == {True, False}


def _seed_polytopes():
    rng = np.random.default_rng(31)
    base = [bundled.load_builtin(name).base for name in bundled.BUILTIN_NAMES]
    base += [pt.prism(m) for m in (3, 4, 5, 8, 16, 64)]
    base += [pt.loebell(m) for m in (5, 6, 8, 16, 64)]
    base += [pt.cube(), pt.dodecahedron(), pt.doubled_cube()]
    out = []
    for P in base:
        out.append(P)
        if P.n == 3:
            out += [relabelled(P, rng), pt.truncate_vertex(P, 0)]
    return out


def test_seed_structures_match_adjacency_oracle():
    found = [0, 0]
    for P in _seed_polytopes():
        got = (lorentz._prism_structure(P), lorentz._loebell_structure(P))
        assert got == seed_structure_oracle(P)
        found = [k + (g is not None) for k, g in zip(found, got)]
    assert min(found) > 0
