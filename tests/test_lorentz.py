import argparse
import math

import numpy as np
import pytest

from coxdeform import bundled, cli, lorentz, orbifold as ob, polytope as pt, vinberg
from coxdeform.numerics import BlockRows, numerical_rank
from conftest import (closed_form_seed_oracle, constant_seed_oracle, family_realization,
                      finite_difference_jacobian, gauss_newton_step_oracle,
                      loebell_factor_orbifold, newton_bincount_oracle, newton_case,
                      newton_lstsq_oracle, one_order_changed, prism_cap_orbifold,
                      psi_eval_oracle, psi_jacobian_oracle, random_lorentz_transform,
                      realization_oracle, relabelled, seed_structure_oracle, shuffled_factor,
                      traced_peak, vertex_point)


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
        lorentz.realize_gram(Q)


def test_realize_simplex_zero_type():
    # linear diagram with orders 4, 3, 4: the Euclidean reflection simplex
    Q = simplex_orbifold({(1, 2): 4, (2, 3): 3, (3, 4): 4})
    with pytest.raises(lorentz.RealizationError, match="zero type"):
        lorentz.realize_gram(Q)


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
    for gen in (pt.cube, pt.dodecahedron):
        P = gen()
        Q = ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges})
        guess = lorentz.initial_guess(Q)
        assert guess.shape == (P.f, 4)
        # seeds are unit spacelike vectors
        norms = np.diag(lorentz.lorentz_gram(guess))
        assert np.all(norms > 0)


def test_seed_inference_no_match():
    P = pt.truncate_vertex(pt.cube(), 0)
    # the doubled cube's start is its document's normals: without them it has none
    doubled = bundled.load_builtin("doubled_cube")
    for Q in (ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges}),
              ob.make_orbifold(doubled.base, doubled.orders)):
        with pytest.raises(lorentz.RealizationError, match="seed"):
            lorentz.initial_guess(Q)


def test_seed_table_detects_each_structure_once(monkeypatch):
    calls = []

    def counted(name, detect):
        def run(P):
            calls.append(name)
            return detect(P)
        return run

    # inference tries the prism, then the two rings (the ring rotation's table)
    order = ["prism", "loebell"]
    monkeypatch.setattr(lorentz, "_RINGS", tuple(
        (counted(name, detect), layout) for name, (detect, layout) in zip(order, lorentz._RINGS)))
    for builtin, name in [("cube_flex", "prism"), ("loebell6_factor", "loebell"),
                          ("loebell5_factor", "loebell")]:
        Q = bundled.load_builtin(builtin)
        calls.clear()
        lorentz.initial_guess(Q)
        assert calls == order[:order.index(name) + 1]
        # the ring detectors run once per orbifold: a second seed, D psi's
        # hint and D phi's take the rotation found by the first
        calls.clear()
        lorentz.initial_guess(Q)
        lorentz.psi_structure(Q).symmetry
        vinberg._as_index(Q).symmetries
        assert calls == []
    # a complete Gram matrix is realized directly, and a document's normals
    # are the start, before any detector
    calls.clear()
    for builtin in ("tetrahedron353", "esselmann"):
        Q = bundled.load_builtin(builtin)
        assert np.array_equal(lorentz.initial_guess(Q), lorentz.realize_gram(Q).normals)
    Q = bundled.load_builtin("doubled_cube")
    assert np.array_equal(lorentz.initial_guess(Q), np.array(Q.normals))
    assert calls == []


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


@pytest.mark.parametrize("name", NEWTON_CASES)
def test_perturbed_start_reaches_the_same_gram(name):
    """Newton from the seed moved by up to 1e-2 in every entry (on the
    doubled cube, its document's normals) lands on the Lorentz Gram matrix
    of the unperturbed solve within 1e-9: the hyperbolic structure is
    unique up to isometry, and so is its Gram matrix."""
    Q = newton_case(name)
    seed = lorentz.initial_guess(Q)
    moved = seed + np.random.default_rng(7).uniform(-1e-2, 1e-2, size=seed.shape)
    R, again = lorentz.solve_hyperbolic_newton(Q, seed), lorentz.solve_hyperbolic_newton(Q, moved)
    assert np.abs(lorentz.lorentz_gram(again.normals)
                  - lorentz.lorentz_gram(R.normals)).max() < 1e-9


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


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_rank_deficient_step_fails_only_as_convergence_error(family):
    """Where J loses row rank, the shifted system can be singular or
    nearly so.  One Gauss-Newton step at the rank-deficient seeds of the
    m = 32 family member, whose ridge block is left to LAPACK after the
    closed-form pivots of its diagonal rows, is finite or raises
    ConvergenceError, never LinAlgError.  At the zero seed J = 0 and mu =
    0, so the first pivot is 0: the step and Newton raise
    ConvergenceError."""
    Q = family_realization(family, 32)[0]
    S = lorentz.psi_structure(Q)
    assert S.rows.elimination.size == S.nrows - S.f
    for x in _rank_deficient_seeds(Q):
        assert numerical_rank(lorentz.psi_jacobian(Q, x)).rank < S.nrows
        try:
            step = S.gauss_newton_step(lorentz._alphas(x), S.eval(x))
        except lorentz.ConvergenceError:
            continue
        assert np.isfinite(step).all()
    zero = np.zeros((Q.f, Q.n + 1))
    with pytest.raises(lorentz.ConvergenceError, match="not positive definite"):
        S.gauss_newton_step(lorentz._alphas(zero), S.eval(zero))
    with pytest.raises(lorentz.ConvergenceError):
        lorentz.solve_hyperbolic_newton(Q, zero)


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


# -- the mean-angle seeds against the constant-offset seeds they replace ------

def _assert_same_realization(Q, R):
    """Newton from the constant-offset seed reaches R's Gram matrix (unique
    by Andreev's theorem) and R's vertex flags."""
    old = lorentz.solve_hyperbolic_newton(Q, constant_seed_oracle(Q))
    G = lorentz.lorentz_gram(R.normals)
    assert np.abs(lorentz.lorentz_gram(old.normals) - G).max() <= 1e-9 * np.abs(G).max()
    assert old.vertex_flags == R.vertex_flags


@pytest.mark.parametrize("name", NEWTON_CASES)
def test_seed_reaches_constant_seed_realization(name):
    Q = newton_case(name)
    _assert_same_realization(Q, lorentz.solve_hyperbolic_newton(Q))


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_seed_reaches_constant_seed_realization_on_families(family):
    for m in range(5, 33):
        _assert_same_realization(*family_realization(family, m))


def _two_ring_class_orbifold(m, cap, within, across, bottom_cap=None):
    """L(m) with one order on each ridge class of the two-ring seed, or with
    ``bottom_cap`` on the bottom cap's ridges."""
    P = pt.loebell(m)
    top, bottom, upper, lower = lorentz._loebell_structure(P)
    orders = {}
    for c, ring, order in ((top, upper, cap), (bottom, lower, bottom_cap or cap)):
        for j in range(m):
            orders[tuple(sorted((c, ring[j])))] = order
            orders[tuple(sorted((ring[j - 1], ring[j])))] = within
    for j, w in enumerate(lower):
        for u in (upper[j - 1], upper[j]):
            orders[tuple(sorted((w, u)))] = across
    return ob.make_orbifold(P, orders)


def test_seeds_solve_psi_on_class_constant_orders():
    # where the orders are constant on each ridge class the seed is exact
    cases = []
    for m in range(5, 33):
        cases.append(prism_cap_orbifold(m))
        cases += [_two_ring_class_orbifold(m, *orders)
                  for orders in ((2, 3, 2), (3, 2, 2), (2, 2, 3))]
    for Q in cases:
        assert np.linalg.norm(lorentz.psi_eval(Q, lorentz.initial_guess(Q))) < lorentz.RESIDUAL_TOL


@pytest.mark.parametrize("m", [16, 24])
def test_two_ring_seed_converges_on_every_factor(m):
    # factors from a reshuffled blossom search; the constant-offset seed
    # failed on about half of those of L(16)
    P = pt.loebell(m)
    rng = np.random.default_rng(m)
    for _ in range(60):
        factor = set(shuffled_factor(P, rng))
        Q = ob.make_orbifold(P, {r: (3 if r in factor else 2) for r in P.ridges})
        assert lorentz.solve_hyperbolic_newton(Q, max_iter=6).residual_norm < lorentz.RESIDUAL_TOL


def test_newton_step_counts():
    # the bundled orbifolds on the prism and two-ring seeds, and the
    # benchmark's families
    for name in ("cube_flex", "cube_mixed", "cube_rigid", "loebell5_factor",
                 "loebell6_factor", "loebell7_factor", "loebell8_factor"):
        lorentz.solve_hyperbolic_newton(bundled.load_builtin(name), max_iter=5)
    for m in (8, 16, 32, 48, 64):
        lorentz.solve_hyperbolic_newton(loebell_factor_orbifold(pt.loebell(m)), max_iter=6)
        lorentz.solve_hyperbolic_newton(prism_cap_orbifold(m), max_iter=0)


# -- the ring seeds solved on the orbits of the orders' rotation --------------

def _alternating_prism(m):
    """prism(m), m even, with the side-side orders 2, 3, 2, ... and each
    cap's orders alternating 3, 2 along the ring, the caps out of phase."""
    P = pt.prism(m)
    a, b, ring = lorentz._prism_structure(P)
    orders = {}
    for j in range(m):
        orders[tuple(sorted((ring[j - 1], ring[j])))] = 2 + j % 2
        orders[tuple(sorted((a, ring[j])))] = 3 - j % 2
        orders[tuple(sorted((b, ring[j])))] = 2 + j % 2
    return ob.make_orbifold(P, orders)


def _rotation_oracle(Q):
    """(rings, s) of Q's ring seed: the rings in cyclic order, and the
    smallest s dividing their length m such that turning every ring by s
    positions keeps every order, found by order lookups."""
    prism = lorentz._prism_structure(Q.base)
    caps, rings = (prism[:2], prism[2:]) if prism else (None, None)
    if not prism:
        top, bottom, upper, lower = lorentz._loebell_structure(Q.base)
        caps, rings = (top, bottom), (upper, lower)
    m = len(rings[0])

    def image(x, s):
        for ring in rings:
            if x in ring:
                return ring[(ring.index(x) + s) % m]
        return x

    def keeps(s):
        return all(Q.order(image(i, s), image(j, s)) == order for (i, j), order in Q.orders.items())

    return rings, next(s for s in range(1, m + 1) if m % s == 0 and keeps(s))


def _ring_rotation(angle):
    R = np.eye(4)
    R[1:3, 1:3] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    return R


@pytest.fixture
def newton_steps(monkeypatch):
    """The number of Gauss-Newton steps taken since the last reset."""
    steps = [0]
    step = lorentz.PsiStructure.gauss_newton_step

    def counted(self, alphas, r):
        steps[0] += 1
        return step(self, alphas, r)

    monkeypatch.setattr(lorentz.PsiStructure, "gauss_newton_step", counted)
    return steps


ORBIT_CASES = [("loebell", m) for m in (6, 8, 16, 32, 64, 128)] + [
    ("caps 3 and 2", 12), ("alternating prism", 8), ("alternating prism", 16)]


def _orbit_case(kind, m):
    if kind == "loebell":
        return loebell_factor_orbifold(pt.loebell(m))
    if kind == "caps 3 and 2":
        return _two_ring_class_orbifold(m, 3, 2, 2, bottom_cap=2)
    return _alternating_prism(m)


@pytest.mark.parametrize("kind, m", ORBIT_CASES)
def test_orbit_seed_solves_psi(kind, m, newton_steps):
    """On orders that a rotation of the rings keeps, but that are not
    constant on each ridge class, the closed form misses psi and the seed
    solves it: Newton takes no step.  The seed is symmetric under the
    rotation R by 2 pi / K about the cap axis, ring facet j + s being R
    times facet j (s and the rings from order lookups), and the caps lie
    in span(e_0, e_3).  Newton from the closed form by least-squares
    steps reaches the same Gram matrix and vertex flags."""
    Q = _orbit_case(kind, m)
    rings, s = _rotation_oracle(Q)
    assert s < len(rings[0]) and s <= 2
    closed = closed_form_seed_oracle(Q)
    assert np.linalg.norm(lorentz.psi_eval(Q, closed)) > 0.1
    seed = lorentz.initial_guess(Q)
    assert np.linalg.norm(lorentz.psi_eval(Q, seed)) < lorentz.RESIDUAL_TOL
    pos = {facet: k for k, facet in enumerate(Q.base.facets)}
    R = _ring_rotation(2.0 * math.pi * s / len(rings[0]))
    for ring in rings:
        here = seed[[pos[x] for x in ring]]
        assert np.abs(np.roll(here, -s, axis=0) - here @ R.T).max() < 1e-12
    caps = [pos[x] for x in Q.base.facets if not any(x in ring for ring in rings)]
    assert np.abs(seed[caps][:, 1:3]).max() < 1e-12
    newton_steps[0] = 0
    R = lorentz.solve_hyperbolic_newton(Q, seed)
    assert newton_steps[0] == 0
    assert np.array_equal(R.normals, seed)
    oracle = lorentz.HyperbolicRealization(Q, newton_lstsq_oracle(Q, closed), validate=False)
    G = lorentz.lorentz_gram(oracle.normals)
    assert np.abs(lorentz.lorentz_gram(R.normals) - G).max() < 1e-9 * np.abs(G).max()
    assert R.vertex_flags == oracle.vertex_flags


def _cap_period_orbifold(m, s):
    """L(m), right-angled but for order 3 between the top cap and every
    s-th facet of the upper ring."""
    P = pt.loebell(m)
    top, _, upper, _ = lorentz._loebell_structure(P)
    orders = {r: 2 for r in P.ridges}
    orders.update({tuple(sorted((top, upper[j]))): 3 for j in range(0, m, s)})
    return ob.make_orbifold(P, orders)


@pytest.mark.parametrize("case", ["one order changed", "orbit system too large"])
def test_seed_without_orbit_solve_is_the_closed_form(case, newton_steps):
    """One order changed on the loebell(16) factor leaves no rotation that
    keeps the orders; on L(64) with period 32 along the upper ring the
    orbit system has 2 + 8 * 32 rows, more than ORBIT_MAX_ROWS.  Either way
    the seed is the closed form bit for bit, and Newton still converges
    from it."""
    if case == "one order changed":
        Q, period = one_order_changed(loebell_factor_orbifold(pt.loebell(16))), 16
    else:
        Q, period = _cap_period_orbifold(64, 32), 32
        assert 2 + 8 * period > lorentz.ORBIT_MAX_ROWS
    assert _rotation_oracle(Q)[1] == period
    seed = lorentz.initial_guess(Q)
    assert np.array_equal(seed, closed_form_seed_oracle(Q))
    newton_steps[0] = 0
    assert lorentz.solve_hyperbolic_newton(Q, seed).residual_norm < lorentz.RESIDUAL_TOL
    assert newton_steps[0] > 0


def test_closed_form_seeds_bit_for_bit(monkeypatch):
    """Without the orbit solve, the prism and two-ring seeds are the closed
    forms of one plane and one order at a time, bit for bit: on the bundled
    orbifolds, both families for m = 4..40, relabelled factors, reshuffled
    factors, the ring-class orbifolds and the alternating prisms."""
    monkeypatch.setattr(lorentz, "_orbit_solve", lambda S, x, *args: x)
    rng = np.random.default_rng(41)
    cases = [bundled.load_builtin(name) for name in bundled.BUILTIN_NAMES]
    for m in range(4, 41):
        cases.append(prism_cap_orbifold(m))
        if m >= 5:
            P = pt.loebell(m)
            factor = set(shuffled_factor(P, rng))
            cases += [loebell_factor_orbifold(P), loebell_factor_orbifold(relabelled(P, rng)),
                      ob.make_orbifold(P, {r: (3 if r in factor else 2) for r in P.ridges}),
                      _two_ring_class_orbifold(m, 3, 2, 2, bottom_cap=2)]
        if m % 2 == 0:
            cases.append(_alternating_prism(m))
    for Q in cases:
        seed, closed = lorentz.initial_guess(Q), closed_form_seed_oracle(Q)
        assert np.array_equal(seed, closed) and np.array_equal(np.signbit(seed),
                                                                np.signbit(closed))


# Gauss-Newton steps from the seed: none where a rotation keeps the orders
# (the loebell(6) and loebell(8) factors, and the benchmark's families),
# one from the doubled cube's document normals, rounded to 12 digits, and
# the steps taken before the orbit solve everywhere else
NEWTON_STEPS = {"cube_flex": 4, "cube_mixed": 4, "cube_rigid": 4, "doubled_cube": 1,
                "loebell5_factor": 5, "loebell6_factor": 0, "loebell7_factor": 5,
                "loebell8_factor": 0, "loebell8": 0, "loebell64": 0, "prism8": 0, "prism64": 0}


def test_newton_step_table(newton_steps):
    for name, steps in NEWTON_STEPS.items():
        if name in bundled.BUILTIN_NAMES:
            Q = bundled.load_builtin(name)
        elif name.startswith("loebell"):
            Q = loebell_factor_orbifold(pt.loebell(int(name[7:])))
        else:
            Q = prism_cap_orbifold(int(name[5:]))
        newton_steps[0] = 0
        lorentz.solve_hyperbolic_newton(Q)
        assert newton_steps[0] == steps, name


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


def test_check_valid_names_the_first_pair_that_does_not_diverge():
    """The right-angled cube's limit: normals (0, +-e_k), which solve the
    hyperbolic equations with every vertex at the origin, and opposite faces
    at product -1, on the divergence boundary.  All three non-adjacent pairs
    fail; the first in the polytope's order is named."""
    P = pt.cube()
    Q = ob.CoxeterOrbifold(P, {r: 2 for r in P.ridges})
    pos = {facet: k for k, facet in enumerate(P.facets)}
    normals = np.zeros((P.f, 4))
    for k, (i, j) in enumerate(P.nonadjacent_pairs):
        normals[pos[i], k + 1], normals[pos[j], k + 1] = 1.0, -1.0
    R = lorentz.HyperbolicRealization(Q, normals, validate=False)
    assert R.residual_norm < 1e-15 and all(R.vertex_flags.values())
    assert list(R.nonadjacent_products.items()) == [(pair, -1.0) for pair in P.nonadjacent_pairs]
    i, j = P.nonadjacent_pairs[0]
    with pytest.raises(lorentz.RealizationError,
                       match=rf"^non-adjacent facets {i},{j} do not diverge "
                             rf"\(<nu_i,nu_j> = -1\.000000\)$"):
        R.check_valid()


@pytest.mark.parametrize("name", bundled.BUILTIN_NAMES)
def test_check_valid_refuses_a_residual(name):
    """A bundled realization's normals moved by 1e-3 in every entry fail
    the residual bound, the first check, which names the residual."""
    defaults = argparse.Namespace(seed_name=None, seed=0, tol=1e-10)
    R = cli._realize(bundled.load_builtin(name), defaults)[0]
    moved = lorentz.HyperbolicRealization(R.Q, R.normals + 1e-3, validate=False)
    assert moved.residual_norm > lorentz.VALID_RESIDUAL
    with pytest.raises(lorentz.RealizationError,
                       match=rf"^normals do not satisfy the hyperbolic equations "
                             rf"\(residual {moved.residual_norm:.3e}\)$"):
        moved.check_valid()
    with pytest.raises(lorentz.RealizationError, match="residual"):
        lorentz.HyperbolicRealization(R.Q, R.normals + 1e-3)


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


FAMILY_SIZES = range(5, 65)


def _assert_realization_matches_svd_oracle(R):
    """Residual norm, vertex flags and non-adjacent products equal those of
    the SVD vertex points, bit for bit and in the same order."""
    residual, flags, products = realization_oracle(R.Q, R.normals)
    assert R.residual_norm == residual
    assert list(R.vertex_flags.items()) == list(flags.items())
    assert list(R.nonadjacent_products.items()) == list(products.items())


def test_vertex_flags_match_svd_oracle():
    defaults = argparse.Namespace(seed_name=None, seed=0, tol=1e-10)
    for name in bundled.BUILTIN_NAMES:
        R = cli._realize(bundled.load_builtin(name), defaults)[0]
        _assert_realization_matches_svd_oracle(R)
    for family in ("loebell", "prism"):
        for m in FAMILY_SIZES:
            _assert_realization_matches_svd_oracle(family_realization(family, m)[1])


def test_vertex_points_are_unit_null_vectors():
    rng = np.random.default_rng(23)
    for n in (3, 4):
        forms = rng.normal(size=(20, n, n + 1))
        x = lorentz.vertex_points(forms)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.abs(np.einsum("vij,vj->vi", forms, x)).max() < 1e-13


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_newton_iterates_match_per_step_bincount(family):
    """Newton with one system array per solve lands on the normals of the
    fresh per-step array, bit for bit."""
    for m in FAMILY_SIZES:
        Q, R = family_realization(family, m)
        assert np.array_equal(R.normals, newton_bincount_oracle(Q, lorentz.initial_guess(Q))), m


def test_psi_certificate_never_holds_the_full_gram(monkeypatch):
    """Full row rank of D psi at the loebell(64) factor is certified, with
    the mode path turned off as on an orbifold that no rotation keeps, with
    a traced peak under D psi's full (f + e)^2 Gram matrix: the e x e block
    left to LAPACK is formed in the pattern's work array, and LAPACK's
    factor of it and the Gram entries stay under that.  The full Gram
    matrix alone would reach the bound."""
    monkeypatch.setattr(BlockRows, "modes", lambda self, symmetry: None)
    Q, R = family_realization("loebell", 64)
    S = lorentz.psi_structure(Q)
    assert S.rows.elimination.size == S.nrows - S.f
    assert lorentz.kernel_dimension(Q, R.normals) == 6  # the pattern's index arrays, once
    kernel, peak = traced_peak(lambda: lorentz.kernel_dimension(Q, R.normals))
    assert kernel == 6
    assert peak < S.nrows * S.nrows * 8


def test_newton_step_allocates_no_trailing_block():
    """One Gauss-Newton step at the loebell(64) factor forms the block left
    to LAPACK (the m = e = 384 ridge rows) in the pattern's work array, and
    a second step allocates no new one: its traced peak, the Gram entries,
    the level's multipliers and entries and their index casts, is under one
    such block (m^2 doubles), which a block allocated per step alone would
    reach.  LAPACK's copy inside np.linalg.solve is not traced."""
    Q, _ = family_realization("loebell", 64)
    S = lorentz.psi_structure(Q)
    x = lorentz.initial_guess(Q)
    alphas, r = lorentz._alphas(x), S.eval(x)
    m = S.rows.elimination.size
    first = S.gauss_newton_step(alphas, r)  # the pattern's index arrays and work array, once
    work = S.rows.work
    assert work.shape == (m, m)
    work[:] = 0.0  # the second step forms the block again, in the same array
    step, peak = traced_peak(lambda: S.gauss_newton_step(alphas, r))
    assert peak < m * m * 8
    assert np.array_equal(step, first)
    assert S.rows.work is work
    block = work.copy()
    A = S.rows.gram(S.values(alphas))
    trailing = A.trailing(-lorentz.LM_SHIFT * A.diagonal.sum() / S.nrows)
    assert trailing is work and np.array_equal(block, trailing)


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


@pytest.mark.parametrize("kind, m", [("loebell", 16), ("alternating prism", 8)])
def test_second_seed_reuses_the_orbit_system(kind, m, monkeypatch):
    """The ring rotation and its orbit system are built once per orbifold:
    a second initial_guess(Q) neither finds the rotation's period again nor
    builds the row-orbit keys (np.unique) or the rotation matrices, and
    returns the first seed bit for bit."""
    calls = []

    def counted(name, function):
        def run(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return run

    monkeypatch.setattr(lorentz, "_rotation_period",
                        counted("period", lorentz._rotation_period))
    monkeypatch.setattr(lorentz, "_rotations", counted("rotations", lorentz._rotations))
    monkeypatch.setattr(lorentz.np, "unique", counted("unique", np.unique))
    Q = _orbit_case(kind, m)
    first = lorentz.initial_guess(Q)
    assert calls.count("period") == 1 and calls.count("unique") == 1
    assert calls.count("rotations") == 2  # the orbit rows' turns and the expansion
    calls.clear()
    second = lorentz.initial_guess(Q)
    assert calls == []
    assert np.array_equal(first, second)
    assert lorentz.psi_structure(Q).rotation.K == m // _rotation_oracle(Q)[1]


@pytest.mark.parametrize("name", ["loebell64", "cube_flex", "doubled_cube", "loebell5_factor"])
def test_newton_hands_its_gram_to_the_realization(name, monkeypatch):
    """solve_hyperbolic_newton gives the realization the Lorentz Gram matrix
    of its last residual check, the one whose residual passed, so the f x f
    product is not formed again; the realization is byte for byte the one
    built from the normals alone, and matches realization_oracle."""
    made, given = [], []
    gram = lorentz.lorentz_gram
    init = lorentz.HyperbolicRealization.__init__
    monkeypatch.setattr(lorentz, "lorentz_gram", lambda normals: made.append(gram(normals))
                        or made[-1])
    monkeypatch.setattr(lorentz.HyperbolicRealization, "__init__",
                        lambda self, *args, **kwargs: given.append(kwargs.get("gram"))
                        or init(self, *args, **kwargs))
    Q = (loebell_factor_orbifold(pt.loebell(64)) if name == "loebell64"
         else bundled.load_builtin(name))
    R = lorentz.solve_hyperbolic_newton(Q)
    assert len(given) == 1 and given[0] is made[-1]
    fresh = lorentz.HyperbolicRealization(Q, R.normals)
    assert R.residual_norm == fresh.residual_norm
    assert R.vertex_flags == fresh.vertex_flags
    assert np.array_equal(R._nonadjacent_values, fresh._nonadjacent_values)
    residual, flags, products = realization_oracle(Q, R.normals)
    assert R.residual_norm == residual and R.vertex_flags == flags
    assert R.nonadjacent_products == products
