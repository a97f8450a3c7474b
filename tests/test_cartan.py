import math

import numpy as np
import pytest

from coxdeform import cartan, orbifold as ob, polytope as pt, vinberg
from coxdeform.numerics import numerical_rank
from conftest import (cartan_from_point, components_oracle, conditions_oracle,
                      infer_pattern_oracle, nonzero_graph_oracle, tree_walk_oracle)


def test_conditions_pass_at_hyperbolic_point(tetra_orbifold, tetra_point):
    A = cartan_from_point(tetra_point, tetra_orbifold)
    report = cartan.check_vinberg_conditions(A)
    assert report.passed


def test_conditions_esselmann(esselmann_matrix):
    report = cartan.check_vinberg_conditions(esselmann_matrix)
    assert report.passed
    assert esselmann_matrix.e4_pairs() == []          # all 15 pairs adjacent
    assert len(esselmann_matrix.e2_pairs()) == 8
    assert len(esselmann_matrix.e3_orders()) == 7


def test_asymmetric_zero_violates_sign_condition():
    A = cartan.CartanMatrix(np.array([[2.0, -0.5], [0.0, 2.0]]), orders={(1, 2): 3})
    report = cartan.check_vinberg_conditions(A)
    assert report.sign_violations


def test_wrong_product_detected():
    A = cartan.CartanMatrix(np.array([[2.0, -1.0], [-1.2, 2.0]]), orders={(1, 2): 3})
    report = cartan.check_vinberg_conditions(A)
    assert report.product_violations  # product 1.2 != 4 cos^2(pi/3) = 1


def test_open_condition_detected():
    entries = np.array([[2.0, -1.9], [-1.9, 2.0]])  # product 3.61 < 4
    A = cartan.CartanMatrix(entries, orders={})     # pattern: non-adjacent pair
    report = cartan.check_vinberg_conditions(A)
    assert report.open_violations


def test_component_classification_small():
    one = cartan.decompose_components(cartan.CartanMatrix(np.array([[2.0]])))
    assert len(one) == 1 and one[0].classification == "positive"
    zero = cartan.decompose_components(
        cartan.CartanMatrix(np.array([[2.0, -2.0], [-2.0, 2.0]]), orders={}))
    assert zero[0].classification == "zero"
    neg = cartan.decompose_components(
        cartan.CartanMatrix(np.array([[2.0, -3.0], [-3.0, 2.0]]), orders={}))
    assert neg[0].classification == "negative"
    assert neg[0].smallest_eigenvalue == pytest.approx(-1.0)


def test_decompose_splits_direct_sum():
    entries = np.array([
        [2.0, -1.0, 0.0],
        [-1.0, 2.0, 0.0],
        [0.0, 0.0, 2.0],
    ])
    comps = cartan.decompose_components(cartan.CartanMatrix(entries))
    assert sorted(len(c.indices) for c in comps) == [1, 2]


def classify(A, n):
    return cartan.classify_group(cartan.decompose_components(A),
                                 numerical_rank(A.entries).rank, n)


def test_classify_vertex_group_elliptic(tetra_orbifold):
    M = ob.vertex_cosine_matrix(tetra_orbifold, frozenset({1, 2, 3}))
    A = cartan.CartanMatrix(M)
    assert classify(A, 3) == "elliptic"


def test_classify_affine_triangle_parabolic():
    M = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    A = cartan.CartanMatrix(M)
    comps = cartan.decompose_components(A)
    assert comps[0].classification == "zero"
    assert classify(A, 2) == "parabolic"


def test_classify_hyperbolic_tetrahedron(tetra_orbifold, tetra_point):
    A = cartan_from_point(tetra_point, tetra_orbifold)
    assert classify(A, 3) == "negative-irreducible"


def test_classify_other():
    M = np.array([[2.0, -3.0, 0.0], [-3.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    assert classify(cartan.CartanMatrix(M), 2) == "other"


def test_normalize_symmetric_fixed_point(esselmann_matrix):
    nf = cartan.diagonal_normalize(esselmann_matrix)
    assert np.allclose(nf.matrix.entries, esselmann_matrix.entries)
    assert all(c == pytest.approx(1.0) for c in nf.cycle_coordinates.values())


def test_normalize_recovers_family_parameters(esselmann_orbifold):
    fam = vinberg.esselmann_family()
    rng = np.random.default_rng(3)
    for x, y in [(1.7, 0.9), (0.6, 1.4)]:
        A = fam.matrix(x, y)
        d = np.exp(rng.uniform(-1.5, 1.5, 6))
        rescaled = (d[:, None] * A) / d[None, :]
        nf = cartan.diagonal_normalize(cartan.CartanMatrix(
            rescaled, orders=esselmann_orbifold.orders))
        assert nf.cycle_coordinates[(1, 4)] == pytest.approx(x)
        assert nf.cycle_coordinates[(4, 6)] == pytest.approx(y)
        assert nf.tree == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]


def test_normalize_idempotent_after_random_rescale(tetra_orbifold, tetra_point):
    A = cartan_from_point(tetra_point, tetra_orbifold)
    nf = cartan.diagonal_normalize(A)
    rng = np.random.default_rng(5)
    d = np.exp(rng.uniform(-1, 1, 4))
    rescaled = cartan.CartanMatrix((d[:, None] * A.entries) / d[None, :],
                                   orders=tetra_orbifold.orders)
    nf2 = cartan.diagonal_normalize(rescaled)
    assert np.allclose(nf.matrix.entries, nf2.matrix.entries, atol=1e-12)


def test_normal_form_keeps_pattern(esselmann_matrix, tetra_orbifold, tetra_point):
    for A in (esselmann_matrix, cartan_from_point(tetra_point, tetra_orbifold),
              cartan.CartanMatrix(esselmann_matrix.entries)):
        nf = cartan.diagonal_normalize(A).matrix
        assert list(nf.orders.items()) == list(A.orders.items())
        assert nf.facets == A.facets and nf.pos == A.pos
        assert not np.shares_memory(nf.entries, A.entries)


def test_component_types_invariant_under_rescaling(esselmann_matrix):
    rng = np.random.default_rng(9)
    base = [c.classification for c in cartan.decompose_components(esselmann_matrix)]
    for _ in range(5):
        d = np.exp(rng.uniform(-2, 2, 6))
        rescaled = cartan.CartanMatrix(
            (d[:, None] * esselmann_matrix.entries) / d[None, :],
            orders=esselmann_matrix.orders)
        assert [c.classification for c in cartan.decompose_components(rescaled)] == base


def test_normalize_decomposable_rejected():
    M = np.array([[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(cartan.CartanError, match="decomposable"):
        cartan.diagonal_normalize(cartan.CartanMatrix(M, orders={(1, 2): 2}))


def test_realize_tetrahedron_from_cartan(tetra_orbifold, tetra_point):
    A = cartan_from_point(tetra_point, tetra_orbifold)
    p = cartan.realize_point_from_cartan(A, 3)
    resid = vinberg.phi_eval(tetra_orbifold, p)
    assert np.abs(resid).max() < 1e-9
    assert np.abs(p.cartan() - A.entries).max() < 1e-9


def test_realize_esselmann_from_cartan(esselmann_matrix, esselmann_orbifold):
    p = cartan.realize_point_from_cartan(esselmann_matrix, 4)
    assert p.dim == 5
    assert np.abs(vinberg.phi_eval(esselmann_orbifold, p)).max() < 1e-9


def test_realize_rejects_wrong_rank(esselmann_orbifold):
    fam = vinberg.esselmann_family()
    A = cartan.CartanMatrix(fam.matrix(1.3, 1.1), orders=esselmann_orbifold.orders)
    # off the determinant zero set the rank is 6, not n + 1 = 5
    with pytest.raises(cartan.CartanError, match="rank"):
        cartan.realize_point_from_cartan(A, 4)


def test_realize_rejects_zero_type():
    A = cartan.CartanMatrix(np.array([[2.0, -2.0], [-2.0, 2.0]]), orders={})
    with pytest.raises(cartan.CartanError):
        cartan.realize_point_from_cartan(A, 1)


def test_pattern_inference_roundtrip(tetra_orbifold, tetra_point):
    inferred = cartan.CartanMatrix(tetra_point.cartan())
    assert inferred.orders == tetra_orbifold.orders


def test_smallest_real_eigenvalue_asymmetric():
    # nonsymmetrizable only by accident of the tree; eigenvalues are exact
    M = np.array([[2.0, -4.0], [-1.0, 2.0]])
    lam = cartan.smallest_real_eigenvalue(M)
    assert lam == pytest.approx(0.0, abs=1e-12)


def test_nonzero_graph_matches_entry_loop(tetra_point, esselmann_matrix):
    rng = np.random.default_rng(14)
    mats = [tetra_point.cartan(), esselmann_matrix.entries, np.zeros((3, 3)), np.eye(1)]
    for f in (2, 5, 9):
        M = rng.normal(size=(f, f)) * (rng.random((f, f)) < 0.3)
        M[rng.random((f, f)) < 0.2] = 1e-12  # below the tolerance
        mats.append(M)
    for M in mats:
        assert cartan._nonzero_graph(M, 1e-9) == nonzero_graph_oracle(M, 1e-9)
    assert any(cartan._nonzero_graph(M, 1e-9) != {k: [] for k in range(len(M))}
               for M in mats[4:])


def _component_patterns(rng):
    """Seeded matrices whose nonzero patterns cover singletons, long paths
    in position order and relabelled, several blocks, dense patterns and
    one-sided entries, where only a_ij is above the tolerance."""
    mats = [np.eye(1), np.zeros((3, 3)), 2.0 * np.eye(7)]
    for f in (2, 50, 301):
        path = 2.0 * np.eye(f) - np.eye(f, k=1) - np.eye(f, k=-1)
        perm = rng.permutation(f)
        mats += [path, path[np.ix_(perm, perm)]]
    for _ in range(40):
        f = int(rng.integers(1, 60))
        M = np.zeros((f, f))
        block = rng.integers(0, rng.integers(1, 6), f)
        fill = rng.choice([0.05, 0.3, 0.95, 1.0])
        M[(block[:, None] == block[None, :]) & (rng.random((f, f)) < fill)] = -1.0
        one_sided = np.triu(rng.random((f, f)) < 0.5, 1)
        one_sided = one_sided | one_sided.T if rng.random() < 0.5 else one_sided
        M[one_sided & (M != 0)] = 1e-12  # below the tolerance, facing an entry above it
        mats.append(M + 2.0 * np.eye(f))
    return mats


def test_components_match_search_oracle():
    """The search over the boolean pattern returns the components of the
    list search, the same sorted lists in the same order."""
    rng = np.random.default_rng(83)
    counts = set()
    for M in _component_patterns(rng):
        comps = cartan._components(cartan._nonzero_pattern(M, 1e-9))
        assert comps == components_oracle(cartan._nonzero_graph(M, 1e-9), len(M))
        counts.add(min(len(comps), 3))
    assert counts == {1, 2, 3}


class _CountingMinimum:
    """np.minimum, counting its reductions over rows."""

    def __init__(self):
        self.reductions = 0

    def __call__(self, *args, **kwargs):
        return _MINIMUM(*args, **kwargs)

    def at(self, *args, **kwargs):
        return _MINIMUM.at(*args, **kwargs)

    def reduceat(self, *args, **kwargs):
        self.reductions += 1
        return _MINIMUM.reduceat(*args, **kwargs)


_MINIMUM = np.minimum


def test_components_rounds_do_not_grow_with_path_length(monkeypatch):
    """A path in position order needs no round over the nonzeros whatever
    its length (the A_1100 path), and a relabelled path at most one round
    per halving of its labels and a confirming one."""
    rng = np.random.default_rng(89)
    for f in (10, 1100):
        path = 2.0 * np.eye(f) - np.eye(f, k=1) - np.eye(f, k=-1)
        perm = rng.permutation(f)
        relabelled = path[np.ix_(perm, perm)]
        for M, rounds in ((path, (0, 0)), (relabelled, (1, math.ceil(math.log2(f))))):
            minimum = _CountingMinimum()
            monkeypatch.setattr(np, "minimum", minimum)
            comps = cartan._components(cartan._nonzero_pattern(M, 1e-9))
            monkeypatch.undo()
            assert comps == [list(range(f))]
            assert rounds[0] <= minimum.reductions <= rounds[1]


def test_normalize_long_path():
    # the A_1100 path: one tree pair per edge, no cycles, already symmetric
    f = 1100
    M = 2.0 * np.eye(f) - np.eye(f, k=1) - np.eye(f, k=-1)
    nf = cartan.diagonal_normalize(cartan.CartanMatrix(M))
    assert nf.tree == [(k, k + 1) for k in range(1, f)]
    assert nf.cycle_coordinates == {}
    assert np.all(nf.rescaling == 1.0)


def test_spanning_tree_matches_recursive_walk(tetra_orbifold, tetra_point, esselmann_matrix):
    rng = np.random.default_rng(21)
    base = [esselmann_matrix.entries, cartan_from_point(tetra_point, tetra_orbifold).entries]
    mats = list(base)
    for M in base:
        for _ in range(4):
            d = np.exp(rng.uniform(-2, 2, len(M)))
            mats.append((d[:, None] * M) / d[None, :])
    for M in mats:
        adj = cartan._nonzero_graph(M, cartan.ENTRY_TOL * max(np.abs(M).max(), 1.0))
        d, parent, tree = cartan._spanning_tree(M, adj)
        d0, parent0, tree0 = tree_walk_oracle(M, adj)
        assert np.array_equal(d, d0) and parent == parent0 and tree == tree0
        assert len(tree) == len(M) - 1
    # opposite signs on a tree pair are refused the same way
    M = np.array([[2.0, -1.0], [1.0, 2.0]])
    adj = cartan._nonzero_graph(M, 1e-9)
    for walk in (cartan._spanning_tree, tree_walk_oracle):
        with pytest.raises(cartan.CartanError, match="pair 0,1 has entries of opposite sign"):
            walk(M, adj)


def _planted_matrix(rng, f):
    """Non-positive entries with zeros, products 4 cos^2(pi/m) for m in 3..7,
    products >= 4, a few positive and one-sided zero entries, and diagonal
    entries off 2."""
    M = -np.abs(rng.normal(size=(f, f))) * 1.5
    for a, b in zip(*np.triu_indices(f, 1)):
        kind = rng.integers(4)
        if kind == 0:
            M[a, b] = M[b, a] = 0.0
        elif kind == 1:
            t = rng.uniform(0.3, 3.0)
            M[a, b], M[b, a] = -t, -4.0 * math.cos(math.pi / rng.integers(3, 8)) ** 2 / t
    M[rng.random((f, f)) < 0.05] *= -1.0
    M[rng.random((f, f)) < 0.05] = 0.0
    np.fill_diagonal(M, 2.0 + (rng.random(f) < 0.2) * rng.normal(size=f))
    return M


def test_conditions_and_pattern_match_pair_loops(tetra_orbifold, tetra_point, esselmann_matrix):
    # inferred orders (in insertion order) and every violation list (in
    # order, with the same values) equal the pair-by-pair loops
    rng = np.random.default_rng(31)
    mats = [esselmann_matrix.entries, cartan_from_point(tetra_point, tetra_orbifold).entries,
            2.0 * np.eye(7) - np.eye(7, k=1) - np.eye(7, k=-1), np.eye(1)]
    mats += [_planted_matrix(rng, f) for f in (2, 3, 5, 8, 12) for _ in range(4)]
    nan = _planted_matrix(rng, 6)
    nan[1, 4] = np.nan
    mixed = _planted_matrix(rng, 4)
    mixed[0, 3], mixed[3, 0] = 0.5, 0.0     # positive, and facing a zero
    mats += [nan, mixed]
    seen, inferred, non_adjacent = set(), set(), 0
    for M in mats:
        f = len(M)
        for facets in (tuple(range(1, f + 1)), tuple(rng.permutation(f).tolist())):
            A = cartan.CartanMatrix(M, facets=facets)
            assert list(A.orders.items()) == list(infer_pattern_oracle(M, facets).items())
            # the pattern of another matrix of the same size puts order-2
            # and product conditions on pairs that do not meet them
            B = cartan.CartanMatrix(M, orders=cartan.CartanMatrix(_planted_matrix(rng, f)).orders,
                                    facets=tuple(range(1, f + 1)))
            for X in (A, B):
                report = cartan.check_vinberg_conditions(X)
                assert repr(report) == repr(conditions_oracle(X))
                seen.update(name for name, v in report._asdict().items() if v)
        inferred.update(A.orders.values())
        non_adjacent += len(A.orders) < f * (f - 1) // 2
    assert inferred >= {0, 2, 3, 4, 5, 6, 7} and non_adjacent > 0
    assert seen == {"diagonal_violations", "sign_violations", "order2_violations",
                    "product_violations", "open_violations"}

