import math

import numpy as np
import pytest

from coxdeform import cartan, orbifold as ob, polytope as pt, vinberg
from conftest import nonzero_graph_oracle


def test_conditions_pass_at_hyperbolic_point(tetra_orbifold, tetra_point):
    A = cartan.CartanMatrix.from_point(tetra_point, tetra_orbifold)
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


def test_classify_vertex_group_elliptic(tetra_orbifold):
    M = ob.vertex_cosine_matrix(tetra_orbifold, frozenset({1, 2, 3}))
    A = cartan.CartanMatrix(M)
    assert cartan.classify_group(A, 3) == "elliptic"


def test_classify_affine_triangle_parabolic():
    M = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    A = cartan.CartanMatrix(M)
    comps = cartan.decompose_components(A)
    assert comps[0].classification == "zero"
    assert cartan.classify_group(A, 2) == "parabolic"


def test_classify_hyperbolic_tetrahedron(tetra_orbifold, tetra_point):
    A = cartan.CartanMatrix.from_point(tetra_point, tetra_orbifold)
    assert cartan.classify_group(A, 3) == "negative-irreducible"


def test_classify_other():
    M = np.array([[2.0, -3.0, 0.0], [-3.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    assert cartan.classify_group(cartan.CartanMatrix(M), 2) == "other"


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
    A = cartan.CartanMatrix.from_point(tetra_point, tetra_orbifold)
    nf = cartan.diagonal_normalize(A)
    rng = np.random.default_rng(5)
    d = np.exp(rng.uniform(-1, 1, 4))
    rescaled = cartan.CartanMatrix((d[:, None] * A.entries) / d[None, :],
                                   orders=tetra_orbifold.orders)
    nf2 = cartan.diagonal_normalize(rescaled)
    assert np.allclose(nf.matrix.entries, nf2.matrix.entries, atol=1e-12)


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
    A = cartan.CartanMatrix.from_point(tetra_point, tetra_orbifold)
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
