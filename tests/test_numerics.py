"""The certified full-rank path of ``numerical_rank`` against the dense SVD
it falls back to (``svd_rank``): the same rank, uncertain flag and kernel
dimension on every bundled orbifold, on generated factor and cap points, on
random points off the solution set, and on planted spectra at the margin.
The Gram matrices assembled from the row structure of D phi and D psi are
checked against the dense product and its rounding bound."""

import argparse
import tracemalloc

import numpy as np
import pytest

from coxdeform import bundled, cli, lorentz, polytope as pt, vinberg
from coxdeform.numerics import StructuredMatrix, numerical_rank, svd_rank
from conftest import (dense_gram_oracle, family_realization, loebell_factor_orbifold,
                      phi_jacobian_oracle, prism_cap_orbifold, psi_jacobian_oracle)

UNIT_ROUNDOFF = 2.0 ** -53
SMALLEST_SUBNORMAL = 2.0 ** -1074
REALIZE_DEFAULTS = argparse.Namespace(seed_name=None, seed=0, tol=1e-10)


def _assert_same_decision(M, structured=None):
    """The decision on M, or on ``structured`` (M given by its row
    structure), equals the SVD's on M."""
    cert, ref = numerical_rank(M if structured is None else structured), svd_rank(M)
    assert cert.rank == ref.rank
    assert cert.uncertain == ref.uncertain
    assert cert.kernel_dimension(M.shape[1]) == ref.kernel_dimension(M.shape[1])
    if cert.method == "cholesky":
        assert cert.rank == min(M.shape) and len(cert.singular_values) == 0
        assert cert.gap == np.inf
        # the certified bound lies between the SVD's cut and its sigma_min
        assert ref.threshold <= cert.threshold < ref.singular_values[-1]
    else:
        assert cert.method == "svd"
        assert np.array_equal(cert.singular_values, ref.singular_values)
        assert (cert.threshold, cert.gap) == (ref.threshold, ref.gap)
    return cert


def _rank_matrices(Q, p):
    """D phi, D psi, the gauge directions and the E2 staircase at p."""
    index = vinberg.EquationIndex.from_orbifold(Q)
    R = vinberg.reduced_phi_jacobian(index, p)
    return {"phi": vinberg.phi_jacobian(index, p),
            "psi": lorentz.psi_jacobian(Q, p.bs),
            "gauge": vinberg.gauge_directions(p),
            "staircase": R[:len(index.e2), :p.f * p.dim]}


def _bundled_point(name):
    Q = bundled.load_builtin(name)
    return Q, vinberg.hyperbolic_point(cli._realize(Q, REALIZE_DEFAULTS)[0])


def _generated_point(family, m):
    Q = loebell_factor_orbifold(pt.loebell(m)) if family == "loebell" else prism_cap_orbifold(m)
    return Q, vinberg.hyperbolic_point(lorentz.solve_hyperbolic_newton(Q))


@pytest.mark.parametrize("name", bundled.BUILTIN_NAMES)
def test_certified_rank_matches_svd_on_bundled(name):
    Q, p = _bundled_point(name)
    matrices = _rank_matrices(Q, p)
    for M in matrices.values():
        _assert_same_decision(M)
    Dpsi = matrices["psi"]
    assert lorentz.kernel_dimension(Q, p.bs) == svd_rank(Dpsi).kernel_dimension(Dpsi.shape[1])


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_certified_rank_matches_svd_on_families(family):
    for m in range(5, 33):
        Q, p = _generated_point(family, m)
        for label, M in _rank_matrices(Q, p).items():
            assert _assert_same_decision(M).method == "cholesky", (family, m, label)


@pytest.mark.parametrize("name", ["tetrahedron353", "cube_mixed", "doubled_cube",
                                  "esselmann", "loebell8_factor"])
def test_certified_rank_matches_svd_off_solution_set(name):
    Q = bundled.load_builtin(name)
    index = vinberg.EquationIndex.from_orbifold(Q)
    rng = np.random.default_rng(31)
    for _ in range(4):
        p = vinberg.VinbergPoint(rng.normal(size=(Q.f, Q.n + 1)),
                                 rng.normal(size=(Q.f, Q.n + 1)))
        _assert_same_decision(vinberg.phi_jacobian(index, p))


@pytest.mark.parametrize("name, rank, kernel_minus_gauge",
                         [("doubled_cube", 47, 1), ("esselmann", None, 2)])
def test_rank_deficient_phi_takes_the_svd_path(name, rank, kernel_minus_gauge):
    Q, p = _bundled_point(name)
    M = vinberg.phi_jacobian(vinberg.EquationIndex.from_orbifold(Q), p)
    ref = svd_rank(M)
    report = vinberg.check_rank_sum(Q, p).rank_phi
    assert report.method == "svd" and not report.full_rank
    assert np.array_equal(report.singular_values, ref.singular_values)
    assert (report.rank, report.threshold, report.gap, report.uncertain) == \
        (ref.rank, ref.threshold, ref.gap, ref.uncertain)
    assert report.kernel_minus_gauge == kernel_minus_gauge
    if rank is not None:
        assert report.rank == rank


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_fast_path_taken_at_size_16(family):
    Q, p = _generated_point(family, 16)
    report = vinberg.check_rank_sum(Q, p)
    assert report.rank_phi.method == report.rank_psi.method == "cholesky"
    assert len(report.rank_phi.singular_values) == 0
    matrices = _rank_matrices(Q, p)
    assert numerical_rank(matrices["gauge"]).method == "cholesky"
    assert numerical_rank(matrices["staircase"]).method == "cholesky"


def _planted(shape, sigma_min, rng):
    """A matrix with singular values geomspace(1, 1e-2) and the last one
    replaced by sigma_min, from seeded orthogonal factors."""
    k = min(shape)
    s = np.geomspace(1.0, 1e-2, k)
    s[-1] = sigma_min
    left = np.linalg.qr(rng.normal(size=(shape[0], k)))[0]
    right = np.linalg.qr(rng.normal(size=(shape[1], k)))[0]
    return (left * s) @ right.T, s


@pytest.mark.parametrize("shape", [(30, 40), (40, 30)])
def test_planted_spectrum_at_the_margin(shape):
    """To leading order the certificate needs sigma_min^2 above (q + k + 1) u
    ||M||_F^2: the Gram formation error and Rump's Cholesky term, about half
    each here.  Just inside that margin the SVD must decide, and dropping
    either term, or bounding sigma_max by max |M_ij|, would certify it."""
    k, q = min(shape), max(shape)
    tau = q * 1e-12  # the default policy at sigma_max = 1
    rng = np.random.default_rng(5)
    norm2 = np.sum(_planted(shape, 1e-2, rng)[1] ** 2)
    margin = np.sqrt((q + k + 1) * UNIT_ROUNDOFF * norm2)

    M, _ = _planted(shape, 10.0 * margin, rng)
    assert _assert_same_decision(M).method == "cholesky"

    M, _ = _planted(shape, np.sqrt(0.75) * margin, rng)
    assert margin > 1e3 * tau
    rr = _assert_same_decision(M)
    assert rr.method == "svd" and rr.rank == k and not rr.uncertain

    M, _ = _planted(shape, 1e-3 * tau, rng)
    rr = _assert_same_decision(M)
    assert rr.method == "svd" and rr.rank == k - 1 and not rr.uncertain


def test_matrix_builder_is_called_again_only_for_the_svd():
    calls = []

    def counted(M):
        def build():
            calls.append(1)
            return M.copy()
        return StructuredMatrix(M.shape, lambda: M @ M.T, build)

    # wide: the Gram matrix serves, so the only build is the SVD's; tall: one
    # build for the Gram matrix of the short side, then one for the SVD
    cases = [(np.eye(6)[:4], "cholesky", 0), (np.diag([1.0, 1.0, 0.0]), "svd", 1),
             (np.eye(6)[:, :4], "cholesky", 1), (np.outer([1.0, 2.0, 3.0], [1.0, 1.0]), "svd", 2)]
    for M, method, n_calls in cases:
        calls.clear()
        rr = numerical_rank(counted(M))
        assert rr.method == method and len(calls) == n_calls
        ref = numerical_rank(M)
        assert (rr.rank, rr.method, rr.threshold) == (ref.rank, ref.method, ref.threshold)


# -- Gram matrices from the row structure ----------------------------------------

def _gamma(j):
    return j * UNIT_ROUNDOFF / (1.0 - j * UNIT_ROUNDOFF)


def _structured_cases(Q, p):
    """(dense oracle, structured matrix) for D phi at p and D psi at its bs."""
    index = vinberg.EquationIndex.from_orbifold(Q)
    return [(phi_jacobian_oracle(index, p), vinberg.phi_matrix(Q, p)),
            (psi_jacobian_oracle(Q, p.bs), lorentz.psi_matrix(Q, p.bs))]


def _assert_structured_matches(M, structured):
    """The dense builder gives M bit for bit; the assembled Gram matrix and
    the dense product W W^t both lie within gamma_q |W| |W|^t + q eta of the
    exact Gram matrix, so within twice that of each other; and the rank
    decision equals the SVD's."""
    assert structured.shape == M.shape and M.shape[0] <= M.shape[1]
    assert np.array_equal(structured.build(), M)
    q = M.shape[1]
    bound = _gamma(q) * (np.abs(M) @ np.abs(M).T) + q * SMALLEST_SUBNORMAL
    assert np.all(np.abs(structured.gram() - dense_gram_oracle(M)) <= 2.0 * bound)
    return _assert_same_decision(M, structured)


def _off_solution_points(Q, rng, count=2):
    return [vinberg.VinbergPoint(rng.normal(size=(Q.f, Q.n + 1)),
                                 rng.normal(size=(Q.f, Q.n + 1))) for _ in range(count)]


@pytest.mark.parametrize("name", bundled.BUILTIN_NAMES)
def test_structured_gram_matches_dense_on_bundled(name):
    Q, p = _bundled_point(name)
    rng = np.random.default_rng(41)
    for q in [p] + _off_solution_points(Q, rng):
        for M, structured in _structured_cases(Q, q):
            _assert_structured_matches(M, structured)


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_structured_gram_matches_dense_on_families(family):
    rng = np.random.default_rng(43)
    for m in range(5, 33):
        Q, R = family_realization(family, m)
        p = vinberg.hyperbolic_point(R)
        for M, structured in _structured_cases(Q, p):
            assert _assert_structured_matches(M, structured).method == "cholesky", (family, m)
        for q in _off_solution_points(Q, rng, 1):
            for M, structured in _structured_cases(Q, q):
                _assert_structured_matches(M, structured)


def test_rank_deficient_structured_matrix_takes_the_svd_path():
    Q, p = _bundled_point("doubled_cube")
    M, structured = _structured_cases(Q, p)[0]
    rr = _assert_structured_matches(M, structured)
    assert rr.method == "svd" and rr.rank == 47


def test_gram_matrix_is_released_before_the_svd():
    """A rank-deficient matrix M = U V whose Gram matrix A is formed without
    M: the certificate fails and the SVD decides.  Holding A through the
    SVD would put the traced peak at A + M + the finiteness mask of M, above
    M + A; releasing it keeps the peak below.  (LAPACK's work buffers are not
    traced.)"""
    rng = np.random.default_rng(7)
    U, V = rng.normal(size=(100, 60)), rng.normal(size=(60, 300))
    M = U @ V
    A = dense_gram_oracle(M)
    planted = StructuredMatrix(M.shape, lambda: U @ (V @ V.T) @ U.T, lambda: U @ V)
    tracemalloc.start()
    try:
        rr = numerical_rank(planted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rr.method == "svd" and rr.rank == 60
    assert peak < M.nbytes + A.nbytes
