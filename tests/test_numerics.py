"""The certified full-rank path of ``numerical_rank`` against the dense SVD
it falls back to (``svd_rank``): the same rank, uncertain flag and kernel
dimension on every bundled orbifold, on generated factor and cap points, on
random points off the solution set, and on planted spectra at the margin.
The block certificate of D phi is checked against the SVD of the dense
D phi, and its bound and floors on planted matrices.  The Gram matrices
assembled from the row structure of D phi and D psi are checked against the
dense product and its rounding bound."""

import argparse

import numpy as np
import pytest

from coxdeform import bundled, cli, lorentz, numerics, polytope as pt, vinberg
from coxdeform.numerics import (DEFAULT_RANK_POLICY, BlockRows, BorderedGram, RowSymmetry,
                                StructuredMatrix, _full_rank_certificate, numerical_rank,
                                svd_rank, triangular_sigma_bound)
from conftest import (block_gram_oracle, bordered_trailing_oracle, dense_gram_oracle,
                      family_realization, full_gram_certificate_oracle, full_gram_rank_oracle,
                      loebell_factor_orbifold, one_order_changed, phi_jacobian_oracle,
                      prism_cap_orbifold, psi_jacobian_oracle, random_lorentz_transform,
                      traced_peak, twiddles_oracle)

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
    return {"phi": vinberg.phi_jacobian(index, p),
            "psi": lorentz.psi_jacobian(Q, p.bs),
            "gauge": vinberg.gauge_directions(p),
            "staircase": vinberg.e2_staircase(index, p).build()}


def _structured_patterns(Q, p):
    """(pattern, stored values) of D phi, D psi and the E2 staircase at p."""
    S, T = vinberg._as_index(Q).phi_structure, lorentz.psi_structure(Q)
    index = vinberg.EquationIndex.from_orbifold(Q)
    i, j = index.e2_positions
    return {"phi": (S.rows, S.values(p)), "psi": (T.rows, T.values(lorentz._alphas(p.bs))),
            "staircase": (index.staircase_rows,
                          np.concatenate([lorentz._alphas(p.bs[j]), -p.alphas[i]]))}


def _assert_full_gram_decision(Q, p):
    """The decision on D phi, D psi and the staircase, each given by its row
    structure, has the rank, method and threshold of the certificate on
    the whole Gram matrix."""
    for label, (rows, values) in _structured_patterns(Q, p).items():
        rr = numerical_rank(rows.matrix(values))
        assert (rr.rank, rr.method, rr.threshold) == full_gram_rank_oracle(rows, values), label


def _assert_block_decision(Q, p):
    """check_rank_sum's decision on D phi equals the SVD's rank of the dense
    D phi; a block certificate's threshold lies between the SVD's cut and
    its sigma_min.  Returns the method."""
    report = vinberg.check_rank_sum(Q, p).rank_phi
    ref = svd_rank(vinberg.phi_jacobian(Q, p))
    assert report.rank == ref.rank
    if report.method == "block":
        assert len(report.singular_values) == 0 and report.gap == np.inf
        assert ref.threshold <= report.threshold < ref.singular_values[-1]
        # the threshold the Cholesky path certifies, bit for bit
        assert report.threshold == numerical_rank(vinberg.phi_matrix(Q, p)).threshold
    return report.method


def _bundled_point(name):
    Q = bundled.load_builtin(name)
    return Q, vinberg.hyperbolic_point(cli._realize(Q, REALIZE_DEFAULTS)[0])


def _solved_point(Q):
    return Q, vinberg.hyperbolic_point(lorentz.solve_hyperbolic_newton(Q))


def _generated_point(family, m):
    return _solved_point(loebell_factor_orbifold(pt.loebell(m)) if family == "loebell"
                         else prism_cap_orbifold(m))


@pytest.mark.parametrize("name", bundled.BUILTIN_NAMES)
def test_certified_rank_matches_svd_on_bundled(name):
    Q, p = _bundled_point(name)
    matrices = _rank_matrices(Q, p)
    for M in matrices.values():
        _assert_same_decision(M)
    want = "svd" if name in ("doubled_cube", "esselmann") else "block"
    assert _assert_block_decision(Q, p) == want
    _assert_full_gram_decision(Q, p)
    Dpsi = matrices["psi"]
    assert lorentz.kernel_dimension(Q, p.bs) == svd_rank(Dpsi).kernel_dimension(Dpsi.shape[1])


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_certified_rank_matches_svd_on_families(family):
    """The members for m = 5..32 and, in the loebell family, its factors
    for m = 8, 16 and 32 with one order changed: no rotation keeps their
    orders, so their Gram matrices carry no hint, and the level of
    closed-form pivots and LAPACK decide."""
    cases = [((family, m),) + _generated_point(family, m) for m in range(5, 33)]
    if family == "loebell":
        for m in (8, 16, 32):
            Q = one_order_changed(loebell_factor_orbifold(pt.loebell(m)))
            assert lorentz.psi_structure(Q).symmetry is None, m
            cases.append((("one order changed", m),) + _solved_point(Q))
    for case, Q, p in cases:
        for label, M in _rank_matrices(Q, p).items():
            assert _assert_same_decision(M).method == "cholesky", (case, label)
        S = vinberg.e2_staircase(vinberg.EquationIndex.from_orbifold(Q), p)
        assert _assert_same_decision(S.build(), S).method == "cholesky", case
        assert _assert_block_decision(Q, p) == "block", case
        _assert_full_gram_decision(Q, p)


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
    assert report.rank_phi.method == "block" and report.rank_psi.method == "cholesky"
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


@pytest.mark.parametrize("shape", [(30, 40), (40, 30)])
def test_floored_certificate_at_the_floor(shape):
    """With a floor beta far above the rounding margin, the certificate holds
    for sigma_min = 1.01 beta and fails for 0.99 beta, and still returns the
    policy's threshold."""
    rng = np.random.default_rng(11)
    beta = 1e-3
    k = min(shape)
    for factor, holds in ((1.01, True), (0.99, False)):
        M, _ = _planted(shape, factor * beta, rng)
        W = M if shape[0] <= shape[1] else M.T
        tau = _full_rank_certificate(W @ W.T, shape, DEFAULT_RANK_POLICY, floor=beta)
        assert (tau is not None) == holds, factor
        plain = _full_rank_certificate(W @ W.T, shape, DEFAULT_RANK_POLICY)
        assert plain is not None and plain < beta and (tau is None or tau == plain)
        assert numerical_rank(M).rank == k


def _planted_pattern(rng, nblocks=12, width=3, extra=14):
    """A wide BlockRows pattern whose first nblocks / 2 rows take one block
    each and share none, then ``extra`` rows with terms in two or three
    random blocks, with seeded values."""
    lead = nblocks // 2
    row, block = list(range(lead)), list(rng.permutation(nblocks)[:lead])
    for r in range(lead, lead + extra):
        for b in rng.choice(nblocks, size=rng.integers(2, 4), replace=False):
            row.append(r)
            block.append(b)
    rows = BlockRows(lead + extra, nblocks, row, block)
    return rows, rng.normal(size=(len(row), width))


def _planted_graph(rng, nblocks=100, nedges=280, width=4):
    """A wide BlockRows pattern shaped like D psi: one row in each of
    ``nblocks`` blocks, then one row with terms in the two blocks of each of
    ``nedges`` distinct random pairs, with seeded values.  Its level of
    pivots is the ``nblocks`` first rows, which leave a sparse block of one
    row per pair."""
    edges = set()
    while len(edges) < nedges:
        edges.add(tuple(sorted(rng.choice(nblocks, size=2, replace=False).tolist())))
    edges = sorted(edges)
    row = list(range(nblocks)) + [nblocks + k for k in range(nedges) for _ in range(2)]
    block = list(range(nblocks)) + [b for edge in edges for b in edge]
    rows = BlockRows(nblocks + nedges, nblocks, row, block)
    return rows, rng.normal(size=(len(row), width))


# The planted patterns by seed: "seed-extra" for _planted_pattern,
# "graph-seed" for _planted_graph.
PLANTED = {"3-14": (_planted_pattern, 3, {}), "19-14": (_planted_pattern, 19, {}),
           "5-0": (_planted_pattern, 5, {"extra": 0}),
           "graph-3": (_planted_graph, 3, {}), "graph-19": (_planted_graph, 19, {})}


def _planted_case(name):
    make, seed, kwargs = PLANTED[name]
    return make(np.random.default_rng(seed), **kwargs)


@pytest.mark.parametrize("name", PLANTED)
def test_bordered_certificate_at_the_floor(name):
    """A BlockRows matrix scaled so that sigma_min = 1.01 beta or 0.99 beta:
    its certificate with floor beta holds at the first and fails at the
    second, with the full-Gram certificate's threshold, while its pivots are
    eliminated in closed form.  The patterns of _planted_pattern have 6
    block-disjoint leading rows, and with no further rows every row is a
    pivot and LAPACK sees nothing; the planted graphs' pivots are their
    one row per block, and LAPACK sees the rows of the pairs."""
    rows, values = _planted_case(name)
    pivots = rows.elimination.level.pivot_rows
    if not name.startswith("graph"):
        assert np.isin(np.arange(6), pivots).all()
        assert rows.elimination.size <= max(rows.nrows - 7, 0)
    else:
        assert np.array_equal(pivots, np.arange(rows.nblocks))
        assert rows.elimination.size == rows.nrows - rows.nblocks
    beta = 1e-2
    sigma = np.linalg.svd(rows.dense(values), compute_uv=False)[-1]
    for factor, holds in ((1.01, True), (0.99, False)):
        scaled = values * (factor * beta / sigma)
        shape = rows.shape(scaled)
        tau = _full_rank_certificate(rows.gram(scaled), shape, DEFAULT_RANK_POLICY, floor=beta)
        assert (tau is not None) == holds, factor
        plain = _full_rank_certificate(rows.gram(scaled), shape)
        assert plain is not None and plain < beta and (tau is None or tau == plain)
        assert full_gram_rank_oracle(rows, scaled)[2] == plain


def _gram_pattern(rows):
    """Which rows share a block, from the block incidence of the terms."""
    incidence = np.zeros((rows.nrows, rows.nblocks), dtype=int)
    incidence[rows.row, rows.block] = 1
    return incidence @ incidence.T > 0


def _assert_level_greedy(rows):
    """Replays the level of a pattern's elimination on the structural
    pattern of its Gram matrix, filled in densely.  The level's pivots
    share no structural nonzero with each other, and are greedy: a row is
    taken exactly when no neighbour of it was taken before it, visiting the
    rows in row order.  The block left is the other rows, in row order,
    and its structural nonzeros r >= s are the entries between them and the
    fill of the pivots they couple to."""
    P = _gram_pattern(rows)
    E = rows.elimination
    taken = np.zeros(rows.nrows, dtype=bool)
    for r in range(rows.nrows):
        taken[r] = not (P[r] & taken).any()
    assert np.array_equal(E.level.pivot_rows, np.flatnonzero(taken))
    assert np.array_equal(E.level.trail_rows, np.flatnonzero(~taken))
    coupled = P[np.ix_(~taken, taken)].astype(int)
    filled = P[np.ix_(~taken, ~taken)] | (coupled @ coupled.T > 0)
    assert E.size == len(filled)
    assert np.array_equal(E.lower, np.flatnonzero(np.tril(filled)))


def test_pivots_are_greedy_and_block_disjoint():
    """Each pivot row shares no block with an earlier pivot, and each other
    row shares one with an earlier pivot, on the planted patterns and on
    D phi, D psi and the staircase of the loebell(8) factor.  D psi's pivots
    are its f diagonal rows, on every bundled orbifold and on the loebell(m)
    factors and prism(m) cap orbifolds for m = 5..64.  The level is
    replayed (:func:`_assert_level_greedy`) on those patterns and on D psi
    and the staircase of both families at m = 24, 32, 48 and 64."""
    Q, p = _bundled_point("loebell8_factor")
    patterns = [rows for rows, _ in _structured_patterns(Q, p).values()]
    patterns += [_planted_case(name)[0] for name in PLANTED]
    for rows in patterns:
        used = set()
        first = np.isin(np.arange(rows.nrows), rows.elimination.level.pivot_rows)
        for r in range(rows.nrows):
            blocks = set(rows.block[rows.row == r].tolist())
            assert first[r] == (not blocks & used), r
            used |= blocks if first[r] else set()
    orbifolds = [bundled.load_builtin(name) for name in bundled.BUILTIN_NAMES]
    for m in range(5, 65):
        orbifolds += [loebell_factor_orbifold(pt.loebell(m)), prism_cap_orbifold(m)]
    for Q in orbifolds:
        psi = lorentz.psi_structure(Q).rows
        assert np.array_equal(psi.elimination.level.pivot_rows, np.arange(Q.f))
    for family in ("loebell", "prism"):
        for m in (24, 32, 48, 64):
            Q = family_realization(family, m)[0]
            patterns += [lorentz.psi_structure(Q).rows,
                         vinberg.EquationIndex.from_orbifold(Q).staircase_rows]
    for rows in patterns:
        _assert_level_greedy(rows)


def _bordered_cases():
    """(pattern, values) of the planted patterns and of D phi, D psi and the
    staircase of the loebell(8) factor."""
    Q, p = _bundled_point("loebell8_factor")
    return [_planted_case(name) for name in PLANTED] + list(_structured_patterns(Q, p).values())


def test_bordered_solve_matches_dense_solve():
    """BorderedGram.solve at a shift below 0 (Newton's -mu) and at one above
    0 (half the smallest diagonal entry) matches np.linalg.solve of the
    dense fl(A - s I) to 4 kappa u, both being backward-stable solves; in
    the pattern's reused work array it equals the solve of a fresh copy of
    the pattern bit for bit.  Above 0,
    fl(A - s I) may be indefinite: where the dense elimination of the level
    meets a pivot that is not positive, the solve raises LinAlgError, as
    the factorisation does.  The dense form of the same Gram matrix, which
    has no level, solves it as np.linalg.solve does, again and again."""
    rng = np.random.default_rng(53)
    for rows, values in _bordered_cases():
        A = block_gram_oracle(rows, values)
        diag = np.diagonal(A)
        bordered, dense = rows.gram(values), BorderedGram.dense(A.copy())
        for s in (-1e-12 * diag.sum() / len(diag), 0.5 * diag.min()):
            B = A.copy()
            B.flat[::len(B) + 1] -= s
            r = rng.normal(size=rows.nrows)
            ref = np.linalg.solve(B, r)
            for _ in range(3):
                assert np.array_equal(dense.solve(s, r), ref), s
            assert np.array_equal(dense.trailing(s), B), s
            if bordered_trailing_oracle(A, rows.elimination.level.pivot_rows, s) is None:
                with pytest.raises(np.linalg.LinAlgError):
                    bordered.solve(s, r)
                continue
            tol = 4.0 * np.linalg.cond(B) * UNIT_ROUNDOFF
            y = bordered.solve(s, r)
            assert np.linalg.norm(y - ref) <= tol * np.linalg.norm(ref), s
            fresh = BlockRows(rows.nrows, rows.nblocks, rows.row, rows.block)
            assert np.array_equal(y, fresh.gram(values).solve(s, r)), s
            assert bordered.trailing(s) is rows.work, s
            assert np.array_equal(rows.work, fresh.work), s


def _arrow_rows(rng, k, g, width, deficient=False):
    """k rows with disjoint supports of ``width`` columns each, then g dense
    rows, the last of them the sum of two others where ``deficient``."""
    W = np.zeros((k + g, k * width))
    for i in range(k):
        W[i, i * width:(i + 1) * width] = rng.normal(size=width)
    W[k:] = rng.normal(size=(g, k * width))
    if deficient:
        W[-1] = W[0] + W[k]
    return W


def test_arrow_form_is_the_dense_elimination():
    """BorderedGram.arrow of the Gram matrix of rows with disjoint supports
    followed by dense rows has A's diagonal and, at shifts below the
    smallest pivot, the trailing block of the dense elimination of those
    rows up to the order of each entry's sum of products (2 gamma_k |L|
    |L|^t, L the multipliers); it raises LinAlgError at a pivot that is not
    positive; and the certificate decides as on the dense A, with the same
    threshold, failing where the rows are rank-deficient."""
    rng = np.random.default_rng(97)
    for k, g, width in ((5, 3, 2), (40, 15, 8), (130, 15, 8)):
        for deficient in (False, True):
            W = _arrow_rows(rng, k, g, width, deficient)
            A = W @ W.T
            d = np.diagonal(A)
            arrow = BorderedGram.arrow(d[:k].copy(), A[k:, :k].copy(), A[k:, k:].copy())
            assert np.array_equal(arrow.diagonal, d)
            for s in np.array([-0.5, 0.5]) * d[:k].min():
                L = np.abs(A[k:, :k]) / np.sqrt(d[:k] - s)
                bound = 2.0 * _gamma(k) * (L @ L.T)
                ref = bordered_trailing_oracle(A, np.arange(k), s)
                assert np.all(np.abs(arrow.trailing(s) - ref) <= bound), s
            with pytest.raises(np.linalg.LinAlgError):
                arrow.trailing(d[:k].max())
            tau = _full_rank_certificate(arrow, W.shape)
            assert tau == _full_rank_certificate(A.copy(), W.shape)
            assert (tau is None) == deficient


def test_second_certificate_allocates_no_trailing_block(monkeypatch):
    """A second certificate on D psi's and on the staircase's pattern at the
    loebell(64) factor forms the block left to LAPACK (m rows) in the
    pattern's work array again, and its traced peak stays under two such
    blocks (2 m^2 doubles): LAPACK's factor of the block, and the level's
    entries and multipliers.  A block allocated per certificate, and the
    factor, would exceed it.  The mode path, which forms no such block, is
    turned off."""
    monkeypatch.setattr(BlockRows, "modes", lambda self, symmetry: None)
    Q, R = family_realization("loebell", 64)
    p = vinberg.hyperbolic_point(R)
    index = vinberg.EquationIndex.from_orbifold(Q)
    for M, rows in ((lorentz.psi_matrix(Q, p.bs), lorentz.psi_structure(Q).rows),
                    (vinberg.e2_staircase(index, p), index.staircase_rows)):
        m = rows.elimination.size
        assert _full_rank_certificate(M.gram(), M.shape) is not None
        work = rows.work
        assert work.shape == (m, m)
        tau, peak = traced_peak(lambda: _full_rank_certificate(M.gram(), M.shape))
        assert tau is not None and rows.work is work
        assert peak < 2 * m * m * 8


def test_second_mode_certificate_allocates_no_block_stack():
    """A second certificate of D psi's and of the staircase's Gram matrix at
    the loebell(64) factor, both on the mode path there, forms the mode
    blocks in the buffers of the pattern's mode form: the blocks are the
    same array as the first certificate's, forming them traces a peak under
    one block stack (D psi: 17 x 32 x 32 doubles), and the whole
    certificate stays under that stack plus the Gram entries, LAPACK's
    factor of the stack being the one stack it allocates.  A stack, twiddle
    product and source vector allocated per certificate exceed both."""
    Q, R = family_realization("loebell", 64)
    p = vinberg.hyperbolic_point(R)
    index = vinberg.EquationIndex.from_orbifold(Q)
    for M, rows, symmetry in (
            (lorentz.psi_matrix(Q, p.bs), lorentz.psi_structure(Q).rows,
             lorentz.psi_structure(Q).symmetry),
            (vinberg.e2_staircase(index, p), index.staircase_rows, index.symmetries[1])):
        form = rows.modes(symmetry)
        assert form is not None
        first = _full_rank_certificate(M.gram(), M.shape)
        assert first is not None
        stack = 8 * form.layout.size
        gram = M.gram()
        (blocks, _, _), peak = traced_peak(gram.modes)
        assert peak < stack
        tau, peak = traced_peak(lambda: _full_rank_certificate(gram, M.shape))
        assert tau == first
        assert peak < stack + 8 * len(rows.structure.keys)
        assert M.gram().modes()[0] is blocks and rows.modes(symmetry) is form


def test_transpose_product_is_the_dense_product():
    """M^t y from the pattern equals the dense product within the rounding
    of both sums, 2 gamma_k |M|^t |y| for k rows."""
    rng = np.random.default_rng(59)
    for rows, values in _bordered_cases():
        M = rows.dense(values)
        y = rng.normal(size=rows.nrows)
        bound = 2.0 * _gamma(rows.nrows) * (np.abs(M).T @ np.abs(y))
        assert np.all(np.abs(rows.transpose_product(values, y) - M.T @ y) <= bound)


def _planted_triangular(beta_a, beta_d, norm_b, rng):
    """T = [[A, B], [0, D]] with A 6 x 10 and D 8 x 12 of smallest singular
    values beta_a and beta_d, and B = norm_b u v^t rank one, u the left
    singular vector of A at beta_a and v the right one of D at beta_d, so
    that A^+ B D^+ has norm norm_b / (beta_a beta_d)."""
    def planted(k, q, smin):
        s = np.geomspace(1.0, 0.5, k)
        s[-1] = smin
        U = np.linalg.qr(rng.normal(size=(k, k)))[0]
        V = np.linalg.qr(rng.normal(size=(q, k)))[0]
        return (U * s) @ V.T, U[:, -1], V[:, -1]
    A, u, _ = planted(6, 10, beta_a)
    D, _, v = planted(8, 12, beta_d)
    T = np.zeros((14, 22))
    T[:6, :10], T[6:, 10:], T[:6, 10:] = A, D, norm_b * np.outer(u, v)
    return T


@pytest.mark.parametrize("beta_a, beta_d, norm_b", [(0.2, 0.3, 0.0), (0.2, 0.3, 50.0)])
def test_triangular_bound_against_true_sigma_min(beta_a, beta_d, norm_b):
    """The bound lies below the true sigma_min and within a factor 3 of it.
    With B = 0 the 1/beta terms carry it (min(beta_a, beta_d) >= sigma_min >
    bound), and with a large B its ||B|| term: there sigma_min is about
    beta_a beta_d / ||B||, far below 1 / (1/beta_a + 1/beta_d)."""
    rng = np.random.default_rng(17)
    T = _planted_triangular(beta_a, beta_d, norm_b, rng)
    true = np.linalg.svd(T, compute_uv=False)[-1]
    bound = triangular_sigma_bound(beta_a, beta_d, norm_b)
    assert true / 3.0 < bound <= true
    if norm_b:
        assert true < 0.1 / (1.0 / beta_a + 1.0 / beta_d)
    else:
        assert true == pytest.approx(min(beta_a, beta_d), rel=1e-9)


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
    """(dense oracle, pattern, stored values) for D phi at p and D psi at its
    bs."""
    index = vinberg.EquationIndex.from_orbifold(Q)
    S, T = vinberg._as_index(Q).phi_structure, lorentz.psi_structure(Q)
    return [(phi_jacobian_oracle(index, p), S.rows, S.values(p)),
            (psi_jacobian_oracle(Q, p.bs), T.rows, T.values(lorentz._alphas(p.bs)))]


def _assert_structured_matches(M, rows, values):
    """The dense builder gives M bit for bit; the Gram matrix assembled from
    the pattern and the dense product W W^t both lie within gamma_q |W|
    |W|^t + q eta of the exact Gram matrix, so within twice that of each
    other; the bordered form has that Gram matrix's diagonal and, at a
    shift below its smallest diagonal entry, the trailing block of its
    dense elimination, bit for bit; and the rank decision equals the
    SVD's."""
    structured = rows.matrix(values)
    assert structured.shape == M.shape and M.shape[0] <= M.shape[1]
    assert np.array_equal(structured.build(), M)
    q = M.shape[1]
    bound = _gamma(q) * (np.abs(M) @ np.abs(M).T) + q * SMALLEST_SUBNORMAL
    A = block_gram_oracle(rows, values)
    assert np.all(np.abs(A - dense_gram_oracle(M)) <= 2.0 * bound)
    bordered = structured.gram()
    assert np.array_equal(bordered.diagonal, np.diagonal(A))
    for s in np.array([-0.5, 0.5]) * np.diagonal(A).min():
        ref = bordered_trailing_oracle(A, rows.elimination.level.pivot_rows, s)
        if ref is None:
            with pytest.raises(np.linalg.LinAlgError):
                bordered.trailing(s)
        else:
            assert np.array_equal(bordered.trailing(s), ref), s
    return _assert_same_decision(M, structured)


def _off_solution_points(Q, rng, count=2):
    return [vinberg.VinbergPoint(rng.normal(size=(Q.f, Q.n + 1)),
                                 rng.normal(size=(Q.f, Q.n + 1))) for _ in range(count)]


@pytest.mark.parametrize("name", bundled.BUILTIN_NAMES)
def test_structured_gram_matches_dense_on_bundled(name):
    Q, p = _bundled_point(name)
    rng = np.random.default_rng(41)
    for q in [p] + _off_solution_points(Q, rng):
        for case in _structured_cases(Q, q):
            _assert_structured_matches(*case)


@pytest.mark.parametrize("family", ["loebell", "prism"])
def test_structured_gram_matches_dense_on_families(family):
    rng = np.random.default_rng(43)
    for m in range(5, 33):
        Q, R = family_realization(family, m)
        p = vinberg.hyperbolic_point(R)
        for case in _structured_cases(Q, p):
            assert _assert_structured_matches(*case).method == "cholesky", (family, m)
        for q in _off_solution_points(Q, rng, 1):
            for case in _structured_cases(Q, q):
                _assert_structured_matches(*case)


@pytest.mark.parametrize("name", ["tetrahedron353", "doubled_cube", "esselmann",
                                  "loebell8_factor"])
def test_gram_diagonal_is_the_gram_matrix_diagonal(name):
    Q, p = _bundled_point(name)
    rng = np.random.default_rng(47)
    for q in [p] + _off_solution_points(Q, rng):
        S, T = vinberg._as_index(Q).phi_structure, lorentz.psi_structure(Q)
        for rows, values in ((S.rows, S.values(q)), (T.rows, T.values(q.alphas))):
            diagonal = np.diagonal(block_gram_oracle(rows, values))
            assert np.array_equal(rows.gram_diagonal(values), diagonal)
            assert np.array_equal(rows.gram(values).diagonal, diagonal)


def test_rank_deficient_structured_matrix_takes_the_svd_path():
    Q, p = _bundled_point("doubled_cube")
    rr = _assert_structured_matches(*_structured_cases(Q, p)[0])
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
    rr, peak = traced_peak(lambda: numerical_rank(planted))
    assert rr.method == "svd" and rr.rank == 60
    assert peak < M.nbytes + A.nbytes


# -- the mode certificate under the ring rotation ----------------------------------

def _mode_cases(Q, p):
    """(label, pattern, stored values, hint) of D psi, the staircase and D
    phi at p, the hints those of the ring rotation."""
    index = vinberg.EquationIndex.from_orbifold(Q)
    patterns = _structured_patterns(Q, p)
    hints = {"psi": lorentz.psi_structure(Q).symmetry, "phi": index.symmetries[0],
             "staircase": index.symmetries[1]}
    return [(label, *patterns[label], hints[label]) for label in ("psi", "staircase", "phi")]


def _mode_certificate(rows, values, symmetry, floor=0.0):
    """The mode path alone, whether or not it is taken: tau_bar where the
    mode blocks certify sigma_min > max(tau_bar, floor), else None."""
    form = numerics._mode_form(rows.nrows, rows.structure.keys, symmetry)
    assert form is not None
    shape = rows.shape(values)
    sigma2, tau = numerics._sigma_bound(rows.gram_diagonal(values), shape)
    blocks = numerics._mode_blocks(form, rows.gram_entries(values))
    return tau if numerics._modes_certify(blocks, max(tau, floor), sigma2, shape) else None


def _sigma_min(rows, values):
    """sigma_min of a wide pattern's matrix, from scipy: the smallest
    eigenvalue of its sparse Gram matrix by shift-invert Lanczos."""
    import scipy.sparse
    import scipy.sparse.linalg

    width = values.shape[1]
    M = scipy.sparse.csr_matrix(
        (values.ravel(), (np.repeat(rows.row, width),
                          (rows.block[:, None] * width + np.arange(width)).ravel())),
        shape=rows.shape(values))
    A = (M @ M.T).tocsc()
    return float(np.sqrt(scipy.sparse.linalg.eigsh(A, k=1, sigma=0.0, which="LM",
                                                    return_eigenvectors=False)[0]))


SMALL_MODE_CASES = (8, 16, 32, "loebell6_factor", "loebell8_factor")
MODE_FAMILIES = [(family, m) for family in ("loebell", "prism") for m in (8, 16, 32, 64, 128, 192)]


def test_twiddles_match_the_entrywise_table():
    """The DFT table, gathered from K cosines and K sines, equals the table
    built entry by entry with math.cos and math.sin bit for bit, signed
    zeros included, at every K up to 69 and at the prism(192) and
    prism(256) caps' K; it is read-only."""
    for K in list(range(1, 70)) + [192, 256]:
        table, ref = numerics._twiddles(K), twiddles_oracle(K)
        assert table.shape == ref.shape and table.dtype == ref.dtype, K
        assert np.array_equal(table.view(np.uint64), ref.view(np.uint64)), K
        assert not table.flags.writeable, K


@pytest.mark.parametrize("family, m", MODE_FAMILIES + [("bundled", "loebell6_factor"),
                                                        ("bundled", "loebell8_factor")])
def test_mode_certificate_matches_full_gram_and_sigma_min(family, m):
    """On D psi, the staircase and D phi of both families and of the
    bundled factors with a rotation, the mode certificate alone holds where
    the Cholesky of the whole Gram matrix does, with its threshold; that
    threshold lies below sigma_min (scipy's Lanczos; the dense SVD up to m =
    32, to 1e-9); and with a floor of 0.99 or 1.01 sigma_min it decides as
    that Cholesky does: it fails at 1.01 sigma_min, and holds at 0.99
    sigma_min up to m = 32.  Beyond, the rounding terms of both exceed the
    2% of sigma_min^2 between the floors on some matrices."""
    if family == "bundled":
        Q, p = _bundled_point(m)
    else:
        Q, R = family_realization(family, m)
        p = vinberg.hyperbolic_point(R)
    for label, rows, values, symmetry in _mode_cases(Q, p):
        shape = rows.shape(values)
        tau = _mode_certificate(rows, values, symmetry)
        oracle = full_gram_certificate_oracle(block_gram_oracle(rows, values), shape)
        assert tau is not None and tau == oracle, label
        sigma = _sigma_min(rows, values)
        if rows.nrows <= 400:
            ref = svd_rank(rows.dense(values)).singular_values[-1]
            assert abs(sigma - ref) <= 1e-9 * ref, label
        assert tau < sigma, label
        for factor in (0.99, 1.01):
            floored = _mode_certificate(rows, values, symmetry, factor * sigma)
            assert floored == full_gram_certificate_oracle(block_gram_oracle(rows, values), shape,
                                                           floor=factor * sigma), (label, factor)
            if factor > 1.0:
                assert floored is None, label
            elif m in SMALL_MODE_CASES:
                assert floored == tau, label


@pytest.mark.parametrize("family, m", [("loebell", 8), ("loebell", 16), ("prism", 8),
                                       ("prism", 9), ("loebell", 10)])
def test_mode_blocks_have_the_gram_spectrum(family, m):
    """The mode blocks, each cut to its own size (mode 0: the fixed rows and
    one row per orbit; a mode pair: two per orbit; mode K/2: one), have
    together the eigenvalues of the Gram matrix, to 1e-12 of its norm, for
    odd K (prism(9)) and even K.  Their padding is the largest diagonal
    entry, and the bound beside them covers the asymmetry and the DFT."""
    Q, R = family_realization(family, m)
    p = vinberg.hyperbolic_point(R)
    for label, rows, values, symmetry in _mode_cases(Q, p):
        form = numerics._mode_form(rows.nrows, rows.structure.keys, symmetry)
        blocks, extra, dmax = numerics._mode_blocks(form, rows.gram_entries(values))
        K, nf, b = form.K, form.nfixed, form.norbits
        sizes = [nf + b] + [2 * b] * ((K - 1) // 2) + [b] * (K % 2 == 0)
        assert len(sizes) == len(blocks) == K // 2 + 1, label
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(B[:n, :n])
                                           for B, n in zip(blocks, sizes)]))
        A = block_gram_oracle(rows, values)
        ref = np.linalg.eigvalsh(A)
        assert len(spectrum) == len(ref) == rows.nrows, label
        assert np.abs(spectrum - ref).max() <= 1e-12 * ref[-1], label
        for B, n in zip(blocks, sizes):
            assert np.array_equal(np.diagonal(B)[n:], np.full(len(B) - n, dmax)), label
            assert not B[n:, :n].any() and not B[:n, n:].any(), label
        assert dmax == max(B[:n, :n].diagonal().max() for B, n in zip(blocks, sizes))
        assert 0.0 < extra < 1e-9 * ref[-1], label


def _circulant_rows(K, va, vb, vc, vf):
    """A wide pattern with K blocks of width 3 and the block shift as its
    symmetry: orbit 0, row k with ``va[k]`` in block k and ``vb[k]`` in
    block k + 1; orbit 1, row K + k with ``vc`` in block k; and one fixed
    row with ``vf`` in every block.  Returns (pattern, values, hint)."""
    k = np.arange(K)
    row = np.concatenate([k, k, K + k, np.full(K, 2 * K)])
    block = np.concatenate([k, (k + 1) % K, k, k])
    values = np.concatenate([va, vb, np.tile(vc, (K, 1)), np.tile(vf, (K, 1))])
    image = np.concatenate([(k + 1) % K, K + (k + 1) % K, [2 * K]])
    return (BlockRows(2 * K + 1, K, row, block), values,
            RowSymmetry(image, np.ones(2 * K + 1)))


def test_singular_mode_is_not_certified():
    """A block-circulant pattern whose orbit 0 repeats one vector v in both
    its blocks has an exactly singular mode K/2: the alternating sum of
    those rows is zero.  The mode path does not certify it, and the SVD
    decides a rank one short.  With v's second copy moved, every mode is
    regular: the mode path certifies with the full-Gram threshold, and
    with the hint turned by one row it fails and the level and LAPACK
    certify."""
    K = 8
    rng = np.random.default_rng(67)
    v, vc, vf = rng.normal(size=(3, 3))
    rows, values, hint = _circulant_rows(K, np.tile(v, (K, 1)), np.tile(v, (K, 1)), vc, vf)
    assert svd_rank(rows.dense(values)).rank == 2 * K
    assert _mode_certificate(rows, values, hint) is None
    rr = numerical_rank(rows.matrix(values, hint))
    assert (rr.method, rr.rank) == ("svd", 2 * K)

    rows, values, hint = _circulant_rows(K, np.tile(v, (K, 1)), np.tile(v + 0.5, (K, 1)), vc, vf)
    tau = _mode_certificate(rows, values, hint)
    assert tau is not None
    assert tau == full_gram_certificate_oracle(block_gram_oracle(rows, values), rows.shape(values))
    turned = RowSymmetry(np.roll(hint.image, 1), hint.sign)
    assert numerics._row_orbits(turned) is None or _mode_certificate(rows, values, turned) is None
    shifted = RowSymmetry(np.concatenate([np.roll(hint.image[:2 * K], 1), [2 * K]]), hint.sign)
    assert _mode_certificate(rows, values, shifted) is None
    assert numerical_rank(rows.matrix(values, shifted)).threshold == tau


def test_asymmetry_bound_keeps_the_certificate_below_sigma_min():
    """Orbit 0 with v in both blocks of every row but its representative,
    which has v and v + d: the symmetrised matrix, read off the
    representative, has its smallest eigenvalue near |d|^2, K times that of
    the Gram matrix itself.  A floor between the two is not certified: the
    asymmetry term covers the rows the representative does not show."""
    K = 8
    rng = np.random.default_rng(71)
    v, vc, vf = rng.normal(size=(3, 3))
    vb = np.tile(v, (K, 1))
    vb[0] += 0.05
    rows, values, hint = _circulant_rows(K, np.tile(v, (K, 1)), vb, vc, vf)
    sigma = svd_rank(rows.dense(values)).singular_values[-1]
    form = numerics._mode_form(rows.nrows, rows.structure.keys, hint)
    blocks, _, _ = numerics._mode_blocks(form, rows.gram_entries(values))
    lam = min(np.linalg.eigvalsh(B).min() for B in blocks)
    assert lam > 4.0 * sigma * sigma
    floor = np.sqrt(lam) / 2.0
    assert _mode_certificate(rows, values, hint, floor) is None
    assert full_gram_certificate_oracle(block_gram_oracle(rows, values), rows.shape(values),
                                        floor=floor) is None
    rr = numerical_rank(rows.matrix(values, hint))
    assert (rr.rank, rr.method, rr.threshold) == full_gram_rank_oracle(rows, values)


@pytest.mark.parametrize("m", [16, 64])
def test_boosted_point_takes_the_levels_path(m, monkeypatch):
    """The loebell(m) factor's realization moved by a Lorentz boost: its
    Lorentz Gram matrix is the same, but D psi's, the staircase's and D
    phi's Gram matrices are not invariant under the ring rotation, whose
    hints stay the same.  The mode path fails on each, and every decision
    of check_rank_sum and kernel_dimension, with its method and threshold,
    is the one made with the mode path turned off."""
    Q, R = family_realization("loebell", m)
    g = random_lorentz_transform(4, np.random.default_rng(73))
    moved = lorentz.HyperbolicRealization(Q, R.normals @ g.T)
    p = vinberg.hyperbolic_point(moved)
    for label, rows, values, symmetry in _mode_cases(Q, p):
        assert _mode_certificate(rows, values, symmetry) is None, label

    def decisions():  # at a new point each time, which has stored no analysis
        report = vinberg.check_rank_sum(Q, vinberg.hyperbolic_point(moved))
        return [(r.rank, r.method, r.threshold) for r in (report.rank_phi, report.rank_psi)] + [
            report.staircase_rank, lorentz.kernel_dimension(Q, moved.normals)]

    with_modes = decisions()
    monkeypatch.setattr(BlockRows, "modes", lambda self, symmetry: None)
    assert with_modes == decisions()


@pytest.mark.parametrize("family, m", [("loebell", 64), ("prism", 64)])
def test_mode_path_certifies_without_levels(family, m):
    """On a fresh orbifold of either family at m = 64, the dim-sweep's
    decisions on D psi and the staircase where the mode path is taken are
    made by the mode blocks alone: their patterns' elimination is never
    analysed, and no block is left to LAPACK."""
    Q = loebell_factor_orbifold(pt.loebell(m)) if family == "loebell" else prism_cap_orbifold(m)
    R = lorentz.solve_hyperbolic_newton(Q)
    p = vinberg.hyperbolic_point(R)
    vinberg.local_deformation_dimension(Q, p)
    report = vinberg.check_rank_sum(Q, p)
    assert lorentz.kernel_dimension(Q, R.normals) == 6
    assert report.rank_phi.method == "block" and report.rank_psi.method == "cholesky"
    index = vinberg._as_index(Q)
    T = lorentz.psi_structure(Q)
    paid = []
    for rows, symmetry in ((T.rows, T.symmetry), (index.staircase_rows, index.symmetries[1])):
        if rows.modes(symmetry) is not None:
            paid.append(rows.nrows)
            assert "elimination" not in vars(rows) and "work" not in vars(rows)
    assert paid == ([T.nrows, len(index.e2)] if family == "loebell" else [T.nrows])
