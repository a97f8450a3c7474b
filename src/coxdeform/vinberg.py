"""Vinberg's equation system for projective reflection data, its Jacobian
and gauge directions, rank analysis, the rank-sum identity, the local
deformation dimension count, and parametrized Cartan families with curve
extraction.

A point is a tuple of covectors alpha_1..alpha_f and vectors b_1..b_f in
R^{n+1}.  The equations fix alpha_i b_i = 2, force alpha_i b_j = alpha_j b_i
= 0 on order-2 ridges, and fix the product alpha_i b_j alpha_j b_i =
4 cos^2(pi/n_ij) on higher-order ridges.  Rescalings (d_1..d_f) and a joint
change of basis g act without changing the residuals; the gauge group has
dimension f + (n+1)^2 - 1.
"""

from __future__ import annotations

import math
import weakref
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from coxdeform.errors import VinbergError
from coxdeform.numerics import (DEFAULT_RANK_POLICY, SMALLEST_SUBNORMAL, UNIT_ROUNDOFF,
                                BlockRows, BorderedGram, RankResult, RowSymmetry, StructuredMatrix,
                                _full_rank_certificate, _gamma, _sigma_bound, numerical_rank,
                                triangular_sigma_bound)

RESIDUAL_TOL = 1e-9
INTERIOR_TOL = 1e-9  # U-membership margins, relative to max |alpha|


class VinbergPoint:
    """Reflection data: covector rows ``alphas`` (f x (n+1)) and vector rows
    ``bs`` (f x (n+1), the reflection vectors b_i), on ``facets`` (default
    1..f).

    The point stores its Cartan matrix (:meth:`cartan`) and each successful
    rank analysis of D phi, keyed by equation index and rank policy (see
    :func:`local_deformation_dimension`) and dropped with its index; the
    matrix and each report's singular values are read-only.  Its alphas and
    bs must not change once either is stored."""

    def __init__(self, alphas, bs, facets=None):
        self.alphas = np.asarray(alphas, dtype=float)
        self.bs = np.asarray(bs, dtype=float)
        if self.alphas.shape != self.bs.shape:
            raise VinbergError("alphas and bs must have matching shapes")
        self.facets = tuple(range(1, self.f + 1)) if facets is None else facets
        self._cartan = None
        self._analyses = weakref.WeakKeyDictionary()  # index -> {policy: analysis}

    @property
    def f(self):
        return self.alphas.shape[0]

    @property
    def dim(self):
        return self.alphas.shape[1]

    def cartan(self):
        """Entries a_ij = alpha_i b_j, formed on the first call and returned,
        read-only, by every call: the point's alphas and bs must not change
        after it."""
        if self._cartan is None:
            self._cartan = self.alphas @ self.bs.T
            self._cartan.flags.writeable = False
        return self._cartan


class EquationIndex:
    """Index sets of the equation system for one orbifold (or bare pattern).

    E1: one diagonal equation per facet.  E2: order-2 ridges, two equations
    each.  E3: ridges of order >= 3, one product equation each.  E4:
    non-adjacent pairs, inequalities only.  Row order of the residual vector
    and Jacobian: the E2 first-slot block, the E2 second-slot block, the E3
    block, then the E1 block; pairs in lexicographic order throughout.

    The index of an orbifold (:meth:`from_orbifold`) keeps a weak reference
    to it, through which it finds, once each, what depends on the orbifold
    alone: its :attr:`counts`, whether it is :attr:`weakly_orderable`, and
    the row symmetries of its ring rotation (:attr:`symmetries`).
    """

    _orbifold = None

    def __init__(self, facets, n, e2, e3_orders, e4):
        self.facets = tuple(facets)
        self.n = int(n)
        self.e2 = tuple(sorted(tuple(p) for p in e2))
        self.e3_orders = {tuple(p): int(m) for p, m in dict(e3_orders).items()}
        self.e3 = tuple(sorted(self.e3_orders))
        self.e3_targets = np.array([4.0 * math.cos(math.pi / self.e3_orders[p]) ** 2
                                    for p in self.e3])
        self.e4 = tuple(sorted(tuple(p) for p in e4))
        self.pos = {facet: k for k, facet in enumerate(self.facets)}

    @classmethod
    def from_orbifold(cls, Q):
        e3 = {p: Q.order(*p) for p in Q.e3_pairs()}
        index = cls(Q.base.facets, Q.n, Q.e2_pairs(), e3, ())
        # the polytope's cached tuple: sorted pairs in sorted order already
        index.e4 = Q.base.nonadjacent_pairs
        index._orbifold = weakref.ref(Q)
        return index

    @property
    def f(self):
        return len(self.facets)

    @property
    def N(self):
        return self.f + 2 * len(self.e2) + len(self.e3)

    def rows(self):
        out = [("e2a", p) for p in self.e2]
        out += [("e2b", p) for p in self.e2]
        out += [("e3", p) for p in self.e3]
        out += [("e1", (i, i)) for i in self.facets]
        return out

    def positions(self, pairs):
        """The facet positions of a sequence of pairs, as two index arrays."""
        flat = np.fromiter((self.pos[x] for pair in pairs for x in pair), dtype=np.intp,
                           count=2 * len(pairs))
        return flat[0::2], flat[1::2]

    @cached_property
    def e2_positions(self):
        """The facet positions of the E2 pairs, built on first use."""
        return self.positions(self.e2)

    @cached_property
    def e3_positions(self):
        """The facet positions of the E3 pairs, built on first use."""
        return self.positions(self.e3)

    @cached_property
    def staircase_rows(self):
        """The :class:`BlockRows` pattern of :func:`e2_staircase`, built on
        first use: row k has a term in the blocks of both facets of E2 pair k."""
        i, j = self.e2_positions
        rows = np.arange(len(i))
        return BlockRows(len(i), self.f, np.concatenate([rows, rows]), np.concatenate([i, j]))

    @cached_property
    def phi_structure(self):
        """The :class:`PhiStructure` of the equations, built on first use."""
        return PhiStructure(self)

    @cached_property
    def counts(self):
        """The orbifold's :func:`orbifold.counts`, found on first use."""
        from coxdeform import orbifold as ob

        return ob.counts(self._orbifold())

    @cached_property
    def weakly_orderable(self):
        """:func:`orbifold.is_weakly_orderable` of the orbifold, found on
        first use."""
        from coxdeform import orbifold as ob

        return ob.is_weakly_orderable(self._orbifold())

    @cached_property
    def symmetries(self):
        """(phi, staircase): the :class:`RowSymmetry` hints of D phi's rows
        and of the E2 staircase's under the orbifold's ring rotation
        (:attr:`lorentz.PsiStructure.rotation`), each None where no
        rotation keeps the orders.  D phi's rows are keyed by the ordered
        pair (x, y) of their a_xy, the E3 rows by either order; a staircase
        row (i, j) by (i, j), and by (j, i) with sign -1, since the row of
        (j, i) would carry alpha_i in block j and -alpha_j in block i."""
        from coxdeform import lorentz

        Q = None if self._orbifold is None else self._orbifold()
        rotation = None if Q is None else lorentz.psi_structure(Q).rotation
        if rotation is None or rotation.K == 1:
            return None, None
        i2, j2 = self.e2_positions
        i3, j3 = self.e3_positions
        diag = np.arange(self.f)
        reverse = np.zeros(self.N)
        reverse[2 * len(i2):2 * len(i2) + len(i3)] = 1.0
        phi = RowSymmetry.of_pairs(rotation.facets, np.concatenate([i2, j2, i3, diag]),
                                   np.concatenate([j2, i2, j3, diag]), reverse)
        staircase = RowSymmetry.of_pairs(rotation.facets, i2, j2, np.full(len(i2), -1.0))
        return phi, staircase

    @cached_property
    def sign_positions(self):
        """The flat positions i f + j and j f + i, in an f x f Cartan
        matrix, of the E3 then the E4 pairs (i, j) (the pairs whose entries
        must be negative), as two index arrays; built on first use."""
        i, j = self.positions(self.e3 + self.e4)
        return i * self.f + j, j * self.f + i


class PhiStructure:
    """The row structure of Vinberg's equations (see :func:`phi_jacobian`).

    Term t of the T terms is w d(a_xy), with facet positions ``x[t]`` and
    ``y[t]``; w is 1 except on the E3 terms, the slice ``e3``, where it is
    a_yx.  It puts w b_y in alpha-block x and w alpha_x in b-block y: cells t
    and T + t of ``rows``, whose blocks 0..f-1 are the alpha half and
    f..2f-1 the b half.
    """

    def __init__(self, index):
        f = index.f
        i2, j2 = index.e2_positions
        i3, j3 = index.e3_positions
        n2, n3 = len(i2), len(i3)
        diag = np.arange(f)
        e3_rows = np.arange(2 * n2, 2 * n2 + n3)
        row = np.concatenate([np.arange(2 * n2), e3_rows, e3_rows, 2 * n2 + n3 + diag])
        self.x = np.concatenate([i2, j2, i3, j3, diag]).astype(np.int32)
        self.y = np.concatenate([j2, i2, j3, i3, diag]).astype(np.int32)
        self.e3 = slice(2 * n2, 2 * n2 + 2 * n3)
        self.rows = BlockRows(index.N, 2 * f, np.concatenate([row, row]),
                              np.concatenate([self.x, f + self.y]))

    def values(self, p):
        """The vector of each cell: w b_y for the alpha-blocks, then w alpha_x
        for the b-blocks, each stored as the product fl(w v)."""
        w = np.ones(len(self.x))
        x, y = self.x[self.e3], self.y[self.e3]
        w[self.e3] = p.cartan()[y, x]
        w = w[:, None]
        return np.concatenate([w * np.take(p.bs, self.y, axis=0),
                               w * np.take(p.alphas, self.x, axis=0)])


def phi_eval(Q_or_index, p):
    """Residuals of Vinberg's equations at a point, length N = f + e + e2."""
    index = _as_index(Q_or_index)
    a = p.cartan()
    i2, j2 = index.e2_positions
    i3, j3 = index.e3_positions
    return np.concatenate([a[i2, j2], a[j2, i2], a[i3, j3] * a[j3, i3] - index.e3_targets,
                           a.diagonal() - 2.0])


def phi_matrix(Q_or_index, p):
    """Jacobian of :func:`phi_eval` as a :class:`StructuredMatrix` over the
    pattern of :class:`PhiStructure`, with the row symmetry of the ring
    rotation as its hint (:attr:`EquationIndex.symmetries`)."""
    index = _as_index(Q_or_index)
    S = index.phi_structure
    return S.rows.matrix(S.values(p), index.symmetries[0])


def phi_jacobian(Q_or_index, p):
    """Jacobian of :func:`phi_eval`, an N x 2(n+1)f matrix of (n+1)-entry
    blocks: columns are grouped as the f alpha-blocks then the f b-blocks.

    Each row is a sum of terms w d(a_xy) = w (d alpha_x b_y + alpha_x d b_y),
    which put w b_y in alpha-block x and w alpha_x in b-block y: one term
    with w = 1 on an E2 row (a_ij, then a_ji) and an E1 row (a_ii), and two
    on the E3 row of (i, j), a_ji d(a_ij) + a_ij d(a_ji)."""
    return phi_matrix(Q_or_index, p).build()


_INDEXES = weakref.WeakKeyDictionary()


def _as_index(Q_or_index):
    """An equation index itself, or the cached :class:`EquationIndex` of an
    orbifold (its lifetime is the orbifold's)."""
    if isinstance(Q_or_index, EquationIndex):
        return Q_or_index
    index = _INDEXES.get(Q_or_index)
    if index is None:
        index = _INDEXES[Q_or_index] = EquationIndex.from_orbifold(Q_or_index)
    return index


def hyperbolic_point(realization):
    """The solution obtained from a hyperbolic realization:
    alpha_i = 2 <nu_i, .> and b_i = nu_i."""
    from coxdeform import lorentz

    nus = realization.normals
    return VinbergPoint(lorentz._alphas(nus), nus.copy(), tuple(realization.Q.base.facets))


def gauge_directions(p):
    """Tangent vectors of the gauge orbit at p, one row per generator:
    the f rescaling directions and the (n+1)^2 - 1 traceless basis directions
    (the units E_kl, k != l, in row-major order, then E_kk - E_k+1,k+1).
    All rows lie in ker(D phi) at any solution point."""
    f, dim = p.f, p.dim
    rows = np.zeros((gauge_dimension(f, dim), 2, f, dim))  # generator, alpha/b half, facet, entry
    rows[np.arange(f), 0, np.arange(f)] = p.alphas
    rows[np.arange(f), 1, np.arange(f)] = -p.bs
    rows[f:] = _traceless_directions(np.stack([-p.alphas, p.bs]))
    return rows.reshape(len(rows), 2 * f * dim)


@cache
def _traceless_basis(dim):
    """The traceless basis X of :func:`gauge_directions`, each beside its
    transpose, as an array of shape (dim^2 - 1, 2, dim, dim); built once per
    dim."""
    k, l = np.nonzero(~np.eye(dim, dtype=bool))
    d = np.arange(dim - 1)
    basis = np.zeros((dim * dim - 1, dim, dim))
    basis[np.arange(len(k)), k, l] = 1.0
    basis[len(k) + d, d, d] = 1.0
    basis[len(k) + d, d + 1, d + 1] = -1.0
    pairs = np.stack([basis, basis.transpose(0, 2, 1)], axis=1)
    pairs.flags.writeable = False
    return pairs


def _traceless_directions(negated):
    """The rows of :func:`gauge_directions` of the traceless basis X, -alpha_i
    X and X b_i, as a (generator, alpha/b half, facet, entry) array, from
    the rescaling rows ``negated``: -alpha and b, stacked."""
    return negated @ _traceless_basis(negated.shape[-1])


def gauge_matrix(p):
    """:func:`gauge_directions` as a :class:`StructuredMatrix` whose Gram
    matrix is in arrow form (:meth:`BorderedGram.arrow`).  The Gram matrix is
    that of the rows with the f rescaling rows negated, -alpha_i in
    alpha-block i and b_i in b-block i, which has the same singular values.
    Those rows share no column, so their block is the diagonal of their
    2(n+1)-term dot products; each couples to a traceless row by the
    2(n+1)-term dot product over its two blocks; and the traceless rows'
    own (n+1)^2 - 1 square block is their dense Gram matrix.  Each entry is
    a sum of products of the stored entries of the negated rows, so the
    certificate of :func:`numerical_rank` holds as on the dense matrix,
    which is built only if the SVD must decide."""
    f, dim = p.f, p.dim

    def gram():
        negated = np.stack([-p.alphas, p.bs])  # alpha/b half, facet, entry
        border = _traceless_directions(negated)
        rows = border.reshape(len(border), -1)
        return BorderedGram.arrow(np.einsum("hik,hik->i", negated, negated),
                                  np.einsum("xhik,hik->xi", border, negated), rows @ rows.T)
    return StructuredMatrix((gauge_dimension(f, dim), 2 * f * dim), gram,
                            lambda: gauge_directions(p))


def gauge_dimension(f, dim):
    return f + dim * dim - 1


# -- rank reports --------------------------------------------------------------

class JacobianReport(NamedTuple):
    """Numerical-rank analysis of one Jacobian, saying how the rank was
    decided: ``method`` "cholesky" or "block" is a certified full rank with
    sigma_min > ``threshold`` and no spectrum ("block": D phi certified from
    the blocks of the rank-sum reduction, see :func:`_block_decisions`);
    "svd" keeps the full spectrum and the gap at the cut for auditability
    (see :mod:`coxdeform.numerics`)."""

    label: str
    shape: tuple
    singular_values: np.ndarray
    rank: int
    kernel_dim: int
    threshold: float
    gap: float
    uncertain: bool
    method: str
    gauge_dim: int = None
    full_rank: bool = None
    deformation_dim: int = None
    kernel_minus_gauge: int = None
    formula_dim: int = None


def jacobian_report(label, shape, rr, **dimension):
    """The report of the rank decision ``rr`` on a matrix of ``shape``, with
    the ``dimension`` fields given."""
    return JacobianReport(label, shape, rr.singular_values, rr.rank, shape[1] - rr.rank,
                          rr.threshold, rr.gap, rr.uncertain, rr.method, **dimension)


def local_deformation_dimension(Q, p, policy=DEFAULT_RANK_POLICY):
    """Rank analysis of the equation Jacobian at a solution point.

    When the Jacobian has full rank N, the solution set is locally a manifold
    and the dimension of its gauge quotient is 2(n+1)f - N - (f + (n+1)^2 - 1),
    which the report cross-checks against the closed form e_+ - n - 2 delta_P.
    Otherwise kernel-minus-gauge is reported as an upper-bound witness only.
    A repeat at the same point, orbifold and policy, here or in
    :func:`check_rank_sum`, returns the report the point stored.
    """
    return _phi_analysis(Q, p, policy)[1]


def _phi_analysis(Q, p, policy):
    """The equation index, the dimension report, and the rank decisions on
    D psi and the E2 staircase made on the way, each None where none was.
    Full rank of D phi is first certified from the block form of the
    rank-sum reduction (:func:`_block_decisions`).  Failing that, its rank
    is decided from its Gram matrix, assembled from the row structure; the
    dense D phi is built only if the SVD must decide (see
    :func:`numerical_rank`).  The gauge orbit must be free: its rank is
    certified full from the arrow form of :func:`gauge_matrix`, whose f
    rescaling rows are eliminated in closed form, so that LAPACK factors
    only the (n+1)^2 - 1 traceless rows' block; failing that, the SVD of
    the dense :func:`gauge_directions` decides, and a rank below the gauge
    dimension is refused.  The blocks left to LAPACK are formed in the
    work arrays of their patterns, valid until the pattern's next
    elimination.  Where the orbifold's ring rotation keeps its orders, each
    Gram matrix carries the rotation's row symmetry, and its certificate
    first tries the mode blocks (:func:`numerics._mode_blocks`).  The
    orbifold's counts are found once per orbifold (:attr:`EquationIndex.counts`).
    The result is stored on the point, keyed by the index, weakly, and the
    policy, and a repeat returns it; an analysis that raises is not stored."""
    index = _as_index(Q)
    stored = p._analyses.get(index, {}).get(policy)
    if stored is not None:
        return (index,) + stored
    resid = phi_eval(index, p)
    if np.linalg.norm(resid, ord=np.inf) > RESIDUAL_TOL:
        raise VinbergError(
            f"point is not a solution (max residual {np.abs(resid).max():.3e})")
    S = index.phi_structure
    values = S.values(p)
    rr, psi, staircase = _block_decisions(Q, index, p, S.rows, values, policy)
    if rr is None:
        rr = numerical_rank(S.rows.matrix(values, index.symmetries[0]), policy)
    shape = S.rows.shape(values)
    gauge_dim = gauge_dimension(p.f, p.dim)
    gauge_rank = numerical_rank(gauge_matrix(p), policy).rank
    if gauge_rank < gauge_dim:
        raise VinbergError(
            f"gauge orbit is not free at this point "
            f"(gauge-direction rank {gauge_rank} < {gauge_dim})")
    c = index.counts
    formula_dim = c.eplus - Q.n - 2 * c.delta
    full_rank = rr.rank == index.N
    deformation_dim = kernel_minus_gauge = None
    if full_rank:
        deformation_dim = 2 * p.dim * p.f - index.N - gauge_dim
        if deformation_dim != formula_dim:
            raise VinbergError("dimension bookkeeping identity failed")  # integer identity
    else:
        kernel_minus_gauge = shape[1] - rr.rank - gauge_dim
    report = jacobian_report("phi", shape, rr, gauge_dim=gauge_dim, full_rank=full_rank,
                             deformation_dim=deformation_dim,
                             kernel_minus_gauge=kernel_minus_gauge, formula_dim=formula_dim)
    report.singular_values.flags.writeable = False  # psi's and A's decisions keep none
    p._analyses.setdefault(index, {})[policy] = report, psi, staircase
    return index, report, psi, staircase


def _block_decisions(Q, index, p, rows, values, policy):
    """Full rank of D phi (pattern ``rows``, stored ``values``) certified
    from the block form [[A, B], [0, D psi]] of :func:`check_rank_sum`:
    (phi, psi, staircase), the rank decisions on D phi, D psi and the
    staircase A, each None where none was made.

    It is tried where alpha_i = 2 J b_i holds bit for bit (as
    :func:`hyperbolic_point` makes it) and A and D psi are wide.  With L and
    C the reduction's operations, L with 1/a_ij on the E3 rows, and B the
    block with alpha_i in block j on the row of (i, j), M~ = L^-1 [[A, B],
    [0, D psi]] C^-1 formed from the stored A, B and D psi equals the stored
    D phi except on the E3 rows.  There D phi stores fl(a_ji b_j) and
    fl(a_ji alpha_i) in alpha-block i and b-block j, and fl(a_ij b_i) and
    fl(a_ij alpha_j) in alpha-block j and b-block i, where M~ has the exact
    products with a_ij.  So ||D phi - M~||_F <= delta = 2 u sigma_bar + N q
    eta + 2 max |a_ij - a_ji| sqrt(e3) (max_c |b_c|_1 + max_c |alpha_c|_1),
    with sigma_bar >= ||D phi||_F from :func:`_sigma_bound`; the last term
    is zero where the computed Cartan matrix is symmetric on E3.

    Once the shifted Cholesky certifies sigma_min(A) > beta_A and
    sigma_min(D psi) > beta_psi (:func:`_full_rank_certificate` with those
    floors), sigma_min(D phi) >= :func:`triangular_sigma_bound` (beta_A,
    beta_psi, ||B||) / (||L|| ||C||) - delta, with the norms bounded by
    :func:`_reduction_norms`.  Rank N is certified when that exceeds tau_bar,
    computed from the diagonal of D phi's Gram matrix as on the Cholesky
    path, so the reported threshold is the same.  To leading order only
    beta_A beta_psi matters; sigma_min(A) stays near 1.5 on the two-ring
    factors and 5.6 on the prisms while sigma_min(D psi) falls like 1/m, so
    the floors are beta_A = 8 s and beta_psi = s / 8, with s 1% above the
    root of the quadratic at which the bound meets tau_bar + delta."""
    from coxdeform import lorentz

    n2, q = len(index.e2), p.f * p.dim
    if not 0 < n2 <= q or p.f + n2 + len(index.e3) > q:
        return None, None, None
    if not np.array_equal(p.alphas, lorentz._alphas(p.bs)):
        return None, None, None
    shape = rows.shape(values)
    sigma2, tau = _sigma_bound(rows.gram_diagonal(values), shape, policy)
    i3, j3 = index.e3_positions
    a = p.cartan()
    asym = float(np.max(np.abs(a[i3, j3] - a[j3, i3]), initial=0.0))
    if asym:
        asym *= 2.0 * math.sqrt(len(i3)) * float(np.abs(p.bs).sum(axis=1).max()
                                                 + np.abs(p.alphas).sum(axis=1).max())
    delta = (2.0 * UNIT_ROUNDOFF * math.sqrt(sigma2) + asym
             + shape[0] * shape[1] * SMALLEST_SUBNORMAL)
    norm_L, norm_C, norm_B = _reduction_norms(index, p, a)
    # the bound must exceed target; four roundings in forming it
    target = (tau + delta) * (norm_L * norm_C) * (1.0 + _gamma(8))
    # with beta_A = 8 s and beta_psi = s / 8, 1 / bound = (8.125 s + ||B||) / s^2
    b = 8.125 * target
    s = 1.01 * (b + math.sqrt(b * b + 4.0 * target * norm_B)) / 2.0

    staircase = _floored_rank(e2_staircase(index, p), policy, 8.0 * s)
    psi = _floored_rank(lorentz.psi_matrix(Q, p.bs), policy, s / 8.0)
    if staircase is None or psi is None or \
            not triangular_sigma_bound(8.0 * s, s / 8.0, norm_B) > target:
        return None, psi, staircase
    return RankResult(shape[0], np.zeros(0), tau, np.inf, False, "block"), psi, staircase


def _reduction_norms(index, p, a):
    """Upper bounds on the norms of the row operations L and the column
    operations C of :func:`check_rank_sum`, L with 1/a_ij on the E3 rows
    (``a`` the Cartan matrix of p), and of B, the block with alpha_i in block
    j on the row of E2 pair (i, j):

    - ||L|| <= max(2, max over E3 of 1/|a_ij|): L is block diagonal, with
      [[1, 0], [1, 1]] (norm 1.618) on each E2 row pair, 1/a_ij on the E3
      rows and 2 on the E1 rows;
    - ||C|| <= 3: C acts on each coordinate pair (alpha, b) as
      [[+-2, 0], [-1, 1]], of norm sqrt(3 + sqrt 5);
    - ||B||^2 <= max over facets j of the sum of |alpha_i|^2 over the E2
      pairs (i, j), since B^T B is block diagonal with those blocks.  The
      sum for j has at most q = f (n+1) products, so it is scaled by 1 +
      gamma_2q, and q eta covers their underflow.

    1 + gamma_2 covers the rounding of 1/|a_ij| and of the square root."""
    i3, j3 = index.e3_positions
    norm_L = max(2.0, float(np.max(1.0 / np.abs(a[i3, j3]), initial=0.0))) * (1.0 + _gamma(2))
    i2, j2 = index.e2_positions
    q = p.f * p.dim
    sq = np.einsum("ij,ij->i", p.alphas, p.alphas)
    norm_B2 = float(np.bincount(j2, sq[i2], minlength=p.f).max())
    norm_B = math.sqrt(norm_B2 * (1.0 + _gamma(2 * q)) + q * SMALLEST_SUBNORMAL) * (1.0 + _gamma(2))
    return norm_L, 3.0, norm_B


def _floored_rank(M, policy, floor):
    """Full row rank of the wide :class:`StructuredMatrix` M, certified with
    sigma_min(M) > ``floor`` as well, or None."""
    tau = _full_rank_certificate(M.gram(), M.shape, policy, floor)
    return None if tau is None else RankResult(M.shape[0], np.zeros(0), tau, np.inf, False,
                                               "cholesky")


class RankSumReport(NamedTuple):
    rank_phi: JacobianReport
    rank_psi: JacobianReport
    e2: int
    weakly_orderable: bool
    identity_holds: bool
    staircase_rank: int
    reduction_rank_match: bool


def check_rank_sum(Q, p, policy=DEFAULT_RANK_POLICY):
    """Verify rank(D phi) = rank(D psi) + e2 at a hyperbolic point, and
    bound rank(D phi) by the reduction behind it.

    Add each E2 first-slot row of D phi to its second-slot row, scale E3
    rows by 1/a_ij and E1 rows by 2, scale the alpha-columns by 2 with the
    first coordinate of each block negated, then subtract the right half
    from the left.  At a hyperbolic point, where alpha_i = 2 J b_i with J =
    diag(-1, 1, ..., 1), this reaches the block form [[A, B], [0, D psi]],
    with D psi's rows in EquationIndex order and A the E2 staircase
    (:func:`e2_staircase`).  The operations are invertible, so the block
    form bounds the rank:

    - ``staircase_rank``: the numerical rank of A; it is e2 exactly when the
      orbifold is weakly orderable with qualifying sets in general position.
    - ``reduction_rank_match``: staircase_rank + rank(D psi) <= rank(D phi)
      <= e2 + rank(D psi); both are equalities when the staircase is full.

    A is formed directly from its closed form; the block form itself is
    verified in the tests, against the reduction written out as matrices.
    ``rank_phi`` is the full :func:`local_deformation_dimension` report,
    this raises where it does, and a repeat of either at the same point,
    orbifold and policy is served from the analysis the point stored.  Where
    alpha_i = 2 J b_i holds bit for bit, that report certifies full rank of
    D phi from the certified ranks of A and D psi and the norms of B and of
    the operations (method "block", :func:`_block_decisions`), and those
    decisions on A and D psi are the ones reported here; elsewhere, or where
    that certificate fails, D phi, D psi and A are each decided on their own.
    """
    from coxdeform import lorentz

    index, rphi, psi, staircase = _phi_analysis(Q, p, policy)
    if np.abs(p.alphas - lorentz._alphas(p.bs)).max() > 1e-7:
        raise VinbergError("not a hyperbolic point (alpha_i != 2 <b_i, .>)")

    rpsi = jacobian_report("psi", lorentz.psi_structure(Q).rows.shape(p.bs),
                           psi or numerical_rank(lorentz.psi_matrix(Q, p.bs), policy))
    n2 = len(index.e2)
    staircase = (staircase or numerical_rank(e2_staircase(index, p), policy)).rank
    return RankSumReport(
        rank_phi=rphi, rank_psi=rpsi, e2=n2, weakly_orderable=index.weakly_orderable,
        identity_holds=(rphi.rank == rpsi.rank + n2),
        staircase_rank=staircase,
        reduction_rank_match=(staircase + rpsi.rank <= rphi.rank <= n2 + rpsi.rank))


def e2_staircase(index, p):
    """The E2 staircase of :func:`check_rank_sum` as a :class:`StructuredMatrix`
    with f column blocks: the row of (i, j) carries 2 J b_j in block i and
    -alpha_i in block j, with J = diag(-1, 1, ..., 1); the ring rotation's
    row symmetry is its hint (:attr:`EquationIndex.symmetries`)."""
    from coxdeform import lorentz

    i, j = index.e2_positions
    return index.staircase_rows.matrix(np.concatenate([lorentz._alphas(p.bs[j]), -p.alphas[i]]),
                                       index.symmetries[1])


# -- membership in the open solution domain ------------------------------------

class UMembershipReport(NamedTuple):
    """``has_interior_point`` is True or False when a certificate verified,
    and None when neither did (possible only off the solution set)."""

    has_interior_point: bool
    interior_point: np.ndarray
    alphas_span: bool
    signs_ok: bool
    open_condition_ok: bool
    failures: list

    @property
    def passed(self):
        return bool(self.has_interior_point) and self.alphas_span and \
            self.signs_ok and self.open_condition_ok


def check_U_membership(Q_or_index, p):
    """Open conditions cutting out the solution domain: a common point v with
    alpha_i(v) > 0 for every i, the alphas spanning the dual space, negative
    off-diagonal entries on E3 and E4 pairs, and a_ij a_ji > 4 on E4 pairs.

    The point is certified per component of A = alpha b^T (Vinberg 1971): the
    smallest real eigenvalue lambda with eigenvector u > 0 gives x =
    sign(lambda) u with A x > 0, and v = b^T x is checked directly; a
    zero-type component's left null vector y >= 0 with y^T alpha = 0 rules v
    out (Gordan).  Off the solution set neither may verify: then None.

    A component block alpha_C b_C^T has rank at most n+1 and the nonzero
    eigenvalues of the (n+1) x (n+1) matrix b_C^T alpha_C, with eigenvectors
    u = alpha_C w (:func:`factored_smallest_real_eigenpair`).  A real
    eigenvalue of the small matrix below -zero_tol is therefore the smallest
    real eigenvalue of the block, as at every hyperbolic point.  Otherwise
    the general eigensolve of the block decides.  Either way the verdict
    rests on the direct checks above.
    """
    from coxdeform import cartan

    index = _as_index(Q_or_index)
    a = p.cartan().copy()
    failures = []

    scale = max(np.abs(p.alphas).max(), 1e-30)
    # numpy's own reduction: OpenBLAS's ddot, behind np.linalg.norm, starts
    # its thread pool above 10 000 entries
    zero_tol = cartan.ZERO_TYPE_TOL * math.sqrt(np.einsum("ij,ij->", a, a))
    x = np.zeros(p.f)
    has_point = None
    for comp in cartan._components(
            cartan._nonzero_pattern(a, cartan.ENTRY_TOL * cartan._entry_scale(a))):
        lam, u = factored_smallest_real_eigenpair(p.alphas[comp], p.bs[comp])
        if not lam < -zero_tol:
            sub = a[np.ix_(comp, comp)]
            try:
                lam, u = cartan.smallest_real_eigenpair(sub)
            except cartan.CartanError:
                continue  # possible only off the solution set: x stays 0 here
        if abs(lam) <= zero_tol:
            y = cartan.smallest_real_eigenpair(sub.T)[1]
            if y.sum() > 0 and y.min() >= 0 and \
                    np.abs(y @ p.alphas[comp]).max() <= INTERIOR_TOL * scale * y.sum():
                has_point = False
                break
        x[comp] = np.sign(lam) * u
    point = np.zeros(p.dim)
    if has_point is None:
        v = x @ p.bs
        v = v / max(np.abs(v).max(), 1e-300)
        if (p.alphas @ v).min() > INTERIOR_TOL * scale:
            has_point, point = True, v
    if has_point is False:
        failures.append("no common interior point")
    elif has_point is None:
        failures.append("interior point undecided")

    span = numerical_rank(p.alphas).rank == p.dim
    if not span:
        failures.append("alphas do not span the dual space")

    # The checks gather at flat positions, from boolean masks where they
    # can, and a is this call's copy of the point's Cartan matrix: each E4
    # entry a_ij becomes a_ij a_ji in place, so that at most one float array
    # of e4 entries is held beside a.
    flat = a.reshape(-1)
    ij, ji = index.sign_positions
    signs_bad = np.flatnonzero(~((flat < 0).take(ij) & (flat < 0).take(ji)))
    if len(signs_bad):
        pairs = index.e3 + index.e4
        failures += ["non-negative entry on pair ({},{})".format(*pairs[k]) for k in signs_bad]
    ij, ji = ij[len(index.e3):], ji[len(index.e3):]
    np.multiply.at(flat, ij, flat.take(ji))
    open_bad = np.flatnonzero(~(flat > 4.0).take(ij))
    failures += ["open condition fails on ({},{}): product {:.6f}".format(*index.e4[k], flat[ij[k]])
                 for k in open_bad]

    return UMembershipReport(has_point, point, span, not len(signs_bad), not len(open_bad),
                             failures)


def factored_smallest_real_eigenpair(alphas, bs):
    """The smallest real eigenvalue of bs^T alphas, with u = alphas w for its
    eigenvector w, scaled to unit length and a non-negative sum: an
    eigenpair of alphas bs^T whenever the eigenvalue is nonzero.  (nan,
    None) when bs^T alphas has no real eigenvalue or u vanishes."""
    from coxdeform import cartan

    try:
        lam, w = cartan.smallest_real_eigenpair(bs.T @ alphas)
    except cartan.CartanError:
        return math.nan, None
    u = alphas @ w
    norm = np.linalg.norm(u)
    if not norm > 0:
        return math.nan, None
    u /= norm
    return lam, (u if u.sum() >= 0 else -u)


# -- parametrized Cartan families and curve extraction --------------------------

class ParametrizedFamily:
    """A Cartan matrix pattern with free positive parameters on designated
    entry pairs.  Parameter t on pair (i, j) sets a_ij = -t and keeps the
    product a_ij a_ji at its base value, so parameters move along the diagonal
    gauge's cycle coordinates."""

    def __init__(self, base, param_pairs):
        self.base = np.asarray(base, dtype=float)
        self.param_pairs = [tuple(p) for p in param_pairs]
        self.products = [self.base[i - 1, j - 1] * self.base[j - 1, i - 1]
                         for i, j in self.param_pairs]

    @property
    def nparams(self):
        return len(self.param_pairs)

    def matrix(self, *params):
        """A(params): an (f, f) matrix for scalar parameters, and a stack of
        shape (..., f, f) for parameter arrays, which broadcast together."""
        if len(params) != self.nparams:
            raise VinbergError(f"family takes {self.nparams} parameters")
        params = [np.asarray(t, dtype=float) for t in params]
        if any(np.any(t <= 0) for t in params):
            raise VinbergError("family parameters must be positive")
        if not all(np.isfinite(t).all() for t in params):
            raise VinbergError("family parameters must be finite")
        shape = np.broadcast_shapes(*(t.shape for t in params))
        A = np.broadcast_to(self.base, shape + self.base.shape).copy()
        for (i, j), prod, t in zip(self.param_pairs, self.products, params):
            A[..., i - 1, j - 1] = -t
            A[..., j - 1, i - 1] = -prod / t
        return A


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

ESSELMANN_ORDERS = {(1, 2): 5, (2, 3): 5, (3, 4): 3, (4, 5): 3, (5, 6): 5,
                    (1, 4): 3, (4, 6): 3,
                    (1, 3): 2, (1, 5): 2, (1, 6): 2, (2, 4): 2, (2, 5): 2,
                    (2, 6): 2, (3, 5): 2, (3, 6): 2}


def esselmann_base_matrix():
    """The Esselmann family at parameters (1, 1), its hyperbolic point."""
    g = GOLDEN
    return np.array([
        [2, -g, 0, -1, 0, 0],
        [-g, 2, -g, 0, 0, 0],
        [0, -g, 2, -1, 0, 0],
        [-1, 0, -1, 2, -1, -1],
        [0, 0, 0, -1, 2, -g],
        [0, 0, 0, -1, -g, 2],
    ], dtype=float)


def esselmann_family():
    """The two-parameter family with free entries x = -a_14 and y = -a_46."""
    return ParametrizedFamily(esselmann_base_matrix(), [(1, 4), (4, 6)])


def esselmann_polynomial(x, y):
    """The quintic whose zero set carries the family's rank-5 locus:
    det A(x, y) * 2xy equals this polynomial."""
    r5 = math.sqrt(5.0)
    return (8.0 * x - (5.0 + r5) * y - (6.0 - 2.0 * r5) * x * y
            - (5.0 + r5) * x * x * y + 8.0 * x * y * y)


def esselmann_polynomial_gradient(x, y):
    r5 = math.sqrt(5.0)
    fx = 8.0 - (6.0 - 2.0 * r5) * y - 2.0 * (5.0 + r5) * x * y + 8.0 * y * y
    fy = -(5.0 + r5) - (6.0 - 2.0 * r5) * x - (5.0 + r5) * x * x + 16.0 * x * y
    return np.array([fx, fy])


class CurveSamples(NamedTuple):
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray              # det grid, shape (len(ys), len(xs))
    segments: list                  # [( (x0,y0), (x1,y1) ), ...]

    def points(self):
        if not self.segments:
            return np.zeros((0, 2))
        return np.array([q for seg in self.segments for q in seg])

    def distance_to(self, x, y):
        pts = self.points()
        if not len(pts):
            return np.inf
        return float(np.min(np.hypot(pts[:, 0] - x, pts[:, 1] - y)))


def family_curve(family, box=(0.5, 2.0, 0.5, 2.0), res=101):
    """Sample det(A(x, y)) on a grid and extract its zero set by sign-change
    contouring (marching squares with linear interpolation)."""
    if family.nparams != 2:
        raise VinbergError("curve extraction needs exactly two parameters")
    if res < 2:
        raise VinbergError(f"curve sampling needs res >= 2 grid points per axis, got {res}")
    if not np.isfinite(box).all():
        raise VinbergError(f"curve box must be finite, got {tuple(box)}")
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    values = np.linalg.det(family.matrix(*np.meshgrid(xs, ys)))
    segments = marching_squares(xs, ys, values)
    return CurveSamples(xs, ys, values, segments)


def marching_squares(xs, ys, values):
    """Zero-level segments of a sampled scalar field, one or two per cell,
    in row-major cell order.  Cells whose four corners are all positive or
    all negative have no crossing and are skipped; the rest (sign changes,
    zero and NaN corners) are contoured one by one."""

    def cross(xa, ya, va, xb, yb, vb):
        t = va / (va - vb)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    pos, neg = values > 0, values < 0
    quiet = ((pos[:-1, :-1] & pos[:-1, 1:] & pos[1:, :-1] & pos[1:, 1:])
             | (neg[:-1, :-1] & neg[:-1, 1:] & neg[1:, :-1] & neg[1:, 1:]))
    segments = []
    for r, c in np.argwhere(~quiet).tolist():
        corners = [
            (xs[c], ys[r], values[r, c]),
            (xs[c + 1], ys[r], values[r, c + 1]),
            (xs[c + 1], ys[r + 1], values[r + 1, c + 1]),
            (xs[c], ys[r + 1], values[r + 1, c]),
        ]
        crossings = []
        for k in range(4):
            xa, ya, va = corners[k]
            xb, yb, vb = corners[(k + 1) % 4]
            if va == 0.0 and vb == 0.0:
                crossings.append((xa, ya))
                crossings.append((xb, yb))
            elif (va < 0) != (vb < 0) or (va == 0.0) != (vb == 0.0):
                if va == 0.0:
                    crossings.append((xa, ya))
                elif vb == 0.0:
                    pass  # counted as the next corner's start
                else:
                    crossings.append(cross(xa, ya, va, xb, yb, vb))
        if len(crossings) >= 2:
            if len(crossings) == 4:
                segments.append((crossings[0], crossings[1]))
                segments.append((crossings[2], crossings[3]))
            else:
                segments.append((crossings[0], crossings[-1]))
    return segments
