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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from coxdeform import lorentz
from coxdeform.errors import VinbergError
from coxdeform.numerics import DEFAULT_RANK_POLICY, BlockRows, numerical_rank

RESIDUAL_TOL = 1e-9
INTERIOR_TOL = 1e-9  # U-membership margins, relative to max |alpha|


@dataclass
class VinbergPoint:
    """Reflection data: covector rows ``alphas`` (f x (n+1)) and vector rows
    ``bs`` (f x (n+1), the reflection vectors b_i)."""

    alphas: np.ndarray
    bs: np.ndarray
    facets: tuple = None

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.bs = np.asarray(self.bs, dtype=float)
        if self.alphas.shape != self.bs.shape:
            raise VinbergError("alphas and bs must have matching shapes")
        if self.facets is None:
            self.facets = tuple(range(1, self.alphas.shape[0] + 1))

    @property
    def f(self):
        return self.alphas.shape[0]

    @property
    def dim(self):
        return self.alphas.shape[1]

    def cartan(self):
        """Entries a_ij = alpha_i b_j."""
        return self.alphas @ self.bs.T


class EquationIndex:
    """Index sets of the equation system for one orbifold (or bare pattern).

    E1: one diagonal equation per facet.  E2: order-2 ridges, two equations
    each.  E3: ridges of order >= 3, one product equation each.  E4:
    non-adjacent pairs, inequalities only.  Row order of the residual vector
    and Jacobian: the E2 first-slot block, the E2 second-slot block, the E3
    block, then the E1 block; pairs in lexicographic order throughout.
    """

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
    def sign_positions(self):
        """The facet positions of the E3 then the E4 pairs (the pairs whose
        entries must be negative), as two int32 arrays; built on first use."""
        return tuple(k.astype(np.int32) for k in self.positions(self.e3 + self.e4))


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
        i2, j2 = index.positions(index.e2)
        i3, j3 = index.positions(index.e3)
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
    i2, j2 = index.positions(index.e2)
    i3, j3 = index.positions(index.e3)
    return np.concatenate([a[i2, j2], a[j2, i2], a[i3, j3] * a[j3, i3] - index.e3_targets,
                           a.diagonal() - 2.0])


_PHI_STRUCTURES = weakref.WeakKeyDictionary()


def phi_structure(Q_or_index):
    """The :class:`PhiStructure` of an equation index, or the cached one of
    an orbifold (its lifetime is the orbifold's)."""
    if isinstance(Q_or_index, EquationIndex):
        return PhiStructure(Q_or_index)
    S = _PHI_STRUCTURES.get(Q_or_index)
    if S is None:
        S = _PHI_STRUCTURES[Q_or_index] = PhiStructure(_as_index(Q_or_index))
    return S


def phi_matrix(Q_or_index, p):
    """Jacobian of :func:`phi_eval` as a :class:`StructuredMatrix` over the
    pattern of :class:`PhiStructure`."""
    S = phi_structure(Q_or_index)
    return S.rows.matrix(S.values(p))


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
    nus = realization.normals
    J = lorentz.LorentzForm(nus.shape[1]).matrix
    return VinbergPoint(2.0 * nus @ J, nus.copy(), tuple(realization.Q.base.facets))


def gauge_directions(p):
    """Tangent vectors of the gauge orbit at p, one row per generator:
    the f rescaling directions and the (n+1)^2 - 1 traceless basis directions
    (the units E_kl, k != l, in row-major order, then E_kk - E_k+1,k+1).
    All rows lie in ker(D phi) at any solution point."""
    f, dim = p.f, p.dim
    k, l = np.nonzero(~np.eye(dim, dtype=bool))
    d = np.arange(dim - 1)
    basis = np.zeros((dim * dim - 1, dim, dim))
    basis[np.arange(len(k)), k, l] = 1.0
    basis[len(k) + d, d, d] = 1.0
    basis[len(k) + d, d + 1, d + 1] = -1.0
    rows = np.zeros((f + len(basis), 2, f, dim))  # generator, alpha/b half, facet, entry
    rows[np.arange(f), 0, np.arange(f)] = p.alphas
    rows[np.arange(f), 1, np.arange(f)] = -p.bs
    rows[f:, 0] = -p.alphas @ basis
    rows[f:, 1] = (basis @ p.bs.T).transpose(0, 2, 1)
    return rows.reshape(len(rows), 2 * f * dim)


def gauge_dimension(f, dim):
    return f + dim * dim - 1


# -- rank reports --------------------------------------------------------------

@dataclass
class JacobianReport:
    """Numerical-rank analysis of one Jacobian, saying how the rank was
    decided: ``method`` "cholesky" is a certified full rank with
    sigma_min > ``threshold`` and no spectrum; "svd" keeps the full spectrum
    and the gap at the cut for auditability (see :mod:`coxdeform.numerics`)."""

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


def jacobian_report(label, shape, rr):
    """The report of the rank decision ``rr`` on a matrix of ``shape``."""
    return JacobianReport(label, shape, rr.singular_values, rr.rank, shape[1] - rr.rank,
                          rr.threshold, rr.gap, rr.uncertain, rr.method)


def local_deformation_dimension(Q, p, policy=DEFAULT_RANK_POLICY):
    """Rank analysis of the equation Jacobian at a solution point.

    When the Jacobian has full rank N, the solution set is locally a manifold
    and the dimension of its gauge quotient is 2(n+1)f - N - (f + (n+1)^2 - 1),
    which the report cross-checks against the closed form e_+ - n - 2 delta_P.
    Otherwise kernel-minus-gauge is reported as an upper-bound witness only.
    """
    return _phi_analysis(Q, p, policy)[1]


def _phi_analysis(Q, p, policy):
    """The dimension report together with the equation index.  The rank of
    D phi is decided from its Gram matrix, assembled from the row structure;
    the dense D phi is built only if the SVD must decide (see
    :func:`numerical_rank`)."""
    from coxdeform import orbifold as ob

    index = _as_index(Q)
    resid = phi_eval(index, p)
    if np.linalg.norm(resid, ord=np.inf) > RESIDUAL_TOL:
        raise VinbergError(
            f"point is not a solution (max residual {np.abs(resid).max():.3e})")
    M = phi_matrix(Q, p)
    report = jacobian_report("phi", M.shape, numerical_rank(M, policy))
    report.gauge_dim = gauge_dimension(p.f, p.dim)
    G = gauge_directions(p)
    gauge_rank = numerical_rank(G, policy).rank
    if gauge_rank < report.gauge_dim:
        raise VinbergError(
            f"gauge orbit is not free at this point "
            f"(gauge-direction rank {gauge_rank} < {report.gauge_dim})")
    c = ob.counts(Q)
    report.formula_dim = c.eplus - Q.n - 2 * c.delta
    report.full_rank = report.rank == index.N
    if report.full_rank:
        report.deformation_dim = 2 * p.dim * p.f - index.N - report.gauge_dim
        if report.deformation_dim != report.formula_dim:
            raise VinbergError("dimension bookkeeping identity failed")  # integer identity
    else:
        report.kernel_minus_gauge = report.kernel_dim - report.gauge_dim
    return index, report


@dataclass
class RankSumReport:
    rank_phi: JacobianReport
    rank_psi: JacobianReport
    e2: int
    weakly_orderable: bool
    identity_holds: bool
    reduction_zero_block: float = None
    reduction_psi_block: float = None
    staircase_rank: int = None
    reduction_rank_match: bool = None


def check_rank_sum(Q, p, policy=DEFAULT_RANK_POLICY):
    """Verify rank(D phi) = rank(D psi) + e2 at a hyperbolic point, and
    certify the reduction behind it.

    The reduction is replayed on D phi (:func:`reduced_phi_jacobian`): add
    each E2 first-slot row to its second-slot row, scale E3 rows by 1/a_ij
    and E1 rows by 2, scale the alpha-columns by 2 with the first coordinate
    of each block negated, then subtract the right half from the left.  The
    result R is meant to have the block form [[A, B], [0, D psi]] with A the
    E2 staircase (the E2a rows on the left half).  Row and column operations
    that are invertible never change rank, so ranking R again would only
    repeat rank(D phi) and could not catch a wrong reduction; the block form
    is certified instead:

    - ``reduction_zero_block``: max |R[e2:, left half]|, 0 up to rounding.
    - ``reduction_psi_block``: max |R[e2:, right half] - D psi| / max |D psi|,
      with the rows of D psi (:func:`lorentz.psi_jacobian` at the bs) put in
      EquationIndex order; 0 up to rounding.
    - ``staircase_rank``: the numerical rank of A; it is e2 exactly when the
      orbifold is weakly orderable with qualifying sets in general position.
    - ``reduction_rank_match``: the bounds the block form puts on the rank,
      staircase_rank + rank(D psi) <= rank(D phi) <= e2 + rank(D psi); both
      are equalities when the staircase is full.

    ``rank_phi`` is the full :func:`local_deformation_dimension` report, and
    this raises where it does.
    """
    from coxdeform import orbifold as ob

    index, rphi = _phi_analysis(Q, p, policy)
    J = lorentz.LorentzForm(p.dim).matrix
    if np.abs(p.alphas - 2.0 * p.bs @ J).max() > 1e-7:
        raise VinbergError("not a hyperbolic point (alpha_i != 2 <b_i, .>)")

    half = p.f * p.dim
    M = lorentz.psi_matrix(Q, p.bs)
    rpsi = jacobian_report("psi", M.shape, numerical_rank(M, policy))
    wo = bool(ob.weak_order_combinatorial(Q))

    n2 = len(index.e2)
    Dpsi = M.build()
    R = reduced_phi_jacobian(index, p)
    psi_row = {pair: r for r, pair in enumerate(lorentz.psi_rows(Q))}
    order = [psi_row[pair] for _, pair in index.rows()[n2:]]
    zero_block = _max_abs(R[n2:, :half])
    R[n2:, half:] -= Dpsi[order]
    psi_block = _max_abs(R[n2:, half:]) / _max_abs(Dpsi)
    staircase = numerical_rank(R[:n2, :half], policy).rank

    return RankSumReport(
        rank_phi=rphi, rank_psi=rpsi, e2=n2, weakly_orderable=wo,
        identity_holds=(rphi.rank == rpsi.rank + n2),
        reduction_zero_block=zero_block,
        reduction_psi_block=psi_block,
        staircase_rank=staircase,
        reduction_rank_match=(staircase + rpsi.rank <= rphi.rank <= n2 + rpsi.rank))


def _max_abs(X):
    """max |X_ij| without a temporary array."""
    return float(max(X.max(), -X.min()))


def reduced_phi_jacobian(index, p):
    """D phi after the row and column operations of :func:`check_rank_sum`;
    its first e2 rows, left half, are the E2 staircase."""
    f, dim = p.f, p.dim
    n2, n3 = len(index.e2), len(index.e3)
    R = phi_jacobian(index, p)
    R[n2:2 * n2] += R[:n2]
    R[2 * n2:2 * n2 + n3] /= p.cartan()[index.positions(index.e3)][:, None]
    R[2 * n2 + n3:] *= 2.0
    R[:, :dim * f] *= 2.0
    R[:, :dim * f:dim] *= -1.0
    R[:, :dim * f] -= R[:, dim * f:]
    return R


# -- membership in the open solution domain ------------------------------------

@dataclass
class UMembershipReport:
    """``has_interior_point`` is True or False when a certificate verified,
    and None when neither did (possible only off the solution set)."""

    has_interior_point: bool
    interior_point: np.ndarray
    alphas_span: bool
    signs_ok: bool
    open_condition_ok: bool
    failures: list = field(default_factory=list)

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
    a = p.cartan()
    failures = []

    scale = max(np.abs(p.alphas).max(), 1e-30)
    adj = cartan._nonzero_graph(a, cartan.ENTRY_TOL * max(np.abs(a).max(), 1.0))
    zero_tol = cartan.ZERO_TYPE_TOL * np.linalg.norm(a)
    x = np.zeros(p.f)
    has_point = None
    for comp in cartan._components(adj, p.f):
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

    pairs = index.e3 + index.e4
    ii, jj = index.sign_positions
    signs_bad = np.flatnonzero(~((a[ii, jj] < 0) & (a[jj, ii] < 0)))
    failures += ["non-negative entry on pair ({},{})".format(*pairs[k]) for k in signs_bad]
    ii, jj = ii[len(index.e3):], jj[len(index.e3):]
    prods = a[ii, jj] * a[jj, ii]
    open_bad = np.flatnonzero(~(prods > 4.0))
    failures += ["open condition fails on ({},{}): product {:.6f}".format(*index.e4[k], prods[k])
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
        if len(params) != self.nparams:
            raise VinbergError(f"family takes {self.nparams} parameters")
        A = self.base.copy()
        for (i, j), prod, t in zip(self.param_pairs, self.products, params):
            if t <= 0:
                raise VinbergError("family parameters must be positive")
            A[i - 1, j - 1] = -t
            A[j - 1, i - 1] = -prod / t
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


@dataclass
class CurveSamples:
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
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    values = np.empty((res, res))
    for r, y in enumerate(ys):
        mats = np.stack([family.matrix(x, y) for x in xs])
        values[r] = np.linalg.det(mats)
    segments = marching_squares(xs, ys, values)
    return CurveSamples(xs, ys, values, segments)


def marching_squares(xs, ys, values):
    """Zero-level segments of a sampled scalar field, one or two per cell."""

    def cross(xa, ya, va, xb, yb, vb):
        t = va / (va - vb)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    segments = []
    for r in range(len(ys) - 1):
        for c in range(len(xs) - 1):
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
