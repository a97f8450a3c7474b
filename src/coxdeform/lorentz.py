"""Lorentzian linear algebra and hyperbolic realization of Coxeter orbifolds.

A compact hyperbolic Coxeter polytope is encoded by unit spacelike normals
nu_1..nu_f in R^{1,n} satisfying <nu_i, nu_i> = 1 and, on each ridge,
<nu_i, nu_j> = -cos(pi/n_ij).  This module assembles that equation system and
its Jacobian, realizes complete Gram matrices (simplices) directly, and
solves the general case by Gauss-Newton iteration from a library of seed
guesses.  The rings of a prism or two-ring polytope, and the rotation of
them that keeps the orders, are found once per orbifold by their own
detectors (:class:`RingRotation`).  Their seed is solved first on the
orbits of that rotation, a dense system whose size depends on the
rotation, not on the number of facets, so that the Gauss-Newton iteration
on the whole system then takes no step; the rotation's permutation of the
rows of D psi is the hint of its rank certificate (:attr:`PsiStructure.symmetry`).
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from coxdeform.errors import ConvergenceError, RealizationError
from coxdeform.numerics import DEFAULT_RANK_POLICY, BlockRows, RowSymmetry, numerical_rank
from coxdeform.polytope import _pair

RESIDUAL_TOL = 1e-10
VALID_RESIDUAL = 1e-8         # the largest residual norm of a valid realization
SIGNATURE_EIG_TOL = 1e-9
DIVERGENCE_THRESHOLD = -1.0   # non-adjacent facets: <nu_i, nu_j> below this
DIVERGENCE_MARGIN = 1e-6      # rejects boundary (asymptotic-hyperplane) noise
LM_SHIFT = 1e-12              # Gauss-Newton: mu = LM_SHIFT * trace(J J^t) / rows
ORBIT_MAX_ITER = 20           # the ring seeds' Gauss-Newton steps on the orbits
ORBIT_MAX_ROWS = 160          # and the largest orbit system they take them on
# seed library: the Klein-model plane offset of the prism seed where its
# mean-angle system has no solution
OFFSET_FLOOR = 0.05


class LorentzForm(NamedTuple):
    """The bilinear form -x_1 y_1 + x_2 y_2 + ... + x_{n+1} y_{n+1}."""

    dim: int  # n + 1

    @property
    def matrix(self):
        J = np.eye(self.dim)
        J[0, 0] = -1.0
        return J

    def inner(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def lorentz_gram(normals):
    """Pairwise Lorentz inner products of row vectors."""
    normals = np.asarray(normals, dtype=float)
    J = LorentzForm(normals.shape[1]).matrix
    return normals @ J @ normals.T


def gram_matrix(Q):
    """Prescribed Gram matrix of an orbifold: 1 on the diagonal and
    -cos(pi/n_ij) for adjacent pairs; non-adjacent entries are unknown (NaN).
    """
    f = Q.f
    facets = list(Q.base.facets)
    G = np.full((f, f), np.nan)
    np.fill_diagonal(G, 1.0)
    pos = {facet: k for k, facet in enumerate(facets)}
    for (i, j), m in Q.orders.items():
        c = -math.cos(math.pi / m)
        G[pos[i], pos[j]] = G[pos[j], pos[i]] = c
    return G


# -- hyperbolic equation system -----------------------------------------------

def psi_rows(Q):
    """Fixed equation order: the f diagonal rows first (by facet id), then one
    row per ridge in lexicographic pair order."""
    diag = [(i, i) for i in Q.base.facets]
    pairs = sorted(Q.orders)
    return diag + pairs


class PsiStructure:
    """The row structure of the hyperbolic equations, built once per orbifold.

    Row r reads 2<nu_a, nu_b> + shift with facet positions ``a[r]`` and
    ``b[r]`` (equal on the diagonal rows).  In the block of each facet c it
    touches, its Jacobian row carries k alpha_o, where o is the row's other
    facet; slot s is such an entry, with c = ``rows.block[s]``, o =
    ``slot_other[s]`` and k = ``slot_k[s]`` (2 on the f diagonal rows, which
    come first, and 1 on the e ridge rows).  ``rows`` is the
    :class:`BlockRows` pattern of all slots.  ``vertex_rows`` (one row of
    facet positions per vertex, sorted by facet) and ``nonadjacent`` (the
    positions of the polytope's non-adjacent pairs, in its order) serve
    :class:`HyperbolicRealization`.  ``base`` and ``orders`` are the
    orbifold's polytope and orders, from which its ring rotation is found
    once (:attr:`rotation`).
    """

    def __init__(self, Q):
        self.base, self.orders = Q.base, Q.orders
        pos = self.position = {facet: k for k, facet in enumerate(Q.base.facets)}
        self.vertex_rows = np.array([[pos[i] for i in sorted(V)] for V in Q.base.vertices or ()],
                                    dtype=np.intp)
        pairs = Q.base.nonadjacent_pairs
        self.nonadjacent = (np.array([pos[i] for i, _ in pairs], dtype=np.intp),
                            np.array([pos[j] for _, j in pairs], dtype=np.intp))
        rows = psi_rows(Q)
        f = self.f = Q.f
        a = self.a = np.array([pos[i] for i, _ in rows], dtype=np.intp)
        b = self.b = np.array([pos[j] for _, j in rows], dtype=np.intp)
        self.shift = np.array([-2.0 if i == j else 2.0 * math.cos(math.pi / Q.order(i, j))
                               for i, j in rows])
        e = len(rows) - f
        ridge = f + np.arange(e)
        self.slot_other = np.concatenate([a[:f], b[f:], a[f:]])
        self.slot_k = np.concatenate([np.full(f, 2.0), np.ones(2 * e)])
        self.rows = BlockRows(len(rows), f, np.concatenate([np.arange(f), ridge, ridge]),
                              np.concatenate([a[:f], a[f:], b[f:]]))

    @property
    def nrows(self):
        return len(self.a)

    @cached_property
    def rotation(self):
        """The :class:`RingRotation` of the first ring structure of _RINGS
        that the polytope has, a prism's or two rings', built on first use;
        None for any other."""
        if self.base.n != 3:
            return None
        return next((RingRotation(self, *layout(self, structure)) for detect, layout in _RINGS
                     for structure in (detect(self.base),) if structure), None)

    @cached_property
    def symmetry(self):
        """The :class:`RowSymmetry` of the rows under the ring rotation, a
        hint for the mode certificate of D psi's Gram matrix; None where no
        rotation keeps the orders."""
        rotation = self.rotation
        if rotation is None or rotation.K == 1:
            return None
        return RowSymmetry.of_pairs(rotation.facets, self.a, self.b,
                                    (self.a != self.b).astype(float))

    def eval(self, normals):
        return self.residuals(lorentz_gram(normals))

    def residuals(self, gram):
        """The residuals from the Lorentz Gram matrix of the normals."""
        return 2.0 * gram[self.a, self.b] + self.shift

    def values(self, alphas):
        """The vector of each slot, k alpha_o."""
        return self.slot_k[:, None] * np.take(alphas, self.slot_other, axis=0)

    def gauss_newton_step(self, alphas, r):
        """The minimum-norm step J^t y with (J J^t + mu I) y = r, as an
        f x (n+1) array, without forming J: the Gram matrix of ``rows`` is
        solved at the shift -mu (:meth:`BorderedGram.solve`), its f diagonal
        rows eliminated in closed form and the e x e ridge block left to
        LAPACK in the pattern's work array, which every step reuses.  Where
        J loses row rank, a closed-form pivot can be zero, or LAPACK can
        meet an exactly singular block; that raises ConvergenceError."""
        values = self.values(alphas)
        A = self.rows.gram(values)
        mu = LM_SHIFT * A.diagonal.sum() / self.nrows
        try:
            y = A.solve(-mu, r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Gauss-Newton system not positive definite: {exc}") from exc
        return self.rows.transpose_product(values, y).reshape(alphas.shape)


_PSI_STRUCTURES = weakref.WeakKeyDictionary()


def psi_structure(Q):
    """The cached :class:`PsiStructure` of an orbifold."""
    S = _PSI_STRUCTURES.get(Q)
    if S is None:
        S = _PSI_STRUCTURES[Q] = PsiStructure(Q)
    return S


def _alphas(normals):
    """The covectors alpha_i = 2 J nu_i of the rows nu_i, computed exactly:
    twice the rows with the first column negated."""
    out = 2.0 * normals
    out[:, 0] *= -1.0
    return out


def psi_eval(Q, normals):
    """Residuals of the hyperbolic equations at the given normals:
    2<nu_i,nu_i> - 2 on diagonal rows, 2<nu_i,nu_j> + 2cos(pi/n_ij) on ridge
    rows.  Length f + e."""
    return psi_structure(Q).eval(np.asarray(normals, dtype=float))


def psi_matrix(Q, normals):
    """Jacobian of :func:`psi_eval` in the flattened normals, as a
    :class:`StructuredMatrix` over the pattern of :class:`PsiStructure`,
    with the ring rotation's row symmetry as its hint
    (:attr:`PsiStructure.symmetry`)."""
    S = psi_structure(Q)
    return S.rows.matrix(S.values(_alphas(np.asarray(normals, dtype=float))), S.symmetry)


def psi_jacobian(Q, normals):
    """Jacobian of :func:`psi_eval` in the flattened normals, an
    (f+e) x (n+1)f matrix of (n+1)-entry blocks: row (i,i) carries
    2 alpha_i in block i; row (i,j) carries alpha_j in block i and alpha_i in
    block j, where alpha_i = 2 nu_i^t J."""
    return psi_matrix(Q, normals).build()


# -- realizations -------------------------------------------------------------

class HyperbolicRealization:
    """Unit spacelike normals of a realized compact polytope, with the
    residual norm, per-vertex compactness flags, and divergence checks for
    non-adjacent facet pairs.  The facet positions come from the
    orbifold's cached :class:`PsiStructure`.  ``gram``, where given, is
    :func:`lorentz_gram` of the normals, already formed."""

    def __init__(self, Q, normals, validate=True, gram=None):
        self.Q = Q
        self.normals = np.asarray(normals, dtype=float)
        S = psi_structure(Q)
        forms = self.normals @ LorentzForm(self.dim).matrix
        if gram is None:
            gram = forms @ self.normals.T  # lorentz_gram(normals)
        self.residual_norm = float(np.linalg.norm(S.residuals(gram)))
        self.vertex_flags = {}
        if len(S.vertex_rows):
            x = vertex_points(forms[S.vertex_rows])
            x = np.where(np.abs(x[:, :1]) > 1e-12, x / x[:, :1], x)
            inside = LorentzForm(self.dim).inner(x, x) < 0
            self.vertex_flags = dict(zip(Q.base.vertices, inside.tolist()))
        self._nonadjacent_values = gram[S.nonadjacent]
        if validate:
            self.check_valid()

    @property
    def dim(self):
        return self.normals.shape[1]

    @cached_property
    def nonadjacent_products(self):
        """<nu_i, nu_j> of each non-adjacent pair (i, j), in the polytope's
        order; built on first use."""
        return dict(zip(self.Q.base.nonadjacent_pairs, self._nonadjacent_values.tolist()))

    def check_valid(self):
        if self.residual_norm > VALID_RESIDUAL:
            raise RealizationError(
                f"normals do not satisfy the hyperbolic equations "
                f"(residual {self.residual_norm:.3e})")
        bad = [sorted(V) for V, ok in self.vertex_flags.items() if not ok]
        if bad:
            raise RealizationError(f"vertices outside the ball: {bad}")
        # strict margin: a product at the threshold up to solver noise is an
        # asymptotic hyperplane pair, not a compact polytope
        vals = self._nonadjacent_values
        bad = np.flatnonzero(~(vals < DIVERGENCE_THRESHOLD - DIVERGENCE_MARGIN))
        if len(bad):
            i, j = self.Q.base.nonadjacent_pairs[bad[0]]
            raise RealizationError(
                f"non-adjacent facets {i},{j} do not diverge "
                f"(<nu_i,nu_j> = {vals[bad[0]]:.6f})")
        return True


def vertex_points(forms):
    """The unit null vector of each n x (n+1) matrix of a stack: its
    generalised cross product, whose entry k is (-1)^k times the minor
    without column k, scaled to unit length."""
    dim = forms.shape[-1]
    keep = np.array([[c for c in range(dim) if c != k] for k in range(dim)])
    x = np.linalg.det(forms[..., keep].swapaxes(-3, -2))
    x[..., 1::2] *= -1.0
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def realize_gram(Q):
    """Realize any orbifold whose prescribed Gram matrix is complete (every
    facet pair adjacent, as on a simplex): the f x f matrix must have one
    negative and n positive eigenvalues, the remaining f - n - 1 exactly
    zero.  The normals are read off a factorization G = L J L^t."""
    G = gram_matrix(Q)
    if np.isnan(G).any():
        raise RealizationError("Gram matrix is not fully determined")
    lam, U = np.linalg.eigh(G)
    scale = np.abs(lam).max()
    dim = Q.n + 1
    nonzero = np.abs(lam) > SIGNATURE_EIG_TOL * scale
    if Q.f == dim and not nonzero.all():
        raise RealizationError("zero type: Gram matrix is degenerate (Euclidean)")
    if int(nonzero.sum()) != dim:
        raise RealizationError(
            f"Gram matrix has rank {int(nonzero.sum())}, expected {dim}")
    negatives = int(np.sum(lam < -SIGNATURE_EIG_TOL * scale))
    if negatives != 1:
        raise RealizationError(
            f"wrong signature: {negatives} negative eigenvalues, expected 1")
    order = np.argsort(lam)  # negative eigenvalue first, matching J
    keep = np.concatenate([order[:1], order[-Q.n:]])
    lam, U = lam[keep], U[:, keep]
    L = U * np.sqrt(np.abs(lam))
    return HyperbolicRealization(Q, L)


def solve_hyperbolic_newton(Q, initial=None, tol=RESIDUAL_TOL, max_iter=100):
    """Gauss-Newton solve of the hyperbolic equations.

    Each step is the minimum-norm step J^t y with (J J^t + mu I) y = r, which
    quotients out the Lorentz gauge freedom (the Jacobian kernel is
    dim so(1,n) on the solution manifold) without pinning a gauge, so it does
    not depend on facet labels (:meth:`PsiStructure.gauss_newton_step`, in
    the pattern's one array for the block left to LAPACK).  The
    Levenberg-Marquardt shift mu = LM_SHIFT trace(J J^t) / (f + e) keeps the
    system positive definite when J loses row rank; at full row rank the
    step is the least-squares step J^+ r up to rounding.  Step halving is
    the safeguard.
    At most ``max_iter`` steps are taken.  Raises ConvergenceError on
    divergence and RealizationError if the converged point fails the
    compactness or divergence checks; when the start was the document's own
    ``normals``, the error says that they realize another polytope.  The
    realization takes the Lorentz Gram matrix of the last residual check.
    """
    if initial is None:
        initial = initial_guess(Q)
    start = np.asarray(initial, dtype=float)
    x = start.copy()
    if x.shape != (Q.f, Q.n + 1):
        raise RealizationError(f"initial guess must have shape {(Q.f, Q.n + 1)}")
    S = psi_structure(Q)
    gram = lorentz_gram(x)
    r = S.residuals(gram)
    for k in range(max_iter + 1):
        norm = np.linalg.norm(r)
        if norm < tol:
            R = HyperbolicRealization(Q, x, gram=gram, validate=False)
            try:
                R.check_valid()
            except RealizationError as err:
                if R.residual_norm <= VALID_RESIDUAL and Q.normals is not None \
                        and np.array_equal(start, Q.normals):
                    raise RealizationError(
                        f'the document\'s "normals" realize another polytope: {err}') from None
                raise
            return R
        if k == max_iter:
            break
        step = S.gauss_newton_step(_alphas(x), r)
        t = 1.0
        for _ in range(25):
            x_new = x - t * step
            gram_new = lorentz_gram(x_new)
            r_new = S.residuals(gram_new)
            if np.linalg.norm(r_new) < norm:
                break
            t *= 0.5
        else:
            raise ConvergenceError(f"no descent step found at residual {norm:.3e}")
        x, r, gram = x_new, r_new, gram_new
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {norm:.3e})")


def kernel_dimension(Q, normals, policy=DEFAULT_RANK_POLICY):
    """Numerical kernel dimension of the hyperbolic-equation Jacobian; equals
    dim so(1,n) = n(n+1)/2 at every genuine realization."""
    J = psi_matrix(Q, normals)
    return numerical_rank(J, policy).kernel_dimension(J.shape[1])


# -- seed library --------------------------------------------------------------

def _klein_plane(unit_normals, offset):
    """Lorentz normals of the Klein-model planes x . u = c, one for each
    unit normal u along the last axis of ``unit_normals``, oriented so the
    side containing the origin satisfies <nu, x> >= 0."""
    u = np.asarray(unit_normals, dtype=float)
    c = float(offset)
    if not 0 < c < 1:
        raise RealizationError("plane offset must lie in (0, 1)")
    nu = np.empty(u.shape[:-1] + (u.shape[-1] + 1,))
    nu[..., 0] = -c
    nu[..., 1:] = -u
    return nu / math.sqrt(1.0 - c * c)


def _ring_seed(f, caps, c_c, rings, c_r, turns, h, v):
    """The f :func:`_klein_plane` normals of two caps x_3 = +-c_c
    (positions ``caps``) and of rings at offset c_r, ring k (positions
    ``rings[k]``) with unit normals (h cos th, h sin th, v[k]) at
    th = 2 pi j / m - turns[k], j its position in the ring.  Each ring's
    planes are one :func:`_klein_plane` call; its cosines and sines are
    taken with :mod:`math`, which keeps the seeds the same on every
    platform."""
    m = rings.shape[1]
    nu = np.empty((f, 4))
    nu[caps] = _klein_plane([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)], c_c)
    for ring, turn, z in zip(rings, turns, v):
        th = [2.0 * math.pi * j / m - turn for j in range(m)]
        nu[ring] = _klein_plane([(h * math.cos(t), h * math.sin(t), z) for t in th], c_r)
    return nu


def _prism_structure(P):
    """Detect prism combinatorics: two non-adjacent caps, quadrilateral sides.
    Returns (cap_a, cap_b, cyclic side order) or None."""
    nbrs = P.nbrs
    for a in sorted(P.facets):
        if len(nbrs[a]) != P.f - 2:
            continue  # a is not adjacent to exactly one other facet
        b = next(x for x in P.facets if x != a and x not in nbrs[a])
        sides = [x for x in P.facets if x != a and x != b]
        if all(x in nbrs[b] and len(nbrs[x]) == 4 for x in sides):
            return a, b, _cyclic_order(nbrs, sides)
    return None


def _cyclic_order(nbrs, ring):
    """Arrange mutually adjacent ring facets in cyclic adjacency order, each
    step to the lowest unvisited neighbour; ``nbrs`` maps a facet to its
    neighbour set."""
    order = [min(ring)]
    rest = set(ring) - {order[0]}
    while rest:
        nxt = rest & nbrs[order[-1]]
        if not nxt:
            return None
        order.append(min(nxt))
        rest.remove(order[-1])
    if order[0] not in nbrs[order[-1]]:
        return None
    return order


def _loebell_structure(P):
    """Detect the two-cap / two-pentagon-ring combinatorics.  Returns
    (top, bottom, upper ring, lower ring) with lower ring w_j between
    u_{j-1} and u_j, or None."""
    if P.f < 10 or P.f % 2 != 0:
        return None
    m = (P.f - 2) // 2
    nbrs = P.nbrs
    for top in (x for x in sorted(P.facets) if len(nbrs[x]) == m):
        U = nbrs[top]
        rest = [x for x in P.facets if x != top and x not in U]
        bottoms = [x for x in rest if not nbrs[x] & U]
        if len(bottoms) != 1:
            continue
        bottom = bottoms[0]
        W = nbrs[bottom]
        if len(W) != m or W != set(rest) - {bottom}:
            continue
        upper = _cyclic_order(nbrs, U)
        if upper is None:
            continue
        lower = []
        for j in range(m):
            common = W & nbrs[upper[j - 1]] & nbrs[upper[j]]
            if len(common) != 1:
                lower = None
                break
            lower.extend(common)
        if lower:
            return top, bottom, upper, lower
    return None


def _mean_cos(shifts):
    """The mean of cos(pi/m) over ridge rows whose shifts 2 cos(pi/m) are
    ``shifts``, summed in their order."""
    return sum((0.5 * shifts).ravel().tolist()) / shifts.size


def _offset(c):
    """A prism seed's plane offset, replaced by OFFSET_FLOOR where the mean
    system has no solution in (0, 1) because it puts the plane through the
    origin up to rounding (the all-right-angled cube).  No offset of the
    closed forms reaches 1."""
    return c if c > 1e-6 else OFFSET_FLOOR


def _ring_shifts(orders, rows):
    """The shifts 2 cos(pi/m_xy) of :class:`PsiStructure`'s ridge rows, read
    from ``orders`` for each facet pair (x, y) of each row of ``rows``."""
    return np.array([[2.0 * math.cos(math.pi / orders[_pair(x, y)]) for x, y in row]
                     for row in rows])


def _prism_layout(S, structure):
    """The ring layout of a prism (:class:`RingRotation`): the caps, the
    side ring in cyclic order, and the shifts of the cap-side rows of
    either cap and of the side-side rows (s_{j-1}, s_j)."""
    a, b, ring = structure
    shifts = _ring_shifts(S.orders, [[(a, x) for x in ring], [(b, x) for x in ring],
                                     zip(ring[-1:] + ring[:-1], ring)])
    caps = np.array([S.position[a], S.position[b]])
    return _prism_closed_form, (0, 2, 3), caps, np.array([[S.position[x] for x in ring]]), shifts


def _prism_closed_form(f, caps, rings, shifts):
    """The rotationally symmetric prism: caps x_3 = +-c_c and sides at
    offset c_s with normals 2 pi/m apart.

    Every ridge of a class (cap-side, side-side) gets the class's mean
    kappa = mean cos(pi/m_ij); with theta = 2 pi/m the side-side and
    cap-side equations then read c_s^2 = (cos theta + k_ss) / (1 + k_ss)
    and c_c / sqrt(1 - c_c^2) = k_cs sqrt(1 - c_s^2) / c_s.  This closed
    form solves psi exactly when the orders are constant on each class and
    neither offset is floored (:func:`_offset`): cos theta + k_ss > 0 and
    k_cs > 0.  The prism(3) and prism(4) caps of order 3, with right-angled
    sides, are floored, with psi residuals 1.75 and 1.0e-2."""
    m = rings.shape[1]
    k_ss, k_cs = _mean_cos(shifts[2]), _mean_cos(shifts[:2])
    c_s = _offset(math.sqrt(max(math.cos(2.0 * math.pi / m) + k_ss, 0.0) / (1.0 + k_ss)))
    t = k_cs * math.sqrt(1.0 - c_s * c_s) / c_s
    c_c = _offset(t / math.sqrt(1.0 + t * t))
    return _ring_seed(f, caps, c_c, rings, c_s, (0.0,), 1.0, (0.0,))


def _loebell_layout(S, structure):
    """The ring layout of a two-ring polytope (:class:`RingRotation`): the
    caps, the upper and lower rings in cyclic order, and the shifts of the
    rows top-upper, bottom-lower, (u_{j-1}, u_j), (w_{j-1}, w_j), (w_j,
    u_{j-1}) and (w_j, u_j)."""
    top, bottom, u, w = structure
    u_before, w_before = u[-1:] + u[:-1], w[-1:] + w[:-1]
    shifts = _ring_shifts(S.orders, [[(top, x) for x in u], [(bottom, x) for x in w],
                                     zip(u_before, u), zip(w_before, w),
                                     zip(w, u_before), zip(w, u)])
    caps = np.array([S.position[top], S.position[bottom]])
    rings = np.array([[S.position[x] for x in u], [S.position[x] for x in w]])
    return _loebell_closed_form, (0, 2, 4, 6), caps, rings, shifts


def _loebell_closed_form(f, caps, rings, shifts):
    """Barrel: two caps x_3 = +-c_c and two interlocking rings at offset
    c_r, tilted by +-tilt, the lower ring turned by -pi/m.

    Every ridge of a class (cap-ring, within a ring, across the rings) gets
    the class's mean kappa_1, kappa_2, kappa_3.  With X = c_r^2 and
    A = 1 / (1 + tilt^2), the squared horizontal part of a ring normal, the
    ring equations are linear, (1 + k_2) X + (1 - cos 2 pi/m) A = 1 + k_2
    and -(1 + k_3) X + (1 + cos pi/m) A = 1 - k_3, with a solution in
    (0, 1)^2 for every m >= 4; c_c then solves
    -c_c c_r + sqrt(1 - A) = -k_1 sqrt(1 - X) sqrt(1 - c_c^2).  This closed
    form solves psi exactly when the orders are constant on each class and
    the c_c equation has a root, R^2 >= v^2 below (the square root's
    argument is clamped at 0 otherwise)."""
    m = rings.shape[1]
    k1, k2, k3 = _mean_cos(shifts[:2]), _mean_cos(shifts[2:4]), _mean_cos(shifts[4:].T)
    cos1, cos2 = math.cos(math.pi / m), math.cos(2.0 * math.pi / m)
    A = 2.0 * (1.0 + k2) / ((1.0 + k2) * (1.0 + cos1) + (1.0 - cos2) * (1.0 + k3))
    X = 1.0 - (1.0 - cos2) * A / (1.0 + k2)
    h, v = math.sqrt(A), math.sqrt(1.0 - A)
    # c_c = cos(acos(v / R) - delta), where R e^{i delta} = c_r + i gamma
    c_r, gamma = math.sqrt(X), k1 * math.sqrt(1.0 - X)
    R2 = X + gamma * gamma
    c_c = (c_r * v + gamma * math.sqrt(max(R2 - v * v, 0.0))) / R2
    return _ring_seed(f, caps, c_c, rings, c_r, (0.0, math.pi / m), h, (v, -v))


# (ring structure detector, ring layout), in inference order
_RINGS = ((_prism_structure, _prism_layout), (_loebell_structure, _loebell_layout))


def _rotation_period(orders):
    """The smallest s dividing m under which the columns of the m-column
    array ``orders`` repeat, column j + s equal to column j."""
    m = orders.shape[1]
    return next(s for s in range(1, m + 1)
                if m % s == 0 and (orders[:, s:] == orders[:, :m - s]).all())


def _rotations(angle):
    """The rotation by each angle in the (e_1, e_2) plane, which fixes the
    cap axis e_3 and the time axis e_0."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.zeros((len(angle), 4, 4))
    R[:, 0, 0] = R[:, 3, 3] = 1.0
    R[:, 1, 1], R[:, 1, 2], R[:, 2, 1], R[:, 2, 2] = c, -s, s, c
    return R


class _OrbitSystem(NamedTuple):
    """The orbit system of :func:`_orbit_solve`: per row orbit, the facet
    orbits ``ia`` and ``ib`` it joins, its weighted 2 J R^k (``turns``)
    and its weighted ``shift``; the ``scale`` of each unknown, and of the
    unknowns of each row's two facets (``scale_a``, ``scale_b``) with
    their positions in the Jacobian (``cols_a``, ``cols_b``); the facets
    whose normals start the unknowns (``start``); and, per facet, its
    orbit (``rep``) and the rotation R^k that expands the solution to it
    (``expand``)."""

    ia: np.ndarray
    ib: np.ndarray
    turns: np.ndarray
    shift: np.ndarray
    scale: np.ndarray
    scale_a: np.ndarray
    scale_b: np.ndarray
    cols_a: np.ndarray
    cols_b: np.ndarray
    start: np.ndarray
    rep: np.ndarray
    expand: np.ndarray


class RingRotation:
    """The rings of a prism or two-ring orbifold and the rotation of them
    that keeps its orders, built once per orbifold
    (:attr:`PsiStructure.rotation`) from its layout: ``caps``, the two cap
    positions; each row of ``rings``, a ring's positions in cyclic order;
    each row of ``shifts``, the shifts 2 cos(pi/m_ij) of the ridges that
    move with ring position j along column j, which together cover every
    ridge; the ring seed's ``closed_form``; and ``bounds``, the rows of
    ``shifts`` at which its ridge classes start and end.

    The orders are invariant under turning every ring by ``period``
    positions, the smallest such divisor of the ring length m
    (:func:`_rotation_period`), so the rotation has order K = m / period:
    ring facet j goes to ring facet j + period and the caps stay
    (:attr:`facets`).  The ring seeds are symmetric under it, the normal
    of ring facet j + period being R times that of facet j, R the rotation
    by 2 pi / K about the cap axis.  The orbit system of
    :func:`_orbit_solve` is built on first use (:attr:`orbit_system`).
    ``exact`` holds where the orders are constant on each ridge class; the
    seed is then the closed form alone, which solves psi only under its own
    further condition (:func:`_prism_closed_form`,
    :func:`_loebell_closed_form`)."""

    def __init__(self, S, closed_form, bounds, caps, rings, shifts):
        self.closed_form, self.caps, self.rings, self.shifts = closed_form, caps, rings, shifts
        self.exact = all((shifts[a:b] == shifts[a, 0]).all() for a, b in zip(bounds, bounds[1:]))
        self.period = _rotation_period(shifts)
        self.K = rings.shape[1] // self.period
        self.f, self._rows = S.f, (S.a, S.b, S.shift)

    @cached_property
    def facets(self):
        """The permutation of the facet positions: each ring turned by
        ``period`` positions, the caps fixed."""
        image = np.arange(self.f)
        image[self.rings] = np.roll(self.rings, -self.period, axis=1)
        return image

    @cached_property
    def orbit_system(self):
        """The :class:`_OrbitSystem`, or None where it has more than
        ORBIT_MAX_ROWS rows (see :func:`_orbit_solve`)."""
        caps, rings, period, K = self.caps, self.rings, self.period, self.K
        a, b, shifts = self._rows
        m = rings.shape[1]
        nrep = 2 + len(rings) * period
        j = np.arange(m)
        rep, power = np.empty(self.f, dtype=np.intp), np.zeros(self.f, dtype=np.intp)
        rep[caps] = (0, 1)
        rep[rings] = 2 + period * np.arange(len(rings))[:, None] + j % period
        power[rings] = j // period
        # a row's orbit: its facets' orbits and the turn between them, unordered;
        # R fixes the caps, so a row with a cap has no turn
        ra, rb = rep[a], rep[b]
        turn = np.where(np.minimum(ra, rb) < 2, 0, (power[b] - power[a]) % K)
        keys = np.minimum((ra * nrep + rb) * K + turn, (rb * nrep + ra) * K + (K - turn) % K)
        keys, first, size = np.unique(keys, return_index=True, return_counts=True)
        if len(keys) > ORBIT_MAX_ROWS:
            return None
        n = len(keys)
        ia, ib = keys // (K * nrep), keys // K % nrep
        weight = np.sqrt(size)
        turns = _rotations(2.0 * math.pi * (keys % K) / K) * (2.0 * weight)[:, None, None]
        turns[:, 0] *= -1.0  # weight 2 J R^k
        # 1 / sqrt(size) of each unknown's facet orbit, 0 off span(e_0, e_3) at the caps
        scale = np.full((nrep, 4), 1.0 / math.sqrt(K))
        scale[:2] = (1.0, 0.0, 0.0, 1.0)
        cols = 4 * np.arange(n)[:, None] * nrep + np.arange(4)
        return _OrbitSystem(
            ia, ib, turns, weight * shifts[first], scale, scale[ia], scale[ib],
            cols + 4 * ia[:, None], cols + 4 * ib[:, None],
            np.concatenate([caps, rings[:, :period].ravel()]), rep,
            _rotations(2.0 * math.pi * power / K))

    def seed(self):
        """The ring seed: the closed form, solved on the orbits of the
        rotation (:func:`_orbit_solve`) unless the orders are constant on
        each ridge class, where the closed form is exact."""
        x = self.closed_form(self.f, self.caps, self.rings, self.shifts)
        if self.exact:
            return x
        return _orbit_solve(self, x)


def _orbit_solve(rotation, x):
    """Solve psi from a ring seed ``x`` on the orbits of the
    :class:`RingRotation` ``rotation`` (Fassler and Stiefel, Group
    Theoretical Methods and Their Applications, 1992).

    With K its order and R the rotation by 2 pi / K about the cap axis,
    under which x is already symmetric, the unknowns are one normal per
    facet orbit: the first ``period`` facets of each ring, free, and the
    caps, which R fixes, in span(e_0, e_3).  Ring facet j is R^(j // period)
    times the normal of facet j mod period.  Each orbit of rows gives one
    row 2<nu_a, R^k nu_b> + shift, weighted by the square root of the
    orbit's size, and each unknown is scaled by that of its facet orbit, so
    that the residual norm and the minimum-norm Gauss-Newton step are those
    of the whole system.  The step solves the dense (J J^t + mu I) y = r as
    :func:`solve_hyperbolic_newton` does; the gauge left is the rotation
    about the cap axis and the boost along it.  Descent is kept by step
    halving, and the last iterate, the best, is returned expanded, or x
    itself where it is within RESIDUAL_TOL.  x is returned at once where no
    rotation keeps the orders (K = 1), and where the orbit system has more
    than ORBIT_MAX_ROWS rows, above which its dense steps cost more than the
    sparse ones of the whole system.  The system is built once per
    orbifold (:attr:`RingRotation.orbit_system`).  At most ORBIT_MAX_ITER
    steps are taken."""
    if rotation.K == 1:
        return x
    system = rotation.orbit_system
    if system is None:
        return x
    ia, ib, M, shift = system.ia, system.ib, system.turns, system.shift
    n, nrep = len(ia), len(system.scale)

    def residuals(nu):
        turned = np.matmul(M, nu[ib, :, None])[..., 0]  # weighted 2 J R^k nu_b
        return np.einsum("ij,ij->i", nu[ia], turned) + shift, turned

    nu = x[system.start]
    r, turned = residuals(nu)
    norm, moved = math.sqrt(r @ r), False
    for _ in range(ORBIT_MAX_ITER):
        if norm < RESIDUAL_TOL:
            break
        A = np.zeros(n * nrep * 4)
        A[system.cols_a] = turned * system.scale_a
        A[system.cols_b] += np.matmul(nu[ia, None, :], M)[:, 0] * system.scale_b
        A = A.reshape(n, 4 * nrep)
        G = A @ A.T
        G.flat[::n + 1] += LM_SHIFT * np.trace(G) / n
        try:
            step = (np.linalg.solve(G, r) @ A).reshape(nrep, 4) * system.scale
        except np.linalg.LinAlgError:
            break
        t = 1.0
        for _ in range(25):
            nu_new = nu - t * step
            r_new, turned_new = residuals(nu_new)
            norm_new = math.sqrt(r_new @ r_new)
            if norm_new < norm:
                break
            t *= 0.5
        else:
            break
        nu, r, turned, norm, moved = nu_new, r_new, turned_new, norm_new, True
    if not moved:
        return x
    return np.matmul(system.expand, nu[system.rep, :, None])[..., 0]


def initial_guess(Q):
    """Documented seed for Gauss-Newton; the first that applies of:

    - the exact normals of :func:`realize_gram`, where the prescribed Gram
      matrix is complete (every facet pair adjacent, as on a simplex);
    - the orbifold's own ``normals``, the realization its document carries
      (its ``"normals"`` key, f rows of n + 1 numbers in facet order), as
      the bundled ``doubled_cube`` does;
    - the ring seed of a prism or two-ring polytope (any m, including the
      dodecahedron L(5)), :meth:`RingRotation.seed`: the rotationally
      symmetric closed form built from Q's own angles
      (:func:`_prism_closed_form`, :func:`_loebell_closed_form`), solved on
      the orbits of the rotation of the rings that keeps the orders, and
      never worse than the closed form.

    An orbifold that none fits raises RealizationError.  The ring rotation
    and its orbit system are found once per orbifold and kept with its
    :class:`PsiStructure` (:attr:`PsiStructure.rotation`)."""
    if not Q.base.nonadjacent_pairs:
        return realize_gram(Q).normals
    if Q.normals is not None:
        return np.array(Q.normals)
    rotation = psi_structure(Q).rotation
    if rotation is None:
        raise RealizationError('no seed for this polytope; give the document "normals" '
                               "or pass initial=")
    return rotation.seed()
