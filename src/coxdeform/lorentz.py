"""Lorentzian linear algebra and hyperbolic realization of Coxeter orbifolds.

A compact hyperbolic Coxeter polytope is encoded by unit spacelike normals
nu_1..nu_f in R^{1,n} satisfying <nu_i, nu_i> = 1 and, on each ridge,
<nu_i, nu_j> = -cos(pi/n_ij).  This module assembles that equation system and
its Jacobian, realizes simplices directly from the Gram matrix, and solves the
general case by Gauss-Newton iteration from a library of seed guesses.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from coxdeform.errors import ConvergenceError, RealizationError
from coxdeform.numerics import DEFAULT_RANK_POLICY, BlockRows, numerical_rank

RESIDUAL_TOL = 1e-10
SIGNATURE_EIG_TOL = 1e-9
DIVERGENCE_THRESHOLD = -1.0   # non-adjacent facets: <nu_i, nu_j> below this
DIVERGENCE_MARGIN = 1e-6      # rejects boundary (asymptotic-hyperplane) noise
LM_SHIFT = 1e-12              # Gauss-Newton: mu = LM_SHIFT * trace(J J^t) / rows
# seed library: Klein-model plane offsets, ring tilt, corner cut / face offset
PRISM_CAP_OFFSET, PRISM_SIDE_OFFSET = 0.55, 0.5
LOEBELL_OFFSET, LOEBELL_TILT = 0.78, 0.5
DOUBLED_CUBE_OFFSET, DOUBLED_CUBE_CUT = 0.52, 2.35


@dataclass(frozen=True)
class LorentzForm:
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
    facet; slot s is such an entry, with c = ``slot_facet[s]``, o =
    ``slot_other[s]`` and k = ``slot_k[s]`` (2 on the f diagonal rows, which
    come first, and 1 on the e ridge rows).  ``rows`` is the
    :class:`BlockRows` pattern of all slots and ``ridge`` that of the ridge
    slots alone, whose pairs give the Newton system without the diagonal rows
    (:meth:`gauss_newton_step`).
    """

    def __init__(self, Q):
        pos = {facet: k for k, facet in enumerate(Q.base.facets)}
        rows = psi_rows(Q)
        f = self.f = Q.f
        a = self.a = np.array([pos[i] for i, _ in rows], dtype=np.intp)
        b = self.b = np.array([pos[j] for _, j in rows], dtype=np.intp)
        self.shift = np.array([-2.0 if i == j else 2.0 * math.cos(math.pi / Q.order(i, j))
                               for i, j in rows])
        e = len(rows) - f
        ridge = np.arange(e)
        self.slot_facet = np.concatenate([a[:f], a[f:], b[f:]]).astype(np.int32)
        self.slot_other = np.concatenate([a[:f], b[f:], a[f:]]).astype(np.int32)
        self.slot_k = np.concatenate([np.full(f, 2.0), np.ones(2 * e)])
        self.rows = BlockRows(len(rows), f, np.concatenate([np.arange(f), f + ridge, f + ridge]),
                              self.slot_facet)
        R = self.ridge = BlockRows(e, f, np.concatenate([ridge, ridge]), self.slot_facet[f:])
        # flat indices into f x f arrays of each ridge slot's (c, o) and of
        # each ridge pair's (o, o'), and each pair's entry of the e x e system
        c, o = R.block, self.slot_other[f:]
        p, q = R.pairs
        self.ridge_cell = c * f + o
        self.ridge_pair_cell = o[p] * f + o[q]
        self.ridge_entry = R.row[p] * e + R.row[q]
        # trace(J J^t) = sum over facets of (4 + degree) |alpha_c|^2
        self.trace_weight = 4.0 + np.bincount(c, minlength=f)

    @property
    def nrows(self):
        return len(self.a)

    def eval(self, normals):
        return 2.0 * lorentz_gram(normals)[self.a, self.b] + self.shift

    def values(self, alphas):
        """The vector of each slot, k alpha_o."""
        return self.slot_k[:, None] * np.take(alphas, self.slot_other, axis=0)

    def gauss_newton_step(self, alphas, r):
        """The minimum-norm step J^t y with (J J^t + mu I) y = r, as an
        f x (n+1) array, where J itself is never formed.

        The f diagonal rows share no facet, so their block of J J^t + mu I
        is the diagonal D = 4|alpha_c|^2 + mu; a ridge slot in block c
        couples its row to diagonal row c by B = 2 alpha_c . alpha_o.  Those
        rows are eliminated exactly: the ridge part y_2 of y solves the
        e x e Schur complement (C - B^t D^-1 B) y_2 = r_2 - B^t D^-1 r_1,
        whose entries are sums over the ridge pairs of alpha_o . alpha_o' -
        B B' / D_c (plus mu on the diagonal), and then y_1 = D^-1 (r_1 -
        B y_2)."""
        f, R = self.f, self.ridge
        e, c, row = R.nrows, R.block, R.row
        gram = alphas @ alphas.T
        flat = gram.ravel()
        g = gram.diagonal()
        mu = LM_SHIFT * (g @ self.trace_weight) / self.nrows
        d = 4.0 * g + mu
        B = 2.0 * flat.take(self.ridge_cell)
        s = B / np.sqrt(d).take(c)
        p, q = R.pairs
        S = np.bincount(self.ridge_entry, flat.take(self.ridge_pair_cell) - s.take(p) * s.take(q),
                        minlength=e * e).reshape(e, e)
        S.flat[::e + 1] += mu
        t = r[:f] / d
        y2 = np.linalg.solve(S, r[f:] - np.bincount(row, B * t.take(c), minlength=e))
        y1 = t - np.bincount(c, B * y2.take(row), minlength=f) / d
        coef = np.bincount(self.ridge_cell, y2.take(row), minlength=f * f).reshape(f, f)
        coef.flat[::f + 1] += 2.0 * y1
        return coef @ alphas


_PSI_STRUCTURES = weakref.WeakKeyDictionary()


def psi_structure(Q):
    """The cached :class:`PsiStructure` of an orbifold."""
    S = _PSI_STRUCTURES.get(Q)
    if S is None:
        S = _PSI_STRUCTURES[Q] = PsiStructure(Q)
    return S


def _alphas(normals):
    return 2.0 * normals @ LorentzForm(normals.shape[1]).matrix


def psi_eval(Q, normals):
    """Residuals of the hyperbolic equations at the given normals:
    2<nu_i,nu_i> - 2 on diagonal rows, 2<nu_i,nu_j> + 2cos(pi/n_ij) on ridge
    rows.  Length f + e."""
    return psi_structure(Q).eval(np.asarray(normals, dtype=float))


def psi_matrix(Q, normals):
    """Jacobian of :func:`psi_eval` in the flattened normals, as a
    :class:`StructuredMatrix` over the pattern of :class:`PsiStructure`."""
    S = psi_structure(Q)
    return S.rows.matrix(S.values(_alphas(np.asarray(normals, dtype=float))))


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
    non-adjacent facet pairs."""

    def __init__(self, Q, normals, validate=True):
        self.Q = Q
        self.normals = np.asarray(normals, dtype=float)
        self.residual_norm = float(np.linalg.norm(psi_eval(Q, self.normals)))
        pos = {facet: k for k, facet in enumerate(Q.base.facets)}
        # every vertex's point at once: the null vector of its facets' <nu_i, .>
        self.vertex_flags = {}
        if Q.base.vertices:
            rows = np.array([[pos[i] for i in sorted(V)] for V in Q.base.vertices])
            x = np.linalg.svd((self.normals @ LorentzForm(self.dim).matrix)[rows])[2][:, -1]
            x = np.where(np.abs(x[:, :1]) > 1e-12, x / x[:, :1], x)
            inside = LorentzForm(self.dim).inner(x, x) < 0
            self.vertex_flags = dict(zip(Q.base.vertices, inside.tolist()))
        pairs = Q.base.nonadjacent_pairs
        a = [pos[i] for i, _ in pairs]
        b = [pos[j] for _, j in pairs]
        self.nonadjacent_products = dict(zip(pairs, lorentz_gram(self.normals)[a, b].tolist()))
        if validate:
            self.check_valid()

    @property
    def dim(self):
        return self.normals.shape[1]

    def check_valid(self):
        if self.residual_norm > 1e-8:
            raise RealizationError(
                f"normals do not satisfy the hyperbolic equations "
                f"(residual {self.residual_norm:.3e})")
        bad = [sorted(V) for V, ok in self.vertex_flags.items() if not ok]
        if bad:
            raise RealizationError(f"vertices outside the ball: {bad}")
        for (i, j), val in self.nonadjacent_products.items():
            # strict margin: a product at the threshold up to solver noise is
            # an asymptotic hyperplane pair, not a compact polytope
            if not val < DIVERGENCE_THRESHOLD - DIVERGENCE_MARGIN:
                raise RealizationError(
                    f"non-adjacent facets {i},{j} do not diverge "
                    f"(<nu_i,nu_j> = {val:.6f})")
        return True


def realize_simplex(Q):
    """Directly realize an orbifold based on an n-simplex.

    The prescribed Gram matrix is complete; it must have exactly one negative
    eigenvalue and full rank n+1 (a compact hyperbolic simplex).  The normals
    are read off a factorization G = L J L^t.
    """
    if Q.f != Q.n + 1:
        raise RealizationError("base polytope is not a simplex")
    return realize_gram(Q)


def realize_gram(Q):
    """Realize any orbifold whose prescribed Gram matrix is complete (every
    facet pair adjacent): the f x f matrix must have one negative and n
    positive eigenvalues, the remaining f - n - 1 exactly zero."""
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
    not depend on facet labels.  J J^t comes from the Gram matrix of the
    alphas, and the f diagonal rows, whose block of J J^t is diagonal, are
    eliminated exactly, so each step solves an e x e system
    (:meth:`PsiStructure.gauss_newton_step`).  The Levenberg-Marquardt
    shift mu = LM_SHIFT trace(J J^t) / (f + e) keeps the system positive
    definite when J loses row rank; at full row rank the step is the
    least-squares step J^+ r up to rounding.  Step halving is the safeguard.
    Raises ConvergenceError on divergence and RealizationError if the
    converged point fails the compactness or divergence checks.
    """
    if initial is None:
        initial = initial_guess(Q)
    x = np.asarray(initial, dtype=float).copy()
    if x.shape != (Q.f, Q.n + 1):
        raise RealizationError(f"initial guess must have shape {(Q.f, Q.n + 1)}")
    S = psi_structure(Q)
    r = S.eval(x)
    for _ in range(max_iter):
        norm = np.linalg.norm(r)
        if norm < tol:
            return HyperbolicRealization(Q, x)
        step = S.gauss_newton_step(_alphas(x), r)
        t = 1.0
        for _ in range(25):
            x_new = x - t * step
            r_new = S.eval(x_new)
            if np.linalg.norm(r_new) < norm:
                break
            t *= 0.5
        else:
            raise ConvergenceError(f"no descent step found at residual {norm:.3e}")
        x, r = x_new, r_new
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(residual {np.linalg.norm(r):.3e})")


def kernel_dimension(Q, normals, policy=DEFAULT_RANK_POLICY):
    """Numerical kernel dimension of the hyperbolic-equation Jacobian; equals
    dim so(1,n) = n(n+1)/2 at every genuine realization."""
    J = psi_matrix(Q, normals)
    return numerical_rank(J, policy).kernel_dimension(J.shape[1])


# -- seed library --------------------------------------------------------------

def _klein_plane(unit_normal, offset):
    """Lorentz normal of the Klein-model plane x . u = c, oriented so the
    side containing the origin satisfies <nu, x> >= 0."""
    u = np.asarray(unit_normal, dtype=float)
    c = float(offset)
    if not 0 < c < 1:
        raise RealizationError("plane offset must lie in (0, 1)")
    nu = np.concatenate(([-c], -u))
    return nu / math.sqrt(1.0 - c * c)


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
    caps = [x for x in sorted(P.facets) if len(nbrs[x]) == m] or sorted(P.facets)
    for top in caps:
        U = nbrs[top]
        if len(U) != m:
            continue
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


def _doubled_cube_structure(P):
    """Detect three mutually adjacent hexagons and two square triples.
    Returns (hexagons, half1, half2) with each half mapping a hexagon to the
    opposite square of that half, or None."""
    if P.f != 9:
        return None
    hexes = sorted(x for x in P.facets if len(P.nbrs[x]) == 6)
    squares = [x for x in P.facets if len(P.nbrs[x]) == 4]
    if len(hexes) != 3 or len(squares) != 6:
        return None
    comp1 = sorted([squares[0]] + [s for s in squares[1:] if P.adjacent(squares[0], s)])
    comp2 = sorted(s for s in squares if s not in comp1)
    if len(comp1) != 3 or len(comp2) != 3:
        return None
    halves = []
    for comp in (comp1, comp2):
        half = {}
        for s in comp:
            opposite = [h for h in hexes if not P.adjacent(s, h)]
            if len(opposite) != 1:
                return None
            half[opposite[0]] = s
        halves.append(half)
    return hexes, halves[0], halves[1]


def _prism_seed(P, structure):
    a, b, ring = structure
    m = len(ring)
    rows = {a: _klein_plane([0.0, 0.0, 1.0], PRISM_CAP_OFFSET),
            b: _klein_plane([0.0, 0.0, -1.0], PRISM_CAP_OFFSET)}
    for i, s in enumerate(ring):
        th = 2.0 * math.pi * i / m
        rows[s] = _klein_plane([math.cos(th), math.sin(th), 0.0], PRISM_SIDE_OFFSET)
    return np.array([rows[x] for x in P.facets])


def _loebell_seed(P, structure):
    """Barrel seed: two caps and two interlocking tilted rings."""
    top, bottom, upper, lower = structure
    m = len(upper)
    s = math.sqrt(1.0 + LOEBELL_TILT * LOEBELL_TILT)
    rows = {top: _klein_plane([0.0, 0.0, 1.0], LOEBELL_OFFSET),
            bottom: _klein_plane([0.0, 0.0, -1.0], LOEBELL_OFFSET)}
    for i in range(m):
        th = 2.0 * math.pi * i / m
        rows[upper[i]] = _klein_plane(
            [math.cos(th) / s, math.sin(th) / s, LOEBELL_TILT / s], LOEBELL_OFFSET)
        th = 2.0 * math.pi * i / m - math.pi / m
        rows[lower[i]] = _klein_plane(
            [math.cos(th) / s, math.sin(th) / s, -LOEBELL_TILT / s], LOEBELL_OFFSET)
    return np.array([rows[x] for x in P.facets])


def _doubled_cube_seed(P, structure):
    """A corner-truncated Euclidean cube reflected across the cut plane.

    Hexagon seeds are the symmetrized images of the three cube faces at the
    truncated corner; square seeds come from the three opposite faces and
    their mirror images.
    """
    hexes, half1, half2 = structure
    c = DOUBLED_CUBE_OFFSET
    e3 = np.eye(3)
    q = DOUBLED_CUBE_CUT * c / math.sqrt(3.0)
    nu_t = _klein_plane(np.ones(3) / math.sqrt(3.0), q)
    J = LorentzForm(4).matrix
    R = np.eye(4) - 2.0 * np.outer(nu_t, J @ nu_t)
    rows = {}
    for k, h in enumerate(hexes):
        nu = _klein_plane(e3[k], c)
        v = nu + R @ nu
        rows[h] = v / math.sqrt(LorentzForm(4).inner(v, v))
        rows[half1[h]] = _klein_plane(-e3[k], c)
        rows[half2[h]] = R @ _klein_plane(-e3[k], c)
    return np.array([rows[x] for x in P.facets])


# seed name -> (structure detector, seed builder, combinatorics), in inference order
_SEEDS = {
    "doubled_cube": (_doubled_cube_structure, _doubled_cube_seed, "doubled-cube"),
    "prism": (_prism_structure, _prism_seed, "prism"),
    "loebell": (_loebell_structure, _loebell_seed, "two-ring"),
}


def initial_guess(Q, name=None):
    """Documented seed for Gauss-Newton, chosen by ``name`` or inferred from
    the base polytope's combinatorial structure.  Available: 'simplex'
    (exact), 'prism' / 'cube', 'doubled_cube', 'loebell' (any m, including
    the dodecahedron L(5))."""
    P = Q.base
    if name == "simplex" or (name is None and P.f == P.n + 1
                             and P.e == P.f * (P.f - 1) // 2):
        return realize_simplex(Q).normals
    if name is None:
        for detect, seed, _ in _SEEDS.values():
            structure = detect(P) if P.n == 3 else None
            if structure:
                return seed(P, structure)
        raise RealizationError("no bundled seed for this polytope; pass initial=")
    name = "prism" if name == "cube" else name
    if name not in _SEEDS:
        raise RealizationError(f"unknown seed name {name!r}")
    detect, seed, kind = _SEEDS[name]
    structure = detect(P)
    if structure is None:
        raise RealizationError(f"polytope does not have {kind} combinatorics")
    return seed(P, structure)
