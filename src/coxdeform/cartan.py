"""Cartan matrices of projective reflection groups.

Covers the sign/product conditions characterizing such matrices, component
decomposition by smallest real eigenvalue (Frobenius theory), the group-type
classification, normalization under the positive diagonal action with cycle
coordinates, and realization of reflection data by rank factorization.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import NamedTuple

import numpy as np

from coxdeform import vinberg
from coxdeform.errors import CartanError
from coxdeform.numerics import numerical_rank
from coxdeform.polytope import _pair, missing_pairs

ZERO_TYPE_TOL = 1e-9
ENTRY_TOL = 1e-9  # relative to max |a_ij|: zero entries, conditions, normal forms


class CartanMatrix:
    """An f x f matrix with 2 on the diagonal and the adjacency pattern of an
    orbifold: order-2 pairs carry zeros, higher-order ridges carry negative
    entries with fixed product, non-adjacent pairs carry entries with product
    above 4.  When no pattern is supplied it is inferred from the entries.
    """

    def __init__(self, entries, orders=None, facets=None):
        self.entries = np.asarray(entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise CartanError("Cartan matrix must be square")
        f = self.entries.shape[0]
        self.facets = tuple(facets) if facets is not None else tuple(range(1, f + 1))
        self.pos = {facet: k for k, facet in enumerate(self.facets)}
        if orders is not None:
            self.orders = {_pair(*p): int(m) for p, m in dict(orders).items()}
            outside = {i for p in self.orders for i in p} - set(self.pos)
            if outside:
                raise CartanError(f"orders name facet {min(outside)}, outside the {f} x {f} matrix")
        else:
            self.orders = self._infer_pattern()

    @property
    def f(self):
        return len(self.facets)

    def entry(self, i, j):
        return self.entries[self.pos[i], self.pos[j]]

    def e2_pairs(self):
        return sorted(p for p, m in self.orders.items() if m == 2)

    def e3_orders(self):
        return dict(sorted((p, m) for p, m in self.orders.items() if m >= 3))

    def e4_pairs(self):
        return missing_pairs(self.facets, self.orders)

    def equation_index(self, n):
        return vinberg.EquationIndex(self.facets, n, self.e2_pairs(),
                                     self.e3_orders(), self.e4_pairs())

    def _infer_pattern(self):
        """Orders of the pairs a < b in row-major order: 2 where both entries
        vanish, 0 for a product <= 0 (the conditions report flags it), the
        nearest order m >= 2 with 4 cos^2(pi/m) near a product in (0, 4),
        and no entry for a product >= 4 (a non-adjacent pair)."""
        M = self.entries
        scale = _entry_scale(M)
        tol = ENTRY_TOL * scale
        small = np.abs(M) <= tol
        zero = small & small.T
        prod = M * M.T
        rows, cols = np.nonzero(np.triu(zero | (prod < 4.0 - tol), 1))
        codes = np.where(zero, 2, np.where(prod <= 0, 0, -1))[rows, cols].tolist()
        orders = {}
        for a, b, m in zip(rows.tolist(), cols.tolist(), codes):
            if m < 0:
                m = max(2, round(math.pi / math.acos(math.sqrt(prod[a, b]) / 2.0)))
            orders[self.facets[a], self.facets[b]] = m
        return orders


class ConditionsReport(NamedTuple):
    diagonal_violations: list
    sign_violations: list       # (L1)
    order2_violations: list     # zeros on E2 pairs
    product_violations: list    # 4cos^2(pi/m) on E3
    open_violations: list       # product > 4 on E4

    @property
    def passed(self):
        return not (self.diagonal_violations or self.sign_violations
                    or self.order2_violations or self.product_violations
                    or self.open_violations)


def check_vinberg_conditions(A):
    """Verify the defining conditions against A's pattern: a_ii = 2; for
    i != j, a_ij <= 0 with symmetric zero pattern; a_ij = a_ji = 0 on order-2
    pairs; a_ij a_ji = 4 cos^2(pi/n_ij) on ridges of order >= 3; and the
    strict open condition a_ij a_ji > 4 on non-adjacent pairs."""
    M = A.entries
    scale = _entry_scale(M)
    atol = ENTRY_TOL * scale
    diagonal = [(A.facets[k], M[k, k])
                for k in np.flatnonzero(np.abs(M.diagonal() - 2.0) > atol).tolist()]
    positive = M > atol
    np.fill_diagonal(positive, False)
    small = np.abs(M) <= atol
    unpaired = small != small.T             # a zero facing a nonzero entry
    sign = []
    for a, b in np.argwhere(positive | unpaired).tolist():
        pair = (A.facets[a], A.facets[b])
        if positive[a, b]:
            sign.append((pair, M[a, b]))
        if unpaired[a, b]:
            sign.append((pair, (M[a, b], M[b, a])))
    e2 = [p for p, m in A.orders.items() if m == 2]
    a, b = np.fromiter(map(A.pos.__getitem__, itertools.chain.from_iterable(e2)),
                       dtype=np.intp, count=2 * len(e2)).reshape(-1, 2).T
    big = np.abs(M) > atol
    hits = np.flatnonzero(big[a, b] | big[b, a]).tolist()
    order2 = [((i, j), (A.entry(i, j), A.entry(j, i))) for i, j in sorted(e2[k] for k in hits)]
    product = []
    for (i, j), m in A.e3_orders().items():
        prod = A.entry(i, j) * A.entry(j, i)
        target = 4.0 * math.cos(math.pi / m) ** 2
        if abs(prod - target) > atol:
            product.append(((i, j), prod, target))
    e4 = []
    for i, j in A.e4_pairs():
        prod = A.entry(i, j) * A.entry(j, i)
        if not prod > 4.0:
            e4.append(((i, j), prod))
    return ConditionsReport(diagonal, sign, order2, product, e4)


# -- components and classification ----------------------------------------------

class ComponentType(NamedTuple):
    indices: tuple                  # facet ids in the component
    classification: str             # 'positive' | 'zero' | 'negative'
    smallest_eigenvalue: float


def _entry_scale(M):
    """max(max |a_ij|, 1), without an f x f temporary."""
    return max(M.max(), -M.min(), 1.0)


def _nonzero_pattern(M, tol):
    """The symmetric boolean pattern where |a_ij| or |a_ji| exceeds ``tol``,
    with a true diagonal, formed with no f x f float temporary."""
    big = M > tol
    big |= M < -tol
    big |= big.T
    np.fill_diagonal(big, True)
    return big


def _components(pattern):
    """The connected components of a :func:`_nonzero_pattern`, each a
    sorted list of positions, in order of their smallest position.  From
    each position not yet reached, a frontier search ORs the pattern rows
    of the frontier into the component until it stops growing."""
    reached = np.zeros(len(pattern), dtype=bool)
    comps = []
    while not reached.all():
        comp = pattern[reached.argmin()].copy()
        frontier = comp.copy()
        while frontier.any():
            frontier = pattern[frontier].any(axis=0) & ~comp
            comp |= frontier
        reached |= comp
        comps.append(np.flatnonzero(comp).tolist())
    return comps


def _spanning_tree(M, pattern):
    """The depth-first spanning tree of a :func:`_nonzero_pattern` from
    position 0, lowest neighbour first, and the positive d with (D M D^{-1})
    symmetric on it: (d, parent, tree pairs (u, v) of positions in visiting
    order).  ``parent`` covers only the positions reached.  Raises
    CartanError on a tree pair whose entries have opposite signs."""
    d = np.ones(M.shape[0])
    parent = {0: None}
    tree = []
    stack = [(0, iter(np.flatnonzero(pattern[0]).tolist()))]
    while stack:
        u, nbrs = stack[-1]
        for v in nbrs:
            if v in parent:
                continue
            if M[u, v] * M[v, u] <= 0:
                raise CartanError(f"pair {u},{v} has entries of opposite sign")
            d[v] = d[u] * math.sqrt(M[u, v] / M[v, u])
            parent[v] = u
            tree.append((u, v))
            stack.append((v, iter(np.flatnonzero(pattern[v]).tolist())))
            break
        else:
            stack.pop()
    return d, parent, tree


def smallest_real_eigenvalue(M):
    """Smallest real eigenvalue of a matrix with non-positive off-diagonal
    entries (always exists by Frobenius theory).  A diagonal similarity makes
    the matrix symmetric whenever the cycle products allow it; otherwise a
    general eigensolve is used and the minimum is taken over the (guaranteed
    non-empty) real part of the spectrum."""
    M = np.asarray(M, dtype=float)
    if M.shape == (1, 1):
        return float(M[0, 0])
    scale = _entry_scale(M)
    try:
        d, parent, _ = _spanning_tree(M, _nonzero_pattern(M, ENTRY_TOL * scale))
    except CartanError:
        return smallest_real_eigenpair(M)[0]
    if len(parent) == len(M):
        S = (d[:, None] * M) / d[None, :]
        if np.abs(S - S.T).max() <= 1e-8 * scale:
            return float(np.linalg.eigvalsh((S + S.T) / 2.0)[0])
    return smallest_real_eigenpair(M)[0]


def smallest_real_eigenpair(M):
    """Smallest real eigenvalue of M by a general eigensolve, with its real
    eigenvector signed to a non-negative sum."""
    lam, vecs = np.linalg.eig(M)
    real = np.flatnonzero(np.abs(lam.imag) <= 1e-9 * max(np.abs(lam).max(), 1.0))
    if not len(real):
        raise CartanError("no real eigenvalue found (sign conditions violated?)")
    k = real[np.argmin(lam.real[real])]
    u = vecs[:, k].real
    return float(lam[k].real), (u if u.sum() >= 0 else -u)


def decompose_components(A):
    """Connected components of the nonzero pattern, each classified by the
    sign of its smallest real eigenvalue (zero within tolerance)."""
    M = A.entries
    scale = _entry_scale(M)
    norm = np.linalg.norm(M)
    comps = _components(_nonzero_pattern(M, ENTRY_TOL * scale))
    out = []
    for comp in comps:
        sub = M[np.ix_(comp, comp)]
        lam = smallest_real_eigenvalue(sub)
        if abs(lam) <= ZERO_TYPE_TOL * norm:
            cls = "zero"
        elif lam > 0:
            cls = "positive"
        else:
            cls = "negative"
        out.append(ComponentType(tuple(A.facets[k] for k in comp), cls, lam))
    return out


def classify_group(comps, rank, n):
    """The group type of a Cartan matrix from its components ``comps`` (from
    :func:`decompose_components`) and its numerical ``rank``: 'elliptic' iff
    every component is positive; 'parabolic' iff every component is zero
    with rank n; 'negative-irreducible' iff a single negative component of
    rank n+1; anything else is 'other'."""
    if all(c.classification == "positive" for c in comps):
        return "elliptic"
    if all(c.classification == "zero" for c in comps) and rank == n:
        return "parabolic"
    if len(comps) == 1 and comps[0].classification == "negative" and rank == n + 1:
        return "negative-irreducible"
    return "other"


# -- diagonal gauge normalization -------------------------------------------------

class NormalForm(NamedTuple):
    matrix: CartanMatrix
    cycle_coordinates: dict          # non-tree pair -> sqrt(a_ij / a_ji)
    rescaling: np.ndarray
    tree: list                       # spanning-tree pairs (facet ids)


def diagonal_normalize(A):
    """Rescale by the positive diagonal action a_ij -> d_i a_ij / d_j so the
    matrix becomes symmetric on a spanning tree of its nonzero pattern.

    The tree is grown depth-first from the lowest facet, lowest neighbor
    first.  One free coordinate per independent cycle remains: for each
    non-tree pair (i, j) the value sqrt(a_ij / a_ji) after normalization.
    Products a_ij a_ji and directed cycle products are unchanged (checked).
    """
    M = A.entries
    scale = _entry_scale(M)
    pattern = _nonzero_pattern(M, ENTRY_TOL * scale)
    if len(_components(pattern)) != 1:
        raise CartanError("matrix is decomposable; normalize components separately")

    d, parent, walk = _spanning_tree(M, pattern)
    tree = [_pair(A.facets[u], A.facets[v]) for u, v in walk]

    N = (d[:, None] * M) / d[None, :]
    tree_set = set(tree)
    for a, b in walk:
        sym = 0.5 * (N[a, b] + N[b, a])
        N[a, b] = N[b, a] = sym

    coords = {}
    nontree = []
    pairs = np.argwhere(np.triu(pattern, 1)).tolist()
    for u, v in pairs:
        pair = (A.facets[u], A.facets[v])
        if pair not in tree_set:
            nontree.append((u, v))
            coords[pair] = math.sqrt(N[u, v] / N[v, u])

    # invariance checks: pair products and directed fundamental-cycle products
    for u, v in pairs:
        if abs(N[u, v] * N[v, u] - M[u, v] * M[v, u]) > ENTRY_TOL * scale * scale:
            raise CartanError("pair product changed under normalization")
    for u, v in nontree:
        path = _tree_path(parent, u, v)
        prod_m = _cycle_product(M, path, v, u)
        prod_n = _cycle_product(N, path, v, u)
        if abs(prod_m - prod_n) > ENTRY_TOL * max(abs(prod_m), 1.0):
            raise CartanError("directed cycle product changed under normalization")

    normal = copy.copy(A)  # shares A's facets and its normalized orders
    normal.entries = N
    return NormalForm(normal, coords, d, tree)


def _tree_path(parent, u, v):
    anc_u = [u]
    while parent[anc_u[-1]] is not None:
        anc_u.append(parent[anc_u[-1]])
    anc_v = [v]
    while parent[anc_v[-1]] is not None:
        anc_v.append(parent[anc_v[-1]])
    set_u = {node: k for k, node in enumerate(anc_u)}
    for k, node in enumerate(anc_v):
        if node in set_u:
            return anc_u[:set_u[node] + 1] + list(reversed(anc_v[:k]))
    raise CartanError("tree path not found")


def _cycle_product(X, path, v, u):
    prod = X[v, u]
    for s, t in zip(path, path[1:]):
        prod *= X[s, t]
    return prod


# -- realization by rank factorization --------------------------------------------

def realize_point_from_cartan(A, n):
    """Reflection data with the given Cartan matrix, via a rank-(n+1)
    factorization A = U W (rows of U are the covectors, columns of W the
    vectors).  Any two such factorizations differ by a change of basis, which
    is gauge.  Requires the defining conditions, rank n+1, and no zero-type
    component; the factorized point is verified entrywise and checked for
    membership in the open solution domain."""
    report = check_vinberg_conditions(A)
    if not report.passed:
        raise CartanError(f"matrix violates the defining conditions: {report}")
    comps = decompose_components(A)
    if any(c.classification == "zero" for c in comps):
        raise CartanError("zero-type component present")
    rr = numerical_rank(A.entries)
    if rr.rank != n + 1:
        raise CartanError(f"rank is {rr.rank}, expected n+1 = {n + 1}")

    U, s, Vt = np.linalg.svd(A.entries)
    root = np.sqrt(s[:n + 1])
    alphas = U[:, :n + 1] * root
    bs = (root[:, None] * Vt[:n + 1]).T
    point = vinberg.VinbergPoint(alphas, bs, A.facets)

    scale = max(np.abs(A.entries).max(), 1.0)
    err = np.abs(point.cartan() - A.entries).max()
    if err > ENTRY_TOL * scale:
        raise CartanError(f"factorization error {err:.3e} exceeds tolerance")
    membership = vinberg.check_U_membership(A.equation_index(n), point)
    if not membership.passed:
        raise CartanError(f"factorized point fails domain membership: "
                          f"{membership.failures}")
    return point
