"""Coxeter orbifold structures on simple polytopes.

An orbifold is a polytope together with an integer order n_ij >= 2 on every
ridge.  The module validates vertex ellipticity, derives the equation counts,
decides weak orderability (combinatorially, and geometrically against a
realization), and runs the Andreev-type necessary inequalities for n = 3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from coxdeform import polytope as pt
from coxdeform.errors import OrbifoldError
from coxdeform.polytope import _pair

ELLIPTIC_EIG_TOL = 1e-9


class CoxeterOrbifold:
    """A simple polytope with an order n_ij >= 2 on each ridge.

    Immutable after construction; built via :func:`make_orbifold`.
    ``order2_adj[k]`` is the bitmask of order-2 neighbours of ``ids[k]``,
    the k-th facet in increasing id order.
    """

    def __init__(self, base, orders):
        self.base = base
        self.orders = {_pair(i, j): int(m) for (i, j), m in orders.items()}
        self.ids = tuple(sorted(base.facets))
        self.order2_adj = bitmask_adjacency(
            self.ids, (r for r, m in self.orders.items() if m == 2))

    def order(self, i, j):
        return self.orders[_pair(i, j)]

    @property
    def n(self):
        return self.base.n

    @property
    def f(self):
        return self.base.f

    def e2_pairs(self):
        return sorted(r for r, m in self.orders.items() if m == 2)

    def e3_pairs(self):
        return sorted(r for r, m in self.orders.items() if m >= 3)

    def e4_pairs(self):
        """Non-adjacent facet pairs (no ridge, no equation, open condition)."""
        return list(self.base.nonadjacent_pairs)

    def order2_neighbors(self, i):
        return sorted(j for j in self.base.nbrs[i] if self.orders.get(_pair(i, j)) == 2)


@dataclass(frozen=True)
class OrbifoldCounts:
    f: int
    e: int
    e2: int
    eplus: int
    N: int
    delta: int


def reciprocal_sum_sign(orders, k):
    """The sign (-1, 0 or 1) of sum(1/m for m in orders) - k, decided in
    integers: the sum is compared with k after multiplying through by the
    product of the orders.  The vertex, 3-circuit and 4-circuit inequalities
    of Coxeter 3-orbifolds are all of this form."""
    prod = math.prod(orders)
    total = sum(prod // m for m in orders)
    return (total > k * prod) - (total < k * prod)


def _vertex_orders(Q, vertex):
    """The orders of the ridges at a vertex of a 3-orbifold, over the facet
    pairs of the vertex in sorted order."""
    return [Q.order(i, j) for i, j in itertools.combinations(sorted(vertex), 2)]


def vertex_cosine_matrix(Q, vertex):
    """Principal cosine matrix at a vertex: 2 on the diagonal and
    -2 cos(pi/n_ij) for the incident facet pairs."""
    import numpy as np

    V = sorted(vertex)
    k = len(V)
    M = 2.0 * np.eye(k)
    for a in range(k):
        for b in range(a + 1, k):
            m = Q.order(V[a], V[b])
            M[a, b] = M[b, a] = -2.0 * math.cos(math.pi / m)
    return M


def make_orbifold(P, orders):
    """Validate orders against the ridge set and vertex ellipticity.

    ``orders`` maps ridge pairs to integers >= 2 and must cover the ridge set
    exactly.  Every vertex group has to be elliptic: the principal cosine
    matrix at each vertex must be positive definite.  For n = 3 this is
    1/a + 1/b + 1/c > 1, decided exactly as ab + bc + ca > abc; for n >= 4
    the smallest eigenvalue is tested against ELLIPTIC_EIG_TOL.
    """
    normalized = {}
    for (i, j), m in dict(orders).items():
        key = _pair(int(i), int(j))
        if key not in P.ridges:
            raise OrbifoldError(f"order given for non-ridge pair {key}")
        if key in normalized:
            raise OrbifoldError(f"duplicate order for ridge {key}")
        if not float(m).is_integer() or int(m) < 2:
            raise OrbifoldError(f"ridge {key} has order {m}; need an integer >= 2")
        normalized[key] = int(m)
    missing = set(P.ridges) - set(normalized)
    if missing:
        raise OrbifoldError(f"missing orders for ridges {sorted(missing)}")
    Q = CoxeterOrbifold(P, normalized)
    if P.vertices is not None and P.n == 3:
        for V in P.vertices:
            orders = _vertex_orders(Q, V)
            if reciprocal_sum_sign(orders, 1) <= 0:
                raise OrbifoldError(
                    f"vertex {sorted(V)} is not elliptic "
                    f"({' + '.join(f'1/{m}' for m in orders)} <= 1)")
    elif P.vertices is not None:
        import numpy as np

        for V in P.vertices:
            M = vertex_cosine_matrix(Q, V)
            lam = np.linalg.eigvalsh(M)[0]
            if lam <= ELLIPTIC_EIG_TOL * np.linalg.norm(M):
                raise OrbifoldError(
                    f"vertex {sorted(V)} is not elliptic "
                    f"(smallest cosine-matrix eigenvalue {lam:.3e})")
    return Q


def counts(Q):
    e2 = len(Q.e2_pairs())
    e = Q.base.e
    return OrbifoldCounts(f=Q.f, e=e, e2=e2, eplus=e - e2,
                          N=Q.f + e + e2, delta=pt.delta_invariant(Q.base))


# -- weak orderability --------------------------------------------------------

@dataclass
class WeakOrdering:
    """Facet order (position 0 gets index 1) with per-facet qualifying sets
    F_i = higher-indexed order-2 neighbors, and their general-position status
    ('unknown', 'verified' or 'failed'; trivially verified when empty)."""

    order: tuple
    qualifying: dict
    general_position: dict

    def __bool__(self):
        return True

    def index(self, facet):
        return self.order.index(facet) + 1


@dataclass
class WeakOrderFailure:
    """Certificate of failure: a facet subset in which every member has more
    than n order-2 ridges to the other members."""

    certificate: frozenset
    reason: str = "stuck"

    def __bool__(self):
        return False


def bitmask_adjacency(ids, pairs):
    """Neighbour bitmasks of the graph on ``ids`` with edge list ``pairs``;
    bit k stands for ``ids[k]``."""
    pos = {i: k for k, i in enumerate(ids)}
    adj = [0] * len(ids)
    for i, j in pairs:
        adj[pos[i]] |= 1 << pos[j]
        adj[pos[j]] |= 1 << pos[i]
    return tuple(adj)


def ids_of(ids, mask):
    """The items of ``ids`` whose bits are set in ``mask``, in order."""
    return tuple(i for k, i in enumerate(ids) if mask >> k & 1)


def greedy_peel(adj, n):
    """Greedy weak-order peel on bitmask adjacency, lowest index first: an
    item may go when at most n of its neighbours remain.  A degeneracy
    computation, so greedy is complete.  Returns the removal order as pairs
    (index, bitmask of neighbours still present) and the bitmask left when
    stuck (0 on success), each of whose items has > n neighbours inside it."""
    remaining = (1 << len(adj)) - 1
    order = []
    while remaining:
        k = next((k for k in range(len(adj)) if remaining >> k & 1
                  and (adj[k] & remaining).bit_count() <= n), None)
        if k is None:
            return order, remaining
        order.append((k, adj[k] & remaining))
        remaining ^= 1 << k
    return order, 0


def weak_order_combinatorial(Q):
    """Greedy peel on the order-2 ridge graph, lowest facet id first; the
    qualifying set of a facet is its order-2 neighbours peeled after it."""
    order, stuck = greedy_peel(Q.order2_adj, Q.n)
    if stuck:
        return WeakOrderFailure(frozenset(ids_of(Q.ids, stuck)))
    qualifying = {Q.ids[k]: ids_of(Q.ids, later) for k, later in order}
    order = tuple(Q.ids[k] for k, _ in order)
    status = {i: ("verified" if not qualifying[i] else "unknown") for i in order}
    return WeakOrdering(order, qualifying, status)


def check_weak_ordering(Q, ordering):
    """Independent validator: every facet has <= n order-2 ridges to
    higher-indexed facets under the given facet order."""
    pos = {facet: k for k, facet in enumerate(ordering)}
    if sorted(ordering) != sorted(Q.base.facets):
        return False
    for i in Q.base.facets:
        later = [j for j in Q.order2_neighbors(i) if pos[j] > pos[i]]
        if len(later) > Q.n:
            return False
    return True


def weak_order_geometric(Q, alphas):
    """Weak ordering whose qualifying sets are in general position.

    ``alphas`` maps facet ids to covectors (rows of length n+1) from a
    realization.  For n = 3 general position is automatic, so the greedy
    ordering is returned with every set marked verified.  For n >= 4 the
    search backtracks over admissible greedy choices, testing each qualifying
    set for full numerical rank under ``numerics.DEFAULT_RANK_POLICY`` as it
    is formed.
    """
    import numpy as np

    from coxdeform.numerics import numerical_rank

    if alphas is None:
        raise OrbifoldError("weak_order_geometric needs a realization")
    alphas = {i: np.asarray(a, dtype=float).ravel() for i, a in dict(alphas).items()}
    if set(alphas) != set(Q.base.facets):
        raise OrbifoldError("realization does not cover the facet set")
    n = Q.n

    if n == 3:
        result = weak_order_combinatorial(Q)
        if not result:
            return result
        result.general_position = {i: "verified" for i in result.order}
        return result

    def in_general_position(facets):
        if not facets:
            return True
        M = np.array([alphas[j] for j in facets])
        return numerical_rank(M).rank == len(facets)

    deepest = [set(Q.base.facets)]

    def search(remaining, order, qualifying):
        if not remaining:
            return WeakOrdering(tuple(order), dict(qualifying),
                                {i: "verified" for i in order})
        if len(remaining) < len(deepest[0]):
            deepest[0] = set(remaining)
        for i in sorted(remaining):
            nbrs = [j for j in Q.order2_neighbors(i) if j in remaining]
            if len(nbrs) > n or not in_general_position(nbrs):
                continue
            qualifying[i] = tuple(nbrs)
            remaining.remove(i)
            found = search(remaining, order + [i], qualifying)
            if found:
                return found
            remaining.add(i)
            del qualifying[i]
        return None

    found = search(set(Q.base.facets), [], {})
    if found:
        return found
    return WeakOrderFailure(frozenset(deepest[0]), reason="no ordering in general position")


# -- Andreev-type necessary conditions (n = 3) -------------------------------

@dataclass
class AndreevReport:
    vertex_violations: list = field(default_factory=list)
    circuit3_violations: list = field(default_factory=list)
    circuit4_violations: list = field(default_factory=list)
    is_tetrahedron: bool = False

    @property
    def passed(self):
        return not (self.vertex_violations or self.circuit3_violations
                    or self.circuit4_violations)


def andreev_necessary_check(Q):
    """Necessary inequalities for a compact hyperbolic realization, n = 3:
    angle sum > pi at every vertex, < pi around every prismatic 3-circuit,
    < 2 pi around every prismatic 4-circuit.  The tetrahedron case is only
    flagged (these conditions do not govern the simplex)."""
    if Q.n != 3:
        raise OrbifoldError("Andreev conditions apply to n=3")
    report = AndreevReport(is_tetrahedron=(Q.f == 4))
    for V in Q.base.vertices:
        orders = _vertex_orders(Q, V)
        if reciprocal_sum_sign(orders, 1) <= 0:
            report.vertex_violations.append((tuple(sorted(V)), _angle_sum(orders)))
    for k, bound, violations in ((3, 1, report.circuit3_violations),
                                 (4, 2, report.circuit4_violations)):
        for circuit in Q.base.prismatic(k):
            orders = [Q.order(circuit[t], circuit[(t + 1) % k]) for t in range(k)]
            if reciprocal_sum_sign(orders, bound) >= 0:
                violations.append((circuit, _angle_sum(orders)))
    return report


def _angle_sum(orders):
    """The angle sum pi/m over ``orders`` in units of pi, as a float (the
    value printed with a violation; the verdict is exact)."""
    return sum(1.0 / m for m in orders)
