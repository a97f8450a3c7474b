"""Matching combinatorics on cubic polytope graphs and weak-orderability
statistics.

The 1-skeleton of a simple 3-polytope is a simple planar 3-connected cubic
graph; edges carry labels in {0, 1} with an odd sum at every vertex (a factor
indicator plus a cycle-space element).  The module finds factors through a
required edge, lists removable edges, runs the constructive weak-ordering
induction on the facet graph (delete a removable edge of a face with few
0-edges, order the smaller graph, put the face first), builds orbifolds from
factors, and counts or estimates the share of weakly orderable orbifolds
among valid ones up to an order bound: exactly, as a sum over the sets of
order-2 edges, or by uniform Monte Carlo sampling.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np

from coxdeform import orbifold as ob
from coxdeform import polytope as pt
from coxdeform.errors import GraphConditionError
from coxdeform.polytope import _pair

EXACT_EDGE_LIMIT = 18
# rows drawn (Monte Carlo) or decided (exact) at once; Monte Carlo rejection
# round cap, and the acceptance rate below which sampling is refused once
# enough attempts are made
MC_ROW_CHUNK = 4096
MC_MAX_ROUNDS = 24
MC_MIN_ACCEPTANCE = 1e-3
MC_RATE_PILOT = 20000
# the sampler's DP tables grow as 4^width in the width of its boundary; a
# plan above this many bytes is refused before any table is allocated
SAMPLER_TABLE_BUDGET = 512 * 2 ** 20
WILSON_Z = 1.959963984540054  # normal 97.5% quantile: 95% Wilson intervals


# -- labelings ----------------------------------------------------------------

class EdgeLabeledGraph:
    """A polytope 1-skeleton with a {0,1} edge labeling of odd vertex sums."""

    def __init__(self, base, labels):
        if base.n != 3:
            raise GraphConditionError("edge labelings live on 3-polytope skeletons")
        self.base = base
        self.labels = {_pair(i, j): int(v) for (i, j), v in dict(labels).items()}
        if set(self.labels) != set(base.ridges):
            raise GraphConditionError("labels must cover the edge set exactly")
        if any(v not in (0, 1) for v in self.labels.values()):
            raise GraphConditionError("labels must be 0 or 1")
        for V in base.vertices:
            if vertex_label_sum(base, self.labels, V) % 2 != 1:
                raise GraphConditionError(f"vertex {sorted(V)} has even label sum")


def vertex_label_sum(P, labels, vertex):
    V = sorted(vertex)
    return sum(labels[_pair(V[a], V[b])]
               for a in range(3) for b in range(a + 1, 3))


def labels_from_factor(P, factor):
    """Label factor edges 1 and the rest 0; satisfies the odd-sum condition."""
    factor = {_pair(*e) for e in factor}
    return {r: (1 if r in factor else 0) for r in P.ridges}


# -- factors (perfect matchings) -----------------------------------------------

def is_factor(P, edges):
    """Independent predicate: spanning and regular of degree 1."""
    edges = [_pair(*e) for e in edges]
    if any(e not in P.ridges for e in edges):
        return False
    covered = []
    for e in edges:
        covered.extend(P.ridge_endpoints(e))
    return sorted(covered) == list(range(len(P.vertices)))


def find_factor(P, edge):
    """A perfect matching of the skeleton containing ``edge``.

    The edge is forced by deleting its endpoints and matching the rest with
    :func:`_maximum_matching`.  Existence is guaranteed on 3-connected cubic
    graphs, so a miss signals a bug or bad input.
    """
    edge = _pair(*edge)
    if edge not in P.ridges:
        raise GraphConditionError(f"{edge} is not an edge")
    if P.n != 3:
        raise GraphConditionError("factors live on 3-polytope skeletons")
    nv = len(P.vertices)
    if nv % 2 != 0:
        raise GraphConditionError("odd vertex count")
    # Neighbour lists in a fixed order: the ridges in ``P.ridges`` order at
    # both ends, then the smaller neighbours moved to the front in increasing
    # order (the order that decides which factor the search returns).
    later = [[] for _ in range(nv)]
    for r in P.ridges:
        a, b = P.ridge_endpoints(r)
        later[a].append(b)
        later[b].append(a)
    adj = [sorted(x for x in ws if x < a) + [x for x in ws if x > a]
           for a, ws in enumerate(later)]
    u, v = P.ridge_endpoints(edge)
    for w in (u, v):
        for x in adj[w]:
            adj[x].remove(w)
        adj[w] = None
    nodes = [w for w in range(nv) if adj[w] is not None]
    mate = _maximum_matching(nodes, adj)
    if len(mate) != len(nodes):
        raise GraphConditionError(
            "no perfect matching found; input violates the preconditions")
    # two adjacent vertices of a simple 3-polytope share exactly their ridge
    result = sorted([edge] + [tuple(sorted(P.vertices[a] & P.vertices[b]))
                              for a, b in mate.items() if a < b])
    if not is_factor(P, result):
        raise GraphConditionError("matching verification failed")
    return result


class _Blossom:
    """An odd cycle of sub-blossoms, contracted during one search stage.

    ``childs`` starts at the sub-blossom holding the base vertex ``base`` and
    goes round the cycle; ``edges[k]`` joins a vertex of ``childs[k]`` to one
    of ``childs[k + 1]``."""

    __slots__ = ("childs", "edges", "base")

    def leaves(self):
        stack = list(self.childs)
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def _maximum_matching(nodes, adj):
    """A maximum-cardinality matching by Edmonds' blossom search (Edmonds
    1965, "Paths, trees, and flowers"), as ``{vertex: mate}``.

    Each stage labels every single vertex S in ``nodes`` order, takes
    S-vertices last in first out, scans neighbours in ``adj`` order, and ends
    at the first augmenting path, when every blossom is dissolved.  This is
    the search order of the primal-dual weighted matcher with unit weights:
    every edge stays tight until the matching is maximum, so no dual update
    or T-blossom expansion ever happens.  The search stops at the first
    stage that finds no augmenting path.
    """
    mate = {}
    inblossom = {w: w for w in nodes}
    label, labeledge, parent, queue = {}, {}, {}, []

    def reach(w, v):
        # w is unlabelled, reached from the S-vertex v.  Blossoms are formed
        # labelled S out of labelled vertices, so neither w nor its mate lies
        # in one: w becomes T and its mate S.
        x = mate[w]
        label[w], labeledge[w] = 2, (v, w)
        label[x], labeledge[x] = 1, (w, x)
        queue.append(x)

    def base(b):
        return b.base if isinstance(b, _Blossom) else b

    def scan_blossom(v, w):
        # walk back from v and w alternately; the first blossom met twice
        # is the base of a new blossom, none means an augmenting path
        path, found = [], None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                found = base(b)
                break
            path.append(b)
            label[b] = 5
            # a step back over an S-blossom and the T-vertex it was reached from
            v = None if labeledge[b] is None else labeledge[labeledge[b][0]][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(stem, v, w):
        bb, bv, bw = inblossom[stem], inblossom[v], inblossom[w]
        b = _Blossom()
        b.base = stem
        parent[bb] = b
        b.childs = path = []
        b.edges = edges = [(v, w)]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edges.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edges.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            edges.append((labeledge[bw][1], labeledge[bw][0]))
            bw = inblossom[labeledge[bw][0]]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        for x in b.leaves():
            if label[inblossom[x]] == 2:
                queue.append(x)
            inblossom[x] = b

    def augment_blossom(b, v):
        # make v the base of b, swapping matched and unmatched edges on
        # the even path round b; nested blossoms through an explicit stack
        def rotate(b, v):
            t = v
            while parent[t] is not b:
                t = parent[t]
            if isinstance(t, _Blossom):
                yield t, v
            i = j = b.childs.index(t)
            if i & 1:
                j -= len(b.childs)
                step = 1
            else:
                step = -1
            while j != 0:
                j += step
                t = b.childs[j]
                w, x = b.edges[j] if step == 1 else b.edges[j - 1][::-1]
                if isinstance(t, _Blossom):
                    yield t, w
                j += step
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield t, x
                mate[w] = x
                mate[x] = w
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            b.base = base(b.childs[0])

        stack = [rotate(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(rotate(*args))
                break
            else:
                stack.pop()

    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                s, j = labeledge[labeledge[bs][0]]
                mate[j] = s

    while True:
        for v in nodes:
            if v not in mate:
                label[v], labeledge[v] = 1, None
                queue.append(v)
        augmented = formed = False
        while queue and not augmented:
            v = queue.pop()
            for w in adj[v]:
                bv, bw = inblossom[v], inblossom[w]
                if bv == bw:
                    continue
                t = label.get(bw)
                if t is None:
                    reach(w, v)
                elif t == 1:
                    stem = scan_blossom(v, w)
                    if stem is not None:
                        add_blossom(stem, v, w)
                        formed = True
                    else:
                        augment_matching(v, w)
                        augmented = True
                        break
        if not augmented:
            return mate
        if formed:
            inblossom.update((w, w) for w in nodes)
        for table in (label, labeledge, parent):
            table.clear()
        queue.clear()


# -- removability ----------------------------------------------------------------

def removable_edges(P, face):
    """Edges of a face whose deletion keeps the graph simple, planar and
    3-connected, in boundary order.  Deleting ridge (F, G) contracts the
    edge FG of the facet graph, a triangulation; the result is again a
    simple triangulation exactly when F and G have no common neighbours but
    the two at the ridge's ends (FG lies on no separating triangle).  At
    least two on any face once the graph has more than 6 edges; asserted."""
    if P.e <= 6:
        raise GraphConditionError("graph too small (need more than 6 edges)")
    out = [r for r in P.face_boundary(face) if len(P.nbrs[r[0]] & P.nbrs[r[1]]) == 2]
    assert len(out) >= 2, f"face {face} has fewer than two removable edges"
    return out


# -- constructive weak ordering ---------------------------------------------------

def validate_face_order(P, labels, ordering):
    """Every face has at most three 0-edges shared with higher-indexed faces."""
    Q = ob.CoxeterOrbifold(P, {r: (2 if labels[r] == 0 else 3) for r in P.ridges})
    return ob.check_weak_ordering(Q, ordering)


def construct_weak_order(P, labels):
    """Face ordering with at most three 0-edges into later faces, built by
    the deletion induction on copies of the facet neighbour sets and labels.

    Take the lowest face F with at most three 0-edges and a removable edge
    (F, G), G its lowest such neighbour (see :func:`removable_edges`).  If
    the edge is labeled 0, flip every label on F's boundary (vertex sums
    stay odd); by parity the pairs at the edge's ends then carry equal
    labels.  Delete the edge by merging F into G, order the smaller graph
    and put F first.  The result is validated independently before
    returning.

    On four faces any ordering works (each face has only three edges), so the
    odd-sum condition is not required there.
    """
    if P.f == 4:
        work = {_pair(i, j): int(v) for (i, j), v in dict(labels).items()}
        if set(work) != set(P.ridges):
            raise GraphConditionError("labels must cover the edge set exactly")
    else:
        work = dict(EdgeLabeledGraph(P, labels).labels)
    nbrs = {i: set(js) for i, js in P.nbrs.items()}
    ordering = []
    while len(nbrs) > 4:
        F, G = _deletion_step(nbrs, work)
        if work[_pair(F, G)] == 0:
            for j in nbrs[F]:
                work[_pair(F, j)] ^= 1
        for j in nbrs.pop(F):
            nbrs[j].discard(F)
            label = work.pop(_pair(F, j))
            if j != G:  # at the two common neighbours the labels agree
                nbrs[G].add(j)
                nbrs[j].add(G)
                work[_pair(G, j)] = label
        ordering.append(F)
    ordering = tuple(ordering) + tuple(sorted(nbrs))
    if not validate_face_order(P, labels, ordering):
        raise GraphConditionError("constructed ordering failed validation")
    return ordering


def _deletion_step(nbrs, labels):
    """The faces (F, G) of the next step of :func:`construct_weak_order`."""
    for F in sorted(nbrs):
        if sum(labels[_pair(F, j)] == 0 for j in nbrs[F]) > 3:
            continue
        for G in sorted(nbrs[F]):
            if len(nbrs[F] & nbrs[G]) == 2:
                return F, G
    raise GraphConditionError("no face with at most three 0-edges had a usable edge")


# -- orbifolds from factors --------------------------------------------------------

def orbifold_from_factor(P, factor, k):
    """Orders 2 off the matching and k >= 3 on it.

    Requires no prismatic 3-circuit and at most one prismatic 4-circuit; when
    one exists the factor must cross it.  The result passes the Andreev-type
    necessary conditions by construction (verified)."""
    if k < 3:
        raise GraphConditionError("matching order must be >= 3")
    factor = [_pair(*e) for e in factor]
    if not is_factor(P, factor):
        raise GraphConditionError("not a factor of the skeleton")
    if P.prismatic(3):
        raise GraphConditionError("polytope has a prismatic 3-circuit")
    circuits4 = P.prismatic(4)
    if len(circuits4) > 1:
        raise GraphConditionError("polytope has more than one prismatic 4-circuit")
    if circuits4:
        crossed = {_pair(circuits4[0][t], circuits4[0][(t + 1) % 4]) for t in range(4)}
        if not crossed & set(factor):
            raise GraphConditionError("factor misses the prismatic 4-circuit")
    orders = {r: (k if r in set(factor) else 2) for r in P.ridges}
    Q = ob.make_orbifold(P, orders)
    report = ob.andreev_necessary_check(Q)
    if not report.passed:
        raise GraphConditionError(f"Andreev-type check failed: {report}")
    return Q


# -- statistics ---------------------------------------------------------------------

class StatsReport(NamedTuple):
    polytope: str
    d: int
    mode: str
    valid_count: int
    wo_count: int
    fraction: float | None  # None when there is no valid assignment
    ci_low: float | None
    ci_high: float | None
    nj: dict
    seed: int = None
    samples: int = None
    attempts: int = None
    acceptance_rate: float = None
    identity_checked: bool = False
    identity_holds: bool = None
    note: str = ("labeled order assignments; validity is the Andreev-type "
                 "necessary conditions of this package")


def _wilson_interval(successes, total):
    """The Wilson score interval of successes / total, for total >= 1."""
    z = WILSON_Z
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return phat, min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


class _AssignmentModel:
    """Edge indexing, circuit tests and weak-orderability verdicts for order
    assignments on one 3-polytope; both tests give one verdict per row."""

    def __init__(self, P, d):
        if P.n != 3:
            raise GraphConditionError(
                f"weak-orderability statistics need a 3-polytope, got n = {P.n}")
        if d < 2:
            raise GraphConditionError("order bound d must be >= 2")
        self.P = P
        self.d = d
        self.edges = sorted(P.ridges)
        self.edge_pos = {r: t for t, r in enumerate(self.edges)}
        self.ids = tuple(sorted(P.facets))
        self.vertex_triples = []
        for V in P.vertices:
            Vs = sorted(V)
            self.vertex_triples.append(tuple(
                self.edge_pos[_pair(Vs[a], Vs[b])]
                for a in range(3) for b in range(a + 1, 3)))
        self.c3 = [tuple(self.edge_pos[_pair(c[t], c[(t + 1) % 3])] for t in range(3))
                   for c in P.prismatic(3)]
        self.c4 = [tuple(self.edge_pos[_pair(c[t], c[(t + 1) % 4])] for t in range(4))
                   for c in P.prismatic(4)]
        # the facet positions of each edge, and the e x f edge-facet incidence
        fpos = {i: k for k, i in enumerate(self.ids)}
        self.edge_facets = np.array([[fpos[i] for i in r] for r in self.edges]).T
        self.incidence = np.zeros((len(self.edges), len(self.ids)), dtype=np.float32)
        np.put_along_axis(self.incidence, self.edge_facets.T, 1.0, axis=1)

    def circuits_ok(self, orders):
        """Prismatic-circuit inequalities, one verdict per assignment along
        the last axis of ``orders``; each sum of 1/m runs in circuit order."""
        inv = 1.0 / np.asarray(orders, dtype=float)
        ok = np.ones(inv.shape[:-1], dtype=bool)
        for circuits, bound in ((self.c3, 1.0), (self.c4, 2.0)):
            for first, *rest in circuits:
                total = inv[..., first]
                for t in rest:
                    total = total + inv[..., t]
                ok &= total < bound
        return ok

    def weakly_orderable(self, order2):
        """Weak orderability, one verdict per row along the last axis of the
        boolean ``order2`` (True where edge t has order 2).

        The faces can be ordered with at most three order-2 edges from each
        face to later ones exactly when the facet graph on the order-2 edges
        has an empty 4-core.  All rows peel together: each round removes
        every live facet with at most three order-2 edges to live facets,
        until no row changes.  A round counts those edges for every row and
        facet at once as the product of the rows' live order-2 edges with the
        edge-facet incidence; each count is a sum of at most f ones, exact in
        float32.  The 4-core is unique, so the verdicts are those of the
        sequential ``polytope.greedy_peel``."""
        order2 = np.asarray(order2, dtype=bool)
        shape = order2.shape[:-1]
        z = order2.reshape(-1, len(self.edges))
        a, b = self.edge_facets
        live = np.ones((len(z), len(self.ids)), dtype=bool)
        rows = np.arange(len(z))
        while len(rows):
            lv = live[rows]
            on = z[rows] & lv[:, a] & lv[:, b]
            drop = lv & (on.astype(np.float32) @ self.incidence <= 3)
            lv &= ~drop
            live[rows] = lv
            # a row with no live facet left is decided
            rows = rows[drop.any(axis=1) & lv.any(axis=1)]
        return ~live.any(axis=1).reshape(shape)


def estimate_wo_fraction(P, d, mode="montecarlo", samples=10000, seed=0, name=None):
    """Share of weakly orderable orbifolds among valid order assignments on a
    3-polytope P (any other n is refused up front).

    Every edge takes an order in {2..d}; validity is the package's
    Andreev-type necessary conditions (vertex ellipticity plus prismatic
    circuit inequalities), without the triangular-prism condition of
    :func:`orbifold.andreev_necessary_check`: on ``prism(3)`` orbifolds with
    right-angled caps count as valid.  Exact mode sums, over every set Z of
    order-2 edges, the number of valid assignments with exactly those
    order-2 edges when Z is weakly orderable (2^e sets, refused beyond 18
    edges whatever d is).  It tabulates N_j(d), the number of valid
    assignments with exactly j edges of order >= 7; for d in {7, 8} it
    checks N_j(d) = N_j(7) * (d-6)^j against a d = 7 recount, which shares
    the count's d-free tables and returns N_j only.  The identity holds by
    construction, but the benchmark checks its fields until ROADMAP item 1a
    deletes the recount.  With no valid assignment the fraction and its
    interval are None.  Monte Carlo mode draws exactly uniform valid
    assignments in batches and reports a 95% Wilson interval.  Its
    dynamic-programming sampler (``_UniformValidSampler``) counts vertex-valid
    assignments over the order classes {2}, {3}, {4, 5} and {6..d}, weighted
    by their sizes, since vertex validity reads only the classes; it draws a
    class per edge from the exact conditionals, expands it to a uniform order
    of the class and rejects draws that fail a circuit inequality.  Sample i
    reads only the Philox stream keyed (seed, i), so it does not depend on
    the sample count.  Its orders are int64, so it refuses d above 2^62;
    exact mode counts in Python integers and takes any d.
    It refuses up front when no assignment can pass the circuit inequalities
    and stops with "circuit rejection rate too high" when fewer than
    MC_MIN_ACCEPTANCE of its draws pass them.  Both modes decide weak
    orderability for many order-2 edge sets at once, as an empty 4-core of
    the facet graph on those edges, peeled with one product by the
    edge-facet incidence per round (``_AssignmentModel.weakly_orderable``):
    Monte Carlo per batch of drawn rows, exact mode for the sets with a
    nonzero count, MC_ROW_CHUNK at a time.
    """
    name = name or f"f{P.f}-e{P.e}"
    if mode == "exact":
        return _exact_stats(P, d, name)
    if mode == "montecarlo":
        return _montecarlo_stats(P, d, samples, seed, name)
    raise GraphConditionError(f"unknown mode {mode!r}")


class _EdgeSetCounter:
    """Valid assignments with a given set Z of order-2 edges, by number of
    orders >= 7.

    Three orders >= 3 fail the vertex test, so Z must meet every vertex, and
    a prismatic 4-circuit fails exactly when all of its edges lie in Z.  The
    edges outside Z form paths and cycles, joined at the vertices with one
    Z-edge; there the two orders must satisfy 1/a + 1/b > 1/2, which leaves
    (3, 3), (3, 4), (3, 5) and their mirrors.  A path or cycle of two or more
    edges is therefore counted by a product of that 3x3 pair matrix, and only
    an isolated edge (two Z-edges at both ends) takes an order >= 6.  Orders
    >= 7 are interchangeable in every test, so they form one class of weight
    d - 6, represented by 7.  The non-2 edges of prismatic 3-circuits are
    pinned to each class in turn and the circuit test applied to them.

    ``memo`` holds the path counts and the passing class combinations, both
    free of d - 6, under the class list; one memo lasts one call of
    ``_exact_stats``, whose count at d = 8 and recount at d = 7 share it.
    """

    def __init__(self, model, memo=None):
        self.model = model
        d = model.d
        self.e = len(model.edges)
        self.classes = tuple(range(3, min(d, 7) + 1))
        self.big_weight = max(d - 6, 0)
        self.small = sum(c < 7 for c in self.classes)
        self.pair_classes = tuple(c for c in self.classes if c <= 5)
        k = len(self.pair_classes)
        self.pair = np.array([[2 * (a + b) > a * b for b in self.pair_classes]
                              for a in self.pair_classes],
                             dtype=np.int64).reshape(k, k)
        self.ends = [[] for _ in range(self.e)]
        self.others = {}
        for v, triple in enumerate(model.vertex_triples):
            for t in triple:
                self.ends[t].append(v)
                self.others[v, t] = tuple(s for s in triple if s != t)
        self.circuit_edges = {t for c in model.c3 for t in c}
        self.circuit_bits = _bits(self.circuit_edges)
        self._chains, self._passing = ({} if memo is None else memo).setdefault(
            self.classes, ({}, {}))

    def masks(self):
        """Order-2 edge sets that pass the tests reading Z alone: each
        vertex meets Z, no prismatic 4-circuit lies in Z, and no prismatic
        3-circuit has two or more edges in Z.

        The last holds for the float test ``circuits_ok`` as well as for
        exact sums: 1/2 is exact, fl(1/2 + 1/2) = 1.0 and rounding is
        monotone, so a circuit sum with two terms 1/2 and a third term
        1/m > 0 comes to at least 1.0 in any summation order and fails
        ``total < 1``.  Every set dropped here would count zero."""
        m = np.arange(1 << self.e, dtype=np.int64)
        keep = np.ones(len(m), dtype=bool)
        for triple in self.model.vertex_triples:
            keep &= (m & _bits(triple)) != 0
        for c in self.model.c4:
            keep &= (m & _bits(c)) != _bits(c)
        for c in self.model.c3:
            for pair in itertools.combinations(c, 2):
                keep &= (m & _bits(pair)) != _bits(pair)
        return np.flatnonzero(keep).tolist()

    def _step(self, mask, t, v):
        """The non-2 edge continuing t through v, when v has one Z-edge."""
        a, b = self.others[v, t]
        if (mask >> a & 1) == (mask >> b & 1):
            return None
        return b if mask >> a & 1 else a

    def _far(self, t, v):
        u, w = self.ends[t]
        return w if u == v else u

    def _components(self, mask):
        """Maximal paths and cycles of non-2 edges as (edges, closed)."""
        seen = mask
        for t in range(self.e):
            if seen >> t & 1:
                continue
            # rewind to an end of the path; meeting t again closes a cycle
            s, v = t, self.ends[t][0]
            while (n := self._step(mask, s, v)) is not None and n != t:
                s, v = n, self._far(n, v)
            comp = [s]
            w = self._far(s, v)
            while (n := self._step(mask, comp[-1], w)) is not None and n != s:
                comp.append(n)
                w = self._far(n, w)
            for x in comp:
                seen |= 1 << x
            yield tuple(comp), n == s

    def _chain_count(self, shape, key):
        """(count, big) of a path or cycle of ``shape`` = (edges, closed,
        pinned positions) with those edges in the classes ``key``, memoized.
        An isolated edge counts 1, with big = 1 at class 7 (the caller
        applies its weight d - 6); longer ones take orders in 3..5 with
        every consecutive pair allowed."""
        table = self._chains.setdefault(shape, {})
        got = table.get(key)
        if got is None:
            length, closed, at = shape
            if length == 1:
                got = 1, int(key[0] == 7)
            else:
                pins = dict(zip(at, key))
                diags = [np.array([pins.get(i, c) == c for c in self.pair_classes],
                                  dtype=np.int64) for i in range(length)]
                x = np.diag(diags[0]) if closed else diags[0]
                for dg in diags[1:]:
                    x = (x @ self.pair) * dg
                got = int(np.trace(x @ self.pair)) if closed else int(x.sum()), 0
            table[key] = got
        return got

    def counts(self, mask):
        """{j: valid assignments whose order-2 edges are exactly ``mask``
        and which have j orders >= 7}."""
        const, free, pinned = 1, 0, []
        for comp, closed in self._components(mask):
            if self.circuit_edges.intersection(comp):
                pinned.append((comp, closed))
            elif len(comp) == 1:
                free += 1
            else:
                const *= self._chain_count((len(comp), closed, ()), ())[0]
        if not const:
            return {}
        out = {}
        for big, n in self._pinned_counts(mask, pinned).items():
            for j in range(free + 1):
                out[big + j] = out.get(big + j, 0) + (
                    const * n * math.comb(free, j)
                    * self.small ** (free - j) * self.big_weight ** (big + j))
        return out

    def _pinned_counts(self, mask, pinned):
        """{big: count} over the classes of the non-2 circuit edges that pass
        the circuit tests; ``big`` counts the pinned edges of order >= 7,
        whose weights the count leaves out.  The pins are listed path by
        path, so each path reads its classes as one slice of a passing
        combination and looks its count up by that slice in the table of
        its shape."""
        pins, choices, parts = [], [], []
        for comp, closed in pinned:
            at = tuple(i for i, t in enumerate(comp) if t in self.circuit_edges)
            shape = (len(comp), closed, at)
            parts.append((slice(len(pins), len(pins) + len(at)),
                          self._chains.setdefault(shape, {}), shape))
            pins += [comp[i] for i in at]
            choices += [self.classes if len(comp) == 1 else self.pair_classes] * len(at)
        out = {}
        for combo in self._passing_combos(mask, tuple(pins), tuple(choices)):
            n, big = 1, 0
            for part, table, shape in parts:
                key = combo[part]
                got = table.get(key) or self._chain_count(shape, key)
                n *= got[0]
                big += got[1]
            if n:
                out[big] = out.get(big, 0) + n
        return out

    def _passing_combos(self, mask, pins, choices):
        """The class combinations of ``pins`` that pass the circuit tests.
        A 4-circuit with an edge outside Z always passes and ``masks`` admits
        no other, so the verdicts read only the 3-circuit edges: memoized on
        those in Z, the pins and their choices."""
        key = (mask & self.circuit_bits, pins, choices)
        combos = self._passing.get(key)
        if combos is None:
            combos = list(itertools.product(*choices))
            orders = np.tile(np.where([mask >> t & 1 for t in range(self.e)], 2, 3),
                             (len(combos), 1))
            orders[:, list(pins)] = np.reshape(combos, (len(combos), len(pins)))
            # the sampler's floating-point test, so both modes agree on
            # circuits whose sum is 1 up to rounding
            ok = self.model.circuits_ok(orders).tolist()
            combos = [c for c, good in zip(combos, ok) if good]
            self._passing[key] = combos
        return combos


def _bits(edge_ids):
    return sum(1 << t for t in edge_ids)


def _edge_set_counts(P, d, memo=None):
    """(model, the order-2 edge sets Z with a nonzero count, their counts,
    N_j), with N_j the sum of C_j(Z); see ``_EdgeSetCounter``."""
    model = _AssignmentModel(P, d)
    e = len(model.edges)
    if e > EXACT_EDGE_LIMIT:
        raise GraphConditionError(
            f"exact enumeration refused: 2^{e} order-2 edge sets exceeds the "
            f"limit of 2^{EXACT_EDGE_LIMIT}")
    counter = _EdgeSetCounter(model, memo)
    masks, totals = [], []
    nj = [0] * (e + 1)
    for mask in counter.masks():
        counts = counter.counts(mask)
        total = sum(counts.values())
        if not total:
            continue
        masks.append(mask)
        totals.append(total)
        for j, n in counts.items():
            nj[j] += n
    return model, masks, totals, nj


def _exact_counts(P, d, memo=None):
    """(valid, weakly orderable, N_j) as a sum of WO(Z) * C_j(Z) over the
    order-2 edge sets Z."""
    model, masks, totals, nj = _edge_set_counts(P, d, memo)
    e = len(model.edges)
    wo = 0
    for start in range(0, len(masks), MC_ROW_CHUNK):
        chunk = np.array(masks[start:start + MC_ROW_CHUNK], dtype=np.int64)
        ok = model.weakly_orderable((chunk[:, None] >> np.arange(e)) & 1)
        wo += sum(itertools.compress(totals[start:start + MC_ROW_CHUNK], ok.tolist()))
    return sum(totals), wo, nj


def _exact_stats(P, d, name):
    memo = {}
    valid, wo, nj = _exact_counts(P, d, memo)
    fraction = wo / valid if valid else None
    holds = None
    if d in (7, 8):
        nj7 = nj if d == 7 else _edge_set_counts(P, 7, memo)[3]
        holds = bool(all(int(nj[j]) == int(nj7[j]) * (d - 6) ** j for j in range(len(nj))))
    return StatsReport(polytope=name, d=d, mode="exact", valid_count=valid,
                       wo_count=wo, fraction=fraction, ci_low=fraction,
                       ci_high=fraction,
                       nj={j: int(c) for j, c in enumerate(nj) if c},
                       identity_checked=holds is not None, identity_holds=holds)


class _Step(NamedTuple):
    """One vertex of the elimination order: the boundary slots of its edges
    already open, the slots that stay open, and the positions of the edges
    it opens (appended to the boundary in this order)."""
    arr: tuple
    keep: tuple
    new: tuple


class _StepTables(NamedTuple):
    """What the draw reads at one step: the weighted vertex kernel
    (new x arriving) and ``counts[t + 1]`` (new x kept), then the positions
    of the arriving edges and of the kept edges, each with the place values
    that turn their classes into a column of its table."""
    kernel: np.ndarray
    counts: np.ndarray
    arr: np.ndarray
    arr_value: np.ndarray
    keep: np.ndarray
    keep_value: np.ndarray


def _places(boundary, slots, powers):
    """The edges of ``boundary`` in ``slots``, and as their place values the
    last ``len(slots)`` of the descending ``powers``: the first slot is the
    most significant digit."""
    return (np.array([boundary[s] for s in slots], dtype=np.intp),
            powers[len(powers) - len(slots):])


def _code(cls, edges, values):
    """The place-value code of ``edges``' classes in each column of the
    class-major ``cls``."""
    if len(edges) == 1:
        return cls[edges[0]]
    return values @ cls[edges]


class _UniformValidSampler:
    """Exactly uniform sampling of valid order assignments, drawn in batches.

    Rejection from the product distribution is hopeless here (nearly every
    vertex needs an order-2 edge), so vertex-valid assignments are counted by
    a backward dynamic program over a vertex elimination order and sampled
    forward from the exact conditionals.  The DP runs over the order classes
    {2}, {3}, {4, 5} and {6..d}, each cut to 2..d, with weight its size (1,
    1, 2 and d - 5): three classes at d = 5, {2}, {3}, {4} at d = 4, four at
    d >= 6.  In the integer form of the vertex test, ab + bc + ca > abc, the
    valid triples other than (2, 2, c) are (2, 3, 3), (2, 3, 4) and
    (2, 3, 5), so vertex validity depends only on the classes of the three
    orders.  A class vector is therefore drawn with probability proportional
    to the product of its class sizes over the vertex-valid class vectors,
    and each order is then drawn uniformly within its class: every
    vertex-valid assignment is equally likely.  The prismatic-circuit
    conditions, which do tell 4 from 5, are then applied to the expanded
    orders by rejection, which preserves exact uniformity over the valid set.

    ``counts[t]`` holds the weighted number of vertex-valid completions from
    step t, given the classes of the edges open before it.  Each table is
    stored in the order the draw reads it.  For t >= 1, ``counts[t]`` is a
    (k^n x k^m) matrix over the n slots step t - 1 opened and the m slots it
    kept: its row is the classes of the opened slots and its column those of
    the kept slots, each read as base-k digits in slot order, the first
    most significant.  ``counts[0]`` is 0-d, since no edge is open before
    step 0, and ``counts[len(steps)]`` is [[1]].  The weighted vertex kernel
    of a step is (new x arriving) in the same way, its rows the classes of
    the edges the step opens; one kernel serves every step that opens as
    many edges.  Each step is one contraction, kernel.T @ ``counts[t + 1]``,
    whose (arriving x kept) result one permuting copy writes in the order
    step t - 1 reads.  The counts are
    float64: they set the sampling probabilities and are exact while they
    stay below 2^53.  A table whose largest entry passes 2^512 is scaled by
    a power of two, which is exact and leaves every conditional unchanged,
    so float64 does not overflow on large polytopes at large d;
    ``count_exponent`` sums the scales.
    A plan whose tables exceed ``SAMPLER_TABLE_BUDGET`` raises
    GraphConditionError before any table is built.

    ``draw`` moves every row through the steps together, class-major: the
    classes of the open edges, each step's weights and their running sums
    are (classes x rows) arrays, so the running sum over a step's new
    classes is one contiguous row addition per class and the pick is a sum
    over axis 0.  The fixed cost is the plan, O(V (log V + w)) for V
    vertices and boundary width w (:meth:`_plan_steps`), and the tables.
    Per sample, ``draw`` reloads one Philox's key and counter in place
    (:meth:`stream`) and writes its uniforms into one array per round.
    """

    def __init__(self, model):
        self.model = model
        d = model.d
        # the lowest order and the size of each class {2}, {3}, {4, 5}, {6..d}
        low, high = np.array([2, 3, 4, 6]), np.minimum([2, 3, 5, d], d)
        self.class_low = low[low <= d]
        self.class_size = high[low <= d] - self.class_low + 1
        self.nclasses = len(self.class_low)
        a, b, c = np.ix_(self.class_low, self.class_low, self.class_low)
        self.class_ok = a * b + b * c + c * a > a * b * c
        self.steps = self._plan_steps(model.vertex_triples)
        # uniforms per attempt: one per step, one per edge to expand its
        # class, padded to whole Philox blocks of four
        self.block = -(-(len(self.steps) + len(model.edges)) // 4) * 4
        width = max((len(arr) + len(keep) for arr, keep, _ in self.steps), default=0)
        size = self.table_bytes(self.steps, self.nclasses)
        if size > SAMPLER_TABLE_BUDGET:
            raise GraphConditionError(
                f"sampler refused: its DP boundary is {width} edges wide and its tables "
                f"would take {size / 2 ** 20:.0f} MiB, over the budget of "
                f"{SAMPLER_TABLE_BUDGET / 2 ** 20:.0f} MiB")
        self.counts, self.tables, self.count_exponent = self._backward_counts()

    @staticmethod
    def _plan_steps(triples):
        """The ``_Step`` of each vertex, given by its ``triples`` of edge
        positions, in a greedy elimination order that keeps the open-edge
        boundary small: next comes the vertex with the most open edges,
        lowest index first.

        A vertex's count of open edges only grows, by one at the far end of
        each edge its neighbour opens, so the counts live in a heap keyed
        (-open, index) that gets a fresh entry at each such growth.  A
        vertex's freshest entry has its lowest key and pops first; the
        stale ones pop after it and are skipped.
        With V vertices and boundary width w that is O(V (log V + w)), not
        the O(V^2) of rescanning every remaining vertex at each step."""
        ends = {}  # edge -> the vertices it meets
        for v, triple in enumerate(triples):
            for t in triple:
                ends.setdefault(t, []).append(v)
        heap = [(0, v) for v in range(len(triples))]
        opened = [0] * len(triples)  # open edges at each vertex
        done = [False] * len(triples)
        steps = []
        boundary = []  # list of open edges, order = slot order
        slot = {}  # open edge -> its slot
        while heap:
            w = heapq.heappop(heap)[1]
            if done[w]:
                continue
            done[w] = True
            arr = tuple(slot[t] for t in triples[w] if t in slot)
            new = tuple(sorted(t for t in triples[w] if t not in slot))
            keep = tuple(s for s in range(len(boundary)) if s not in arr)
            steps.append(_Step(arr, keep, new))
            boundary = [boundary[s] for s in keep] + list(new)
            slot = {t: s for s, t in enumerate(boundary)}
            for t in new:
                for v in ends[t]:
                    if not done[v]:
                        opened[v] += 1
                        heapq.heappush(heap, (-opened[v], v))
        if boundary:
            raise GraphConditionError("elimination order left open edges")
        return steps

    @staticmethod
    def table_bytes(steps, k):
        """The bytes of the float64 tables :meth:`_backward_counts` keeps for
        ``steps`` and k classes: ``counts[t]``, k^w entries for the w slots
        open before step t, and one kernel per number of new slots, k^3
        entries over its arriving and new slots."""
        kernels = {len(new): k ** (len(arr) + len(new)) for arr, _, new in steps}
        cells = 1 + sum(k ** (len(arr) + len(keep)) for arr, keep, _ in steps)
        return 8 * (cells + sum(kernels.values()))

    def _backward_counts(self):
        """``counts[t]`` for every step in the layout above; per step the
        ``_StepTables`` the draw reads, whose place values follow the same
        layout; then the sum of the binary exponents the tables were scaled
        by."""
        k = self.nclasses
        counts = [None] * (len(self.steps) + 1)
        counts[-1] = np.ones((1, 1))
        tables = [None] * len(self.steps)
        # the edges and place values of each step's arriving and kept slots
        powers = k ** np.arange(max(len(arr) + len(keep) for arr, keep, _ in self.steps),
                                dtype=np.intp)[::-1]
        boundary, reads = [], []  # the open edges, slot by slot
        for arr, keep, new in self.steps:
            reads.append(_places(boundary, arr, powers) + _places(boundary, keep, powers))
            boundary = [boundary[s] for s in keep] + list(new)
        # every entry of counts[t] is below 2^bits: each new edge multiplies
        # the largest entry by at most d - 1, the classes' total weight
        exponent, bits = 0, 0.0
        kernels = {}  # the kernel of each number of new slots
        for t in range(len(self.steps) - 1, -1, -1):
            arr, keep, new = self.steps[t]
            kernel = kernels.get(len(new))
            if kernel is None:
                weight = np.ones(())
                for _ in new:
                    weight = np.multiply.outer(weight, self.class_size)
                # (new x arriving)
                kernel = (self.class_ok * weight).reshape(k ** len(arr), k ** len(new)).T.copy()
                kernels[len(new)] = kernel
            tables[t] = _StepTables(kernel, counts[t + 1], *reads[t])
            slots = arr + keep
            out = (kernel.T @ counts[t + 1]).reshape((k,) * len(slots))
            if t:
                # the slots step t - 1 opened, then those it kept
                kept = len(self.steps[t - 1].keep)
                axes = sorted(range(len(slots)), key=lambda a: (slots[a] - kept) % len(slots))
                counts[t] = out.transpose(axes).reshape(-1, k ** kept)
            else:
                counts[t] = out.reshape(())
            bits += len(new) * math.log2(self.model.d - 1)
            if bits > 512:  # far from overflow in the next step
                bits = math.frexp(counts[t].max())[1]
                if bits > 512:
                    counts[t] = np.ldexp(counts[t], -bits)
                    exponent, bits = exponent + bits, 0
        return counts, tables, exponent

    @property
    def vertex_valid_count(self):
        """The weighted number of vertex-valid assignments, inf where it is
        beyond float64."""
        with np.errstate(over="ignore"):
            return float(np.ldexp(self.counts[0], self.count_exponent))

    def _vertex_valid_rows(self, u):
        """One vertex-valid assignment per row of the uniforms ``u``: column
        t picks the classes opened at step t, and column len(steps) + s
        expands the class of edge s to the order low + floor(u * size), a
        uniform order of that class (always its one order when size is 1).

        The classes are held class-major, one row per edge.  At step t each
        sample's weight of every new class combination is the product of a
        kernel column and a ``counts[t + 1]`` column, both read at the codes
        of the sample's open classes.  The running sums add the weights in
        row order, and the pick counts the running sums <= u[:, t] * total,
        so the draws are those of a row-major searchsorted on the same
        products.  A step with no open edge gives every sample one column of
        weights and picks by searchsorted.  The result is a (rows x edges)
        view of a class-major array."""
        k = self.nclasses
        cls = np.empty((len(self.model.edges), len(u)), dtype=np.intp)
        for t, (step, (kernel, nxt, arr, arr_value, keep, keep_value)) in \
                enumerate(zip(self.steps, self.tables)):
            if len(arr) + len(keep):
                weights = kernel[:, _code(cls, arr, arr_value)]
                weights *= nxt[:, _code(cls, keep, keep_value)]
                for j in range(1, len(weights)):
                    weights[j] += weights[j - 1]
                total = weights[-1]
                # searchsorted(weights[:, i], u[i, t] * total[i], side="right")
                # for every row i at once; a zero-weight class is never picked,
                # and at most 4^3 running sums keep the count within uint8
                pick = np.add.reduce((weights <= u[:, t] * total).view(np.uint8), axis=0,
                                     dtype=np.uint8)
            else:  # no edge is open, so every row has the same weights
                weights = np.cumsum(kernel[:, 0] * nxt[:, 0])
                total = weights[-1]
                pick = np.searchsorted(weights, u[:, t] * total, side="right")
            if not total.all():
                raise GraphConditionError("sampler dead end (count bug)")
            for pos in step.new[:0:-1]:  # the last new edge is the lowest digit
                np.divmod(pick, k, out=(pick, cls[pos]))
            if step.new:
                cls[step.new[0]] = pick
        expand = u[:, len(self.steps):len(self.steps) + len(cls)].T
        orders = self.class_low[cls]
        orders += (expand * self.class_size[cls]).astype(np.int64)
        return orders.T

    def stream(self, gen, state, seed, samples, first, out):
        """Fill row j of ``out`` with the uniforms of attempts ``first``
        onwards of sample ``samples[j]``, one block per attempt: block
        ``first`` onwards of the Philox stream keyed (seed, samples[j]),
        read as ``Generator.random`` reads it from the start.

        ``state`` is a state dict of ``gen``'s Philox, rewritten in place:
        per call its ``key[0]``, counter and ``buffer_pos``, and per row
        only ``key[1]`` before it is loaded and the row filled with
        ``gen.random(out=row)``, so a row allocates no array."""
        key, counter = state["state"]["key"], state["state"]["counter"]
        key[0] = seed % 2 ** 64
        counter[:] = first * self.block // 4, 0, 0, 0
        state["buffer_pos"] = 4
        bits = gen.bit_generator
        for i, row in zip(samples, out):
            key[1] = i
            bits.state = state
            gen.random(out=row)
        return out

    def draw(self, seed, indices):
        """Exactly uniform valid assignments for samples ``indices``; returns
        (orders, attempts), one row per sample.

        Rejection runs in rounds over the samples still pending; in round r
        each makes m = min(2^r, MC_ROW_CHUNK) further attempts and keeps its
        first accepted one.  Attempt a of sample i reads block a of its own
        stream, so a row does not depend on the other samples of the call.
        A call makes one ``Philox`` and one ``Generator``, and a round fills
        one (rows, m * block) array of uniforms through :meth:`stream`.  The
        circuit test reads the class-major orders of
        :meth:`_vertex_valid_rows` as they are, so each circuit edge is one
        contiguous row.
        Raises when the acceptance rate falls below MC_MIN_ACCEPTANCE once
        MC_RATE_PILOT attempts are made, or when MC_MAX_ROUNDS rounds leave a
        sample pending.
        """
        indices = np.asarray(indices, dtype=np.uint64)
        e = len(self.model.edges)
        orders = np.empty((len(indices), e), dtype=np.int64)
        attempts = np.zeros(len(indices), dtype=np.int64)
        gen = np.random.Generator(np.random.Philox())
        state = gen.bit_generator.state
        pending = np.arange(len(indices))
        made = 0  # attempts made so far by each pending sample
        for r in range(MC_MAX_ROUNDS):
            if not len(pending):
                break
            m = min(1 << r, MC_ROW_CHUNK)
            accepted = np.zeros(len(indices), dtype=bool)
            group = max(MC_ROW_CHUNK // m, 1)
            u = np.empty((min(group, len(pending)), m * self.block))
            for g in range(0, len(pending), group):
                part = pending[g:g + group]
                self.stream(gen, state, seed, indices[part].tolist(), made, u[:len(part)])
                rows = self._vertex_valid_rows(u[:len(part)].reshape(-1, self.block))
                rows = rows.T.reshape(e, len(part), m).transpose(1, 2, 0)
                ok = self.model.circuits_ok(rows)
                hit = ok.any(axis=1)
                first = ok.argmax(axis=1)
                attempts[part] += np.where(hit, first + 1, m)
                orders[part[hit]] = rows[hit, first[hit]]
                accepted[part[hit]] = True
            made += m
            pending = pending[~accepted[pending]]
            tried = int(attempts.sum())
            if tried >= MC_RATE_PILOT and len(indices) - len(pending) < MC_MIN_ACCEPTANCE * tried:
                break
        if len(pending):
            raise GraphConditionError("circuit rejection rate too high")
        return orders, attempts


def _montecarlo_stats(P, d, samples, seed, name):
    if samples < 1:
        raise GraphConditionError("Monte Carlo needs at least one sample")
    # the sampler draws each order as low + floor(u * size) in int64, with
    # u * size in float64; up to 2^62 that stays far below 2^63, where the
    # cast to int64 overflows
    if d > 2 ** 62:
        raise GraphConditionError(
            f"Monte Carlo refused: order bound d = {d} is above 2^62, the largest "
            "the sampler draws in 64-bit integers")
    model = _AssignmentModel(P, d)
    # every circuit sum is smallest with every order d
    if not model.circuits_ok(np.full(len(model.edges), d)):
        raise GraphConditionError(
            "no valid assignments exist: a prismatic circuit inequality fails "
            f"even with every order {d}")
    sampler = _UniformValidSampler(model)
    wo = 0
    big = np.zeros(len(model.edges) + 1, dtype=np.int64)
    attempts = 0
    for start in range(0, samples, MC_ROW_CHUNK):
        orders, used = sampler.draw(seed, range(start, min(start + MC_ROW_CHUNK, samples)))
        attempts += int(used.sum())
        big += np.bincount((orders >= 7).sum(axis=1), minlength=len(big))
        wo += int(model.weakly_orderable(orders == 2).sum())
    fraction, lo, hi = _wilson_interval(wo, samples)
    return StatsReport(polytope=name, d=d, mode="montecarlo", valid_count=samples,
                       wo_count=wo, fraction=fraction, ci_low=lo, ci_high=hi,
                       nj={j: int(n) for j, n in enumerate(big) if n}, seed=seed,
                       samples=samples, attempts=attempts,
                       acceptance_rate=samples / attempts)
