import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from coxdeform import bundled, cartan, lorentz, matchstats, orbifold as ob, polytope as pt, vinberg
from coxdeform.numerics import (DEFAULT_RANK_POLICY, SMALLEST_SUBNORMAL, UNIT_ROUNDOFF, BlockRows,
                                _gamma, _sigma_bound, numerical_rank, svd_rank)


def traced_peak(fn):
    """(fn(), the peak of the memory traced by tracemalloc during the call):
    tracing starts just before the call and stops after it, even if it
    raises."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def tetra_orbifold():
    return bundled.load_builtin("tetrahedron353")


@pytest.fixture(scope="session")
def tetra_realization(tetra_orbifold):
    return lorentz.realize_gram(tetra_orbifold)


@pytest.fixture(scope="session")
def tetra_point(tetra_realization):
    return vinberg.hyperbolic_point(tetra_realization)


@pytest.fixture(scope="session")
def esselmann_orbifold():
    return bundled.load_builtin("esselmann")


@pytest.fixture(scope="session")
def esselmann_matrix(esselmann_orbifold):
    return cartan.CartanMatrix(vinberg.esselmann_base_matrix(),
                               orders=esselmann_orbifold.orders,
                               facets=esselmann_orbifold.base.facets)


@pytest.fixture(scope="session")
def esselmann_realization(esselmann_orbifold):
    return lorentz.realize_gram(esselmann_orbifold)


@pytest.fixture(scope="session")
def esselmann_point(esselmann_realization):
    return vinberg.hyperbolic_point(esselmann_realization)


@pytest.fixture(scope="session")
def doubled_cube_orbifold():
    return bundled.load_builtin("doubled_cube")


@pytest.fixture(scope="session")
def doubled_cube_realization(doubled_cube_orbifold):
    return lorentz.solve_hyperbolic_newton(doubled_cube_orbifold)


@pytest.fixture(scope="session")
def cube_orbifolds():
    return {name: bundled.load_builtin(name)
            for name in ("cube_rigid", "cube_flex", "cube_mixed")}


@pytest.fixture(scope="session")
def cube_realizations(cube_orbifolds):
    return {name: lorentz.solve_hyperbolic_newton(Q)
            for name, Q in cube_orbifolds.items()}


@pytest.fixture(scope="session")
def loebell5_orbifold():
    return bundled.load_builtin("loebell5_factor")


@pytest.fixture(scope="session")
def loebell5_realization(loebell5_orbifold):
    return lorentz.solve_hyperbolic_newton(loebell5_orbifold)


# -- generated orbifolds used by several test modules ----------------------------

def loebell_factor_orbifold(P):
    """Order 3 on the factor through the smallest ridge, order 2 elsewhere."""
    factor = set(matchstats.find_factor(P, min(P.ridges)))
    return ob.make_orbifold(P, {r: (3 if r in factor else 2) for r in P.ridges})


def prism_cap_orbifold(m):
    """Order 3 on the ridges of the two caps, order 2 on the sides."""
    P = pt.prism(m)
    return ob.make_orbifold(P, {r: (3 if r[0] in (1, 2) else 2) for r in P.ridges})


def one_order_changed(Q0):
    """Q0 with the first ridge, in sorted order, whose order can go from 2
    to 3 or from 3 to 2 changed so."""
    for ridge in sorted(Q0.orders):
        orders = dict(Q0.orders)
        orders[ridge] = 5 - orders[ridge]
        try:
            return ob.make_orbifold(Q0.base, orders)
        except ob.OrbifoldError:
            continue
    raise AssertionError("no order can change")


@functools.cache
def family_realization(family, m):
    """The loebell(m) factor or prism(m) cap orbifold and its Newton
    realization, solved once per test session."""
    Q = loebell_factor_orbifold(pt.loebell(m)) if family == "loebell" else prism_cap_orbifold(m)
    return Q, lorentz.solve_hyperbolic_newton(Q)


def newton_case(name):
    """A bundled orbifold, or the loebell(16) factor or prism(16) cap orbifold."""
    if name == "loebell16":
        return loebell_factor_orbifold(pt.loebell(16))
    if name == "prism16":
        return prism_cap_orbifold(16)
    return bundled.load_builtin(name)


# -- test-only helpers: gauge action, flattening, finite differences ------------

def apply_gauge(p, d, g):
    """The action (d, g): alpha_i -> d_i alpha_i g^{-1}, b_i -> d_i^{-1} g b_i.

    Requires positive d_i and invertible g with |det g| = 1; the residuals of
    phi_eval are unchanged.
    """
    d = np.asarray(d, dtype=float)
    g = np.asarray(g, dtype=float)
    if d.shape != (p.f,) or np.any(d <= 0):
        raise vinberg.VinbergError("need f positive rescaling factors")
    det = np.linalg.det(g)
    if abs(det) < 1e-12:
        raise vinberg.VinbergError("gauge matrix is singular")
    if abs(abs(det) - 1.0) > 1e-9:
        raise vinberg.VinbergError(f"gauge matrix must have |det| = 1, got {det}")
    ginv = np.linalg.inv(g)
    return vinberg.VinbergPoint(d[:, None] * (p.alphas @ ginv),
                                (p.bs @ g.T) / d[:, None], p.facets)


def random_gauge(f, dim, rng):
    """A random gauge element: log-uniform rescalings and |det| = 1 matrix."""
    d = np.exp(rng.uniform(-0.7, 0.7, size=f))
    while True:
        g = rng.normal(size=(dim, dim))
        det = np.linalg.det(g)
        if abs(det) > 1e-6:
            break
    g = g / abs(det) ** (1.0 / dim)
    return d, g


def flatten(p):
    """A point's alphas then bs, as one vector."""
    return np.concatenate([p.alphas.ravel(), p.bs.ravel()])


def unflatten(x, f, dim, facets=None):
    x = np.asarray(x, dtype=float)
    return vinberg.VinbergPoint(x[:f * dim].reshape(f, dim), x[f * dim:].reshape(f, dim),
                                facets)


def finite_difference_jacobian(func, x, step=1e-6):
    """Central-difference Jacobian of ``func`` at ``x`` (both 1-d arrays)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2 * step)
    return J


def random_lorentz_transform(dim, rng, scale=0.3):
    """A random element of SO(1, dim-1)+ via the Cayley map
    (I - X/2)^{-1} (I + X/2) of a random so(1, dim-1) matrix X.

    The map lands in SO(1, dim-1) exactly; it preserves time orientation
    only while every real eigenvalue of X has modulus below 2 (for a pure
    boost v: |v| < 2), which at the default scale fails only far in the
    tail.  A draw outside SO(1, dim-1)+ raises ValueError.
    """
    X = np.zeros((dim, dim))
    v = rng.normal(size=dim - 1) * scale
    W = rng.normal(size=(dim - 1, dim - 1)) * scale
    X[0, 1:] = v
    X[1:, 0] = v
    X[1:, 1:] = (W - W.T) / 2.0
    I = np.eye(dim)
    g = np.linalg.solve(I - X / 2.0, I + X / 2.0)
    if g[0, 0] <= 0:
        raise ValueError(f"scale {scale} gave a transform that reverses time")
    return g


def cartan_from_point(p, Q_or_index):
    """The Cartan matrix of a point, with the pattern of an orbifold or
    equation index."""
    index = vinberg._as_index(Q_or_index)
    orders = {pair: 2 for pair in index.e2}
    orders.update(index.e3_orders)
    return cartan.CartanMatrix(p.cartan(), orders=orders, facets=index.facets)


# -- independent oracles used by several test modules --------------------------

def enumerate_dual_cycles(P, k):
    """Brute-force enumeration of k-cycles in the facet adjacency graph,
    canonicalized up to rotation and reflection (independent of the library's
    circuit search)."""
    ridges = set(P.ridges)

    def adjacent(i, j):
        return (min(i, j), max(i, j)) in ridges

    seen = set()
    for combo in itertools.permutations(P.facets, k):
        if combo[0] != min(combo):
            continue
        if all(adjacent(combo[t], combo[(t + 1) % k]) for t in range(k)):
            canon = min(
                tuple(seq[(s + t) % k] for t in range(k))
                for seq in (combo, tuple(reversed(combo)))
                for s in range(k))
            seen.add(canon)
    return seen


def prismatic_oracle(P, k):
    """Independent prismatic test on top of the brute-force cycles."""
    out = set()
    for cyc in enumerate_dual_cycles(P, k):
        ends = []
        for t in range(k):
            i, j = sorted((cyc[t], cyc[(t + 1) % k]))
            ends.extend(w for w, V in enumerate(P.vertices) if i in V and j in V)
        if len(set(ends)) == 2 * k:
            out.add(cyc)
    return out


def andreev_oracle(Q):
    """Andreev violations of a 3-orbifold from ``Fraction`` sums of 1/m: the
    sorted vertex triples whose sum is not above 1, the circuits of
    ``prismatic_oracle`` whose sum is not below 1 (k = 3) or 2 (k = 4), and
    the caps of a triangular prism (its two triangles) when every ridge of
    both has order 2."""
    def total(orders):
        return sum(Fraction(1, m) for m in orders)

    def crossed(cyc):
        return [Q.order(cyc[t], cyc[(t + 1) % len(cyc)]) for t in range(len(cyc))]

    vertices = {tuple(sorted(V)) for V in Q.base.vertices
                if not total(Q.order(i, j) for i, j in itertools.combinations(sorted(V), 2)) > 1}
    circuits = {k: {cyc for cyc in prismatic_oracle(Q.base, k) if not total(crossed(cyc)) < k - 2}
                for k in (3, 4)}
    triangles = tuple(i for i in Q.base.facets if len(Q.base.neighbors(i)) == 3)
    prism = set()
    if Q.f == 5 and all(Q.order(i, j) == 2 for i in triangles for j in Q.base.neighbors(i)):
        prism.add(triangles)
    return vertices, circuits[3], circuits[4], prism


def skeleton(P):
    """The 1-skeleton of a 3-polytope as a networkx graph on vertex indices,
    each edge carrying its ``ridge``."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(len(P.vertices)))
    for r in P.ridges:
        a, b = P.ridge_endpoints(r)
        G.add_edge(a, b, ridge=r)
    return G


def find_factor_oracle(P, edge):
    """A perfect matching of the skeleton through ``edge`` from networkx's
    blossom matcher, or None if there is none."""
    import networkx as nx

    G = skeleton(P)
    H = G.copy()
    H.remove_nodes_from(P.ridge_endpoints(edge))
    matching = nx.max_weight_matching(H, maxcardinality=True)
    if 2 * len(matching) != H.number_of_nodes():
        return None
    return sorted([edge] + [G.edges[a, b]["ridge"] for a, b in matching])


def planar_dual_vertices_oracle(facets, ridges):
    """Vertex sets of a simple 3-polytope as the faces of networkx's planar
    embedding of the facet graph (Whitney: the embedding is unique)."""
    import networkx as nx

    # a list, not a set: networkx probes optional array libraries for sets
    G = nx.Graph(list(ridges))
    G.add_nodes_from(facets)
    assert nx.is_connected(G)
    ok, emb = nx.check_planarity(G)
    assert ok
    faces = set()
    for u, v in emb.edges:
        face = emb.traverse_face(u, v)
        assert len(face) == 3
        faces.add(frozenset(face))
    return faces


def three_connected_planar_oracle(P):
    """Reference decision: is the 1-skeleton of a 3-polytope (possibly built
    with ``validate=False``) simple, connected, planar and 3-connected?
    Endpoints come from the vertex sets, planarity from networkx and
    3-connectivity from an exhaustive 2-vertex-cut search (independent of
    the library's facet-cycle validation)."""
    import networkx as nx

    pairs = set()
    for i, j in P.ridges:
        ends = tuple(k for k, V in enumerate(P.vertices) if i in V and j in V)
        if len(ends) != 2 or ends in pairs:
            return False
        pairs.add(ends)
    G = nx.Graph(list(pairs))
    G.add_nodes_from(range(len(P.vertices)))
    if len(G) < 4 or not nx.is_connected(G) or not nx.check_planarity(G)[0]:
        return False
    adj = {u: set(G.neighbors(u)) for u in G}
    for cut in itertools.combinations(G, 2):
        rest = [u for u in G if u not in cut]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen and w not in cut:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < len(rest):
            return False
    return True


def random_truncation(P, cuts, rng):
    """P with ``cuts`` vertices truncated, each chosen uniformly at random."""
    for _ in range(cuts):
        P = pt.truncate_vertex(P, int(rng.integers(len(P.vertices))))
    return P


def relabelled(P, rng):
    """P with its facet ids permuted at random, listed in increasing new id."""
    new = dict(zip(P.facets, (int(k) + 1 for k in rng.permutation(P.f))))
    return pt.PolytopeCombinatorics(
        P.n, sorted(new.values()), [(new[i], new[j]) for i, j in P.ridges],
        [frozenset(new[i] for i in V) for V in P.vertices])


def factor_corpus():
    """(case id, polytope, ridges to force) for the factor golden: every
    ridge of the bundled 3-dimensional polytopes, the dodecahedron, cube,
    simplex(3), prism(3..11), eight relabelled L(16) and seeded truncations,
    and the smallest ridge of L(5..64)."""
    cases = [(f"bundled-{name}", bundled.load_builtin(name).base)
             for name in bundled.BUILTIN_NAMES if name != "esselmann"]
    cases += [("dodecahedron", pt.dodecahedron()), ("cube", pt.cube()),
              ("simplex3", pt.simplex(3))]
    cases += [(f"prism{m}", pt.prism(m)) for m in range(3, 12)]
    rng = np.random.default_rng(20)  # the relabellings of test_newton_independent_of_facet_labels
    cases += [(f"loebell16-relabelled{k}", relabelled(pt.loebell(16), rng)) for k in range(8)]
    bases = [pt.simplex(3), pt.cube(), pt.prism(5), pt.dodecahedron()]
    for seed in range(16):
        base = bases[seed % 4]
        cases.append((f"truncation{seed}",
                      random_truncation(base, 1 + seed % 7, np.random.default_rng(seed))))
    out = [(cid, P, sorted(P.ridges)) for cid, P in cases]
    for m in range(5, 65):
        P = pt.loebell(m)
        out.append((f"loebell{m}", P, [min(P.ridges)]))
    return out


def shuffled_factor(P, rng):
    """A factor through the smallest ridge from ``matchstats._maximum_matching``
    with the node order and every neighbour list permuted at random, so that
    the blossom search returns some other factor than ``find_factor``."""
    edge = min(P.ridges)
    adj = [[] for _ in P.vertices]
    for r in P.ridges:
        a, b = P.ridge_endpoints(r)
        adj[a].append(b)
        adj[b].append(a)
    u, v = P.ridge_endpoints(edge)
    nodes = [w for w in range(len(adj)) if w not in (u, v)]
    adj = [[x for x in ws if x not in (u, v)] for ws in adj]
    for ws in adj:
        rng.shuffle(ws)
    rng.shuffle(nodes)
    mate = matchstats._maximum_matching(nodes, adj)
    assert len(mate) == len(nodes)
    factor = sorted([edge] + [tuple(sorted(P.vertices[a] & P.vertices[b]))
                              for a, b in mate.items() if a < b])
    assert matchstats.is_factor(P, factor)
    return factor


def factor_mask(P, factor):
    """A factor as a hex bit mask over ``sorted(P.ridges)``."""
    bit = {r: k for k, r in enumerate(sorted(P.ridges))}
    return format(sum(1 << bit[r] for r in factor), "x")


def _is_simplex(P):
    return P.f == P.n + 1 and P.e == P.f * (P.f - 1) // 2


def _untruncates(P):
    """(facet, the polytope with that facet un-truncated) for each facet of
    a 3-polytope that passes every check of the rebuild, lowest id first."""
    for facet in sorted(P.facets):
        nbrs = P.neighbors(facet)
        if len(nbrs) != P.n:
            continue
        restored = frozenset(nbrs)
        if not all(P.adjacent(i, j) for i, j in itertools.combinations(nbrs, 2)):
            continue
        if restored in P.vertices:
            continue
        facets = tuple(i for i in P.facets if i != facet)
        ridges = {r for r in P.ridges if facet not in r}
        vertices = [V for V in P.vertices if facet not in V] + [restored]
        try:
            yield facet, pt.PolytopeCombinatorics(P.n, facets, ridges, vertices)
        except pt.CombinatoricsError:
            continue


def greedy_truncation_oracle(P):
    """Un-truncate the lowest facet that rebuilds into a valid polytope,
    until a simplex remains: one validated polytope per step."""
    history = []
    while not _is_simplex(P):
        step = next(_untruncates(P), None)
        if step is None:
            return pt.TruncationWitness(False, [])
        history.append(step[0])
        P = step[1]
    return pt.TruncationWitness(True, history)


def reverse_truncation_oracle(P, history=()):
    """Backtracking search over every un-truncation order of a 3-polytope
    (no memo, so factorial on "no" answers): the witness of the first order
    that ends at a simplex, else a negative witness."""
    if _is_simplex(P):
        return pt.TruncationWitness(True, list(history))
    for facet, Q in _untruncates(P):
        result = reverse_truncation_oracle(Q, list(history) + [facet])
        if result:
            return result
    return pt.TruncationWitness(False, [])


def odd_label_sums(P, labels):
    """Whether every vertex has an odd sum of the {0, 1} labels on its three
    edges."""
    return all(sum(labels[pt._pair(i, j)] for i, j in itertools.combinations(V, 2)) % 2 == 1
               for V in P.vertices)


def labelled_orbifold(P, labels):
    """Order 2 on the 0-edges of a {0, 1} labelling and 3 elsewhere."""
    return ob.CoxeterOrbifold(P, {r: (2 if labels[r] == 0 else 3) for r in P.ridges})


def edge_delete(P, edge, labels=None, keep=None):
    """Delete an edge and amalgamate the edge pairs at its endpoints, by
    rebuilding and re-validating the whole polytope: the deletion step of
    ``weak_order_induction_oracle`` and the test of
    ``removable_edges_oracle``.  When the labels have odd vertex sums, it
    asserts that the new labels have them too.

    The two faces across ``edge`` merge into one, which keeps the id ``keep``
    (default: the smaller).  With ``labels``, the pairs amalgamated at each
    endpoint must carry equal labels; the merged edges inherit them.  Returns
    the new combinatorics (validated: a failure means the edge was not
    removable) and, if labels were given, the new labeling.
    """
    edge = pt._pair(*edge)
    F, G = edge
    if keep is None:
        keep = F
    if keep not in edge:
        raise matchstats.GraphConditionError("keep must be one of the edge's faces")
    drop = G if keep == F else F

    u, v = P.ridge_endpoints(edge)
    if labels is not None:
        for w in (u, v):
            X = next(iter(P.vertices[w] - set(edge)))
            if labels[pt._pair(F, X)] != labels[pt._pair(G, X)]:
                raise matchstats.GraphConditionError(
                    f"labels differ on the edge pair at vertex {sorted(P.vertices[w])}")

    def rename(i):
        return keep if i == drop else i

    new_ridges = []
    new_labels = {}
    for r in sorted(P.ridges):
        if r == edge:
            continue
        m = pt._pair(rename(r[0]), rename(r[1]))
        if m in new_labels:
            # expected for the two amalgamation pairs; any other collision is
            # a multi-edge and disqualifies the deletion
            endpoints = set(P.ridge_endpoints(r))
            if not endpoints & {u, v}:
                raise matchstats.GraphConditionError("deletion creates a multi-edge")
            continue
        new_ridges.append(m)
        new_labels[m] = labels[r] if labels is not None else 0
    new_vertices = []
    for k, V in enumerate(P.vertices):
        if k in (u, v):
            continue
        W = frozenset(rename(i) for i in V)
        if len(W) != 3 or W in new_vertices:
            raise matchstats.GraphConditionError("deletion degenerates a vertex")
        new_vertices.append(W)
    try:
        Q = pt.PolytopeCombinatorics(3, [i for i in P.facets if i != drop],
                                     new_ridges, new_vertices)
    except pt.CombinatoricsError as exc:
        raise matchstats.GraphConditionError(f"edge not removable: {exc}") from exc
    if labels is None:
        return Q
    if odd_label_sums(P, labels):
        # deletion preserves the odd-sum condition; a failure here is a bug
        assert odd_label_sums(Q, new_labels)
    return Q, new_labels




def _induction_steps(P, labels):
    """(F, smaller polytope, its labels) for each deletion the weak-order
    induction may make next, in its order of preference: the lowest face F
    with at most three 0-edges, merged into its lowest neighbour G for
    which ``edge_delete`` succeeds, after flipping F's labels if (F, G) is
    labeled 0."""
    for F in sorted(P.facets):
        if sum(labels[(min(F, j), max(F, j))] == 0 for j in P.nbrs[F]) > 3:
            continue
        for G in sorted(P.nbrs[F]):
            work = dict(labels)
            if work[(min(F, G), max(F, G))] == 0:
                for r in P.face_boundary(F):
                    work[r] = 1 - work[r]
            try:
                Q, sub = edge_delete(P, (F, G), work, keep=G)
            except matchstats.GraphConditionError:
                continue
            yield F, Q, sub


def weak_order_induction_oracle(P, labels):
    """A face ordering by the deletion induction on a {0, 1} labelling with
    odd vertex sums: each step puts first the lowest face F with at most
    three 0-edges, merges it into a neighbour by one validated
    ``edge_delete`` (which asserts that vertex sums stay odd), and orders
    the smaller polytope.  Its ordering has at most three 0-edges from each
    face into later faces, a claim the tests check with
    ``orbifold.check_weak_ordering`` apart from ``polytope.greedy_peel``."""
    ordering = []
    while P.f > 4:
        F, P, labels = next(_induction_steps(P, labels))
        ordering.append(F)
    return tuple(ordering) + tuple(sorted(P.facets))


def removable_edges_oracle(P, face):
    """The boundary ridges of ``face`` on which a trial ``edge_delete``
    succeeds, in boundary order."""
    out = []
    for r in P.face_boundary(face):
        try:
            edge_delete(P, r)
        except matchstats.GraphConditionError:
            continue
        out.append(r)
    return out


def psi_eval_oracle(Q, normals):
    """The hyperbolic residuals, one Python step per equation row."""
    pos = {facet: k for k, facet in enumerate(Q.base.facets)}
    gram = lorentz.lorentz_gram(normals)
    out = []
    for i, j in lorentz.psi_rows(Q):
        a, b = pos[i], pos[j]
        if i == j:
            out.append(2.0 * gram[a, a] - 2.0)
        else:
            out.append(2.0 * gram[a, b] + 2.0 * math.cos(math.pi / Q.order(i, j)))
    return np.array(out)


def psi_jacobian_oracle(Q, normals):
    """The dense hyperbolic Jacobian, one Python step per equation row."""
    normals = np.asarray(normals, dtype=float)
    f, dim = normals.shape
    alphas = 2.0 * normals @ lorentz.LorentzForm(dim).matrix
    pos = {facet: k for k, facet in enumerate(Q.base.facets)}
    rows = lorentz.psi_rows(Q)
    M = np.zeros((len(rows), dim * f))
    for r, (i, j) in enumerate(rows):
        a, b = pos[i], pos[j]
        if i == j:
            M[r, a * dim:(a + 1) * dim] = 2.0 * alphas[a]
        else:
            M[r, a * dim:(a + 1) * dim] = alphas[b]
            M[r, b * dim:(b + 1) * dim] = alphas[a]
    return M


def phi_eval_oracle(index, p):
    """Vinberg's residuals, one Python step per equation row of ``index``."""
    a = p.cartan()
    pos = index.pos
    out = []
    for kind, (i, j) in index.rows():
        ii, jj = pos[i], pos[j]
        if kind == "e2a":
            out.append(a[ii, jj])
        elif kind == "e2b":
            out.append(a[jj, ii])
        elif kind == "e3":
            target = 4.0 * math.cos(math.pi / index.e3_orders[(i, j)]) ** 2
            out.append(a[ii, jj] * a[jj, ii] - target)
        else:
            out.append(a[ii, ii] - 2.0)
    return np.array(out)


def phi_jacobian_oracle(index, p):
    """The dense Jacobian of Vinberg's equations, one Python step per
    equation row of ``index``."""
    a = p.cartan()
    f, dim = p.f, p.dim
    pos = index.pos
    rows = index.rows()
    M = np.zeros((len(rows), 2 * dim * f))

    def ablock(k):
        return slice(k * dim, (k + 1) * dim)

    def bblock(k):
        return slice((f + k) * dim, (f + k + 1) * dim)

    for r, (kind, (i, j)) in enumerate(rows):
        ii, jj = pos[i], pos[j]
        if kind == "e2a":
            M[r, ablock(ii)] = p.bs[jj]
            M[r, bblock(jj)] = p.alphas[ii]
        elif kind == "e2b":
            M[r, ablock(jj)] = p.bs[ii]
            M[r, bblock(ii)] = p.alphas[jj]
        elif kind == "e3":
            M[r, ablock(ii)] = a[jj, ii] * p.bs[jj]
            M[r, ablock(jj)] = a[ii, jj] * p.bs[ii]
            M[r, bblock(ii)] = a[ii, jj] * p.alphas[jj]
            M[r, bblock(jj)] = a[jj, ii] * p.alphas[ii]
        else:
            M[r, ablock(ii)] = p.bs[ii]
            M[r, bblock(ii)] = p.alphas[ii]
    return M


def newton_lstsq_oracle(Q, initial, tol=lorentz.RESIDUAL_TOL, max_iter=100):
    """Gauss-Newton with SVD-based least-squares steps on the dense Jacobian,
    with step halving; returns the converged normals (unvalidated)."""
    f, dim = Q.f, Q.n + 1
    x = np.asarray(initial, dtype=float).copy()
    r = psi_eval_oracle(Q, x)
    for _ in range(max_iter):
        norm = np.linalg.norm(r)
        if norm < tol:
            return x
        step, *_ = np.linalg.lstsq(psi_jacobian_oracle(Q, x), r, rcond=None)
        step = step.reshape(f, dim)
        t = 1.0
        for _ in range(25):
            x_new = x - t * step
            r_new = psi_eval_oracle(Q, x_new)
            if np.linalg.norm(r_new) < norm:
                break
            t *= 0.5
        else:
            raise lorentz.ConvergenceError(f"no descent step found at residual {norm:.3e}")
        x, r = x_new, r_new
    raise lorentz.ConvergenceError(f"no convergence after {max_iter} iterations")


def constant_seed_oracle(Q):
    """The prism and two-ring seeds from fixed Klein offsets that ignore m
    and the orders (caps 0.55, sides 0.5; rings and caps 0.78, tilt 0.5);
    other polytopes get ``initial_guess``."""
    P = Q.base
    prism = lorentz._prism_structure(P)
    two_ring = None if prism else lorentz._loebell_structure(P)
    if prism:
        a, b, ring = prism
        rows = {a: lorentz._klein_plane([0.0, 0.0, 1.0], 0.55),
                b: lorentz._klein_plane([0.0, 0.0, -1.0], 0.55)}
        for i, s in enumerate(ring):
            th = 2.0 * math.pi * i / len(ring)
            rows[s] = lorentz._klein_plane([math.cos(th), math.sin(th), 0.0], 0.5)
    elif two_ring:
        top, bottom, upper, lower = two_ring
        m, tilt = len(upper), 0.5
        s = math.sqrt(1.0 + tilt * tilt)
        rows = {top: lorentz._klein_plane([0.0, 0.0, 1.0], 0.78),
                bottom: lorentz._klein_plane([0.0, 0.0, -1.0], 0.78)}
        for i in range(m):
            for ring, th, z in ((upper, 2.0 * math.pi * i / m, tilt),
                                (lower, 2.0 * math.pi * i / m - math.pi / m, -tilt)):
                rows[ring[i]] = lorentz._klein_plane(
                    [math.cos(th) / s, math.sin(th) / s, z / s], 0.78)
    else:
        return lorentz.initial_guess(Q)
    return np.array([rows[x] for x in P.facets])


def closed_form_seed_oracle(Q):
    """The prism and two-ring seeds in closed form, one Klein plane and one
    order lookup at a time: every ridge of a class at the class's mean
    cos(pi/m_ij), summed in the order below; other polytopes get
    ``initial_guess``."""
    P = Q.base

    def mean_cos(pairs):
        return sum(math.cos(math.pi / Q.order(i, j)) for i, j in pairs) / len(pairs)

    def offset(c):
        return c if c > 1e-6 else lorentz.OFFSET_FLOOR

    prism = lorentz._prism_structure(P)
    two_ring = None if prism else lorentz._loebell_structure(P)
    if prism:
        a, b, ring = prism
        m = len(ring)
        k_ss = mean_cos([(ring[j - 1], ring[j]) for j in range(m)])
        k_cs = mean_cos([(cap, s) for cap in (a, b) for s in ring])
        c_s = offset(math.sqrt(max(math.cos(2.0 * math.pi / m) + k_ss, 0.0) / (1.0 + k_ss)))
        t = k_cs * math.sqrt(1.0 - c_s * c_s) / c_s
        c_c = offset(t / math.sqrt(1.0 + t * t))
        rows = {a: lorentz._klein_plane([0.0, 0.0, 1.0], c_c),
                b: lorentz._klein_plane([0.0, 0.0, -1.0], c_c)}
        for i, s in enumerate(ring):
            th = 2.0 * math.pi * i / m
            rows[s] = lorentz._klein_plane([math.cos(th), math.sin(th), 0.0], c_s)
    elif two_ring:
        top, bottom, upper, lower = two_ring
        m = len(upper)
        k1 = mean_cos([(cap, u) for cap, ring in ((top, upper), (bottom, lower)) for u in ring])
        k2 = mean_cos([(ring[j - 1], ring[j]) for ring in (upper, lower) for j in range(m)])
        k3 = mean_cos([(w, upper[j + d]) for j, w in enumerate(lower) for d in (-1, 0)])
        cos1, cos2 = math.cos(math.pi / m), math.cos(2.0 * math.pi / m)
        A = 2.0 * (1.0 + k2) / ((1.0 + k2) * (1.0 + cos1) + (1.0 - cos2) * (1.0 + k3))
        X = 1.0 - (1.0 - cos2) * A / (1.0 + k2)
        h, v = math.sqrt(A), math.sqrt(1.0 - A)
        c_r, gamma = math.sqrt(X), k1 * math.sqrt(1.0 - X)
        R2 = X + gamma * gamma
        c_c = (c_r * v + gamma * math.sqrt(max(R2 - v * v, 0.0))) / R2
        rows = {top: lorentz._klein_plane([0.0, 0.0, 1.0], c_c),
                bottom: lorentz._klein_plane([0.0, 0.0, -1.0], c_c)}
        for i in range(m):
            th = 2.0 * math.pi * i / m
            rows[upper[i]] = lorentz._klein_plane([h * math.cos(th), h * math.sin(th), v], c_r)
            th = 2.0 * math.pi * i / m - math.pi / m
            rows[lower[i]] = lorentz._klein_plane([h * math.cos(th), h * math.sin(th), -v], c_r)
    else:
        return lorentz.initial_guess(Q)
    return np.array([rows[x] for x in P.facets])


def dense_gram_oracle(M):
    """fl(W W^t) for the short side W of M, by one dense product."""
    W = M if M.shape[0] <= M.shape[1] else M.T
    return W @ W.T


def block_gram_oracle(rows, values):
    """fl(M M^t) of a ``BlockRows`` pattern as one dense array: the dot
    product of each pair's stored vectors, summed per entry in pair order."""
    R = rows.nrows
    p, q = rows.pairs
    products = np.take(values, p, axis=0)
    products *= np.take(values, q, axis=0)
    dots = products[:, 0].copy()
    for j in range(1, products.shape[1]):
        dots += products[:, j]
    entry = rows.row[p].astype(np.intp) * R + rows.row[q]
    return np.bincount(entry, weights=dots, minlength=R * R).reshape(R, R)


def full_gram_certificate_oracle(A, shape, policy=DEFAULT_RANK_POLICY, floor=0.0):
    """The full-rank certificate on the whole Gram matrix ``A`` (overwritten):
    the same shift s and tau_bar, and LAPACK's Cholesky of all of fl(A - s I)
    in row order; tau_bar or None."""
    k, q = min(shape), max(shape)
    diag = np.diagonal(A)
    dmax = float(diag.max())
    sigma2, tau = _sigma_bound(diag, shape, policy)
    g = _gamma(k + 1)
    c = g / (1.0 - g) * sigma2 + (4.0 * k * (2.0 * (k + 2) + dmax) + 1.0) * SMALLEST_SUBNORMAL
    t = max(tau, floor)
    s = t * t + _gamma(q) * sigma2 + k * q * SMALLEST_SUBNORMAL + c + UNIT_ROUNDOFF * dmax
    s *= 1.0 + _gamma(64)
    if not math.isfinite(s):
        return None
    A.flat[::k + 1] -= s
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return tau


def full_gram_rank_oracle(rows, values, policy=DEFAULT_RANK_POLICY):
    """(rank, method, threshold) of the wide matrix of a ``BlockRows``
    pattern, certified from its whole Gram matrix, else from the SVD."""
    shape = rows.shape(values)
    tau = full_gram_certificate_oracle(block_gram_oracle(rows, values), shape, policy)
    if tau is not None:
        return min(shape), "cholesky", tau
    rr = svd_rank(rows.dense(values), policy)
    return rr.rank, "svd", rr.threshold


def bordered_trailing_oracle(A, first, s):
    """The trailing block of the Cholesky factorisation of fl(A - s I) that
    takes the rows ``first`` (row numbers, in row order) first: the dense
    matrix, permuted to that order, with its pivots eliminated one by one
    by rank-one updates of everything after them; its other rows stay in
    row order.  None at a pivot that is not positive."""
    first = np.asarray(first, dtype=np.intp)
    order = np.concatenate([first, np.setdiff1d(np.arange(len(A)), first)])
    B = A[np.ix_(order, order)]
    B.flat[::len(B) + 1] -= s
    for i in range(len(first)):
        if not B[i, i] > 0.0:
            return None
        l = B[i + 1:, i] / np.sqrt(B[i, i])
        B[i + 1:, i + 1:] -= np.outer(l, l)
    return B[len(first):, len(first):]


def twiddles_oracle(K):
    """The real DFT table of ``numerics._twiddles`` built entry by entry:
    cos(2 pi ((l j) mod K) / K) for l = 0..K/2, sin of the same for l =
    1..(K-1)/2, then those sines negated, each angle formed and taken by
    :mod:`math` at its own entry."""
    cos = [[math.cos(2.0 * math.pi * (l * j % K) / K) for j in range(K)]
           for l in range(K // 2 + 1)]
    sin = [[math.sin(2.0 * math.pi * (l * j % K) / K) for j in range(K)]
           for l in range(1, (K + 1) // 2)]
    return np.array(cos + sin + [[-t for t in row] for row in sin])


def row_orbits_oracle(symmetry):
    """``numerics._row_orbits`` by powers of the whole permutation at once:
    K is the first power at which some moved row comes back, every row's
    size and smallest orbit row are read off the powers up to K, and the
    orbits are then walked K steps together from their smallest rows."""
    image, sign = symmetry
    n = len(image)
    if n == 0 or not np.array_equal(np.bincount(image, minlength=n), np.ones(n, dtype=np.intp)):
        return None
    rows = np.arange(n)
    size = np.where(image == rows, 1, 0)
    low, current, K = np.minimum(rows, image), image, 1
    while K < n and not size.all():
        current = image[current]
        low = np.minimum(low, current)
        K += 1
        back = current == rows
        if (back & (size == 0)).any():
            size[back & (size == 0)] = K
            break
    if K < 2 or not size.all() or not ((size == 1) | (size == K)).all() \
            or (sign[size == 1] != 1).any():
        return None
    reps = np.flatnonzero((size == K) & (low == rows))
    orbit, power, sigma = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp), np.ones(n)
    current, path = reps, np.ones(len(reps))
    for k in range(K):
        orbit[current], power[current], sigma[current] = np.arange(len(reps)), k, path
        path = path * sign[current]
        current = image[current]
    if (path != 1).any():
        return None
    return K, size, orbit, power, sigma


def newton_bincount_oracle(Q, initial):
    """``solve_hyperbolic_newton`` with each step's trailing block in a
    fresh array: each step solves through a fresh copy of the pattern, whose
    work array is new; returns the converged normals."""
    S = lorentz.psi_structure(Q)

    def step(alphas, r):
        values = S.values(alphas)
        A = BlockRows(S.rows.nrows, S.rows.nblocks, S.rows.row, S.rows.block).gram(values)
        y = A.solve(-lorentz.LM_SHIFT * A.diagonal.sum() / S.nrows, r)
        return S.rows.transpose_product(values, y).reshape(alphas.shape)

    x = np.asarray(initial, dtype=float).copy()
    r = S.eval(x)
    for _ in range(100):
        norm = np.linalg.norm(r)
        if norm < lorentz.RESIDUAL_TOL:
            return x
        d = step(lorentz._alphas(x), r)
        t = 1.0
        for _ in range(25):
            x_new = x - t * d
            r_new = S.eval(x_new)
            if np.linalg.norm(r_new) < norm:
                break
            t *= 0.5
        x, r = x_new, r_new
    raise lorentz.ConvergenceError("no convergence")


def realization_oracle(Q, normals):
    """(residual norm, vertex flags, non-adjacent products) of a realization,
    each vertex's point from the SVD of its facets' forms, and the Gram
    matrix formed once per use."""
    normals = np.asarray(normals, dtype=float)
    S = lorentz.psi_structure(Q)
    residual = float(np.linalg.norm(S.eval(normals)))
    flags = {}
    if len(S.vertex_rows):
        form = lorentz.LorentzForm(normals.shape[1])
        x = np.linalg.svd((normals @ form.matrix)[S.vertex_rows])[2][:, -1]
        x = np.where(np.abs(x[:, :1]) > 1e-12, x / x[:, :1], x)
        flags = dict(zip(Q.base.vertices, (form.inner(x, x) < 0).tolist()))
    values = lorentz.lorentz_gram(normals)[S.nonadjacent]
    return residual, flags, dict(zip(Q.base.nonadjacent_pairs, values.tolist()))


def to_jsonable_oracle(obj):
    """Report data as JSON data, one recursive call per array entry, each
    float canonicalized to 12 significant digits on its own."""
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{float(obj):.12g}")
    if hasattr(obj, "tolist"):
        return to_jsonable_oracle(obj.tolist())
    if hasattr(obj, "_asdict"):  # a report record, before the tuple branch
        return {k: to_jsonable_oracle(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        out = {}
        for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])):
            key = ",".join(str(x) for x in k) if isinstance(k, (tuple, frozenset)) else str(k)
            out[key] = to_jsonable_oracle(v)
        return out
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable_oracle(v) for v in items]
    return str(obj)


def gauss_newton_step_oracle(Q, normals, r):
    """The minimum-norm step J^t y with (J J^t + mu I) y = r, from the dense
    Jacobian and one solve of the full (f+e) x (f+e) system; returns the
    step and the shifted system."""
    normals = np.asarray(normals, dtype=float)
    J = psi_jacobian_oracle(Q, normals)
    G = J @ J.T
    R = len(G)
    G.flat[::R + 1] += lorentz.LM_SHIFT * G.trace() / R
    return (J.T @ np.linalg.solve(G, r)).reshape(normals.shape), G


def component_eigenpairs_oracle(p):
    """(component, smallest real eigenvalue, eigenvector) of every component
    block of the Cartan matrix, by a general eigensolve of the whole block;
    (component, None, None) where the block has no real eigenvalue."""
    a = p.cartan()
    adj = nonzero_graph_oracle(a, cartan.ENTRY_TOL * max(np.abs(a).max(), 1.0))
    out = []
    for comp in components_oracle(adj, p.f):
        try:
            out.append((comp, *cartan.smallest_real_eigenpair(a[np.ix_(comp, comp)])))
        except cartan.CartanError:
            out.append((comp, None, None))
    return out


def interior_point_eig_oracle(p, tol=1e-9):
    """The interior-point decision of ``check_U_membership`` from the
    eigenpairs of ``component_eigenpairs_oracle``: (has_point, point)."""
    a = p.cartan()
    scale = max(np.abs(p.alphas).max(), 1e-30)
    zero_tol = cartan.ZERO_TYPE_TOL * np.linalg.norm(a)
    x = np.zeros(p.f)
    for comp, lam, u in component_eigenpairs_oracle(p):
        if lam is None:
            continue
        if abs(lam) <= zero_tol:
            y = cartan.smallest_real_eigenpair(a[np.ix_(comp, comp)].T)[1]
            if y.sum() > 0 and y.min() >= 0 and \
                    np.abs(y @ p.alphas[comp]).max() <= tol * scale * y.sum():
                return False, np.zeros(p.dim)
        x[comp] = np.sign(lam) * u
    v = x @ p.bs
    v = v / max(np.abs(v).max(), 1e-300)
    if (p.alphas @ v).min() > tol * scale:
        return True, v
    return None, np.zeros(p.dim)


def reduction_operators_oracle(Q, p):
    """The row and column operations of the rank-sum reduction written out
    as matrices, (L, C), so that L (D phi) C = [[A, B], [0, D psi]] at a
    hyperbolic point: each E2 first-slot row added to its second-slot row,
    E3 rows scaled by 1/a_ij and E1 rows by 2; the alpha-columns scaled by 2
    with the first coordinate of each block negated, then the right half
    subtracted from the left."""
    index = vinberg.EquationIndex.from_orbifold(Q)
    a = p.cartan()
    n2, n3 = len(index.e2), len(index.e3)
    L = np.eye(index.N)
    for k in range(n2):
        L[n2 + k, k] = 1.0                      # E2b row += E2a row
    for k, (i, j) in enumerate(index.e3):
        L[2 * n2 + k, 2 * n2 + k] = 1.0 / a[index.pos[i], index.pos[j]]
    for k in range(2 * n2 + n3, index.N):
        L[k, k] = 2.0
    half = p.f * p.dim
    scale = np.full(half, 2.0)
    scale[::p.dim] = -2.0                       # alpha-columns, first coordinate negated
    C = np.eye(2 * half)
    C[:half, :half] = np.diag(scale)
    C[half:, :half] = -np.eye(half)             # left half -= right half
    return L, C


def reduced_rank_oracle(Q, p, policy=DEFAULT_RANK_POLICY):
    """The rank-sum reduction of D phi, R = L (D phi) C with the operations
    of ``reduction_operators_oracle``, and its numerical rank: (rank, R).
    L and C are invertible, so the rank equals rank(D phi) whenever the
    ranks are decided."""
    L, C = reduction_operators_oracle(Q, p)
    R = L @ vinberg.phi_jacobian(vinberg.EquationIndex.from_orbifold(Q), p) @ C
    return numerical_rank(R, policy).rank, R


def gauge_directions_oracle(p):
    """The gauge-orbit tangent rows, one Python step per generator and facet."""
    f, dim = p.f, p.dim
    rows = []
    for i in range(f):
        v = np.zeros(2 * dim * f)
        v[i * dim:(i + 1) * dim] = p.alphas[i]
        v[(f + i) * dim:(f + i + 1) * dim] = -p.bs[i]
        rows.append(v)
    basis = []
    for k in range(dim):
        for l in range(dim):
            if k == l:
                continue
            X = np.zeros((dim, dim))
            X[k, l] = 1.0
            basis.append(X)
    for k in range(dim - 1):
        X = np.zeros((dim, dim))
        X[k, k] = 1.0
        X[k + 1, k + 1] = -1.0
        basis.append(X)
    for X in basis:
        v = np.zeros(2 * dim * f)
        for i in range(f):
            v[i * dim:(i + 1) * dim] = -p.alphas[i] @ X
            v[(f + i) * dim:(f + i + 1) * dim] = X @ p.bs[i]
        rows.append(v)
    return np.array(rows)


def nonzero_graph_oracle(M, tol):
    """Neighbour lists of the nonzero pattern, one entry pair at a time."""
    f = M.shape[0]
    adj = {k: [] for k in range(f)}
    for a in range(f):
        for b in range(f):
            if a != b and (abs(M[a, b]) > tol or abs(M[b, a]) > tol):
                adj[a].append(b)
    return adj


def components_oracle(adj, f):
    """The connected components of the neighbour lists ``adj`` on positions
    0..f-1 by depth-first search from each position not yet reached, in
    position order: sorted lists, in order of their smallest position."""
    seen, comps = set(), []
    for start in range(f):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def tree_walk_oracle(M, adj):
    """(d, parent, tree) of the recursive depth-first walk from position 0,
    lowest neighbour first, that symmetrizes M on its tree."""
    d = np.ones(M.shape[0])
    parent = {0: None}
    tree = []

    def dfs(u):
        for v in sorted(adj[u]):
            if v in parent:
                continue
            if M[u, v] * M[v, u] <= 0:
                raise cartan.CartanError(f"pair {u},{v} has entries of opposite sign")
            d[v] = d[u] * math.sqrt(M[u, v] / M[v, u])
            parent[v] = u
            tree.append((u, v))
            dfs(v)

    dfs(0)
    return d, parent, tree


def infer_pattern_oracle(M, facets):
    """The orders ``CartanMatrix`` infers from entries M, one pair a < b at
    a time in row-major order."""
    scale = max(np.abs(M).max(), 1.0)
    tol = cartan.ENTRY_TOL * scale
    orders = {}
    for a in range(len(facets)):
        for b in range(a + 1, len(facets)):
            x, y = M[a, b], M[b, a]
            pair = (facets[a], facets[b])
            if abs(x) <= tol and abs(y) <= tol:
                orders[pair] = 2
            else:
                prod = x * y
                if prod < 4.0 - tol:
                    if prod <= 0:
                        orders[pair] = 0
                    else:
                        orders[pair] = max(2, round(math.pi / math.acos(math.sqrt(prod) / 2.0)))
    return orders


def conditions_oracle(A):
    """``check_vinberg_conditions`` with one loop over all ordered entry
    pairs and one over the sorted order-2 pairs."""
    M = A.entries
    scale = max(np.abs(M).max(), 1.0)
    atol = cartan.ENTRY_TOL * scale
    report = cartan.ConditionsReport([], [], [], [], [])
    for k, facet in enumerate(A.facets):
        if abs(M[k, k] - 2.0) > atol:
            report.diagonal_violations.append((facet, M[k, k]))
    for a in range(A.f):
        for b in range(A.f):
            if a == b:
                continue
            if M[a, b] > atol:
                report.sign_violations.append(((A.facets[a], A.facets[b]), M[a, b]))
            if (abs(M[a, b]) <= atol) != (abs(M[b, a]) <= atol):
                report.sign_violations.append(((A.facets[a], A.facets[b]),
                                               (M[a, b], M[b, a])))
    for i, j in A.e2_pairs():
        x, y = A.entry(i, j), A.entry(j, i)
        if abs(x) > atol or abs(y) > atol:
            report.order2_violations.append(((i, j), (x, y)))
    for (i, j), m in A.e3_orders().items():
        prod = A.entry(i, j) * A.entry(j, i)
        target = 4.0 * math.cos(math.pi / m) ** 2
        if abs(prod - target) > atol:
            report.product_violations.append(((i, j), prod, target))
    for i, j in A.e4_pairs():
        prod = A.entry(i, j) * A.entry(j, i)
        if not prod > 4.0:
            report.open_violations.append(((i, j), prod))
    return report


def vertex_point(R, vertex):
    """The point where the facet hyperplanes of ``vertex`` meet in the
    realization R, scaled to first coordinate 1 when possible."""
    pos = {facet: k for k, facet in enumerate(R.Q.base.facets)}
    J = lorentz.LorentzForm(R.dim).matrix
    A = np.array([R.normals[pos[i]] @ J for i in sorted(vertex)])
    _, _, Vt = np.linalg.svd(A)
    x = Vt[-1]
    if abs(x[0]) > 1e-12:
        x = x / x[0]
    return x


def open_conditions_oracle(index, p):
    """The E3/E4 sign and E4 product conditions of U-membership, one pair at
    a time: (signs_ok, open_ok, failure messages in report order)."""
    a = p.cartan()
    pos = index.pos
    failures = []
    signs_ok = True
    for i, j in index.e3 + index.e4:
        if not (a[pos[i], pos[j]] < 0 and a[pos[j], pos[i]] < 0):
            signs_ok = False
            failures.append(f"non-negative entry on pair ({i},{j})")
    open_ok = True
    for i, j in index.e4:
        prod = a[pos[i], pos[j]] * a[pos[j], pos[i]]
        if not prod > 4.0:
            open_ok = False
            failures.append(f"open condition fails on ({i},{j}): product {prod:.6f}")
    return signs_ok, open_ok, failures


def seed_structure_oracle(P):
    """The prism and two-ring detections of the seed library, from
    ``P.adjacent`` and ``P.neighbors`` queries: (prism, loebell)."""

    def cyclic_order(ring):
        order = [min(ring)]
        rest = set(ring) - {order[0]}
        while rest:
            nxt = sorted(x for x in rest if P.adjacent(order[-1], x))
            if not nxt:
                return None
            order.append(nxt[0])
            rest.remove(nxt[0])
        return order if P.adjacent(order[0], order[-1]) else None

    def prism():
        for a in sorted(P.facets):
            others = [x for x in P.facets if x != a]
            non = [x for x in others if not P.adjacent(a, x)]
            if len(non) != 1:
                continue
            b = non[0]
            sides = [x for x in others if x != b]
            if all(P.adjacent(b, x) and len(P.neighbors(x)) == 4 for x in sides):
                return a, b, cyclic_order(sides)
        return None

    def loebell():
        if P.f < 10 or P.f % 2 != 0:
            return None
        m = (P.f - 2) // 2
        caps = [x for x in sorted(P.facets) if len(P.neighbors(x)) == m] or sorted(P.facets)
        for top in caps:
            U = P.neighbors(top)
            if len(U) != m:
                continue
            rest = [x for x in P.facets if x != top and x not in U]
            bottoms = [x for x in rest if not any(P.adjacent(x, u) for u in U)]
            if len(bottoms) != 1:
                continue
            bottom = bottoms[0]
            W = P.neighbors(bottom)
            if len(W) != m or set(W) != set(rest) - {bottom}:
                continue
            upper = cyclic_order(U)
            if upper is None:
                continue
            lower = []
            for j in range(m):
                common = [w for w in W
                          if P.adjacent(w, upper[j - 1]) and P.adjacent(w, upper[j])]
                if len(common) != 1:
                    lower = None
                    break
                lower.append(common[0])
            if lower:
                return top, bottom, upper, lower
        return None

    return prism(), loebell()


def face_boundary_oracle(P, facet):
    """``face_boundary`` with each facet's ridges found by scanning every
    ridge of P, in the iteration order of ``P.ridges``."""
    incident = [r for r in P.ridges if facet in r]
    if not incident:
        raise pt.CombinatoricsError(f"facet {facet} has no ridges")
    by_vertex = {}
    for r in incident:
        for k in P.ridge_endpoints(r):
            by_vertex.setdefault(k, []).append(r)
    cycle = [incident[0]]
    vertex = P.ridge_endpoints(incident[0])[0]
    for _ in incident:
        a, b = P.ridge_endpoints(cycle[-1])
        vertex = b if a == vertex else a
        step = [r for r in by_vertex[vertex] if r != cycle[-1]]
        if len(step) != 1:
            raise pt.CombinatoricsError(f"facet {facet} boundary is not a cycle")
        cycle.append(step[0])
    if cycle[-1] != cycle[0] or len(set(cycle)) != len(incident):
        raise pt.CombinatoricsError(f"facet {facet} boundary is not a single cycle")
    return cycle[:-1]


def neighbours_oracle(P, i):
    """The neighbours of facet i, by scanning every facet against the ridges."""
    return sorted(j for j in P.facets if j != i and tuple(sorted((i, j))) in P.ridges)


def nonadjacent_oracle(P):
    """Every facet pair (i, j), i < j, that is not a ridge, by scanning all
    f^2 ordered pairs."""
    return sorted((i, j) for i in P.facets for j in P.facets
                  if i < j and (i, j) not in P.ridges)


def enumerate_perfect_matchings(P):
    """Exhaustive matching enumeration on the 1-skeleton (oracle)."""
    edges = sorted(P.ridges)
    endpoints = {r: P.ridge_endpoints(r) for r in edges}
    nverts = len(P.vertices)

    def rec(covered, chosen):
        if len(covered) == nverts:
            yield frozenset(chosen)
            return
        v = min(set(range(nverts)) - covered)
        for r in edges:
            a, b = endpoints[r]
            if v in (a, b) and a not in covered and b not in covered:
                yield from rec(covered | {a, b}, chosen + [r])

    return set(rec(set(), []))


def brute_force_weak_order(Q):
    """Try every facet permutation (f <= 8)."""
    for perm in itertools.permutations(sorted(Q.base.facets)):
        if ob.check_weak_ordering(Q, perm):
            return perm
    return None


def interior_point_oracle(p, tol=1e-9):
    """Reference decision for a common point v with alpha_i(v) > 0: maximize
    the margin t subject to alpha_i(v) >= t and v in [-1, 1]^(n+1) by linear
    programming (independent of the library's eigenvector certificates)."""
    from scipy.optimize import linprog

    scale = max(np.abs(p.alphas).max(), 1e-30)
    A_ub = np.hstack([-p.alphas, np.ones((p.f, 1))])
    c = np.zeros(p.dim + 1)
    c[-1] = -1.0
    bounds = [(-1, 1)] * p.dim + [(None, 1)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(p.f), bounds=bounds, method="highs")
    return bool(res.success and -res.fun > tol * scale)


def assignment_validity_oracle(P, d):
    """Validity of order assignments in {2..d}, from 1/m sums over sorted
    vertex triples and over the circuits of ``prismatic_oracle`` (shares no
    table with the library's exact engine).  The floating-point sums run in
    the canonical circuit order the library uses, so a circuit summing to 1
    rounds as it does there.  Returns ``ok(digits)``, where ``digits`` are
    per-edge arrays of order - 2 over the sorted edges."""
    pos = {r: t for t, r in enumerate(sorted(P.ridges))}
    inv = np.array([1.0 / m for m in range(2, d + 1)])
    s3 = inv[:, None, None] + inv[None, :, None] + inv[None, None, :]
    tests = []
    for V in P.vertices:
        a, b, c = sorted(V)
        tests.append((s3 > 1.0, (pos[a, b], pos[a, c], pos[b, c])))
    for k, table in ((3, s3 < 1.0), (4, s3[..., None] + inv < 2.0)):
        for cyc in sorted(prismatic_oracle(P, k)):
            tests.append((table, tuple(pos[tuple(sorted((cyc[t], cyc[(t + 1) % k])))]
                                       for t in range(k))))

    def ok(digits):
        out = np.ones(np.shape(digits[0]), dtype=bool)
        for table, idx in tests:
            out &= table[tuple(digits[t] for t in idx)]
        return out

    return ok


def ids_of(ids, mask):
    """The items of ``ids`` whose bits are set in ``mask``, in order."""
    return tuple(i for k, i in enumerate(ids) if mask >> k & 1)


def bitmask_peel(ids, pairs, n):
    """The weak-order peel of the graph on ``ids`` with edge list ``pairs``,
    by rescanning neighbour bitmasks (bit k for ``ids[k]``) from the lowest
    index at every step.  Returns the removal order as pairs (index, bitmask
    of neighbours still present) and the bitmask left when stuck (0 on
    success).  Shares no code with ``polytope.greedy_peel``."""
    pos = {i: k for k, i in enumerate(ids)}
    adj = [0] * len(ids)
    for i, j in pairs:
        adj[pos[i]] |= 1 << pos[j]
        adj[pos[j]] |= 1 << pos[i]
    remaining = (1 << len(ids)) - 1
    order = []
    while remaining:
        k = next((k for k in range(len(ids)) if remaining >> k & 1
                  and (adj[k] & remaining).bit_count() <= n), None)
        if k is None:
            return order, remaining
        order.append((k, adj[k] & remaining))
        remaining ^= 1 << k
    return order, 0


def peel_oracle(P, edge_sets):
    """Weak orderability of P with order 2 on exactly the edges of each set
    in ``edge_sets``, by one ``bitmask_peel`` per set."""
    ids = tuple(sorted(P.facets))
    return np.array([not bitmask_peel(ids, Z, 3)[1] for Z in edge_sets], dtype=bool)


def qualifying_sets_full_rank(ordering, alphas):
    """Whether the covectors ``alphas[j]`` of every qualifying set of a weak
    ordering have full numerical rank, which is general position."""
    return all(numerical_rank(np.array([alphas[j] for j in F])).rank == len(F)
               for F in ordering.qualifying.values() if F)


def mask_edge_sets(P):
    """Every set of edges of P, in the order of the bitmasks 0 .. 2^e - 1
    (bit t for the t-th sorted edge)."""
    edges = sorted(P.ridges)
    return (ids_of(edges, m) for m in range(1 << len(edges)))


def row_edge_sets(P, order2):
    """The edges marked in each row of the boolean ``order2`` (one column per
    sorted edge)."""
    edges = sorted(P.ridges)
    return ([r for r, z in zip(edges, row) if z] for row in np.asarray(order2, dtype=bool))


def exact_counts_oracle(P, d):
    """(valid, weakly orderable, N_j) by brute force over all (d-1)^e order
    assignments, in chunks; N_j counts valid assignments with j orders >= 7.
    Weak orderability of every order-2 edge set comes from ``peel_oracle``
    (the sequential peel, which the mask-peel tests check against
    ``brute_force_weak_order``), not from the batched verdict under test."""
    ok = assignment_validity_oracle(P, d)
    e = P.e
    wo_table = peel_oracle(P, mask_edge_sets(P))
    k = d - 1
    total = k ** e
    weights = np.array([k ** t for t in range(e)], dtype=np.int64)
    valid = wo = 0
    nj = np.zeros(e + 1, dtype=np.int64)
    chunk = 1 << 21
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = [(ids // weights[t]) % k for t in range(e)]
        keep = ok(digits)
        digits = [dg[keep] for dg in digits]
        valid += int(keep.sum())
        zero_mask = np.zeros(digits[0].shape, dtype=np.int64)
        big = np.zeros(digits[0].shape, dtype=np.int64)
        for t in range(e):
            zero_mask |= (digits[t] == 0).astype(np.int64) << t
            big += digits[t] >= 5  # order >= 7
        wo += int(wo_table[zero_mask].sum())
        nj += np.bincount(big, minlength=e + 1)
    return valid, wo, [int(n) for n in nj]


PAIR_OK = {(a, b): Fraction(1, a) + Fraction(1, b) > Fraction(1, 2)
           for a in range(3, 6) for b in range(3, 6)}


@functools.lru_cache(maxsize=None)
def chain_count_oracle(d, pins, closed):
    """Orders in 3..min(d, 5) along a path or cycle of edges, consecutive
    ones (and the last and first of a cycle) with 1/a + 1/b > 1/2 as a
    ``Fraction`` (``PAIR_OK``); ``pins[i]`` fixes edge i's order or is None.
    A dynamic programme in Python integers, one run per order of the first
    edge."""
    orders, ok = range(3, min(d, 5) + 1), PAIR_OK
    allowed = [[c for c in orders if p is None or p == c] for p in pins]
    total = 0
    for first in allowed[0]:
        ways = {first: 1}
        for opts in allowed[1:]:
            ways = {c: sum(n for a, n in ways.items() if ok[a, c]) for c in opts}
        total += sum(n for a, n in ways.items() if not closed or ok[a, first])
    return total


def edge_set_counts_oracle(counter, mask):
    """``counter.counts(mask)`` from the counter's paths and its circuit
    test, with the per-combination pinned loop it used before: one dict of
    pins per passing class combination, each path of two or more edges
    counted by ``chain_count_oracle`` and each isolated pinned edge of class
    7 weighted d - 6 where it is met.  A free isolated edge takes any of the
    min(d, 6) - 2 orders in 3..6 or, weighted d - 6, the class 7."""
    d = counter.model.d
    classes, pair_classes = tuple(range(3, min(d, 7) + 1)), tuple(range(3, min(d, 5) + 1))
    const, free, pinned = 1, 0, []
    for comp, closed in counter._components(mask):
        if counter.circuit_edges.intersection(comp):
            pinned.append((comp, closed))
        elif len(comp) == 1:
            free += 1
        else:
            const *= chain_count_oracle(d, (None,) * len(comp), closed)
    pins = [t for comp, _ in pinned for t in comp if t in counter.circuit_edges]
    isolated = {comp[0] for comp, _ in pinned if len(comp) == 1}
    combos = list(itertools.product(*(classes if t in isolated else pair_classes for t in pins)))
    orders = np.tile([2 if mask >> t & 1 else 3 for t in range(counter.e)], (len(combos), 1))
    orders[:, pins] = np.reshape(combos, (len(combos), len(pins)))
    pinned_counts = {}
    for combo, good in zip(combos, counter.model.circuits_ok(orders).tolist()):
        if not good:
            continue
        pin = dict(zip(pins, combo))
        n, big = 1, 0
        for comp, closed in pinned:
            if len(comp) > 1:
                n *= chain_count_oracle(d, tuple(pin.get(t) for t in comp), closed)
            elif pin[comp[0]] == 7:
                n *= d - 6
                big += 1
        if n:
            pinned_counts[big] = pinned_counts.get(big, 0) + n
    out = {}
    for big, n in pinned_counts.items():
        for j in range(free + 1):
            out[big + j] = out.get(big + j, 0) + (
                const * n * math.comb(free, j)
                * (min(d, 6) - 2) ** (free - j) * max(d - 6, 0) ** j)
    return {j: n for j, n in out.items() if n}


def backward_counts_oracle(sampler):
    """The sampler's vertex DP over the five order classes {2}, {3}, {4},
    {5} and {6..d} (cut to 2..d), in Python integers, by one fancy-indexed
    gather per combination of new classes over flat codes: ``counts[t][code]``
    is the weighted number of vertex-valid completions from step t, with the
    five-class index of open slot s as base-k digit s of ``code`` (least
    significant first).  The vertex kernel comes from ``Fraction`` sums of
    1/m and the class weights from the order bound; only the sampler's
    elimination steps are read."""
    d = sampler.model.d
    orders = list(range(2, min(d, 6) + 1))
    k = len(orders)
    weight = [1] * k
    if d >= 6:
        weight[-1] = d - 5
    inv = [Fraction(1, m) for m in orders]
    ok = np.array([[[inv[a] + inv[b] + inv[c] > 1 for c in range(k)]
                    for b in range(k)] for a in range(k)])
    counts = [None] * (len(sampler.steps) + 1)
    counts[-1] = np.array([1], dtype=object)
    for t in range(len(sampler.steps) - 1, -1, -1):
        step = sampler.steps[t]
        pre = len(step.arr) + len(step.keep)
        codes = np.arange(k ** pre, dtype=np.int64)
        arr_cls = [(codes // k ** s) % k for s in step.arr]
        keep_slots = [s for s in range(pre) if s not in step.arr]
        base = np.zeros(len(codes), dtype=np.int64)
        for newpos, s in enumerate(keep_slots):
            base += ((codes // k ** s) % k) * k ** newpos
        total = np.zeros(len(codes), dtype=object)
        for combo in itertools.product(range(k), repeat=len(step.new)):
            triple = arr_cls + [np.full(len(codes), c, dtype=np.int64) for c in combo]
            w = math.prod(weight[c] for c in combo)
            post = base.copy()
            for j, c in enumerate(combo):
                post += c * k ** (len(keep_slots) + j)
            total += np.where(ok[triple[0], triple[1], triple[2]], counts[t + 1][post], 0) * w
        counts[t] = total
    return counts


def count_table_slots(sampler, t):
    """The slots open before step t, in the order the flat index of the
    sampler's ``counts[t]`` reads them as base-k digits, most significant
    first.  By the documented layout these are the slots step t - 1 opened,
    then those it kept, each in slot order; none before step 0 and after
    the last step."""
    if t == 0:
        return []
    kept, opened = len(sampler.steps[t - 1].keep), len(sampler.steps[t - 1].new)
    return list(range(kept, kept + opened)) + list(range(kept))


def count_table_entry(sampler, t, classes):
    """The sampler's ``counts[t]`` at ``classes``, the class of each slot open
    before step t in slot order."""
    code = 0
    for s in count_table_slots(sampler, t):
        code = code * sampler.nclasses + classes[s]
    return sampler.counts[t].flat[code]


def vertex_valid_rows_oracle(sampler, u):
    """The sampler's forward pass row by row: at each step, the weight of
    every combination of new classes, in C order of the new edges, is its
    kernel entry (the product of its class sizes, or 0 where a vertex class
    triple fails 1/a + 1/b + 1/c > 1 at the classes' lowest orders) times
    ``counts[t + 1]`` read through :func:`count_table_entry`; the pick is
    ``searchsorted(cumsum(w), u * total, side="right")``.  Each class then
    expands to low + floor(u * size).  The classes come from the order
    bound, not from the sampler."""
    d = sampler.model.d
    low = [m for m in (2, 3, 4, 6) if m <= d]
    size = [float(min(high, d) - m + 1) for m, high in zip(low, (2, 3, 5, d))]
    k = len(low)
    ok = {c: sum(Fraction(1, low[i]) for i in c) > 1
          for c in itertools.product(range(k), repeat=3)}
    steps = sampler.steps
    out = np.empty((len(u), len(sampler.model.edges)), dtype=np.int64)
    for i, row in enumerate(u):
        cls = [None] * out.shape[1]
        slots = []  # the class of each open slot
        for t, (arr, keep, new) in enumerate(steps):
            kept = [slots[s] for s in keep]
            combos = list(itertools.product(range(k), repeat=len(new)))
            w = []
            for combo in combos:
                weight = 1.0
                for c in combo:
                    weight *= size[c]
                kernel = weight if ok[tuple(slots[s] for s in arr) + combo] else 0.0
                w.append(kernel * count_table_entry(sampler, t + 1, kept + list(combo)))
            cum = np.cumsum(w)
            combo = combos[np.searchsorted(cum, row[t] * cum[-1], side="right")]
            for pos, c in zip(new, combo):
                cls[pos] = c
            slots = kept + list(combo)
        for s, c in enumerate(cls):
            out[i, s] = low[c] + int(row[len(steps) + s] * size[c])
    return out


def plan_steps_oracle(model):
    """The sampler's elimination steps in two passes: a greedy vertex order
    (most already-open incident edges first, then fewest edges still to
    open, then lowest index), then the open-edge boundary along it, with
    the vertex-edge incidence rebuilt from ``P.ridge_endpoints``."""
    P = model.P
    incident = {k: [] for k in range(len(P.vertices))}
    for r in P.ridges:
        a, b = P.ridge_endpoints(r)
        incident[a].append(r)
        incident[b].append(r)
    order = []
    open_edges = set()
    remaining = set(range(len(P.vertices)))
    while remaining:
        def key(w):
            arriving = len(set(incident[w]) & open_edges)
            return (-arriving, len(set(incident[w]) - open_edges), w)
        w = min(remaining, key=key)
        remaining.remove(w)
        order.append(w)
        open_edges ^= set(incident[w])
    steps = []
    boundary = []
    for w in order:
        arr = tuple(boundary.index(r) for r in incident[w] if r in boundary)
        new = sorted(r for r in incident[w] if r not in boundary)
        keep = tuple(s for s in range(len(boundary)) if s not in arr)
        steps.append((arr, keep, tuple(model.edge_pos[r] for r in new)))
        boundary = [boundary[s] for s in keep] + new
    assert not boundary
    return steps


def random_parity_labels(P, rng):
    """Uniform random labeling with odd sums at every vertex: free values on
    non-tree edges, tree edges solved leaf-up."""
    import networkx as nx

    G = skeleton(P)
    T = nx.minimum_spanning_tree(G)
    labels = {}
    for a, b, data in G.edges(data=True):
        if not T.has_edge(a, b):
            labels[data["ridge"]] = int(rng.integers(0, 2))
    root = 0
    order = list(nx.dfs_postorder_nodes(T, root))
    ridge_of = {tuple(sorted((a, b))): G.edges[a, b]["ridge"] for a, b in G.edges}
    parent = {root: None}
    for a, b in nx.bfs_edges(T, root):
        parent[b] = a
    for v in order:
        if v == root:
            continue
        incident = [ridge_of[tuple(sorted((v, w)))] for w in G.neighbors(v)]
        pending = ridge_of[tuple(sorted((v, parent[v])))]
        s = sum(labels[r] for r in incident if r != pending)
        labels[pending] = (1 - s) % 2
    # the root's sum is forced odd by parity: v is even and each edge flips two
    return labels


# -- family curves: per-point determinants and all-cells contouring -------------

def family_matrix_oracle(family, *params):
    """A(params) of a ``ParametrizedFamily`` for scalar parameters."""
    if len(params) != family.nparams:
        raise vinberg.VinbergError(f"family takes {family.nparams} parameters")
    A = family.base.copy()
    for (i, j), prod, t in zip(family.param_pairs, family.products, params):
        if t <= 0:
            raise vinberg.VinbergError("family parameters must be positive")
        A[i - 1, j - 1] = -t
        A[j - 1, i - 1] = -prod / t
    return A


def det_grid_oracle(family, xs, ys):
    """det A(x, y) on the grid, one row of stacked matrices at a time."""
    values = np.empty((len(ys), len(xs)))
    for r, y in enumerate(ys):
        values[r] = np.linalg.det(np.stack([family_matrix_oracle(family, x, y) for x in xs]))
    return values


def marching_squares_oracle(xs, ys, values):
    """``marching_squares`` visiting every cell in row-major order."""

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


def curve_csv_oracle(samples):
    """The ``curve`` CSV of ``CurveSamples``, formatted one cell at a time."""
    lines = ["x,y,det"]
    for r, y in enumerate(samples.ys):
        for c, x in enumerate(samples.xs):
            lines.append(f"{x:.12g},{y:.12g},{samples.values[r, c]:.12g}")
    return "\n".join(lines) + "\n"
