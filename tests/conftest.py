import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from coxdeform import bundled, cartan, lorentz, matchstats, orbifold as ob, polytope as pt, vinberg
from coxdeform.numerics import DEFAULT_RANK_POLICY, numerical_rank


@pytest.fixture(scope="session")
def tetra_orbifold():
    return bundled.load_builtin("tetrahedron353")


@pytest.fixture(scope="session")
def tetra_realization(tetra_orbifold):
    return lorentz.realize_simplex(tetra_orbifold)


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
    sorted vertex triples whose sum is not above 1, and the circuits of
    ``prismatic_oracle`` whose sum is not below 1 (k = 3) or 2 (k = 4)."""
    def total(orders):
        return sum(Fraction(1, m) for m in orders)

    def crossed(cyc):
        return [Q.order(cyc[t], cyc[(t + 1) % len(cyc)]) for t in range(len(cyc))]

    vertices = {tuple(sorted(V)) for V in Q.base.vertices
                if not total(Q.order(i, j) for i, j in itertools.combinations(sorted(V), 2)) > 1}
    circuits = {k: {cyc for cyc in prismatic_oracle(Q.base, k) if not total(crossed(cyc)) < k - 2}
                for k in (3, 4)}
    return vertices, circuits[3], circuits[4]


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


def factor_mask(P, factor):
    """A factor as a hex bit mask over ``sorted(P.ridges)``."""
    bit = {r: k for k, r in enumerate(sorted(P.ridges))}
    return format(sum(1 << bit[r] for r in factor), "x")


def reverse_truncation_oracle(P, history=()):
    """Backtracking search over every un-truncation order of a 3-polytope
    (no memo, so factorial on "no" answers): the witness of the first order
    that ends at a simplex, else a negative witness."""
    if pt._is_simplex(P):
        return pt.TruncationWitness(True, list(history))
    for facet in sorted(P.facets):
        nbrs = P.neighbors(facet)
        if len(nbrs) != P.n:
            continue
        restored = frozenset(nbrs)
        if not all(P.adjacent(i, j) for i, j in itertools.combinations(nbrs, 2)):
            continue
        if restored in P.vertices:
            continue
        try:
            Q = pt._untruncate(P, facet, restored)
        except pt.CombinatoricsError:
            continue
        result = reverse_truncation_oracle(Q, list(history) + [facet])
        if result:
            return result
    return pt.TruncationWitness(False, [])


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


def dense_gram_oracle(M):
    """fl(W W^t) for the short side W of M, by one dense product."""
    W = M if M.shape[0] <= M.shape[1] else M.T
    return W @ W.T


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
    adj = cartan._nonzero_graph(a, cartan.ENTRY_TOL * max(np.abs(a).max(), 1.0))
    out = []
    for comp in cartan._components(adj, p.f):
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


def reduced_rank_oracle(Q, p, policy=DEFAULT_RANK_POLICY):
    """Numerical rank of the rank-sum reduction of D phi, with the row and
    column operations written out as matrices: R = L (D phi) C.  Both are
    invertible, so this equals rank(D phi) whenever the ranks are decided."""
    index = vinberg.EquationIndex.from_orbifold(Q)
    M = vinberg.phi_jacobian(index, p)
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
    return numerical_rank(L @ M @ C, policy).rank


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


def peel_oracle(P, edge_sets):
    """Weak orderability of P with order 2 on exactly the edges of each set
    in ``edge_sets``, by one sequential ``orbifold.greedy_peel`` per set."""
    ids = tuple(sorted(P.facets))
    return np.array([not ob.greedy_peel(ob.bitmask_adjacency(ids, Z), 3)[1]
                     for Z in edge_sets], dtype=bool)


def mask_edge_sets(P):
    """Every set of edges of P, in the order of the bitmasks 0 .. 2^e - 1
    (bit t for the t-th sorted edge)."""
    edges = sorted(P.ridges)
    return (ob.ids_of(edges, m) for m in range(1 << len(edges)))


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
