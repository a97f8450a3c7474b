"""Combinatorics of simple polytopes: facets, ridges, vertices, dual-graph
circuits, the invariant delta_P, and truncation-polytope recognition.

Facets are labelled by integers 1..f.  A ridge is an unordered pair of
adjacent facets, stored as a sorted tuple ``(i, j)`` with ``i < j``.  A vertex
of a simple n-polytope is the set of the n facets through it, stored as a
frozenset.  For n = 3 the 1-skeleton (vertices joined by ridges) must be a
simple, planar, 3-connected cubic graph.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from coxdeform.errors import CombinatoricsError


def _pair(i, j):
    return (i, j) if i < j else (j, i)


def missing_pairs(ids, pairs):
    """The pairs (i, j), i < j, of ``ids`` that are not in the set ``pairs``
    of sorted pairs, in sorted order."""
    return [p for p in itertools.combinations(sorted(ids), 2) if p not in pairs]


class PolytopeCombinatorics:
    """Validated facet/ridge/vertex data of a simple n-polytope.

    Treat instances as immutable after construction: derived tables are built
    once and read by every layer.  ``nbrs`` maps each facet to the frozenset
    of its neighbours; ``nonadjacent_pairs``, the sorted facet pairs that are
    not ridges, and ``prismatic(k)``, the prismatic k-circuits, are computed
    on first use and cached as tuples.  Use
    :func:`build_combinatorics` or one of the built-in generators rather than
    calling the constructor with unchecked data.
    """

    def __init__(self, n, facets, ridges, vertices=None, names=None, validate=True):
        self.n = int(n)
        self.facets = tuple(facets)
        self.ridges = frozenset(_pair(i, j) for i, j in ridges)
        self.names = dict(names) if names else {i: str(i) for i in self.facets}
        nbrs = {i: set() for i in self.facets}
        incident = {}  # each facet's ridges, in the iteration order of ridges
        for r in self.ridges:
            i, j = r
            nbrs.setdefault(i, set()).add(j)
            nbrs.setdefault(j, set()).add(i)
            incident.setdefault(i, []).append(r)
            incident.setdefault(j, []).append(r)
        self.nbrs = {i: frozenset(js) for i, js in nbrs.items()}
        self._incident_ridges = incident
        if vertices is not None:
            self.vertices = tuple(frozenset(v) for v in vertices)
        elif self.n == 3:
            self.vertices = _vertices_from_planar_dual(self)
        else:
            self.vertices = None
        self._ridge_vertices = None
        self._prismatic = {}
        if self.vertices is not None:
            ends = {r: [] for r in self.ridges}
            for k, V in enumerate(self.vertices):
                for r in itertools.combinations(sorted(V), 2):
                    if r in ends:
                        ends[r].append(k)
            self._ridge_vertices = {r: tuple(ks) for r, ks in ends.items()}
        if validate:
            self._validate()

    # -- basic counts -------------------------------------------------------

    @property
    def f(self):
        return len(self.facets)

    @property
    def e(self):
        return len(self.ridges)

    @property
    def v(self):
        return len(self.vertices) if self.vertices is not None else None

    def adjacent(self, i, j):
        return _pair(i, j) in self.ridges

    def neighbors(self, i):
        return sorted(self.nbrs[i])

    @functools.cached_property
    def nonadjacent_pairs(self):
        return tuple(missing_pairs(self.facets, self.ridges))

    def prismatic(self, k):
        """The prismatic k-circuits of :func:`prismatic_circuits` as a tuple,
        enumerated on first use."""
        found = self._prismatic.get(k)
        if found is None:
            found = self._prismatic[k] = tuple(_enumerate_prismatic(self, k))
        return found

    def ridge_endpoints(self, ridge):
        """Indices (into .vertices) of the vertices on a ridge. Two for n=3."""
        return self._ridge_vertices[_pair(*ridge)]

    def face_boundary(self, facet):
        """Ridges of one facet of a 3-polytope, in cyclic order; raises
        CombinatoricsError unless they form a single cycle."""
        if self.n != 3:
            raise CombinatoricsError("face cycles are only defined for n=3")
        incident = self._incident_ridges.get(facet, [])
        if not incident:
            raise CombinatoricsError(f"facet {facet} has no ridges")
        by_vertex = {}
        for r in incident:
            for k in self.ridge_endpoints(r):
                by_vertex.setdefault(k, []).append(r)
        # walk once around; the walk must close having met every ridge once
        cycle = [incident[0]]
        vertex = self.ridge_endpoints(incident[0])[0]
        for _ in incident:
            a, b = self.ridge_endpoints(cycle[-1])
            vertex = b if a == vertex else a
            step = [r for r in by_vertex[vertex] if r != cycle[-1]]
            if len(step) != 1:
                raise CombinatoricsError(f"facet {facet} boundary is not a cycle")
            cycle.append(step[0])
        if cycle[-1] != cycle[0] or len(set(cycle)) != len(incident):
            raise CombinatoricsError(f"facet {facet} boundary is not a single cycle")
        return cycle[:-1]

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if self.n < 3:
            raise CombinatoricsError("dimension must be >= 3")
        if len(set(self.facets)) != len(self.facets):
            raise CombinatoricsError("duplicate facet ids")
        fset = set(self.facets)
        for i, j in self.ridges:
            if i == j or i not in fset or j not in fset:
                raise CombinatoricsError(f"ridge ({i},{j}) has dangling or equal ids")
        if self.vertices is not None:
            for V in self.vertices:
                if len(V) != self.n:
                    raise CombinatoricsError(
                        f"vertex {sorted(V)} has {len(V)} facets, expected {self.n} (non-simple)")
                if not V <= fset:
                    raise CombinatoricsError(f"vertex {sorted(V)} has dangling facet ids")
                for i, j in itertools.combinations(sorted(V), 2):
                    if not self.adjacent(i, j):
                        raise CombinatoricsError(
                            f"facets {i},{j} share vertex {sorted(V)} but are not a ridge")
            if len(set(self.vertices)) != len(self.vertices):
                raise CombinatoricsError("duplicate vertices")
        if self.n == 3:
            self._validate_skeleton_3d()

    def _validate_skeleton_3d(self):
        # Conditions (E1)-(E2): simple, planar, 3-connected, cubic, shown from
        # the facets themselves.  Glue a disk into each facet cycle: every
        # ridge borders two facets and the three facets at a vertex close up
        # around it, so this is a closed surface.  It is connected, and with
        # v - e + f = 2 it is a sphere, so the skeleton is planar.  Two facets
        # meet in their ridge or not at all (the facets at a vertex are
        # pairwise ridges), so the embedding is polyhedral, and the graph of
        # a polyhedral embedding in the sphere is 3-connected (Whitney 1932;
        # Mohar-Thomassen, Graphs on Surfaces, polyhedral embeddings).
        v, e, f = len(self.vertices), len(self.ridges), len(self.facets)
        if v - e + f != 2:
            raise CombinatoricsError(f"Euler relation fails: v-e+f = {v - e + f}")
        if 2 * e != 3 * v:
            raise CombinatoricsError("skeleton is not cubic (2e != 3v)")
        endpoint_pairs = set()
        for r, ends in self._ridge_vertices.items():
            if len(ends) != 2:
                raise CombinatoricsError(f"ridge {r} lies on {len(ends)} vertices, expected 2")
            if ends in endpoint_pairs:
                raise CombinatoricsError(f"two ridges share endpoints {ends} (multi-edge)")
            endpoint_pairs.add(ends)
        if _separates(self, ()):
            raise CombinatoricsError("skeleton is disconnected")
        for i in self.facets:
            self.face_boundary(i)


def _vertices_from_planar_dual(P):
    """Reconstruct vertex sets of a simple 3-polytope from facet adjacency.

    The facet graph of a simple 3-polytope is a 3-connected planar
    triangulation whose faces are the polytope vertices, and the faces of a
    3-connected planar graph are its induced cycles that do not separate it
    (Tutte 1963, "How to draw a graph").  Every edge of a triangulation lies
    on exactly two faces, so a triangle with an edge on only two triangles is
    a face, and only the others are tested for separation.  Input that is not
    a polytope gives some triangle list that ``_validate`` rejects.
    """
    triangles = sorted(_dual_cycles(P, 3))
    on_edge = {}
    for t in triangles:
        for r in itertools.combinations(t, 2):
            on_edge[r] = on_edge.get(r, 0) + 1
    return tuple(frozenset(t) for t in triangles
                 if any(on_edge[r] == 2 for r in itertools.combinations(t, 2))
                 or not _separates(P, t))


def _separates(P, cut):
    """Whether the facet graph without the facets ``cut`` is disconnected."""
    start = next((i for i in P.facets if i not in cut), None)
    if start is None:
        return False
    seen = set(cut) | {start}
    stack = [start]
    while stack:
        for j in P.nbrs[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) < P.f


def build_combinatorics(raw):
    """Build a validated :class:`PolytopeCombinatorics` from a plain mapping.

    ``raw`` has keys ``n``, ``facets`` (list of ids or names), ``ridges``
    (list of pairs) and optionally ``vertices`` (list of facet lists).
    String facet names are mapped to ids 1..f in listed order.
    """
    try:
        n = int(raw["n"])
        facet_entries = list(raw["facets"])
        ridge_entries = list(raw["ridges"])
    except (KeyError, TypeError) as exc:
        raise CombinatoricsError(f"malformed polytope description: {exc}") from exc
    ids = {}
    names = {}
    for k, entry in enumerate(facet_entries, start=1):
        ids[entry] = k
        names[k] = str(entry)
    if len(ids) != len(facet_entries):
        raise CombinatoricsError("duplicate facet entries")

    def facet_id(entry):
        if entry in ids:
            return ids[entry]
        raise CombinatoricsError(f"unknown facet {entry!r}")

    ridges = [(facet_id(a), facet_id(b)) for a, b in ridge_entries]
    vertices = raw.get("vertices")
    if vertices is not None:
        vertices = [frozenset(facet_id(x) for x in V) for V in vertices]
    return PolytopeCombinatorics(n, sorted(ids.values()), ridges, vertices, names)


# -- invariants and operations ----------------------------------------------

def delta_invariant(P):
    """e - n*f + n(n+1)/2; zero for simple 3-polytopes and truncation polytopes."""
    n = P.n
    return P.e - n * P.f + n * (n + 1) // 2


def prismatic_circuits(P, k):
    """All prismatic k-circuits of a simple 3-polytope, k in {3, 4}.

    A k-circuit is a k-cycle in the dual graph; it is prismatic when the k
    crossed polytope edges have pairwise distinct endpoints.  Circuits are
    returned as a new sorted list of tuples of facet ids in a canonical
    cyclic order, copied from the polytope's cache (``P.prismatic(k)``).
    """
    return list(P.prismatic(k))


def _enumerate_prismatic(P, k):
    if k not in (3, 4):
        raise CombinatoricsError("only 3- and 4-circuits are supported")
    if P.n != 3:
        raise CombinatoricsError("prismatic circuits are defined for n=3")
    found = {}
    for cyc in _dual_cycles(P, k):
        crossed = [_pair(cyc[t], cyc[(t + 1) % k]) for t in range(k)]
        ends = [w for r in crossed for w in P.ridge_endpoints(r)]
        if len(set(ends)) == 2 * k:
            found[_canonical_cycle(cyc)] = tuple(crossed)
    return sorted(found.keys())


def _dual_cycles(P, k):
    """Every k-cycle of the dual graph, from neighbour sets, starting at its
    smallest facet (a 4-cycle comes once in each orientation)."""
    nbrs = P.nbrs
    for a in P.facets:
        for b in (x for x in nbrs[a] if x > a):
            if k == 3:
                yield from ((a, b, c) for c in nbrs[a] & nbrs[b] if c > b)
                continue
            for c in (x for x in nbrs[b] if x > a):
                yield from ((a, b, c, d) for d in nbrs[a] & nbrs[c] if d > a and d != b)


def _canonical_cycle(cyc):
    k = len(cyc)
    best = None
    for seq in (cyc, tuple(reversed(cyc))):
        for s in range(k):
            rot = tuple(seq[(s + t) % k] for t in range(k))
            if best is None or rot < best:
                best = rot
    return best


def truncate_vertex(P, vertex):
    """Cut one vertex: a new simplex facet appears, adjacent to the n facets
    that met there.  ``vertex`` is an index into ``P.vertices`` or a facet set.
    """
    if isinstance(vertex, int):
        if P.vertices is None or not 0 <= vertex < len(P.vertices):
            raise CombinatoricsError(f"invalid vertex index {vertex}")
        V = P.vertices[vertex]
    else:
        V = frozenset(vertex)
        if P.vertices is None or V not in P.vertices:
            raise CombinatoricsError(f"{sorted(V)} is not a vertex")
    new_id = max(P.facets) + 1
    facets = P.facets + (new_id,)
    ridges = set(P.ridges) | {_pair(i, new_id) for i in V}
    vertices = [W for W in P.vertices if W != V]
    for T in itertools.combinations(sorted(V), P.n - 1):
        vertices.append(frozenset(T) | {new_id})
    names = dict(P.names)
    names[new_id] = f"cut{new_id}"
    return PolytopeCombinatorics(P.n, facets, ridges, vertices, names)


@dataclass
class TruncationWitness:
    is_truncation: bool
    history: list = field(default_factory=list)
    method: str = "combinatorial recognition"

    def __bool__(self):
        return self.is_truncation


def is_truncation_polytope(P):
    """Decide whether P is an iterated vertex truncation of a simplex.

    For n >= 4 this is the statement delta_P = 0.  For n = 3 a greedy
    reverse-truncation peel is run; on success the witness history lists the
    facets removed, in reverse-truncation order down to the simplex.
    """
    if P.n >= 4:
        return TruncationWitness(delta_invariant(P) == 0, [], method="delta")
    return _reverse_truncation_search(P)


def _is_simplex(P):
    return P.f == P.n + 1 and P.e == P.f * (P.f - 1) // 2


def _reverse_truncation_search(P):
    """Un-truncate the lowest qualifying facet until a simplex remains.

    The dual of a truncation 3-polytope is a stacked triangulation (a planar
    3-tree).  In a planar 3-tree with more than 4 vertices every degree-3
    vertex is simplicial, and removing it leaves a planar 3-tree.  So
    un-truncation is confluent: any qualifying facet may go first, and one
    greedy pass decides membership without backtracking.
    """
    history = []
    while not _is_simplex(P):
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
                P = _untruncate(P, facet, restored)
            except CombinatoricsError:
                continue
            history.append(facet)
            break
        else:
            return TruncationWitness(False, [])
    return TruncationWitness(True, history)


def _untruncate(P, facet, restored):
    facets = tuple(i for i in P.facets if i != facet)
    ridges = {r for r in P.ridges if facet not in r}
    vertices = [V for V in P.vertices if facet not in V]
    vertices.append(restored)
    names = {i: P.names[i] for i in facets}
    return PolytopeCombinatorics(P.n, facets, ridges, vertices, names)


# -- built-in generators -----------------------------------------------------

def simplex(n):
    """The n-simplex: n+1 facets, every pair a ridge."""
    facets = range(1, n + 2)
    ridges = itertools.combinations(facets, 2)
    vertices = [frozenset(V) for V in itertools.combinations(facets, n)]
    return PolytopeCombinatorics(n, facets, ridges, vertices)


def prism(m):
    """The m-gonal prism: facets 1 (top), 2 (bottom), 3..m+2 (sides)."""
    if m < 3:
        raise CombinatoricsError("prism needs m >= 3")
    sides = [3 + i for i in range(m)]
    ridges = []
    vertices = []
    for i in range(m):
        s, t = sides[i], sides[(i + 1) % m]
        ridges += [(1, s), (2, s), (s, t)]
        vertices += [frozenset({1, s, t}), frozenset({2, s, t})]
    names = {1: "top", 2: "bottom"}
    names.update({s: f"side{i}" for i, s in enumerate(sides)})
    return PolytopeCombinatorics(3, [1, 2] + sides, ridges, vertices, names)


def cube():
    """The 3-cube (combinatorially the 4-prism)."""
    P = prism(4)
    P.names[1], P.names[2] = "top", "bottom"
    return P


def loebell(m):
    """The Loebell polytope L(m): two m-gons and 2m pentagons.

    Facets: 1 (top m-gon), 2 (bottom m-gon), 3..m+2 (upper ring U_0..U_{m-1}),
    m+3..2m+2 (lower ring W_0..W_{m-1}); U_i meets W_i and W_{i+1}.
    L(5) is the dodecahedron.
    """
    if m < 4:
        raise CombinatoricsError("loebell needs m >= 4")
    U = [3 + i for i in range(m)]
    W = [3 + m + i for i in range(m)]
    ridges = []
    vertices = []
    for i in range(m):
        j = (i + 1) % m
        ridges += [(1, U[i]), (2, W[i]), (U[i], U[j]), (W[i], W[j]),
                   (U[i], W[i]), (U[i], W[j])]
        vertices += [frozenset({1, U[i], U[j]}), frozenset({2, W[i], W[j]}),
                     frozenset({U[i], W[i], W[j]}), frozenset({U[i], U[j], W[j]})]
    names = {1: "top", 2: "bottom"}
    names.update({U[i]: f"U{i}" for i in range(m)})
    names.update({W[i]: f"W{i}" for i in range(m)})
    return PolytopeCombinatorics(3, [1, 2] + U + W, ridges, vertices, names)


def dodecahedron():
    return loebell(5)


def doubled_cube():
    """A cube truncated at one vertex and doubled across the triangle.

    Nine facets: the three hexagons 1, 2, 3 (fused pairs of pentagons, crossing
    the gluing locus) and six squares, 4-6 from one half and 7-9 from the other.
    The three hexagon/hexagon ridges form the unique prismatic 3-circuit.
    """
    # Square k+3 (resp. k+6) is the half-1 (resp. half-2) square opposite
    # hexagon k's generating cube facet; it is adjacent to the other two.
    ridges = [(1, 2), (1, 3), (2, 3)]
    vertices = []
    for base, squares in ((0, (4, 5, 6)), (0, (7, 8, 9))):
        s_ab, s_bc, s_ac = squares
        a, b, c = 1, 2, 3
        ridges += [(a, s_ab), (b, s_ab), (b, s_bc), (c, s_bc), (a, s_ac), (c, s_ac),
                   (s_ab, s_bc), (s_ab, s_ac), (s_bc, s_ac)]
        vertices += [frozenset({s_ab, s_bc, s_ac}),
                     frozenset({a, b, s_ab}), frozenset({b, c, s_bc}),
                     frozenset({a, c, s_ac}), frozenset({a, s_ab, s_ac}),
                     frozenset({b, s_ab, s_bc}), frozenset({c, s_bc, s_ac})]
    names = {1: "A", 2: "B", 3: "C", 4: "x_ab", 5: "x_bc", 6: "x_ac",
             7: "y_ab", 8: "y_bc", 9: "y_ac"}
    return PolytopeCombinatorics(3, range(1, 10), set(ridges), vertices, names)


def esselmann_polytope():
    """The product of two triangles: a simple 4-polytope with 6 facets.

    Facets 1-3 come from the edges of one triangle and 4-6 from the other;
    every pair of facets is a ridge, and the 9 vertices are the pairs
    {i,j} x {k,l}.  delta_P = 15 - 24 + 10 = 1.
    """
    facets = range(1, 7)
    ridges = itertools.combinations(facets, 2)
    vertices = []
    for i, j in itertools.combinations((1, 2, 3), 2):
        for k, l in itertools.combinations((4, 5, 6), 2):
            vertices.append(frozenset({i, j, k, l}))
    return PolytopeCombinatorics(4, facets, ridges, vertices)


BUILTIN_POLYTOPES = {
    "simplex3": lambda: simplex(3),
    "cube": cube,
    "dodecahedron": dodecahedron,
    "doubled_cube": doubled_cube,
    "esselmann": esselmann_polytope,
}
