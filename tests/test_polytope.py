import itertools
import random

import numpy as np
import pytest

from coxdeform import bundled, polytope as pt
from conftest import (enumerate_dual_cycles, face_boundary_oracle, greedy_truncation_oracle,
                      neighbours_oracle, nonadjacent_oracle, planar_dual_vertices_oracle,
                      prismatic_oracle, random_truncation, reverse_truncation_oracle,
                      three_connected_planar_oracle)


def cube_description():
    P = pt.cube()
    return {"n": 3, "facets": list(P.facets),
            "ridges": [list(r) for r in sorted(P.ridges)],
            "vertices": [sorted(V) for V in P.vertices]}


def test_simplex_counts():
    P = pt.simplex(3)
    assert (P.f, P.e, P.v) == (4, 6, 4)


def test_build_from_description():
    P = pt.build_combinatorics(cube_description())
    assert (P.f, P.e, P.v) == (6, 12, 8)


def test_named_facets():
    doc = {"n": 3, "facets": ["a", "b", "c", "d"],
           "ridges": [["a", "b"], ["a", "c"], ["a", "d"],
                      ["b", "c"], ["b", "d"], ["c", "d"]]}
    P = pt.build_combinatorics(doc)
    # names map to ids 1..f in listed order: ridge ["a", "b"] is (1, 2)
    assert P.facets == (1, 2, 3, 4)
    assert sorted(P.ridges) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_broken_cube_rejected():
    doc = cube_description()
    doc["ridges"] = doc["ridges"][:-1]  # drop one ridge: a vertex pair loses it
    with pytest.raises(pt.CombinatoricsError):
        pt.build_combinatorics(doc)


def test_nonsimple_vertex_rejected():
    doc = cube_description()
    doc["vertices"][0] = doc["vertices"][0] + [5]
    with pytest.raises(pt.CombinatoricsError):
        pt.build_combinatorics(doc)


def test_dangling_ridge_rejected():
    with pytest.raises(pt.CombinatoricsError):
        pt.PolytopeCombinatorics(3, [1, 2, 3], [(1, 4)], [])


def test_vertices_reconstructed_for_3d():
    doc = cube_description()
    del doc["vertices"]
    P = pt.build_combinatorics(doc)
    assert set(P.vertices) == set(pt.cube().vertices)


def _vertexless_document(P, rng):
    """P without vertices, facets renamed and every list shuffled."""
    names = [f"F{k}" for k in range(P.f)]
    rng.shuffle(names)
    rename = dict(zip(P.facets, names))
    facets = [rename[i] for i in P.facets]
    rng.shuffle(facets)
    ridges = [[rename[i], rename[j]] if rng.random() < 0.5 else [rename[j], rename[i]]
              for i, j in sorted(P.ridges)]
    rng.shuffle(ridges)
    return {"n": 3, "facets": facets, "ridges": ridges}


def test_vertex_reconstruction_matches_planar_dual_oracle():
    # the reconstructed vertices are the faces of networkx's planar
    # embedding; truncations have separating facet triangles to reject
    rng, cuts_rng = random.Random(9), np.random.default_rng(9)
    cases = [pt.loebell(m) for m in (4, 5, 8, 16, 64, 128)] + [pt.doubled_cube()]
    cases += [pt.prism(m) for m in (3, 4, 16, 64)]
    cases += [random_truncation(base, cuts, cuts_rng)
              for base in (pt.simplex(3), pt.cube(), pt.dodecahedron(), pt.loebell(8))
              for cuts in (1, 3, 8, 20)]
    separating = 0
    for P in cases:
        doc = _vertexless_document(P, rng)
        Q = pt.build_combinatorics(doc)
        ids = {name: k for k, name in enumerate(doc["facets"], start=1)}
        oracle = planar_dual_vertices_oracle(
            list(ids.values()), [(ids[a], ids[b]) for a, b in doc["ridges"]])
        assert set(Q.vertices) == oracle and len(Q.vertices) == len(P.vertices)
        assert list(Q.vertices) == sorted(Q.vertices, key=sorted)
        separating += sum(1 for _ in pt._dual_cycles(Q, 3)) - len(Q.vertices)
    assert separating > 40


@pytest.mark.parametrize("gen,f,e,v", [
    (pt.cube, 6, 12, 8),
    (pt.dodecahedron, 12, 30, 20),
    (lambda: pt.prism(3), 5, 9, 6),
    (lambda: pt.prism(6), 8, 18, 12),
    (lambda: pt.loebell(6), 14, 36, 24),
    (lambda: pt.loebell(8), 18, 48, 32),
    (pt.doubled_cube, 9, 21, 14),
])
def test_builtin_generators(gen, f, e, v):
    P = gen()
    assert (P.f, P.e, P.v) == (f, e, v)
    assert 2 * P.e == 3 * P.v and P.v - P.e + P.f == 2


def test_delta_invariant_values():
    assert pt.delta_invariant(pt.simplex(3)) == 0
    assert pt.delta_invariant(pt.esselmann_polytope()) == 1
    for gen in (pt.cube, pt.dodecahedron, pt.doubled_cube,
                lambda: pt.prism(5), lambda: pt.loebell(7)):
        assert pt.delta_invariant(gen()) == 0


def test_prismatic_circuit_examples():
    assert len(pt.prismatic_circuits(pt.prism(3), 3)) == 1
    assert len(pt.prismatic_circuits(pt.cube(), 4)) == 3
    assert pt.prismatic_circuits(pt.cube(), 3) == []
    for m in (5, 6, 7):
        assert pt.prismatic_circuits(pt.loebell(m), 3) == []
        assert pt.prismatic_circuits(pt.loebell(m), 4) == []
    assert pt.prismatic_circuits(pt.doubled_cube(), 3) == [(1, 2, 3)]


def test_prismatic_circuits_against_oracle():
    rng = np.random.default_rng(11)
    polytopes = [gen() for gen in (
        pt.cube, pt.dodecahedron, pt.doubled_cube, lambda: pt.prism(3),
        lambda: pt.prism(5), lambda: pt.prism(8), lambda: pt.loebell(6),
        lambda: pt.loebell(8))]
    polytopes += [random_truncation(base, cuts, rng)
                  for base in (pt.prism(4), pt.loebell(4)) for cuts in (1, 2, 3)]
    for P in polytopes:
        for k in (3, 4):
            assert set(pt.prismatic_circuits(P, k)) == prismatic_oracle(P, k)


def test_prismatic_circuits_are_cached():
    # the cache is a tuple of tuples built once, equal to a fresh
    # enumeration; callers get a list they may change freely
    rng = np.random.default_rng(12)
    polytopes = [Q.base for Q in map(bundled.load_builtin, bundled.BUILTIN_NAMES) if Q.n == 3]
    polytopes += [pt.dodecahedron(), pt.prism(3), pt.loebell(8)]
    polytopes += [random_truncation(base, cuts, rng)
                  for base in (pt.cube(), pt.dodecahedron(), pt.prism(4)) for cuts in (1, 3, 5)]
    for P in polytopes:
        for k in (3, 4):
            cached = P.prismatic(k)
            assert isinstance(cached, tuple) and all(type(c) is tuple for c in cached)
            assert P.prismatic(k) is cached
            assert list(cached) == pt._enumerate_prismatic(P, k)
            assert set(cached) == prismatic_oracle(P, k)
            listed = pt.prismatic_circuits(P, k)
            listed.append((0,) * k)
            assert P.prismatic(k) is cached and len(cached) == len(listed) - 1
    assert any(P.prismatic(3) for P in polytopes) and any(P.prismatic(4) for P in polytopes)


def test_circuit_bad_k():
    with pytest.raises(pt.CombinatoricsError):
        pt.prismatic_circuits(pt.cube(), 5)


def test_dual_cycles_cover_oracle():
    # each cycle comes once, already in the oracle's canonical form
    for P in (pt.prism(4), pt.cube(), pt.loebell(5), pt.dodecahedron()):
        for k in (3, 4):
            lib = list(pt._dual_cycles(P, k))
            assert len(lib) == len(set(lib))
            assert set(lib) == enumerate_dual_cycles(P, k)


def test_truncate_simplex_once_and_twice():
    import networkx as nx

    P = pt.truncate_vertex(pt.simplex(3), 0)
    assert (P.f, P.e) == (5, 9)
    assert nx.is_isomorphic(nx.Graph(list(P.ridges)), nx.Graph(list(pt.prism(3).ridges)))
    P2 = pt.truncate_vertex(P, 0)
    assert (P2.f, P2.e) == (6, 12)


def test_truncate_preserves_delta():
    rng = np.random.default_rng(1)
    P = pt.simplex(3)
    for _ in range(4):
        P = pt.truncate_vertex(P, int(rng.integers(len(P.vertices))))
        assert pt.delta_invariant(P) == 0


def test_truncate_dimension_four():
    P = pt.esselmann_polytope()
    T = pt.truncate_vertex(P, 0)
    assert T.f == P.f + 1 and T.e == P.e + 4  # new simplex facet: n new ridges
    assert pt.delta_invariant(T) == pt.delta_invariant(P)


def test_truncate_bad_vertex():
    with pytest.raises(pt.CombinatoricsError):
        pt.truncate_vertex(pt.simplex(3), 99)


def test_truncation_recognition():
    assert pt.is_truncation_polytope(pt.simplex(3)).is_truncation
    assert pt.is_truncation_polytope(pt.simplex(3)).history == []
    assert not pt.is_truncation_polytope(pt.cube()).is_truncation
    witness = pt.is_truncation_polytope(pt.esselmann_polytope())
    assert not witness.is_truncation and witness.method == "delta"


def test_truncation_recognition_iterated():
    rng = np.random.default_rng(7)
    for trial in range(3):
        P = pt.simplex(3)
        for _ in range(int(rng.integers(1, 5))):
            P = pt.truncate_vertex(P, int(rng.integers(len(P.vertices))))
        witness = pt.is_truncation_polytope(P)
        assert witness.is_truncation
        assert witness.method == "combinatorial recognition"
        # replay the witness: un-truncating in the listed order ends at a simplex
        assert len(witness.history) == P.f - 4


def test_truncation_recognition_matches_backtracking_oracle():
    # the greedy peel returns the backtracking search's witness, history included
    rng = np.random.default_rng(11)
    outcomes = set()
    for base in (pt.simplex(3), pt.prism(3), pt.cube(), pt.prism(5), pt.loebell(5)):
        for cuts in range(5):
            for _ in range(3):
                P = random_truncation(base, cuts, rng)
                witness = pt.is_truncation_polytope(P)
                assert witness == reverse_truncation_oracle(P)
                outcomes.add(witness.is_truncation)
    assert outcomes == {True, False}


def test_truncation_recognition_matches_greedy_rebuild_oracle():
    # deciding in the facet graph gives the witness of rebuilding and
    # validating the polytope at every step, history included
    rng = np.random.default_rng(23)
    outcomes = set()
    for base in (pt.simplex(3), pt.cube(), pt.prism(5), pt.dodecahedron()):
        for cuts in (0, 1, 2, 5, 12, 30, 60):
            P = random_truncation(base, cuts, rng)
            witness = pt.is_truncation_polytope(P)
            assert witness == greedy_truncation_oracle(P), (base.f, cuts)
            outcomes.add(witness.is_truncation)
    assert outcomes == {True, False}


def test_truncation_recognition_cube_with_seven_corners_cut():
    # the backtracking search tries every un-truncation order here
    P = pt.cube()
    for V in pt.cube().vertices[:7]:
        P = pt.truncate_vertex(P, V)
    assert not pt.is_truncation_polytope(P).is_truncation


def test_face_boundary_cycles():
    P = pt.cube()
    for facet in P.facets:
        cyc = P.face_boundary(facet)
        assert len(cyc) == 4 and all(facet in r for r in cyc)
    assert len(pt.dodecahedron().face_boundary(1)) == 5
    assert len(pt.doubled_cube().face_boundary(1)) == 6


def test_face_boundary_matches_ridge_scan():
    rng = np.random.default_rng(17)
    cases = [Q.base for Q in map(bundled.load_builtin, bundled.BUILTIN_NAMES) if Q.n == 3]
    cases += [pt.loebell(64), pt.prism(9)]
    cases += [random_truncation(cases[k % len(cases)], 1 + k % 4, rng) for k in range(12)]
    for P in cases:
        for facet in P.facets:
            assert P.face_boundary(facet) == face_boundary_oracle(P, facet)
    for bad in (0, max(P.facets) + 1):
        with pytest.raises(pt.CombinatoricsError, match="has no ridges"):
            P.face_boundary(bad)


def test_face_boundary_rejects_two_cycles():
    # merge the dodecahedron's two disjoint caps: facet 1 now has two 5-cycles
    P = pt.dodecahedron()

    def ren(i):
        return 1 if i == 2 else i

    Q = pt.PolytopeCombinatorics(
        3, [i for i in P.facets if i != 2], {pt._pair(ren(a), ren(b)) for a, b in P.ridges},
        [frozenset(map(ren, V)) for V in P.vertices], validate=False)
    with pytest.raises(pt.CombinatoricsError, match="single cycle"):
        Q.face_boundary(1)


# the 10 triangles of the 6-vertex (hemi-icosahedral) triangulation of RP^2
HEMI_ICOSAHEDRON = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


def _hemi_dodecahedron(shift=0):
    """Facets 1-6 (plus shift), all 15 pairs as ridges, the hemi-icosahedron
    triangles as vertices: a cellulation of RP^2 with the Petersen skeleton."""
    ids = range(1 + shift, 7 + shift)
    return (list(ids), list(itertools.combinations(ids, 2)),
            [frozenset(i + shift for i in T) for T in HEMI_ICOSAHEDRON])


def _two_dodecahedra_caps_merged():
    """Two dodecahedra whose top caps are one facet and whose bottom caps are
    another: two facets bounded by two 5-cycles each (a torus)."""
    P = pt.dodecahedron()

    def ren(i, shift):
        return i if i in (1, 2) else i + shift

    facets = [1, 2] + [ren(i, s) for s in (0, 10) for i in P.facets if i > 2]
    ridges = [(ren(a, s), ren(b, s)) for s in (0, 10) for a, b in P.ridges]
    vertices = [frozenset(ren(i, s) for i in V) for s in (0, 10) for V in P.vertices]
    return facets, ridges, vertices


def _two_hemi_dodecahedra():
    # each copy has chi = 1; together v - e + f = 20 - 30 + 12 = 2
    (f1, r1, v1), (f2, r2, v2) = _hemi_dodecahedron(), _hemi_dodecahedron(6)
    return f1 + f2, r1 + r2, v1 + v2


@pytest.mark.parametrize("build,message", [
    (_hemi_dodecahedron, "Euler"),                  # RP^2: non-planar Petersen skeleton
    (_two_hemi_dodecahedra, "disconnected"),        # chi = 2, but two components
    (_two_dodecahedra_caps_merged, "single cycle"),  # chi = 2, but a torus
])
def test_non_spheres_rejected(build, message):
    # every ridge has two ends, no multi-edge, cubic: only the surface checks fail
    facets, ridges, vertices = build()
    raw = pt.PolytopeCombinatorics(3, facets, ridges, vertices, validate=False)
    assert all(len(raw.ridge_endpoints(r)) == 2 for r in raw.ridges)
    assert 2 * raw.e == 3 * raw.v
    assert not three_connected_planar_oracle(raw)
    with pytest.raises(pt.CombinatoricsError, match=message):
        pt.PolytopeCombinatorics(3, facets, ridges, vertices)


def _merge_across(P, ridge):
    """Facets, ridges and vertices of P with ``ridge`` deleted and its two
    facets merged, unchecked: often not a polytope."""
    F, G = ridge

    def ren(i):
        return F if i == G else i

    u, v = P.ridge_endpoints(ridge)
    ridges = {pt._pair(ren(a), ren(b)) for a, b in P.ridges if (a, b) != ridge}
    vertices = [frozenset(map(ren, V)) for k, V in enumerate(P.vertices) if k not in (u, v)]
    return [i for i in P.facets if i != G], ridges, vertices


def _accepts(build, *args):
    try:
        build(*args)
    except pt.CombinatoricsError:
        return False
    return True


def _build_document(facets, ridges):
    return pt.build_combinatorics({"n": 3, "facets": facets,
                                   "ridges": [list(r) for r in sorted(ridges)]})


def test_validator_agrees_with_oracle():
    # random truncations of prisms and Loebell polytopes, and every single-edge
    # merge of them (both outcomes occur), with vertices and without
    rng = np.random.default_rng(5)
    outcomes = set()
    for base in (pt.prism(3), pt.prism(5), pt.loebell(4), pt.loebell(5)):
        for cuts in (0, 2, 3):
            P = random_truncation(base, cuts, rng)
            assert three_connected_planar_oracle(P)
            Q = _build_document(list(P.facets), P.ridges)
            assert set(Q.vertices) == set(P.vertices)
            for r in sorted(P.ridges):
                data = _merge_across(P, r)
                expected = three_connected_planar_oracle(
                    pt.PolytopeCombinatorics(3, *data, validate=False))
                assert _accepts(lambda *a: pt.PolytopeCombinatorics(3, *a), *data) == expected
                assert _accepts(_build_document, *data[:2]) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_esselmann_combinatorics():
    P = pt.esselmann_polytope()
    assert (P.n, P.f, P.e, len(P.vertices)) == (4, 6, 15, 9)
    for V in P.vertices:
        assert len(V) == 4


def test_higher_dimensional_polytope_needs_its_vertices():
    # nothing is reconstructed for n >= 4, so the vertex list is required;
    # each ridge, a simple (n-2)-polytope, lies on at least n - 1 of them
    rng = np.random.default_rng(5)
    bases = [pt.simplex(n) for n in (4, 5, 6)] + [pt.esselmann_polytope()]
    for P in bases + [random_truncation(P, cuts, rng) for P in bases for cuts in range(1, 7)]:
        assert min(len(P.ridge_endpoints(r)) for r in P.ridges) >= P.n - 1
    P = pt.esselmann_polytope()
    with pytest.raises(pt.CombinatoricsError, match="a 4-polytope needs its vertex list"):
        pt.PolytopeCombinatorics(4, P.facets, P.ridges)
    with pytest.raises(pt.CombinatoricsError,
                       match=r"ridge \(1, 2\) lies on 2 vertices, expected at least 3"):
        pt.PolytopeCombinatorics(4, P.facets, P.ridges,
                                 [V for V in P.vertices if V != {1, 2, 4, 5}])


def _adjacency_cases():
    """Bundled bases, prism(3..16), loebell(5..16) and random truncations,
    each also with its facet list shuffled."""
    rng = np.random.default_rng(17)
    cases = [bundled.load_builtin(name).base for name in bundled.BUILTIN_NAMES]
    cases += [pt.prism(m) for m in range(3, 17)] + [pt.loebell(m) for m in range(5, 17)]
    cases += [random_truncation(base, cuts, rng)
              for base in (pt.simplex(3), pt.cube(), pt.dodecahedron()) for cuts in (1, 3, 6)]
    shuffled = [pt.PolytopeCombinatorics(P.n, [P.facets[k] for k in rng.permutation(P.f)],
                                         P.ridges, P.vertices) for P in cases]
    return cases + shuffled


def test_adjacency_tables_match_scans():
    for P in _adjacency_cases():
        for i in P.facets:
            assert sorted(P.nbrs[i]) == P.neighbors(i) == neighbours_oracle(P, i)
        assert list(P.nonadjacent_pairs) == nonadjacent_oracle(P)
        assert P.nonadjacent_pairs is P.nonadjacent_pairs  # built once
