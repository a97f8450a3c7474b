import copy
import itertools
import json
import math
import pathlib
import time
import types
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from coxdeform import bundled, matchstats as ms, orbifold as ob, polytope as pt
from conftest import (assignment_validity_oracle, backward_counts_oracle,
                      brute_force_weak_order, count_table_slots, edge_delete,
                      edge_set_counts_oracle,
                      enumerate_perfect_matchings, exact_counts_oracle, factor_corpus,
                      factor_mask, find_factor_oracle,
                      mask_edge_sets, peel_oracle, plan_steps_oracle, random_parity_labels,
                      random_truncation, removable_edges_oracle, row_edge_sets,
                      traced_peak, vertex_valid_rows_oracle,
                      weak_order_induction_oracle)

FACTOR_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "factors.json"


def test_find_factor_simplex():
    P = pt.simplex(3)  # skeleton K4
    for edge in sorted(P.ridges):
        factor = ms.find_factor(P, edge)
        assert len(factor) == 2 and edge in factor
        assert ms.is_factor(P, factor)


def test_cube_matching_census():
    P = pt.cube()
    matchings = enumerate_perfect_matchings(P)
    assert len(matchings) == 9
    for edge in sorted(P.ridges):
        containing = [m for m in matchings if edge in m]
        assert len(containing) == 3
        factor = ms.find_factor(P, edge)
        assert frozenset(factor) in matchings and edge in factor


def test_find_factor_dodecahedron():
    P = pt.dodecahedron()
    for edge in sorted(P.ridges)[::7]:
        factor = ms.find_factor(P, edge)
        assert ms.is_factor(P, factor) and edge in factor


def test_find_factor_rejects_non_edge():
    with pytest.raises(ms.GraphConditionError):
        ms.find_factor(pt.cube(), (1, 2))  # caps are not adjacent


def corpus_factors():
    """{case id: hex masks of ``find_factor`` over the forced ridges} on
    ``factor_corpus``."""
    return {cid: [factor_mask(P, ms.find_factor(P, e)) for e in edges]
            for cid, P, edges in factor_corpus()}


def test_find_factor_matches_golden():
    # tests/golden/factors.json holds the factors of networkx's matcher,
    # which find_factor replaced; which factor is chosen decides whether
    # Newton converges from the two-ring seed, so the choice is pinned
    golden = json.loads(FACTOR_GOLDEN.read_text(encoding="utf-8"))
    assert corpus_factors() == golden
    assert sum(map(len, golden.values())) > 1500


def test_find_factor_matches_networkx_oracle():
    rng = np.random.default_rng(11)
    cases = [pt.dodecahedron(), pt.loebell(9)]
    cases += [random_truncation(pt.prism(6), 5, rng) for _ in range(3)]
    for P in cases:
        for edge in sorted(P.ridges):
            assert ms.find_factor(P, edge) == find_factor_oracle(P, edge)


def _random_graphs(rng, count):
    """Seeded gnp and 3-regular graphs, rebuilt with their node and edge
    lists shuffled and each edge in a random orientation."""
    import networkx as nx

    out = []
    for k in range(count):
        n = int(rng.integers(1, 15)) * 2 + k % 2
        seed = int(rng.integers(2 ** 31))
        if k % 3 == 0 and n % 2 == 0 and n >= 4:
            G = nx.random_regular_graph(3, n, seed=seed)
        else:
            G = nx.gnp_random_graph(n, float(rng.uniform(0.05, 0.5)), seed=seed)
        nodes = [int(v) for v in rng.permutation(list(G))]
        edge_list = list(G.edges)
        edges = [(a, b) if rng.random() < 0.5 else (b, a)
                 for a, b in (edge_list[t] for t in rng.permutation(len(edge_list)))]
        H = nx.Graph()
        H.add_nodes_from(nodes)
        H.add_edges_from(edges)
        out.append(H)
    return out


def test_maximum_matching_size_matches_networkx():
    import networkx as nx

    sizes = Counter()
    for H in _random_graphs(np.random.default_rng(3), 300):
        nodes = list(H)
        mate = ms._maximum_matching(nodes, {v: list(H.neighbors(v)) for v in nodes})
        assert all(mate[mate[v]] == v != mate[v] and H.has_edge(v, mate[v]) for v in mate)
        want = len(nx.max_weight_matching(H, maxcardinality=True))
        assert len(mate) == 2 * want
        sizes[2 * want == len(nodes)] += 1
    assert sizes[True] > 50 and sizes[False] > 50  # perfect and imperfect both occur


def test_find_factor_reports_a_missing_matching():
    # two K4s, each with edge (0, 1) subdivided by vertex 4, joined by a
    # bridge between the subdivision vertices: every perfect matching takes
    # the bridge, so none contains (0, 4).  Only the skeleton is given.
    half = [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = half + [(a + 5, b + 5) for a, b in half] + [(4, 9)]
    P = types.SimpleNamespace(n=3, ridges=frozenset(edges), vertices=[frozenset()] * 10,
                              ridge_endpoints=lambda r: r)
    with pytest.raises(ms.GraphConditionError, match="no perfect matching found"):
        ms.find_factor(P, (0, 4))


def test_removable_edges_cube():
    P = pt.cube()
    for face in P.facets:
        edges = ms.removable_edges(P, face)
        assert len(edges) >= 2
        for e in edges:
            Q = edge_delete(P, e)  # re-validates (E1) internally
            assert Q.f == P.f - 1 and Q.e == P.e - 3


def test_removable_edges_match_trial_deletion():
    # the facet-graph rule equals a trial edge_delete on every boundary ridge
    rng = np.random.default_rng(29)
    polytopes = [bundled.load_builtin(name).base for name in bundled.BUILTIN_NAMES]
    polytopes += [pt.prism(m) for m in range(3, 13)] + [pt.loebell(m) for m in range(5, 13)]
    for base in (pt.simplex(3), pt.cube(), pt.prism(5), pt.dodecahedron()):
        polytopes += [random_truncation(base, cuts, rng) for cuts in range(1, 16)]
    for P in polytopes:
        if P.n != 3 or P.e <= 6:
            continue
        for face in P.facets:
            assert ms.removable_edges(P, face) == removable_edges_oracle(P, face)


def test_facet_graph_decisions_build_no_polytope(monkeypatch):
    P = random_truncation(pt.simplex(3), 12, np.random.default_rng(31))
    Q = random_truncation(pt.dodecahedron(), 3, np.random.default_rng(31))
    labels = ms.labels_from_factor(Q, ms.find_factor(Q, min(Q.ridges)))
    built = []
    init = pt.PolytopeCombinatorics.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pt.PolytopeCombinatorics, "__init__", counting_init)
    assert pt.is_truncation_polytope(P).is_truncation
    assert not pt.is_truncation_polytope(Q).is_truncation
    for face in Q.facets:
        ms.removable_edges(Q, face)
    ms.construct_weak_order(Q, labels)
    assert built == []


def test_removable_edges_too_small():
    with pytest.raises(ms.GraphConditionError):
        ms.removable_edges(pt.simplex(3), 1)


def test_removable_edges_prism_square_face():
    P = pt.prism(3)
    edges = ms.removable_edges(P, 3)  # a square side
    assert len(edges) >= 2
    boundary = set(P.face_boundary(3))
    assert set(edges) <= boundary


def test_edge_delete_preserves_label_conditions():
    P = pt.cube()
    rng = np.random.default_rng(17)
    labels = random_parity_labels(P, rng)
    graph = ms.EdgeLabeledGraph(P, labels)
    for face in P.facets:
        for e in ms.removable_edges(P, face):
            work = dict(graph.labels)
            if work[e] == 0:
                for r in P.face_boundary(face if face in e else e[0]):
                    work[r] = 1 - work[r]
            if work[e] == 0:
                continue
            Q, sub = edge_delete(P, e, work)
            ms.EdgeLabeledGraph(Q, sub)  # all structural conditions hold
            return


def test_labels_from_factor_satisfy_parity():
    P = pt.dodecahedron()
    factor = ms.find_factor(P, sorted(P.ridges)[0])
    labels = ms.labels_from_factor(P, factor)
    ms.EdgeLabeledGraph(P, labels)


def test_construct_weak_order_base_case():
    P = pt.simplex(3)
    labels = ms.labels_from_factor(P, ms.find_factor(P, (1, 2)))
    ordering = ms.construct_weak_order(P, labels)
    assert ms.validate_face_order(P, labels, ordering)


def test_construct_weak_order_from_orbifold_orders(tetra_orbifold):
    labels = {r: (0 if m == 2 else 1) for r, m in tetra_orbifold.orders.items()}
    ordering = ms.construct_weak_order(tetra_orbifold.base, labels)
    assert ms.validate_face_order(tetra_orbifold.base, labels, ordering)


def test_construct_weak_order_dodecahedron_factor():
    P = pt.dodecahedron()
    labels = ms.labels_from_factor(P, ms.find_factor(P, sorted(P.ridges)[0]))
    ordering = ms.construct_weak_order(P, labels)
    assert ms.validate_face_order(P, labels, ordering)


@pytest.mark.parametrize("gen", [
    pt.cube, lambda: pt.prism(3), lambda: pt.prism(5), pt.dodecahedron, lambda: pt.loebell(6),
    # cut corners give separating triangles, so some ridges are not removable
    lambda: random_truncation(pt.cube(), 4, np.random.default_rng(3)),
    lambda: random_truncation(pt.dodecahedron(), 6, np.random.default_rng(5))])
def test_construct_weak_order_random_labelings(gen):
    P = gen()
    rng = np.random.default_rng(P.f)
    for _ in range(25):
        labels = random_parity_labels(P, rng)
        ordering = ms.construct_weak_order(P, labels)
        assert ms.validate_face_order(P, labels, ordering)
        assert ordering == weak_order_induction_oracle(P, labels)


def test_construct_weak_order_large_loebell():
    # one facet per step without recursion: L(500) has 1002 facets
    P = pt.loebell(500)
    labels = ms.labels_from_factor(P, ms.find_factor(P, min(P.ridges)))
    ordering = ms.construct_weak_order(P, labels)
    assert sorted(ordering) == sorted(P.facets)
    assert ms.validate_face_order(P, labels, ordering)


def test_orbifold_from_factor_dodecahedron():
    P = pt.dodecahedron()
    factor = ms.find_factor(P, sorted(P.ridges)[0])
    Q = ms.orbifold_from_factor(P, factor, 7)
    assert ob.counts(Q).eplus == 10
    assert ob.andreev_necessary_check(Q).passed


def test_orbifold_from_factor_rejects_cube():
    P = pt.cube()
    factor = ms.find_factor(P, (1, 3))
    with pytest.raises(ms.GraphConditionError, match="4-circuit"):
        ms.orbifold_from_factor(P, factor, 5)


def test_orbifold_from_factor_loebell6():
    P = pt.loebell(6)
    factor = ms.find_factor(P, sorted(P.ridges)[0])
    Q = ms.orbifold_from_factor(P, factor, 3)
    assert ob.andreev_necessary_check(Q).passed


def test_exact_budget_refusal():
    # the limit is on the 2^e order-2 edge sets, whatever d is
    with pytest.raises(ms.GraphConditionError, match="refused"):
        ms.estimate_wo_fraction(pt.dodecahedron(), 7, mode="exact")
    with pytest.raises(ms.GraphConditionError, match="refused"):
        ms.estimate_wo_fraction(pt.prism(7), 7, mode="exact")  # e = 21
    r30 = ms.estimate_wo_fraction(pt.cube(), 30, mode="exact")
    r7 = ms.estimate_wo_fraction(pt.cube(), 7, mode="exact")
    assert r30.valid_count == sum(r30.nj.values())
    assert r30.nj == {j: n * 24 ** j for j, n in r7.nj.items()}


def _cut_prism():
    P = pt.truncate_vertex(pt.prism(3), 0)
    assert len(pt.prismatic_circuits(P, 3)) == 2
    return P


ORACLE_POLYTOPES = {"simplex3": lambda: pt.simplex(3), "prism3": lambda: pt.prism(3),
                    "cube": pt.cube, "cut_prism3": _cut_prism}


@pytest.mark.parametrize("name,d", [
    *[("simplex3", d) for d in (2, 7, 8, 9)],
    *[("prism3", d) for d in range(2, 8)],
    *[("cube", d) for d in (3, 4)],
    *[("cut_prism3", d) for d in (3, 4)],
])
def test_exact_counts_match_brute_force(name, d):
    # at d = 8 and 9 the orders 7, 8 and 9 are enumerated one by one, so
    # this checks the engine's single weighted ">= 7" class
    P = ORACLE_POLYTOPES[name]()
    assert ms._exact_counts(P, d) == exact_counts_oracle(P, d)


def _masks_without_prefilter(counter):
    """The order-2 edge sets that pass the vertex and 4-circuit tests, as
    ``masks`` listed them before it dropped sets with two edges of one
    prismatic 3-circuit."""
    m = np.arange(1 << counter.e, dtype=np.int64)
    keep = np.ones(len(m), dtype=bool)
    for triple in counter.model.vertex_triples:
        keep &= (m & ms._bits(triple)) != 0
    for c in counter.model.c4:
        keep &= (m & ms._bits(c)) != ms._bits(c)
    return np.flatnonzero(keep).tolist()


@pytest.mark.parametrize("name,cuts,circuits,stride", [
    ("prism3", 0, 1, 1), ("prism3", 2, 3, 1), ("cube", 2, 2, 1), ("cube", 3, 3, 8)])
def test_masks_drop_only_zero_count_sets(name, cuts, circuits, stride):
    """``masks`` drops exactly the sets with two or more edges of one
    prismatic 3-circuit, and the per-set walk counts each of them zero.
    The 21-edge cube is walked on every 8th dropped set, to keep it short."""
    P = random_truncation(ORACLE_POLYTOPES[name](), cuts, np.random.default_rng(1))
    assert len(pt.prismatic_circuits(P, 3)) == circuits
    counter = ms._EdgeSetCounter(ms._AssignmentModel(P, 8))
    before, kept = _masks_without_prefilter(counter), counter.masks()
    z = np.array(before)
    two = np.zeros(len(z), dtype=bool)
    for c in counter.model.c3:
        two |= np.bitwise_count(z & ms._bits(c)) >= 2
    dropped = z[two].tolist()
    assert dropped and kept == z[~two].tolist()
    assert not any(counter.counts(m) for m in dropped[::stride])
    if (name, cuts) == ("prism3", 0):
        # 263 sets before, 91 now: exactly those with a nonzero count
        assert (len(before), len(kept)) == (263, 91)
        assert all(sum(counter.counts(m).values()) for m in kept)


PINNED_POLYTOPES = {
    "prism3": lambda: pt.prism(3), "cut_prism3": _cut_prism,
    "prism3_cut2": lambda: random_truncation(pt.prism(3), 2, np.random.default_rng(2)),
    "cube_cut1": lambda: random_truncation(pt.cube(), 1, np.random.default_rng(1))}


@pytest.mark.parametrize("d", [5, 7, 8, 30])
@pytest.mark.parametrize("name", PINNED_POLYTOPES)
def test_edge_set_counts_match_pinned_loop_oracle(name, d):
    """Every admitted order-2 edge set counts as the per-combination pinned
    loop counts it.  At d >= 8 an isolated pinned edge of class 7 weighs
    d - 6, which no brute-force case reaches on a 3-circuit."""
    P = PINNED_POLYTOPES[name]()
    assert 1 <= len(pt.prismatic_circuits(P, 3)) <= 3
    counter = ms._EdgeSetCounter(ms._AssignmentModel(P, d))
    for mask in counter.masks():
        got = {j: n for j, n in counter.counts(mask).items() if n}
        assert got == edge_set_counts_oracle(counter, mask), mask


def _count_calls(monkeypatch, name):
    """A list that grows by one at each call of ``_AssignmentModel.<name>``."""
    calls, original = [], getattr(ms._AssignmentModel, name)

    def counted(self, *args):
        calls.append(name)
        return original(self, *args)

    monkeypatch.setattr(ms._AssignmentModel, name, counted)
    return calls


def test_exact_recount_reuses_the_count_tables(monkeypatch):
    """The d = 7 recount behind the N_j identity is served the circuit
    verdicts of the count at d = 8 and peels nothing; nothing is kept
    from one call to the next."""
    P = pt.prism(3)
    circuits = _count_calls(monkeypatch, "circuits_ok")
    peels = _count_calls(monkeypatch, "weakly_orderable")
    ms._exact_counts(P, 8)
    alone = len(circuits)
    assert alone and len(peels) == 1
    for _ in range(2):
        circuits.clear()
        peels.clear()
        ms.estimate_wo_fraction(P, 8, mode="exact")
        assert (len(circuits), len(peels)) == (alone, 1)


def test_exact_memo_is_keyed_by_the_classes():
    """One memo serves counters at d = 8, 7 and 4, in either order, and each
    gets the brute-force counts: d = 7 shares the classes of d = 8 but not
    the weight of its class 7, and d = 4 has classes of its own."""
    P = pt.prism(3)
    expected = {d: exact_counts_oracle(P, d) for d in (8, 7, 4)}
    for order in ((8, 7, 4), (4, 7, 8)):
        memo = {}
        for d in order:
            assert ms._exact_counts(P, d, memo) == expected[d], (order, d)
        assert len(memo) == 2


def test_exact_small_prism():
    report = ms.estimate_wo_fraction(pt.prism(3), 4, mode="exact")
    assert report.valid_count > 0
    assert 0.0 <= report.fraction <= 1.0
    # independent recount of the validity for d = 4 by direct looping
    import itertools

    P = pt.prism(3)
    edges = sorted(P.ridges)
    triples = []
    for V in P.vertices:
        Vs = sorted(V)
        triples.append([edges.index((Vs[a], Vs[b]))
                        for a in range(3) for b in range(a + 1, 3)])
    circuit = [edges.index(e) for e in [(3, 4), (3, 5), (4, 5)]]
    count = 0
    for combo in itertools.product((2, 3, 4), repeat=9):
        if all(sum(1.0 / combo[t] for t in tri) > 1 for tri in triples) and \
           sum(1.0 / combo[t] for t in circuit) < 1:
            count += 1
    assert report.valid_count == count


def test_exact_identity_prism():
    r8 = ms.estimate_wo_fraction(pt.prism(3), 8, mode="exact")
    assert r8.identity_checked and r8.identity_holds
    # hand-verifiable strata: with all three laterals of order >= 7 the cap
    # edges are forced to order 2, so N_3(7) = 1 and N_3(8) = 8
    assert r8.nj[3] == 8
    r7 = ms.estimate_wo_fraction(pt.prism(3), 7, mode="exact")
    assert r7.nj[3] == 1 and r7.nj[2] == 15
    assert r8.nj[2] == 15 * 4


def test_montecarlo_matches_exact_prism():
    exact = ms.estimate_wo_fraction(pt.prism(3), 7, mode="exact")
    mc = ms.estimate_wo_fraction(pt.prism(3), 7, mode="montecarlo",
                                 samples=3000, seed=11)
    assert abs(mc.fraction - exact.fraction) <= 3 * max(
        (mc.ci_high - mc.ci_low) / 2, 1e-9) + 1e-9
    # the sampler is exactly uniform: stratum shares match the enumeration
    total = exact.valid_count
    for j, cnt in exact.nj.items():
        p = cnt / total
        got = mc.nj.get(j, 0)
        sigma = np.sqrt(p * (1 - p) * mc.samples)
        assert abs(got - p * mc.samples) <= 4 * sigma + 3


def test_montecarlo_deterministic():
    a = ms.estimate_wo_fraction(pt.prism(3), 7, mode="montecarlo",
                                samples=300, seed=9)
    b = ms.estimate_wo_fraction(pt.prism(3), 7, mode="montecarlo",
                                samples=300, seed=9)
    assert (a.fraction, a.wo_count, a.nj, a.attempts) == \
        (b.fraction, b.wo_count, b.nj, b.attempts)


def test_montecarlo_dodecahedron_runs():
    report = ms.estimate_wo_fraction(pt.dodecahedron(), 7, mode="montecarlo",
                                     samples=400, seed=1)
    assert report.samples == 400
    assert report.ci_low <= report.fraction <= report.ci_high
    assert report.fraction > 0.9


def test_unknown_mode():
    with pytest.raises(ms.GraphConditionError):
        ms.estimate_wo_fraction(pt.cube(), 5, mode="magic")


@pytest.mark.parametrize("d", [20, 10 ** 6])
def test_scaled_count_tables_match_oracle(d):
    # prism(100)'s counts pass 2^512 at d = 20 and float64's range at
    # d = 10^6: the tables are scaled by powers of two, and the count they
    # keep with the summed exponent is the oracle's to rounding
    sampler = ms._UniformValidSampler(ms._AssignmentModel(pt.prism(100), d))
    assert sampler.count_exponent > 0
    assert max(float(np.max(c)) for c in sampler.counts) <= 2.0 ** 512
    exact = int(backward_counts_oracle(sampler)[0][0])
    got = Fraction(float(sampler.counts[0])) * 2 ** sampler.count_exponent
    assert abs(got - exact) <= Fraction(exact, 10 ** 12)
    if d == 20:
        assert sampler.vertex_valid_count == pytest.approx(float(exact), rel=1e-12)
    else:
        assert sampler.vertex_valid_count == math.inf


def test_montecarlo_past_float64_counts():
    # the counts of loebell(40) at d = 10^8 and prism(100) at d = 10^6
    # overflow float64; the sampler draws without a warning, and prism(100)
    # then stops on its circuit rejection rate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ms.estimate_wo_fraction(pt.loebell(40), 10 ** 8, samples=50)
        assert (report.samples, report.attempts, report.nj) == (50, 50, {80: 50})
        with pytest.raises(ms.GraphConditionError, match="circuit rejection rate too high"):
            ms.estimate_wo_fraction(pt.prism(100), 10 ** 6, samples=50)


def test_montecarlo_order_bound():
    """Monte Carlo orders are int64, drawn as low + floor(u * size): d = 2^62
    draws orders up to d, and every larger d is refused, past 2^64 as well.
    Exact mode counts in Python integers and takes any d."""
    P, d = pt.dodecahedron(), 2 ** 62
    report = ms.estimate_wo_fraction(P, d, samples=200)
    assert report.nj == {10: 200}
    rows, _ = ms._UniformValidSampler(ms._AssignmentModel(P, d)).draw(0, range(200))
    assert rows.min() == 2 and rows.max() <= d and (rows > 2 ** 61).any()
    for big in (d + 1, 12 * 10 ** 18, 2 ** 64, 10 ** 30):
        with pytest.raises(ms.GraphConditionError, match=r"d = \d+ is above 2\^62"):
            ms.estimate_wo_fraction(P, big, samples=200)
    huge, r7 = (ms.estimate_wo_fraction(pt.cube(), k, mode="exact") for k in (10 ** 30, 7))
    assert huge.nj == {j: n * (10 ** 30 - 6) ** j for j, n in r7.nj.items()}


@pytest.mark.parametrize("samples", [0, -5])
def test_montecarlo_refuses_without_samples(samples):
    with pytest.raises(ms.GraphConditionError, match="at least one sample"):
        ms.estimate_wo_fraction(pt.cube(), 5, samples=samples)


def test_face_flip_preserves_parity():
    # reversing every label on one face changes each incident vertex sum by 2
    P = pt.dodecahedron()
    rng = np.random.default_rng(31)
    labels = random_parity_labels(P, rng)
    for face in (1, 5, 12):
        flipped = dict(labels)
        for r in P.face_boundary(face):
            flipped[r] = 1 - flipped[r]
        ms.EdgeLabeledGraph(P, flipped)


def test_all_right_angles_dodecahedron_is_valid_but_not_orderable():
    # the all-order-2 assignment is vertex-valid (no prismatic circuits) yet
    # every face has five 0-edges, so the Monte Carlo weak-orderability check
    # must classify it as not weakly orderable
    P = pt.dodecahedron()
    model = ms._AssignmentModel(P, 7)
    cols = [np.zeros(1, dtype=np.int64) for _ in range(30)]
    assert assignment_validity_oracle(P, 7)(cols)[0]
    order2 = np.ones((1, 30), dtype=bool)
    assert model.weakly_orderable(order2).tolist() == [False]
    assert model.weakly_orderable(order2[0]).shape == ()
    assert not model.weakly_orderable(order2[0])


def test_montecarlo_strata_match_exact_d8():
    exact = ms.estimate_wo_fraction(pt.prism(3), 8, mode="exact")
    mc = ms.estimate_wo_fraction(pt.prism(3), 8, mode="montecarlo",
                                 samples=2000, seed=77)
    total = exact.valid_count
    for j, cnt in exact.nj.items():
        p = cnt / total
        got = mc.nj.get(j, 0)
        sigma = np.sqrt(p * (1 - p) * mc.samples)
        assert abs(got - p * mc.samples) <= 4 * sigma + 3


SAMPLER_POLYTOPES = {"cube": pt.cube, "prism3": lambda: pt.prism(3),
                     "prism8": lambda: pt.prism(8), "dodecahedron": pt.dodecahedron}


def _sampler_classes(d):
    """The order classes {2}, {3}, {4, 5} and {6..d}, each cut to 2..d."""
    classes = ([2], [3], [4, 5], list(range(6, d + 1)))
    return [cut for c in classes if (cut := [m for m in c if m <= d])]


@pytest.mark.parametrize("d", [3, 5, 7, 20, 100])
@pytest.mark.parametrize("name", sorted(SAMPLER_POLYTOPES))
def test_backward_counts_match_oracle(name, d):
    # the oracle counts over five classes in Python integers; every entry of
    # the sampler's tables equals the oracle's with each class read as its
    # lowest order and again as its highest (4 and 5 for the class {4, 5}):
    # exactly while the counts stay below 2^53, else within a few ulps
    sampler = ms._UniformValidSampler(ms._AssignmentModel(SAMPLER_POLYTOPES[name](), d))
    classes = _sampler_classes(d)
    assert sampler.nclasses == len(classes)
    oracle = backward_counts_oracle(sampler)
    assert len(sampler.counts) == len(oracle)
    k, k5 = len(classes), min(d, 6) - 1
    for t, (got, want) in enumerate(zip(sampler.counts, oracle)):
        # the class of each slot at each entry, read through the layout
        slots = count_table_slots(sampler, t)
        assert got.size == k ** len(slots)
        digits = [None] * len(slots)
        for p, s in enumerate(slots):
            digits[s] = np.arange(got.size) // k ** (len(slots) - 1 - p) % k
        got = got.ravel()
        for read in (min, max):
            five = np.array([min(read(c), 6) - 2 for c in classes])
            code = sum((five[dg] * k5 ** s for s, dg in enumerate(digits)),
                       np.zeros(got.size, dtype=np.int64))
            exact = want[code]
            small = (exact < 2 ** 53).astype(bool)
            np.testing.assert_array_equal(got[small], exact[small].astype(float))
            np.testing.assert_allclose(got[~small], exact[~small].astype(float), rtol=1e-12)
    if d <= 20:
        assert sampler.vertex_valid_count < 2.0 ** 53


def _tied_uniforms(rng, rows, block):
    """Uniforms with a third of the entries on multiples of 1/8, 0 included,
    so that some picks land exactly on a running sum."""
    u = rng.random((rows, block))
    grid = rng.random(u.shape) < 1 / 3
    u[grid] = rng.integers(0, 8, size=int(grid.sum())) / 8
    return u


@pytest.mark.parametrize("name, d", [(name, d) for name in sorted(SAMPLER_POLYTOPES)
                                     for d in (3, 5, 7, 20, 100)] + [("loebell8", 2 ** 40)])
def test_vertex_valid_rows_match_oracle(name, d):
    """The class-major forward pass equals the row-by-row searchsorted of
    ``vertex_valid_rows_oracle`` bit for bit, ties included; on loebell(8)
    at d = 2^40 through tables scaled by 2^525."""
    P = pt.loebell(8) if name == "loebell8" else SAMPLER_POLYTOPES[name]()
    sampler = ms._UniformValidSampler(ms._AssignmentModel(P, d))
    if name == "loebell8":
        assert sampler.count_exponent == 525
    u = _tied_uniforms(np.random.default_rng(d), 60, sampler.block)
    got = sampler._vertex_valid_rows(u)
    assert got.shape == (60, P.e) and got.dtype == np.int64
    np.testing.assert_array_equal(got, vertex_valid_rows_oracle(sampler, u))


def test_vertex_validity_reads_only_the_sampler_classes():
    # over orders 2..12 the exact vertex test 1/a + 1/b + 1/c > 1 takes one
    # value on each triple of classes, the sampler's kernel entry: true on
    # the 10 triples with two {2} and the 3 + 6 orderings of ({2}, {3}, {3})
    # and ({2}, {3}, {4, 5}).  4 and 5 still differ on a 3-circuit, where
    # the sum must be below 1
    d = 12
    sampler = ms._UniformValidSampler(ms._AssignmentModel(pt.simplex(3), d))
    cls = {m: i for i, c in enumerate(_sampler_classes(d)) for m in c}
    verdicts = {}
    for a, b, c in itertools.product(range(2, d + 1), repeat=3):
        ok = Fraction(1, a) + Fraction(1, b) + Fraction(1, c) > 1
        key = (cls[a], cls[b], cls[c])
        assert verdicts.setdefault(key, ok) == ok, (a, b, c)
        assert sampler.class_ok[key] == ok, (a, b, c)
    assert len(verdicts) == 4 ** 3 and sum(verdicts.values()) == 10 + 3 + 6
    assert not Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 4) < 1
    assert Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 5) < 1


@pytest.mark.parametrize("d", range(3, 10))
def test_vertex_valid_count_simplex3(d):
    # no prismatic circuits, so every vertex-valid assignment is valid
    P = pt.simplex(3)
    assert not pt.prismatic_circuits(P, 3) and not pt.prismatic_circuits(P, 4)
    sampler = ms._UniformValidSampler(ms._AssignmentModel(P, d))
    assert sampler.vertex_valid_count == exact_counts_oracle(P, d)[0]


def test_sampler_uniform_over_order2_edge_sets():
    from scipy.stats import chi2

    P, d, n = pt.cube(), 4, 20000
    model = ms._AssignmentModel(P, d)
    rows, attempts = ms._UniformValidSampler(model).draw(2024, range(n))
    assert (attempts >= 1).all()
    assert assignment_validity_oracle(P, d)([rows[:, t] - 2 for t in range(P.e)]).all()
    counter = ms._EdgeSetCounter(model)
    weight = {m: sum(counter.counts(m).values()) for m in counter.masks()}
    weight = {m: w for m, w in weight.items() if w}
    valid = sum(weight.values())
    observed = Counter(((rows == 2) * (1 << np.arange(P.e))).sum(axis=1).tolist())
    assert set(observed) <= set(weight)
    # chi-square over the order-2 edge sets, pooling those expected < 5 times
    expected = {m: n * w / valid for m, w in weight.items()}
    big = [m for m in expected if expected[m] >= 5]
    rest = [m for m in expected if expected[m] < 5]
    obs = [observed[m] for m in big]
    exp = [expected[m] for m in big]
    if rest:
        obs.append(sum(observed[m] for m in rest))
        exp.append(sum(expected[m] for m in rest))
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    assert len(big) > 50
    assert chi2.sf(stat, len(obs) - 1) > 1e-3


def test_sampler_uniform_over_whole_assignments():
    # simplex(3) has no prismatic circuit, so all 377 vertex-valid order
    # vectors at d = 7 are valid; whole vectors show a biased split within
    # the class {4, 5} or {6, 7}, which the order-2 edge sets cannot
    from scipy.stats import chi2

    P, d, n = pt.simplex(3), 7, 20000
    grid = np.array(list(itertools.product(range(d - 1), repeat=P.e)))
    valid = [tuple(v) for v in (grid[assignment_validity_oracle(P, d)(grid.T)] + 2).tolist()]
    assert len(valid) == 377
    rows, attempts = ms._UniformValidSampler(ms._AssignmentModel(P, d)).draw(2026, range(n))
    assert (attempts == 1).all()
    observed = Counter(map(tuple, rows.tolist()))
    assert set(observed) <= set(valid)
    expected = n / len(valid)  # about 53 per cell
    stat = sum((observed[v] - expected) ** 2 / expected for v in valid)
    assert chi2.sf(stat, len(valid) - 1) > 1e-3


def _valid_assignment_codes(P, d):
    """The base-(d - 1) code of every valid assignment in {2..d}^e, found by
    enumeration: the vertex test ab + bc + ca > abc in integers and the
    model's circuit test, which decides the circuits exactly at d <= 5."""
    e = P.e
    grid = np.indices((d - 1,) * e).reshape(e, -1).T + 2
    pos = {r: t for t, r in enumerate(sorted(P.ridges))}
    ok = ms._AssignmentModel(P, d).circuits_ok(grid)
    for V in P.vertices:
        a, b, c = sorted(V)
        x, y, z = (grid[:, pos[r]] for r in ((a, b), (a, c), (b, c)))
        ok &= x * y + y * z + z * x > x * y * z
    return _assignment_codes(grid[ok], d)


def _assignment_codes(orders, d):
    return (orders - 2) @ (d - 1) ** np.arange(orders.shape[1])


@pytest.mark.parametrize("name, d, valid", [("prism3", 5, 761), ("cube", 3, 978)])
def test_sampler_chi_square_over_valid_assignments(name, d, valid):
    """40 draws per valid assignment at seed 11, each counted on its whole
    order vector: the chi-square statistic over the valid set stays within
    4 standard deviations of its mean df, z = (chi2 - df) / sqrt(2 df)."""
    P = SAMPLER_POLYTOPES[name]()
    codes = _valid_assignment_codes(P, d)
    assert len(codes) == valid
    rows, _ = ms._UniformValidSampler(ms._AssignmentModel(P, d)).draw(11, range(40 * valid))
    drawn = _assignment_codes(rows, d)
    assert np.isin(drawn, codes).all()
    observed = np.unique(np.concatenate([codes, drawn]), return_counts=True)[1] - 1
    chi2 = float(((observed - 40.0) ** 2).sum() / 40.0)
    df = valid - 1
    assert abs(chi2 - df) / math.sqrt(2 * df) <= 4


def test_sample_rows_do_not_depend_on_the_batch():
    # prism(8) at d = 20 accepts about 6% of vertex-valid draws, so most rows
    # come from a later rejection round
    sampler = ms._UniformValidSampler(ms._AssignmentModel(pt.prism(8), 20))
    rows, attempts = sampler.draw(7, range(200))
    part_rows, part_attempts = sampler.draw(7, range(150, 200))
    assert (attempts[150:] > 1).sum() > 25
    np.testing.assert_array_equal(part_rows, rows[150:])
    np.testing.assert_array_equal(part_attempts, attempts[150:])
    # attempt a reads block a of the stream a fresh Philox(key=(seed, i)) gives,
    # row by row through one reused state
    gen = np.random.Generator(np.random.Philox())
    out = sampler.stream(gen, gen.bit_generator.state, 7, [160, 3], 2,
                         np.empty((2, 3 * sampler.block)))
    for i, row in zip((160, 3), out):
        whole = np.random.Generator(np.random.Philox(key=[7, i])).random(5 * sampler.block)
        np.testing.assert_array_equal(row, whole[2 * sampler.block:])


def test_draw_reads_fresh_philox_streams(monkeypatch):
    """Every uniform ``draw`` hands to the DP is the one a fresh
    Generator(Philox(key=(seed, i))) gives from block ``first`` on, with
    the seed's top bit set and in later rejection rounds."""
    sampler = ms._UniformValidSampler(ms._AssignmentModel(pt.prism(8), 20))
    streamed, used = [], []
    stream, rows = sampler.stream, sampler._vertex_valid_rows

    def record_stream(gen, state, seed, samples, first, out):
        streamed.append((seed, list(samples), first, out.shape))
        return stream(gen, state, seed, samples, first, out)

    def record_rows(u):
        used.append(u.copy())
        return rows(u)

    monkeypatch.setattr(sampler, "stream", record_stream)
    monkeypatch.setattr(sampler, "_vertex_valid_rows", record_rows)
    seed = 2 ** 63 + 7
    orders, attempts = sampler.draw(seed, range(100, 160))
    assert len(streamed) == len(used)
    assert max(first for _, _, first, _ in streamed) >= 15  # round 4 or later
    block = sampler.block
    for (s, samples, first, shape), u in zip(streamed, used):
        assert s == seed and shape[1] % block == 0
        u = u.reshape(len(samples), shape[1])
        for i, row in zip(samples, u):
            bits = np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
            whole = np.random.Generator(bits).random(first * block + shape[1])
            np.testing.assert_array_equal(row, whole[first * block:])
    # and the rows do not depend on the batch at this seed either
    part, part_attempts = ms._UniformValidSampler(sampler.model).draw(seed, range(130, 160))
    np.testing.assert_array_equal(part, orders[30:])
    np.testing.assert_array_equal(part_attempts, attempts[30:])


def test_montecarlo_wide_masks_loebell12():
    P, d, n, seed = pt.loebell(12), 4, 200, 3
    assert P.e == 72
    report = ms.estimate_wo_fraction(P, d, samples=n, seed=seed)
    model = ms._AssignmentModel(P, d)
    rows, _ = ms._UniformValidSampler(model).draw(seed, range(n))
    # order-2 edges at columns past 63 would be lost by 64-bit masks
    assert (rows[:, 63:] == 2).any()
    expected = peel_oracle(P, row_edge_sets(P, rows == 2))
    np.testing.assert_array_equal(model.weakly_orderable(rows == 2), expected)
    assert report.wo_count == int(expected.sum())


@pytest.mark.parametrize("P", [pt.prism(3), bundled.load_builtin("doubled_cube").base],
                         ids=["prism3", "doubled_cube"])
def test_montecarlo_refuses_without_valid_assignments(P):
    # a prismatic 3-circuit needs sum 1/m < 1, impossible with orders <= 3
    with pytest.raises(ms.GraphConditionError, match="no valid assignments"):
        ms.estimate_wo_fraction(P, 3, samples=1000, seed=0)


def _record_rounds(monkeypatch, sampler_or_class):
    """The first attempt of every ``stream`` call and the rows of every
    forward pass that ``draw`` makes, recorded as it runs."""
    firsts, rows = [], []
    stream = sampler_or_class.stream
    forward = sampler_or_class._vertex_valid_rows

    def record_stream(*args):
        firsts.append(args[-2])
        return stream(*args)

    def record_rows(*args):
        rows.append(len(args[-1]))
        return forward(*args)

    monkeypatch.setattr(sampler_or_class, "stream", record_stream)
    monkeypatch.setattr(sampler_or_class, "_vertex_valid_rows", record_rows)
    return firsts, rows


def test_montecarlo_refuses_low_acceptance(monkeypatch):
    # four prismatic 3-circuits: 629 valid assignments at d = 4, about 1.5
    # in 10^4 vertex-valid draws
    P = pt.prism(3)
    for _ in range(3):
        P = pt.truncate_vertex(P, len(P.vertices) - 1)
    assert len(pt.prismatic_circuits(P, 3)) == 4
    firsts, rows = _record_rounds(monkeypatch, ms._UniformValidSampler)
    start = time.perf_counter()
    with pytest.raises(ms.GraphConditionError, match="rejection rate too high"):
        ms.estimate_wo_fraction(P, 4, samples=10000, seed=1)
    assert time.perf_counter() - start < 10
    # the pilot rate stopped the draw, before the last round
    assert sum(rows) >= ms.MC_RATE_PILOT
    assert len(set(firsts)) < ms.MC_MAX_ROUNDS


def test_draw_refuses_when_its_rounds_run_out(monkeypatch):
    """With MC_MAX_ROUNDS = 2 each sample makes at most 1 + 2 attempts, and
    prism(8) at d = 20 accepts about 6% of them, so samples stay pending:
    draw refuses after its last round.  The pilot rate, which needs
    MC_RATE_PILOT attempts, cannot have stopped it."""
    sampler = ms._UniformValidSampler(ms._AssignmentModel(pt.prism(8), 20))
    firsts, rows = _record_rounds(monkeypatch, sampler)
    monkeypatch.setattr(ms, "MC_MAX_ROUNDS", 2)
    with pytest.raises(ms.GraphConditionError, match="circuit rejection rate too high"):
        sampler.draw(7, range(100))
    assert sorted(set(firsts)) == [0, 1]
    assert 100 < sum(rows) <= 300 < ms.MC_RATE_PILOT


def test_exact_without_valid_assignments_has_no_fraction():
    report = ms.estimate_wo_fraction(pt.prism(3), 3, mode="exact")
    assert report.valid_count == report.wo_count == 0 and report.nj == {}
    assert report.fraction is report.ci_low is report.ci_high is None


def _mask_path_agrees_with_brute_force(P, masks):
    # order 2 on the mask's edges and 3 elsewhere; no ellipticity is needed,
    # the oracle only reads the order-2 ridge graph
    model = ms._AssignmentModel(P, 3)
    masks = list(masks)
    order2 = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(P.e)) & 1
    got = model.weakly_orderable(order2).tolist()
    outcomes = set()
    for mask, verdict in zip(masks, got):
        orders = {r: (2 if mask >> t & 1 else 3) for t, r in enumerate(model.edges)}
        expected = brute_force_weak_order(ob.CoxeterOrbifold(P, orders)) is not None
        assert verdict == expected, mask
        outcomes.add(expected)
    return outcomes


def test_mask_peel_matches_brute_force_prism3():
    # every prism(3) mask is weakly orderable: the caps have three
    # neighbours, and once one is peeled every side face has at most three
    P = pt.prism(3)
    assert _mask_path_agrees_with_brute_force(P, range(1 << P.e)) == {True}


def test_mask_peel_matches_brute_force_cube_sample():
    P = pt.cube()
    rng = np.random.default_rng(5)
    masks = [(1 << P.e) - 1] + [int(m) for m in rng.integers(0, 1 << P.e, size=150)]
    assert _mask_path_agrees_with_brute_force(P, masks) == {True, False}


@pytest.mark.parametrize("P", [pt.cube(), pt.prism(5), pt.prism(6)],
                         ids=["cube", "prism5", "prism6"])
def test_batched_verdict_matches_peel_on_every_edge_set(P):
    # all 2^e order-2 edge sets, row i holding the bits of i; with every edge
    # of order 2 (the last row) each face has at least four neighbours, a
    # nonempty 4-core
    model = ms._AssignmentModel(P, 3)
    order2 = (np.arange(1 << P.e)[:, None] >> np.arange(P.e)) & 1
    got = model.weakly_orderable(order2)
    expected = peel_oracle(P, mask_edge_sets(P))
    np.testing.assert_array_equal(got, expected)
    assert got.any() and not got[-1]


@pytest.mark.parametrize("P", [pt.dodecahedron(), pt.loebell(12), pt.prism(24)],
                         ids=["dodecahedron", "loebell12", "prism24"])
def test_batched_verdict_matches_peel_on_random_rows(P):
    # loebell(12) has 72 edges, so columns past 63 carry order-2 edges;
    # prism(24) has two 24-gon caps beside its square sides
    model = ms._AssignmentModel(P, 3)
    rng = np.random.default_rng(8)
    verdicts = set()
    for density in (0.5, 0.8, 0.95, 1.0):
        order2 = rng.random((500, P.e)) < density
        got = model.weakly_orderable(order2)
        np.testing.assert_array_equal(got, peel_oracle(P, row_edge_sets(P, order2)))
        verdicts.update(got.tolist())
    assert verdicts == {True, False}


def test_batched_verdict_peak_memory_on_large_faces():
    # loebell(64) has two 64-gons among its 130 faces, so a verdict whose
    # memory grows with the widest face (rows x f x 64 per round) shows here
    P = pt.loebell(64)
    model = ms._AssignmentModel(P, 7)
    rows, _ = ms._UniformValidSampler(model).draw(0, range(1000))
    order2 = rows == 2
    got, peak = traced_peak(lambda: model.weakly_orderable(order2))
    assert peak < 4 * 2 ** 20
    np.testing.assert_array_equal(got, peel_oracle(P, row_edge_sets(P, order2)))


def test_montecarlo_counts_non_orderable_rows():
    # the dodecahedron at d = 3 draws a row that is not weakly orderable about
    # twice in 10^4; this seed draws two of them
    P, d, n, seed = pt.dodecahedron(), 3, 10000, 4
    report = ms.estimate_wo_fraction(P, d, samples=n, seed=seed)
    rows, _ = ms._UniformValidSampler(ms._AssignmentModel(P, d)).draw(seed, range(n))
    assert report.wo_count < n
    assert report.wo_count == int(peel_oracle(P, row_edge_sets(P, rows == 2)).sum())


def test_validate_face_order_rejects_bad_ordering():
    # all labels 0 on the dodecahedron: whichever face comes first has five
    # 0-edges into later faces
    P = pt.dodecahedron()
    labels = {r: 0 for r in P.ridges}
    assert not ms.validate_face_order(P, labels, tuple(sorted(P.facets)))
    assert not ms.validate_face_order(P, labels, tuple(sorted(P.facets))[:-1])


def test_plan_steps_match_two_pass_oracle():
    rng = np.random.default_rng(23)
    polytopes = [pt.cube(), pt.prism(3), pt.prism(8), pt.dodecahedron(), pt.loebell(12),
                 pt.loebell(64), pt.loebell(128), pt.doubled_cube()]
    polytopes += [random_truncation(base, cuts, rng)
                  for base in (pt.cube(), pt.dodecahedron()) for cuts in (1, 3)]
    for P in polytopes:
        model = ms._AssignmentModel(P, 5)
        steps = ms._UniformValidSampler._plan_steps(model.vertex_triples)
        oracle = plan_steps_oracle(model)
        # the arriving slots may be listed in another order; the vertex kernel
        # is symmetric in them
        assert [(sorted(arr), keep, new) for arr, keep, new in steps] == \
            [(sorted(arr), keep, new) for arr, keep, new in oracle]
        sampler = ms._UniformValidSampler(model)
        twin = copy.copy(sampler)
        twin.steps = [ms._Step(*step) for step in oracle]
        twin.counts, twin.tables, twin.count_exponent = twin._backward_counts()
        # the same uniforms give the same vertex-valid rows
        u = rng.random((40, sampler.block))
        assert np.array_equal(sampler._vertex_valid_rows(u), twin._vertex_valid_rows(u))


def _truncation_draws():
    """The polytopes ``random_truncation`` draws from one ``default_rng(23)``:
    the cube with 2 and 5 vertices cut, then the dodecahedron with 2, 5 and 8
    (8, 11, 14, 17 and 20 facets)."""
    rng = np.random.default_rng(23)
    return [random_truncation(base, cuts, rng)
            for base, cuts in ((pt.cube(), 2), (pt.cube(), 5), (pt.dodecahedron(), 2),
                               (pt.dodecahedron(), 5), (pt.dodecahedron(), 8))]


def test_sampler_refuses_tables_over_budget(monkeypatch):
    P = _truncation_draws()[4]
    assert P.f == 20
    model = ms._AssignmentModel(P, 7)

    def no_tables(self):
        raise AssertionError("a table was built")

    monkeypatch.setattr(ms._UniformValidSampler, "_backward_counts", no_tables)
    with pytest.raises(ms.GraphConditionError, match=r"14 edges wide .* 5982 MiB"):
        ms._UniformValidSampler(model)
    with pytest.raises(ms.GraphConditionError, match="sampler refused"):
        ms.estimate_wo_fraction(P, 7, samples=10, seed=1)


def test_sampler_budget_separates_the_planned_sizes():
    """Planned bytes at d = 7 (four classes): prism(8) 0.07 MiB, the
    dodecahedron 1.8 MiB (width 8), loebell(64) 48 MiB (width 8) and the
    17-facet truncation 96 MiB (width 11) stay under the budget, which the
    20-facet truncation (5982 MiB, width 14) exceeds.  The planned bytes are
    the bytes the tables take once built."""
    wide = _truncation_draws()[3]
    assert wide.f == 17
    for P in (pt.prism(8), pt.dodecahedron(), pt.loebell(64), wide):
        model = ms._AssignmentModel(P, 7)
        steps = ms._UniformValidSampler._plan_steps(model.vertex_triples)
        planned = ms._UniformValidSampler.table_bytes(steps, len(_sampler_classes(7)))
        assert planned < ms.SAMPLER_TABLE_BUDGET
    assert round(planned / 2 ** 20) == 96
    for P in (pt.prism(8), pt.dodecahedron()):
        sampler = ms._UniformValidSampler(ms._AssignmentModel(P, 7))
        kernels = {id(step.kernel): step.kernel for step in sampler.tables}
        assert all(step.counts is c for step, c in zip(sampler.tables, sampler.counts[1:]))
        held = sum(c.nbytes for c in sampler.counts) + sum(t.nbytes for t in kernels.values())
        assert held == sampler.table_bytes(sampler.steps, sampler.nclasses)
    # the 17-facet truncation builds now; its five prismatic 3-circuits stop
    # Monte Carlo by rejection instead
    assert len(pt.prismatic_circuits(wide, 3)) == 5
    with pytest.raises(ms.GraphConditionError, match="circuit rejection rate too high"):
        ms.estimate_wo_fraction(wide, 7, samples=10, seed=1)


if __name__ == "__main__":
    # rewrite the factor golden; only when the chosen factors are meant to change
    FACTOR_GOLDEN.write_text("{\n" + ",\n".join(
        f"  {json.dumps(cid)}: {json.dumps(masks)}" for cid, masks in corpus_factors().items())
        + "\n}\n", encoding="utf-8")
