"""Almost every dodecahedral orbifold is weakly orderable.

A factor (perfect matching) through any chosen edge exists on every cubic
3-connected graph; labeling the matching with an order k >= 3 and everything
else 2 produces a valid compact hyperbolic orbifold whenever the polytope has
no prismatic 3-circuit and at most one prismatic 4-circuit.  Those orbifolds
are always weakly orderable, and counting shows the weakly orderable share of
all valid orbifolds tends to 1 as the order bound grows.
"""

from coxdeform import matchstats, orbifold, polytope

P = polytope.dodecahedron()
edge = sorted(P.ridges)[0]
factor = matchstats.find_factor(P, edge)
print(f"factor through {edge}: {len(factor)} edges")

Q = matchstats.orbifold_from_factor(P, factor, 7)
print("factor orbifold passes the Andreev-type checks:",
      orbifold.andreev_necessary_check(Q).passed)

ordering = orbifold.weak_order_combinatorial(Q)
assert ordering and orbifold.check_weak_ordering(Q, ordering.order)
print("weak ordering of the factor orbifold:", ordering.order)

# exact counts sum over the 2^9 sets of order-2 edges of the triangular
# prism; the identity N_j(8) = N_j(7) * 2^j stratifies assignments by edges
# of order >= 7
prism = polytope.prism(3)
r7 = matchstats.estimate_wo_fraction(prism, 7, mode="exact")
r8 = matchstats.estimate_wo_fraction(prism, 8, mode="exact")
print(f"prism exact: N_j(7) = {r7.nj}, N_j(8) = {r8.nj}, "
      f"identity holds: {r8.identity_holds}")

# the dodecahedron needs sampling (2^30 sets of order-2 edges, 6^30
# assignments at d = 7); the sampler draws exactly uniform valid assignments
for d in (7, 20, 100):
    report = matchstats.estimate_wo_fraction(P, d, mode="montecarlo",
                                             samples=2000, seed=1)
    print(f"dodecahedron d={d}: weakly orderable fraction = "
          f"{report.fraction:.4f} in [{report.ci_low:.4f}, {report.ci_high:.4f}]")
