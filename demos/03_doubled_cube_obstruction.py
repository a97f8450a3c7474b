"""A polytope where the dimension count fails: the doubled cube.

Truncate one corner of a cube and double across the triangle: nine facets,
where the three hexagons cross the gluing locus and meet each other in the
three edges of the unique prismatic 3-circuit.  Putting order d = 4 there and
order 2 everywhere else gives a compact hyperbolic orbifold in which every
facet has exactly four order-2 edges, so no weak ordering exists: the greedy
peeling is stuck immediately and returns all nine facets as a certificate.

The formula value e_+ - 3 would be 0, but bending along the gluing locus
deforms the structure, and the equation Jacobian shows it: rank exactly one
short of full at the hyperbolic point.
"""

from coxdeform import bundled, lorentz, orbifold, polytope, vinberg
from coxdeform.numerics import numerical_rank

Q = bundled.load_builtin("doubled_cube")
counts = orbifold.counts(Q)
print("counts:", counts)
print("prismatic 3-circuit:", polytope.prismatic_circuits(Q.base, 3))

result = orbifold.weak_order_combinatorial(Q)
print("weakly orderable:", bool(result))
print("stuck certificate:", sorted(result.certificate))

R = lorentz.solve_hyperbolic_newton(Q)  # from the document's normals
print(f"newton residual < 1e-10: {R.residual_norm < 1e-10}")

p = vinberg.hyperbolic_point(R)
index = vinberg.EquationIndex.from_orbifold(Q)
rank = numerical_rank(vinberg.phi_jacobian(index, p))
print(f"rank D(phi) = {rank.rank} of N = {index.N} "
      f"(deficiency {index.N - rank.rank}: the bending direction)")

report = vinberg.check_rank_sum(Q, p)
print(f"rank-sum identity holds: {report.identity_holds} "
      f"(expected to fail without weak orderability)")
