"""Walk the full pipeline on the compact [3,5,3] simplex orbifold.

The tetrahedron has three order-2 edges, so the equation system has
N = f + e + e2 = 13 scalar equations in 2(n+1)f = 32 unknowns.  At the
hyperbolic point the Jacobian has full rank, the gauge group eats
f + (n+1)^2 - 1 = 19 dimensions, and the local deformation space is a point:
e_+ - 3 = 0, a rigid structure.
"""

import numpy as np

from coxdeform import bundled, lorentz, orbifold, vinberg
from coxdeform.numerics import numerical_rank

Q = bundled.load_builtin("tetrahedron353")
counts = orbifold.counts(Q)
print("counts:", counts)

# the Gram matrix is complete, so the simplex realizes directly
R = lorentz.realize_gram(Q)
print(f"realization residual: {R.residual_norm:.2e}")
print("vertices inside the ball:", all(R.vertex_flags.values()))

p = vinberg.hyperbolic_point(R)
print(f"equation residual at the hyperbolic point: "
      f"{np.abs(vinberg.phi_eval(Q, p)).max():.2e}")

psi_rank = numerical_rank(lorentz.psi_jacobian(Q, R.normals))
print(f"rank D(psi) = {psi_rank.rank}, kernel = {16 - psi_rank.rank} "
      f"(= dim so(1,3))")

report = vinberg.local_deformation_dimension(Q, p)
print(f"rank D(phi) = {report.rank} of N = {counts.N}, full rank: "
      f"{report.full_rank}")
print(f"local deformation dimension: {report.deformation_dim} "
      f"(= e_+ - 3 = {counts.eplus - 3})")

rank_sum = vinberg.check_rank_sum(Q, p)
print(f"rank-sum identity: {rank_sum.rank_phi.rank} = "
      f"{rank_sum.rank_psi.rank} + {rank_sum.e2} -> {rank_sum.identity_holds}")
