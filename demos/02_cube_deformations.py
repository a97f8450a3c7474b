"""Flexible and rigid cube orbifolds.

Every cube orbifold is weakly orderable, so the dimension formula e_+ - 3
applies whenever a hyperbolic structure exists.  A valid order pattern needs
an edge of order >= 3 on each of the three prismatic 4-circuits (otherwise
some circuit has angle sum exactly 2 pi).  Three high edges give a rigid
structure; a fourth opens one deformation direction.
"""

from coxdeform import bundled, lorentz, orbifold, vinberg

for name in ("cube_rigid", "cube_flex", "cube_mixed"):
    Q = bundled.load_builtin(name)
    counts = orbifold.counts(Q)
    ordering = orbifold.weak_order_combinatorial(Q)
    andreev = orbifold.andreev_necessary_check(Q)
    R = lorentz.solve_hyperbolic_newton(Q)       # Lambert-style box seed
    p = vinberg.hyperbolic_point(R)
    report = vinberg.local_deformation_dimension(Q, p)
    print(f"{name}: e+ = {counts.eplus}, andreev ok = {andreev.passed}, "
          f"weak order = {ordering.order}, newton residual < 1e-10: "
          f"{R.residual_norm < 1e-10}, dimension = {report.deformation_dim}")
