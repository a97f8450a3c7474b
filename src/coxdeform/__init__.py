"""Deformation spaces of real projective structures on compact Coxeter orbifolds.

The package realizes hyperbolic Coxeter polytopes, assembles the reflection
(Vinberg) and hyperbolic equation systems with their Jacobians, measures
numerical ranks and kernel dimensions, decides weak orderability, and runs the
matching-based statistics for cubic polytope graphs.

Importing the package loads none of its modules; import the one you need,
e.g. ``from coxdeform import orbifold``.
"""

__version__ = "0.1.0"
