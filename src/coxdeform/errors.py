"""The package's exception classes, in one module without numerical imports.

Each module re-exports the classes it raises under its own name (for example
``cartan.CartanError``), and the command line maps them to exit codes from
here, so that naming them loads neither numpy nor the numerical modules.
"""


class CombinatoricsError(ValueError):
    """Raised when input data does not describe a valid simple polytope."""


class OrbifoldError(ValueError):
    """Raised for invalid ridge orders or non-elliptic vertex groups."""


class SchemaError(ValueError):
    """Input file does not match the expected schema; message lists all
    offending locations."""


class CartanError(ValueError):
    pass


class GraphConditionError(ValueError):
    pass


class VinbergError(ValueError):
    pass


class RealizationError(ValueError):
    """Raised when data cannot describe a compact hyperbolic polytope."""


class ConvergenceError(RuntimeError):
    """Raised when the Gauss-Newton iteration fails to converge."""
