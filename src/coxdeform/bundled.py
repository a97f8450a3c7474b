"""Bundled example orbifolds, loadable by name.

Each example ships as a JSON document under ``coxdeform/data/`` (overridable
via the COXDEFORM_BUILTIN_DIR environment variable) and round-trips through
the standard loader.  The documents are the source: the builders that made
them live in ``tests/test_bundled.py``, which checks each document against
its builder byte for byte and rewrites them when run as a script.  Names:

- ``tetrahedron353``: the compact [3,5,3] simplex orbifold.
- ``cube_rigid``: cube, three order-3 edges meeting every equator (rigid).
- ``cube_flex``: cube, four edges of order >= 3 (one deformation direction).
- ``cube_mixed``: cube_flex with mixed orders 4, 3, 5, 4.
- ``doubled_cube``: a corner-truncated cube doubled across the triangle,
  order 4 on the three fused edges (not weakly orderable).  Its document
  carries its realization as "normals", Gauss-Newton's start; the builder
  solved it from a corner-truncated box, and checks that it still
  realizes the orbifold within one step.
- ``loebell5_factor``: dodecahedron with order 7 on a perfect matching.
- ``loebell6_factor`` .. ``loebell8_factor``: the two-ring polytopes L(6),
  L(7), L(8) with order 3 on a perfect matching.
- ``esselmann``: the 4-dimensional product-of-triangles orbifold.
"""

from __future__ import annotations

import importlib.resources
import json
import os

from coxdeform import serialize

BUILTIN_DIR_ENV = "COXDEFORM_BUILTIN_DIR"
BUILTIN_NAMES = ("cube_flex", "cube_mixed", "cube_rigid", "doubled_cube", "esselmann",
                 "loebell5_factor", "loebell6_factor", "loebell7_factor", "loebell8_factor",
                 "tetrahedron353")


def builtin_document(name):
    """The JSON document of a bundled orbifold, from COXDEFORM_BUILTIN_DIR
    when set, else from the package data directory."""
    override = os.environ.get(BUILTIN_DIR_ENV)
    if override:
        path = os.path.join(override, f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    ref = importlib.resources.files("coxdeform").joinpath(f"data/{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def load_builtin(name):
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; have {BUILTIN_NAMES}")
    return serialize.load_orbifold(builtin_document(name))
