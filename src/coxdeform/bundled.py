"""Bundled example orbifolds, loadable by name.

Each example ships as a JSON document under ``coxdeform/data/`` (overridable
via the COXDEFORM_BUILTIN_DIR environment variable) and round-trips through
the standard loader.  Names:

- ``tetrahedron353``: the compact [3,5,3] simplex orbifold.
- ``cube_rigid``: cube, three order-3 edges meeting every equator (rigid).
- ``cube_flex``: cube, four edges of order >= 3 (one deformation direction).
- ``cube_mixed``: cube_flex with mixed orders 4, 3, 5, 4.
- ``doubled_cube``: a corner-truncated cube doubled across the triangle,
  order 4 on the three fused edges (not weakly orderable).
- ``loebell5_factor``: dodecahedron with order 7 on a perfect matching.
- ``loebell6_factor`` .. ``loebell8_factor``: the two-ring polytopes L(6),
  L(7), L(8) with order 3 on a perfect matching.
- ``esselmann``: the 4-dimensional product-of-triangles orbifold.
"""

from __future__ import annotations

import importlib.resources
import json
import os

from coxdeform import polytope as pt
from coxdeform import serialize

BUILTIN_DIR_ENV = "COXDEFORM_BUILTIN_DIR"


def _cube_orders(high):
    P = pt.cube()
    orders = {r: 2 for r in P.ridges}
    for ridge, m in high.items():
        orders[ridge] = m
    return P, orders


def _builders():
    def tetrahedron353():
        return pt.simplex(3), {(1, 2): 3, (2, 3): 5, (3, 4): 3,
                               (1, 3): 2, (1, 4): 2, (2, 4): 2}

    def cube_rigid():
        # one order-3 edge on each prismatic 4-circuit: a vertical, a top, a bottom
        return _cube_orders({(3, 4): 3, (1, 5): 3, (2, 6): 3})

    def cube_flex():
        return _cube_orders({(3, 4): 3, (1, 5): 3, (2, 6): 3, (5, 6): 3})

    def cube_mixed():
        return _cube_orders({(3, 4): 4, (1, 5): 3, (2, 6): 3, (5, 6): 5})

    def doubled_cube():
        P = pt.doubled_cube()
        orders = {r: 2 for r in P.ridges}
        for r in [(1, 2), (1, 3), (2, 3)]:
            orders[r] = 4
        return P, orders

    def _loebell_factor(m, k):
        from coxdeform import matchstats as ms

        P = pt.loebell(m)
        factor = ms.find_factor(P, sorted(P.ridges)[0])
        return P, {r: (k if r in set(factor) else 2) for r in P.ridges}

    def loebell5_factor():
        return _loebell_factor(5, 7)

    def loebell6_factor():
        return _loebell_factor(6, 3)

    def loebell7_factor():
        return _loebell_factor(7, 3)

    def loebell8_factor():
        return _loebell_factor(8, 3)

    def esselmann():
        from coxdeform.vinberg import ESSELMANN_ORDERS
        return pt.esselmann_polytope(), dict(ESSELMANN_ORDERS)

    return {fn.__name__: fn for fn in (tetrahedron353, cube_rigid, cube_flex,
                                       cube_mixed, doubled_cube, loebell5_factor,
                                       loebell6_factor, loebell7_factor,
                                       loebell8_factor, esselmann)}


BUILTIN_NAMES = tuple(sorted(_builders()))


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


def regenerate_data(directory):
    """Write the bundled JSON files from their builders (maintenance)."""
    from coxdeform import orbifold as ob

    os.makedirs(directory, exist_ok=True)
    for name, build in _builders().items():
        P, orders = build()
        Q = ob.make_orbifold(P, orders)
        doc = serialize.dump_orbifold(Q)
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(doc))
