"""The bundled data files against the builders that made them: each
``coxdeform/data/<name>.json`` must equal its builder's orbifold, dumped and
serialized, byte for byte, and a document that carries "normals" must
realize its orbifold within one Gauss-Newton step.  Rewrite the files, only
when an example is meant to change, with
``PYTHONPATH=src python tests/test_bundled.py``; it checks every document
before it writes any.
"""

import importlib.resources
import json
import math
import pathlib

import numpy as np
import pytest

from coxdeform import bundled, lorentz, matchstats as ms, orbifold as ob, polytope as pt
from coxdeform import serialize
from coxdeform.vinberg import ESSELMANN_ORDERS

DATA = pathlib.Path(str(importlib.resources.files("coxdeform").joinpath("data")))


def _cube_orders(high):
    P = pt.cube()
    orders = {r: 2 for r in P.ridges}
    orders.update(high)
    return P, orders


def _loebell_factor(m, k):
    P = pt.loebell(m)
    factor = set(ms.find_factor(P, sorted(P.ridges)[0]))
    return P, {r: (k if r in factor else 2) for r in P.ridges}


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


def _corner_truncated_box(P, offset=0.52, cut=2.35):
    """A start for the doubled cube: a Euclidean cube, its faces at Klein
    offset ``offset`` and its corner cut at ``cut * offset / sqrt(3)``,
    reflected across the cut plane.  Each hexagon is the symmetrized image
    of a cube face at the cut corner; each half's squares are the three
    opposite faces, and in the second half their mirror images."""
    form = lorentz.LorentzForm(4)
    cut_plane = lorentz._klein_plane(np.ones(3) / math.sqrt(3.0), cut * offset / math.sqrt(3.0))
    mirror = np.eye(4) - 2.0 * np.outer(cut_plane, form.matrix @ cut_plane)
    rows = {}
    for k, h in enumerate((1, 2, 3)):
        face = lorentz._klein_plane(np.eye(3)[k], offset)
        v = face + mirror @ face
        rows[h] = v / math.sqrt(form.inner(v, v))
        opposite = lorentz._klein_plane(-np.eye(3)[k], offset)
        for half, image in (((4, 5, 6), opposite), ((7, 8, 9), mirror @ opposite)):
            rows[next(s for s in half if not P.adjacent(s, h))] = image
    return np.array([rows[x] for x in P.facets])


def doubled_cube():
    # the document carries its realization, solved from the corner-truncated box
    P = pt.doubled_cube()
    orders = {r: 2 for r in P.ridges}
    for r in [(1, 2), (1, 3), (2, 3)]:
        orders[r] = 4
    R = lorentz.solve_hyperbolic_newton(ob.make_orbifold(P, orders), _corner_truncated_box(P))
    return P, orders, R.normals


def loebell5_factor():
    return _loebell_factor(5, 7)


def loebell6_factor():
    return _loebell_factor(6, 3)


def loebell7_factor():
    return _loebell_factor(7, 3)


def loebell8_factor():
    return _loebell_factor(8, 3)


def esselmann():
    return pt.esselmann_polytope(), dict(ESSELMANN_ORDERS)


BUILDERS = {fn.__name__: fn for fn in (tetrahedron353, cube_rigid, cube_flex, cube_mixed,
                                       doubled_cube, loebell5_factor, loebell6_factor,
                                       loebell7_factor, loebell8_factor, esselmann)}


def document_text(name):
    """The serialized document of a builder's orbifold."""
    return serialize.dumps(serialize.dump_orbifold(ob.make_orbifold(*BUILDERS[name]())))


def check_realized(text):
    """A document that carries "normals" realizes its orbifold: Gauss-Newton
    from them reaches RESIDUAL_TOL within one step, and the realization
    passes ``check_valid``.  Raises ConvergenceError or RealizationError."""
    Q = serialize.load_orbifold(json.loads(text))
    if Q.normals is not None:
        lorentz.solve_hyperbolic_newton(Q, max_iter=1)


def test_builtin_names_are_the_builders():
    assert bundled.BUILTIN_NAMES == tuple(sorted(BUILDERS))
    assert sorted(p.stem for p in DATA.glob("*.json")) == sorted(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_data_file_matches_builder(name):
    text = (DATA / f"{name}.json").read_text(encoding="utf-8")
    assert text == document_text(name)
    check_realized(text)


if __name__ == "__main__":
    texts = {name: document_text(name) for name in BUILDERS}
    for text in texts.values():
        check_realized(text)
    for name, text in texts.items():
        (DATA / f"{name}.json").write_text(text, encoding="utf-8")
