"""The bundled data files against the builders that made them: each
``coxdeform/data/<name>.json`` must equal its builder's orbifold, dumped and
serialized, byte for byte.  Rewrite the files, only when an example is meant
to change, with ``PYTHONPATH=src python tests/test_bundled.py``.
"""

import importlib.resources
import pathlib

import pytest

from coxdeform import bundled, matchstats as ms, orbifold as ob, polytope as pt, serialize
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


def doubled_cube():
    P = pt.doubled_cube()
    orders = {r: 2 for r in P.ridges}
    for r in [(1, 2), (1, 3), (2, 3)]:
        orders[r] = 4
    return P, orders


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


def test_builtin_names_are_the_builders():
    assert bundled.BUILTIN_NAMES == tuple(sorted(BUILDERS))
    assert sorted(p.stem for p in DATA.glob("*.json")) == sorted(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_data_file_matches_builder(name):
    assert (DATA / f"{name}.json").read_text(encoding="utf-8") == document_text(name)


if __name__ == "__main__":
    for name in BUILDERS:
        (DATA / f"{name}.json").write_text(document_text(name), encoding="utf-8")
