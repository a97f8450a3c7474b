"""JSON schemas and canonical serialization.

Input schemas: a polytope is {"n": int, "facets": [...], "ridges": [[i,j],...],
"vertices": [[i,j,k],...]? }, an orbifold adds "orders": [[i,j,m],...] and
optionally "normals": f rows of n + 1 finite numbers in facet order, a
realization that Gauss-Newton starts from (checked here in plain Python,
without numpy), and a Cartan matrix is {"matrix": [[...]],
"orders": [[i,j,m],...]? } (or a bare row array).  Output reports
canonicalize every float to 12 significant digits and sort keys, so
identical inputs and configuration produce byte-identical files.
"""

from __future__ import annotations

import json
import math

from coxdeform import orbifold as ob
from coxdeform import polytope as pt
from coxdeform.errors import SchemaError


def canonical_float(x):
    return float(f"{float(x):.12g}")


def to_jsonable(obj):
    """Recursively convert reports and arrays to JSON data.  A report record
    (a ``NamedTuple``) becomes an object of its fields, tested before any
    other tuple, which becomes a list.  An array of floats, ints or bools is
    converted with one ``tolist()``, and a float array's entries are
    canonicalized in one flat pass."""
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):  # numpy.float64 included
        return canonical_float(obj)
    if hasattr(obj, "tolist"):  # other numpy scalars, and arrays
        kind = obj.dtype.kind if getattr(obj, "ndim", 0) else None
        if kind in ("b", "i", "u"):
            return obj.tolist()
        if kind == "f":
            import numpy as np

            flat = obj.astype(float).ravel()
            # an integer below 1e12 prints exactly in 12 digits, the sign of
            # zero included, so only the other entries are formatted
            odd = np.flatnonzero(~((np.round(flat) == flat) & (np.abs(flat) < 1e12)))
            flat[odd] = [canonical_float(x) for x in flat[odd].tolist()]
            return flat.reshape(obj.shape).tolist()
        return to_jsonable(obj.tolist())
    if hasattr(obj, "_asdict"):
        return {k: to_jsonable(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        out = {}
        for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])):
            key = ",".join(str(x) for x in k) if isinstance(k, (tuple, frozenset)) else str(k)
            out[key] = to_jsonable(v)
        return out
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    return str(obj)


def dumps(data):
    return json.dumps(to_jsonable(data), sort_keys=True, indent=2) + "\n"


def load_polytope(doc):
    """Validated polytope from parsed JSON; errors are aggregated."""
    problems = []
    if not isinstance(doc, dict):
        raise SchemaError("polytope document must be an object")
    for key in ("n", "facets", "ridges"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        raise SchemaError("; ".join(problems))
    try:
        return pt.build_combinatorics(doc)
    except pt.CombinatoricsError as exc:
        raise SchemaError(f"polytope: {exc}") from exc


def _is_finite_number(x):
    """Whether x is a finite JSON number (a bool is not one)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _load_normals(doc, f, dim):
    """The optional "normals" of an orbifold document, checked to be f rows
    of ``dim`` finite numbers; None where the key is absent."""
    if "normals" not in doc:
        return None
    rows = doc["normals"]
    if not (isinstance(rows, list) and len(rows) == f
            and all(isinstance(row, list) and len(row) == dim for row in rows)):
        raise SchemaError(f'"normals" must be {f} rows of {dim} numbers, one per facet')
    problems = [f"normals row {k} entry {x!r} is not a finite number"
                for k, row in enumerate(rows, start=1) for x in row if not _is_finite_number(x)]
    if problems:
        raise SchemaError("; ".join(problems))
    return rows


def load_orbifold(doc):
    """Validated orbifold from parsed JSON (polytope keys plus "orders",
    and the optional "normals")."""
    P = load_polytope(doc)
    if "orders" not in doc:
        raise SchemaError('missing key "orders"')
    if not isinstance(doc["orders"], list):
        raise SchemaError(f'"orders" must be a list of [i, j, m] triples, got {doc["orders"]!r}')
    name_to_id = {entry: k for k, entry in enumerate(doc["facets"], start=1)}
    problems = []
    orders = {}
    for item in doc["orders"]:
        try:
            i, j, m = item
        except (TypeError, ValueError):
            problems.append(f"orders entry {item!r} is not a triple")
            continue
        try:
            known = all(x in name_to_id and not isinstance(x, bool) for x in (i, j))
        except TypeError:  # a list or an object in place of a facet
            known = False
        if not known:
            problems.append(f"orders entry ({i},{j}) names an unknown facet")
            continue
        if not isinstance(m, int) or m < 2:
            problems.append(f"ridge ({i},{j}) has order {m!r}; need an integer >= 2")
            continue
        orders[(name_to_id[i], name_to_id[j])] = m
    if problems:
        raise SchemaError("; ".join(problems))
    normals = _load_normals(doc, P.f, P.n + 1)
    try:
        return ob.make_orbifold(P, orders, normals)
    except ob.OrbifoldError as exc:
        raise SchemaError(f"orbifold: {exc}") from exc


def load_cartan(doc):
    """Cartan matrix from {"matrix": rows, "orders": [[i,j,m],...]? } or a
    bare row array (pattern inferred from the entries)."""
    if isinstance(doc, list):
        doc = {"matrix": doc}
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SchemaError('Cartan document needs a "matrix" key or a bare row array')
    import numpy as np

    from coxdeform import cartan as ct

    try:
        entries = np.asarray(doc["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cartan: matrix is not an array of numbers ({exc})") from exc
    if not np.isfinite(entries).all():
        raise SchemaError("cartan: matrix has non-finite entries")
    orders = None
    if "orders" in doc:
        try:
            triples = [(i, j, m) for i, j, m in doc["orders"]]
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"cartan: orders must be [i, j, m] integer triples ({exc})") from exc
        problems = []
        for i, j, m in triples:
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
                problems.append(f"orders entry ({i!r},{j!r}) needs integer facet ids")
            elif not isinstance(m, int) or m < 2:  # True and False are below 2
                problems.append(f"pair ({i},{j}) has order {m!r}; need an integer >= 2")
        if problems:
            raise SchemaError("cartan: " + "; ".join(problems))
        orders = {(i, j): m for i, j, m in triples}
    try:
        return ct.CartanMatrix(entries, orders=orders)
    except ct.CartanError as exc:
        raise SchemaError(f"cartan: {exc}") from exc


def dump_polytope(P):
    return {"n": P.n, "facets": list(P.facets),
            "ridges": [list(r) for r in sorted(P.ridges)],
            "vertices": sorted(sorted(V) for V in P.vertices)}


def dump_orbifold(Q):
    doc = dump_polytope(Q.base)
    doc["orders"] = [[i, j, m] for (i, j), m in sorted(Q.orders.items())]
    if Q.normals is not None:
        doc["normals"] = [list(row) for row in Q.normals]
    return doc


def dump_realization(R):
    return {
        "normals": to_jsonable(R.normals),
        "residual_norm": canonical_float(R.residual_norm),
        "vertex_flags": {",".join(map(str, sorted(V))): bool(ok)
                         for V, ok in sorted(R.vertex_flags.items(), key=lambda kv: sorted(kv[0]))},
        "nonadjacent_products": {f"{i},{j}": canonical_float(v)
                                 for (i, j), v in sorted(R.nonadjacent_products.items())},
    }
