import argparse
import gc
import importlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import coxdeform
from coxdeform import bundled, cli, lorentz, orbifold as ob, serialize
from conftest import curve_csv_oracle, to_jsonable_oracle

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def fresh_python_env():
    """The environment of a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxdeform.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def fresh_python(*args, check=False):
    """Run ``python *args`` in a new interpreter that imports this package."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=fresh_python_env(), check=check)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundled_examples_roundtrip():
    for name in bundled.BUILTIN_NAMES:
        Q = bundled.load_builtin(name)
        doc = serialize.dump_orbifold(Q)
        Q2 = serialize.load_orbifold(doc)
        assert Q2.orders == Q.orders
        assert set(Q2.base.ridges) == set(Q.base.ridges)
        assert Q2.normals == Q.normals
    assert bundled.load_builtin("doubled_cube").normals is not None


def test_dumps_canonicalizes_floats():
    text = serialize.dumps({"x": 0.1 + 0.2})
    assert json.loads(text)["x"] == 0.3


def _doubled_cube_normals(edit):
    """The doubled cube's document with ``edit`` applied to its normals."""
    doc = bundled.builtin_document("doubled_cube")
    doc["normals"] = edit(doc["normals"])
    return doc


def _entry(value):
    def edit(rows):
        rows[4][2] = value
        return rows
    return edit


SHAPE = r'^"normals" must be 9 rows of 4 numbers, one per facet$'


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda rows: {"rows": rows}, SHAPE, id="object"),
    pytest.param(lambda rows: rows[:-1], SHAPE, id="eight rows"),
    pytest.param(lambda rows: rows + rows[:1], SHAPE, id="ten rows"),
    pytest.param(lambda rows: [row[:3] for row in rows], SHAPE, id="three columns"),
    pytest.param(lambda rows: rows[:8] + [0.5], SHAPE, id="number row"),
    pytest.param(_entry(math.nan), r"^normals row 5 entry nan is not a finite number$", id="nan"),
    pytest.param(_entry(-math.inf), r"entry -inf is not a finite number", id="inf"),
    pytest.param(_entry(10 ** 400), r"row 5 entry 1000\d+ is not a finite number",
                 id="huge integer"),
    pytest.param(_entry(True), r"^normals row 5 entry True is not a finite number$", id="bool"),
    pytest.param(_entry("0.5"), r"entry '0.5' is not a finite number", id="string"),
    pytest.param(_entry(None), r"entry None is not a finite number", id="null"),
    pytest.param(_entry([0.5]), r"entry \[0.5\] is not a finite number", id="list"),
])
def test_malformed_normals_refused(edit, message):
    with pytest.raises(serialize.SchemaError, match=message):
        serialize.load_orbifold(_doubled_cube_normals(edit))


def test_normals_are_read_as_floats():
    """Integers are numbers: they load as floats, and the rows dump back."""
    doc = _doubled_cube_normals(lambda rows: [[1, 0, 0, 0]] * 9)
    Q = serialize.load_orbifold(doc)
    assert Q.normals == ((1.0, 0.0, 0.0, 0.0),) * 9
    assert all(type(x) is float for row in Q.normals for x in row)
    assert serialize.dump_orbifold(Q)["normals"] == [[1.0, 0.0, 0.0, 0.0]] * 9


def _swap_rows(rows):
    rows[1:4], rows[4:7] = rows[4:7], rows[1:4]
    return rows


def test_normals_of_another_polytope_name_the_start(tmp_path, capsys):
    """The doubled cube's normals with rows 2-4 and 5-7 swapped load, and
    Newton converges from them to a realization of another polytope: the
    refusal names the document's normals as the start and the facet pair
    that does not diverge.  The same point reached from another start
    keeps the plain message."""
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(_doubled_cube_normals(_swap_rows)), encoding="utf-8")
    code, out, err = run_cli(capsys, "realize", str(path))
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert re.fullmatch(r'numerical failure: the document\'s "normals" realize another '
                        r"polytope: non-adjacent facets 2,6 do not diverge "
                        r"\(<nu_i,nu_j> = [\d.]+\)\n", err)
    Q = serialize.load_orbifold(_doubled_cube_normals(_swap_rows))
    moved = np.array(Q.normals) + 1e-9
    with pytest.raises(lorentz.RealizationError, match=r"^non-adjacent facets 2,6 do not"):
        lorentz.solve_hyperbolic_newton(Q, moved)
    # the bundled document's own normals, and starts near them, still realize
    Q = bundled.load_builtin("doubled_cube")
    start = np.array(Q.normals)
    for x in (None, start + np.random.default_rng(7).uniform(-1e-2, 1e-2, size=start.shape)):
        assert lorentz.solve_hyperbolic_newton(Q, x).residual_norm < lorentz.RESIDUAL_TOL


def test_schema_error_names_ridge(tmp_path):
    doc = bundled.builtin_document("tetrahedron353")
    doc["orders"][0][2] = 1
    with pytest.raises(serialize.SchemaError, match=r"\(1,\s?2\)"):
        serialize.load_orbifold(doc)


def test_schema_error_unknown_facet():
    doc = bundled.builtin_document("tetrahedron353")
    doc["ridges"][0] = [1, 9]
    with pytest.raises(serialize.SchemaError, match="unknown facet"):
        serialize.load_polytope(doc)


def test_builtin_dir_override(tmp_path, monkeypatch):
    src = os.path.join(os.path.dirname(bundled.__file__), "data")
    for name in os.listdir(src):
        shutil.copy(os.path.join(src, name), tmp_path)
    doc = json.load(open(tmp_path / "tetrahedron353.json"))
    doc["orders"] = [[i, j, (4 if m == 5 else m)] for i, j, m in doc["orders"]]
    with open(tmp_path / "tetrahedron353.json", "w") as fh:
        json.dump(doc, fh)
    monkeypatch.setenv(bundled.BUILTIN_DIR_ENV, str(tmp_path))
    Q = bundled.load_builtin("tetrahedron353")
    assert 4 in Q.orders.values() and 5 not in Q.orders.values()


def test_cli_dim_tetrahedron(capsys):
    code, out, _ = run_cli(capsys, "dim", "tetrahedron353")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 0 and report["method"] == "direct"
    assert report["rank_phi"]["rank"] == 13
    assert report["rank_psi"]["kernel_dim"] == 6
    assert report["config"]["seed"] == 0


def test_cli_check_doubled_cube(capsys):
    code, out, _ = run_cli(capsys, "check", "doubled_cube")
    assert code == 0
    report = json.loads(out)
    assert report["weakly_orderable"] is False
    assert report["certificate"] == list(range(1, 10))


def test_cli_check_reports_ordering(capsys):
    code, out, _ = run_cli(capsys, "check", "cube_flex")
    report = json.loads(out)
    assert code == 0 and report["weakly_orderable"]
    assert sorted(report["ordering"]) == list(range(1, 7))
    assert report["andreev"]["vertex_violations"] == []


def test_cli_realize_writes_normals(capsys, tmp_path):
    out_path = tmp_path / "real.json"
    code, _, _ = run_cli(capsys, "realize", "cube_rigid", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["realization"]["normals"]) == 6
    assert doc["realization"]["residual_norm"] < 1e-9
    assert all(doc["realization"]["vertex_flags"].values())


def test_cli_curve_contains_singular_point(capsys, tmp_path):
    base = tmp_path / "ess"
    code, _, _ = run_cli(capsys, "curve", "esselmann", "--res", "61",
                         "--out", str(base))
    assert code == 0
    contour = json.loads((tmp_path / "ess.json").read_text())
    dmin = min(math.hypot(p[0] - 1, p[1] - 1)
               for seg in contour["segments"] for p in seg)
    assert dmin < 0.05
    rows = (tmp_path / "ess.csv").read_text().splitlines()
    assert rows[0] == "x,y,det"
    assert len(rows) == 1 + 61 * 61


def test_cli_curve_default_files_are_pinned(capsys, tmp_path):
    # sha256 of the res-101 CSV and contour JSON: the CSV recorded from the
    # per-cell implementation that the array code replaced, the JSON since its
    # config block echoes only the options curve reads (none)
    import hashlib

    code, out, err = run_cli(capsys, "curve", "esselmann", "--out", str(tmp_path / "ess.csv"))
    assert (code, out, err) == (0, "", "")
    digests = {ext: hashlib.sha256((tmp_path / f"ess.{ext}").read_bytes()).hexdigest()
               for ext in ("csv", "json")}
    assert digests == {
        "csv": "e9c7d3d85e26aa053c5c15a5e8d6901644c1ddce8073d325a84ad0c00def7d33",
        "json": "d05d1c32765b1be5a68f62cd19074af2a6b23776764311fa03ff2f0d97fd1a01",
    }


def test_cli_curve_csv_matches_per_cell_format(capsys):
    from coxdeform import vinberg

    box = ["0.3", "1.7", "0.45", "1.9"]
    code, out, _ = run_cli(capsys, "curve", "esselmann", "--box", *box, "--res", "13")
    samples = vinberg.family_curve(vinberg.esselmann_family(),
                                   box=tuple(map(float, box)), res=13)
    assert code == 0 and out == curve_csv_oracle(samples)
    assert len({len(line) for line in out.splitlines()}) > 3     # digits vary along each axis


def test_cli_stats_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "stats", "prism3", "--d", "7",
                             "--mode", "montecarlo", "--samples", "150",
                             "--seed", "5")
    code2, out2, _ = run_cli(capsys, "stats", "prism3", "--d", "7",
                             "--mode", "montecarlo", "--samples", "150",
                             "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports


def test_cli_stats_exact(capsys):
    code, out, _ = run_cli(capsys, "stats", "cube", "--d", "5", "--mode", "exact")
    report = json.loads(out)["report"]
    assert code == 0
    assert report["valid_count"] == 72194 and report["fraction"] == 1.0

    code, out, _ = run_cli(capsys, "stats", "prism3", "--d", "8", "--mode", "exact")
    report = json.loads(out)["report"]
    assert code == 0
    assert report["identity_holds"] is True
    assert report["nj"] == {"0": 998, "1": 630, "2": 60, "3": 8}


@pytest.mark.parametrize("form", ["loebell6", "cube_flex", "loebell5.json"])
def test_cli_stats_polytope_arguments(capsys, tmp_path, form):
    """stats reads a polytope as loebellN, as the base of a bundled orbifold
    outside polytope.BUILTIN_POLYTOPES, and from a JSON path named by its
    file name; the Monte Carlo report is that of the polytope itself."""
    from coxdeform import matchstats, polytope as pt

    P = {"loebell6": pt.loebell(6), "cube_flex": bundled.load_builtin("cube_flex").base,
         "loebell5.json": pt.loebell(5)}[form]
    assert form not in pt.BUILTIN_POLYTOPES
    arg = form
    if form.endswith(".json"):
        arg = str(tmp_path / form)
        pathlib.Path(arg).write_text(json.dumps(serialize.dump_polytope(P)))
    code, out, _ = run_cli(capsys, "stats", arg, "--d", "6", "--samples", "40", "--seed", "3")
    doc = json.loads(out)
    assert code == 0 and doc["input"] == form
    assert doc["report"]["samples"] == 40 and doc["report"]["polytope"] == form
    report = matchstats.estimate_wo_fraction(P, 6, samples=40, seed=3, name=form)
    assert doc["report"] == json.loads(serialize.dumps(report))


def test_cli_stats_csv(capsys):
    code, out, _ = run_cli(capsys, "stats", "cube", "--d", "4",
                           "--mode", "montecarlo", "--samples", "50",
                           "--seed", "2", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "d,fraction,ci_low,ci_high"
    assert row.startswith("4,")
    with pytest.raises(SystemExit) as exc:  # --format is a stats flag only
        cli.main(["check", "tetrahedron353", "--format", "csv"])
    assert exc.value.code == 2


def test_cli_stats_without_valid_assignments(capsys):
    # prism(3) at d = 3: no assignment passes its 3-circuit, so no fraction
    code, out, _ = run_cli(capsys, "stats", "prism3", "--d", "3", "--mode", "exact")
    report = json.loads(out)["report"]
    assert code == 0 and report["valid_count"] == 0
    assert report["fraction"] is report["ci_low"] is report["ci_high"] is None
    code, out, _ = run_cli(capsys, "stats", "prism3", "--d", "3", "--mode", "exact",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["d,fraction,ci_low,ci_high", "3,,,"]


def test_cli_stats_refuses_higher_dimensional_polytope(capsys):
    # the statistics bound order-2 edges per face by 3, so they need n = 3,
    # and the refusal names n
    for mode in ("montecarlo", "exact"):
        code, out, err = run_cli(capsys, "stats", "esselmann", "--d", "5", "--mode", mode)
        assert (code, out) == (1, "")
        assert err == ("validation failure: weak-orderability statistics need a "
                       "3-polytope, got n = 4\n")


def test_cli_validation_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    doc = bundled.builtin_document("tetrahedron353")
    doc["orders"][0][2] = 1
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and "validation failure" in err

    code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 1

    # an n >= 4 polytope without its vertex list: five ridges of esselmann
    doc = bundled.builtin_document("esselmann")
    doc["ridges"] = doc["ridges"][:5]
    doc["orders"] = [o for o in doc["orders"] if o[:2] in doc["ridges"]]
    del doc["vertices"]
    bad.write_text(json.dumps(doc))
    for command in ("check", "dim"):
        code, out, err = run_cli(capsys, command, str(bad))
        assert (code, out) == (1, "")
        assert err == "validation failure: polytope: a 4-polytope needs its vertex list\n"


def test_cli_numerical_exit_code(capsys):
    code, _, err = run_cli(capsys, "realize", "doubled_cube",
                           "--seed-name", "random", "--seed", "123")
    assert code == 2 and "numerical failure" in err


@pytest.mark.parametrize("command", ["realize", "dim"])
@pytest.mark.parametrize("name", ["prism", "cube", "loebell", "doubled_cube", "simplex"])
def test_cli_seed_name_takes_only_random(capsys, command, name):
    """The seed is inferred from the polytope; ``--seed-name`` only switches
    to a random start, and any other value is a usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "cube_flex", "--seed-name", name])
    assert exc.value.code == 2
    assert f"argument --seed-name: invalid choice: '{name}'" in capsys.readouterr().err


def test_cli_cartan_command(capsys, tmp_path):
    from coxdeform import vinberg

    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"matrix": vinberg.esselmann_base_matrix().tolist()}))
    code, out, _ = run_cli(capsys, "cartan", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 5
    assert report["conditions_passed"] is True
    assert report["classification"] == "negative-irreducible"
    coords = report["normal_form"]["cycle_coordinates"]
    assert coords["1,4"] == pytest.approx(1.0)
    assert coords["4,6"] == pytest.approx(1.0)


def test_cli_esselmann_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "esselmann")
    assert code == 0
    report = json.loads(out)
    assert report["formula_dimension"] == 1 and report["method"] == "direct-gram"
    assert report["rank_phi"]["full_rank"] is False
    assert report["rank_phi"]["kernel_minus_gauge"] == 2
    assert report["rank_sum"]["identity_holds"] is True


def test_runtime_does_not_import_scipy(tmp_path):
    # a fresh interpreter: the dim pipeline (including U-membership, and on
    # the loebell(8) factor, whose ring rotation keeps its orders), check
    # (also on a document without vertices), realize, cartan, curve, Monte
    # Carlo stats, a factor orbifold of L(8), the rank sum of the L(16)
    # factor, whose D psi certificate takes the mode blocks, and the random
    # Lorentz transform must pull in neither scipy nor networkx, nor
    # numpy.fft (the mode blocks' DFT is a product with a table of
    # twiddles), nor numpy.ma, which np.unique without its index outputs
    # imports
    from coxdeform import vinberg

    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": vinberg.esselmann_base_matrix().tolist()}))
    vertexless = GOLDEN / "vertexless_truncation.json"
    assert "vertices" not in json.loads(vertexless.read_text())
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from coxdeform import cli, lorentz, matchstats, polytope, vinberg\n"
        f"assert cli.main(['dim', 'loebell5_factor', '--out', {str(tmp_path / 'dim.json')!r}]) == 0\n"
        f"assert cli.main(['dim', 'loebell8_factor', '--out', {str(tmp_path / 'd8.json')!r}]) == 0\n"
        f"assert cli.main(['check', 'tetrahedron353', '--out', {str(tmp_path / 'check.json')!r}]) == 0\n"
        f"assert cli.main(['check', {str(vertexless)!r}, '--out', {str(tmp_path / 'vl.json')!r}]) == 0\n"
        f"assert cli.main(['realize', 'loebell6_factor', '--out', {str(tmp_path / 're.json')!r}]) == 0\n"
        f"assert cli.main(['cartan', {str(matrix)!r}, '--out', {str(tmp_path / 'ca.json')!r}]) == 0\n"
        "assert cli.main(['curve', 'esselmann', '--res', '5',\n"
        f"                 '--out', {str(tmp_path / 'curve')!r}]) == 0\n"
        "assert cli.main(['stats', 'dodecahedron', '--d', '20', '--samples', '50',\n"
        f"                 '--out', {str(tmp_path / 'stats.json')!r}]) == 0\n"
        "P = polytope.loebell(8)\n"
        "Q = matchstats.orbifold_from_factor(P, matchstats.find_factor(P, min(P.ridges)), 3)\n"
        "assert Q.f == 18\n"
        "P = polytope.loebell(16)\n"
        "Q = matchstats.orbifold_from_factor(P, matchstats.find_factor(P, min(P.ridges)), 3)\n"
        "S = lorentz.psi_structure(Q)\n"
        "p = vinberg.hyperbolic_point(lorentz.solve_hyperbolic_newton(Q))\n"
        "assert vinberg.check_rank_sum(Q, p).rank_psi.method == 'cholesky'\n"
        "assert S.rows.modes(S.symmetry) is not None and 'elimination' not in vars(S.rows)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy.ma' or m.startswith(('scipy', 'networkx', 'numpy.fft'))))\n"
    )
    out = fresh_python("-c", code, check=True)
    assert out.stdout.strip() == "[]"
    assert json.loads((tmp_path / "dim.json").read_text())["dimension"] == 7
    assert json.loads((tmp_path / "d8.json").read_text())["dimension"] == 13
    assert json.loads((tmp_path / "check.json").read_text())["valid"] is True
    assert json.loads((tmp_path / "vl.json").read_text())["valid"] is True
    assert json.loads((tmp_path / "re.json").read_text())["method"] == "newton"
    assert json.loads((tmp_path / "ca.json").read_text())["rank"] == 5
    assert len((tmp_path / "curve.csv").read_text().splitlines()) == 1 + 5 * 5
    assert json.loads((tmp_path / "stats.json").read_text())["report"]["d"] == 20


def test_cli_refuses_malformed_cartan_matrices(capsys, tmp_path):
    cases = [({"matrix": [[2, -1], [-1]]}, "matrix is not an array of numbers"),
             ([[2, "a"], [-1, 2]], "matrix is not an array of numbers"),
             ({"matrix": [[2, None], [-1, 2]]}, "matrix has non-finite entries"),
             ({"matrix": [[2, -1], [-1, 2]], "orders": [[1, 2]]}, "orders must be"),
             ({"matrix": [2, -1]}, "Cartan matrix must be square"),
             ({"matrix": [[2, -1], [-1, 2]], "orders": [[1, 3, 3]]},
              "orders name facet 3, outside the 2 x 2 matrix")]
    # what load_orbifold refuses: non-integer or boolean ids and orders, and
    # orders below 2
    path_matrix = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    cases += [({"matrix": path_matrix, "orders": orders}, message) for orders, message in [
        ([[1, 2, 3.7], [2, 3, 3], [1, 3, 2]], "pair (1,2) has order 3.7; need an integer >= 2"),
        ([[1.9, 2, 3], [2, 3, 3], [1, 3, 2]], "orders entry (1.9,2) needs integer facet ids"),
        ([[True, 2, 3], [2, 3, 3], [1, 3, 2]], "orders entry (True,2) needs integer facet ids"),
        ([[1, 2, "3"], [2, 3, 3], [1, 3, 2]], "pair (1,2) has order '3'; need an integer >= 2"),
        ([[1, 2, 3], [2, 3, True], [1, 3, 2]], "pair (2,3) has order True; need an integer >= 2"),
        ([[1, 2, 3], [2, 3, 3], [1, 3, 0]], "pair (1,3) has order 0; need an integer >= 2"),
        ([[1, 2, 3], [2, 3, 1], [1, 3, 2]], "pair (2,3) has order 1; need an integer >= 2")]]
    for doc, message in cases:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "cartan", str(path))
        assert (code, out) == (1, ""), doc
        assert err.startswith("validation failure: cartan: ") and message in err, (doc, err)
    # the same matrix with integer orders passes its conditions
    path.write_text(json.dumps({"matrix": path_matrix, "orders": [[1, 2, 3], [2, 3, 3], [1, 3, 2]]}))
    code, out, _ = run_cli(capsys, "cartan", str(path), "--n", "0")
    assert code == 0 and json.loads(out)["conditions_passed"] is True
    with pytest.raises(SystemExit) as exc:
        cli.main(["cartan", str(path), "--n", "-3"])
    assert exc.value.code == 2
    assert "argument --n: expected an integer of at least 0, got '-3'" in capsys.readouterr().err


def test_cli_refuses_malformed_orbifold_documents(capsys, tmp_path):
    def edit(path, value):
        doc = bundled.builtin_document("tetrahedron353")
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
        return doc

    cases = [(edit(["n"], "x"), "n = 'x' is not an integer"),
             (edit(["ridges", 0], [1, 2, 3]), "ridge [1, 2, 3] is not a pair of facets"),
             (edit(["facets", 0], [1]), "facet entry [1] is not an id or a name"),
             (edit(["vertices"], 5), "vertices 5 is not a list of facet lists"),
             (edit(["vertices", 0], [1, [2], 3]), "vertex [1, [2], 3] names an unknown facet"),
             (edit(["orders"], 5), '"orders" must be a list of [i, j, m] triples, got 5'),
             (edit(["orders", 0, 0], [1]), "orders entry ([1],2) names an unknown facet"),
             (edit(["n"], 3.5), "n = 3.5 is not an integer"),
             (edit(["n"], "3"), "n = '3' is not an integer"),
             (edit(["n"], True), "n = True is not an integer"),
             (edit(["facets", 0], True), "facet entry True is not an id or a name"),
             (edit(["ridges", 0, 0], True), "ridge [True, 2] names an unknown facet"),
             (edit(["vertices", 0, 0], True), "vertex [True, 2, 3] names an unknown facet"),
             (edit(["orders", 0, 0], True), "orders entry (True,2) names an unknown facet")]
    for doc, message in cases:
        path = tmp_path / "orbifold.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (1, ""), doc
        assert err.startswith("validation failure: ") and message in err, (doc, err)


def test_cli_lets_an_unexpected_key_error_escape(monkeypatch):
    # only the package's input errors are validation failures
    def lookup_bug(Q):
        raise KeyError("bug")

    monkeypatch.setattr(ob, "counts", lookup_bug)
    with pytest.raises(KeyError, match="bug"):
        cli.main(["check", "tetrahedron353"])


def _readme_option_table():
    """{command: (flags echoed in config, other flags)} from README's
    "Command line" section."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in re.findall(r"^\| `(\w+)` \|(.*)\|(.*)\|$", section, re.M):
        command, echoed, other = row
        table[command] = (re.findall(r"`(--[\w-]+)`", echoed),
                          re.findall(r"`(--[\w-]+)`", other))
    return table


def test_readme_option_table_matches_parser_and_config(capsys, tmp_path):
    # every option a command takes is in README's table and the reverse, and
    # the report's config echoes exactly the table's middle column
    from coxdeform import vinberg

    table = _readme_option_table()
    assert sorted(table) == sorted(cli.COMMANDS)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, (echoed, other) in table.items():
        flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == set(echoed) | set(other), command

    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": vinberg.esselmann_base_matrix().tolist()}))
    runs = {"check": ["tetrahedron353"], "realize": ["tetrahedron353"],
            "dim": ["tetrahedron353"], "cartan": [str(matrix)],
            "curve": ["esselmann", "--res", "5", "--out", str(tmp_path / "curve")],
            "stats": ["cube", "--d", "3", "--mode", "exact"]}
    for command, argv in runs.items():
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0, command
        report = json.loads(out or (tmp_path / "curve.json").read_text())
        keys = [flag[2:].replace("-", "_") for flag in table[command][0]]
        assert sorted(report["config"]) == sorted(keys), command

    # an option the command does not read is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "tetrahedron353", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["realize", "cube_flex", "--tol", "1e-3"], "--tol: expected a number in (0, 1e-08]"),
    (["realize", "cube_flex", "--tol", "0"], "--tol: expected a number in (0, 1e-08]"),
    (["realize", "cube_flex", "--tol", "-1"], "--tol: expected a number in (0, 1e-08]"),
    (["realize", "cube_flex", "--tol", "nan"], "--tol: expected a number in (0, 1e-08]"),
    (["realize", "cube_flex", "--tol", "inf"], "--tol: expected a number in (0, 1e-08]"),
    (["dim", "loebell6_factor", "--rank-tol", "-1"],
     "--rank-tol: expected a finite number above 0"),
    (["dim", "loebell6_factor", "--rank-tol", "nan"],
     "--rank-tol: expected a finite number above 0"),
    (["realize", "doubled_cube", "--seed-name", "random", "--seed", "-1"],
     "--seed: expected an integer of at least 0"),
    (["stats", "cube", "--d", "3", "--seed", "-1"], "--seed: expected an integer of at least 0"),
])
def test_cli_refuses_shared_options_out_of_range(capsys, argv, expected):
    """An out-of-range --tol, --rank-tol or --seed is a usage error that
    names the range, before any command runs."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {expected}, got '{argv[-1]}'" in capsys.readouterr().err


def test_cli_accepts_shared_options_at_their_bounds(capsys):
    """--tol at the realization bound itself realizes; --seed 0 and a tiny
    --rank-tol are accepted."""
    from coxdeform import lorentz

    code, out, _ = run_cli(capsys, "realize", "cube_flex", "--tol", "1e-8")
    assert code == 0 and json.loads(out)["config"]["tol"] == lorentz.VALID_RESIDUAL
    code, out, _ = run_cli(capsys, "dim", "tetrahedron353", "--rank-tol", "5e-324",
                           "--seed", "0")
    assert code == 0 and json.loads(out)["config"] == {
        "tol": 1e-10, "rank_tol": 5e-324, "seed": 0, "force": False}


def test_cli_curve_refuses_fewer_than_two_grid_points(capsys, tmp_path):
    for res in ("-3", "0", "1"):
        base = tmp_path / f"curve{res}"
        code, out, err = run_cli(capsys, "curve", "esselmann", "--res", res, "--out", str(base))
        assert (code, out) == (1, "")
        assert err == f"validation failure: curve sampling needs res >= 2 grid points per axis, got {res}\n"
        assert not (tmp_path / f"curve{res}.csv").exists()
    code, out, _ = run_cli(capsys, "curve", "esselmann", "--res", "2")
    assert code == 0 and len(out.splitlines()) == 1 + 2 * 2


def test_cli_curve_refuses_non_positive_box(capsys, tmp_path):
    positive = "family parameters must be positive"
    for box, message in ((["0", "2", "0.5", "2"], positive), (["0.5", "2", "-1", "2"], positive),
                         (["0.5", "2", "0.5", "nan"],
                          "curve box must be finite, got (0.5, 2.0, 0.5, nan)"),
                         (["inf", "2", "0.5", "2"],
                          "curve box must be finite, got (inf, 2.0, 0.5, 2.0)")):
        code, out, err = run_cli(capsys, "curve", "esselmann", "--box", *box,
                                 "--out", str(tmp_path / "curve"))
        assert (code, out) == (1, ""), box
        assert err == f"validation failure: {message}\n"
        assert list(tmp_path.iterdir()) == []


def _flags(doc, keys=("uncertain", "rank_uncertain")):
    """Every value under one of ``keys``, anywhere in a parsed report."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k in keys:
                yield v
            yield from _flags(v, keys)
    elif isinstance(doc, list):
        for v in doc:
            yield from _flags(v, keys)


def test_dim_reports_print_json_booleans(capsys):
    for name in bundled.BUILTIN_NAMES:
        code, out, _ = run_cli(capsys, "dim", name)
        assert code == 0, name
        report = json.loads(out)
        flags = list(_flags(report))
        assert len(flags) == 3, name  # rank_phi, rank_psi and rank_uncertain
        assert all(type(v) is bool for v in flags), (name, flags)


def test_to_jsonable_maps_numpy_booleans():
    assert serialize.to_jsonable({"a": np.bool_(False), "b": [np.bool_(True)]}) == \
        {"a": False, "b": [True]}


def _json_text(data):
    return json.dumps(data, sort_keys=True, indent=2)


def test_to_jsonable_arrays_match_per_entry_oracle():
    """Arrays converted with one tolist() and a flat pass print the same
    bytes as one recursive call per entry: integers up to and past 1e12,
    signed zeros, non-finite entries, float32, other shapes and kinds."""
    rng = np.random.default_rng(12)
    floats = rng.normal(size=(7, 5)) * np.logspace(-20, 20, 5)
    edge = np.array([0.0, -0.0, 1.0, -2.0, 1e12 - 1, 1e12, -1e12, 1e12 + 1, 2.0 ** 60,
                     0.5, 1.0 / 3.0, 123456789012.5, np.nan, np.inf, -np.inf, 5e-324])
    cases = [floats, edge, edge.astype(np.float32), floats.reshape(5, 7, 1), floats[:0],
             floats[:, :0], np.float64(0.1 + 0.2), np.array(2.5), np.arange(6).reshape(2, 3),
             np.array([True, False]), np.array([1, 2], dtype=np.uint8), floats[:, 1],
             np.array([1 + 2j]), {"a": floats, "b": [edge, (np.int64(3), np.float32(0.1))]}]
    for case in cases:
        assert _json_text(serialize.to_jsonable(case)) == _json_text(to_jsonable_oracle(case))


def test_reports_serialize_as_per_entry_oracle(capsys, tmp_path):
    """dim, realize and cartan reports print the same bytes as the
    per-entry conversion."""
    from coxdeform import vinberg

    path = tmp_path / "path.json"
    n = 40
    path.write_text(json.dumps((2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)).tolist()))
    essel = tmp_path / "essel.json"
    essel.write_text(json.dumps({"matrix": vinberg.esselmann_base_matrix().tolist()}))
    commands = [["cartan", str(path)], ["cartan", str(essel)]]
    commands += [[cmd, name] for cmd in ("dim", "realize")
                 for name in ("esselmann", "doubled_cube", "loebell5_factor")]
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        report, code = cli.COMMANDS[args.command](args)
        assert code == 0, argv
        assert serialize.dumps(report) == _json_text(to_jsonable_oracle(report)) + "\n", argv


# the modules ``check`` loads on a 3-dimensional orbifold
CHECK_MODULES = ["coxdeform", "coxdeform.bundled", "coxdeform.cli", "coxdeform.errors",
                 "coxdeform.orbifold", "coxdeform.polytope", "coxdeform.serialize"]


def test_import_coxdeform_loads_no_submodule():
    out = fresh_python("-c", "import sys, coxdeform\n"
                       "print(sorted(m for m in sys.modules if m.startswith('coxdeform')))",
                       check=True)
    assert out.stdout.strip() == "['coxdeform']"


def test_check_runs_without_numpy(tmp_path):
    # every bundled 3-dimensional name, in one fresh interpreter; esselmann
    # (n = 4) is left out: its vertex test takes eigenvalues with numpy
    names = [n for n in bundled.BUILTIN_NAMES if n != "esselmann"]
    assert len(names) == 9
    code = (
        "import os, sys\n"
        "from coxdeform import cli\n"
        f"for name in {names!r}:\n"
        f"    assert cli.main(['check', name, '--out', os.path.join({str(tmp_path)!r}, name)]) == 0\n"
        "assert 'dataclasses' not in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'coxdeform'))))\n"
    )
    out = fresh_python("-c", code, check=True)
    assert out.stdout.strip() == repr(CHECK_MODULES)
    for name in names:
        assert json.loads((tmp_path / name).read_text())["valid"] is True


def test_curve_and_cartan_do_not_load_lorentz(tmp_path):
    # neither command realizes anything, so the Lorentz solver stays unloaded
    from coxdeform import vinberg

    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": vinberg.esselmann_base_matrix().tolist()}))
    code = (
        "import sys\n"
        "from coxdeform import cli\n"
        f"assert cli.main(['cartan', {str(matrix)!r}, '--out', {str(tmp_path / 'ca.json')!r}]) == 0\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert cli.main(['curve', 'esselmann', '--res', '5',\n"
        f"                 '--out', {str(tmp_path / 'curve')!r}]) == 0\n"
        "assert 'dataclasses' not in sys.modules\n"
        "print('coxdeform.vinberg' in sys.modules, 'coxdeform.lorentz' in sys.modules)\n"
    )
    out = fresh_python("-c", code, check=True)
    assert out.stdout.strip() == "True False"


def test_dim_and_stats_do_not_load_dataclasses(tmp_path):
    # every report is a NamedTuple, so no command pays for importing dataclasses
    code = (
        "import sys\n"
        "from coxdeform import cli\n"
        f"assert cli.main(['dim', 'doubled_cube', '--out', {str(tmp_path / 'dim.json')!r}]) == 0\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert cli.main(['stats', 'cube', '--d', '5', '--samples', '50',\n"
        f"                 '--out', {str(tmp_path / 'stats.json')!r}]) == 0\n"
        "assert 'dataclasses' not in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.startswith('coxdeform.')))\n"
    )
    out = fresh_python("-c", code, check=True)
    assert "'coxdeform.lorentz'" in out.stdout and "'coxdeform.matchstats'" in out.stdout


def test_exit_codes_from_a_cold_start(tmp_path):
    # each error class reaches its exit code in a fresh interpreter, where
    # only the modules the command imports are loaded
    def write(name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    doc = bundled.builtin_document("tetrahedron353")
    doc["orders"][0][2] = 1
    bad_order = write("bad_order.json", doc)
    doc = bundled.builtin_document("tetrahedron353")
    doc["orders"] = [[i, j, 6 if m == 5 else m] for i, j, m in doc["orders"]]
    euclidean_vertex = write("euclidean_vertex.json", doc)
    no_real_eigenvalue = write("no_real_eigenvalue.json", {"matrix": [[2, -1], [1, 2]]})
    ragged = write("ragged.json", {"matrix": [[2, -1], [-1]]})
    cases = [
        (["check", bad_order], 1, "validation failure: ridge (1,2) has order 1"),
        (["check", euclidean_vertex], 1,
         "validation failure: orbifold: vertex [1, 2, 3] is not elliptic (1/3 + 1/2 + 1/6 <= 1)"),
        (["cartan", no_real_eigenvalue], 1, "validation failure: no real eigenvalue found"),
        (["cartan", ragged], 1, "validation failure: cartan: matrix is not an array of numbers"),
        (["stats", "prism3", "--d", "3", "--mode", "montecarlo"], 1,
         "validation failure: no valid assignments exist"),
        (["realize", "cube_flex", "--seed-name", "loebell"], 2,
         "usage: coxdeform realize"),
        (["realize", "doubled_cube", "--seed-name", "random", "--seed", "123"], 2,
         "numerical failure: no convergence"),
        (["check", "tetrahedron353", "--out", str(tmp_path / "check.json")], 0, ""),
    ]
    # ``cli.main`` in-process, and the process entry ``cli.run`` that the
    # benchmark and the ``coxdeform`` script use
    for argv, code, message in cases:
        for entry in (["-c", f"import sys\nfrom coxdeform import cli\nsys.exit(cli.main({argv!r}))"],
                      ["-m", "coxdeform.cli", *argv]):
            out = fresh_python(*entry)
            assert (out.returncode, out.stdout) == (code, ""), (entry, out.stderr)
            if message:
                assert out.stderr.startswith(message), (entry, out.stderr)
            else:
                assert out.stderr == "", entry
                assert ((tmp_path / "check.json").read_text(encoding="utf-8")
                        == (GOLDEN / "check-tetrahedron353.out").read_text(encoding="utf-8"))
                (tmp_path / "check.json").unlink()


def test_process_entry_flushes_stdout(capsys):
    # ``python -m coxdeform.cli`` prints what ``cli.main`` prints in-process:
    # the curve CSV, far longer than a pipe buffer, and a check report, which
    # stays in stdout's buffer until exit and is lost by an exit that skips
    # the flush (os._exit); stdout is block-buffered, as without PYTHONUNBUFFERED
    env = fresh_python_env()
    env.pop("PYTHONUNBUFFERED", None)
    for argv, lines in ((["curve", "esselmann"], 10202), (["check", "tetrahedron353"], 45)):
        out = subprocess.run([sys.executable, "-m", "coxdeform.cli", *argv],
                             capture_output=True, env=env, check=True)
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        assert expected.count(b"\n") == lines
        assert out.stdout == expected, argv


def test_main_in_process_leaves_the_collector_alone(capsys):
    # only the process entry ``run`` freezes the heap, never ``main``
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["curve", "esselmann", "--res", "5"]) == 0
    assert cli.main(["check", "tetrahedron353"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_console_script_is_the_process_entry():
    # a regex, not tomllib: tomllib needs Python 3.11 and the package takes 3.10
    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    target = re.fullmatch(r'coxdeform = "([\w.]+):(\w+)"', scripts.strip()).groups()
    assert target == ("coxdeform.cli", "run")
    module, name = target
    assert getattr(importlib.import_module(module), name) is cli.run
