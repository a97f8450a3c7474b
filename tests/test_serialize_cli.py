import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import coxdeform
from coxdeform import bundled, cli, orbifold as ob, serialize

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def fresh_python(*args, check=False):
    """Run ``python *args`` in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxdeform.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=check)


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


def test_dumps_canonicalizes_floats():
    text = serialize.dumps({"x": 0.1 + 0.2})
    assert json.loads(text)["x"] == 0.3


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
    assert report["dimension"] == 0
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


def test_cli_validation_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    doc = bundled.builtin_document("tetrahedron353")
    doc["orders"][0][2] = 1
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and "validation failure" in err

    code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 1


def test_cli_numerical_exit_code(capsys):
    code, _, err = run_cli(capsys, "realize", "doubled_cube",
                           "--seed-name", "random", "--seed", "123")
    assert code == 2 and "numerical failure" in err


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
    assert report["formula_dimension"] == 1
    assert report["rank_phi"]["full_rank"] is False
    assert report["rank_phi"]["kernel_minus_gauge"] == 2
    assert report["rank_sum"]["identity_holds"] is True


def test_runtime_does_not_import_scipy(tmp_path):
    # a fresh interpreter: the dim pipeline (including U-membership), check
    # (also on a document without vertices), realize, cartan, curve, Monte
    # Carlo stats, a factor orbifold of L(8) and the random Lorentz transform
    # must pull in neither scipy nor networkx
    from coxdeform import vinberg

    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": vinberg.esselmann_base_matrix().tolist()}))
    vertexless = GOLDEN / "vertexless_truncation.json"
    assert "vertices" not in json.loads(vertexless.read_text())
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from coxdeform import cli, lorentz, matchstats, polytope\n"
        f"assert cli.main(['dim', 'loebell5_factor', '--out', {str(tmp_path / 'dim.json')!r}]) == 0\n"
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
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'networkx'))))\n"
    )
    out = fresh_python("-c", code, check=True)
    assert out.stdout.strip() == "[]"
    assert json.loads((tmp_path / "dim.json").read_text())["dimension"] == 7
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
             ({"matrix": [2, -1]}, "Cartan matrix must be square")]
    for doc, message in cases:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "cartan", str(path))
        assert (code, out) == (1, ""), doc
        assert err.startswith("validation failure: cartan: ") and message in err, (doc, err)


def test_cli_curve_refuses_fewer_than_two_grid_points(capsys, tmp_path):
    for res in ("-3", "0", "1"):
        base = tmp_path / f"curve{res}"
        code, out, err = run_cli(capsys, "curve", "esselmann", "--res", res, "--out", str(base))
        assert (code, out) == (1, "")
        assert err == f"validation failure: curve sampling needs res >= 2 grid points per axis, got {res}\n"
        assert not (tmp_path / f"curve{res}.csv").exists()
    code, out, _ = run_cli(capsys, "curve", "esselmann", "--res", "2")
    assert code == 0 and len(out.splitlines()) == 1 + 2 * 2


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
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'coxdeform'))))\n"
    )
    out = fresh_python("-c", code, check=True)
    assert out.stdout.strip() == repr(CHECK_MODULES)
    for name in names:
        assert json.loads((tmp_path / name).read_text())["valid"] is True


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
        (["realize", "doubled_cube", "--seed-name", "random", "--seed", "123"], 2,
         "numerical failure: no convergence"),
    ]
    for argv, code, message in cases:
        out = fresh_python("-c", f"import sys\nfrom coxdeform import cli\nsys.exit(cli.main({argv!r}))")
        assert (out.returncode, out.stdout) == (code, ""), (argv, out.stderr)
        assert out.stderr.startswith(message), (argv, out.stderr)
