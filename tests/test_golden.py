"""Golden CLI reports: stdout of each case must match ``tests/golden/<case>.out``
byte for byte, with exit status 0 and nothing on stderr.

``realize`` and ``dim`` are not covered: their spectra print digits that
depend on BLAS rounding.  Regenerate the files, only when a report is meant
to change, with ``PYTHONPATH=src python tests/test_golden.py [CASE ...]``:
it rewrites the named cases, or every case when none is named, and refuses
an unknown name before it writes any file.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from coxdeform import bundled, cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {f"check-{name}": ["check", name] for name in bundled.BUILTIN_NAMES}
CASES.update({
    "stats-cube-d5-exact": ["stats", "cube", "--d", "5", "--mode", "exact"],
    # N_0 = 998 here counts Euclidean 3-circuits (float 1/m sums) as valid
    "stats-prism3-d8-exact": ["stats", "prism3", "--d", "8", "--mode", "exact"],
    "stats-dodecahedron-d3-mc": ["stats", "dodecahedron", "--d", "3",
                                 "--samples", "3000", "--seed", "4"],
    "stats-prism8-d20-mc": ["stats", "prism8", "--d", "20", "--samples", "500"],
    # four order classes {2}, {3}, {4, 5}, {6, 7} and a width-8 DP boundary
    "stats-dodecahedron-d7-mc": ["stats", "dodecahedron", "--d", "7",
                                 "--samples", "300", "--seed", "7"],
    # a cut dodecahedron without vertices, facets renamed and lists shuffled:
    # loading rebuilds the vertices from the facet adjacency
    "check-vertexless_truncation": ["check", str(GOLDEN / "vertexless_truncation.json")],
    # simplex(3) with 30 cuts (conftest.random_truncation, default_rng(30))
    # and order 3 on a factor: pins a 30-step truncation history
    "check-truncated_simplex": ["check", str(GOLDEN / "truncated_simplex.json")],
    # the det grid of the Esselmann family as CSV on stdout
    "curve-esselmann-r21": ["curve", "esselmann", "--res", "21"],
})


def run_case(argv):
    """(exit status, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    code, out, err = run_case(CASES[case])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in names:
        code, out, err = run_case(CASES[case])
        if code or err:
            sys.exit(f"{case}: exit {code}, stderr {err!r}")
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
