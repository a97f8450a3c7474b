"""The traffic-coverage tool (``tests/traffic_coverage.py``) on its
``--quick`` subset: it runs, and it tells statements that ``check`` and
``dim`` run from statements that neither reaches."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).with_name("traffic_coverage.py")


def _functions(report, path):
    """The functions the report lists under ``path``."""
    section = report.split(f"\n{path}: ", 1)[1].split("\n\n", 1)[0]
    return {line.strip() for line in section.splitlines()[1:] if not line.startswith("    ")}


def test_traffic_coverage_quick():
    proc = subprocess.run([sys.executable, str(TOOL), "--quick"], capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout
    assert "exit 0: coxdeform check tetrahedron353" in report
    assert "exit 0: coxdeform dim loebell5_factor" in report
    assert "realize_point_from_cartan" in _functions(report, "src/coxdeform/cartan.py")
    lorentz = _functions(report, "src/coxdeform/lorentz.py")
    assert "_prism_closed_form" in lorentz and "_loebell_closed_form" not in lorentz
    orbifold = _functions(report, "src/coxdeform/orbifold.py")
    assert "check_weak_ordering" in orbifold and "counts" not in orbifold
