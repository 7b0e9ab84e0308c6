"""Cold start: the exact-algebra commands never import scipy.

``template`` and ``recover`` are exact algebra plus numpy, so a fresh
process that imports the CLI and runs them must not load scipy; only the
calls that evaluate Bessel functions or run the least-squares polish do.
Each check runs in a fresh interpreter, since this test process has
already imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import coneasym
from coneasym.fitrecover import FitReport, reports_to_jsonl

SRC = str(Path(coneasym.__file__).resolve().parent.parent)


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_loads_no_scipy():
    got = _fresh(f"import json, sys\nimport coneasym.cli\nprint(json.dumps({_SCIPY}))")
    assert got == []


def test_package_import_loads_no_optimizer():
    got = _fresh("import json, sys\nimport coneasym\n"
                 "print(json.dumps({'optimize': 'scipy.optimize' in sys.modules,"
                 " 'least_squares': callable(coneasym.fitrecover.least_squares)}))")
    assert got == {"optimize": False, "least_squares": True}


def test_template_and_recover_run_without_scipy(tmp_path):
    # circle of radius 1/2, n = 1: eigenvalues 0, -4, -16 give exponents 0, 2, 4
    fits = tmp_path / "fits.jsonl"
    fits.write_text(reports_to_jsonl([
        FitReport(exponent=e, stderr=1e-9, coefficient=1.0, log_coefficient_ratio=0.0,
                  residual_rms=1e-12, n_samples=16, window=(1e-4, 1e-3), mode_j=j, t=1.0)
        for j, e in enumerate((0.0, 2.0, 4.0))
    ]))
    out = tmp_path / "recovered.json"
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from coneasym import cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['template', '--cross-section', 's2', '--gamma', '0', '--k', '3', '--check']),\n"
        f"             cli.main(['recover', '--fits', {str(fits)!r}, '--n', '1', '--gamma', '0', '--k', '3',\n"
        f"                       '--out', {str(out)!r}])]\n"
        f"print(json.dumps({{'codes': codes, 'scipy': {_SCIPY}}}))"
    )
    got = _fresh(code)
    assert got == {"codes": [0, 0], "scipy": []}
    recovered = json.loads(out.read_text())["recovered"]
    assert [round(r["lambda"]) for r in recovered] == [0, -4, -16]
