"""Cold start: the exact-algebra, fitting and small-x solving commands
never import scipy.

``template`` and ``recover`` are exact algebra plus numpy, ``fit`` is a
numpy Gauss-Newton fit, and ``solve`` evaluates every point of the README
scenario by the heat kernel's ascending series, so a fresh process that
imports the CLI and runs them must not load scipy; only the calls that
evaluate Bessel functions by scipy (the heat quadrature, the resolvent)
do.  Each check runs in a fresh interpreter, since this test process has
already imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import coneasym
from coneasym.conesolve import csv_to_rows, rows_to_csv
from coneasym.fitrecover import FitReport, reports_from_jsonl, reports_to_jsonl

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
        FitReport(exponent=e, stderr=1e-15, step=2.0, step_stderr=1e-10, coefficients=(1.0, 0.1, 0.01, 0.001),
                  coefficient_stderr=(1e-15, 1e-12, 1e-10, 1e-8), residual_rms=1e-15, n_samples=49,
                  window=(1e-4, 1e-1), mode_j=j, t=1.0)
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


def test_fit_runs_without_scipy(tmp_path):
    """``fit`` on a small solution CSV loads no scipy module at all."""
    x = np.geomspace(1e-4, 1e-1, 25)
    csv = tmp_path / "rows.csv"
    csv.write_text(rows_to_csv([(j, float(j), 1.0, float(xi), float((1.0 + 0.1 * xi * xi) * xi ** (2 * j)))
                                for j in (0, 1) for xi in x]))
    out = tmp_path / "fits.jsonl"
    code = (
        "import json, sys\n"
        "from coneasym import cli\n"
        f"code = cli.main(['fit', '--csv', {str(csv)!r}, '--out', {str(out)!r}])\n"
        f"print(json.dumps({{'code': code, 'scipy': {_SCIPY}}}))"
    )
    assert _fresh(code) == {"code": 0, "scipy": []}
    reports = reports_from_jsonl(out.read_text())
    assert [(r.mode_j, round(r.exponent, 9)) for r in reports] == [(0, 0.0), (1, 2.0)]


def test_solve_runs_without_scipy(tmp_path):
    """``solve`` on the README circle scenario (modes 0-3, t in {0.5, 1, 2},
    588 rows) loads no scipy module at all."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "cross_section": {"name": "circle", "radius": "1/2", "j_max": 8}, "gamma": 0, "modes": [0, 1, 2, 3],
        "profile": {"shape": "bump", "support": [1.0, 2.0]}, "t": [0.5, 1.0, 2.0],
        "x_grid": {"decades": [-4, -1], "points_per_decade": 16}, "rel_tol": 1e-9,
    }))
    out = tmp_path / "rows.csv"
    code = (
        "import json, sys\n"
        "from coneasym import cli\n"
        f"code = cli.main(['solve', '--scenario', {str(scenario)!r}, '--out', {str(out)!r}])\n"
        f"print(json.dumps({{'code': code, 'scipy': {_SCIPY}}}))"
    )
    assert _fresh(code) == {"code": 0, "scipy": []}
    assert len(csv_to_rows(out.read_text())) == 588
