"""Fit reports and inverse spectral recovery, in exact algebra and math.

A `FitReport` is one (mode, t) series fitted to the exponent ladder
    v(x) ~ sum_q c_q x^(e0 + q d)
by `fitrecover.peel_exponents`; `reports_to_jsonl`/`reports_from_jsonl`
carry reports through files.  `recover_spectrum` groups the reports by
mode across t.  It accepts a mode only when every report has
|d - 2| <= STEP_TOL and relative rms <= RMS_TOL, and e0 moves by at most
SPREAD_TOL over t; it then maps the mean e0 to lam = mu (n - 1 - mu) with
mu = -e0.  Any other mode is flagged with the bounds it broke.

Nothing here imports numpy, so `recover` starts as fast as `template`.
"""

import json
import math
from collections import namedtuple

from . import jsonio
from .errors import FitError, ScenarioError
from .indicial import exact_or_float, less
from .version import __version__
from .weights import tile_edge

# Acceptance bounds of `recover_spectrum`.  Solver output on the default
# grid (x in [1e-4, 1e-1], t in [0.5, 2], circle modes 0-3, bump sources)
# sits at |d - 2| <= 1.2e-7, rms <= 2e-14 and an e0 spread <= 1e-14 over t.
# An x^(e0 + 1.5) term of relative size 3e-2 at x = 0.1 takes the second
# rung: d moves by about 0.5 and the rms stays at 1e-11 or more however
# far the grid is cut.  `peel_exponents` cuts the grid until the rms is
# at most RMS_TOL; grids reaching x = 1 at t = 1, or x = 0.1 at t = 0.1
# and 0.01, then fit at |d - 2| <= 1.1e-7 and rms <= 6e-13.
STEP_TOL = 1e-6
RMS_TOL = 1e-12
SPREAD_TOL = 1e-9


class FitReport(namedtuple("FitReport", "exponent stderr step step_stderr coefficients coefficient_stderr "
                                        "residual_rms n_samples window mode_j t", defaults=(None, None))):
    """Ladder fit of one series: v ~ sum_q coefficients[q] x^(exponent + q step),
    with the series' mode_j and t when known."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def report_from_dict(d: dict) -> FitReport:
    """The FitReport of one fit-file line, each field of its JSON kind."""
    if "step" not in d and "peel_index" in d:
        raise ScenarioError("fit file is in the old peel format; rerun `coneasym fit` on its CSV")
    missing = [f for f in FitReport._fields if f not in FitReport._field_defaults and f not in d]
    if missing:
        raise ScenarioError(f"fit report lacks {', '.join(missing)}")

    def number(key):
        return jsonio.require(d[key], "number", key)

    def optional(key, kind):
        return None if d.get(key) is None else jsonio.require(d[key], kind, key)

    return FitReport(
        exponent=number("exponent"),
        stderr=number("stderr"),
        step=number("step"),
        step_stderr=number("step_stderr"),
        coefficients=tuple(jsonio.require_numbers(d["coefficients"], "coefficients")),
        coefficient_stderr=tuple(jsonio.require_numbers(d["coefficient_stderr"], "coefficient_stderr")),
        residual_rms=number("residual_rms"),
        n_samples=jsonio.require(d["n_samples"], "integer", "n_samples"),
        window=tuple(jsonio.require_numbers(d["window"], "window", 2)),
        mode_j=optional("mode_j", "integer"),
        t=optional("t", "number"),
    )


def recover_lambda(n: int, exponent):
    """Eigenvalue from a spectral exponent e = -mu_j: lam = mu (n-1-mu).

    Exact for rational input; exponents below 0 (beyond 1e-12) cannot be
    spectral leading exponents and raise FitError.
    """
    (e,) = exact_or_float(exponent)
    if less(e, 0):
        raise FitError(f"exponent {float(e)} is negative")
    mu = -e
    return mu * (n - 1 - mu)


class RecoverySummary(namedtuple("RecoverySummary", "recovered flagged visible_mu_window")):
    __slots__ = ()

    def lambdas(self) -> list:
        return [entry["lambda"] for entry in self.recovered]

    def to_json(self) -> str:
        return jsonio.dumps(
            {
                "generator": f"coneasym {__version__}",
                "recovered": list(self.recovered),
                "flagged": list(self.flagged),
                "visible_mu_window": list(self.visible_mu_window),
            }
        )


def recover_spectrum(reports, n: int, gamma, k: int) -> RecoverySummary:
    """Map ladder fits, grouped by mode across t, to eigenvalues.

    Each recovered entry carries ``lambda``, a ``provenance`` (mode, its
    times, the mean e0, and ``peel_index`` 0: the exponent is the ladder's
    base) and the ``evidence`` the bounds were checked on; a mode that
    breaks a bound is flagged with the same fields and a ``reason``.
    """
    groups: dict = {}
    for report in reports:
        groups.setdefault(report.mode_j, []).append(report)
    recovered = []
    flagged = []
    for mode_j, group in groups.items():
        exponents = [r.exponent for r in group]
        exponent = math.fsum(exponents) / len(exponents)
        prov = {
            "mode_j": mode_j,
            "t": [r.t for r in group],
            "exponent": exponent,
            "peel_index": 0,
        }
        evidence = {
            "step_deviation": max(abs(r.step - 2.0) for r in group),
            "exponent_spread": max(exponents) - min(exponents),
            "residual_rms": max(r.residual_rms for r in group),
        }
        reasons = [
            f"{key} {evidence[key]:.3g} > {bound:.0e}"
            for key, bound in (("step_deviation", STEP_TOL), ("exponent_spread", SPREAD_TOL),
                               ("residual_rms", RMS_TOL))
            if not evidence[key] <= bound
        ]
        if -SPREAD_TOL < exponent < 0.0:
            exponent = 0.0  # fit noise around the constant mode
        if exponent < 0.0:
            reasons.append("negative leading exponent")
        if reasons:
            flagged.append({**prov, "evidence": evidence, "reason": "; ".join(reasons)})
            continue
        lam = float(recover_lambda(n, exponent)) + 0.0  # drop any -0.0
        recovered.append({"lambda": lam, "provenance": prov, "evidence": evidence})
    recovered.sort(key=lambda entry: -entry["lambda"])
    return RecoverySummary(
        recovered=tuple(recovered),
        flagged=tuple(flagged),
        visible_mu_window=(tile_edge(n, gamma, k), tile_edge(n, gamma, 1)),
    )


def reports_to_jsonl(reports) -> str:
    lines = [jsonio.dumps_line({"generator": f"coneasym {__version__}"})]
    lines.extend(jsonio.dumps_line(r.as_dict()) for r in reports)
    return "\n".join(lines) + "\n"


def reports_from_jsonl(text: str) -> list:
    """The FitReports of a fit file; a file that holds none is a ScenarioError."""
    out = []
    for line in text.splitlines():
        if line.strip():
            data = jsonio.require(json.loads(line), "object", "fit file line")
            if "exponent" in data or "generator" not in data:
                out.append(report_from_dict(data))
    if not out:
        raise ScenarioError("fit file holds no fit reports")
    return out
