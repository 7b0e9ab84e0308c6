"""Exponent fitting and inverse spectral recovery.

Near the tip each mode's heat solution is a ladder of pure powers,
    a(t, x) = sum_q C_q(t) x^(e0 + 2q),    e0 = -mu_j,
whose exponents do not depend on t (see `conesolve.heat_small_x_series`).
`peel_exponents` fits one (mode, t) series to the truncated ladder
    v(x) ~ sum_{q < LADDER_TERMS} c_q x^(e0 + q d)
by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973):
for fixed (e0, d) the c_q solve a linear least-squares problem in the
relative residual (weights 1/|v|, columns scaled to unit norm), and
Gauss-Newton (`least_squares`) moves (e0, d) alone.  The step d is left
free, so the data show whether they sit on the paper's ladder.  The tail
the four terms leave out grows with x y / 4t (y in the source's
support), so where the whole grid leaves an rms above RMS_TOL the fit
drops upper half decades, down to one decade of x.

`recover_spectrum` groups the reports by mode across t.  It accepts a
mode only when every report has |d - 2| <= STEP_TOL and relative rms
<= RMS_TOL, and e0 moves by at most SPREAD_TOL over t; it then maps the
mean e0 to lam = mu (n - 1 - mu) with mu = -e0.  Any other mode is flagged
with the bounds it broke.
"""

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import jsonio
from .errors import DegenerateSamples, NotASpectralExponent, ScenarioError
from .indicial import exact_or_float, less
from .version import __version__

LADDER_TERMS = 4
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
# Stopping rules of `least_squares`: a relative step of at most _XTOL, or
# a fall in cost below _COST_ROUNDING * sqrt(m * cost), the rounding error
# of a sum of m squares of order-1 terms; it gives up after _MAX_NFEV
# residual evaluations.
_XTOL = 1e-14
_COST_ROUNDING = 64 * np.finfo(float).eps
_MAX_NFEV = 200

_Q = np.arange(LADDER_TERMS)
_MIN_SAMPLES = LADDER_TERMS + 4


@dataclass(frozen=True)
class LeastSquaresResult:
    """Outcome of `least_squares`: the parameters, their residual vector,
    whether the iteration converged, and how often ``fun`` was called."""

    x: np.ndarray
    fun: np.ndarray
    success: bool
    nfev: int


def least_squares(fun, x0) -> LeastSquaresResult:
    """Minimize ||fun(theta)||^2 by Gauss-Newton, for residuals of order 1.

    The Jacobian is a forward difference.  A step that does not lower the
    cost is halved, up to 30 times.  The iteration has converged (success)
    when a step moves every parameter by at most _XTOL relative to it, or
    lowers the cost by no more than the cost's own rounding error.  It
    fails when no fraction of a larger step lowers the cost, when the cost
    is not finite, or after _MAX_NFEV calls of ``fun``.
    """
    theta = np.asarray(x0, dtype=float)
    r = fun(theta)
    nfev = 1
    cost = r @ r
    success = False
    while nfev < _MAX_NFEV and math.isfinite(cost):
        h = 1.5e-8 * np.maximum(1.0, np.abs(theta))
        jac = np.empty((r.size, theta.size))
        for k in range(theta.size):
            probe = theta.copy()
            probe[k] += h[k]
            jac[:, k] = (fun(probe) - r) / h[k]
        nfev += theta.size
        if not np.all(np.isfinite(jac)):
            break
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        for _ in range(30):
            trial = theta + step
            r_trial = fun(trial)
            nfev += 1
            cost_trial = r_trial @ r_trial
            if cost_trial <= cost:
                break
            step = 0.5 * step
        small = bool(np.all(np.abs(step) <= _XTOL * np.maximum(1.0, np.abs(theta))))
        if not cost_trial <= cost:
            success = small
            break
        flat = cost - cost_trial <= _COST_ROUNDING * math.sqrt(r.size * cost)
        theta, r, cost = trial, r_trial, cost_trial
        if small or flat:
            success = True
            break
    return LeastSquaresResult(x=theta, fun=r, success=success, nfev=nfev)


@dataclass(frozen=True)
class FitReport:
    """Ladder fit of one series: v ~ sum_q coefficients[q] x^(exponent + q step)."""

    exponent: float
    stderr: float
    step: float
    step_stderr: float
    coefficients: tuple
    coefficient_stderr: tuple
    residual_rms: float
    n_samples: int
    window: tuple
    mode_j: int | None = None
    t: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def report_from_dict(d: dict) -> FitReport:
    if "step" not in d and "peel_index" in d:
        raise ScenarioError("fit file is in the old peel format; rerun `coneasym fit` on its CSV")
    missing = [f.name for f in fields(FitReport) if f.default is MISSING and f.name not in d]
    if missing:
        raise ScenarioError(f"fit report lacks {', '.join(missing)}")
    return FitReport(
        exponent=float(d["exponent"]),
        stderr=float(d["stderr"]),
        step=float(d["step"]),
        step_stderr=float(d["step_stderr"]),
        coefficients=tuple(float(c) for c in d["coefficients"]),
        coefficient_stderr=tuple(float(c) for c in d["coefficient_stderr"]),
        residual_rms=float(d["residual_rms"]),
        n_samples=int(d["n_samples"]),
        window=tuple(float(w) for w in d["window"]),
        mode_j=d.get("mode_j"),
        t=d.get("t"),
    )


def _ladder(x, weight, theta):
    """Columns x^(e0 + q d) / |v| of the ladder with theta = (e0, d)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x[:, None] ** (theta[0] + theta[1] * _Q) * weight[:, None]


def _project(basis, sign):
    """Coefficients of the weighted linear fit, and its relative residual;
    None and an infinite residual when the ladder over- or underflowed."""
    scale = np.linalg.norm(basis, axis=0)
    if not (np.all(np.isfinite(scale)) and np.all(scale > 0)):
        return None, np.full(sign.size, np.inf)
    coef = np.linalg.lstsq(basis / scale, sign, rcond=None)[0] / scale
    return coef, sign - basis @ coef


def peel_exponents(x, values) -> FitReport:
    """Fit one (mode, t) series to the ladder sum_{q<4} c_q x^(e0 + q d).

    Gauss-Newton starts from the least-squares slope of log |v| against
    log x over the lowest decade of x, which must hold two distinct samples
    of one sign.  The ladder is truncated, and its tail grows like
    (x^2 / t)^4, so the fit first takes the whole grid and then, while its
    relative rms is above RMS_TOL, drops the top half decade, down to one
    decade above the lowest x.  The report's ``window`` is the x range of the fit it returns.
    `fit` calls this once per series under this name, which the benchmark
    (perfbench/tracing.py) wraps as ``coneasym.cli.peel_exponents``.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.size < _MIN_SAMPLES:
        raise DegenerateSamples(f"{x.size} samples, need >= {_MIN_SAMPLES}")
    if not (np.all(np.isfinite(values)) and np.all(values != 0.0)):
        raise DegenerateSamples("values must be finite and nonzero")
    if not (np.all(np.isfinite(x)) and np.all(x > 0.0)):
        raise DegenerateSamples("x must be finite and positive")
    order = np.argsort(x, kind="stable")
    x, values = x[order], values[order]
    low = x <= 10.0 * x[0]
    logx = np.log(x[low])
    if not logx[-1] > logx[0] or np.any(np.sign(values[low]) != np.sign(values[0])):
        raise DegenerateSamples("the lowest decade of x needs two distinct samples of one sign")
    design = np.column_stack([np.ones_like(logx), logx])
    e_start = float(np.linalg.lstsq(design, np.log(np.abs(values[low])), rcond=None)[0][1])
    # Decades above the lowest x, with slack for grids built on decades.
    span = np.log10(x / x[0]) + 1e-9
    top = x.size
    while True:
        report = _fit_ladder(x[:top], values[:top], e_start)
        lower = int(np.searchsorted(span, span[top - 1] - 0.5, side="right"))
        if report.residual_rms <= RMS_TOL or lower < _MIN_SAMPLES or span[lower - 1] < 1.0:
            return report
        top = lower


def _fit_ladder(x, values, e_start) -> FitReport:
    """Variable-projection fit of the ladder to sorted samples.

    Gauss-Newton over (e0, d) starts from e_start and d = 2; the c_q come
    from `_project` at every step.  Standard errors come from the full
    Jacobian in (e0, d, c_q).
    """
    weight = 1.0 / np.abs(values)
    sign = np.sign(values)
    # The solver is looked up as a module global on purpose: the benchmark
    # times every call by replacing ``fitrecover.least_squares``.
    result = least_squares(lambda theta: _project(_ladder(x, weight, theta), sign)[1],
                           [e_start, 2.0])
    if not result.success:
        raise DegenerateSamples(
            f"ladder fit on x in [{x[0]:.3g}, {x[-1]:.3g}] did not converge "
            f"after {result.nfev} evaluations"
        )
    e0, d = (float(v) for v in result.x)
    basis = _ladder(x, weight, result.x)
    coef, resid = _project(basis, sign)
    if coef is None:
        raise DegenerateSamples("ladder fit left the representable range")
    logx = np.log(x)[:, None]
    jac = np.hstack([logx * (basis @ coef)[:, None],
                     logx * (basis @ (_Q * coef))[:, None],
                     basis])
    rss = float(resid @ resid)
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0.0] = 1.0
    cov = np.linalg.pinv((jac / scale).T @ (jac / scale)) / np.outer(scale, scale)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0) * rss / (x.size - LADDER_TERMS - 2))
    return FitReport(
        exponent=e0,
        stderr=float(se[0]),
        step=d,
        step_stderr=float(se[1]),
        coefficients=tuple(float(c) for c in coef),
        coefficient_stderr=tuple(float(s) for s in se[2:]),
        residual_rms=math.sqrt(rss / x.size),
        n_samples=int(x.size),
        window=(float(x[0]), float(x[-1])),
    )


def recover_lambda(n: int, exponent):
    """Eigenvalue from a spectral exponent e = -mu_j: lam = mu (n-1-mu).

    Exact for rational input; exponents below 0 (beyond 1e-12) cannot be
    spectral leading exponents and raise NotASpectralExponent.
    """
    (e,) = exact_or_float(exponent)
    if less(e, 0):
        raise NotASpectralExponent(f"exponent {float(e)} is negative")
    mu = -e
    return mu * (n - 1 - mu)


@dataclass(frozen=True)
class RecoverySummary:
    recovered: tuple
    flagged: tuple
    visible_mu_window: tuple

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
    top = 0.5 * (n + 1) - float(gamma)
    return RecoverySummary(
        recovered=tuple(recovered),
        flagged=tuple(flagged),
        visible_mu_window=(top - 2 * k, top - 2.0),
    )


def reports_to_jsonl(reports) -> str:
    lines = [jsonio.dumps_line({"generator": f"coneasym {__version__}"})]
    lines.extend(jsonio.dumps_line(r.as_dict()) for r in reports)
    return "\n".join(lines) + "\n"


def reports_from_jsonl(text: str) -> list:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = jsonio.loads(line)
        if "generator" in data and "exponent" not in data:
            continue
        out.append(report_from_dict(data))
    return out
