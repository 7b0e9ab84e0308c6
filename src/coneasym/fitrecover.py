"""Exponent fitting and inverse spectral recovery.

Solver output near the tip behaves like c0 x^e0 (1 + O(x^2)); fitting
log |a| against log x on a window recovers e0, and peeling (subtract the
fitted term, refit the residual on an upper window) exposes the next
exponent.  Recovered exponents map back to eigenvalues through
lam = mu (n - 1 - mu) with mu = -e.

Attribution policy: the leading exponent of a single mode is always
spectral (-mu_j is the smallest exponent a mode can produce); deeper
exponents that sit within tolerance of both an even shift 2 nu (or
2 nu - 1 for n = 2) and a spectral candidate are flagged ambiguous rather
than guessed.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import jsonio
from .errors import DegenerateSamples, NoiseFloor, NotASpectralExponent
from .version import __version__
from .weights import locate_interval

_TOL = 1e-12


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first use."""
    from scipy.optimize import least_squares as _least_squares
    return _least_squares(*args, **kwargs)


@dataclass(frozen=True)
class FitReport:
    """One fitted exponent with uncertainty and bookkeeping."""

    exponent: float
    stderr: float
    coefficient: float
    log_coefficient_ratio: float
    residual_rms: float
    n_samples: int
    window: tuple
    peel_index: int = 0
    mode_j: int | None = None
    t: float | None = None

    def as_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "stderr": self.stderr,
            "coefficient": self.coefficient,
            "log_coefficient_ratio": self.log_coefficient_ratio,
            "residual_rms": self.residual_rms,
            "n_samples": self.n_samples,
            "window": list(self.window),
            "peel_index": self.peel_index,
            "mode_j": self.mode_j,
            "t": self.t,
        }


def report_from_dict(d: dict) -> FitReport:
    return FitReport(
        exponent=float(d["exponent"]),
        stderr=float(d["stderr"]),
        coefficient=float(d["coefficient"]),
        log_coefficient_ratio=float(d["log_coefficient_ratio"]),
        residual_rms=float(d["residual_rms"]),
        n_samples=int(d["n_samples"]),
        window=tuple(d["window"]),
        peel_index=int(d["peel_index"]),
        mode_j=d.get("mode_j"),
        t=d.get("t"),
    )


def _window_mask(x, window):
    if window is None:
        return np.ones(x.size, dtype=bool)
    lo, hi = window
    return (x >= lo) & (x <= hi)


def _sign_consistent(x, v, min_samples):
    """Longest contiguous run of one strict sign, as index slice."""
    signs = np.sign(v)
    best = (0, 0)
    start = 0
    for i in range(1, v.size + 1):
        if i == v.size or signs[i] != signs[start] or signs[i] == 0:
            if signs[start] != 0 and i - start > best[1] - best[0]:
                best = (start, i)
            start = i
    if best[1] - best[0] < min_samples:
        raise DegenerateSamples(
            f"no sign-consistent window with >= {min_samples} samples"
        )
    return slice(*best)


def fit_leading_exponent(x, values, window=None, detect_log: bool = True,
                         min_samples: int = 8, peel_index: int = 0) -> FitReport:
    """Least-squares slope of log |a| vs log x on the window.

    With detect_log, a log(log(1/x)) column is added so a genuine
    x^e log^m x profile shows up as a nonzero fitted m (reported as
    log_coefficient_ratio) instead of biasing e.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = _window_mask(x, window)
    x, values = x[mask], values[mask]
    order = np.argsort(x)
    x, values = x[order], values[order]
    if x.size < min_samples:
        raise DegenerateSamples(
            f"{x.size} samples in window, need >= {min_samples}"
        )
    run = _sign_consistent(x, values, min_samples)
    x, values = x[run], values[run]
    sign = float(np.sign(values[0]))
    logx = np.log(x)
    logv = np.log(np.abs(values))
    cols = [np.ones_like(logx), logx]
    use_log_col = detect_log and np.all(x < 0.5)
    if use_log_col:
        cols.append(np.log(np.log(1.0 / x)))
    design = np.column_stack(cols)
    coef, residuals, rank, _ = np.linalg.lstsq(design, logv, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateSamples("degenerate design matrix (samples too clustered)")
    fitted = design @ coef
    rss = float(np.sum((logv - fitted) ** 2))
    dof = max(x.size - design.shape[1], 1)
    cov = rss / dof * np.linalg.inv(design.T @ design)
    return FitReport(
        exponent=float(coef[1]),
        stderr=float(math.sqrt(max(cov[1, 1], 0.0))),
        coefficient=sign * float(math.exp(coef[0])),
        log_coefficient_ratio=float(coef[2]) if use_log_col else 0.0,
        residual_rms=float(math.sqrt(rss / x.size)),
        n_samples=int(x.size),
        window=(float(x[0]), float(x[-1])),
        peel_index=peel_index,
    )


def refit_coefficient(x, values, exponent, window=None) -> float:
    """Geometric-mean coefficient of x^exponent against values on window."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = _window_mask(x, window) & (values != 0.0)
    if not np.any(mask):
        raise DegenerateSamples("no usable samples for coefficient refit")
    sign = float(np.sign(values[mask][0]))
    logs = np.log(np.abs(values[mask])) - exponent * np.log(x[mask])
    return sign * float(np.exp(np.mean(logs)))


def subtract_and_refit(x, values, known_terms, window=None,
                       noise_rel: float = 1e-9, min_samples: int = 8,
                       peel_index: int = 1) -> FitReport:
    """Remove known (coefficient, exponent) terms and fit what remains.

    Raises NoiseFloor when the residual magnitude on the window has fallen
    within 1e3 x the expected numerical noise (quadrature tolerance times
    the data scale), meaning no further exponent is resolvable.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    residual = values.copy()
    for coeff, exponent in known_terms:
        residual = residual - coeff * x**exponent
    mask = _window_mask(x, window)
    scale = float(np.max(np.abs(values[mask])))
    noise = scale * (noise_rel + 1e-14)
    if float(np.max(np.abs(residual[mask]))) < 1e3 * noise:
        raise NoiseFloor(
            "residual is within 1e3x of the numerical noise floor; "
            "no further exponent is resolvable"
        )
    return fit_leading_exponent(
        x, residual, window=window, min_samples=min_samples, peel_index=peel_index
    )


def _refine_two_term(x, values, lead: FitReport, nxt: FitReport):
    """Joint nonlinear refinement of a two-term power model.

    The windowed linear fits leave the second exponent biased: the leading
    coefficient, extrapolated across decades, overwhelms the small second
    term at the lower edge of its window.  Refitting
        log |v| = log c0 + e0 log x + log(1 + r x^d)
    over the whole sign-consistent range removes that leakage; the linear
    estimates only serve as the starting point.
    """
    sign = float(np.sign(values[0]))
    v = sign * values
    keep = v > 0
    x, v = x[keep], v[keep]
    logx = np.log(x)
    logv = np.log(v)
    r0 = nxt.coefficient / lead.coefficient
    d0 = max(nxt.exponent - lead.exponent, 0.1)
    theta0 = np.array([math.log(abs(lead.coefficient)), lead.exponent, r0, d0])

    def resid(theta):
        logc0, e0, r, d = theta
        inner = 1.0 + r * np.exp(d * logx)
        inner = np.maximum(inner, 1e-12)
        return logc0 + e0 * logx + np.log(inner) - logv

    result = least_squares(resid, theta0, method="lm", xtol=1e-15, ftol=1e-15)
    if not result.success:
        return lead, nxt
    logc0, e0, r, d = result.x
    dof = max(x.size - 4, 1)
    sigma2 = 2.0 * result.cost / dof
    try:
        cov = sigma2 * np.linalg.inv(result.jac.T @ result.jac)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        se = np.full(4, float("nan"))
    c0 = sign * math.exp(logc0)
    lead = replace(lead, exponent=float(e0), coefficient=c0, stderr=float(se[1]))
    nxt = replace(
        nxt,
        exponent=float(e0 + d),
        coefficient=float(c0 * r),
        stderr=float(math.hypot(se[1], se[3])),
    )
    return lead, nxt


def peel_exponents(x, values, max_terms: int = 2, lead_window=None,
                   next_window=None, noise_rel: float = 1e-9) -> list:
    """Fit the leading exponent low, peel, fit the next high.

    Returns FitReports in peel order; stops early at the noise floor.
    When a second term is resolvable, both terms are polished by a joint
    nonlinear fit over the full range.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if lead_window is None:
        lo = float(np.min(x))
        lead_window = (lo, lo * 10.0)
    if next_window is None:
        hi = float(np.max(x))
        next_window = (hi / 10.0, hi)
    lead = fit_leading_exponent(x, values, window=lead_window, peel_index=0)
    lead = replace(lead, coefficient=refit_coefficient(x, values, lead.exponent, lead_window))
    reports = [lead]
    for index in range(1, max_terms):
        try:
            nxt = subtract_and_refit(
                x, values, [(r.coefficient, r.exponent) for r in reports],
                window=next_window, noise_rel=noise_rel, peel_index=index,
            )
        except NoiseFloor:
            break
        residual = values - sum(
            r.coefficient * x**r.exponent for r in reports
        )
        nxt = replace(
            nxt,
            coefficient=refit_coefficient(x, residual, nxt.exponent, next_window),
        )
        if index == 1:
            full = (min(lead_window[0], next_window[0]), max(lead_window[1], next_window[1]))
            mask = _window_mask(x, full)
            lead2, nxt = _refine_two_term(x[mask], values[mask], reports[0], nxt)
            reports[0] = lead2
        reports.append(nxt)
    return reports


def recover_lambda(n: int, exponent):
    """Eigenvalue from a spectral exponent e = -mu_j: lam = mu (n-1-mu).

    Exact for rational input; exponents below 0 (beyond 1e-12) cannot be
    spectral leading exponents and raise NotASpectralExponent.
    """
    if isinstance(exponent, Rational):
        e = Fraction(exponent)
        if e < 0:
            raise NotASpectralExponent(f"exponent {float(e)} is negative")
        mu = -e
        return mu * (n - 1 - mu)
    e = float(exponent)
    if e < -_TOL:
        raise NotASpectralExponent(f"exponent {e} is negative")
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


def _even_candidates(n: int, k: int) -> list:
    out = [2 * nu for nu in range(1, k)]
    if n == 2:
        out.extend(2 * nu - 1 for nu in range(1, k))
    return sorted(out)


def _spectral_candidate(n, gamma, k, exponent, tol):
    """Smallest even shift nu' making mu = -(e - 2 nu') land in a tile
    J_m, 2 <= m <= k (tile membership checked with +-tol slack)."""
    for nu_shift in range(0, k - 1):
        mu = -(exponent - 2 * nu_shift)
        if mu > tol:
            continue
        for probe in (mu, mu - tol, mu + tol):
            m = locate_interval(n, gamma, probe)
            if m is not None and 2 <= m <= k:
                return nu_shift, mu
    return None


def recover_spectrum(reports, n: int, gamma, k: int, match_tol: float = 1e-2,
                     dedupe_tol: float = 1e-3) -> RecoverySummary:
    """Map fit reports to recovered eigenvalues with provenance.

    Leading exponents (peel_index 0) convert directly.  Deeper exponents
    are compared against the even-shift ladder and the spectral tiles; hits
    in both classes (or neither) go to the flagged list instead of the
    recovered list.
    """
    recovered = []
    flagged = []
    for report in reports:
        e = float(report.exponent)
        prov = {
            "mode_j": report.mode_j,
            "t": report.t,
            "peel_index": report.peel_index,
            "exponent": e,
            "stderr": report.stderr,
        }
        if report.peel_index == 0:
            if -1e-3 < e < 0.0:
                e = 0.0  # fit noise around the constant mode
            if e < 0.0:
                flagged.append({**prov, "reason": "negative leading exponent"})
                continue
            lam = float(recover_lambda(n, e)) + 0.0  # drop any -0.0
            dlam_de = abs(n - 1 + 2 * e)
            spread = report.stderr * dlam_de
            confidence = 1.0 / (1.0 + spread / max(abs(lam), 1.0))
            recovered.append({"lambda": lam, "confidence": confidence, "provenance": prov})
            continue
        even_hit = any(abs(e - c) <= match_tol for c in _even_candidates(n, k))
        spectral_hit = _spectral_candidate(n, gamma, k, e, match_tol)
        if even_hit and spectral_hit is not None:
            flagged.append({**prov, "reason": "ambiguous: even shift vs spectral"})
        elif spectral_hit is not None:
            nu_shift, mu = spectral_hit
            lam = float(mu * (n - 1 - mu))
            dlam_de = abs(n - 1 + 2 * (-mu))
            spread = report.stderr * dlam_de
            confidence = 1.0 / (1.0 + spread / max(abs(lam), 1.0))
            prov = {**prov, "even_shift": nu_shift}
            recovered.append({"lambda": lam, "confidence": confidence, "provenance": prov})
        elif not even_hit:
            flagged.append({**prov, "reason": "matches neither even shift nor spectral tile"})
        # even-shift-only exponents are explained by the template; skip
    recovered.sort(key=lambda r: (-r["lambda"], -r["confidence"]))
    deduped = []
    for entry in recovered:
        merged = False
        for kept in deduped:
            if abs(entry["lambda"] - kept["lambda"]) <= dedupe_tol * max(1.0, abs(kept["lambda"])):
                merged = True
                if entry["confidence"] > kept["confidence"]:
                    kept.update(entry)
                break
        if not merged:
            deduped.append(dict(entry))
    top = 0.5 * (n + 1) - float(gamma)
    return RecoverySummary(
        recovered=tuple(deduped),
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
