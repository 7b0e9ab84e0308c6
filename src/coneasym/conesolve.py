"""Model-cone mode solvers.

One cross-section mode with eigenvalue lam rides the radial operator

    L = d^2/dx^2 + (n/x) d/dx + lam / x^2   on (0, inf),

with nu^2 = ((n-1)/2)^2 - lam.  This module evaluates

* the heat solution a(t, x) = integral p_nu(t, x, xi) f(xi) xi^n dxi for
  compactly supported radial sources f (adaptive Gauss-Legendre panels on
  the support),
* its exact small-x series (moment integrals against the kernel's
  ascending expansion), used as an independent bridge to the templates,
* the resolvent (lam_res - L)^(-1) f off the spectral ray via the
  regular/decaying Bessel pair, normalized by the exact Wronskian
  phi psi' - phi' psi = -x^(-n); all of its integrals for one call refine
  together on the shared adaptive frontier, with one array Bessel call per
  branch and level,
* finite-difference residual checks for both.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from ._kernels import adaptive, gl_panels, gl_sum, heat_rows
from .besselkit import bessel_i, bessel_k, check_order
from .errors import QuadratureFailure, ScenarioError, SpectrumRay
from .indicial import indicial_roots
from .version import __version__

_SHAPES = ("bump", "gaussian", "indicator")


@dataclass(frozen=True)
class RadialProfile:
    """Compactly supported radial source on [lo, hi], lo > 0.

    shape 'bump': exp(1 - 1/(1-u^2)) on the support (smooth);
    shape 'gaussian': exp(-((xi-center)/width)^2) truncated to the support;
    shape 'indicator': 1 on the support.
    """

    shape: str
    lo: float
    hi: float
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ScenarioError(f"unknown profile shape {self.shape!r}")
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.center, self.width)):
            raise ScenarioError("profile support, center and width must be finite")
        if not 0.0 < self.lo < self.hi:
            raise ScenarioError("profile support must satisfy 0 < lo < hi")
        if self.shape == "gaussian" and not self.width > 0:
            raise ScenarioError("gaussian width must be positive")

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        inside = (xi > self.lo) & (xi < self.hi)
        if self.shape == "bump":
            u = (2.0 * xi[inside] - self.lo - self.hi) / (self.hi - self.lo)
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
        elif self.shape == "gaussian":
            r = (xi[inside] - self.center) / self.width
            out[inside] = np.exp(-(r * r))
        else:
            out[inside] = 1.0
        return out


@dataclass(frozen=True)
class ModeProblem:
    """Heat problem for one mode: dimension n+1, eigenvalue lam, source f."""

    n: int
    lam: float
    t: float
    profile: RadialProfile

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0):
            raise ScenarioError("t must be finite and positive")
        if not math.isfinite(self.lam):
            raise ScenarioError("lam must be finite")

    @property
    def nu(self) -> float:
        return float(indicial_roots(self.n, self.lam).nu)

    @property
    def mu(self) -> float:
        return float(indicial_roots(self.n, self.lam).mu)


@dataclass(frozen=True)
class ModeSolution:
    problem: ModeProblem
    x: np.ndarray
    values: np.ndarray
    quadrature_error_estimate: float


def default_grid(decades=(-4, -1), points_per_decade: int = 16) -> np.ndarray:
    """Log-spaced evaluation grid, 16 points per decade by default."""
    lo, hi = decades
    count = int(round((hi - lo) * points_per_decade)) + 1
    return np.geomspace(10.0**lo, 10.0**hi, count)


def heat_mode(problem: ModeProblem, x_eval, rel_tol: float = 1e-9,
              max_depth: int = 20) -> ModeSolution:
    """Heat solution of one mode at x_eval, each point to rel_tol.

    The mode's order nu must lie in besselkit's order range (DomainError).
    """
    x_eval = np.asarray(x_eval, dtype=float)
    if x_eval.ndim != 1 or x_eval.size == 0 or not np.all(np.isfinite(x_eval) & (x_eval > 0)):
        raise ScenarioError("x_eval must be a nonempty 1-d array of finite positive points")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ScenarioError("rel_tol must be finite and positive")
    values, errs, _, ok = heat_rows(
        check_order(problem.nu), problem.n, problem.t, x_eval, problem.profile, rel_tol, max_depth
    )
    if not np.all(ok):
        bad = int(np.sum(~ok))
        raise QuadratureFailure(
            f"{bad} of {x_eval.size} eval points missed rel_tol={rel_tol} "
            f"within depth {max_depth}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(values != 0.0, np.abs(errs / values), 0.0)
    return ModeSolution(
        problem=problem,
        x=x_eval,
        values=values,
        quadrature_error_estimate=float(rel.max()),
    )


def heat_small_x_series(problem: ModeProblem, num_terms: int = 3) -> list:
    """Exact small-x expansion of the mode heat solution.

    Substituting the kernel's ascending series gives
        a(t, x) = sum_q C_q x^(-mu + 2q),
    C_q assembled from moment integrals
        M_m = integral xi^((n+1)/2 + nu + 2m) e^(-xi^2/(4t)) f(xi) dxi.
    Pure powers, no logs: the independent bridge between solver output and
    the leading template exponents of a single mode.
    """
    nu = problem.nu
    n, t = problem.n, problem.t
    moments = [
        _support_integral(
            problem.profile,
            lambda xi, m=m: xi ** (0.5 * (n + 1) + nu + 2 * m) * np.exp(-xi * xi / (4.0 * t)),
        )
        for m in range(num_terms)
    ]
    out = []
    for q in range(num_terms):
        acc = 0.0
        for m in range(q + 1):
            l = q - m
            term = (
                moments[m]
                * math.exp(-(nu + 2 * m) * math.log(4.0 * t) - math.lgamma(nu + m + 1) - math.lgamma(m + 1))
                * ((-1.0) ** l)
                / ((4.0 * t) ** l * math.factorial(l))
            )
            acc += term
        coeff = acc / (2.0 * t)
        out.append((-problem.mu + 2 * q, coeff))
    return out


def _support_integral(profile: RadialProfile, fn, panels: int = 48) -> float:
    """Fixed-panel Gauss-Legendre integral of fn * profile over the support."""
    edges = np.linspace(profile.lo, profile.hi, panels + 1)
    return gl_sum(lambda x: fn(x) * profile(x), edges)


def _d1(values, h, axis):
    """Fourth-order first derivative, interior points only."""
    v = np.moveaxis(values, axis, 0)
    out = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def _d2(values, h, axis):
    """Fourth-order second derivative, interior points only."""
    v = np.moveaxis(values, axis, 0)
    out = (-v[4:] + 16 * v[3:-1] - 30 * v[2:-2] + 16 * v[1:-3] - v[:-4]) / (12.0 * h * h)
    return np.moveaxis(out, 0, axis)


def heat_pde_residual(n: int, lam: float, ts, xs, values) -> float:
    """max |d_t a - (a'' + (n/x) a' + (lam/x^2) a)| over interior grid points.

    ts and xs must be uniformly spaced with at least 5 points each; the
    stencils are fourth order, so smooth fields on moderate grids resolve
    residuals well below 1e-6.
    """
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (ts.size, xs.size):
        raise ScenarioError("values must have shape (len(ts), len(xs))")
    if ts.size < 5 or xs.size < 5:
        raise ScenarioError("need at least 5 points per axis")
    ht = ts[1] - ts[0]
    hx = xs[1] - xs[0]
    if not (np.allclose(np.diff(ts), ht) and np.allclose(np.diff(xs), hx)):
        raise ScenarioError("grids must be uniform")
    at = _d1(values, ht, axis=0)[:, 2:-2]
    ax = _d1(values, hx, axis=1)[2:-2, :]
    axx = _d2(values, hx, axis=1)[2:-2, :]
    xin = xs[2:-2]
    vin = values[2:-2, 2:-2]
    spatial = axx + (n / xin) * ax + (lam / xin**2) * vin
    return float(np.max(np.abs(at - spatial)))


# ---------------------------------------------------------------------------
# Resolvent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolventModeSolution:
    n: int
    lam_mode: float
    lam: complex
    x: np.ndarray
    values: np.ndarray
    coeff_regular: complex
    coeff_decaying: complex


def resolvent_mode(n: int, lam_mode: float, lam, profile: RadialProfile,
                   x_eval) -> ResolventModeSolution:
    """Solve (lam - L) u = f for one mode, lam off the ray (-inf, 0].

    u(x) = psi(x) * int_0^x phi f xi^n dxi + phi(x) * int_x^inf psi f xi^n dxi
    with phi = x^((1-n)/2) I_nu(sqrt(lam) x) (regular at 0) and
    psi = x^((1-n)/2) K_nu(sqrt(lam) x) (decaying); the pair's Wronskian
    phi psi' - phi' psi = -x^(-n) makes the normalization constant 1.

    Every integral is its own task on one adaptive frontier, each to
    1e-11 of its whole-interval panel estimate: phi f and psi f over the
    support, phi f over [lo, x] and psi f over [x, hi] for each x inside
    it.  A separate task per x keeps each partial integral's own relative
    accuracy, which a running sum over shared panels would not.

    Once Re(sqrt(lam)) * hi passes 700, I_nu overflows on the support and
    besselkit raises DomainError.
    """
    lam = complex(lam)
    if not (cmath.isfinite(lam) and math.isfinite(lam_mode)):
        raise ScenarioError("resolvent parameter and mode eigenvalue must be finite")
    if lam.imag == 0.0 and lam.real <= 0.0:
        raise SpectrumRay(f"resolvent parameter {lam} lies on the spectral ray")
    x_eval = np.asarray(x_eval, dtype=float)
    if x_eval.ndim != 1 or x_eval.size == 0 or not np.all(np.isfinite(x_eval) & (x_eval > 0)):
        raise ScenarioError("x_eval must be a nonempty 1-d array of finite positive points")
    nu = float(indicial_roots(n, lam_mode).nu)
    sq = cmath.sqrt(lam)
    lo, hi = profile.lo, profile.hi

    def phi(x):
        return x ** (0.5 * (1 - n)) * bessel_i(nu, sq * x)

    def psi(x):
        return x ** (0.5 * (1 - n)) * bessel_k(nu, sq * x)

    below, above = x_eval <= lo, x_eval >= hi
    inside = ~(below | above)
    # tasks: phi f on [lo, hi], then on [lo, x] per inner x; psi f likewise
    inner = x_eval[inside]
    n_phi = inner.size + 1
    a = np.concatenate([np.full(n_phi, lo), [lo], inner])
    b = np.concatenate([[hi], inner, np.full(n_phi, hi)])

    def integrand(rows, xi):
        out = np.empty(xi.shape, complex)
        on_phi = rows < n_phi
        out[on_phi] = phi(xi[on_phi])
        out[~on_phi] = psi(xi[~on_phi])
        return out * profile(xi) * xi**n

    whole = gl_panels(integrand, np.arange(a.size), a, b)
    acc = adaptive(integrand, a, b, whole, 1e-11 * np.maximum(np.abs(whole), 1e-300), 18)[0]
    coeff_decaying, coeff_regular = complex(acc[0]), complex(acc[n_phi])

    phi_x, psi_x = np.zeros(x_eval.size, complex), np.zeros(x_eval.size, complex)
    phi_x[~above] = phi(x_eval[~above])
    psi_x[~below] = psi(x_eval[~below])
    values = np.where(below, phi_x * coeff_regular, psi_x * coeff_decaying)
    values[inside] = psi_x[inside] * acc[1:n_phi] + phi_x[inside] * acc[n_phi + 1:]
    return ResolventModeSolution(
        n=n, lam_mode=lam_mode, lam=lam, x=x_eval, values=values,
        coeff_regular=coeff_regular, coeff_decaying=coeff_decaying,
    )


def resolvent_residual(n: int, lam_mode: float, lam, xs, values, fvals) -> float:
    """max |(lam - L) u - f| on a uniform grid by fourth-order stencils."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    fvals = np.asarray(fvals, dtype=complex)
    hx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), hx):
        raise ScenarioError("grid must be uniform")
    d1 = _d1(values, hx, axis=0)
    d2 = _d2(values, hx, axis=0)
    xin = xs[2:-2]
    uin = values[2:-2]
    lu = d2 + (n / xin) * d1 + (lam_mode / xin**2) * uin
    res = complex(lam) * uin - lu - fvals[2:-2]
    return float(np.max(np.abs(res)))


def sectorial_sweep(n: int, lam_mode: float, profile: RadialProfile,
                    moduli=(1.0, 10.0, 100.0),
                    ray_args=(0.0, 0.75 * math.pi, -0.75 * math.pi),
                    x_eval=None) -> dict:
    """|lam| * sup |u| across moduli on each ray; uniformity report.

    Sectoriality predicts these products stay within a bounded factor as
    |lam| grows; the report records the max/min ratio per ray and an
    overall pass flag against the factor-2 criterion.
    """
    if x_eval is None:
        x_eval = np.geomspace(1e-3, 2.0 * profile.hi, 160)
    rays = []
    overall = True
    for theta in ray_args:
        sups = []
        for r in moduli:
            lam = r * cmath.exp(1j * theta)
            sol = resolvent_mode(n, lam_mode, lam, profile, x_eval)
            sups.append(r * float(np.max(np.abs(sol.values))))
        ratio = max(sups) / min(sups)
        rays.append({
            "arg": theta,
            "moduli": list(moduli),
            "lam_times_sup": sups,
            "ratio": ratio,
        })
        overall = overall and ratio < 2.0
    return {"n": n, "lam_mode": lam_mode, "rays": rays, "uniform_within_factor_2": overall}


# ---------------------------------------------------------------------------
# Solution dumps
# ---------------------------------------------------------------------------


def solution_rows(solutions) -> list:
    """Flatten ModeSolutions (tagged with mode index) into CSV rows."""
    rows = []
    for mode_j, sol in solutions:
        for x, v in zip(sol.x, sol.values):
            rows.append((mode_j, sol.problem.nu, sol.problem.t, float(x), float(v)))
    return rows


def rows_to_csv(rows) -> str:
    lines = [f"# coneasym {__version__}", "mode_j,nu,t,x,value"]
    for mode_j, nu, t, x, v in rows:
        lines.append(
            f"{mode_j:d},{nu:.17g},{t:.17g},{x:.17g},{v:.17g}"
        )
    return "\n".join(lines) + "\n"


def csv_to_rows(text: str) -> list:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("mode_j"):
            continue
        mode_j, nu, t, x, v = line.split(",")
        rows.append((int(mode_j), float(nu), float(t), float(x), float(v)))
    return rows


def rows_to_series(rows) -> list:
    """Group CSV rows by (mode_j, t) into (mode_j, t, x, v) series, sorted
    by (mode_j, t), each with x ascending as float arrays."""
    groups: dict = {}
    for mode_j, _, t, x, v in rows:
        groups.setdefault((mode_j, t), []).append((x, v))
    series = []
    for (mode_j, t), pts in sorted(groups.items()):
        pts.sort()
        series.append((mode_j, t, np.array([p[0] for p in pts]), np.array([p[1] for p in pts])))
    return series


def sweep_to_json(report: dict) -> str:
    payload = {"generator": f"coneasym {__version__}"}
    payload.update(report)
    return jsonio.dumps(payload)
