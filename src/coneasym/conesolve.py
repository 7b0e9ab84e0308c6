"""Model-cone mode solvers.

One cross-section mode with eigenvalue lam rides the radial operator

    L = d^2/dx^2 + (n/x) d/dx + lam / x^2   on (0, inf),

with nu^2 = ((n-1)/2)^2 - lam.  This module evaluates

* the heat solution a(t, x) = integral p_nu(t, x, xi) f(xi) xi^n dxi for
  compactly supported radial sources f (the kernel's ascending series
  summed against moments of f where it converges, adaptive Gauss-Legendre
  panels on the support elsewhere; see ``_kernels.heat_rows``),
* its exact small-x series (the same moments, with e^(-x^2/(4t))
  expanded too), the bridge to the templates,
* the resolvent (lam_res - L)^(-1) f off the spectral ray via the
  regular/decaying Bessel pair (in besselkit's scaled form, exponentials
  folded back per integral), normalized by the exact Wronskian
  phi psi' - phi' psi = -x^(-n); the support is cut into fixed cells,
  running sums carry the cell integrals to each cell edge, and each point
  adds its remainders to its cell's edges.  The cell and remainder
  integrals of one call refine together on the shared adaptive frontier,
  with one array Bessel call per branch and level (none for a branch with
  no nodes), the source read without a mask on the nodes inside its
  support,
* the resolvent's finite-difference residual |(lam_res - L) u - f| on a
  uniform grid.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _EPS, adaptive, heat_moments, heat_rows
from .besselkit import bessel_i, bessel_k, check_order
from .errors import DomainError, QuadratureFailure, ScenarioError, SpectrumRay
from .indicial import indicial_roots
from .spectra import require_dimension
from .version import __version__

_SHAPES = ("bump", "gaussian", "indicator")


@dataclass(frozen=True)
class RadialProfile:
    """Compactly supported radial source on [lo, hi], lo > 0.

    shape 'bump': exp(1 - 1/(1-u^2)) on the support (smooth), with
        u = (2 xi - lo - hi)/W and W = hi - lo.  It is evaluated as
        exp(1 - (W/2)^2 / ((xi - lo)(hi - xi))), using
        1 - u^2 = 4 (xi - lo)(hi - xi)/W^2.  Forming 1 - u^2 itself cancels
        near either edge (|u| -> 1) and puts a relative error of about
        eps/(1 - u^2)^2 on the value (about 1e-11 at 1e-3 W from an edge),
        noise that the adaptive quadrature then refines after; the
        distances to the edges carry no such cancellation.  W/2 divides
        each distance on its own, so a support wider than 1e154 does not
        overflow;
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
        out[inside] = self.interior(xi[inside])
        return out

    def interior(self, xi):
        """The profile at points xi inside (lo, hi), with no mask; __call__
        is this on its inside points.  Callers pass the Gauss-Legendre
        nodes of panels within the support, which lie at least 0.0105 of a
        panel's half-width inside either end.  Only a panel a few ulps wide
        can round a node onto or just past an edge, so the bump holds its
        distances to the edges at eps W/2 or more: such a node reads 0, as
        every point that close inside does, not a division by zero or an
        overflow."""
        if self.shape == "bump":
            h = 0.5 * (self.hi - self.lo)
            near = _EPS * h
            return np.exp(1.0 - (h / np.maximum(xi - self.lo, near)) * (h / np.maximum(self.hi - xi, near)))
        if self.shape == "gaussian":
            r = (xi - self.center) / self.width
            return np.exp(-(r * r))
        return np.ones_like(xi)


@dataclass(frozen=True)
class ModeProblem:
    """Heat problem for one mode: dimension n+1, eigenvalue lam, source f."""

    n: int
    lam: float
    t: float
    profile: RadialProfile

    def __post_init__(self):
        require_dimension(self.n)
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


def default_grid(decades=(-4, -1), points_per_decade: int = 16) -> np.ndarray:
    """Log-spaced evaluation grid, 16 points per decade by default."""
    lo, hi = decades
    count = int(round((hi - lo) * points_per_decade)) + 1
    return np.geomspace(10.0**lo, 10.0**hi, count)


def _eval_points(x_eval) -> np.ndarray:
    """x_eval as a float array, which must be 1-d, nonempty, finite and positive."""
    x_eval = np.asarray(x_eval, dtype=float)
    if x_eval.ndim != 1 or x_eval.size == 0 or not np.all(np.isfinite(x_eval) & (x_eval > 0)):
        raise ScenarioError("x_eval must be a nonempty 1-d array of finite positive points")
    return x_eval


# Bisections after which heat_mode's quadrature gives up on a point.
_MAX_DEPTH = 20


def heat_mode(problem: ModeProblem, x_eval, rel_tol: float = 1e-9) -> ModeSolution:
    """Heat solution of one mode at x_eval, each point to rel_tol.

    The mode's order nu must lie in besselkit's order range, and every
    value must be finite: scipy.special.ive, which the heat quadrature
    calls at w = x xi / (2t), returns nan past w of about 1.0965e9
    (DomainError either way).
    """
    x_eval = _eval_points(x_eval)
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ScenarioError("rel_tol must be finite and positive")
    values, _, _, ok = heat_rows(
        check_order(problem.nu), problem.n, problem.t, x_eval, problem.profile, rel_tol, _MAX_DEPTH
    )
    bad = x_eval[~np.isfinite(values)]
    if bad.size:
        raise DomainError(
            f"heat value not finite at {bad.size} of {x_eval.size} eval points, x = {bad[:5].tolist()}"
            f"{' ...' if bad.size > 5 else ''} at t = {problem.t}: scipy.special.ive returns nan for "
            f"arguments x xi / (2t) above about 1.0965e9"
        )
    if not np.all(ok):
        bad = int(np.sum(~ok))
        raise QuadratureFailure(
            f"{bad} of {x_eval.size} eval points missed rel_tol={rel_tol} "
            f"within depth {_MAX_DEPTH}"
        )
    return ModeSolution(problem=problem, x=x_eval, values=values)


def heat_small_x_series(problem: ModeProblem, num_terms: int = 3) -> list:
    """Exact small-x expansion of the mode heat solution.

    Substituting the kernel's ascending series gives
        a(t, x) = sum_q C_q x^(-mu + 2q),
    C_q assembled from moment integrals
        M_m = integral xi^((n+1)/2 + nu + 2m) e^(-xi^2/(4t)) f(xi) dxi.
    Pure powers, no logs: the independent bridge between solver output and
    the leading template exponents of a single mode.  The moments are
    heat_series's (see ``_kernels.heat_moments``).
    """
    nu = problem.nu
    n, t = problem.n, problem.t
    log_moments, _ = heat_moments(nu, n, t, problem.profile, num_terms)
    out = []
    for q in range(num_terms):
        acc = 0.0
        for m in range(q + 1):
            l = q - m
            term = (
                math.exp(log_moments[m] - (nu + 2 * m) * math.log(4.0 * t)
                         - math.lgamma(nu + m + 1) - math.lgamma(m + 1))
                * ((-1.0) ** l)
                / ((4.0 * t) ** l * math.factorial(l))
            )
            acc += term
        coeff = acc / (2.0 * t)
        out.append((-problem.mu + 2 * q, coeff))
    return out


def _d1(v, h):
    """Fourth-order first derivative, interior points only."""
    return (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12.0 * h)


def _d2(v, h):
    """Fourth-order second derivative, interior points only."""
    return (-v[4:] + 16 * v[3:-1] - 30 * v[2:-2] + 16 * v[1:-3] - v[:-4]) / (12.0 * h * h)


# ---------------------------------------------------------------------------
# Resolvent
# ---------------------------------------------------------------------------


# Equal cells of the support in resolvent_mode.  Fewer cells lengthen each
# point's remainders, more add cell tasks; on the benchmark's resolvent ops
# 10 evaluated the fewest Bessel nodes, and 8 to 12 took the same time.
_CELLS = 10


@dataclass(frozen=True)
class ResolventModeSolution:
    n: int
    lam_mode: float
    lam: complex
    x: np.ndarray
    values: np.ndarray


def resolvent_mode(n: int, lam_mode: float, lam, profile: RadialProfile,
                   x_eval) -> ResolventModeSolution:
    """Solve (lam - L) u = f for one mode, lam off the ray (-inf, 0].

    u(x) = psi(x) * int_0^x phi f xi^n dxi + phi(x) * int_x^inf psi f xi^n dxi
    with phi = x^((1-n)/2) I_nu(s x) (regular at 0) and
    psi = x^((1-n)/2) K_nu(s x) (decaying), s = sqrt(lam); the pair's
    Wronskian phi psi' - phi' psi = -x^(-n) makes the normalization
    constant 1.

    [lo, hi] is cut into _CELLS equal cells g_0 = lo < ... < g_C = hi,
    which depend only on the support.  Every integral is its own task on
    one adaptive frontier, each to 1e-11 of its own running estimate:
    phi f and psi f on every cell, and for each x inside cell j, phi f on
    [g_j, x] and psi f on [x, g_(j+1)] (none of zero width, so a point on a
    cell edge takes one remainder).  Running sums carry the cells to each
    edge, and each point adds its own two remainders to the sums at the
    edges of its cell.  So a point's value depends only on the support,
    lam and x, not on the other points, and no point integrates the whole
    support again (the prefix/suffix form of the Green's-function
    solution in Greengard & Rokhlin, "On the numerical solution of two-point
    boundary value problems", CPAM 44, 1991).

    The Bessel pair is besselkit's scaled one, e^(-Re z) I and e^z K, with
    each task's exponential folded into its integrand: phi f on [a, b]
    carries e^(Re s (xi - b)) and psi f carries e^(Re s a - s xi).  The
    running sums fold from edge to edge by e^(Re s (g_j - g_(j+1))), the
    remainders take the factor from their cell's edge to x, and each point
    takes the matching factor back.  Every factor has modulus at most 1,
    so nothing overflows or underflows early anywhere in the Bessel box.

    Each integrand call makes one bessel_i call for the nodes of its phi
    tasks and one bessel_k call for those of its psi tasks, and none for a
    branch with no nodes; it reads f by RadialProfile.interior, since every
    node lies inside the support, and x^((1-n)/2) xi^n as one power.
    """
    require_dimension(n)
    lam = complex(lam)
    if not (cmath.isfinite(lam) and math.isfinite(lam_mode)):
        raise ScenarioError("resolvent parameter and mode eigenvalue must be finite")
    if lam.imag == 0.0 and lam.real <= 0.0:
        raise SpectrumRay(f"resolvent parameter {lam} lies on the spectral ray")
    x_eval = _eval_points(x_eval)
    nu = float(indicial_roots(n, lam_mode).nu)
    sq = cmath.sqrt(lam)
    lo, hi = profile.lo, profile.hi

    def phi(x):  # e^(-Re(s) x) phi(x)
        return x ** (0.5 * (1 - n)) * bessel_i(nu, sq * x)

    def psi(x):  # e^(s x) psi(x)
        return x ** (0.5 * (1 - n)) * bessel_k(nu, sq * x)

    below, above = x_eval <= lo, x_eval >= hi
    inside = ~(below | above)
    edges = np.linspace(lo, hi, _CELLS + 1)
    inner = x_eval[inside]
    cell = np.searchsorted(edges, inner, side="right") - 1
    left, right = edges[cell], edges[cell + 1]
    on_left, on_right = inner > left, inner < right  # remainders of nonzero width
    # tasks: phi f on each cell, then on [g_j, x]; psi f on each cell, then on [x, g_(j+1)]
    n_phi = _CELLS + int(on_left.sum())
    a = np.concatenate([edges[:-1], left[on_left], edges[:-1], inner[on_right]])
    b = np.concatenate([edges[1:], inner[on_left], edges[1:], right[on_right]])

    def integrand(rows, xi):
        out = np.empty(xi.shape, complex)
        on_phi = rows < n_phi
        on_psi = ~on_phi
        if on_phi.any():
            x = xi[on_phi]
            out[on_phi] = bessel_i(nu, sq * x) * np.exp(sq.real * (x - b[rows[on_phi], None]))
        if on_psi.any():
            x = xi[on_psi]
            out[on_psi] = bessel_k(nu, sq * x) * np.exp(sq.real * a[rows[on_psi], None] - sq * x)
        return out * (profile.interior(xi) * xi ** (0.5 * (1 + n)))  # x^((1-n)/2) of phi, psi times xi^n

    acc = adaptive(integrand, a, b, 1e-11, 18)[0]
    cell_phi, rest_phi = acc[:_CELLS], acc[_CELLS:n_phi]
    cell_psi, rest_psi = acc[n_phi:n_phi + _CELLS], acc[n_phi + _CELLS:]
    # prefix[j] = e^(-Re s g_j) int_lo^g_j phi f, suffix[j] = e^(Re s g_j) int_g_j^hi psi f
    fold = np.exp(sq.real * (edges[:-1] - edges[1:]))
    prefix, suffix = np.zeros(_CELLS + 1, complex), np.zeros(_CELLS + 1, complex)
    for j in range(_CELLS):
        prefix[j + 1] = prefix[j] * fold[j] + cell_phi[j]
    for j in reversed(range(_CELLS)):
        suffix[j] = cell_psi[j] + suffix[j + 1] * fold[j]
    # e^(-Re s x) int_lo^x phi f and e^(Re s x) int_x^hi psi f at each inner x
    upto = prefix[cell] * np.exp(sq.real * (left - inner))
    upto[on_left] += rest_phi
    past = suffix[cell + 1] * np.exp(sq.real * (inner - right))
    past[on_right] += rest_psi

    phi_x, psi_x = np.zeros(x_eval.size, complex), np.zeros(x_eval.size, complex)
    if not above.all():
        phi_x[~above] = phi(x_eval[~above])
    if not below.all():
        psi_x[~below] = psi(x_eval[~below])
    values = np.empty(x_eval.size, complex)
    values[below] = phi_x[below] * np.exp(sq.real * (x_eval[below] - lo)) * suffix[0]
    values[above] = psi_x[above] * np.exp(sq.real * hi - sq * x_eval[above]) * prefix[-1]
    values[inside] = psi_x[inside] * np.exp(-1j * sq.imag * inner) * upto + phi_x[inside] * past
    return ResolventModeSolution(n=n, lam_mode=lam_mode, lam=lam, x=x_eval, values=values)


def resolvent_residual(n: int, lam_mode: float, lam, xs, values, fvals) -> float:
    """max |(lam - L) u - f| on a uniform grid by fourth-order stencils."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=complex)
    fvals = np.asarray(fvals, dtype=complex)
    hx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), hx):
        raise ScenarioError("grid must be uniform")
    d1 = _d1(values, hx)
    d2 = _d2(values, hx)
    xin = xs[2:-2]
    uin = values[2:-2]
    lu = d2 + (n / xin) * d1 + (lam_mode / xin**2) * uin
    res = complex(lam) * uin - lu - fvals[2:-2]
    return float(np.max(np.abs(res)))


# sectorial_sweep's rays arg(lam), moduli |lam| and number of grid points
_RAY_ARGS = (0.0, 0.75 * math.pi, -0.75 * math.pi)
_MODULI = (1.0, 10.0, 100.0)
_SWEEP_POINTS = 160


def sectorial_sweep(n: int, lam_mode: float, profile: RadialProfile) -> dict:
    """|lam| * sup |u| across moduli on each ray; uniformity report.

    Sectoriality predicts these products stay within a bounded factor as
    |lam| grows; the report records the max/min ratio per ray and an
    overall pass flag against the factor-2 criterion.  u is sampled at
    log-spaced points from 1e-3 to twice the support's upper end.
    """
    x_eval = np.geomspace(1e-3, 2.0 * profile.hi, _SWEEP_POINTS)
    rays = []
    overall = True
    for theta in _RAY_ARGS:
        sups = []
        for r in _MODULI:
            lam = r * cmath.exp(1j * theta)
            sol = resolvent_mode(n, lam_mode, lam, profile, x_eval)
            sups.append(r * float(np.max(np.abs(sol.values))))
        ratio = max(sups) / min(sups)
        rays.append({
            "arg": theta,
            "moduli": list(_MODULI),
            "lam_times_sup": sups,
            "ratio": ratio,
        })
        overall = overall and ratio < 2.0
    return {"n": n, "lam_mode": lam_mode, "rays": rays, "uniform_within_factor_2": overall}


# ---------------------------------------------------------------------------
# Solution dumps
# ---------------------------------------------------------------------------


def solutions_to_csv(solutions) -> str:
    """The solution CSV of (mode_j, ModeSolution) pairs: a version comment,
    a header, then one row per point, floats to 17 significant digits."""
    lines = [f"# coneasym {__version__}", "mode_j,nu,t,x,value"]
    for mode_j, sol in solutions:
        nu, t = sol.problem.nu, sol.problem.t
        lines.extend(f"{mode_j:d},{nu:.17g},{t:.17g},{x:.17g},{v:.17g}"
                     for x, v in zip(sol.x.tolist(), sol.values.tolist()))
    return "\n".join(lines) + "\n"


def csv_to_series(text: str) -> list:
    """The (mode_j, t, x, v) series of a solution CSV, sorted by (mode_j, t),
    each with x ascending as float arrays; '#' and header lines are skipped.
    A repeated (mode_j, t, x) row is a ScenarioError: a fit would count its
    point twice."""
    groups: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("mode_j"):
            continue
        mode_j, *cells = line.split(",")
        _, t, x, v = map(float, cells)  # nu must parse but is not kept
        groups.setdefault((int(mode_j), t), []).append((x, v))
    series = []
    for (mode_j, t), pts in sorted(groups.items()):
        pts.sort()
        repeated = [a[0] for a, b in zip(pts, pts[1:]) if a[0] == b[0]]
        if repeated:
            raise ScenarioError(f"solution CSV repeats the row of mode {mode_j}, t = {t!r} at x = {repeated[0]!r}")
        series.append((mode_j, t, np.array([p[0] for p in pts]), np.array([p[1] for p in pts])))
    return series
