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
  regular/decaying Bessel pair (besselkit's scaled form), normalized by
  the exact Wronskian phi psi' - phi' psi = -x^(-n): Chebyshev fits of
  phi f and psi f on cells of the support, integrated in closed form and
  carried from edge to edge by running sums,
* the resolvent's finite-difference residual |(lam_res - L) u - f| on a
  uniform grid.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _EPS, heat_moments, heat_rows
from .besselkit import _check_complex_arg, bessel_i, bessel_k, check_order
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
        """The profile at points xi in [lo, hi], with no mask; __call__ is
        this on its inside points.  The bump holds its distances to the
        edges at eps W/2 or more, so a node on an edge or rounded a few ulps
        past it reads 0, as every point that close inside does, not a
        division by zero or an overflow."""
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


# resolvent_mode cuts the support into _CELLS equal cells, halved while the
# Green's function decays by more than e^_DECAY across one.  _prefix_integrals
# fits cells on the Chebyshev-Lobatto points cos(j pi / 128), degrees 32, 64 and
# 128 taking every 4th, 2nd and 1st, halves those that do not chop, and gives up
# after _MAX_SPLITS halvings or with more than _MAX_OPEN cells open (noise: a
# narrow feature leaves a few open per halving).
_CELLS, _DECAY, _CHOP_TOL, _MAX_OPEN, _MAX_SPLITS = 5, 4.0, 1e-14, 1024, 40
_TINY = float(np.finfo(float).tiny)


@functools.cache
def _levels():
    """Per degree 32, 64, 128: (slice of the points it adds, their u, slice of all
    its points, 1 / their spacing, samples -> last quarter of coefficients,
    -> integral from u = -1); built on first use, so heat-only runs skip it."""
    levels, u_all = [], np.cos(np.pi * np.arange(129) / 128)
    for degree in (32, 64, 128):
        k, step = np.arange(degree + 1), 128 // degree
        ends = np.where(k % degree, 1.0, 0.5)  # the discrete cosine transform halves the end terms
        coef = (2.0 / degree) * np.outer(ends, ends) * np.cos(np.pi * np.outer(k, k) / degree)  # symmetric
        integ = np.zeros((degree + 1, 130), complex)
        integ[:, :degree + 2] = coef @ np.polynomial.chebyshev.chebint(np.eye(degree + 1), lbnd=-1).T
        new = slice(0, None, step) if degree == 32 else slice(step, None, 2 * step)
        levels.append((new, u_all[new], slice(0, None, step), 1.0 / -np.diff(u_all[::step]),
                       coef[:, 3 * degree // 4:].astype(complex), integ))
    return levels


def _prefix_integrals(h, decay, edges, x):
    """e^(-decay x) int_lo^x e^(decay xi) h(xi) dxi at each x, lo = edges[0].

    Each cell [a, b] fits g = e^(decay (xi - b)) h at degree 32, 64, then
    128, and chops at the first whose last quarter of coefficients is within
    _CHOP_TOL of its scale (its largest sample, or its parent cell's) plus
    g's rounding floor 4 eps (scale + max |xi| max |g'|), nodes xi being
    rounded by eps |xi|; that is about 4 eps (1 + |sqrt(lam)| hi) of the
    scale on the large-|lam| rays, and _TINY, below which samples are
    subnormal and round absolutely.  A cell that does not chop is halved.
    Running sums carry the closed-form integrals from edge to edge, and a
    point inside a cell adds its cell's integrated series,
    sum_k d_k cos(k arccos u).  The fits do not read x."""
    a, b, scale, fits, reach = edges[:-1], edges[1:], np.zeros(edges.size - 1), [], max(-edges[0], edges[-1])
    for depth in range(_MAX_SPLITS + 1):
        vals, mid, half = np.zeros((a.size, 129), complex), 0.5 * (a + b), 0.5 * (b - a)
        for new, u, cols, inv_du, tail, integ in _levels():
            if a.size:
                vals[:, new] = h(mid[:, None] + half[:, None] * u) * np.exp(decay * half[:, None] * (u - 1.0))
                v = vals[:, cols]
                scale = np.maximum(scale, np.abs(v).max(axis=1))
                floor = 4.0 * _EPS * (scale + reach / half * (np.abs(np.diff(v, axis=1)) * inv_du).max(axis=1)) + _TINY
                chop = np.abs(v @ tail).max(axis=1) <= _CHOP_TOL * scale + floor
                fits.append((a[chop], v[chop] @ integ))
                a, b, mid, half, scale, vals = (arr[~chop] for arr in (a, b, mid, half, scale, vals))
        if not a.size:
            break
        if depth == _MAX_SPLITS or a.size > _MAX_OPEN:
            raise QuadratureFailure(f"resolvent cell at {abs(mid[0])} does not chop ({a.size} open, {depth} halvings)")
        a, b, scale = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(scale, 2)
    order = np.argsort(starts := np.concatenate([fit[0] for fit in fits]))
    edges, d = np.append(starts[order], edges[-1]), np.concatenate([fit[1] for fit in fits])[order]
    half = 0.5 * np.diff(edges)
    total, fold, run = (half * d.sum(axis=1)).tolist(), np.exp(-2.0 * decay * half).tolist(), [0j]
    for j in range(len(total)):
        run.append(run[-1] * fold[j] + total[j])
    # the cell edges g_l <= x <= g_r next to each point: l = r on an edge or past the support
    clipped = np.clip(x, edges[0], edges[-1])
    left = np.searchsorted(edges, clipped, side="right") - 1
    inner = np.flatnonzero(np.searchsorted(edges, clipped, side="left") > left)
    out = np.array(run)[left] * np.exp(decay * (edges[left] - np.maximum(x, edges[0])))  # 0 below lo
    j, x = left[inner], x[inner]
    theta = np.arccos((x - edges[j] - half[j]) / half[j])  # x - g_l rounds into [0, 2 half]
    series = (d[j] * np.cos(np.arange(130) * theta[:, None])).sum(axis=1)
    out[inner] += half[j] * series * np.exp(decay * (edges[j + 1] - x))
    return out


@dataclass(frozen=True)
class ResolventModeSolution:
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

    nu must lie in besselkit's order range and |s| hi in its argument box
    (DomainError, before any cell is made).  [lo, hi] is cut into _CELLS
    equal cells, and 28 widths either side of a gaussian's centre, so the
    fits' samples cannot miss a narrow peak; a cell [a, b] is halved while
    Re sqrt(lam + nu^2 / a^2) (b - a), the Green's function's decay across
    it (Re s (b - a) far from the tip; nu / a capped at 1e100, whose square
    would overflow), exceeds _DECAY.  ``_prefix_integrals`` integrates phi f and psi f on
    these cells, which depend only on the support and lam, so each point's
    value does not depend on the other points: the prefix/suffix form of
    Greengard & Rokhlin, CPAM 44, 1991.  With besselkit's scaled pair
    e^(-Re z) I and e^z K, phi f on [a, b] carries e^(Re s (xi - b)) and
    psi f, the same prefix in eta = -xi, e^(Re s (eta + a)) and the phase
    e^(i Im s eta); the sums fold by e^(Re s (a - b)) and each point takes
    its factor back, so nothing overflows early.  Each degree of a branch's
    fits is one bessel_i (phi) or bessel_k (psi) call.
    """
    require_dimension(n)
    lam = complex(lam)
    if not (cmath.isfinite(lam) and math.isfinite(lam_mode)):
        raise ScenarioError("resolvent parameter and mode eigenvalue must be finite")
    if lam.imag == 0.0 and lam.real <= 0.0:
        raise SpectrumRay(f"resolvent parameter {lam} lies on the spectral ray")
    x_eval = _eval_points(x_eval)
    nu, sq, lo, hi = check_order(indicial_roots(n, lam_mode).nu), cmath.sqrt(lam), profile.lo, profile.hi
    _check_complex_arg(sq * hi)  # the fits' largest Bessel argument, checked before any cell is made
    edges = np.linspace(lo, hi, _CELLS + 1)
    if profile.shape == "gaussian":  # exp(-28^2) is 0, and the cell with the peak at most 56 widths wide
        cuts = profile.center + 28.0 * profile.width * np.array([-1.0, 1.0])
        edges = np.unique(np.append(edges, cuts[(lo < cuts) & (cuts < hi)]))
    while (wide := np.diff(edges) * np.sqrt(lam + np.minimum(nu / edges[:-1], 1e100) ** 2).real > _DECAY).any():
        edges = np.sort(np.append(edges, 0.5 * (edges[:-1] + edges[1:])[wide]))

    source = lambda xi: profile.interior(xi) * xi ** (0.5 * (1 + n))  # x^((1-n)/2) of phi, psi times xi^n
    # e^(-Re s x) int_0^x phi f and e^(Re s x) int_x^inf psi f
    upto = _prefix_integrals(lambda xi: bessel_i(nu, sq * xi) * source(xi), sq.real, edges, x_eval)
    past = _prefix_integrals(lambda eta: bessel_k(nu, -sq * eta) * np.exp(1j * sq.imag * eta) * source(-eta),
                             sq.real, -edges[::-1], -x_eval)
    # e^(s x) psi(x) where upto can be nonzero, e^(-Re s x) phi(x) where past can
    psi_x, phi_x = np.zeros(x_eval.size, complex), np.zeros(x_eval.size, complex)
    for out, bessel, used in ((psi_x, bessel_k, x_eval > lo), (phi_x, bessel_i, x_eval < hi)):
        if used.any():
            out[used] = x_eval[used] ** (0.5 * (1 - n)) * bessel(nu, sq * x_eval[used])
    values = psi_x * np.exp(-1j * sq.imag * x_eval) * upto + phi_x * past
    return ResolventModeSolution(lam=lam, x=x_eval, values=values)


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
    return _sweep(n, lam_mode, profile, _RAY_ARGS, _MODULI)


def _sweep(n, lam_mode, profile, ray_args, moduli) -> dict:
    """sectorial_sweep's report on the rays ray_args and the moduli given."""
    x_eval, rays = np.geomspace(1e-3, 2.0 * profile.hi, _SWEEP_POINTS), []
    for theta in ray_args:
        sups = [r * float(np.max(np.abs(resolvent_mode(n, lam_mode, r * cmath.exp(1j * theta), profile,
                                                       x_eval).values))) for r in moduli]
        rays.append({"arg": theta, "moduli": list(moduli), "lam_times_sup": sups, "ratio": max(sups) / min(sups)})
    return {"n": n, "lam_mode": lam_mode, "rays": rays,
            "uniform_within_factor_2": all(ray["ratio"] < 2.0 for ray in rays)}


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
