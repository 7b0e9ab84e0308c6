"""Model-cone mode solvers.

One cross-section mode with eigenvalue lam rides the radial operator

    L = d^2/dx^2 + (n/x) d/dx + lam / x^2   on (0, inf),

with nu^2 = ((n-1)/2)^2 - lam.  This module evaluates

* the heat solution a(t, x) = integral p_nu(t, x, xi) f(xi) xi^n dxi for
  compactly supported radial sources f (the kernel's ascending series
  summed against moments of f where it converges, Chebyshev cells on the
  support elsewhere; see ``_kernels.heat_rows``),
* its exact small-x series (the same moments, with e^(-x^2/(4t))
  expanded too), the bridge to the templates,
* the resolvent (lam_res - L)^(-1) f off the spectral ray via the
  regular/decaying Bessel pair (besselkit's scaled form), normalized by
  the exact Wronskian phi psi' - phi' psi = -x^(-n): Chebyshev fits of
  phi f and psi f on shared cells of the support (one
  ``_kernels.cell_fits`` pass of two components), integrated in closed
  form and carried by running sums, phi f's from lo and psi f's from hi,
* the resolvent's finite-difference residual |(lam_res - L) u - f| on a
  uniform grid.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from ._kernels import _EPS, _MAX_OPEN, _MAX_SPLITS, cell_fits, heat_moments, heat_rows
from .besselkit import _check_complex_arg, bessel_i, bessel_k, check_order
from .errors import DomainError, QuadratureFailure, ScenarioError, SpectrumRay
from .indicial import indicial_roots
from .spectra import require_dimension
from .version import __version__

_SHAPES = ("bump", "gaussian", "indicator")


class RadialProfile(namedtuple("RadialProfile", "shape lo hi center width", defaults=(0.0, 1.0))):
    """Compactly supported radial source on [lo, hi], lo > 0.

    shape 'bump': exp(1 - 1/(1-u^2)) on the support (smooth), with
        u = (2 xi - lo - hi)/W and W = hi - lo.  It is evaluated as
        exp(1 - (W/2)^2 / ((xi - lo)(hi - xi))), using
        1 - u^2 = 4 (xi - lo)(hi - xi)/W^2.  Forming 1 - u^2 itself cancels
        near either edge (|u| -> 1) and puts a relative error of about
        eps/(1 - u^2)^2 on the value (about 1e-11 at 1e-3 W from an edge),
        noise that the cell fits would then halve after; the distances to
        the edges carry no such cancellation.  W/2 divides
        each distance on its own, so a support wider than 1e154 does not
        overflow;
    shape 'gaussian': exp(-((xi-center)/width)^2) truncated to the support;
    shape 'indicator': 1 on the support.

    The constructor checks the fields (so build one by it, not by ``_make``
    or ``_replace``).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.shape not in _SHAPES:
            raise ScenarioError(f"unknown profile shape {self.shape!r}")
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.center, self.width)):
            raise ScenarioError("profile support, center and width must be finite")
        if not 0.0 < self.lo < self.hi:
            raise ScenarioError("profile support must satisfy 0 < lo < hi")
        if self.shape == "gaussian" and not self.width > 0:
            raise ScenarioError("gaussian width must be positive")
        return self

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


class ModeProblem(namedtuple("ModeProblem", "n lam t profile")):
    """Heat problem for one mode: dimension n+1, eigenvalue lam, source f
    (checked by the constructor, which ``_make`` and ``_replace`` skip)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_dimension(self.n)
        if not (math.isfinite(self.t) and self.t > 0):
            raise ScenarioError("t must be finite and positive")
        if not math.isfinite(self.lam):
            raise ScenarioError("lam must be finite")
        return self

    @property
    def nu(self) -> float:
        return float(indicial_roots(self.n, self.lam).nu)

    @property
    def mu(self) -> float:
        return float(indicial_roots(self.n, self.lam).mu)


ModeSolution = namedtuple("ModeSolution", "problem x values")


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


def heat_mode(problem: ModeProblem, x_eval, rel_tol: float = 1e-9) -> ModeSolution:
    """Heat solution of one mode at x_eval, each point to rel_tol.

    The mode's order nu must lie in besselkit's order range, and every
    value must be finite: scipy.special.ive, which the heat quadrature
    calls at w = x xi / (2t), returns nan past w of about 1.0965e9
    (DomainError either way).  A point that misses rel_tol, or whose cell
    fits give up, is a QuadratureFailure.
    """
    x_eval = _eval_points(x_eval)
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ScenarioError("rel_tol must be finite and positive")
    values, _, _, ok = heat_rows(check_order(problem.nu), problem.n, problem.t, x_eval, problem.profile, rel_tol)
    bad = x_eval[~np.isfinite(values)]
    if bad.size:
        raise DomainError(
            f"heat value not finite at {bad.size} of {x_eval.size} eval points, x = {bad[:5].tolist()}"
            f"{' ...' if bad.size > 5 else ''} at t = {problem.t}: scipy.special.ive returns nan for "
            f"arguments x xi / (2t) above about 1.0965e9"
        )
    if not np.all(ok):
        raise QuadratureFailure(f"{int(np.sum(~ok))} of {x_eval.size} eval points missed rel_tol={rel_tol}: a cell "
                                f"fit gave up ({_MAX_SPLITS} halvings, {_MAX_OPEN} cells open) or the fits' error "
                                f"estimate exceeds it")
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
# Green's function decays by more than e^_DECAY across one.
_CELLS, _DECAY = 5, 4.0
# 1 and (-1)^k: the series signs of _prefix_integrals' two components
_ALTERNATE = np.array([np.ones(130), (-1.0) ** np.arange(130)])


def _prefix_integrals(fn, decay, edges, x):
    """The running integrals of fn(xi) = (g, h), decay >= 0, at each x:

        e^(-decay x) int_lo^x e^(decay xi) g(xi) dxi,   e^(decay x) int_x^hi e^(-decay xi) h(xi) dxi,

    lo, hi = edges[0], edges[-1].  ``cell_fits`` fits e^(decay (xi - b)) g
    and e^(decay (a - xi)) h on the same cells [a, b] of edges, as one task
    of two components; a fit that gives up is a QuadratureFailure.  Running
    sums carry the closed-form cell integrals, g's from lo and h's from hi,
    both folded by e^(decay (a - b)), and one lookup finds each point's cell
    edges.  A point inside a cell adds its cell's integrated series, with
    one cos matrix: g's sum_k d_k cos(k theta), integrated from the left
    end, and h's sum_k (-1)^k d_k cos(k theta), integrated from the right
    end in -u (u = cos theta).  The fits do not read x."""
    fits = cell_fits(lambda rows, xi: fn(xi), np.zeros(edges.size - 1, np.int64), edges[:-1], edges[1:],
                     (decay, -decay))
    _, starts, _, d, _, chopped = (np.concatenate(part) for part in zip(*fits))
    if not chopped.all():
        raise QuadratureFailure(f"resolvent cell at {starts[~chopped][0]} does not chop")
    order = np.argsort(starts)
    edges, d = np.append(starts[order], edges[-1]), d[order]
    half = 0.5 * np.diff(edges)
    (up, down), fold = (half * d.sum(axis=2).T).tolist(), np.exp(-2.0 * decay * half).tolist()
    run_up, run_down = [0j], [0j]
    for j in range(len(fold)):
        run_up.append(run_up[-1] * fold[j] + up[j])
        run_down.append(run_down[-1] * fold[-1 - j] + down[-1 - j])
    # the cell edges g_l <= x <= g_r next to each point: l = r on an edge or past the support
    clipped = np.clip(x, edges[0], edges[-1])
    left = np.searchsorted(edges, clipped, side="right") - 1
    right = np.searchsorted(edges, clipped, side="left")
    upto = np.array(run_up)[left] * np.exp(decay * (edges[left] - np.maximum(x, edges[0])))  # 0 below lo
    past = np.array(run_down[::-1])[right] * np.exp(decay * (np.minimum(x, edges[-1]) - edges[right]))  # 0 above hi
    inner = np.flatnonzero(right > left)
    j, x = left[inner], x[inner]
    theta = np.arccos((x - edges[j] - half[j]) / half[j])  # x - g_l rounds into [0, 2 half]
    series = half[j, None] * (d[j] * _ALTERNATE * np.cos(np.arange(130) * theta[:, None])[:, None]).sum(axis=2)
    upto[inner] += series[:, 0] * np.exp(decay * (edges[j + 1] - x))
    past[inner] += series[:, 1] * np.exp(decay * (x - edges[j]))
    return upto, past


ResolventModeSolution = namedtuple("ResolventModeSolution", "lam x values")


def resolvent_mode(n: int, lam_mode: float, lam, profile: RadialProfile,
                   x_eval) -> ResolventModeSolution:
    """Solve (lam - L) u = f for one mode, lam off the ray (-inf, 0].

    u(x) = psi(x) * int_0^x phi f xi^n dxi + phi(x) * int_x^inf psi f xi^n dxi
    with phi = x^((1-n)/2) I_nu(s x) (regular at 0) and
    psi = x^((1-n)/2) K_nu(s x) (decaying), s = sqrt(lam); the pair's
    Wronskian phi psi' - phi' psi = -x^(-n) makes the normalization
    constant 1.

    nu must lie in besselkit's order range and |s| max(hi, max x) in its
    argument box (DomainError, before any cell is made).  [lo, hi] is cut
    into _CELLS equal cells, and 28 widths either side of a gaussian's
    centre, so the fits' samples cannot miss a narrow peak; a cell [a, b]
    is halved while Re sqrt(lam + nu^2 / a^2) (b - a), the Green's
    function's decay across it (Re s (b - a) far from the tip; nu / a capped
    at 1e100, whose square would overflow), exceeds _DECAY.
    ``_prefix_integrals`` integrates phi f and psi f on these cells in one
    engine pass; the cells depend only on the support and lam, so each
    point's value does not depend on the other points: the prefix/suffix
    form of Greengard & Rokhlin, CPAM 44, 1991.  With besselkit's scaled
    pair e^(-Re z) I and e^z K, the fits sample phi f e^(Re s (xi - b)) and
    psi f e^(Re s (a - xi)) at the same nodes, psi with the phase
    e^(-i Im s xi); the sums fold by e^(Re s (a - b)) and each point takes
    its factor back, so nothing overflows early.  Each degree of the fits
    evaluates the source once and makes one bessel_i and one bessel_k call,
    at s hi where the source is exactly 0 (near the tip kve overflows, and
    inf 0 is nan, or a node rounds to 0).  A cell closes when both
    products chop.  Far from a narrow gaussian, on rays near the
    negative axis, values are unflagged rounding noise: its Fourier factor
    exp(-(Im s width)^2 / 4) is e^-210 at width 0.3, |lam| 1e4, arg 0.9 pi.
    """
    require_dimension(n)
    lam = complex(lam)
    if not (cmath.isfinite(lam) and math.isfinite(lam_mode)):
        raise ScenarioError("resolvent parameter and mode eigenvalue must be finite")
    if lam.imag == 0.0 and lam.real <= 0.0:
        raise SpectrumRay(f"resolvent parameter {lam} lies on the spectral ray")
    x_eval = _eval_points(x_eval)
    nu, sq, lo, hi = check_order(indicial_roots(n, lam_mode).nu), cmath.sqrt(lam), profile.lo, profile.hi
    _check_complex_arg(sq * max(hi, x_eval.max()))  # the largest Bessel argument, checked before any cell
    edges = np.linspace(lo, hi, _CELLS + 1)
    if profile.shape == "gaussian":  # exp(-28^2) is 0, and the cell with the peak at most 56 widths wide
        cuts = profile.center + 28.0 * profile.width * np.array([-1.0, 1.0])
        edges = np.unique(np.append(edges, cuts[(lo < cuts) & (cuts < hi)]))
    while (wide := np.diff(edges) * np.sqrt(lam + np.minimum(nu / edges[:-1], 1e100) ** 2).real > _DECAY).any():
        edges = np.sort(np.append(edges, 0.5 * (edges[:-1] + edges[1:])[wide]))

    def samples(xi):
        """phi f and psi f at xi with besselkit's scaled pair: psi takes its phase e^(-i Im s xi) here."""
        f = profile.interior(xi) * xi ** (0.5 * (1 + n))  # x^((1-n)/2) of phi, psi times xi^n
        z = np.where(f == 0.0, sq * hi, sq * xi)  # s hi where the source is 0
        return np.stack((bessel_i(nu, z), bessel_k(nu, z) * np.exp(-1j * sq.imag * xi))) * f

    # e^(-Re s x) int_0^x phi f and e^(Re s x) int_x^inf psi f
    upto, past = _prefix_integrals(samples, sq.real, edges, x_eval)
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
    point twice; so is a CSV with no data rows."""
    groups: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("mode_j"):
            continue
        mode_j, *cells = line.split(",")
        _, t, x, v = map(float, cells)  # nu must parse but is not kept
        groups.setdefault((int(mode_j), t), []).append((x, v))
    if not groups:
        raise ScenarioError("solution CSV holds no data rows")
    series = []
    for (mode_j, t), pts in sorted(groups.items()):
        pts.sort()
        repeated = [a[0] for a, b in zip(pts, pts[1:]) if a[0] == b[0]]
        if repeated:
            raise ScenarioError(f"solution CSV repeats the row of mode {mode_j}, t = {t!r} at x = {repeated[0]!r}")
        series.append((mode_j, t, np.array([p[0] for p in pts]), np.array([p[1] for p in pts])))
    return series
