"""Low-level numerical kernels.

The one Gauss-Legendre quadrature engine that every integral in the
package goes through, and the model-cone heat solver on top of it.  The
engine is a 16-point rule on many panels at once, in blocks of at most
_BLOCK panels per integrand call, and an adaptive bisection whose
breadth-first frontier refines every live panel of every task in one such
call per level.  ``heat_moments`` applies the same rule to all of its
moments at once, on one memoized node set of fixed panels.

``heat_rows`` evaluates each point by ``heat_series``, the kernel's
ascending series summed against fixed-panel moments of the source, where
that series converges to rel_tol (z = x hi / (4t) at most _SERIES_Z), and
every other point by ``heat_quadrature``, the adaptive engine with one
``scipy.special.ive`` call per level.  scipy.special is imported only
when some point falls to the quadrature, so the exact-algebra commands
and the small-x solves start without it.

Notation: the mode operator on the model cone of dimension n+1 is

    L = d^2/dx^2 + (n/x) d/dx + lambda / x^2,   nu^2 = ((n-1)/2)^2 - lambda,

and its heat kernel with respect to the measure xi^n dxi is

    p_nu(t, x, xi) = (x xi)^((1-n)/2) (2t)^(-1)
                     * exp(-(x^2 + xi^2) / (4t)) * I_nu(x xi / (2t)).

The exponentially scaled form used throughout multiplies by
exp(-(x-xi)^2/(4t)) and e^(-w) I_nu(w), w = x xi/(2t), so no intermediate
overflows for any (t, x, xi) in range.
"""

import functools
import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Most panels in one integrand call: bounds the (panels x 16) node
# temporaries.
_BLOCK = 512

_EPS = float(np.finfo(float).eps)
# heat_rows evaluates points with z = x hi / (4t) up to this by heat_series.
_SERIES_Z = 25.0
# heat_series stops where its a-priori bound on T_K / T_0 falls below this.
_SERIES_TAIL = 2.0**-56
# Smallest series value heat_rows accepts: below it a value loses digits
# to gradual underflow.
_TINY = 1e-290
# Moment sums: half the panel count is PER_WIDTH * (hi - lo) / sqrt(t),
# kept within [MIN, MAX].  Past MAX (t below about 5e-4 (hi - lo)^2) the
# sums lose accuracy, their error estimates say so, and heat_rows falls
# back to the quadrature.
_MOMENT_HALF_PANELS_MIN = 24
_MOMENT_HALF_PANELS_MAX = 256
_MOMENT_HALF_PANELS_PER_WIDTH = 6.0


def gl_panels(fn, rows, a, b):
    """16-point Gauss-Legendre estimates on the panels [a[k], b[k]].

    fn(rows, nodes) gets the task index of each panel and a (P, 16) node
    array, and returns real or complex values of that shape.  One fn call
    takes at most _BLOCK panels, so the node temporaries stay bounded.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    parts = [np.zeros(0)]
    for s in range(0, rows.size, _BLOCK):
        vals = fn(rows[s:s + _BLOCK], c[s:s + _BLOCK, None] + h[s:s + _BLOCK, None] * _GL_NODES)
        parts.append(h[s:s + _BLOCK] * np.sum(_GL_WEIGHTS * vals, axis=1))
    return np.concatenate(parts)


def adaptive(fn, a, b, rel_tol, max_depth):
    """Adaptive bisection of fn on [a[i], b[i]] for every task i at once,
    under error control relative to each task's running estimate (as in
    QUADPACK's QAG, Piessens et al. 1983, and Gander & Gautschi, "Adaptive
    quadrature - revisited", BIT 40, 2000).

    Each task starts from one panel on [a[i], b[i]].  At each level its
    running estimate is the sum of its accepted pairs and of the pairs of
    its live panels; a panel is accepted when its estimate and the sum over
    its two halves differ by at most rel_tol times |running estimate| times
    its share of the width of [a[i], b[i]], when it sits max_depth
    bisections deep, or when that budget is not finite (a nan or inf
    integrand would otherwise refine every panel to max_depth).  The
    frontier is breadth-first: one gl_panels call halves every live panel
    of every task.  Each task keeps one running total of its accepted
    pairs, their errors and their panel count, added level by level in the
    order of its own panels; that total is both the running estimate the
    budget reads and the returned value, so a task's result depends neither
    on the other tasks nor on their order.

    Returns arrays (value, error_estimate, panel_count).
    """
    a, b = np.broadcast_arrays(a, b)
    rows, lo, hi = np.arange(a.size), a, b
    coarse = gl_panels(fn, rows, lo, hi)
    value, err, panels = np.zeros(a.size, coarse.dtype), np.zeros(a.size), np.zeros(a.size, np.int64)
    depth = 0
    while rows.size:
        mid = 0.5 * (lo + hi)
        halves = gl_panels(fn, np.tile(rows, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[:rows.size], halves[rows.size:]
        pair = left + right
        e = np.abs(coarse - pair)
        running = value.copy()
        np.add.at(running, rows, pair)
        budget = rel_tol * np.abs(running[rows]) * (hi - lo) / (b - a)[rows]
        done = (e <= budget) | (depth >= max_depth) | ~np.isfinite(budget)
        np.add.at(value, rows[done], pair[done])
        np.add.at(err, rows[done], e[done])
        np.add.at(panels, rows[done], 2)
        live = ~done
        rows, coarse = np.tile(rows[live], 2), np.concatenate([left[live], right[live]])
        lo, hi = np.concatenate([lo[live], mid[live]]), np.concatenate([mid[live], hi[live]])
        depth += 1
    return value, err, panels


def heat_moments(nu, n, t, profile, count):
    """log M_m and a relative error bound for m < count, where

        M_m = integral xi^((n+1)/2 + nu + 2m) e^(-xi^2/(4t)) f(xi) dxi

    over the support of f.  Each moment is a fixed-panel sum on
    _moment_panels(t, profile) panels, shifted by the maximum of its
    log-integrand without f (f <= 1 for every shape) so that nothing
    overflows; its error bound is the difference from the sum on half as
    many panels plus the rounding of the shifted exponents.  Both sums map
    one memoized _moment_rule node set and take one exp over it; each M_m
    is a row sum, so it depends only on (nu, n, t, profile, m), not count.
    """
    lo, hi = float(profile.lo), float(profile.hi)
    p = 0.5 * (n + 1) + nu + 2.0 * np.arange(count)
    peak = np.minimum(np.maximum(np.sqrt(2.0 * t * p), lo), hi)
    shift = p * np.log(peak) - peak * peak / (4.0 * t)
    u, w, split = _moment_rule(_moment_panels(t, profile))
    xi = lo + (hi - lo) * u
    terms = np.exp(p[:, None] * np.log(xi) - (xi**2 / (4.0 * t) + shift[:, None])) * ((hi - lo) * w * profile(xi))
    fine, coarse = terms[:, :split].sum(axis=1), terms[:, split:].sum(axis=1)
    quad = np.divide(np.abs(fine - coarse), fine, out=np.zeros(count), where=fine > 0.0)
    rounding = _EPS * (p * max(abs(math.log(lo)), abs(math.log(hi))) + hi * hi / (4.0 * t) + 8.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(fine), quad + rounding


@functools.lru_cache(maxsize=16)
def _moment_rule(panels):
    """The rule on [0, 1] in panels, then panels // 2, equal panels: read-only nodes, weights, split."""
    sizes = (panels, panels // 2)
    nodes = np.concatenate([(np.arange(k)[:, None] + 0.5 * (1.0 + _GL_NODES)).ravel() / k for k in sizes])
    weights = np.concatenate([np.tile(0.5 * _GL_WEIGHTS / k, k) for k in sizes])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights, _GL_NODES.size * panels


def _moment_panels(t, profile):
    """Even panel count of the moment sums.  The Gaussian factor of the
    moment integrand is about sqrt(t) wide, so the count follows
    (hi - lo) / sqrt(t), from a floor that resolves the profile itself up
    to a cap that bounds the work."""
    per_half = math.ceil(_MOMENT_HALF_PANELS_PER_WIDTH * (profile.hi - profile.lo) / math.sqrt(t))
    return 2 * min(_MOMENT_HALF_PANELS_MAX, max(_MOMENT_HALF_PANELS_MIN, per_half))


def _series_length(nu, z):
    """Term count K for each z = x hi / (4t) > 0, and lg_m = log(m! Gamma(nu+m+1))
    for m up to the largest K.  K is the first K at which the ratio bound
    r_K = z^2 / ((K+1)(nu+K+1)) of consecutive terms is at most 1/2 and the
    bound z^2K Gamma(nu+1) / (K! Gamma(nu+K+1)) on T_K / T_0 is at most
    _SERIES_TAIL: the first K with z <= z_K = min(sqrt((K+1)(nu+K+1)/2),
    exp((log _SERIES_TAIL + lg_K - lg_0) / 2K)), searched in their running max."""
    lg, cap = [math.lgamma(nu + 1.0)], [0.0]
    while cap[-1] < z.max():
        k = len(lg)
        lg.append(math.lgamma(k + 1.0) + math.lgamma(nu + k + 1.0))
        cap.append(max(cap[-1], min(math.sqrt(0.5 * (k + 1) * (nu + k + 1)),
                                    math.exp((math.log(_SERIES_TAIL) + lg[k] - lg[0]) / (2 * k)))))
    return np.searchsorted(cap, z), np.array(lg)


def heat_series(nu, n, t, xs, profile):
    """Mode heat solution at each x of xs by the kernel's ascending series

        a(t, x) = x^((1-n)/2) e^(-x^2/(4t)) (2t)^(-1)
                  * sum_m (x/(4t))^(nu+2m) M_m / (m! Gamma(nu+m+1)),

    with the moments M_m of heat_moments.  It holds for every x > 0; every
    term is positive, so nothing cancels.  Terms are formed in log space
    and summed in order of m, by one cumulative sum read at each point's
    own _series_length, so no sum's order depends on the other points.

    Returns (values, error_estimates): each estimate adds the truncation
    bound T_K / (1 - r_K), the moment errors weighted by their terms and
    the rounding of the terms' exponents and of the sum.  A point's result
    depends only on that point and on (nu, n, t, profile).
    """
    nu, n, t = float(nu), float(n), float(t)
    xs = np.asarray(xs, dtype=np.float64)
    z = xs * float(profile.hi) / (4.0 * t)
    terms, lg = _series_length(nu, z)
    log_m, moment_err = heat_moments(nu, n, t, profile, lg.size)
    power = (nu + 2.0 * np.arange(lg.size)) * np.log(xs / (4.0 * t))[:, None]
    pref = 0.5 * (1.0 - n) * np.log(xs) - xs * xs / (4.0 * t) - math.log(2.0 * t)
    t_m = np.exp(power + (pref[:, None] + (log_m - lg)))
    kept = np.where(np.arange(lg.size) < terms[:, None], t_m, 0.0)
    rows = np.arange(xs.size)
    values = kept.cumsum(axis=1)[rows, terms - 1]
    per_m = np.where(log_m > -np.inf, moment_err + _EPS * (np.abs(log_m) + lg + 8.0), 0.0)  # 0 for an underflow
    rel = _EPS * (np.abs(power) + (np.abs(pref) + terms)[:, None]) + per_m
    spread = (kept * rel).cumsum(axis=1)[rows, terms - 1]
    return values, spread + t_m[rows, terms] / (1.0 - z * z / ((terms + 1.0) * (nu + terms + 1.0)))


def heat_rows(nu, n, t, xs, profile, rel_tol, max_depth):
    """Mode integral of p_nu(t, x, xi) f(xi) xi^n over the support [lo, hi]
    of the source profile f at every eval point x of xs, to rel_tol.

    A point with z = x hi / (4t) <= _SERIES_Z takes heat_series when its
    value is above _TINY and its error estimate meets rel_tol; it reports
    0 panels.  Every other point goes to heat_quadrature, and only then is
    scipy.special imported.

    Returns (values, error_estimates, panel_counts, converged_flags); the
    per-point results do not depend on the order of xs or on the other
    points.
    """
    nu, n, t, rel_tol = float(nu), float(n), float(t), float(rel_tol)
    xs = np.asarray(xs, dtype=np.float64)
    value, err, panels = np.zeros(xs.size), np.zeros(xs.size), np.zeros(xs.size, np.int64)
    near = xs * float(profile.hi) / (4.0 * t) <= _SERIES_Z
    if near.any():
        value[near], err[near] = heat_series(nu, n, t, xs[near], profile)
    ok = (value >= _TINY) & (err <= rel_tol * value)
    rest = ~ok
    if rest.any():
        value[rest], err[rest], panels[rest], ok[rest] = heat_quadrature(
            nu, n, t, xs[rest], profile, rel_tol, max_depth)
    return value, err, panels, ok


def heat_quadrature(nu, n, t, xs, profile, rel_tol, max_depth):
    """heat_rows by adaptive panels alone, for every point of xs.

    All points refine together on one breadth-first frontier, each against
    half of rel_tol times its own running estimate (see ``adaptive``); the
    integrand is nonnegative, so that estimate cannot collapse by
    cancellation.  A point has converged when its summed error estimate is
    within rel_tol of its value.
    """
    nu, n, t, rel_tol, max_depth = float(nu), float(n), float(t), float(rel_tol), int(max_depth)
    xs = np.asarray(xs, dtype=np.float64)
    from scipy.special import ive

    def integrand(rows, xi):
        x = xs[rows, None]
        w = x * xi / (2.0 * t)
        kern = (
            (x * xi) ** (0.5 * (1.0 - n))
            / (2.0 * t)
            * np.exp(-((x - xi) ** 2) / (4.0 * t))
            * ive(nu, w)
        )
        return profile(xi) * kern * xi**n

    lo, hi = np.full(xs.size, float(profile.lo)), np.full(xs.size, float(profile.hi))
    value, err, panels = adaptive(integrand, lo, hi, 0.5 * rel_tol, max_depth)
    return value, err, panels, err <= rel_tol * np.abs(value)
