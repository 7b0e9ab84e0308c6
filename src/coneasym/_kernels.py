"""Low-level numerical kernels.

``cell_fits`` is the package's one adaptive engine: Chebyshev fits on
cells that halve until they chop, for many tasks at once, each task of
one or more components fitted on the same cells.  The heat quadrature
integrates each point on it as a task of one component, and the resolvent
(``conesolve``) fits phi f and psi f as one task of two and carries the
fits by running sums.  Its Chebyshev-Lobatto points include
the cell ends, the support's edges among them, so the integrands read the
source by ``RadialProfile.interior``, which holds there.  ``heat_moments``
keeps a 16-point Gauss-Legendre rule on fixed panels instead, so each
moment is a row sum, the same whatever the count.

``heat_rows`` evaluates each point by ``heat_series``, the kernel's
ascending series summed against those moments, where it converges to
rel_tol (z = x hi / (4t) at most _SERIES_Z), and every other point by
``heat_quadrature``.  scipy.special is imported only when some point falls
to the quadrature, so the exact-algebra commands and the small-x solves
start without it.

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

_EPS = float(np.finfo(float).eps)
# cell_fits chops a fit at _CHOP_TOL of its scale, gives a task up after
# _MAX_SPLITS halvings or with more than _MAX_OPEN cells open (noise: a narrow
# feature leaves a few open per halving), and passes at most _BLOCK cells to
# one integrand call.  Samples below _NORMAL, the smallest normal double, are
# subnormal and round absolutely.
_CHOP_TOL, _MAX_OPEN, _MAX_SPLITS, _BLOCK, _NORMAL = 1e-14, 1024, 40, 512, float(np.finfo(float).tiny)
# heat_quadrature cuts start cells at x + 2 sqrt(t) times these: the kernel's
# Gaussian is about 2 sqrt(t) wide, and e^(-27^2) underflows.
_KERNEL_CUTS = np.array([-27.0, -14.0, -9.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 9.0, 14.0, 27.0])
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


@functools.cache
def _levels():
    """Per degree 32, 64, 128 on the Chebyshev-Lobatto points cos(j pi / 128): (slice of
    the points it adds, their u, slice of all its points, 1 / their spacing, samples ->
    last quarter of coefficients, -> integral from u = -1, |int_-1^1 T_k| for that
    quarter); built on first use, so runs that fit no cell skip it."""
    levels, u_all = [], np.cos(np.pi * np.arange(129) / 128)
    for degree in (32, 64, 128):
        k, step = np.arange(degree + 1), 128 // degree
        ends = np.where(k % degree, 1.0, 0.5)  # the discrete cosine transform halves the end terms
        coef = (2.0 / degree) * np.outer(ends, ends) * np.cos(np.pi * np.outer(k, k) / degree)  # symmetric
        integ = np.zeros((degree + 1, 130), complex)
        integ[:, :degree + 2] = coef @ np.polynomial.chebyshev.chebint(np.eye(degree + 1), lbnd=-1).T
        new = slice(0, None, step) if degree == 32 else slice(step, None, 2 * step)
        levels.append((new, u_all[new], slice(0, None, step), 1.0 / -np.diff(u_all[::step]),
                       coef[:, 3 * degree // 4:].astype(complex), integ,
                       np.where(k % 2, 0.0, 2.0 / np.maximum(k * k - 1.0, 1.0))[3 * degree // 4:]))
    return levels


def _per_task(rows, v, m):
    """v @ m, one product per task's rows (axis 1 of v): BLAS rounds a row by its place in a product."""
    if rows[0] == rows[-1]:
        return v @ m
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    return np.concatenate([v[:, p:q] @ m for p, q in zip(first, np.append(first[1:], rows.size))], axis=1)


def cell_fits(fn, rows, a, b, decay=(0.0,)):
    """Chebyshev fits of the components g_c = e^(decay[c] (xi - end)) fn(rows, xi)[c]
    of one integrand on the cells [a[k], b[k]] of the tasks rows[k], for
    many tasks at once (rows sorted); end is b for a decay with its sign bit
    clear and a for one with it set, so each weight is at most 1.

    fn gets the task of each cell and its points (one row per cell) and
    returns real or complex samples of shape (components, cells, points)
    (or (cells, points) for one component).  Each cell is sampled at degree
    32, 64, then 128 (Trefethen, "Approximation Theory and Approximation
    Practice", SIAM 2013, ch. 19); a component chops at the first degree
    whose last quarter of coefficients is within _CHOP_TOL of its own scale
    (its largest sample, or its parent cell's) plus its own rounding floor
    4 eps (scale + reach max |g'|), nodes xi being rounded by eps |xi| for
    reach the task's largest |xi|, and _NORMAL.  A cell closes when every
    component chops, and is halved otherwise.  A task gives up when a cell
    is open after _MAX_SPLITS halvings or more than _MAX_OPEN of its cells
    are open, and at once when a sample is not finite.  Whole tasks go
    through in groups of about _BLOCK start cells, and fn gets at most
    _BLOCK cells a call.

    Yields (rows, a, half, d, err, chopped) for the cells that close at each
    degree: d[k, c] holds the 130 Chebyshev coefficients of component c's
    integral over cell k, from u = -1, or for a decay with its sign bit set
    (-0.0 too) from u = 1 in the variable -u, so that each integral runs the
    way its weight grows; err[k, c] = half sum |c_k| |int T_k| over the last
    quarter; chopped is False where the task gave up (with its degree-128
    fits, or the nan of a non-finite sample).  A task's cells meet the
    products and the output in an order of their own, so its results depend
    neither on the other tasks nor on their order.
    """
    decay = np.asarray(decay, dtype=float)[:, None, None]
    back = np.signbit(decay)
    steps = [(new, u, decay * u - np.abs(decay), *rest) for new, u, *rest in _levels()]
    reach = np.zeros(rows[-1] + 1)
    np.maximum.at(reach, rows, np.maximum(np.abs(a), np.abs(b)))
    groups = [0]
    if rows.size > _BLOCK:
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        groups = first[np.diff(first // _BLOCK, prepend=-1) > 0]
    for s, e in zip(groups, [*groups[1:], rows.size]):
        r, lo, hi, sc = rows[s:e], a[s:e], b[s:e], np.zeros((decay.size, e - s))
        for depth in range(_MAX_SPLITS + 1):
            vals, mid, half = np.zeros((decay.size, r.size, 129), complex), 0.5 * (lo + hi), 0.5 * (hi - lo)
            for last, (new, u, rate, cols, inv_du, tail, integ, weight) in zip((False, False, True), steps):
                for k in range(0, r.size, _BLOCK):
                    c, h = slice(k, k + _BLOCK), half[k:k + _BLOCK, None]
                    vals[:, c, new] = fn(r[c], mid[c, None] + h * u) * np.exp(h * rate)
                v = vals[:, :, cols]
                sc = np.maximum(sc, np.abs(v).max(axis=2))
                slope = (np.abs(np.diff(v, axis=2)) * inv_du).max(axis=2)
                floor = 4.0 * _EPS * (sc + reach[r] / half * slope) + _NORMAL
                coef = np.abs(_per_task(r, v, tail))
                chop = (coef.max(axis=2) <= _CHOP_TOL * sc + floor).all(axis=0)
                bad = ~np.isfinite(sc).all(axis=0)
                dead = np.isin(r, r[bad]) if bad.any() else bad  # a non-finite sample closes its task
                close = chop | bad
                if last and (depth == _MAX_SPLITS or r.size > _MAX_OPEN):
                    count = np.bincount(r[~close & ~dead], minlength=r[-1] + 1)
                    close |= ~dead & ((depth == _MAX_SPLITS) | (count[r] > _MAX_OPEN))
                if close.any():
                    vc = v[:, close]
                    d = _per_task(r[close], np.where(back, vc[:, :, ::-1], vc), integ)
                    yield (r[close], lo[close], half[close], d.transpose(1, 0, 2),
                           half[close, None] * (coef[:, close] * weight).sum(axis=2).T, chop[close])
                keep = ~(close | dead)
                r, lo, hi, mid, half = (arr[keep] for arr in (r, lo, hi, mid, half))
                sc, vals = sc[:, keep], vals[:, keep]
                if not r.size:
                    break
            if not r.size:
                break
            order = np.argsort(np.concatenate([r, r]), kind="stable") if r[0] != r[-1] else slice(None)
            r, lo, hi = (np.concatenate(pair)[order] for pair in ((r, r), (lo, mid), (mid, hi)))
            sc = np.concatenate((sc, sc), axis=1)[:, order]


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
    f = (hi - lo) * w * profile.interior(xi)  # every node lies strictly inside the support
    terms = np.exp(p[:, None] * np.log(xi) - (xi**2 / (4.0 * t) + shift[:, None])) * f
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


def heat_rows(nu, n, t, xs, profile, rel_tol):
    """Mode integral of p_nu(t, x, xi) f(xi) xi^n over the support [lo, hi]
    of the source profile f at every eval point x of xs, to rel_tol.

    A point with z = x hi / (4t) <= _SERIES_Z takes heat_series when its
    value is above _TINY and its error estimate meets rel_tol; it reports
    0 Bessel nodes.  Every other point goes to heat_quadrature, and only
    then is scipy.special imported.

    Returns (values, error_estimates, bessel_nodes, converged_flags); a
    point's results do not depend on the order of xs or on the other points.
    """
    nu, n, t, rel_tol = float(nu), float(n), float(t), float(rel_tol)
    xs = np.asarray(xs, dtype=np.float64)
    value, err, nodes = np.zeros(xs.size), np.zeros(xs.size), np.zeros(xs.size, np.int64)
    near = xs * float(profile.hi) / (4.0 * t) <= _SERIES_Z
    if near.any():
        value[near], err[near] = heat_series(nu, n, t, xs[near], profile)
    ok = (value >= _TINY) & (err <= rel_tol * value)
    rest = ~ok
    if rest.any():
        value[rest], err[rest], nodes[rest], ok[rest] = heat_quadrature(nu, n, t, xs[rest], profile, rel_tol)
    return value, err, nodes, ok


def heat_quadrature(nu, n, t, xs, profile, rel_tol):
    """heat_rows by cell_fits alone, for every point of xs.

    Each point's integrand interior(xi) p_nu(t, x, xi) xi^n is one task.  Its
    start cells cut the support into 5 equal cells, and at x and
    x +- 2 sqrt(t) {2, 4, 6, 9, 14, 27}, and a gaussian's at its centre and
    28 widths either side, so no sample set misses the kernel's peak or the
    source's.  Its value sums its cells' integrals and its error estimate
    their err (see ``cell_fits``); it has converged when no fit gave up and
    that estimate is within rel_tol of the value.  The estimate counts the
    fits' truncation, not the rounding of the samples (the exponent of the
    kernel's Gaussian, a narrow gaussian's (xi - c)/w), so a rel_tol near
    1e-14 can be flagged converged where the value is not that accurate.
    A point whose value is subnormal (its samples are too) reads 0,
    converged, and one with a non-finite sample reads nan.

    Returns (values, error_estimates, bessel_nodes, converged_flags).
    """
    nu, n, t, rel_tol = float(nu), float(n), float(t), float(rel_tol)
    xs = np.asarray(xs, dtype=np.float64)
    from scipy.special import ive
    nodes = np.zeros(xs.size, np.int64)

    def integrand(rows, xi):
        x = xs[rows, None]
        w = x * xi / (2.0 * t)
        kern = (x * xi) ** (0.5 * (1.0 - n)) / (2.0 * t) * np.exp(-((x - xi) ** 2) / (4.0 * t)) * ive(nu, w)
        np.add.at(nodes, rows, xi.shape[1])
        return profile.interior(xi) * kern * xi**n

    lo, hi = float(profile.lo), float(profile.hi)
    marks = np.linspace(lo, hi, 6)
    if profile.shape == "gaussian":
        marks = np.append(marks, profile.center + 28.0 * profile.width * np.array([-1.0, 0.0, 1.0]))
    cuts = np.concatenate([np.broadcast_to(marks, (xs.size, marks.size)),
                           xs[:, None] + 2.0 * math.sqrt(t) * _KERNEL_CUTS], axis=1)
    cuts = np.sort(np.clip(cuts, lo, hi), axis=1)
    wide = cuts[:, 1:] > cuts[:, :-1]
    rows = np.broadcast_to(np.arange(xs.size)[:, None], wide.shape)[wide]
    value, err, ok = np.zeros(xs.size), np.zeros(xs.size), np.ones(xs.size, bool)
    for r, _, half, d, e, chopped in cell_fits(integrand, rows, cuts[:, :-1][wide], cuts[:, 1:][wide]):
        np.add.at(value, r, half * d[:, 0].sum(axis=1).real)
        np.add.at(err, r, e[:, 0])
        ok[r[~chopped]] = False
    value, err = (np.where(np.abs(value) < _NORMAL, 0.0, arr) for arr in (value, err))
    return value, err, nodes, ok & (err <= rel_tol * np.abs(value))
