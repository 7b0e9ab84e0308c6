"""Low-level numerical kernels.

Scaled modified Bessel function of the first kind, the model-cone heat
kernel built from it, and the one Gauss-Legendre quadrature engine that
every integral in the package goes through: a 16-point rule on many
panels at once, in blocks of at most _BLOCK panels per integrand call; an
adaptive bisection whose breadth-first frontier refines every live panel
of every task in one such call per level; and a fixed-panel sum.  The heat
sweep evaluates each level with one ``scipy.special.ive`` call; the scalar
series/asymptotic ``ive`` below is the independent oracle that the Bessel
wrappers and the acceptance criteria compare against.  scipy.special is
imported on the first ``heat_rows`` call, not with this module, so the
exact-algebra commands start without it.

Notation: the mode operator on the model cone of dimension n+1 is

    L = d^2/dx^2 + (n/x) d/dx + lambda / x^2,   nu^2 = ((n-1)/2)^2 - lambda,

and its heat kernel with respect to the measure xi^n dxi is

    p_nu(t, x, xi) = (x xi)^((1-n)/2) (2t)^(-1)
                     * exp(-(x^2 + xi^2) / (4t)) * I_nu(x xi / (2t)).

The exponentially scaled form used throughout multiplies by
exp(-(x-xi)^2/(4t)) and e^(-w) I_nu(w), w = x xi/(2t), so no intermediate
overflows for any (t, x, xi) in range.
"""

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Most panels in one integrand call: bounds the (panels x 16) node
# temporaries.
_BLOCK = 512

# exp underflows to 0 below this; the scaled series start is formed in
# log space so the check is exact.
_LOG_TINY = -745.0


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


def gl_sum(fn, edges):
    """Sum of 16-point panels of fn(nodes) over consecutive edges (fixed panels)."""
    panels = gl_panels(lambda _, nodes: fn(nodes), np.zeros(edges.size - 1, int), edges[:-1], edges[1:])
    return sum(panels.tolist())


def adaptive(fn, a, b, whole, abs_tol, max_depth):
    """Adaptive bisection of fn on [a[i], b[i]] for every task i at once, by
    local error control (Gander & Gautschi, "Adaptive quadrature -
    revisited", BIT 40, 2000).

    A panel is accepted when its estimate and the sum over its two halves
    differ by at most abs_tol[i] times its share of the width of [a[i],
    b[i]], or when it sits max_depth bisections deep.  whole[i] is the
    one-panel estimate on [a[i], b[i]], which sets the scale of abs_tol.
    The frontier is breadth-first: one gl_panels call halves every live
    panel of every task.  Each task sums its accepted panels right to
    left, as a depth-first bisection would, so its result depends neither
    on the other tasks nor on the order in which panels are visited.

    Returns arrays (value, error_estimate, panel_count, converged).
    """
    a, b, whole, abs_tol = np.broadcast_arrays(a, b, whole, abs_tol)
    ok = np.ones(a.size, bool)
    rows, lo, hi, coarse = np.arange(a.size), a, b, whole
    accepted = [(rows[:0], lo[:0], whole[:0], lo[:0])]  # (task, lo, estimate, error) per level
    depth = 0
    while rows.size:
        mid = 0.5 * (lo + hi)
        halves = gl_panels(fn, np.tile(rows, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[:rows.size], halves[rows.size:]
        pair = left + right
        e = np.abs(coarse - pair)
        budget = abs_tol[rows] * (hi - lo) / (b - a)[rows]
        done = (e <= budget) | (depth >= max_depth)
        accepted.append((rows[done], lo[done], pair[done], e[done]))
        ok[rows[done & (e > budget)]] = False
        live = ~done
        rows, coarse = np.tile(rows[live], 2), np.concatenate([left[live], right[live]])
        lo, hi = np.concatenate([lo[live], mid[live]]), np.concatenate([mid[live], hi[live]])
        depth += 1
    rows, lo, pair, e = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.lexsort((-lo, rows))
    value, err = np.zeros(a.size, whole.dtype), np.zeros(a.size)
    np.add.at(value, rows[order], pair[order])
    np.add.at(err, rows[order], e[order])
    return value, err, 2 * np.bincount(rows, minlength=a.size), ok


def _ive_series(nu, z):
    """e^(-z) I_nu(z) by the ascending series, summed outward from its
    largest term.

    The central index m* solves (m+1)(nu+m+1) = (z/2)^2; the term there is
    formed with lgamma in log space, so the start never overflows, and the
    two sweeps away from m* add strictly positive, decreasing terms (no
    cancellation for real z >= 0).
    """
    half = 0.5 * z
    q = half * half
    m0 = 0.5 * (math.sqrt(nu * nu + 4.0 * q) - (nu + 2.0))
    mstar = 0
    if m0 > 0.0:
        mstar = int(m0)
    logt = (
        (nu + 2.0 * mstar) * math.log(half)
        - math.lgamma(mstar + 1.0)
        - math.lgamma(nu + mstar + 1.0)
        - z
    )
    if logt < _LOG_TINY:
        return 0.0
    t0 = math.exp(logt)
    total = t0
    t = t0
    m = mstar
    while m < mstar + 1000000:
        m += 1
        t *= q / (m * (nu + m))
        total += t
        if t <= total * 1e-17:
            break
    t = t0
    m = mstar
    while m > 0:
        t *= m * (nu + m) / q
        total += t
        m -= 1
        if t <= total * 1e-17:
            break
    return total


def _ive_asym(nu, z):
    """e^(-z) I_nu(z) by the large-argument expansion

    (2 pi z)^(-1/2) * sum_m (-1)^m a_m(nu) / z^m,
    a_m = prod_{i=1..m} (4 nu^2 - (2i-1)^2) / (8 i).

    Valid only where the series has settled below 1e-15 before its terms
    turn; the dispatcher guarantees that region.
    """
    fournu2 = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    m = 0
    while m < 40:
        m += 1
        odd = 2.0 * m - 1.0
        term *= -(fournu2 - odd * odd) / (8.0 * m * z)
        total += term
        if abs(term) <= abs(total) * 1e-17:
            break
    return total / math.sqrt(2.0 * math.pi * z)


def ive_native(nu: float, z: float) -> float:
    """Scaled modified Bessel e^(-z) I_nu(z) for real nu >= 0, z > 0, by the
    series/asymptotic split in plain Python."""
    nu, z = float(nu), float(z)
    if z >= 40.0 and z >= 1.6 * nu * nu + 25.0:
        return _ive_asym(nu, z)
    return _ive_series(nu, z)


def heat_kernel_value(nu: float, n: int, t: float, x: float, xi: float) -> float:
    """Heat kernel p_nu(t, x, xi) through the scalar ive, overflow-safe."""
    nu, n, t, x, xi = float(nu), float(n), float(t), float(x), float(xi)
    d = x - xi
    pref = (x * xi) ** (0.5 * (1.0 - n)) / (2.0 * t)
    return pref * math.exp(-d * d / (4.0 * t)) * ive_native(nu, x * xi / (2.0 * t))


def heat_rows(nu, n, t, xs, profile, rel_tol, max_depth):
    """Mode integral of p_nu(t, x, xi) f(xi) xi^n over the support [lo, hi]
    of the source profile f at every eval point x of xs, to rel_tol.

    All points refine together on one breadth-first frontier.  A coarse
    whole-support panel fixes each point's magnitude scale (the integrand
    is nonnegative, so the scale cannot collapse by cancellation); a second
    sweep with a tightened budget runs only on the points the first missed.

    Returns (values, error_estimates, panel_counts, converged_flags); the
    per-point results do not depend on the order of xs or on the other
    points.
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
    whole = gl_panels(integrand, np.arange(xs.size), lo, hi)
    scale = np.where(whole == 0.0, 1e-300, np.abs(whole))
    value, err, panels, ok = adaptive(integrand, lo, hi, whole, 0.5 * rel_tol * scale, max_depth)
    miss = np.flatnonzero(~(ok & (err <= rel_tol * np.abs(value))))
    if miss.size:
        value2, err2, panels2, ok2 = adaptive(
            lambda rows, xi: integrand(miss[rows], xi), lo[miss], hi[miss], whole[miss],
            0.3 * rel_tol * np.maximum(np.abs(value[miss]), 1e-300), max_depth,
        )
        value[miss], err[miss] = value2, err2
        panels[miss] += panels2
        ok[miss] = ok2 & (err2 <= rel_tol * np.abs(value2))
    return value, err, panels, ok
