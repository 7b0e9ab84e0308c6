"""Low-level numerical kernels.

Scaled modified Bessel function of the first kind, the model-cone heat
kernel built from it, and the one Gauss-Legendre quadrature engine that
every integral in the package goes through: a 16-point panel rule, a
depth-first adaptive bisection and a fixed-panel sum.  The heat sweep
evaluates each panel with ``scipy.special.ive`` on all 16 nodes at once;
the scalar series/asymptotic ``ive`` below is the independent oracle that
the Bessel wrappers and the acceptance criteria compare against.

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
from scipy import special as _sp

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# exp underflows to 0 below this; the scaled series start is formed in
# log space so the check is exact.
_LOG_TINY = -745.0


def gl_panel(fn, a, b):
    """16-point Gauss-Legendre estimate of the integral of fn on [a, b].

    fn maps an array of nodes to real or complex values; the estimate is a
    Python float or complex accordingly.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return h * np.sum(_GL_WEIGHTS * fn(c + h * _GL_NODES)).item()


def gl_sum(fn, edges):
    """Sum of 16-point panels of fn over consecutive edges (fixed panels)."""
    return sum(gl_panel(fn, a, b) for a, b in zip(edges[:-1], edges[1:]))


def adaptive(fn, a, b, abs_tol, max_depth, whole):
    """Adaptive bisection of fn on [a, b] by local error control (Gander &
    Gautschi, "Adaptive quadrature - revisited", BIT 40, 2000).

    A panel is accepted when its estimate and the sum over its two halves
    differ by at most abs_tol times its share of the width of [a, b], or
    when it sits max_depth bisections deep.  whole is gl_panel(fn, a, b),
    which callers already hold because it sets the scale of abs_tol.  The
    stack is depth-first, so it never holds more than max_depth + 1 entries.

    Returns (value, error_estimate, panel_count, converged).
    """
    stack = [(a, b, whole, 0)]
    width0 = b - a
    total = 0.0
    err = 0.0
    panels = 0
    ok = True
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = gl_panel(fn, lo, mid)
        right = gl_panel(fn, mid, hi)
        e = abs(coarse - (left + right))
        budget = abs_tol * (hi - lo) / width0
        if e <= budget or depth >= max_depth:
            if e > budget:
                ok = False
            total += left + right
            err += e
            panels += 2
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total, err, panels, ok


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


def _ive_scalar(nu, z):
    """Scaled modified Bessel e^(-z) I_nu(z) for real nu >= 0, z > 0."""
    if z >= 40.0 and z >= 1.6 * nu * nu + 25.0:
        return _ive_asym(nu, z)
    return _ive_series(nu, z)


def _heat_kernel_scalar(nu, n, t, x, xi):
    """Heat kernel p_nu(t, x, xi), overflow-safe scaled evaluation."""
    w = x * xi / (2.0 * t)
    d = x - xi
    pref = (x * xi) ** (0.5 * (1.0 - n)) / (2.0 * t)
    return pref * math.exp(-d * d / (4.0 * t)) * _ive_scalar(nu, w)


def ive_native(nu: float, z: float) -> float:
    """Native scaled I: series/asymptotic split in plain Python."""
    return _ive_scalar(float(nu), float(z))


def heat_kernel_value(nu: float, n: int, t: float, x: float, xi: float) -> float:
    """p_nu(t, x, xi) through the scalar kernel."""
    return _heat_kernel_scalar(float(nu), float(n), float(t), float(x), float(xi))


def _heat_value(nu, n, t, x, profile, rel_tol, max_depth):
    """Mode integral of p_nu(t, x, xi) f(xi) xi^n over the support of f, to
    relative tolerance rel_tol.

    A coarse whole-support panel fixes the magnitude scale (the integrand
    is nonnegative, so the scale cannot collapse by cancellation); a second
    sweep with a tightened budget runs only if the first misses.
    """

    def integrand(xi):
        w = x * xi / (2.0 * t)
        kern = (
            (x * xi) ** (0.5 * (1.0 - n))
            / (2.0 * t)
            * np.exp(-((x - xi) ** 2) / (4.0 * t))
            * _sp.ive(nu, w)
        )
        return profile(xi) * kern * xi**n

    lo, hi = profile.lo, profile.hi
    whole = gl_panel(integrand, lo, hi)
    scale = abs(whole)
    if scale == 0.0:
        scale = 1e-300
    value, err, panels, ok = adaptive(integrand, lo, hi, 0.5 * rel_tol * scale, max_depth, whole)
    if ok and err <= rel_tol * abs(value):
        return value, err, panels, True
    value2, err2, panels2, ok2 = adaptive(
        integrand, lo, hi, 0.3 * rel_tol * max(abs(value), 1e-300), max_depth, whole
    )
    return value2, err2, panels + panels2, ok2 and err2 <= rel_tol * abs(value2)


def heat_rows(nu, n, t, xs, profile, rel_tol, max_depth):
    """Mode integral along an array of eval points for the source profile
    (a callable with support attributes ``lo`` and ``hi``).

    Returns (values, error_estimates, panel_counts, converged_flags); the
    per-point results do not depend on the order of xs.
    """
    nu, n, t, rel_tol, max_depth = float(nu), float(n), float(t), float(rel_tol), int(max_depth)
    xs = np.asarray(xs, dtype=np.float64)
    out_val = np.empty(xs.shape[0])
    out_err = np.empty(xs.shape[0])
    out_panels = np.empty(xs.shape[0], np.int64)
    out_ok = np.empty(xs.shape[0], np.bool_)
    for i, x in enumerate(xs):
        out_val[i], out_err[i], out_panels[i], out_ok[i] = _heat_value(
            nu, n, t, float(x), profile, rel_tol, max_depth
        )
    return out_val, out_err, out_panels, out_ok
