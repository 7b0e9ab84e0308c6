"""Mellin-Sobolev weight bookkeeping.

The weight exponent gamma must sit in an admissible window determined by
the cone dimension n+1 and the first nonzero eigenvalue lambda_1.  The axis
below the reference level (n+1)/2 - gamma is tiled by half-open intervals
of length 2,

    J_m = [(n+1)/2 - gamma - 2m, (n+1)/2 - gamma - 2(m-1)),   m = 1, 2, ...

and a term omega x^a log^m x lies in H_p^{s,gamma} near the tip iff
a > gamma - (n+1)/2, regardless of the log power.
"""

import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from ._kernels import gl_sum
from .indicial import indicial_roots

_TOL = 1e-12


def admissible_window(n: int, lambda1=None):
    """Admissible open interval for gamma, or None when empty.

    With no lambda_1 provided the spectral constraints are vacuous and the
    basic bounds ((n-3)/2, (n+1)/2) apply.  For n <= 2 the window requires
    lambda_1 < ((n-1)/2)^2 - 1; for n >= 3 that inequality always holds.
    """
    lo = Fraction(n - 3, 2)
    hi = Fraction(n + 1, 2)
    if lambda1 is not None:
        if n <= 2:
            bound = Fraction(n - 1, 2) ** 2 - 1
            if isinstance(lambda1, Rational):
                if not Fraction(lambda1) < bound:
                    return None
            elif not float(lambda1) < float(bound) - _TOL:
                return None
        nu1 = indicial_roots(n, lambda1).nu
        lo = max(lo, 1 - nu1, key=float)
        hi = min(hi, nu1 - 1, key=float)
    if not float(lo) < float(hi) - _TOL:
        return None
    return (lo, hi)


def gamma_inside(window, gamma) -> bool:
    if window is None:
        return False
    lo, hi = window
    return float(lo) + _TOL < float(gamma) < float(hi) - _TOL


def window_midpoint(window):
    lo, hi = window
    if isinstance(lo, Rational) and isinstance(hi, Rational):
        return (Fraction(lo) + Fraction(hi)) / 2
    return 0.5 * (float(lo) + float(hi))


def locate_interval(n: int, gamma, x):
    """Index m with x in J_m, or None when x >= (n+1)/2 - gamma."""
    if isinstance(gamma, Rational) and isinstance(x, Rational):
        top = Fraction(n + 1, 2) - Fraction(gamma)
        m = math.ceil((top - Fraction(x)) / 2)
    else:
        top = 0.5 * (n + 1) - float(gamma)
        m = math.ceil((top - float(x)) / 2)
    return m if m >= 1 else None


def boundary_distance(n: int, gamma, x) -> float:
    """Distance from x to the nearest tile boundary (n+1)/2 - gamma - 2m."""
    top = 0.5 * (n + 1) - float(gamma)
    frac = (top - float(x)) / 2.0
    return 2.0 * abs(frac - round(frac))


def membership(n: int, gamma, a, log_power: int = 0) -> bool:
    """Whether omega x^a log^log_power x lies in H^{s,gamma} near the tip.

    Strict inequality a > gamma - (n+1)/2; log powers never matter.  Floats
    within 1e-12 of the boundary count as outside.
    """
    if log_power < 0:
        raise ValueError("log_power must be >= 0")
    if isinstance(a, Rational) and isinstance(gamma, Rational):
        return Fraction(a) > Fraction(gamma) - Fraction(n + 1, 2)
    return float(a) - (float(gamma) - 0.5 * (n + 1)) > _TOL


# ---------------------------------------------------------------------------
# Quadrature cross-check of the membership predicate: integrate the squared
# weighted profile on [eps, 1] for shrinking eps and classify convergence by
# comparing the increment ratio against the exact boundary-case ratio.
# ---------------------------------------------------------------------------

_EPS_LADDER = (1e-2, 1e-4, 1e-6)


def tail_norm_integral(n: int, gamma, a, log_power: int, eps: float) -> float:
    """integral_eps^1 of (x^((n+1)/2 - gamma + a) |log x|^log_power)^2 dx/x.

    Per-decade Gauss-Legendre panels; the integrand is smooth on each
    decade, so 16 points per panel are ample at these exponents.
    """
    two_delta = 2.0 * (0.5 * (n + 1) - float(gamma) + float(a))
    two_m = 2 * log_power
    edges = np.geomspace(eps, 1.0, max(2, int(round(-math.log10(eps))) * 8 + 1))
    return gl_sum(lambda x: x ** (two_delta - 1.0) * np.abs(np.log(x)) ** two_m, edges)


def quadrature_membership(n: int, gamma, a, log_power: int = 0) -> bool:
    """Membership verdict from quadrature alone (no use of the predicate).

    Computes I(eps) for eps = 1e-2, 1e-4, 1e-6 and the increment ratio
    r = (I3-I2)/(I2-I1).  On the boundary profile x^0 |log x|^m the exact
    ratio is (L3^q - L2^q)/(L2^q - L1^q) with q = 2m+1, L_i = log(1/eps_i);
    divergence (non-membership) is r at or above that boundary ratio.
    """
    i1, i2, i3 = (tail_norm_integral(n, gamma, a, log_power, e) for e in _EPS_LADDER)
    d21 = i2 - i1
    d32 = i3 - i2
    if d21 <= 0.0:
        return True
    q = 2 * log_power + 1
    ls = [math.log(1.0 / e) for e in _EPS_LADDER]
    boundary = (ls[2] ** q - ls[1] ** q) / (ls[1] ** q - ls[0] ** q)
    return bool((d32 / d21) < boundary)
