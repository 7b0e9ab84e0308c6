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

from .errors import WindowViolation
from .indicial import exact_or_float, indicial_roots, less


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
            if not less(lambda1, Fraction(n - 1, 2) ** 2 - 1):
                return None
        nu1 = indicial_roots(n, lambda1).nu
        lo = max(lo, 1 - nu1, key=float)
        hi = min(hi, nu1 - 1, key=float)
    if not less(lo, hi):
        return None
    return (lo, hi)


def gamma_inside(window, gamma) -> bool:
    lo, hi = window
    return less(lo, gamma) and less(gamma, hi)


def require_window(cross_section, gamma=None):
    """The admissible window of the cross-section; WindowViolation when it
    is empty or, given gamma, when gamma is not inside it."""
    window = admissible_window(cross_section.n, cross_section.lambda1)
    if window is None:
        raise WindowViolation("admissible weight window is empty for this spectrum")
    if gamma is not None and not gamma_inside(window, gamma):
        raise WindowViolation(
            f"gamma={float(gamma)} outside the admissible window "
            f"({float(window[0])}, {float(window[1])})"
        )
    return window


def window_midpoint(window):
    lo, hi = exact_or_float(*window)
    return (lo + hi) / 2


def locate_interval(n: int, gamma, x):
    """Index m with x in J_m, or None when x >= (n+1)/2 - gamma."""
    top, gamma, x = exact_or_float(Fraction(n + 1, 2), gamma, x)
    m = math.ceil((top - gamma - x) / 2)
    return m if m >= 1 else None


def boundary_distance(n: int, gamma, x) -> float:
    """Distance from x to the nearest tile boundary (n+1)/2 - gamma - 2m."""
    top = 0.5 * (n + 1) - float(gamma)
    frac = (top - float(x)) / 2.0
    return 2.0 * abs(frac - round(frac))
