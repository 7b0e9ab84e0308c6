"""Indicial roots and conormal symbols of the cone Laplacian.

Restricted to a single cross-section mode with eigenvalue lam, the
Mellin (conormal) symbol of the Laplacian is the quadratic

    sigma(z) = z^2 - (n-1) z + lam,

whose roots are the indicial pair

    q^{+/-} = (n-1)/2 +/- sqrt(((n-1)/2)^2 - lam),

so q^- + q^+ = n-1 and q^- q^+ = lam.  The symbol of the k-th power
composes with unit shifts of 2:

    sigma_k(z) = sigma(z) sigma(z+2) ... sigma(z+2(k-1)).

Poles of the inverted symbol (locations q_j^{+/-} - 2i) drive the
asymptotic templates; their order is the maximum over modes of the scalar
root multiplicity.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import PositiveEigenvalue

# The number policy: values stay exact Fractions while every input is
# rational, and become floats otherwise.  Float comparisons allow TOL;
# float locations and exponents merge within MERGE_TOL.
TOL = 1e-12
MERGE_TOL = 1e-9


def exact_or_float(*values) -> tuple:
    """The values as Fractions when all are rational, else as floats.

    A numpy integer becomes a Fraction of Python ints, which cannot overflow.
    """
    exact = []
    for v in values:
        if isinstance(v, Fraction):
            exact.append(v)
        elif isinstance(v, Rational):
            exact.append(Fraction(int(v.numerator), int(v.denominator)))
        else:
            return tuple(map(float, values))
    return tuple(exact)


def less(a, b) -> bool:
    """a < b: exact for two rationals, else a float comparison with margin TOL."""
    if isinstance(a, Rational) and isinstance(b, Rational):
        return a < b
    return float(a) < float(b) - TOL


def same(a, b, tol) -> bool:
    """a == b: exact for two rationals, else floats within tol."""
    if isinstance(a, Rational) and isinstance(b, Rational):
        return a == b
    return abs(float(a) - float(b)) <= tol


def exact_sqrt(value: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


@dataclass(frozen=True)
class IndicialData:
    """Indicial pair of one mode; exact Fractions when constructible."""

    n: int
    lam: object
    nu: object
    mu: object
    q_minus: object
    q_plus: object


def indicial_roots(n: int, lam) -> IndicialData:
    """Indicial data of one mode: nu, mu = (n-1)/2 - nu, and q^{+/-}."""
    lam, half = exact_or_float(lam, Fraction(n - 1, 2))
    if less(0, lam):
        raise PositiveEigenvalue(f"eigenvalue {lam} is positive")
    disc = half * half - lam
    nu = exact_sqrt(disc) if isinstance(disc, Fraction) else None
    if nu is None:
        nu = math.sqrt(max(disc, 0.0))  # a float lam in (0, TOL] counts as zero
    q_minus = half - nu
    q_plus = half + nu
    return IndicialData(n=n, lam=lam, nu=nu, mu=q_minus, q_minus=q_minus, q_plus=q_plus)


def conormal_symbol(n: int, lam, z):
    """sigma(z) = z^2 - (n-1) z + lam; z may be complex."""
    return z * z - (n - 1) * z + lam


def conormal_poly_coeffs(n: int, lam, k: int) -> list:
    """Ascending coefficients of sigma_k, exact when lam is rational."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lam, one, zero = exact_or_float(lam, 1, 0)
    coeffs = [one]
    for i in range(k):
        const = 4 * i * i - 2 * i * (n - 1) + lam
        lin = 4 * i - (n - 1)
        factor = [const, lin, one]
        out = [zero] * (len(coeffs) + 2)
        for a, ca in enumerate(coeffs):
            for b, cb in enumerate(factor):
                out[a + b] += ca * cb
        coeffs = out
    return coeffs


def root_multiplicity(coeffs, z0) -> int:
    """Multiplicity of z0 as a root, by exact synthetic division.

    Requires rational coefficients and root; the factorization oracle for
    the composed symbol.
    """
    if not all(isinstance(c, Rational) for c in coeffs) or not isinstance(z0, Rational):
        raise TypeError("root_multiplicity requires exact rational input")
    coeffs = [Fraction(c) for c in coeffs]
    z0 = Fraction(z0)
    mult = 0
    while len(coeffs) > 1:
        # synthetic division by (z - z0); remainder is p(z0)
        degree = len(coeffs) - 1
        quotient = [Fraction(0)] * degree
        quotient[degree - 1] = coeffs[degree]
        for i in range(degree - 1, 0, -1):
            quotient[i - 1] = coeffs[i] + z0 * quotient[i]
        remainder = coeffs[0] + z0 * quotient[0]
        if remainder != 0:
            break
        mult += 1
        coeffs = quotient
    return mult


@dataclass(frozen=True)
class Pole:
    """One pole of the inverted composed symbol.

    ``provenance`` lists every (mode j, branch '+'/'-', shift 2i) that
    lands here; ``order`` is the max over modes of the per-mode root
    multiplicity; ``approximate`` marks a floating-point merge.
    """

    location: object
    order: int
    provenance: tuple
    approximate: bool = False


@dataclass(frozen=True)
class PoleSet:
    k: int
    poles: tuple


def pole_set(cross_section, k: int) -> PoleSet:
    """All poles q_j^{+/-} - 2i, i < k, grouped and ordered by location.

    Exact locations group exactly; float locations merge within 1e-9 and
    the pole is flagged approximate when the merged values were not
    identical.  Poles are listed with decreasing location (increasing
    candidate exponent -location).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = []  # (location, j, branch, shift, per-mode key)
    for j, lam in enumerate(cross_section.eigenvalues):
        data = indicial_roots(cross_section.n, lam)
        for i in range(k):
            entries.append((data.q_plus - 2 * i, j, "+", 2 * i))
            entries.append((data.q_minus - 2 * i, j, "-", 2 * i))
    poles = []
    for location, _, members, approximate in group_locations(entries):
        per_mode: dict[int, int] = {}
        for _, j, _, _ in members:
            per_mode[j] = per_mode.get(j, 0) + 1
        order = max(per_mode.values())
        provenance = tuple(sorted((j, branch, shift) for _, j, branch, shift in members))
        poles.append(Pole(location, order, provenance, approximate))
    poles.sort(key=lambda p: -float(p.location))
    return PoleSet(k=k, poles=tuple(poles))


def group_locations(entries):
    """Group (location, ...) tuples by location.

    Rationals group by exact equality; floats merge in sorted chains whose
    neighbours sit within 1e-9, and a rational group within 1e-9 of a
    float cluster's mean joins that cluster, which is then flagged
    approximate (as is a cluster of unequal floats).  Returns one
    (center, key, members, approximate) per group: key is the group's
    rational location (for a float cluster, the last rational that joined
    it, else None) and center is the float cluster's mean or the key.
    """
    exact: dict[Fraction, list] = {}
    inexact: list = []
    for entry in entries:
        loc = entry[0]
        if isinstance(loc, Rational):
            exact.setdefault(Fraction(loc), []).append(entry)
        else:
            inexact.append(entry)
    inexact.sort(key=lambda e: float(e[0]))
    clusters: list = []
    for entry in inexact:
        if clusters and not float(entry[0]) - float(clusters[-1][-1][0]) > MERGE_TOL:
            clusters[-1].append(entry)
        else:
            clusters.append([entry])
    groups = []
    for cluster in clusters:
        values = [float(e[0]) for e in cluster]
        center = sum(values) / len(values)
        key, approximate = None, max(values) > min(values)
        for k in [k for k in exact if abs(float(k) - center) <= MERGE_TOL]:
            cluster.extend(exact.pop(k))
            key, approximate = k, True
        groups.append((center, key, cluster, approximate))
    groups.extend((k, k, members, False) for k, members in exact.items())
    return groups
