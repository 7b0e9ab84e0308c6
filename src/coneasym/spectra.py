"""Cross-section spectra.

A cross section is described by the nonpositive eigenvalues of its
Laplacian, listed strictly decreasing starting from 0, together with their
multiplicities.  Rational eigenvalues stay exact Fractions and are judged
exactly; any other value becomes a float and is judged with the 1e-12
tolerance of ``indicial.TOL``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadMultiplicity, NonZeroTop, NotDecreasing, PositiveEigenvalue
from .indicial import TOL, exact_or_float, less, same


@dataclass(frozen=True)
class CrossSection:
    """Spectrum data of an (n)-dimensional cross section.

    The cone over it has dimension n+1.  ``eigenvalues`` are 0 = lam_0 >
    lam_1 > ... (exact Fractions or floats), ``multiplicities`` the matching
    positive integer counts.
    """

    n: int
    name: str
    eigenvalues: tuple
    multiplicities: tuple

    def __post_init__(self):
        _validate(self.n, self.eigenvalues, self.multiplicities)

    @property
    def lambda1(self):
        """First nonzero eigenvalue, or None if only lam_0 was given."""
        return self.eigenvalues[1] if len(self.eigenvalues) > 1 else None


def require_dimension(n):
    """BadMultiplicity unless the cross-section dimension n is a positive integer (not a bool)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadMultiplicity(f"cross-section dimension must be a positive integer, got {n!r}")


def _validate(n, eigenvalues, multiplicities):
    require_dimension(n)
    if len(eigenvalues) != len(multiplicities) or not eigenvalues:
        raise BadMultiplicity("eigenvalues and multiplicities must have equal nonzero length")
    for m in multiplicities:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise BadMultiplicity(f"multiplicities must be positive integers, got {m!r}")
    top = eigenvalues[0]
    if not same(top, 0, TOL):
        raise NonZeroTop(f"top eigenvalue must be 0, got {top!r}")
    if multiplicities[0] != 1:
        raise NonZeroTop("the zero eigenvalue must be simple")
    for lam in eigenvalues[1:]:
        if less(0, lam):
            raise PositiveEigenvalue(f"eigenvalue {lam!r} is positive")
    for prev, cur in zip(eigenvalues, eigenvalues[1:]):
        if not less(cur, prev):
            raise NotDecreasing(f"eigenvalues not strictly decreasing at {cur!r}")


def custom_spectrum(n: int, pairs, name: str = "custom") -> CrossSection:
    """Build a CrossSection from (eigenvalue, multiplicity) pairs.

    Rational eigenvalues (int, Fraction) are kept exact; a float equal to 0
    within 1e-12 is snapped to exact 0.
    """
    eigenvalues = []
    multiplicities = []
    for lam, mult in pairs:
        (lam,) = exact_or_float(lam)
        eigenvalues.append(Fraction(0) if same(lam, 0, TOL) else lam)
        multiplicities.append(mult)
    return CrossSection(n, name, tuple(eigenvalues), tuple(multiplicities))


def harmonic_multiplicity(n: int, j: int) -> int:
    """Dimension of degree-j spherical harmonics in n+1 ambient variables."""
    if j == 0:
        return 1
    total = math.comb(n + j, n)
    lower = math.comb(n + j - 2, n) if n + j - 2 >= n else 0
    return total - lower


def sphere_spectrum(n: int, j_max: int) -> CrossSection:
    """Round unit n-sphere: lam_j = -j(j+n-1) with harmonic multiplicities."""
    require_dimension(n)
    pairs = [(Fraction(-j * (j + n - 1)), harmonic_multiplicity(n, j)) for j in range(j_max + 1)]
    return custom_spectrum(n, pairs, name=f"s{n}")


def circle_spectrum(radius=None, j_max: int = 8, *, radius_squared=None) -> CrossSection:
    """Circle of given radius: lam_j = -(j/r)^2, each simple except lam_0.

    Passing radius_squared as a rational keeps the eigenvalues exact even
    when the radius itself is irrational (e.g. r = 1/sqrt(2), r^2 = 1/2).
    """
    if (radius is None) == (radius_squared is None):
        raise BadMultiplicity("give exactly one of radius or radius_squared")
    (r,) = exact_or_float(radius if radius_squared is None else radius_squared)
    if not (r > 0 and math.isfinite(r)):  # an infinite radius would make every -(j/r)^2 zero
        raise BadMultiplicity("radius must be finite and positive")
    r2 = r ** 2 if radius_squared is None else r
    pairs = [(-(j * j) / r2, 1 if j == 0 else 2) for j in range(j_max + 1)]
    return custom_spectrum(1, pairs, name="circle")
