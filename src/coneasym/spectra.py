"""Cross-section spectra.

A cross section is described by the nonpositive eigenvalues of its
Laplacian, listed strictly decreasing starting from 0, together with their
multiplicities.  Rational eigenvalues stay exact Fractions and are judged
exactly; any other value becomes a float and is judged with the 1e-12
tolerance of ``indicial.TOL``.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .errors import SpectrumError
from .indicial import TOL, exact_or_float, less, same


class CrossSection(namedtuple("CrossSection", "n name eigenvalues multiplicities")):
    """Spectrum data of an (n)-dimensional cross section.

    The cone over it has dimension n+1.  ``eigenvalues`` are 0 = lam_0 >
    lam_1 > ... (exact Fractions or finite floats), ``multiplicities`` the
    matching positive integer counts.  The constructor checks them (so
    build one by it, not by ``_make`` or ``_replace``).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _validate(self.n, self.eigenvalues, self.multiplicities)
        return self

    @property
    def lambda1(self):
        """First nonzero eigenvalue, or None if only lam_0 was given."""
        return self.eigenvalues[1] if len(self.eigenvalues) > 1 else None


def require_dimension(n):
    """SpectrumError unless the cross-section dimension n is a positive integer (not a bool)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpectrumError(f"cross-section dimension must be a positive integer, got {n!r}")


def _validate(n, eigenvalues, multiplicities):
    require_dimension(n)
    if len(eigenvalues) != len(multiplicities) or not eigenvalues:
        raise SpectrumError("eigenvalues and multiplicities must have equal nonzero length")
    for m in multiplicities:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise SpectrumError(f"multiplicities must be positive integers, got {m!r}")
    top = eigenvalues[0]
    if not same(top, 0, TOL):
        raise SpectrumError(f"top eigenvalue must be 0, got {top!r}")
    if multiplicities[0] != 1:
        raise SpectrumError("the zero eigenvalue must be simple")
    for lam in eigenvalues[1:]:
        if not -math.inf < lam < math.inf:  # not math.isfinite, which overflows on a huge Fraction
            raise SpectrumError(f"eigenvalue {lam!r} is not finite")
        if less(0, lam):
            raise SpectrumError(f"eigenvalue {lam!r} is positive")
    for prev, cur in zip(eigenvalues, eigenvalues[1:]):
        if not less(cur, prev):
            raise SpectrumError(f"eigenvalues not strictly decreasing at {cur!r}")


def custom_spectrum(n: int, eigenvalues, multiplicities, name: str = "custom") -> CrossSection:
    """Build a CrossSection from its eigenvalues and their multiplicities,
    two lists that CrossSection holds to equal length.

    Rational eigenvalues (int, Fraction) are kept exact; a float equal to 0
    within 1e-12 is snapped to exact 0.
    """
    eigenvalues = tuple(Fraction(0) if same(lam, 0, TOL) else lam for (lam,) in map(exact_or_float, eigenvalues))
    return CrossSection(n, name, eigenvalues, tuple(multiplicities))


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
    js = range(j_max + 1)
    return custom_spectrum(n, [Fraction(-j * (j + n - 1)) for j in js], [harmonic_multiplicity(n, j) for j in js],
                           name=f"s{n}")


def circle_spectrum(radius=None, j_max: int = 8, *, radius_squared=None) -> CrossSection:
    """Circle of given radius: lam_j = -(j/r)^2, each simple except lam_0.

    Passing radius_squared as a rational keeps the eigenvalues exact even
    when the radius itself is irrational (e.g. r = 1/sqrt(2), r^2 = 1/2).
    """
    if (radius is None) == (radius_squared is None):
        raise SpectrumError("give exactly one of radius or radius_squared")
    (r,) = exact_or_float(radius if radius_squared is None else radius_squared)
    try:  # a float radius past the double range squares to inf or 0
        r2 = r ** 2 if radius_squared is None else r
        first, last = -1 / r2, -(j_max * j_max) / r2
    except (OverflowError, ZeroDivisionError):
        first = last = math.nan
    # float eigenvalues -(j/r)^2 must be finite, and not 0 within TOL as a huge or infinite radius makes them
    if not (r > 0 and (isinstance(r, Fraction) or math.isfinite(last) and not same(first, 0, TOL))):
        raise SpectrumError(f"radius must be finite and positive, with -(j/r)^2 finite and nonzero in floats: "
                              f"got {'radius' if radius_squared is None else 'radius_squared'} {r}")
    return custom_spectrum(1, [-(j * j) / r2 for j in range(j_max + 1)], [1] + [2] * j_max, name="circle")
