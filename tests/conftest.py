import math
from fractions import Fraction

import pytest

from coneasym import acceptance
from coneasym.conesolve import RadialProfile
from coneasym.spectra import circle_spectrum, sphere_spectrum


@pytest.fixture(scope="session")
def corpus():
    return acceptance.corpus()


@pytest.fixture(scope="session")
def circle_half():
    return circle_spectrum(radius=Fraction(1, 2), j_max=8)


@pytest.fixture(scope="session")
def sphere2():
    return sphere_spectrum(2, 14)


@pytest.fixture(scope="session")
def sphere3():
    return sphere_spectrum(3, 14)


@pytest.fixture(scope="session")
def bump12():
    return RadialProfile("bump", 1.0, 2.0)


def _ive_series(nu, z):
    """e^(-z) I_nu(z) by the ascending series, summed outward from its
    largest term: the central index m* solves (m+1)(nu+m+1) = (z/2)^2, its
    term is formed with lgamma in log space, and both sweeps add positive,
    decreasing terms."""
    half = 0.5 * z
    q = half * half
    mstar = max(0, int(0.5 * (math.sqrt(nu * nu + 4.0 * q) - (nu + 2.0))))
    logt = (nu + 2.0 * mstar) * math.log(half) - math.lgamma(mstar + 1.0) - math.lgamma(nu + mstar + 1.0) - z
    if logt < -745.0:  # exp underflows to 0
        return 0.0
    total = t = t0 = math.exp(logt)
    m = mstar
    while True:
        m += 1
        t *= q / (m * (nu + m))
        total += t
        if t <= total * 1e-17:
            break
    t, m = t0, mstar
    while m > 0:
        t *= m * (nu + m) / q
        total += t
        m -= 1
        if t <= total * 1e-17:
            break
    return total


def _ive_asym(nu, z):
    """e^(-z) I_nu(z) by the large-argument expansion
    (2 pi z)^(-1/2) sum_m (-1)^m a_m(nu) / z^m,
    a_m = prod_{i<=m} (4 nu^2 - (2i-1)^2) / (8 i), where it settles below
    1e-17 before its terms turn."""
    fournu2 = 4.0 * nu * nu
    term = total = 1.0
    for m in range(1, 41):
        odd = 2.0 * m - 1.0
        term *= -(fournu2 - odd * odd) / (8.0 * m * z)
        total += term
        if abs(term) <= abs(total) * 1e-17:
            break
    return total / math.sqrt(2.0 * math.pi * z)


def _ive(nu, z):
    nu, z = float(nu), float(z)
    if z >= 40.0 and z >= 1.6 * nu * nu + 25.0:
        return _ive_asym(nu, z)
    return _ive_series(nu, z)


@pytest.fixture(scope="session")
def ive_oracle():
    """Scaled e^(-z) I_nu(z) for real nu >= 0, z > 0 in plain Python: an
    oracle independent of scipy."""
    return _ive
