"""Scaled Bessel wrappers: closed forms and the Wronskian on the
resolvent's rays, domain checks, and the tests' plain-Python ive against
scipy."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from coneasym import besselkit
from coneasym.errors import DomainError

# arg sqrt(lam) on the resolvent's rays arg lam in {0, +-3pi/4}
RAYS = (0.0, 0.375 * math.pi, -0.375 * math.pi)


def test_native_ive_matches_scipy_on_grid(ive_oracle):
    """The dense heat oracle's plain-Python ive against scipy's."""
    orders = [0.0, 0.3, 1.0, 2.5, 7.0, 15.5, 33.0, 60.0]
    args = np.geomspace(1e-3, 1e4, 60)
    worst = 0.0
    for nu in orders:
        for z in args:
            ours = ive_oracle(nu, float(z))
            ref = float(sp.ive(nu, z))
            worst = max(worst, abs(ours - ref) / max(abs(ref), 1e-300))
    assert worst <= 1e-10


def test_bessel_i_small_argument():
    for theta in RAYS:
        z = 1e-8 * cmath.exp(1j * theta)
        assert abs(besselkit.bessel_i(0.0, z) - math.exp(-z.real)) < 1e-12
        # e^(-Re z) I_nu(z) ~ e^(-Re z) (z/2)^nu / Gamma(nu+1)
        z, nu = 1e-4 * cmath.exp(1j * theta), 2.0
        expected = math.exp(-z.real) * (z / 2.0) ** nu / math.gamma(nu + 1.0)
        assert abs(besselkit.bessel_i(nu, z) - expected) / abs(expected) < 1e-7


@pytest.mark.parametrize("z", [0.2, 1.0, 7.0, 50.0, 800.0])
def test_half_integer_closed_forms(z):
    """e^(-Re w) I_1/2(w) = sqrt(2/(pi w)) (e^(i Im w) - e^(-w - Re w))/2
    and e^w K_1/2(w) = sqrt(pi/(2w)) at w = z e^(i theta) on each ray,
    also past |w| = 709, where I itself overflows a double."""
    for theta in RAYS:
        w = z * cmath.exp(1j * theta)
        i_half = -cmath.sqrt(2.0 / (math.pi * w)) * cmath.exp(1j * w.imag) * np.expm1(-2.0 * w) / 2.0
        assert abs(besselkit.bessel_i(0.5, w) - i_half) <= 1e-11 * abs(i_half)
        k_half = cmath.sqrt(math.pi / (2.0 * w))
        assert abs(besselkit.bessel_k(0.5, w) - k_half) <= 1e-11 * abs(k_half)


@pytest.mark.parametrize("nu", [0.0, 1.5, 10.0, 40.0])
@pytest.mark.parametrize("z", [0.05, 1.0, 30.0, 2000.0])
def test_wronskian_identity(nu, z):
    """I_nu K_{nu+1} + I_{nu+1} K_nu = 1/w on each ray, via the scaled
    products, whose phase e^(i Im w) is taken back."""
    for theta in RAYS:
        w = z * cmath.exp(1j * theta)
        prod = besselkit.bessel_i(nu, w) * besselkit.bessel_k(nu + 1.0, w)
        prod += besselkit.bessel_i(nu + 1.0, w) * besselkit.bessel_k(nu, w)
        assert abs(w * prod * cmath.exp(-1j * w.imag) - 1.0) <= 1e-11


def test_complex_arguments():
    assert besselkit.bessel_i(0.5, 2.0) == besselkit.bessel_i(0.5, 2.0 + 0j)  # a real scalar is taken as complex
    z = 2.0 + 1.5j
    ours = besselkit.bessel_i(1.0, z)
    expected = complex(sp.iv(1.0, z)) * math.exp(-z.real)
    assert abs(ours - expected) <= 1e-12 * abs(expected)
    # half-integer closed forms, also far past where I and K leave doubles
    for z in (2.0 + 1.5j, 800.0 + 300.0j, 0.5 - 4000.0j):
        ours = besselkit.bessel_i(0.5, z)
        expected = np.sqrt(2.0 / (math.pi * z)) * (np.exp(z - abs(z.real)) - np.exp(-z - abs(z.real))) / 2.0
        assert abs(ours - expected) <= 1e-12 * abs(expected)
        ours_k = besselkit.bessel_k(0.5, z)
        expected = np.sqrt(math.pi / (2.0 * z))
        assert abs(ours_k - expected) <= 1e-12 * abs(expected)


def test_complex_array_arguments():
    """An array gives the scalar values element by element; one element
    outside the box fails the whole call."""
    z = np.array([[2.0 + 1.5j, 0.1 - 3.0j], [40.0 + 0.0j, -5.0 + 1e-3j]])
    for fn in (besselkit.bessel_i, besselkit.bessel_k):
        out = fn(2.5, z)
        assert out.shape == z.shape
        assert np.array_equal(out, [[fn(2.5, complex(v)) for v in row] for row in z])
        for bad in (0.0, 2e4j, -1.0 + 0j, complex(math.nan, 1.0)):
            with pytest.raises(DomainError):
                fn(2.5, np.append(z, bad))
    with pytest.raises(DomainError):
        besselkit.bessel_k(61.0, z)


def test_domain_errors():
    w = cmath.exp(0.375j * math.pi)
    with pytest.raises(DomainError):
        besselkit.bessel_i(-0.1, w)
    with pytest.raises(DomainError):
        besselkit.bessel_i(61.0, w)
    with pytest.raises(DomainError):
        besselkit.bessel_i(1.0, 0j)
    with pytest.raises(DomainError):
        besselkit.bessel_i(1.0, 2e4 * w)
    for theta in RAYS:  # on the real ray I itself overflows here and K underflows
        w = 800.0 * cmath.exp(1j * theta)
        assert abs(besselkit.bessel_i(1.0, w)) > 0
        assert abs(besselkit.bessel_k(1.0, w)) > 0
    with pytest.raises(DomainError):
        besselkit.bessel_k(1.0, -3.0 + 0j)  # branch cut
    with pytest.raises(DomainError):
        besselkit.bessel_k(0.5, -1.0)  # negative real argument
