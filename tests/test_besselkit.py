"""Scaled Bessel wrappers: native kernel vs scipy, closed forms, domain checks."""

import math

import numpy as np
import pytest
import scipy.special as sp

from coneasym import besselkit
from coneasym.errors import DomainError


def test_native_ive_matches_scipy_on_grid():
    orders = [0.0, 0.3, 1.0, 2.5, 7.0, 15.5, 33.0, 60.0]
    args = np.geomspace(1e-3, 1e4, 60)
    worst = 0.0
    for nu in orders:
        for z in args:
            ours = besselkit.bessel_i(nu, float(z))
            ref = float(sp.ive(nu, z))
            worst = max(worst, abs(ours - ref) / max(abs(ref), 1e-300))
    assert worst <= 1e-10


def test_bessel_i_small_argument():
    assert abs(besselkit.bessel_i(0.0, 1e-8) - math.exp(-1e-8)) < 1e-12
    # e^(-z) I_nu(z) ~ e^(-z) (z/2)^nu / Gamma(nu+1)
    z, nu = 1e-4, 2.0
    expected = math.exp(-z) * (z / 2.0) ** nu / math.gamma(nu + 1.0)
    assert abs(besselkit.bessel_i(nu, z) - expected) / expected < 1e-7


@pytest.mark.parametrize("z", [0.2, 1.0, 7.0, 50.0, 800.0])
def test_half_integer_closed_forms(z):
    """e^(-z) I_1/2(z) = sqrt(2/(pi z)) (1 - e^(-2z))/2 and e^z K_1/2(z) =
    sqrt(pi/(2z)), also past z = 709, where I itself overflows a double."""
    i_half = -math.sqrt(2.0 / (math.pi * z)) * math.expm1(-2.0 * z) / 2.0
    assert abs(besselkit.bessel_i(0.5, z) - i_half) <= 1e-11 * i_half
    k_half = math.sqrt(math.pi / (2.0 * z))
    assert abs(besselkit.bessel_k(0.5, z) - k_half) <= 1e-11 * k_half


@pytest.mark.parametrize("nu", [0.0, 1.5, 10.0, 40.0])
@pytest.mark.parametrize("z", [0.05, 1.0, 30.0, 2000.0])
def test_wronskian_identity(nu, z):
    # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/z, via scaled products
    w = besselkit.bessel_i(nu, z) * besselkit.bessel_k(nu + 1.0, z)
    w += besselkit.bessel_i(nu + 1.0, z) * besselkit.bessel_k(nu, z)
    assert abs(z * w - 1.0) <= 1e-11


def test_complex_arguments():
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
    with pytest.raises(DomainError):
        besselkit.bessel_i(-0.1, 1.0)
    with pytest.raises(DomainError):
        besselkit.bessel_i(61.0, 1.0)
    with pytest.raises(DomainError):
        besselkit.bessel_i(1.0, 0.0)
    with pytest.raises(DomainError):
        besselkit.bessel_i(1.0, 2e4)
    assert besselkit.bessel_i(1.0, 800.0) > 0  # I itself overflows here
    assert besselkit.bessel_k(1.0, 800.0) > 0  # K itself underflows here
    with pytest.raises(DomainError):
        besselkit.bessel_k(1.0, -3.0 + 0j)  # branch cut
    with pytest.raises(DomainError):
        besselkit.bessel_k(0.5, -1.0)  # negative real argument

