"""Bessel wrappers: native kernel vs scipy, closed forms, domain checks."""

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
            ours = besselkit.bessel_i(nu, float(z), scaled=True)
            ref = float(sp.ive(nu, z))
            worst = max(worst, abs(ours - ref) / max(abs(ref), 1e-300))
    assert worst <= 1e-10


def test_bessel_i_unscaled_small():
    assert abs(besselkit.bessel_i(0.0, 1e-8) - 1.0) < 1e-12
    # I_nu(z) ~ (z/2)^nu / Gamma(nu+1)
    z, nu = 1e-4, 2.0
    expected = (z / 2.0) ** nu / math.gamma(nu + 1.0)
    assert abs(besselkit.bessel_i(nu, z) - expected) / expected < 1e-7


@pytest.mark.parametrize("z", [0.2, 1.0, 7.0, 50.0])
def test_half_integer_closed_forms(z):
    s = math.sqrt(2.0 / (math.pi * z))
    assert abs(besselkit.bessel_i(0.5, z) - s * math.sinh(z)) <= 1e-11 * s * math.sinh(z)
    k_half = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
    assert abs(besselkit.bessel_k(0.5, z) - k_half) <= 1e-11 * k_half


@pytest.mark.parametrize("nu", [0.0, 1.5, 10.0, 40.0])
@pytest.mark.parametrize("z", [0.05, 1.0, 30.0, 2000.0])
def test_wronskian_identity(nu, z):
    # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/z, via scaled products
    w = besselkit.bessel_i(nu, z, scaled=True) * besselkit.bessel_k(nu + 1.0, z, scaled=True)
    w += besselkit.bessel_i(nu + 1.0, z, scaled=True) * besselkit.bessel_k(nu, z, scaled=True)
    assert abs(z * w - 1.0) <= 1e-11


def test_complex_arguments():
    z = 2.0 + 1.5j
    ours = besselkit.bessel_i(1.0, z)
    assert abs(ours - complex(sp.iv(1.0, z))) <= 1e-12 * abs(ours)
    ours_k = besselkit.bessel_k(0.5, z)
    expected = math.sqrt(math.pi / 2.0) * np.exp(-z) / np.sqrt(z)
    assert abs(ours_k - expected) <= 1e-12 * abs(expected)


def test_complex_array_arguments():
    """An array gives the scalar values element by element; one element
    outside the box fails the whole call."""
    z = np.array([[2.0 + 1.5j, 0.1 - 3.0j], [40.0 + 0.0j, -5.0 + 1e-3j]])
    for fn in (besselkit.bessel_i, besselkit.bessel_k):
        for scaled in (False, True):
            out = fn(2.5, z, scaled=scaled)
            assert out.shape == z.shape
            assert np.array_equal(out, [[fn(2.5, complex(v), scaled=scaled) for v in row] for row in z])
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
    with pytest.raises(DomainError):
        besselkit.bessel_i(1.0, 800.0)  # unscaled would overflow
    assert besselkit.bessel_i(1.0, 800.0, scaled=True) > 0
    with pytest.raises(DomainError):
        besselkit.bessel_k(1.0, -3.0 + 0j)  # branch cut
    with pytest.raises(DomainError):
        besselkit.bessel_k(0.5, -1.0)  # negative real argument


def test_unscaled_complex_i_past_overflow_bound():
    """Unscaled complex I raises past |Re z| = 700, as real I does, where
    scipy's iv would return inf; the scaled form and |Im z| stay free."""
    for z in (800.0 + 0j, -800.0 + 1j, np.array([1.0 + 0j, 700.5 + 3j])):
        with pytest.raises(DomainError):
            besselkit.bessel_i(1.0, z)
        assert np.all(np.isfinite(besselkit.bessel_i(1.0, z, scaled=True)))
    assert np.isfinite(besselkit.bessel_i(1.0, 699.0 + 0j))
    assert np.isfinite(besselkit.bessel_i(1.0, 1.0 + 5000j))
