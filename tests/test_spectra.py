"""Cross-section spectra against independent oracles."""

import itertools
import math
from fractions import Fraction

import pytest

from coneasym.errors import NonZeroTop, PositiveEigenvalue, SpectrumError
from coneasym.spectra import (
    CrossSection,
    circle_spectrum,
    custom_spectrum,
    harmonic_multiplicity,
    sphere_spectrum,
)


def _monomials(num_vars, degree):
    if num_vars == 1:
        return [(degree,)]
    out = []
    for head in range(degree + 1):
        for rest in _monomials(num_vars - 1, degree - head):
            out.append((head,) + rest)
    return out


def _rank(matrix):
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [list(r) for r in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def harmonic_dim_bruteforce(num_vars, degree):
    """Kernel dimension of the Laplacian on degree-j monomials, exactly."""
    source = _monomials(num_vars, degree)
    if degree < 2:
        return len(source)
    target = _monomials(num_vars, degree - 2)
    index = {m: i for i, m in enumerate(target)}
    matrix = []
    for mono in source:
        row = [Fraction(0)] * len(target)
        for axis, power in enumerate(mono):
            if power >= 2:
                image = list(mono)
                image[axis] -= 2
                row[index[tuple(image)]] += power * (power - 1)
        matrix.append(row)
    # rank of the transpose equals the rank
    return len(source) - _rank(matrix)


@pytest.mark.parametrize("n,j", [(2, j) for j in range(5)] + [(3, j) for j in range(4)])
def test_harmonic_multiplicity_against_bruteforce(n, j):
    assert harmonic_multiplicity(n, j) == harmonic_dim_bruteforce(n + 1, j)


def test_sphere_eigenvalues_are_j_j_plus_n_minus_1():
    for n in (2, 3, 4):
        cs = sphere_spectrum(n, 6)
        for j, lam in enumerate(cs.eigenvalues):
            assert lam == Fraction(-j * (j + n - 1))


def _circulant_eigenvalue(radius, j, big_n):
    """Eigenvalue j of the periodic second-difference operator on big_n
    equispaced points of the circle of the given radius."""
    h = 2.0 * math.pi * float(radius) / big_n
    return -4.0 * math.sin(math.pi * j / big_n) ** 2 / (h * h)


@pytest.mark.parametrize("radius", [Fraction(1, 2), Fraction(2, 3)])
def test_circle_eigenvalues_against_finite_differences(radius):
    cs = circle_spectrum(radius=radius, j_max=4)
    for j in range(5):
        coarse = _circulant_eigenvalue(radius, j, 2000)
        fine = _circulant_eigenvalue(radius, j, 4000)
        extrapolated = (4.0 * fine - coarse) / 3.0
        assert abs(extrapolated - float(cs.eigenvalues[j])) <= 1e-8 * max(1.0, abs(extrapolated))


def test_circle_exact_values():
    cs = circle_spectrum(radius=Fraction(1, 2), j_max=3)
    assert cs.n == 1
    assert list(cs.eigenvalues) == [0, -4, -16, -36]
    assert list(cs.multiplicities) == [1, 2, 2, 2]

    half = circle_spectrum(radius_squared=Fraction(1, 2), j_max=3)
    assert list(half.eigenvalues) == [0, -2, -8, -18]


def test_circle_irrational_radius():
    cs = circle_spectrum(radius=0.7, j_max=2)
    assert abs(float(cs.eigenvalues[1]) + 1.0 / 0.49) < 1e-12


def test_custom_spectrum_keeps_exact_values():
    cs = custom_spectrum(2, [(0, 1), (Fraction(-5, 2), 2), (-6, 1)])
    assert cs.eigenvalues[1] == Fraction(-5, 2)
    assert isinstance(cs.eigenvalues[1], Fraction)


def test_validation_rejects_bad_spectra():
    with pytest.raises(SpectrumError):
        custom_spectrum(2, [(-1, 1), (-2, 1)])  # top eigenvalue not zero
    with pytest.raises(SpectrumError):
        custom_spectrum(2, [(0, 2), (-2, 1)])  # zero must be simple
    with pytest.raises(SpectrumError):
        custom_spectrum(2, [(0, 1), (-2, 1), (-2, 1)])  # not strictly decreasing
    with pytest.raises(SpectrumError):
        custom_spectrum(2, [(0, 1), (-2, 0)])  # multiplicity must be positive
    with pytest.raises(SpectrumError):
        custom_spectrum(2, [(0, 1), (3, 1)])  # positive eigenvalue
    with pytest.raises(SpectrumError):
        circle_spectrum()  # radius or radius_squared required


def test_exact_eigenvalues_are_judged_exactly():
    """An exact eigenvalue within 1e-12 of a bound is judged exactly: 1/10^15
    on top is not 0, and 1/10^13 is positive (not out of order).  Floats
    keep the 1e-12 tolerance: a top of 1e-15 snaps to exact 0."""
    with pytest.raises(NonZeroTop):
        custom_spectrum(1, [(Fraction(1, 10**15), 1), (Fraction(-4), 2)])
    with pytest.raises(PositiveEigenvalue):
        custom_spectrum(1, [(0, 1), (Fraction(1, 10**13), 2)])
    assert custom_spectrum(1, [(1e-15, 1), (-4.0, 2)]).eigenvalues[0] == Fraction(0)


def test_lambda1_property(circle_half):
    assert circle_half.lambda1 == Fraction(-4)
    assert isinstance(circle_half, CrossSection)
