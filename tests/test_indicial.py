"""Indicial roots, conormal symbol algebra, pole bookkeeping."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneasym.errors import SpectrumError, TruncationTooShort
from coneasym.indicial import (
    TOL,
    conormal_poly_coeffs,
    conormal_symbol,
    exact_or_float,
    exact_sqrt,
    group_locations,
    indicial_roots,
    less,
    pole_set,
    root_multiplicity,
    same,
)
from coneasym.spectra import CrossSection, circle_spectrum, custom_spectrum
from coneasym.templates import template_inductive


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(1, 3)) is None


_RATIONALS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6).map(np.int64),
    st.fractions(max_denominator=10**18),
)
_FLOATS = st.floats(min_value=-1e3, max_value=1e3)


@given(a=st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
@settings(max_examples=200, deadline=None)
def test_policy_compares_two_fractions_exactly(a):
    """Two Fractions compare exactly, even 1e-15 apart."""
    b = a + Fraction(1, 10**15)
    assert less(a, b) and not less(b, a) and not less(a, a)
    assert not same(a, b, TOL) and same(a, Fraction(a), 0.0)


@given(a=_FLOATS, b=_FLOATS, exact=st.sampled_from(["none", "a", "b"]))
@settings(max_examples=300, deadline=None)
def test_policy_compares_float_and_mixed_pairs_as_floats(a, b, exact):
    """A float pair, or a float and a Fraction, compares as floats within TOL."""
    x = Fraction(a) if exact == "a" else a
    y = Fraction(b) if exact == "b" else b
    assert less(x, y) == (a < b - TOL)
    assert same(x, y, TOL) == (abs(a - b) <= TOL)
    assert same(x, x + TOL / 2, TOL)


@given(values=st.lists(_RATIONALS, min_size=1, max_size=4), extra=_FLOATS)
@settings(max_examples=200, deadline=None)
def test_exact_or_float(values, extra):
    """All-rational input (int, numpy.int64, Fraction) comes back as
    Fractions; one float among the values turns them all into floats."""
    exact = exact_or_float(*values)
    assert all(type(v) is Fraction and type(v.numerator) is int for v in exact)
    assert list(exact) == [Fraction(v) for v in values]
    inexact = exact_or_float(*values, extra)
    assert all(type(v) is float for v in inexact)
    assert list(inexact) == [float(v) for v in values] + [extra]


@given(
    n=st.integers(min_value=1, max_value=6),
    num=st.integers(min_value=0, max_value=400),
    den=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_vieta_exact(n, num, den):
    """q- + q+ = n-1 and q- q+ = lambda; exact when the discriminant is a
    perfect rational square (roots come back as Fractions), float otherwise."""
    lam = Fraction(-num, den)
    data = indicial_roots(n, lam)
    if isinstance(data.mu, Fraction):
        assert data.mu + data.q_plus == n - 1
        assert data.mu * data.q_plus == lam
    else:
        assert abs(float(data.mu + data.q_plus) - (n - 1)) <= 1e-12
        assert abs(float(data.mu * data.q_plus) - float(lam)) <= 1e-10 * max(1.0, -float(lam))


@given(
    n=st.integers(min_value=1, max_value=6),
    lam=st.floats(min_value=-500.0, max_value=0.0),
)
@settings(max_examples=200, deadline=None)
def test_vieta_float(n, lam):
    data = indicial_roots(n, lam)
    assert abs(float(data.mu + data.q_plus) - (n - 1)) <= 1e-12 * max(1.0, n - 1.0)
    assert abs(float(data.mu * data.q_plus) - lam) <= 1e-11 * max(1.0, abs(lam))


def test_indicial_roots_exact_path():
    data = indicial_roots(2, Fraction(-6))
    assert data.nu == Fraction(5, 2)
    assert data.mu == Fraction(-2)
    assert data.q_plus == Fraction(3)
    assert isinstance(data.mu, Fraction)


def test_positive_eigenvalue_rejected():
    with pytest.raises(SpectrumError):
        indicial_roots(2, Fraction(1))


def test_float_eigenvalue_within_tol_above_zero_is_zero():
    """A float lam in (0, TOL] counts as zero: for n = 1 its discriminant
    -lam is negative, and nu must still be 0, here and in the templates."""
    data = indicial_roots(1, 5e-13)
    assert (data.nu, data.mu, data.q_plus) == (0.0, 0.0, 0.0)
    cross_section = CrossSection(1, "x", (5e-13, -4.0), (1, 2))
    with pytest.warns(TruncationTooShort):
        template = template_inductive(cross_section, 0.0, 2)
    assert template.exponents() == [0, 2]


def test_conormal_symbol_values():
    # sigma(z) = z^2 - (n-1) z + lam
    assert conormal_symbol(3, Fraction(-4), Fraction(1)) == 1 - 2 - 4
    assert conormal_symbol(1, -4.0, 2.0) == 0.0


def test_composed_symbol_coefficients_by_hand():
    # n=1, lam=-4: sigma_2(z) = (z^2-4)(z^2+4z) = z^4 + 4z^3 - 4z^2 - 16z
    assert conormal_poly_coeffs(1, Fraction(-4), 2) == [0, -16, -4, 4, 1]


def test_composed_symbol_roots_oracle():
    """numpy.roots of the composed polynomial must be the shifted pairs."""
    n, lam, k = 2, -3.0, 3
    coeffs = conormal_poly_coeffs(n, lam, k)
    got = sorted(np.roots(list(map(float, reversed(coeffs)))).real)
    data = indicial_roots(n, lam)
    expected = sorted(
        float(q) - 2 * i for q in (data.mu, data.q_plus) for i in range(k)
    )
    assert np.allclose(got, expected, atol=1e-6)


def test_root_multiplicity_exact():
    # (z-1)^2 (z+2) = z^3 - 3z + 2
    coeffs = [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)]
    assert root_multiplicity(coeffs, Fraction(1)) == 2
    assert root_multiplicity(coeffs, Fraction(-2)) == 1
    assert root_multiplicity(coeffs, Fraction(3)) == 0


def test_pole_set_circle_k1():
    cs = circle_spectrum(radius=Fraction(1, 2), j_max=2)
    poles = pole_set(cs, 1)
    by_location = {p.location: p for p in poles}
    assert by_location[Fraction(0)].order == 2
    assert by_location[Fraction(2)].order == 1
    assert by_location[Fraction(-2)].order == 1
    # descending locations
    locations = [float(p.location) for p in poles]
    assert locations == sorted(locations, reverse=True)


def test_pole_set_k2_orders():
    """Order is the max over modes: at -2 the shifted constant-mode double
    root dominates the simple mode-1 root."""
    cs = circle_spectrum(radius=Fraction(1, 2), j_max=1)
    poles = pole_set(cs, 2)
    by_location = {p.location: p for p in poles}
    assert by_location[Fraction(0)].order == 2
    pole = by_location[Fraction(-2)]
    assert pole.order == 2
    assert {j for j, _, _ in pole.provenance} == {0, 1}
    assert len(pole.provenance) == 3


def test_pole_merge_flags_near_collision():
    mu_a = -2.0 + 4e-10
    mu_b = -2.0 - 4e-10
    lam_a = mu_a * (1.0 - mu_a)
    lam_b = mu_b * (1.0 - mu_b)
    cs = custom_spectrum(2, [0, lam_a, lam_b], [1, 1, 1])
    poles = pole_set(cs, 1)
    near = [p for p in poles if abs(float(p.location) + 2.0) < 1e-6]
    assert len(near) == 1
    assert isinstance(near[0].location, float) and abs(near[0].location + 2.0) < 1e-15  # the mean
    assert len(near[0].provenance) == 2
    # unequal floats within MERGE_TOL merge approximately; equal ones do not
    [(center, key, members, approximate)] = group_locations([(mu_a, "a"), (mu_b, "b")])
    assert approximate and key is None and len(members) == 2
    [(_, _, _, approximate)] = group_locations([(-2.0, "a"), (-2.0, "b")])
    assert not approximate
    # a rational that joins a float cluster flags it and becomes its key
    groups = group_locations([(-2.0, "a"), (Fraction(-2), "b"), (Fraction(1), "c")])
    assert [(key, len(members), approximate) for _, key, members, approximate in groups] == [
        (Fraction(-2), 2, True),
        (Fraction(1), 1, False),
    ]
    # the flag reaches the template term the near-collision merges into
    with pytest.warns(TruncationTooShort):
        template = template_inductive(cs, Fraction(0), 3)
    merged = [t for t in template.terms if abs(float(t.exponent) - 2.0) < 1e-6]
    assert len(merged) == 1 and merged[0].approximate_merge


def test_pole_set_exact_no_flags(circle_half):
    """An exact spectrum's poles group exactly: every location is a Fraction."""
    poles = pole_set(circle_half, 2)
    assert all(isinstance(p.location, Fraction) for p in poles)
