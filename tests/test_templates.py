"""Expansion templates: structure, the two constructions, rendering."""

from fractions import Fraction
from pathlib import Path

import pytest

from coneasym import jsonio
from coneasym.acceptance import custom_a
from coneasym.errors import ContinuityHypothesisFailed, KTooSmall, TruncationTooShort, WindowViolation
from coneasym.spectra import circle_spectrum, custom_spectrum, sphere_spectrum
from coneasym.templates import (
    Origin,
    render_uexp,
    template_closed_form,
    template_differences,
    template_inductive,
)
from coneasym.weights import tile_edge

DATA = Path(__file__).parent / "data"


def test_circle_k2_structure(circle_half):
    template = template_closed_form(circle_half, Fraction(0), 2)
    assert template.exponents() == [0, 2]
    assert [t.max_log_power for t in template.terms] == [0, 2]
    merged = template.terms[1]
    assert set(merged.origins) == {Origin("even", nu=1), Origin("spectral", j=1, m=2, nu=0)}
    assert not merged.approximate_merge


def test_sphere2_k3_structure(sphere2):
    template = template_closed_form(sphere2, Fraction(0), 3)
    assert template.exponents() == [0, 1, 2, 3, 4]
    assert [t.max_log_power for t in template.terms] == [0, 1, 1, 2, 2]
    assert Origin("even_odd", nu=1) in template.terms[1].origins
    assert Origin("spectral", j=3, m=3, nu=0) in template.terms[3].origins


def test_irrational_exponents_interleave():
    cs = custom_spectrum(3, [0, -3, -7, -15], [1, 4, 2, 1])
    with pytest.warns(TruncationTooShort):
        template = template_closed_form(cs, Fraction(1, 4), 3)
    values = [float(e) for e in template.exponents()]
    assert values == sorted(values)
    assert any(abs(v - (8.0**0.5 - 1.0)) < 1e-12 for v in values)


def test_remainder_exponent():
    """gamma + 2k - (n+1)/2 is minus the lower edge of the tile J_k, taken
    from weights.tile_edge: for a float gamma the sum in another order gave
    3.0999999999999996 where -tile_edge gives 3.1."""
    template = template_closed_form(sphere_spectrum(2, 14), Fraction(0), 3)
    # gamma + 2k - (n+1)/2 = 0 + 6 - 3/2
    assert template.remainder_exponent == Fraction(9, 2)
    template = template_closed_form(circle_spectrum(radius=Fraction(1, 2), j_max=8), 0.1, 2)
    assert template.remainder_exponent == -tile_edge(1, 0.1, 2) == 3.1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_constructions_agree(corpus, k):
    for cs in corpus:
        from coneasym.weights import admissible_window, window_midpoint

        gamma = window_midpoint(admissible_window(cs.n, cs.lambda1))
        a = template_closed_form(cs, gamma, k)
        b = template_inductive(cs, gamma, k)
        assert template_differences(a, b) == []


def test_template_differences_reports():
    cs = sphere_spectrum(2, 14)
    a = template_closed_form(cs, Fraction(0), 2)
    b = template_closed_form(cs, Fraction(0), 3)
    assert template_differences(a, b)


def test_nesting_in_k():
    """Raising k only adds terms; exponents already present keep their
    log bound."""
    for cs, gamma in (
        (sphere_spectrum(2, 14), Fraction(0)),
        (circle_spectrum(radius=Fraction(1, 2), j_max=8), Fraction(1, 3)),
        (custom_a(), Fraction(1, 4)),
    ):
        previous = {}
        for k in range(2, 6):
            template = template_closed_form(cs, gamma, k)
            current = {float(t.exponent): t.max_log_power for t in template.terms}
            for exponent, log_power in previous.items():
                assert current[exponent] == log_power
            previous = current


def test_k_too_small():
    with pytest.raises(KTooSmall):
        template_closed_form(sphere_spectrum(2, 14), Fraction(0), 1)


def test_window_violation():
    with pytest.raises(WindowViolation):
        template_closed_form(sphere_spectrum(2, 14), Fraction(2), 3)
    # empty window: nu_1 = 1
    with pytest.raises(WindowViolation):
        template_closed_form(circle_spectrum(radius=1.0, j_max=3), Fraction(0), 2)


def test_truncation_warning():
    short = sphere_spectrum(2, 2)
    with pytest.warns(TruncationTooShort):
        template = template_closed_form(short, Fraction(0), 4)
    assert template.validity["truncation_sufficient"] is False
    full = sphere_spectrum(2, 14)
    template = template_closed_form(full, Fraction(0), 4)
    assert template.validity["truncation_sufficient"] is True


def test_near_boundary_flag():
    """mu sits 1e-10 inside J_3 (n = 1, gamma = 0, edge -3): a float mu is
    flagged on the edge, as every float within MERGE_TOL is, while an
    exact mu is off it, since on an edge means on it exactly for a rational."""
    for construction in (template_closed_form, template_inductive):
        for mu, flagged in ((-3.0 - 1e-10, True), (-3 - Fraction(1, 10**10), False)):
            cs = custom_spectrum(1, [0, -mu * mu], [1, 1])
            with pytest.warns(TruncationTooShort):
                template = construction(cs, Fraction(0), 3)
            near = [t.near_tile_boundary for t in template.terms if Origin("spectral", j=1, m=3, nu=0) in t.origins]
            assert near == [flagged]
            flagged_exponents = [float(t.exponent) for t in template.terms if t.near_tile_boundary]
            assert flagged_exponents == pytest.approx([3.0] * flagged)
            assert len(template.validity["near_boundary_terms"]) == flagged


def test_validity_dict(sphere2):
    template = template_closed_form(sphere2, Fraction(0), 3)
    validity = template.validity
    assert validity["window_lo"] == -0.5
    assert validity["window_hi"] == 0.5
    assert validity["complete"] is True


@pytest.mark.parametrize(
    "name,builder",
    [
        ("template_s2_g0_k3.json", lambda: template_closed_form(sphere_spectrum(2, 14), Fraction(0), 3)),
        (
            "template_customA_g14_k4.json",
            lambda: template_closed_form(custom_a(), Fraction(1, 4), 4),
        ),
    ],
)
def test_golden_json(name, builder):
    expected = (DATA / name).read_text()
    assert jsonio.dumps(builder().as_dict()) + "\n" == expected


def test_render_uexp(sphere2):
    template = template_closed_form(sphere2, Fraction(0), 3)
    lines = render_uexp(template, s=0.0, p=2.0).splitlines()
    assert lines[1:len(template.terms) + 1] == [
        "  x^0", "  x^1 * P_1(log x)", "  x^2 * P_1(log x)", "  x^3 * P_2(log x)", "  x^4 * P_2(log x)",
    ]
    # remainder 2k - (n+1)/2 = 4.5, stated 1e-3 below
    assert lines[len(template.terms) + 1] == "  + O(x^4.499)"
    assert lines[-1].endswith("valid for s=0, p=2)")


def test_render_requires_continuity_hypothesis(sphere2):
    template = template_closed_form(sphere2, Fraction(0), 2)
    with pytest.raises(ContinuityHypothesisFailed):
        render_uexp(template, s=-4.0, p=2.0)
