"""Exponent fitting and spectrum recovery on synthetic and solved data."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneasym.errors import DegenerateSamples, NoiseFloor, NotASpectralExponent
from coneasym.fitrecover import (
    FitReport,
    fit_leading_exponent,
    peel_exponents,
    recover_lambda,
    recover_spectrum,
    reports_from_jsonl,
    reports_to_jsonl,
)


def _grid(lo=1e-4, hi=1e-1, count=49):
    return np.geomspace(lo, hi, count)


def test_single_power_fit_is_exact():
    x = _grid()
    report = fit_leading_exponent(x, 3.0 * x**1.7, window=(1e-4, 1e-3))
    assert report.exponent == pytest.approx(1.7, abs=1e-10)
    assert report.stderr < 1e-10
    assert abs(report.log_coefficient_ratio) < 1e-6


def test_log_factor_detected():
    x = _grid()
    v = 0.5 * x**2 * np.abs(np.log(x))
    report = fit_leading_exponent(x, v, window=(1e-4, 1e-3))
    assert report.exponent == pytest.approx(2.0, abs=1e-9)
    assert abs(report.log_coefficient_ratio) > 0.1


def test_two_term_peel():
    x = _grid()
    v = 2.0 * x**1.5 - 0.3 * x**3.5
    reports = peel_exponents(x, v, lead_window=(1e-4, 1e-3), next_window=(1e-2, 1e-1))
    assert len(reports) == 2
    assert reports[0].exponent == pytest.approx(1.5, abs=1e-6)
    assert reports[1].exponent == pytest.approx(3.5, rel=1e-3)
    assert reports[0].coefficient == pytest.approx(2.0, rel=1e-4)
    assert reports[1].coefficient == pytest.approx(-0.3, rel=1e-2)


def test_peel_stops_at_noise_floor():
    x = _grid()
    rng = np.random.default_rng(3)
    v = 1.25 * x**2 * (1.0 + 1e-13 * rng.standard_normal(x.size))
    reports = peel_exponents(x, v, lead_window=(1e-4, 1e-3), next_window=(1e-2, 1e-1))
    assert len(reports) == 1


def test_degenerate_samples():
    x = _grid(count=30)
    alternating = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0) * x
    with pytest.raises(DegenerateSamples):
        fit_leading_exponent(x, alternating, window=(1e-4, 1e-1))
    with pytest.raises(DegenerateSamples):
        fit_leading_exponent(x[:3], 2.0 * x[:3], window=(1e-4, 1e-3))


def test_recover_lambda_exact():
    assert recover_lambda(2, Fraction(3)) == Fraction(-12)
    assert recover_lambda(1, Fraction(2)) == Fraction(-4)
    assert recover_lambda(3, Fraction(0)) == 0


@given(
    n=st.integers(min_value=1, max_value=5),
    num=st.integers(min_value=0, max_value=60),
    den=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=150, deadline=None)
def test_recover_lambda_round_trip(n, num, den):
    from coneasym.indicial import indicial_roots

    mu = Fraction(-num, den)
    lam = mu * (n - 1 - mu)
    assert recover_lambda(n, -mu) == lam
    assert indicial_roots(n, lam).mu == mu


def test_recover_lambda_rejects_negative():
    with pytest.raises(NotASpectralExponent):
        recover_lambda(2, -0.5)


def _report(exponent, peel_index, mode_j=0, stderr=1e-9):
    return FitReport(
        exponent=exponent, stderr=stderr, coefficient=1.0,
        log_coefficient_ratio=0.0, residual_rms=1e-10, n_samples=17,
        window=(1e-4, 1e-3), peel_index=peel_index, mode_j=mode_j, t=1.0,
    )


def test_recover_spectrum_direct_and_flagged():
    reports = [
        _report(0.0, 0, mode_j=0),
        _report(2.0, 0, mode_j=1),
        _report(2.0, 1, mode_j=0),   # even shift 2 vs spectral -2: ambiguous
        _report(1.5, 1, mode_j=1),   # spectral only: mu = -1.5 in J_2
        _report(0.5, 1, mode_j=1),   # matches nothing (mu = -0.5 sits in tile 1)
    ]
    summary = recover_spectrum(reports, n=1, gamma=0.0, k=3)
    lams = sorted(summary.lambdas())
    assert lams == pytest.approx([-4.0, -2.25, 0.0])
    reasons = [f["reason"] for f in summary.flagged]
    assert any("ambiguous" in r for r in reasons)
    assert any("neither" in r for r in reasons)
    assert summary.visible_mu_window == (-5.0, -1.0)


def test_recover_spectrum_deduplicates():
    reports = [
        _report(2.0, 0, mode_j=1),
        _report(2.0000001, 0, mode_j=2),
    ]
    summary = recover_spectrum(reports, n=1, gamma=0.0, k=2)
    assert len(summary.recovered) == 1


def test_recover_spectrum_snaps_tiny_negative_lead():
    summary = recover_spectrum([_report(-1e-6, 0)], n=1, gamma=0.0, k=2)
    assert summary.lambdas() == [0.0]


def test_even_exponents_stay_ambiguous():
    """A deep exponent of 2 can come from the even ladder or from an
    eigenvalue with mu = -2 (always inside tile J_2), so it is never
    attributed automatically."""
    summary = recover_spectrum([_report(2.0, 1)], n=3, gamma=0.5, k=2)
    assert summary.recovered == ()
    assert len(summary.flagged) == 1
    assert "ambiguous" in summary.flagged[0]["reason"]


def test_reports_jsonl_round_trip():
    reports = [_report(1.5, 0), _report(3.5, 1, mode_j=2)]
    text = reports_to_jsonl(reports)
    assert text.splitlines()[0].startswith('{"generator"')
    back = reports_from_jsonl(text)
    assert back == reports


# Two lines of a fit file written while FitReport still had the (never
# set) matched_exponent field.
_FITS_WITH_MATCHED_EXPONENT = """{"generator": "coneasym 0.1.0"}
{"exponent": 7.6214967998665326e-10, "stderr": 1.8684917265491585e-10, "coefficient": 0.25314289240661531, "log_coefficient_ratio": 4.2064744244062631e-06, "residual_rms": 4.8156008364735787e-09, "n_samples": 17, "window": [0.0001, 0.001], "peel_index": 0, "mode_j": 0, "t": 1, "matched_exponent": null}
{"exponent": 2.0000000141873846, "stderr": 3.4709602074286182e-09, "coefficient": 0.018036496110107922, "log_coefficient_ratio": 7.7989765522652669e-06, "residual_rms": 8.9283199611075343e-09, "n_samples": 17, "window": [0.0001, 0.001], "peel_index": 0, "mode_j": 1, "t": 1, "matched_exponent": null}
"""


def test_reads_fit_lines_with_matched_exponent():
    """Old fit lines still read; rewritten without the key they give the
    same reports and the same recovery summary."""
    old = reports_from_jsonl(_FITS_WITH_MATCHED_EXPONENT)
    assert [(r.mode_j, r.exponent) for r in old] == [(0, 7.6214967998665326e-10), (1, 2.0000000141873846)]
    text = reports_to_jsonl(old)
    assert "matched_exponent" not in text
    new = reports_from_jsonl(text)
    assert new == old
    summary = recover_spectrum(old, n=1, gamma=0.0, k=3)
    assert summary.lambdas() == [-5.8087213470375792e-19, -4.0000000567495384]
    assert recover_spectrum(new, n=1, gamma=0.0, k=3).to_json() == summary.to_json()


def test_solved_mode_exponent(bump12):
    from coneasym.conesolve import ModeProblem, default_grid, heat_mode

    problem = ModeProblem(n=2, lam=-6.0, t=1.0, profile=bump12)
    sol = heat_mode(problem, default_grid())
    reports = peel_exponents(sol.x, sol.values, lead_window=(1e-4, 1e-3),
                             next_window=(1e-2, 1e-1))
    assert reports[0].exponent == pytest.approx(2.0, rel=1e-4)
    # no log factor in a pure mode solution
    assert abs(reports[0].log_coefficient_ratio) < 1e-4
