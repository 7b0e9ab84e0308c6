"""Exponent fitting and spectrum recovery on synthetic and solved data."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneasym import fitrecover, recovery
from coneasym.conesolve import ModeProblem, RadialProfile, default_grid, heat_mode, heat_small_x_series
from coneasym.errors import FitError, ScenarioError
from coneasym.fitrecover import least_squares, peel_exponents
from coneasym.recovery import FitReport, recover_lambda, recover_spectrum, reports_from_jsonl, reports_to_jsonl


def _grid(lo=1e-4, hi=1e-1, count=49):
    return np.geomspace(lo, hi, count)


def test_two_term_peel():
    """Two rungs of a step-2 ladder: the fit finds both exponents and both
    coefficients, and leaves the upper two rungs empty."""
    x = _grid()
    v = 2.0 * x**1.5 - 0.3 * x**3.5
    report = peel_exponents(x, v)
    assert report.exponent == pytest.approx(1.5, abs=1e-12)
    assert report.exponent + report.step == pytest.approx(3.5, abs=1e-10)
    assert report.coefficients[0] == pytest.approx(2.0, rel=1e-12)
    assert report.coefficients[1] == pytest.approx(-0.3, rel=1e-9)
    assert np.all(np.abs(report.coefficients[2:]) < 1e-6)
    assert report.residual_rms < 1e-14


def test_pure_power_at_noise_level():
    """A pure power with 1e-13 relative noise: e0 is exact to the noise and
    the upper rungs of the ladder stay empty at the noise level."""
    x = _grid()
    rng = np.random.default_rng(3)
    v = 1.25 * x**2 * (1.0 + 1e-13 * rng.standard_normal(x.size))
    report = peel_exponents(x, v)
    assert report.exponent == pytest.approx(2.0, abs=1e-12)
    assert report.coefficients[0] == pytest.approx(1.25, rel=1e-12)
    upper = [c * x[-1] ** (q * report.step) for q, c in enumerate(report.coefficients) if q]
    assert max(abs(u) for u in upper) < 1e-11
    assert report.residual_rms < 1e-12


def test_least_squares_result_fields():
    """The Gauss-Newton solver returns x, fun, success and an int nfev,
    and reaches the minimum of a small nonlinear problem."""
    s = np.linspace(0.0, 1.0, 20)
    y = 1.5 * np.exp(-0.7 * s)
    result = least_squares(lambda p: p[0] * np.exp(-p[1] * s) - y, [1.0, 0.0])
    assert result.success
    assert isinstance(result.nfev, int) and result.nfev > 0
    assert result.x == pytest.approx([1.5, 0.7], abs=1e-12)
    assert np.max(np.abs(result.fun)) < 1e-13


def test_least_squares_reports_failure():
    """A start just above a jump in the residual, which the forward-difference
    Jacobian does not see, so that no fraction of the Gauss-Newton step down
    to the minimum at -10 lowers the cost, and a start with a non-finite
    residual both end with success False."""
    jump = least_squares(lambda p: np.array([p[0] + 10.0 * (p[0] < 5.0)]), [5.0 + 1e-12])
    assert not jump.success
    assert jump.x[0] == 5.0 + 1e-12
    assert not least_squares(lambda p: np.array([math.inf]), [-1.0]).success


def test_fit_raises_when_least_squares_fails(monkeypatch):
    original = fitrecover.least_squares
    monkeypatch.setattr(fitrecover, "least_squares", lambda *args: original(*args)._replace(success=False))
    x = _grid()
    with pytest.raises(FitError, match="did not converge"):
        peel_exponents(x, 2.0 * x**1.5)


def test_fit_calls_least_squares_through_the_module(monkeypatch):
    calls = []
    original = fitrecover.least_squares

    def spy(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(fitrecover, "least_squares", spy)
    x = _grid()
    peel_exponents(x, 2.0 * x**1.5 - 0.3 * x**3.5)
    assert len(calls) == 1 and calls[0].nfev > 0


def test_degenerate_samples():
    """Too few samples, zeros, a lowest decade of x with one sample or a
    sign change in it: each raises before Gauss-Newton starts, so no
    numpy warning escapes either."""
    x = _grid(count=30)
    alternating = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0) * x
    with pytest.raises(FitError, match="7 samples, need >= "):
        peel_exponents(x[:7], x[:7] ** 2)
    with pytest.raises(FitError, match="values must be finite and nonzero"):
        peel_exponents(x, np.where(x < 1e-2, x**2, 0.0))
    with pytest.raises(FitError, match="lowest decade"):
        peel_exponents(x, alternating)
    lone = np.concatenate([[1e-6], x])
    with pytest.raises(FitError, match="lowest decade"):
        peel_exponents(lone, lone**2)
    flipped = x**2
    flipped[2] = -flipped[2]
    with pytest.raises(FitError, match="lowest decade"):
        peel_exponents(x, flipped)


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
    with pytest.raises(FitError, match="exponent -0.5 is negative"):
        recover_lambda(2, -0.5)


def _report(exponent, mode_j=0, t=1.0, step=2.0, rms=1e-15):
    return FitReport(
        exponent=exponent, stderr=1e-15, step=step, step_stderr=1e-10,
        coefficients=(1.0, 0.1, 0.01, 0.001), coefficient_stderr=(1e-15, 1e-12, 1e-10, 1e-8),
        residual_rms=rms, n_samples=49, window=(1e-4, 1e-1), mode_j=mode_j, t=t,
    )


def test_recover_spectrum_direct_and_flagged():
    reports = [
        _report(0.0, mode_j=0),
        _report(2.0, mode_j=1),
        _report(4.0, mode_j=2, step=1.5),              # off the step-2 ladder
        _report(6.0, mode_j=3, rms=1e-8),              # ladder does not fit
        _report(8.0, mode_j=4, t=0.5),
        _report(8.0 + 1e-6, mode_j=4, t=1.0),          # e0 moves with t
    ]
    summary = recover_spectrum(reports, n=1, gamma=0.0, k=3)
    assert summary.lambdas() == [0.0, -4.0]
    assert [e["provenance"]["mode_j"] for e in summary.recovered] == [0, 1]
    assert all(e["provenance"]["peel_index"] == 0 for e in summary.recovered)
    reasons = {f["mode_j"]: f["reason"] for f in summary.flagged}
    assert sorted(reasons) == [2, 3, 4]
    assert "step_deviation" in reasons[2]
    assert "residual_rms" in reasons[3]
    assert "exponent_spread" in reasons[4]
    assert summary.visible_mu_window == (-5.0, -1.0)


def test_recover_spectrum_deduplicates():
    """Reports of one mode at several t give one eigenvalue, with the
    times and the mean exponent in its provenance."""
    reports = [_report(2.0, mode_j=1, t=t) for t in (0.5, 1.0, 2.0)]
    summary = recover_spectrum(reports, n=1, gamma=0.0, k=2)
    assert len(summary.recovered) == 1
    entry = summary.recovered[0]
    assert entry["lambda"] == -4.0
    assert entry["provenance"] == {"mode_j": 1, "t": [0.5, 1.0, 2.0], "exponent": 2.0, "peel_index": 0}
    assert entry["evidence"] == {"step_deviation": 0.0, "exponent_spread": 0.0, "residual_rms": 1e-15}


def test_recover_spectrum_snaps_tiny_negative_lead():
    summary = recover_spectrum([_report(-1e-10)], n=1, gamma=0.0, k=2)
    assert summary.lambdas() == [0.0]
    summary = recover_spectrum([_report(-1e-6)], n=1, gamma=0.0, k=2)
    assert summary.recovered == ()
    assert "negative leading exponent" in summary.flagged[0]["reason"]


def test_reports_jsonl_round_trip():
    reports = [_report(1.5), _report(3.5, mode_j=2, step=2.0000001)]
    text = reports_to_jsonl(reports)
    assert text.splitlines()[0].startswith('{"generator"')
    back = reports_from_jsonl(text)
    assert back == reports
    incomplete = text.replace('"residual_rms"', '"rms"')
    with pytest.raises(ScenarioError, match="lacks residual_rms"):
        reports_from_jsonl(incomplete)


def test_solved_mode_exponent(bump12):
    problem = ModeProblem(n=2, lam=-6.0, t=1.0, profile=bump12)
    sol = heat_mode(problem, default_grid())
    report = peel_exponents(sol.x, sol.values)
    assert report.exponent == pytest.approx(2.0, abs=1e-12)
    assert report.step == pytest.approx(2.0, abs=1e-8)
    assert report.residual_rms < 1e-13


def _solved(problem):
    sol = heat_mode(problem, default_grid())
    return sol.x, sol.values


@pytest.mark.parametrize("n, lam", [(1, 0.0), (1, -4.0), (1, -16.0), (2, -2.0), (3, -3.0)])
def test_ladder_matches_small_x_series(n, lam):
    """e0 and the lower c_q of the fit match the exact small-x expansion
    over a grid of times and source profiles; the top rung also absorbs the
    truncated tail of the series, so it is not compared."""
    for t in (0.5, 1.0, 2.0):
        for profile in (RadialProfile("bump", 1.0, 2.0), RadialProfile("gaussian", 0.8, 2.2),
                        RadialProfile("indicator", 1.2, 1.8)):
            problem = ModeProblem(n=n, lam=lam, t=t, profile=profile)
            report = peel_exponents(*_solved(problem))
            series = heat_small_x_series(problem, num_terms=3)
            assert report.exponent == pytest.approx(series[0][0], abs=1e-12)
            assert report.step == pytest.approx(2.0, abs=1e-6)
            for (_, exact), fitted, rel in zip(series, report.coefficients, (1e-9, 1e-6, 1e-3)):
                assert fitted == pytest.approx(exact, rel=rel)


@pytest.mark.parametrize("decades, t", [((-3, 0), 1.0), ((-4, -1), 0.1), ((-4, -1), 0.01)])
def test_fit_drops_decades_the_ladder_cannot_reach(bump12, decades, t):
    """Where x y / 4t is not small on the upper decades, the four-term
    ladder misses the data there; the fit drops half decades from the top
    until its rms is at the noise level, keeps at least one decade, and
    e0 stays exact."""
    tops = []
    for j in range(4):
        sol = heat_mode(ModeProblem(n=1, lam=-4.0 * j * j, t=t, profile=bump12), default_grid(decades))
        report = peel_exponents(sol.x, sol.values)
        assert report.window[0] == sol.x[0]
        assert report.window[1] >= 10 * sol.x[0] * (1 - 1e-9)
        assert report.residual_rms <= recovery.RMS_TOL
        assert report.exponent == pytest.approx(2.0 * j, abs=1e-11)
        assert report.step == pytest.approx(2.0, abs=recovery.STEP_TOL)
        tops.append(report.window[1] / sol.x[-1])
    assert min(tops) < 0.5


def test_off_ladder_term_is_flagged(bump12):
    """An x^(e0 + 1.5) term of relative size 3e-2 at x = 0.1, added at every
    t, is not on the paper's ladder: the mode is flagged, not recovered."""
    reports = []
    for t in (0.5, 1.0, 2.0):
        x, v = _solved(ModeProblem(n=1, lam=-4.0, t=t, profile=bump12))
        extra = 3e-2 * v[-1] * (x / x[-1]) ** 3.5
        reports.append(peel_exponents(x, v + extra)._replace(mode_j=1, t=t))
    summary = recover_spectrum(reports, n=1, gamma=0.0, k=3)
    assert summary.recovered == ()
    assert [f["mode_j"] for f in summary.flagged] == [1]
    assert "step_deviation" in summary.flagged[0]["reason"]
    assert "residual_rms" in summary.flagged[0]["reason"]
