"""Model-cone heat and resolvent solvers against independent checks."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from coneasym.conesolve import (
    ModeProblem,
    RadialProfile,
    csv_to_series,
    default_grid,
    heat_mode,
    heat_small_x_series,
    resolvent_mode,
    resolvent_residual,
    sectorial_sweep,
    solutions_to_csv,
)
from coneasym.errors import BadMultiplicity, DomainError, QuadratureFailure, ScenarioError, SpectrumRay
from coneasym import _kernels, conesolve
from coneasym._kernels import adaptive, heat_quadrature, heat_rows, heat_series


def _panel_nodes(edges):
    """Nodes and weights of 16-point Gauss-Legendre panels on consecutive edges."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    c, h = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    return (c[:, None] + h[:, None] * nodes).ravel(), (h[:, None] * weights).ravel()


def test_profile_shapes():
    bump = RadialProfile("bump", 1.0, 2.0)
    xs = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    vals = bump(xs)
    assert vals[0] == vals[1] == vals[3] == vals[4] == 0.0
    assert vals[2] == pytest.approx(1.0)

    box = RadialProfile("indicator", 1.0, 2.0)
    assert list(box(xs)) == [0.0, 0.0, 1.0, 0.0, 0.0]

    with pytest.raises(ScenarioError):
        RadialProfile("bump", 2.0, 1.0)
    with pytest.raises(ScenarioError):
        RadialProfile("bump", 0.0, 1.0)
    with pytest.raises(ScenarioError):
        RadialProfile("triangle", 1.0, 2.0)
    for bad in ({"hi": math.inf}, {"lo": math.nan}, {"center": math.inf}, {"width": math.nan}):
        with pytest.raises(ScenarioError):
            RadialProfile(**dict({"shape": "gaussian", "lo": 1.0, "hi": 2.0}, **bad))


def _bump_reference(lo, hi, xi):
    """The bump at the float xi from the exact rational 1 - u^2 of the float
    inputs: exp(m) for m = 1 - 1/(1 - u^2), taken as exp(float(m)) times
    1 + (the exact remainder), which is far below 1 ulp of m."""
    lo, hi, xi = Fraction(lo), Fraction(hi), Fraction(xi)
    m = 1 - (hi - lo) ** 2 / (4 * (xi - lo) * (hi - xi))
    return math.exp(float(m)) * (1.0 + float(m - Fraction(float(m))))


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (4.636363636363637, 10.903846153846153)])
def test_bump_accurate_near_its_edges(lo, hi):
    """At gaps of 1e-3 to 0.5 of the width from either edge the bump is
    within 1e-12 relative of its exact value.  Forming 1 - u^2 directly
    loses up to about 1e-11 to cancellation at a gap of 1e-3 W."""
    bump, width = RadialProfile("bump", lo, hi), hi - lo
    gaps = np.geomspace(1e-3, 0.5, 400)
    xs = np.concatenate([lo + gaps * width, hi - gaps * width])
    ref = np.array([_bump_reference(lo, hi, x) for x in xs])
    assert np.max(np.abs(bump(xs) - ref) / ref) <= 1e-12


@pytest.mark.parametrize("lo, hi", [(1e-3, 1e3), (1e-300, 1e-299), (1.0, 1e250)])
def test_bump_vanishes_next_to_its_edges_without_warnings(lo, hi):
    """The floats next to each edge give 0, and the support's midpoint 1,
    with no divide-by-zero or overflow warning: 1 - u^2 rounds to 0 there,
    and a support this wide or narrow would overflow or underflow the
    squared width."""
    bump = RadialProfile("bump", lo, hi)
    xs = np.array([np.nextafter(lo, hi), np.nextafter(hi, lo), 0.5 * lo + 0.5 * hi])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = bump(xs)
    assert vals[0] == vals[1] == 0.0 and vals[2] == 1.0


@pytest.mark.parametrize("profile", [
    RadialProfile("bump", 1.0, 2.0),
    RadialProfile("bump", 4.636363636363637, 10.903846153846153),
    RadialProfile("gaussian", 1.0, 3.0, 1.7, 0.4),
    RadialProfile("indicator", 0.5, 4.0),
], ids=["bump", "bump-benchmark", "gaussian", "indicator"])
def test_profile_interior_matches_call(profile):
    """On points inside the support (Gauss-Legendre nodes of panels down to
    2^-20 of the width, the floats next to each edge and a fine uniform
    grid) the unmasked interior evaluation equals the masked call bit for
    bit, on the nodes' (panels, 16) shape as on a flat array; the bump's
    hold on its edge distances leaves the unheld formula's bits there."""
    lo, hi = profile.lo, profile.hi
    edges = lo + (hi - lo) * np.concatenate([[0.0], np.geomspace(2.0**-20, 1.0, 41)])
    nodes = np.concatenate([_panel_nodes(edges)[0], _panel_nodes(hi - (edges - lo))[0]])
    xs = np.concatenate([nodes, [np.nextafter(lo, hi), np.nextafter(hi, lo)], np.linspace(lo, hi, 1001)[1:-1]])
    assert np.all((xs > lo) & (xs < hi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(profile.interior(xs), profile(xs))
        grid = nodes.reshape(-1, 16)
        assert np.array_equal(profile.interior(grid), profile(grid))
    if profile.shape == "bump":
        h = 0.5 * (hi - lo)
        assert np.array_equal(profile.interior(xs), np.exp(1.0 - (h / (xs - lo)) * (h / (hi - xs))))


def test_mode_problem_rejects_non_finite(bump12):
    for t, lam in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ScenarioError):
            ModeProblem(n=1, lam=lam, t=t, profile=bump12)


def _heat_residual(n, lam, ts, xs, values):
    """max |u_t - L u| over the interior of a uniform (t, x) grid: u_t by
    the fourth-order stencil in t, L u from resolvent_residual at resolvent
    parameter 0 with source -u_t, one interior time row at a time."""
    u_t = conesolve._d1(values, ts[1] - ts[0])
    return max(resolvent_residual(n, lam, 0.0, xs, u, -du) for u, du in zip(values[2:-2], u_t))


def test_exact_self_similar_solution_satisfies_pde():
    """t^(-(n+1)/2) exp(-x^2/4t) solves the lam = 0 radial heat equation."""
    for n in (1, 2, 3):
        ts = np.linspace(0.5, 1.5, 201)
        xs = np.linspace(0.5, 2.0, 151)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        values = tt ** (-0.5 * (n + 1)) * np.exp(-xx * xx / (4.0 * tt))
        assert _heat_residual(n, 0.0, ts, xs, values) < 1e-6


def test_solver_output_satisfies_pde(bump12):
    ts = np.linspace(0.8, 1.2, 41)
    xs = np.linspace(0.5, 1.0, 51)
    values = np.array([heat_mode(ModeProblem(n=1, lam=-4.0, t=float(t), profile=bump12), xs).values
                       for t in ts])
    assert _heat_residual(1, -4.0, ts, xs, values) < 5e-6


def test_mass_is_conserved():
    """For the constant mode (lam = 0, n = 1) heat flow keeps the mass
    against the cone measure x dx: the solution's integral over
    (0, hi + 40 sqrt(t)], by 32 fixed 16-node panels, equals the source's."""
    for profile in (RadialProfile("bump", 1.0, 2.0),
                    RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3),
                    RadialProfile("indicator", 0.9, 1.6)):
        xi, wts = _panel_nodes(np.linspace(profile.lo, profile.hi, 201))
        source = math.fsum(wts * profile(xi) * xi)
        for t in (0.05, 0.7, 3.0):
            x, w = _panel_nodes(np.linspace(0.0, profile.hi + 40.0 * math.sqrt(t), 33))
            a = heat_mode(ModeProblem(n=1, lam=0.0, t=t, profile=profile), x, rel_tol=1e-12).values
            assert abs(math.fsum(w * a * x) - source) <= 1e-12 * source, (profile.shape, t)


def test_small_x_series_bridges_solver(bump12):
    problem = ModeProblem(n=1, lam=-2.25, t=1.0, profile=bump12)
    xs = np.geomspace(1e-4, 1e-3, 9)
    sol = heat_mode(problem, xs)
    series = heat_small_x_series(problem, num_terms=3)
    predicted = sum(c * xs**e for e, c in series)
    rel = np.max(np.abs(predicted - sol.values) / np.abs(sol.values))
    assert rel < 1e-8


def test_small_x_series_leading_exponent(bump12):
    problem = ModeProblem(n=2, lam=-6.0, t=0.5, profile=bump12)
    series = heat_small_x_series(problem)
    assert series[0][0] == pytest.approx(2.0)  # -mu_2 for S^2-like mode
    assert series[1][0] == pytest.approx(4.0)


def test_heat_mode_validates_grid(bump12):
    problem = ModeProblem(n=1, lam=0.0, t=1.0, profile=bump12)
    for bad in ([-1.0, 1.0], [], [0.5, math.inf], [math.nan]):
        with pytest.raises(ScenarioError):
            heat_mode(problem, np.array(bad))


def test_heat_mode_rejects_bad_rel_tol(bump12):
    problem = ModeProblem(n=1, lam=0.0, t=1.0, profile=bump12)
    for bad in (math.nan, math.inf, 0.0, -1e-9):
        with pytest.raises(ScenarioError):
            heat_mode(problem, np.array([0.5]), rel_tol=bad)


def test_heat_mode_rejects_order_above_bessel_range(bump12):
    """nu = sqrt(4000) = 63.2 is past besselkit's order bound of 60."""
    problem = ModeProblem(n=1, lam=-4000.0, t=0.5, profile=bump12)
    with pytest.raises(DomainError):
        heat_mode(problem, np.array([0.5, 1.5]))


def test_heat_mode_tolerance_failure(bump12, monkeypatch):
    """With one bisection allowed, rel_tol 1e-15 is out of reach."""
    monkeypatch.setattr(conesolve, "_MAX_DEPTH", 1)
    problem = ModeProblem(n=1, lam=0.0, t=1.0, profile=bump12)
    with pytest.raises(QuadratureFailure, match="within depth 1"):
        heat_mode(problem, np.array([0.5]), rel_tol=1e-15)


@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_solvers_reject_a_dimension_below_one(bump12, n):
    """ModeProblem and resolvent_mode check the cross-section dimension by
    spectra's rule: a spectrum error (exit 10), not a silent solve or an
    untyped TypeError from the indicial roots."""
    with pytest.raises(BadMultiplicity, match="dimension must be a positive integer"):
        ModeProblem(n=n, lam=-4.0, t=1.0, profile=bump12)
    with pytest.raises(BadMultiplicity, match="dimension must be a positive integer"):
        resolvent_mode(n, -4.0, 1.0 + 1.0j, bump12, np.array([1.5]))


@pytest.mark.parametrize("profile", [
    RadialProfile("bump", 1.0, 2.0),
    RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3),
], ids=["bump", "gaussian"])
def test_heat_rows_matches_dense_oracle(profile, ive_oracle):
    """Adaptive panels with scipy's ive against a dense fixed-panel sum of
    the kernel through the plain-Python ive (tests/conftest.py): 200
    panels x 16 nodes over the support."""
    xi, wts = _panel_nodes(np.linspace(profile.lo, profile.hi, 201))
    wts = wts * profile(xi)
    xs = np.append(default_grid(decades=(-3, 0), points_per_decade=1), 1.5)
    for nu, n, t in ((1.5, 1, 1.0), (0.0, 1, 0.3), (2.5, 2, 2.0), (4.0, 3, 0.7)):
        values, _, _, ok = heat_rows(nu, n, t, xs, profile, 1e-12, 20)
        assert ok.all()
        dense = [sum(w * (x * s) ** (0.5 * (1 - n)) / (2 * t) * math.exp(-(x - s) ** 2 / (4 * t))
                     * ive_oracle(nu, x * s / (2 * t)) * s**n for w, s in zip(wts, xi))
                 for x in xs]
        assert np.max(np.abs(values - dense) / np.abs(dense)) <= 1e-12


@pytest.mark.parametrize("nu, n, t, profile, rel_tol, max_depth", [
    (1.5, 1, 1.0, RadialProfile("bump", 1.0, 2.0), 1e-9, 20),
    (0.0, 1, 0.05, RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3), 1e-9, 20),
    (2.5, 2, 2.0, RadialProfile("indicator", 0.9, 1.6), 1e-9, 20),
    (4.0, 3, 0.05, RadialProfile("bump", 1.0, 2.0), 1e-11, 4),  # x = 4.0 stops unconverged at depth 4
    # series up to x = 0.5 (z = x hi / (4t) = 25), quadrature above
    (2.0, 2, 0.01, RadialProfile("indicator", 1.0, 2.0), 1e-11, 20),
    (4.0, 3, 0.01, RadialProfile("bump", 1.0, 2.0), 1e-11, 4),  # 2 of 13 quadrature points stop unconverged at depth 4
], ids=["bump", "gaussian", "indicator", "depth-4", "straddle-indicator", "straddle-depth-4"])
def test_heat_rows_independent_of_batch(nu, n, t, profile, rel_tol, max_depth):
    """Each point alone, all points together and in reverse order give
    bit-identical values and the same panel counts."""
    xs = np.concatenate([np.geomspace(1e-3, 0.9, 12), np.linspace(1.05, 1.95, 10), [2.5, 4.0]])
    together = heat_rows(nu, n, t, xs, profile, rel_tol, max_depth)
    reverse = heat_rows(nu, n, t, xs[::-1], profile, rel_tol, max_depth)
    alone = [heat_rows(nu, n, t, xs[i:i + 1], profile, rel_tol, max_depth) for i in range(xs.size)]
    for k in range(4):
        assert np.array_equal(together[k], reverse[k][::-1])
        assert np.array_equal(together[k], np.concatenate([r[k] for r in alone]))


_SERIES_PROFILES = [
    RadialProfile("bump", 1.0, 2.0),
    RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3),
    RadialProfile("indicator", 0.9, 1.6),
]


@pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("profile", _SERIES_PROFILES, ids=["bump", "gaussian", "indicator"])
def test_series_matches_quadrature(profile, t):
    """The ascending series against the adaptive quadrature at rel_tol
    1e-13, for n = 1..3 and nu up to 10, at points below, inside and above
    the support wherever z = x hi / (4t) is in the series regime: within
    1e-13 relative, and every gap within the sum of the two error
    estimates."""
    lo, hi = profile.lo, profile.hi
    xs = np.concatenate([np.geomspace(1e-3, 0.9 * lo, 6), np.linspace(lo, hi, 7)[1:-1], hi * np.array([1.1, 1.5, 2.5])])
    xs = xs[xs * hi / (4.0 * t) <= _kernels._SERIES_Z]
    for n, nu in ((1, 0.0), (1, 10.0), (2, 0.5), (2, 6.5), (3, 1.0), (3, 4.0)):
        values, errs = heat_series(nu, n, t, xs, profile)
        ref, ref_errs, _, ok = heat_quadrature(nu, n, t, xs, profile, 1e-13, 30)
        assert ok.all()
        gap = np.abs(values - ref)
        assert np.max(gap / ref) <= 1e-13, (n, nu)
        assert np.all(gap <= errs + ref_errs), (n, nu)


def _terms_by_the_rule(nu, z):
    """The series length rule term by term: the first K with
    r_K = z^2 / ((K+1)(nu+K+1)) <= 1/2 and
    log(z^2K Gamma(nu+1) / (K! Gamma(nu+K+1))) <= log _SERIES_TAIL."""
    k = 1
    while not (z * z / ((k + 1) * (nu + k + 1)) <= 0.5 and 2 * k * math.log(z) - math.lgamma(k + 1)
               - math.lgamma(nu + k + 1) + math.lgamma(nu + 1) <= math.log(_kernels._SERIES_TAIL)):
        k += 1
    return k


@given(nu=st.floats(0.0, 60.0), zs=st.lists(st.floats(0.0, 25.0, exclude_min=True), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_series_length_follows_its_rule(nu, zs):
    """Each point's term count is the rule's, and lg holds
    log(m! Gamma(nu+m+1)) for every m up to the largest count."""
    terms, lg = _kernels._series_length(nu, np.array(zs))
    assert terms.tolist() == [_terms_by_the_rule(nu, z) for z in zs]
    assert lg.tolist() == [math.lgamma(m + 1) + math.lgamma(nu + m + 1) for m in range(max(terms) + 1)]


@pytest.mark.parametrize("nu, n, t, profile", [
    (0.0, 1, 1.0, RadialProfile("bump", 1.0, 2.0)),
    (2.5, 2, 0.05, RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3)),
    (7.0, 3, 1e-4, RadialProfile("indicator", 0.9, 1.6)),
], ids=["floor", "mid", "cap"])
def test_heat_moments_do_not_depend_on_count(nu, n, t, profile):
    """Moment m and its error bound are bit-identical whatever the count
    asked for, so a point's series does not depend on the largest term
    count in its batch."""
    for count in range(1, 13):
        short = _kernels.heat_moments(nu, n, t, profile, count)
        longer = _kernels.heat_moments(nu, n, t, profile, count + 5)
        assert all(np.array_equal(a, b[:count]) for a, b in zip(short, longer)), count


def test_moment_rule_is_a_bounded_read_only_memo():
    """The moment rule for a panel count is built once and refuses writes;
    the memo is bounded.  Both of its rules integrate u^k on [0, 1] for
    k < 32 to rounding."""
    nodes, weights, split = _kernels._moment_rule(48)
    assert _kernels._moment_rule(48)[0] is nodes
    assert (split, nodes.size, weights.size) == (16 * 48, 16 * 72, 16 * 72)
    assert _kernels._moment_rule.cache_info().maxsize <= 32
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    for part in (slice(0, split), slice(split, None)):
        moments = [np.sum(weights[part] * nodes[part] ** k) for k in range(32)]
        assert np.allclose(moments, 1.0 / np.arange(1, 33), rtol=1e-14, atol=0)


def test_heat_rows_takes_the_series_where_it_converges(bump12):
    """Points in the series regime take heat_series's values and report 0
    panels; the others take heat_quadrature's, as if solved alone."""
    nu, n, t = 1.0, 1, 0.05
    xs = np.array([1e-3, 0.5, 1.5, 2.5, 4.0])  # z = x hi / (4t) = 0.01 ... 40
    series = xs * bump12.hi / (4.0 * t) <= _kernels._SERIES_Z
    assert series.any() and not series.all()
    values, errs, panels, ok = heat_rows(nu, n, t, xs, bump12, 1e-9, 20)
    assert ok.all() and np.array_equal(panels == 0, series)
    assert np.array_equal(values[series], heat_series(nu, n, t, xs[series], bump12)[0])
    assert np.array_equal(values[~series], heat_quadrature(nu, n, t, xs[~series], bump12, 1e-9, 20)[0])


def test_heat_rows_verdict_is_the_summed_error(bump12):
    """A point has converged when its summed error estimate is within
    rel_tol, even if some of its panels stopped at max_depth above their
    share of the budget.  Of 512 points on (0, 10.9] at t = 0.05 and
    rel_tol 1e-13, these three have such panels (their panel counts still
    grow with max_depth) and estimates of at most 3.8e-15 relative."""
    xs = np.linspace(10.9 / 512, 10.9, 512)[[372, 373, 508]]
    values, errs, panels, ok = heat_rows(0.0, 1, 0.05, xs, bump12, 1e-13, 20)
    assert np.all(panels > 0)
    assert ok.all() and np.all(errs <= 1e-13 * values)


@pytest.mark.parametrize("profile, t, xs, expected", [
    (RadialProfile("bump", 1.0, 2.0), 1e-4, [10**-0.25, 2.5], None),
    (RadialProfile("indicator", 1.0, 5.0), 1e-6, [1.5, 3.0], 1.0),
    pytest.param(RadialProfile("indicator", 1.0, 5.0), 1e-6, [2.0, 4.0], 1.0, marks=pytest.mark.xfail(
        strict=True, reason="the Gaussian, about 2e-3 wide, falls between every node of the whole-support panel "
                            "and of its halves, so the engine accepts 0 as converged at 2 panels")),
], ids=["bump-tail", "indicator-inside", "indicator-peak-between-nodes"])
def test_heat_mode_small_t_points_take_bounded_work(profile, t, xs, expected):
    """At small t the solution's Gaussian is far narrower than the support.
    Each point's budget follows its own running estimate, so tail values
    (1e-229 and 1e-294 at t = 1e-4) and values of about 1 deep inside an
    indicator at t = 1e-6 converge at the default rel_tol and depth within
    64 panels a point."""
    xs = np.array(xs)
    values, errs, panels, ok = heat_rows(0.0, 1, t, xs, profile, 1e-9, 20)
    assert ok.all() and np.all(errs <= 1e-9 * values)
    assert panels.max() <= 64, panels
    sol = heat_mode(ModeProblem(n=1, lam=0.0, t=t, profile=profile), xs)
    assert np.array_equal(sol.values, values)
    if expected is not None:
        assert np.all(np.abs(values - expected) <= 1e-8), values


@pytest.mark.parametrize("t, x", [(1e-9, 1.5), (1e-6, 3000.0)])
def test_non_finite_heat_kernel_stops_and_raises_domain_error(bump12, t, x):
    """scipy.special.ive returns nan past w = x xi / (2t) of about 1.0965e9.
    The quadrature then stops at once, where it refined every panel to
    max_depth (2,097,152 panels), and heat_mode names the point and the
    range with a DomainError, not a QuadratureFailure."""
    values, _, panels, ok = heat_rows(0.5, 1, t, np.array([x]), bump12, 1e-9, 20)
    assert panels[0] <= 64 and not ok[0] and np.isnan(values[0])
    with pytest.raises(DomainError, match=rf"x = \[{x}\].*1\.0965e9"):
        heat_mode(ModeProblem(n=1, lam=-0.25, t=t, profile=bump12), [x])


def test_heat_rows_random_small_t_stress():
    """Fixed-seed random calls: t log-uniform on [1e-6, 3], all three
    shapes on random supports, nu in [0, 20], n 1-3, rel_tol 1e-6 or 1e-9,
    points below, inside and past the support.  Every point converges
    within 2,000 panels."""
    rng = np.random.default_rng(19)
    for _ in range(40):
        lo = rng.uniform(0.2, 3.0)
        hi = lo + rng.uniform(0.2, 3.0)
        shape = rng.choice(["bump", "gaussian", "indicator"])
        profile = RadialProfile(str(shape), lo, hi, center=rng.uniform(lo, hi), width=rng.uniform(0.1, 1.0))
        t = 10.0 ** rng.uniform(-6.0, math.log10(3.0))
        nu, n, rel_tol = rng.uniform(0.0, 20.0), int(rng.integers(1, 4)), float(rng.choice([1e-6, 1e-9]))
        xs = np.sort(np.concatenate([10.0 ** rng.uniform(-3.0, math.log10(lo), 2),
                                     rng.uniform(lo, hi, 4), rng.uniform(hi, 2.0 * hi, 2)]))
        _, _, panels, ok = heat_rows(nu, n, t, xs, profile, rel_tol, 20)
        assert ok.all() and panels.max() <= 2000, (shape, lo, hi, t, nu, n, rel_tol, xs, panels, ok)


@pytest.mark.parametrize("profile, nu, n, t, xs, max_panels", [
    (RadialProfile("bump", 2.977580674236194, 3.6318206352937787), 10.11588705637514, 1, 5.168197346985365e-06,
     [3.6333503975359687, 3.6445610498360534], 200),
    (RadialProfile("bump", 2.1300772564145203, 3.434079936027001), 5.812118155364853, 3, 1.4659681662432642e-06,
     [3.4498666423601763], None),
], ids=["past-upper-edge", "unconverged-past-upper-edge"])
def test_heat_rows_near_bump_edge_converge(profile, nu, n, t, xs, max_panels):
    """Points just past a bump's upper edge at small t and rel_tol 1e-12,
    where the solution's Gaussian sees only the bump's flat tail.  While
    the bump carried rounding noise at its edges, the first two points
    took 13,634 and 15,680 panels and the third stopped unconverged after
    6,612.  Now all three converge, the first two within 200 panels."""
    values, errs, panels, ok = heat_rows(nu, n, t, np.array(xs), profile, 1e-12, 20)
    assert ok.all() and np.all(errs <= 1e-12 * values), (values, errs)
    if max_panels is not None:
        assert panels.max() <= max_panels, panels


def test_adaptive_bounds_block_size():
    """A level wider than the block goes to the integrand in several calls,
    none larger than the block, with the results of one task at a time."""
    xs, t = np.linspace(1.2, 1.8, 400), 2e-4
    sizes = []

    def fn(rows, xi):
        sizes.append(rows.size)
        x = xs[rows, None]
        return np.exp(-((x - xi) ** 2) / (4 * t)) * special.ive(0.5, x * xi / (2 * t)) * xi / (2 * t)

    a, b = np.ones(xs.size), np.full(xs.size, 2.0)
    value, err, panels = adaptive(fn, a, b, 1e-12, 20)
    assert max(sizes) == _kernels._BLOCK and np.all(err <= 1e-12 * value)
    for i in range(0, xs.size, 7):
        one = adaptive(lambda rows, xi: fn(rows + i, xi), a[i:i + 1], b[i:i + 1], 1e-12, 20)
        assert (one[0][0], one[1][0], one[2][0]) == (value[i], err[i], panels[i])


def test_adaptive_start_level_is_one_integrand_call():
    """Each task's start panel and its two halves go to the integrand in one
    call: tasks that converge at the start level (a cubic, which every
    16-point panel integrates exactly) cost one call, where evaluating the
    start panel and its halves apart took two."""
    calls = []

    def fn(rows, xi):
        calls.append(rows.size)
        return xi**3

    a, b = np.array([0.0, 1.0, -2.0]), np.array([1.0, 3.0, 2.0])
    value, err, panels = adaptive(fn, a, b, 1e-12, 20)
    assert calls == [9]
    assert value == pytest.approx((b**4 - a**4) / 4, rel=1e-14, abs=1e-14)
    assert panels.tolist() == [2, 2, 2]


def test_default_grid():
    grid = default_grid()
    assert grid.size == 49
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1e-1)


def test_csv_round_trip(bump12):
    problem = ModeProblem(n=1, lam=-4.0, t=1.0, profile=bump12)
    sol = heat_mode(problem, np.geomspace(1e-3, 1e-1, 7))
    [(mode_j, t, x, v)] = csv_to_series(solutions_to_csv([(1, sol)]))
    assert (mode_j, t) == (1, 1.0)
    assert np.array_equal(x, sol.x) and np.array_equal(v, sol.values)  # %.17g round-trips doubles exactly


def test_resolvent_residual_small(bump12):
    lam = 2.0 + 1.0j
    xs = np.linspace(1.2, 1.8, 601)
    sol = resolvent_mode(1, -4.0, lam, bump12, xs)
    res = resolvent_residual(1, -4.0, lam, xs, sol.values, bump12(xs))
    assert res < 1e-7


def test_resolvent_regular_branch_at_origin(bump12):
    """Below the support the solution is a multiple of the regular branch
    x^((1-n)/2) I_nu, so log-slope at 0 is -mu = nu - (n-1)/2."""
    xs = np.geomspace(1e-6, 1e-5, 5)
    sol = resolvent_mode(1, -4.0, 3.0 + 0.0j, bump12, xs)
    slopes = np.diff(np.log(np.abs(sol.values))) / np.diff(np.log(xs))
    assert np.allclose(slopes, 2.0, atol=1e-6)


def test_resolvent_decays_past_support(bump12):
    xs = np.array([2.5, 3.5, 5.0, 8.0])
    sol = resolvent_mode(1, -4.0, 1.0 + 1.0j, bump12, xs)
    mags = np.abs(sol.values)
    assert np.all(np.diff(mags) < 0)


def _resolvent_oracle(n, lam_mode, lam, profile, xs, panels=200):
    """The resolvent by dense fixed panels, in log space: log phi and log psi
    from scipy's ive and kve with their exponentials added back as logs,
    and each integral shifted by its branch's larger end value."""
    nu = math.sqrt(0.25 * (n - 1) ** 2 - lam_mode)
    sq = cmath.sqrt(lam)

    def log_phi(x):
        return 0.5 * (1 - n) * np.log(x) + np.log(special.ive(nu, sq * x)) + sq.real * x

    def log_psi(x):
        return 0.5 * (1 - n) * np.log(x) + np.log(special.kve(nu, sq * x)) - sq * x

    def log_integral(log_branch, a, b):
        shift = np.max(log_branch(np.array([a, b])).real)
        xi, wts = _panel_nodes(np.linspace(a, b, panels + 1))
        return shift + cmath.log(np.sum(wts * np.exp(log_branch(xi) - shift) * profile(xi) * xi**n))

    lo, hi = profile.lo, profile.hi
    out = []
    for x in xs:
        if x <= lo:
            out.append(cmath.exp(log_phi(x) + log_integral(log_psi, lo, hi)))
        elif x >= hi:
            out.append(cmath.exp(log_psi(x) + log_integral(log_phi, lo, hi)))
        else:
            out.append(cmath.exp(log_psi(x) + log_integral(log_phi, lo, x))
                       + cmath.exp(log_phi(x) + log_integral(log_psi, x, hi)))
    return np.array(out)


@pytest.mark.parametrize("n, lam_mode, lam", [
    (1, -4.0, 2.0 + 1.0j),
    (2, -6.0, 10.0 * np.exp(0.75j * np.pi)),
    (3, -1.5, 100.0 * np.exp(-0.75j * np.pi)),
], ids=["n1-lam2+i", "n2-ray3pi/4", "n3-mod100"])
def test_resolvent_matches_dense_oracle(bump12, n, lam_mode, lam):
    """Below, inside (one point 0.05% of the width above lo) and past the
    support, against 200 fixed panels per integral."""
    xs = np.array([0.3, 0.9, 1.0005, 1.3, 1.7, 1.99, 2.6])
    sol = resolvent_mode(n, lam_mode, lam, bump12, xs)
    oracle = _resolvent_oracle(n, lam_mode, lam, bump12, xs)
    assert np.max(np.abs(sol.values - oracle) / np.abs(oracle)) <= 1e-10


def test_resolvent_independent_of_batch(bump12):
    """Each point solved alone gives the values of all points together."""
    xs = np.array([0.05, 1.0, 1.0007, 1.25, 1.5, 1.9993, 2.0, 3.0])
    lam = 10.0 * np.exp(0.75j * np.pi)
    together = resolvent_mode(2, -2.0, lam, bump12, xs)
    alone = [resolvent_mode(2, -2.0, lam, bump12, xs[i:i + 1]) for i in range(xs.size)]
    assert np.array_equal(together.values, np.concatenate([s.values for s in alone]))


def test_resolvent_rejects_bad_input(bump12):
    for lam, xs in ((complex(math.nan, 1.0), [1.5]), (complex(1.0, math.inf), [1.5]),
                    (-math.inf, [1.5]), (1.0 + 1.0j, [1.5, math.nan]),
                    (1.0 + 1.0j, [math.inf]), (1.0 + 1.0j, [])):
        with pytest.raises(ScenarioError):
            resolvent_mode(1, -4.0, lam, bump12, np.array(xs))
    with pytest.raises(ScenarioError):
        resolvent_mode(1, math.nan, 1.0 + 1.0j, bump12, np.array([1.5]))


def test_resolvent_argument_outside_bessel_box(bump12):
    """|sqrt(lam) x| = 10010 > 1e4 on a point past the support, where only
    the decaying branch K is evaluated."""
    with pytest.raises(DomainError):
        resolvent_mode(1, -4.0, 100.0, bump12, np.array([1.5, 1001.0]))


@pytest.mark.parametrize("lam", [1e5, 3e5], ids=["k-underflow", "i-overflow"])
def test_resolvent_past_unscaled_range(bump12, lam):
    """At lam = 1e5, K_nu(sqrt(lam) x) underflows at x = 3 (|z| = 949)
    while the integral of phi f reaches 1e264, yet their product, about
    4e-150, is representable.  At lam = 3e5, sqrt(lam) xi reaches 1095 on
    the support, where I_nu itself overflows.  Both stay inside the Bessel
    box."""
    xs = np.array([1.5, 3.0])
    sol = resolvent_mode(1, -4.0, lam, bump12, xs)
    oracle = _resolvent_oracle(1, -4.0, lam, bump12, xs)
    assert np.max(np.abs(sol.values - oracle) / np.abs(oracle)) <= 1e-10


def _count_bessel_nodes(monkeypatch):
    """A list that collects the size of every bessel_i and bessel_k call of
    conesolve from now on."""
    sizes = []

    def counted(fn):
        def wrapped(nu, z):
            sizes.append(np.size(z))
            return fn(nu, z)
        return wrapped

    monkeypatch.setattr(conesolve, "bessel_i", counted(conesolve.bessel_i))
    monkeypatch.setattr(conesolve, "bessel_k", counted(conesolve.bessel_k))
    return sizes


@pytest.mark.parametrize("n, lam_mode, lam, lo, hi, edge, gap", [
    (1, -15 / 7, 1.0, 4.636363636363637, 10.903846153846153, "lower", 1.65e-3),
    (2, -30 / 7, 10.0, 4.7727272727272725, 11.307692307692308, "upper", 9.75e-4),
], ids=["lower-edge", "upper-edge"])
def test_resolvent_near_edge_work_is_bounded(monkeypatch, n, lam_mode, lam, lo, hi, edge, gap):
    """The benchmark's sweep grid, geomspace(1e-3, 2 hi, 160), with the
    point nearest one bump edge moved to a gap of about 1e-3 of the width.
    The sliver between that point and the edge took 2,262 and 3,778
    adaptive panels while the bump carried rounding noise there; now the
    cell fits do not read the points, so the moved grid evaluates exactly
    the Bessel nodes of the unmoved one (887 and 1,218), and the edge point
    and its neighbours match the dense oracle."""
    xs = np.geomspace(1e-3, 2.0 * hi, 160)
    inside = np.flatnonzero((xs > lo) & (xs < hi))
    k = inside[0] if edge == "lower" else inside[-1]
    profile = RadialProfile("bump", lo, hi)
    nodes = _count_bessel_nodes(monkeypatch)
    resolvent_mode(n, lam_mode, lam, profile, xs)
    unmoved = sum(nodes)
    nodes.clear()
    xs[k] = lo + gap * (hi - lo) if edge == "lower" else hi - gap * (hi - lo)
    sol = resolvent_mode(n, lam_mode, lam, profile, xs)
    assert sum(nodes) == unmoved <= 1300, (sum(nodes), unmoved)
    near = xs[k - 1:k + 2]
    oracle = _resolvent_oracle(n, lam_mode, lam, profile, near)
    assert np.max(np.abs(sol.values[k - 1:k + 2] - oracle) / np.abs(oracle)) <= 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.75 * math.pi, -0.75 * math.pi], ids=["arg0", "arg3pi/4", "arg-3pi/4"])
@pytest.mark.parametrize("modulus", [1.0, 1e2, 1e4])
def test_resolvent_points_on_cell_edges(bump12, theta, modulus):
    """Points on every cell edge (lo and hi among them), 1e-3 of the width
    inside each edge, and on both sides of the support: a point on an edge
    reads the running sums there, so nothing warns, and each value matches
    the dense oracle and the point solved alone."""
    lo, hi = bump12.lo, bump12.hi
    edges = np.linspace(lo, hi, conesolve._CELLS + 1)
    gap = 1e-3 * (hi - lo)
    xs = np.concatenate([[0.5], edges, edges[:-1] + gap, edges[1:] - gap, [2.5]])
    lam = modulus * cmath.exp(1j * theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = resolvent_mode(2, -3.0, lam, bump12, xs)
        alone = np.concatenate([resolvent_mode(2, -3.0, lam, bump12, xs[i:i + 1]).values
                                for i in range(xs.size)])
    oracle = _resolvent_oracle(2, -3.0, lam, bump12, xs)
    assert np.max(np.abs(together.values - oracle) / np.abs(oracle)) <= 1e-10
    assert np.array_equal(together.values, alone)


def test_resolvent_points_on_cell_edges_take_no_remainder(monkeypatch, bump12):
    """The cell fits depend only on the support and lam, and a remainder is
    a series evaluation: points on all 6 cell edges, or one inside each
    cell, cost the Bessel nodes of the fits (those of a solve at one point
    below lo, less its phi) plus phi at each point below hi and psi at each
    point above lo.  With adaptive remainders, each point inside a cell
    took two more tasks."""
    lam = 10.0 * cmath.exp(0.75j * math.pi)
    edges = np.linspace(bump12.lo, bump12.hi, conesolve._CELLS + 1)
    nodes = _count_bessel_nodes(monkeypatch)
    resolvent_mode(2, -3.0, lam, bump12, np.array([0.5]))
    fits = sum(nodes) - 1
    for xs in (edges, 0.5 * (edges[:-1] + edges[1:])):
        nodes.clear()
        resolvent_mode(2, -3.0, lam, bump12, xs)
        assert sum(nodes) == fits + np.sum(xs < bump12.hi) + np.sum(xs > bump12.lo)


def test_resolvent_bessel_work_is_bounded(monkeypatch):
    """One resolvent_sweep op (160 points on geomspace(1e-3, 2 hi), bump on
    [5, 12.5], n = 2, lam = 10 e^(3 pi i / 4)) evaluates at most 1,000
    Bessel nodes.  With a task over [lo, x] and one over [x, hi] for every
    inner point it evaluated 7,983, on fixed cells with one adaptive
    remainder per point 2,895, and on Chebyshev fits 889 (the bound leaves
    12% for the chop rule)."""
    nodes = _count_bessel_nodes(monkeypatch)
    hi = 12.5
    resolvent_mode(2, -6.0, 10.0 * cmath.exp(0.75j * math.pi), RadialProfile("bump", 5.0, hi),
                   np.geomspace(1e-3, 2.0 * hi, 160))
    assert sum(nodes) <= 1000, sum(nodes)


@pytest.mark.parametrize("lam_mode, lam", [(-1e14, 1j), (-3.0, 1e300 * cmath.exp(0.75j * math.pi))],
                         ids=["order-1e7", "argument-1e150"])
def test_resolvent_refuses_order_and_argument_before_any_cell(monkeypatch, bump12, lam_mode, lam):
    """nu = 1e7 and |sqrt(lam)| hi = 2e150 lie outside besselkit's box:
    DomainError before any cell is made or any Bessel node evaluated,
    where about 0.27 nu ln(hi/lo) and Re sqrt(lam) W / 4 cells would
    otherwise be built first."""
    nodes = _count_bessel_nodes(monkeypatch)
    with pytest.raises(DomainError):
        resolvent_mode(2, lam_mode, lam, bump12, np.array([5.0]))
    assert nodes == []


_C, _W = 7.3, 8e-5  # a gaussian 1e-5 of its support [4, 12] wide


@pytest.mark.parametrize("lam_mode, profile, oracle_profile, xs", [
    (-3.0, RadialProfile("gaussian", 4.0, 12.0, _C, _W), RadialProfile("gaussian", _C - 30 * _W, _C + 30 * _W, _C, _W),
     np.array([1.0, 4.5, _C - 3 * _W, _C - 0.5 * _W, _C, _C + 0.7 * _W, _C + 2 * _W, 9.0, 12.0, 14.0])),
    (-100.0, RadialProfile("bump", 1e-3, 2.0), None, np.array([0.1, 0.3, 1.0, 1.9, 3.0])),
    (-900.0, RadialProfile("bump", 1e-6, 2.0), None, np.array([0.1, 0.3, 1.0, 1.9, 3.0])),
], ids=["narrow-gaussian", "subnormal-cells", "deep-halving"])
def test_resolvent_sharp_sources_match_dense_oracle(lam_mode, profile, oracle_profile, xs):
    """Sources that cells a fifth of the support wide cannot fit at once.
    The narrow gaussian's peak fell between such a cell's samples (values
    off by 100%); cells cut 28 widths either side of its centre hold it,
    and since exp(-r^2) is 0 in floats past 28 widths the oracle
    integrates the same source on [c - 30 w, c + 30 w].  A bump from
    lo = 1e-3 with nu 10 has subnormal phi f on cells near lo, whose
    samples round absolutely; from lo = 1e-6 with nu 30 the edge layer
    takes 22 halvings.  Both raised QuadratureFailure with a halving budget
    of 8 and no floor at the smallest normal double."""
    for lam in (1.0, 100.0 * cmath.exp(0.75j * math.pi)):
        sol = resolvent_mode(2, lam_mode, lam, profile, xs)
        oracle = _resolvent_oracle(2, lam_mode, lam, oracle_profile or profile, xs)
        assert np.max(np.abs(sol.values - oracle) / np.abs(oracle)) <= 1e-10


def test_resolvent_raises_when_a_cell_does_not_chop(monkeypatch, bump12):
    """Noise of 1e-6 on bessel_i stops every phi fit from chopping: once
    more than _MAX_OPEN cells are open the solve raises instead of
    returning values that miss their tolerance, as the adaptive cells did."""
    noise, clean = np.random.default_rng(5), conesolve.bessel_i

    def noisy(nu, z):
        return clean(nu, z) * (1.0 + 1e-6 * noise.standard_normal(np.shape(z)))

    monkeypatch.setattr(conesolve, "bessel_i", noisy)
    with pytest.raises(QuadratureFailure, match="does not chop"):
        resolvent_mode(2, -3.0, 10.0 * cmath.exp(0.75j * math.pi), bump12, np.array([1.5]))


def _near_lower_edge_grid(lo, hi, gap):
    """The benchmark's sweep grid with the point nearest lo moved to lo + gap W."""
    xs = np.geomspace(1e-3, 2.0 * hi, 160)
    xs[np.flatnonzero(xs > lo)[0]] = lo + gap * (hi - lo)
    return xs


_EDGE_LO, _EDGE_HI = 4.636363636363637, 10.903846153846153


@pytest.mark.parametrize("n, lam_mode, lam, lo, hi, xs", [
    (1, -15 / 7, 1.0, _EDGE_LO, _EDGE_HI, _near_lower_edge_grid(_EDGE_LO, _EDGE_HI, 1.65e-3)),
    (2, -6.0, 10.0 * cmath.exp(0.75j * math.pi), 5.0, 12.5, np.array([0.5, 1.0, 3.0])),
    (2, -6.0, 10.0 * cmath.exp(0.75j * math.pi), 5.0, 12.5, np.array([13.0, 20.0])),
], ids=["near-edge-sweep", "below-support", "above-support"])
def test_resolvent_makes_no_empty_bessel_call(monkeypatch, n, lam_mode, lam, lo, hi, xs):
    """No bessel_i or bessel_k call of a resolvent solve gets an empty
    array: a branch's fits stop sampling once every cell has chopped, and
    points that all lie past (or before) the support skip phi (or psi) at
    the points.  The values are those of the unwrapped calls."""
    profile = RadialProfile("bump", lo, hi)
    expected = resolvent_mode(n, lam_mode, lam, profile, xs).values
    sizes = _count_bessel_nodes(monkeypatch)
    values = resolvent_mode(n, lam_mode, lam, profile, xs).values
    assert sizes and min(sizes) > 0, sizes
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("shape", ["bump", "gaussian", "indicator"])
def test_resolvent_points_ulps_inside_an_edge(shape):
    """Points 1 to 4 ulps inside either edge of a support whose lower edge
    is a power of two: such a point's remainder is its cell's series at u
    within a few ulps of -1 or 1, and the fits sample the unmasked source
    on the edges themselves, where it must still read 0 (bump) or stay
    finite, with no warning.  Each value is within 1e-8 of the point 1e-9
    further inside: u is continuously differentiable across the edge."""
    profile = RadialProfile(shape, 4.0, 12.0, 8.0, 3.0)
    k = np.arange(1.0, 5.0)
    xs = np.concatenate([4.0 + k * np.spacing(4.0), 12.0 - k * np.spacing(12.0)])
    lam = 10.0 * cmath.exp(0.75j * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = resolvent_mode(2, -3.0, lam, profile, xs)
        near = resolvent_mode(2, -3.0, lam, profile, np.array([4.0 + 1e-9, 12.0 - 1e-9])).values
    assert np.all(np.isfinite(sol.values))
    assert np.max(np.abs(sol.values - np.repeat(near, 4)) / np.abs(np.repeat(near, 4))) <= 1e-8


def test_spectrum_ray_rejected(bump12):
    for lam in (-1.0 + 0.0j, 0.0 + 0.0j):
        with pytest.raises(SpectrumRay):
            resolvent_mode(1, -4.0, lam, bump12, np.array([1.0]))
    # positive reals are fine
    resolvent_mode(1, -4.0, 0.5 + 0.0j, bump12, np.array([1.0]))


def test_sectorial_sweep_structure():
    report = sectorial_sweep(1, -1.0, RadialProfile("bump", 4.0, 12.0))
    assert set(report) == {"n", "lam_mode", "rays", "uniform_within_factor_2"}
    assert [ray["arg"] for ray in report["rays"]] == [0.0, 0.75 * math.pi, -0.75 * math.pi]
    for ray in report["rays"]:
        assert ray["moduli"] == [1.0, 10.0, 100.0]
        assert len(ray["lam_times_sup"]) == 3
        assert ray["ratio"] == max(ray["lam_times_sup"]) / min(ray["lam_times_sup"]) >= 1.0


def test_sectorial_sweep_to_large_moduli():
    """Sectoriality is a claim about |lam| -> inf: on the sweep's grid of
    support [4, 12], |lam| up to 1e5 puts sqrt(|lam|) x at 7,600, and
    |lam| sup |u| stays within a factor 2 on each of the sweep's rays."""
    profile = RadialProfile("bump", 4.0, 12.0)
    x = np.geomspace(1e-3, 24.0, 160)
    for theta in (0.0, 0.75 * math.pi, -0.75 * math.pi):
        sups = [r * np.max(np.abs(resolvent_mode(2, -3.0, r * cmath.exp(1j * theta), profile, x).values))
                for r in (1.0, 1e3, 1e5)]
        assert max(sups) / min(sups) < 2.0, (theta, sups)
