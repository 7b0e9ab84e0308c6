"""Model-cone heat and resolvent solvers against independent checks."""

import math
import time

import numpy as np
import pytest
from scipy import special

from coneasym.conesolve import (
    ModeProblem,
    RadialProfile,
    csv_to_rows,
    default_grid,
    heat_mode,
    heat_pde_residual,
    heat_small_x_series,
    resolvent_mode,
    resolvent_residual,
    rows_to_csv,
    sectorial_sweep,
    solution_rows,
)
from coneasym.besselkit import bessel_i, bessel_k
from coneasym.errors import DomainError, QuadratureFailure, ScenarioError, SpectrumRay
from coneasym import _kernels
from coneasym._kernels import adaptive, gl_panels, gl_sum, heat_rows, ive_native


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


def test_mode_problem_rejects_non_finite(bump12):
    for t, lam in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ScenarioError):
            ModeProblem(n=1, lam=lam, t=t, profile=bump12)


def test_exact_self_similar_solution_satisfies_pde():
    """t^(-(n+1)/2) exp(-x^2/4t) solves the lam = 0 radial heat equation."""
    for n in (1, 2, 3):
        ts = np.linspace(0.5, 1.5, 201)
        xs = np.linspace(0.5, 2.0, 151)
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        values = tt ** (-0.5 * (n + 1)) * np.exp(-xx * xx / (4.0 * tt))
        assert heat_pde_residual(n, 0.0, ts, xs, values) < 1e-6


def test_solver_output_satisfies_pde(bump12):
    ts = np.linspace(0.8, 1.2, 41)
    xs = np.linspace(0.5, 1.0, 51)
    values = np.array([heat_mode(ModeProblem(n=1, lam=-4.0, t=float(t), profile=bump12), xs).values
                       for t in ts])
    assert heat_pde_residual(1, -4.0, ts, xs, values) < 5e-6


def test_mass_is_conserved():
    """For the constant mode (lam = 0, n = 1) heat flow keeps the mass
    against the cone measure x dx: the solution's integral over
    (0, hi + 40 sqrt(t)], by 32 fixed 16-node panels, equals the source's."""
    for profile in (RadialProfile("bump", 1.0, 2.0),
                    RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3),
                    RadialProfile("indicator", 0.9, 1.6)):
        source = gl_sum(lambda xi: profile(xi) * xi, np.linspace(profile.lo, profile.hi, 201))
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


def test_heat_mode_tolerance_failure(bump12):
    problem = ModeProblem(n=1, lam=0.0, t=1.0, profile=bump12)
    with pytest.raises(QuadratureFailure):
        heat_mode(problem, np.array([0.5]), rel_tol=1e-15, max_depth=1)


@pytest.mark.parametrize("profile", [
    RadialProfile("bump", 1.0, 2.0),
    RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3),
], ids=["bump", "gaussian"])
def test_heat_rows_matches_dense_oracle(profile):
    """Adaptive panels with scipy's ive against a dense fixed-panel sum of
    the kernel through the plain-Python ive: 200 panels x 16 nodes over
    the support."""
    xi, wts = _panel_nodes(np.linspace(profile.lo, profile.hi, 201))
    wts = wts * profile(xi)
    xs = np.append(default_grid(decades=(-3, 0), points_per_decade=1), 1.5)
    for nu, n, t in ((1.5, 1, 1.0), (0.0, 1, 0.3), (2.5, 2, 2.0), (4.0, 3, 0.7)):
        values, _, _, ok = heat_rows(nu, n, t, xs, profile, 1e-12, 20)
        assert ok.all()
        dense = [sum(w * (x * s) ** (0.5 * (1 - n)) / (2 * t) * math.exp(-(x - s) ** 2 / (4 * t))
                     * ive_native(nu, x * s / (2 * t)) * s**n for w, s in zip(wts, xi))
                 for x in xs]
        assert np.max(np.abs(values - dense) / np.abs(dense)) <= 1e-12


@pytest.mark.parametrize("nu, n, t, profile, rel_tol, max_depth", [
    (1.5, 1, 1.0, RadialProfile("bump", 1.0, 2.0), 1e-9, 20),
    (0.0, 1, 0.05, RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3), 1e-9, 20),
    (2.5, 2, 2.0, RadialProfile("indicator", 0.9, 1.6), 1e-9, 20),
    (4.0, 3, 0.05, RadialProfile("bump", 1.0, 2.0), 1e-11, 4),  # 13 of 24 points take the second sweep
], ids=["bump", "gaussian", "indicator", "second-sweep"])
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


def test_heat_mode_tail_points_need_second_sweep(bump12):
    """At t = 1e-4 the whole-support panel underestimates these tail values
    (1e-229 and 1e-294), so the first sweep's budget is too tight and they
    reach max_depth; the second sweep, scaled by the first sweep's value,
    converges them at the default rel_tol and depth."""
    xs = np.array([10**-0.25, 2.5])
    values, errs, panels, ok = heat_rows(0.0, 1, 1e-4, xs, bump12, 1e-9, 20)
    assert ok.all() and np.all(errs <= 1e-9 * values)
    sol = heat_mode(ModeProblem(n=1, lam=0.0, t=1e-4, profile=bump12), xs)
    assert np.array_equal(sol.values, values)


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
    whole = gl_panels(fn, np.arange(xs.size), a, b)
    value, err, panels, ok = adaptive(fn, a, b, whole, 1e-12 * np.abs(whole), 20)
    assert max(sizes) == _kernels._BLOCK and ok.all()
    for i in range(0, xs.size, 7):
        one = adaptive(lambda rows, xi: fn(rows + i, xi), a[i:i + 1], b[i:i + 1], whole[i:i + 1],
                       1e-12 * np.abs(whole[i:i + 1]), 20)
        assert (one[0][0], one[2][0]) == (value[i], panels[i])


def test_default_grid():
    grid = default_grid()
    assert grid.size == 49
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1e-1)


def test_csv_round_trip(bump12):
    problem = ModeProblem(n=1, lam=-4.0, t=1.0, profile=bump12)
    sol = heat_mode(problem, np.geomspace(1e-3, 1e-1, 7))
    rows = solution_rows([(1, sol)])
    back = csv_to_rows(rows_to_csv(rows))
    assert back == rows  # %.17g round-trips doubles exactly


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
    """The resolvent by dense fixed panels of the scalar Bessel calls."""
    nu = math.sqrt(0.25 * (n - 1) ** 2 - lam_mode)
    sq = complex(lam) ** 0.5
    phi = np.vectorize(lambda x: x ** (0.5 * (1 - n)) * bessel_i(nu, complex(sq * x)), otypes=[complex])
    psi = np.vectorize(lambda x: x ** (0.5 * (1 - n)) * bessel_k(nu, complex(sq * x)), otypes=[complex])

    def integral(branch, a, b):
        return gl_sum(lambda xi: branch(xi) * profile(xi) * xi**n, np.linspace(a, b, panels + 1))

    lo, hi = profile.lo, profile.hi
    out = []
    for x in xs:
        if x <= lo:
            out.append(phi(x) * integral(psi, lo, hi))
        elif x >= hi:
            out.append(psi(x) * integral(phi, lo, hi))
        else:
            out.append(psi(x) * integral(phi, lo, x) + phi(x) * integral(psi, x, hi))
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
    assert all((s.coeff_regular, s.coeff_decaying) == (together.coeff_regular, together.coeff_decaying)
               for s in alone)


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


def test_resolvent_overflow_raises_fast(bump12):
    """At lam = 3e5, sqrt(lam) xi reaches 1095 on the support, inside the
    Bessel box but past where unscaled I_nu overflows: DomainError at the
    first integrand call, not NaN values after a full refinement.  lam =
    1e5 (sqrt(lam) xi <= 633) still solves."""
    start = time.perf_counter()
    with pytest.raises(DomainError):
        resolvent_mode(1, -4.0, 3e5, bump12, np.array([1.5, 3.0]))
    assert time.perf_counter() - start < 1.0
    sol = resolvent_mode(1, -4.0, 1e5, bump12, np.array([1.5, 3.0]))
    assert np.all(np.isfinite(sol.values))


def test_spectrum_ray_rejected(bump12):
    for lam in (-1.0 + 0.0j, 0.0 + 0.0j):
        with pytest.raises(SpectrumRay):
            resolvent_mode(1, -4.0, lam, bump12, np.array([1.0]))
    # positive reals are fine
    resolvent_mode(1, -4.0, 0.5 + 0.0j, bump12, np.array([1.0]))


def test_sectorial_sweep_structure():
    report = sectorial_sweep(
        1, -1.0, RadialProfile("bump", 4.0, 12.0),
        moduli=(1.0, 10.0), ray_args=(0.0,),
        x_eval=np.geomspace(1e-2, 24.0, 40),
    )
    assert set(report) == {"n", "lam_mode", "rays", "uniform_within_factor_2"}
    ray = report["rays"][0]
    assert len(ray["lam_times_sup"]) == 2
    assert ray["ratio"] >= 1.0
