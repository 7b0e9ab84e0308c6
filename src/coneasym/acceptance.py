"""Acceptance suite: ten verifiable criteria over a fixed corpus.

Each criterion returns (summary, problems): what it measured, and what
failed (empty on a pass).  `run_all` alone times each criterion against
its budget in `CRITERIA` and gives the verdict; both the CLI selftest
subcommand and the test suite consume it, so a criterion is implemented
exactly once.
"""

import math
import time
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .conesolve import (
    ModeProblem,
    RadialProfile,
    _MODULI,
    _RAY_ARGS,
    _sweep,
    csv_to_series,
    default_grid,
    heat_mode,
    solutions_to_csv,
)
from ._kernels import heat_quadrature, heat_series
from .fitrecover import peel_exponents
from .indicial import TOL, conormal_poly_coeffs, conormal_symbol, indicial_roots, pole_set, root_multiplicity, same
from .recovery import recover_lambda, recover_spectrum
from .spectra import circle_spectrum, custom_spectrum, sphere_spectrum
from .templates import Origin, template_closed_form, template_differences, template_inductive
from .weights import require_window


CriterionResult = namedtuple("CriterionResult", "cid name passed detail seconds")


def custom_a():
    """n = 3 spectrum mixing exact and irrational indicial roots."""
    return custom_spectrum(3, [0, -3, -7, -15, -35, -63, -120, -168], [1, 4, 2, 1, 2, 1, 2, 1], name="customA")


def custom_b():
    """n = 2 spectrum whose mu_2 = -2 collides exactly with an even shift."""
    eigenvalues = [0, Fraction(-5, 2), -6, Fraction(-49, 4), -30, -56, -90, Fraction(-575, 4)]
    return custom_spectrum(2, eigenvalues, [1, 2, 1, 2, 1, 2, 1, 1], name="customB")


def corpus() -> list:
    """Cross-sections exercised by the sweep criteria."""
    return [
        circle_spectrum(radius=Fraction(1, 2), j_max=8),
        circle_spectrum(radius=Fraction(2, 3), j_max=10),
        circle_spectrum(radius_squared=Fraction(1, 2), j_max=10),
        sphere_spectrum(2, 14),
        sphere_spectrum(3, 14),
        custom_a(),
        custom_b(),
    ]


def gamma_grid(cross_section) -> list:
    """Five interior weight exponents lo + i/6 * (hi-lo); exact when the
    window bounds are exact."""
    lo, hi = require_window(cross_section)
    return [lo + (hi - lo) * Fraction(i, 6) for i in range(1, 6)]


# ---------------------------------------------------------------------------
# 1. closed formula vs induction over the whole corpus
# ---------------------------------------------------------------------------


def criterion_1():
    mismatches = []
    runs = 0
    for cs in corpus():
        for gamma in gamma_grid(cs):
            for k in range(2, 7):
                a = template_closed_form(cs, gamma, k)
                b = template_inductive(cs, gamma, k)
                runs += 1
                diffs = template_differences(a, b)
                if diffs:
                    mismatches.append(f"{cs.name} gamma={float(gamma):.4f} k={k}: {diffs[0]}")
    return f"{runs} template pairs, {len(mismatches)} mismatches", mismatches


# ---------------------------------------------------------------------------
# 2. hand-derived term structures
# ---------------------------------------------------------------------------


def _sp(j, m, nu):
    return Origin("spectral", j=j, m=m, nu=nu)


def _expected_structures():
    """(cross_section, gamma, terms, {k: count}) quadruplets: the k = 4
    terms (exponent, log, {origins}) worked out by hand from the template
    rules, and how many of them the template has at each k; raising k only
    adds terms above the last ones."""
    r8 = math.sqrt(8.0)
    circle_terms = [
        (Fraction(0), 0, {Origin("constant")}),
        (Fraction(2), 2, {Origin("even", nu=1), _sp(1, 2, 0)}),
        (Fraction(4), 3, {Origin("even", nu=2), _sp(1, 2, 1), _sp(2, 3, 0)}),
        (Fraction(6), 4, {Origin("even", nu=3), _sp(1, 2, 2), _sp(2, 3, 1), _sp(3, 4, 0)}),
    ]
    sphere2_terms = [
        (Fraction(0), 0, {Origin("constant")}),
        (Fraction(1), 1, {Origin("even_odd", nu=1), _sp(1, 2, 0)}),
        (Fraction(2), 1, {Origin("even", nu=1), _sp(2, 2, 0)}),
        (Fraction(3), 2, {Origin("even_odd", nu=2), _sp(1, 2, 1), _sp(3, 3, 0)}),
        (Fraction(4), 2, {Origin("even", nu=2), _sp(2, 2, 1), _sp(4, 3, 0)}),
        (Fraction(5), 3, {Origin("even_odd", nu=3), _sp(1, 2, 2), _sp(3, 3, 1), _sp(5, 4, 0)}),
        (Fraction(6), 3, {Origin("even", nu=3), _sp(2, 2, 2), _sp(4, 3, 1), _sp(6, 4, 0)}),
    ]
    custom_terms = [
        (Fraction(0), 0, {Origin("constant")}),
        (Fraction(1), 0, {_sp(1, 2, 0)}),
        (r8 - 1.0, 0, {_sp(2, 2, 0)}),
        (Fraction(2), 1, {Origin("even", nu=1)}),
        (Fraction(3), 1, {_sp(1, 2, 1), _sp(3, 3, 0)}),
        (r8 + 1.0, 1, {_sp(2, 2, 1)}),
        (Fraction(4), 2, {Origin("even", nu=2)}),
        (Fraction(5), 2, {_sp(1, 2, 2), _sp(3, 3, 1), _sp(4, 4, 0)}),
        (r8 + 3.0, 2, {_sp(2, 2, 2)}),
        (Fraction(6), 3, {Origin("even", nu=3)}),
    ]
    return [
        (circle_spectrum(radius=Fraction(1, 2), j_max=8), Fraction(0), circle_terms, {2: 2, 3: 3, 4: 4}),
        (sphere_spectrum(2, 14), Fraction(0), sphere2_terms, {2: 3, 3: 5, 4: 7}),
        (custom_a(), Fraction(1, 4), custom_terms, {2: 4, 3: 7, 4: 10}),
    ]


def _compare_terms(template, expected) -> list:
    problems = []
    if len(template.terms) != len(expected):
        problems.append(f"{len(template.terms)} terms, expected {len(expected)}")
        return problems
    for term, (exp, log_power, origins) in zip(template.terms, expected):
        if not same(term.exponent, exp, TOL):
            problems.append(f"exponent {term.exponent} != {exp}")
        if term.max_log_power != log_power:
            problems.append(f"exp {term.exponent}: log {term.max_log_power} != {log_power}")
        if set(term.origins) != origins:
            problems.append(f"exp {term.exponent}: origins {set(term.origins)} != {origins}")
    return problems


def criterion_2():
    problems = []
    checked = 0
    for cs, gamma, terms, counts in _expected_structures():
        for k, count in sorted(counts.items()):
            template = template_closed_form(cs, gamma, k)
            checked += 1
            for p in _compare_terms(template, terms[:count]):
                problems.append(f"{cs.name} k={k}: {p}")
    return f"{checked} hand-derived structures compared", problems


# ---------------------------------------------------------------------------
# 3. integer ladders for the round spheres
# ---------------------------------------------------------------------------


def criterion_3():
    cases = [
        (sphere_spectrum(2, 14), Fraction(0)),
        (sphere_spectrum(3, 14), Fraction(1, 2)),
    ]
    problems = []
    for cs, gamma in cases:
        template = template_closed_form(cs, gamma, 4)
        expected = [Fraction(i) for i in range(7)]
        if template.exponents() != expected:
            problems.append(f"{cs.name}: exponents {template.exponents()}")
    return "s2 (gamma=0) and s3 (gamma=1/2), k=4: exponents 0..6", problems


# ---------------------------------------------------------------------------
# 4. indicial algebra: Vieta, pole orders, double root at zero
# ---------------------------------------------------------------------------


def _pole_problems(cs, k, pole, coeffs) -> list:
    """The symbol of every provenance mode vanishes at the pole's location
    plus that member's shift (exactly at an exact pole).  At an exact pole
    each mode's share of the provenance, and the pole's order, must match
    root_multiplicity of that mode's exact sigma_k."""
    problems = []
    for j, _, shift in pole.provenance:
        z, lam = pole.location + shift, cs.eigenvalues[j]
        scale = max(1.0, abs(z) ** 2 + (cs.n - 1) * abs(z) + abs(float(lam)))
        value = conormal_symbol(cs.n, lam, z)
        if not same(value, 0, 1e-8 * scale):
            problems.append(f"{cs.name} k={k} pole {pole.location}: sigma_{j}({z}) = {value}")
    if isinstance(pole.location, Fraction):
        mults = [root_multiplicity(c, pole.location) for c in coeffs]
        members = [sum(1 for j, _, _ in pole.provenance if j == mode) for mode in range(len(coeffs))]
        if members != mults or pole.order != max(mults):
            problems.append(f"{cs.name} k={k} pole {pole.location}: order {pole.order}, members "
                            f"{members}, symbol multiplicities {mults}")
    return problems


def criterion_4():
    problems = []
    for cs in corpus():
        n = cs.n
        for lam in cs.eigenvalues:
            data = indicial_roots(n, lam)
            s = data.mu + data.q_plus
            p = data.mu * data.q_plus
            if not same(s, n - 1, TOL * max(1.0, n - 1.0)):
                problems.append(f"{cs.name} lam={float(lam)}: root sum {s}")
            if not same(p, lam, TOL * max(1.0, abs(float(lam)))):
                problems.append(f"{cs.name} lam={float(lam)}: root product {p}")

    for cs in corpus():
        for k in (1, 4):  # the symbol itself, and the deepest power of criteria 2-3
            coeffs = [conormal_poly_coeffs(cs.n, lam, k) for lam in cs.eigenvalues]
            for pole in pole_set(cs, k):
                problems.extend(_pole_problems(cs, k, pole, coeffs))

    circle = circle_spectrum(radius=Fraction(1, 2), j_max=2)
    zero = [p for p in pole_set(circle, 1) if p.location == 0]
    if len(zero) != 1 or zero[0].order != 2:
        problems.append(f"k=1 pole at 0: {zero}")
    if root_multiplicity(conormal_poly_coeffs(1, Fraction(0), 1), Fraction(0)) != 2:
        problems.append("sigma(z) = z^2 at lam=0, n=1 should have a double root")
    return "Vieta + pole orders over corpus, double root check", problems


# ---------------------------------------------------------------------------
# 5. exponent ladder fitted to solved heat modes
# ---------------------------------------------------------------------------


def criterion_5():
    """Fits quadrature output: heat_mode takes these points by the
    ascending series, which writes the exponents nu + 2m in directly."""
    profile = RadialProfile("bump", 1.0, 2.0)
    grid = default_grid()
    problems, lines = [], []
    for nu, lam in ((1.5, -2.25), (math.sqrt(2.0), -2.0)):
        problem = ModeProblem(n=1, lam=lam, t=1.0, profile=profile)
        values, _, _, ok = heat_quadrature(problem.nu, 1, 1.0, grid, profile, 1e-9)
        if not ok.all():
            problems.append(f"nu={nu}: quadrature missed rel_tol 1e-9 at {int((~ok).sum())} points")
        report = peel_exponents(grid, values)
        lead = report.exponent
        rel0 = abs(lead - nu) / nu
        lines.append(f"nu={nu:.4f}: lead rel {rel0:.1e}")
        if rel0 > 1e-12:
            problems.append(f"nu={nu}: leading exponent {lead} (rel {rel0:.1e} > 1e-12)")
        second = report.exponent + report.step
        rel1 = abs(second - (nu + 2.0)) / (nu + 2.0)
        lines.append(f"second rel {rel1:.1e}")
        if rel1 > 1e-8:
            problems.append(f"nu={nu}: second exponent {second} (rel {rel1:.1e} > 1e-8)")
    return ", ".join(lines), problems


# ---------------------------------------------------------------------------
# 6. parabolic scaling of the heat solver
# ---------------------------------------------------------------------------


def criterion_6():
    """Scaling x, sqrt(t) and the source's support (lo, hi, center, width)
    by rho leaves the mode heat solution unchanged: with
    f_rho(xi) = f(xi / rho), a_rho(rho^2 t, rho x) = a(t, x) exactly,
    since p_nu(rho^2 t, rho x, rho xi) = rho^-(n+1) p_nu(t, x, xi)."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(1, 5))
        lam = float(rng.uniform(-25.0, 0.0))
        t = float(rng.uniform(0.1, 2.0))
        rho = float(rng.uniform(0.3, 3.0))
        lo = float(rng.uniform(0.5, 1.5))
        hi = lo + float(rng.uniform(0.5, 1.5))
        center, width = float(rng.uniform(lo, hi)), float(rng.uniform(0.15, 0.35)) * (hi - lo)
        shape = ("bump", "gaussian", "indicator")[k % 3]
        x = np.geomspace(1e-3, 2.0 * hi, 12)
        base = heat_mode(ModeProblem(n, lam, t, RadialProfile(shape, lo, hi, center, width)),
                         x, rel_tol=1e-12).values
        scaled_profile = RadialProfile(shape, rho * lo, rho * hi, rho * center, rho * width)
        scaled = heat_mode(ModeProblem(n, lam, rho * rho * t, scaled_profile),
                           rho * x, rel_tol=1e-12).values
        worst = max(worst, float(np.max(np.abs(scaled - base) / np.abs(base))))
    problems = [] if worst <= 1e-10 else [f"worst relative defect {worst:.2e} > 1e-10"]
    return (f"20 random (n, lam, t, rho, source), 12 points each, "
            f"worst relative defect {worst:.2e} (tol 1e-10)"), problems


# ---------------------------------------------------------------------------
# 7. sectorial uniformity of the model resolvent
# ---------------------------------------------------------------------------


def criterion_7():
    """sectorial_sweep's report on its rays and arg 0.9 pi, at its moduli and 1e5."""
    report = _sweep(2, -3.0, RadialProfile("bump", 4.0, 12.0), _RAY_ARGS + (0.9 * math.pi,), _MODULI + (1e5,))
    ratios = ", ".join(f"{ray['ratio']:.3f}" for ray in report["rays"])
    problems = [] if report["uniform_within_factor_2"] else ["a ray's ratio reached 2"]
    return f"|lam|*sup|u| ratios per ray: {ratios} (must stay < 2)", problems


# ---------------------------------------------------------------------------
# 8. end-to-end spectrum recovery and algebraic round trips
# ---------------------------------------------------------------------------


def criterion_8():
    problems = []
    circle = circle_spectrum(radius=Fraction(1, 2), j_max=2)
    profile = RadialProfile("bump", 1.0, 2.0)
    grid = default_grid()
    solutions = []
    for j in (0, 1):
        problem = ModeProblem(n=1, lam=float(circle.eigenvalues[j]), t=1.0, profile=profile)
        solutions.append((j, heat_mode(problem, grid)))
    reports = [
        peel_exponents(x, v)._replace(mode_j=mode_j, t=t)
        for mode_j, t, x, v in csv_to_series(solutions_to_csv(solutions))
    ]
    summary = recover_spectrum(reports, n=1, gamma=0.0, k=3)
    lams = sorted(summary.lambdas())
    if len(lams) != 2 or summary.flagged:
        problems.append(f"recovered {lams} and flagged {len(summary.flagged)}, expected two eigenvalues")
    else:
        if abs(lams[0] + 4.0) / 4.0 > 1e-8:
            problems.append(f"lambda_1 recovered as {lams[0]} (want -4 to 1e-8 rel)")
        if abs(lams[1]) > 1e-8:
            problems.append(f"lambda_0 recovered as {lams[1]} (want 0 to 1e-8)")

    trips = 0
    for cs in corpus():
        for j in range(1, len(cs.eigenvalues)):
            mu = indicial_roots(cs.n, cs.eigenvalues[j]).mu
            lam = recover_lambda(cs.n, -mu)
            trips += 1
            target = cs.eigenvalues[j]
            if not same(lam, target, TOL * max(1.0, abs(float(target)))):
                problems.append(f"{cs.name} j={j}: round trip {lam} != {target}")
    return f"recovered {lams} from solved modes; {trips} algebraic round trips", problems


# ---------------------------------------------------------------------------
# 10. special-function cross-checks
# ---------------------------------------------------------------------------


def criterion_10():
    """The Bessel calls the solvers make: besselkit's scaled pair on
    complex arrays along the resolvent's rays (arg sqrt(lam) in
    {0, +-3pi/8}) against the closed forms of I_1/2, K_1/2 and K_3/2 and
    the Wronskian, and scipy's ive on a real array, as heat_quadrature
    calls it, against those of I_1/2 and I_3/2."""
    from scipy import special

    from .besselkit import bessel_i, bessel_k

    problems = []
    r = np.array([1e-3, 0.1, 0.7, 1.0, 5.0, 20.0, 100.0, 500.0, 1000.0, 1e4])

    def check(name, got, want):
        worst = float(np.max(np.abs(got - want) / np.abs(want)))
        if worst > 1e-9:
            problems.append(f"{name}: worst rel {worst:.2e}")

    worst_w, pairs = 0.0, 0
    for theta in (0.0, 0.375 * math.pi, -0.375 * math.pi):
        z = r * np.exp(1j * theta)
        phase = np.exp(1j * z.imag)  # e^(z - |Re z|), the scaled pair's phase
        k_half = np.sqrt(math.pi / (2.0 * z))
        check(f"I 1/2 at arg {theta:.3f}", bessel_i(0.5, z), -k_half / math.pi * phase * np.expm1(-2.0 * z))
        check(f"K 1/2 at arg {theta:.3f}", bessel_k(0.5, z), k_half)
        check(f"K 3/2 at arg {theta:.3f}", bessel_k(1.5, z), k_half * (1.0 + 1.0 / z))
        for nu in (0.0, 0.5, 1.0, 1.5, 2.5, 5.0, 10.5, 20.0, 35.0, 59.0):
            w = z * (bessel_i(nu, z) * bessel_k(nu + 1.0, z) + bessel_i(nu + 1.0, z) * bessel_k(nu, z)) / phase
            pairs += z.size
            worst_w = max(worst_w, float(np.max(np.abs(w - 1.0))))
    if worst_w > 1e-9:
        problems.append(f"Wronskian defect {worst_w:.2e} > 1e-9")

    # e^(-z) I_3/2(z) = s (cosh z - sinh z / z) e^(-z), s = sqrt(2/(pi z)),
    # with the small-z cancellation summed as a series
    s, em = np.sqrt(2.0 / (math.pi * r)), np.expm1(-2.0 * r)
    small = sum(2 * m * r ** (2 * m) / math.factorial(2 * m + 1) for m in range(1, 14)) * np.exp(-r)
    large = (2.0 + em) / 2.0 + em / (2.0 * r)
    check("real ive 1/2", special.ive(0.5, r), -s * em / 2.0)
    check("real ive 3/2", special.ive(1.5, r), s * np.where(r < 0.5, small, large))
    return (f"closed forms on 3 rays x {r.size} moduli, Wronskian on {pairs} (nu, z) pairs "
            f"(worst {worst_w:.2e}), real ive on {r.size} arguments"), problems


# ---------------------------------------------------------------------------
# 11. ascending series against the quadrature
# ---------------------------------------------------------------------------


def criterion_11():
    """heat_series against heat_quadrature at rel_tol 1e-13, for the three
    shapes, n = 1..3, nu up to 10 and points below, inside and above the
    support: within 1e-13 relative, and within the two error estimates."""
    profiles = (RadialProfile("bump", 1.0, 2.0),
                RadialProfile("gaussian", 0.8, 2.3, center=1.4, width=0.3),
                RadialProfile("indicator", 0.9, 1.6))
    worst, unbounded, points = 0.0, 0, 0
    for profile in profiles:
        lo, hi = profile.lo, profile.hi
        x = np.concatenate([np.geomspace(1e-3, 0.9 * lo, 4), np.linspace(lo, hi, 5)[1:-1], [1.3 * hi]])
        for n, nu, t in ((1, 10.0, 1.0), (2, 0.5, 0.1), (3, 4.0, 0.03)):
            values, errs = heat_series(nu, n, t, x, profile)
            ref, ref_errs, _, converged = heat_quadrature(nu, n, t, x, profile, 1e-13)
            gap = np.abs(values - ref)
            worst = max(worst, float(np.max(gap / ref)))
            unbounded += int(np.sum(gap > errs + ref_errs) + np.sum(~converged))
            points += x.size
    problems = [] if worst <= 1e-13 else [f"worst relative gap {worst:.1e} > 1e-13"]
    if unbounded:
        problems.append(f"{unbounded} points outside the error estimates")
    return (f"{points} points, worst relative gap {worst:.1e} (tol 1e-13), "
            f"{unbounded} outside the error estimates"), problems


# (id, name, criterion, time budget in seconds)
CRITERIA = [
    (1, "templates: closed formula matches induction across the corpus", criterion_1, 4.0),
    (2, "templates: hand-derived structures reproduced exactly", criterion_2, 1.0),
    (3, "templates: integer exponent ladders for round spheres", criterion_3, 1.0),
    (4, "indicial algebra: Vieta, pole orders, double root at zero", criterion_4, 1.0),
    (5, "heat modes: leading and second exponents of the fitted ladder", criterion_5, 3.0),
    (6, "heat solver: parabolic scaling identity", criterion_6, 1.0),
    (7, "resolvent: sectorial sweep uniform within a factor 2", criterion_7, 3.0),
    (8, "end to end: spectrum recovery and algebraic round trips", criterion_8, 1.0),
    (10, "bessel: the solvers' calls against closed forms and the Wronskian", criterion_10, 3.0),
    (11, "heat solver: ascending series agrees with the quadrature", criterion_11, 1.0),
]


def run_all(ids=None) -> list:
    """Run the criteria (all, or those in ids): each passes when it reports
    no problem and finishes within its budget."""
    results = []
    for cid, name, fn, budget in CRITERIA:
        if ids is not None and cid not in ids:
            continue
        start = time.perf_counter()
        try:
            summary, problems = fn()
        except Exception as exc:  # a criterion must report, never crash the suite
            summary, problems = "", [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        if seconds >= budget:
            problems = [*problems, f"took {seconds:.2f}s, over the budget"]
        detail = ", ".join(filter(None, [summary, f"budget {budget:g}s"]))
        if problems:
            detail += "; " + "; ".join(problems[:3])
        results.append(CriterionResult(cid, name, not problems, detail, seconds))
    return results


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status} [{result.cid:2d}] {result.name} ({result.seconds:.2f}s) - {result.detail}"
