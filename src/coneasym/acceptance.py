"""Acceptance suite: ten verifiable criteria over a fixed corpus.

Each criterion returns (passed, detail).  `run_all` wraps them with timing
and is consumed by both the CLI selftest subcommand and the test suite, so
a criterion is implemented exactly once.
"""

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .conesolve import (
    ModeProblem,
    RadialProfile,
    csv_to_rows,
    default_grid,
    heat_mode,
    rows_to_csv,
    rows_to_series,
    sectorial_sweep,
    solution_rows,
)
from .fitrecover import peel_exponents, recover_lambda, recover_spectrum
from .indicial import (
    conormal_poly_coeffs,
    conormal_symbol,
    conormal_symbol_power,
    indicial_roots,
    pole_set,
    root_multiplicity,
)
from .spectra import circle_spectrum, custom_spectrum, sphere_spectrum
from .templates import Origin, template_closed_form, template_differences, template_inductive
from .weights import admissible_window, membership, quadrature_membership


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float


def custom_a():
    """n = 3 spectrum mixing exact and irrational indicial roots."""
    pairs = [
        (0, 1), (-3, 4), (-7, 2), (-15, 1),
        (-35, 2), (-63, 1), (-120, 2), (-168, 1),
    ]
    return custom_spectrum(3, pairs, name="customA")


def custom_b():
    """n = 2 spectrum whose mu_2 = -2 collides exactly with an even shift."""
    pairs = [
        (0, 1), (Fraction(-5, 2), 2), (-6, 1), (Fraction(-49, 4), 2),
        (-30, 1), (-56, 2), (-90, 1), (Fraction(-575, 4), 1),
    ]
    return custom_spectrum(2, pairs, name="customB")


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


def gamma_grid(cross_section, count: int = 5) -> list:
    """Interior weight exponents lo + i/(count+1) * (hi-lo); exact when
    the window bounds are exact."""
    window = admissible_window(cross_section.n, cross_section.lambda1)
    if window is None:
        return []
    lo, hi = window
    return [lo + (hi - lo) * Fraction(i, count + 1) for i in range(1, count + 1)]


# ---------------------------------------------------------------------------
# 1. closed formula vs induction over the whole corpus
# ---------------------------------------------------------------------------


def criterion_1():
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    detail = f"{runs} template pairs, {len(mismatches)} mismatches, {elapsed:.2f}s (budget 10s)"
    if mismatches:
        detail += "; first: " + mismatches[0]
    return ok, detail


# ---------------------------------------------------------------------------
# 2. hand-derived term structures
# ---------------------------------------------------------------------------


def _sp(j, m, nu):
    return Origin("spectral", j=j, m=m, nu=nu)


def _expected_structures():
    """(cross_section, gamma, {k: [(exponent, log, {origins})]}) triplets,
    worked out by hand from the template rules."""
    r8 = math.sqrt(8.0)

    circle = circle_spectrum(radius=Fraction(1, 2), j_max=8)
    circle_terms = {
        2: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(2), 2, {Origin("even", nu=1), _sp(1, 2, 0)}),
        ],
        3: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(2), 2, {Origin("even", nu=1), _sp(1, 2, 0)}),
            (Fraction(4), 3, {Origin("even", nu=2), _sp(1, 2, 1), _sp(2, 3, 0)}),
        ],
        4: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(2), 2, {Origin("even", nu=1), _sp(1, 2, 0)}),
            (Fraction(4), 3, {Origin("even", nu=2), _sp(1, 2, 1), _sp(2, 3, 0)}),
            (Fraction(6), 4, {Origin("even", nu=3), _sp(1, 2, 2), _sp(2, 3, 1), _sp(3, 4, 0)}),
        ],
    }

    sphere2 = sphere_spectrum(2, 14)
    sphere2_terms = {
        2: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(1), 1, {Origin("even_odd", nu=1), _sp(1, 2, 0)}),
            (Fraction(2), 1, {Origin("even", nu=1), _sp(2, 2, 0)}),
        ],
        3: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(1), 1, {Origin("even_odd", nu=1), _sp(1, 2, 0)}),
            (Fraction(2), 1, {Origin("even", nu=1), _sp(2, 2, 0)}),
            (Fraction(3), 2, {Origin("even_odd", nu=2), _sp(1, 2, 1), _sp(3, 3, 0)}),
            (Fraction(4), 2, {Origin("even", nu=2), _sp(2, 2, 1), _sp(4, 3, 0)}),
        ],
        4: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(1), 1, {Origin("even_odd", nu=1), _sp(1, 2, 0)}),
            (Fraction(2), 1, {Origin("even", nu=1), _sp(2, 2, 0)}),
            (Fraction(3), 2, {Origin("even_odd", nu=2), _sp(1, 2, 1), _sp(3, 3, 0)}),
            (Fraction(4), 2, {Origin("even", nu=2), _sp(2, 2, 1), _sp(4, 3, 0)}),
            (Fraction(5), 3, {Origin("even_odd", nu=3), _sp(1, 2, 2), _sp(3, 3, 1), _sp(5, 4, 0)}),
            (Fraction(6), 3, {Origin("even", nu=3), _sp(2, 2, 2), _sp(4, 3, 1), _sp(6, 4, 0)}),
        ],
    }

    custom = custom_a()
    custom_terms = {
        2: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(1), 0, {_sp(1, 2, 0)}),
            (r8 - 1.0, 0, {_sp(2, 2, 0)}),
            (Fraction(2), 1, {Origin("even", nu=1)}),
        ],
        3: [
            (Fraction(0), 0, {Origin("constant")}),
            (Fraction(1), 0, {_sp(1, 2, 0)}),
            (r8 - 1.0, 0, {_sp(2, 2, 0)}),
            (Fraction(2), 1, {Origin("even", nu=1)}),
            (Fraction(3), 1, {_sp(1, 2, 1), _sp(3, 3, 0)}),
            (r8 + 1.0, 1, {_sp(2, 2, 1)}),
            (Fraction(4), 2, {Origin("even", nu=2)}),
        ],
        4: [
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
        ],
    }
    return [
        (circle, Fraction(0), circle_terms),
        (sphere2, Fraction(0), sphere2_terms),
        (custom, Fraction(1, 4), custom_terms),
    ]


def _compare_terms(template, expected) -> list:
    problems = []
    if len(template.terms) != len(expected):
        problems.append(f"{len(template.terms)} terms, expected {len(expected)}")
        return problems
    for term, (exp, log_power, origins) in zip(template.terms, expected):
        if isinstance(exp, Fraction):
            exp_ok = term.exponent == exp
        else:
            exp_ok = abs(float(term.exponent) - exp) <= 1e-12
        if not exp_ok:
            problems.append(f"exponent {term.exponent} != {exp}")
        if term.max_log_power != log_power:
            problems.append(f"exp {term.exponent}: log {term.max_log_power} != {log_power}")
        if set(term.origins) != origins:
            problems.append(f"exp {term.exponent}: origins {set(term.origins)} != {origins}")
    return problems


def criterion_2():
    problems = []
    checked = 0
    for cs, gamma, by_k in _expected_structures():
        for k, expected in sorted(by_k.items()):
            template = template_closed_form(cs, gamma, k)
            checked += 1
            for p in _compare_terms(template, expected):
                problems.append(f"{cs.name} k={k}: {p}")
    detail = f"{checked} hand-derived structures compared"
    if problems:
        detail += "; " + "; ".join(problems[:3])
    return not problems, detail


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
    detail = "s2 (gamma=0) and s3 (gamma=1/2), k=4: exponents 0..6"
    if problems:
        detail += "; " + "; ".join(problems)
    return not problems, detail


# ---------------------------------------------------------------------------
# 4. indicial algebra: Vieta, symbol powers, double root at zero
# ---------------------------------------------------------------------------


def criterion_4():
    start = time.perf_counter()
    problems = []
    for cs in corpus():
        n = cs.n
        for lam in cs.eigenvalues:
            data = indicial_roots(n, lam)
            s = data.q_minus + data.q_plus
            p = data.q_minus * data.q_plus
            if isinstance(s, Fraction) and isinstance(p, Fraction):
                if s != n - 1 or p != Fraction(lam):
                    problems.append(f"{cs.name} lam={float(lam)}: exact Vieta failed")
            else:
                if abs(float(s) - (n - 1)) > 1e-12 * max(1.0, abs(n - 1.0)):
                    problems.append(f"{cs.name} lam={float(lam)}: root sum {s}")
                if abs(float(p) - float(lam)) > 1e-12 * max(1.0, abs(float(lam))):
                    problems.append(f"{cs.name} lam={float(lam)}: root product {p}")

    rng = np.random.default_rng(20260814)
    for cs in corpus():
        lam1 = float(cs.lambda1)
        for k in (2, 3, 4):
            coeffs = conormal_poly_coeffs(cs.n, cs.eigenvalues[1], k)
            for _ in range(5):
                z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                direct = conormal_symbol_power(cs.n, lam1, k, z)
                horner = 0.0 + 0.0j
                for c in reversed(coeffs):
                    horner = horner * z + complex(float(c), 0.0)
                scale = max(1.0, abs(direct))
                if abs(direct - horner) > 1e-12 * scale:
                    problems.append(f"{cs.name} k={k}: symbol power vs coefficients")
                step = conormal_symbol_power(cs.n, lam1, k - 1, z) * conormal_symbol(
                    cs.n, lam1, z + 2 * (k - 1)
                )
                if abs(direct - step) > 1e-12 * scale:
                    problems.append(f"{cs.name} k={k}: composition recursion")

    circle = circle_spectrum(radius=Fraction(1, 2), j_max=2)
    poles = pole_set(circle, 1)
    zero = [p for p in poles.poles if p.location == 0]
    if len(zero) != 1 or zero[0].order != 2:
        problems.append(f"k=1 pole at 0: {zero}")
    if root_multiplicity(conormal_poly_coeffs(1, Fraction(0), 1), Fraction(0)) != 2:
        problems.append("sigma(z) = z^2 at lam=0, n=1 should have a double root")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    detail = f"Vieta + symbol powers over corpus, double root check, {elapsed:.3f}s (budget 1s)"
    if problems:
        detail += "; " + "; ".join(problems[:3])
    return ok, detail


# ---------------------------------------------------------------------------
# 5. exponent ladder fitted to solved heat modes
# ---------------------------------------------------------------------------


def criterion_5():
    start = time.perf_counter()
    profile = RadialProfile("bump", 1.0, 2.0)
    grid = default_grid()
    problems = []
    lines = []
    for nu, lam in ((1.5, -2.25), (math.sqrt(2.0), -2.0)):
        problem = ModeProblem(n=1, lam=lam, t=1.0, profile=profile)
        sol = heat_mode(problem, grid)
        report = peel_exponents(sol.x, sol.values)
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
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    detail = ", ".join(lines) + f", {elapsed:.1f}s (budget 60s)"
    if problems:
        detail += "; " + "; ".join(problems)
    return ok, detail


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
    ok = worst <= 1e-10
    return ok, (f"20 random (n, lam, t, rho, source), 12 points each, "
                f"worst relative defect {worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 7. sectorial uniformity of the model resolvent
# ---------------------------------------------------------------------------


def criterion_7():
    start = time.perf_counter()
    report = sectorial_sweep(2, -3.0, RadialProfile("bump", 4.0, 12.0))
    elapsed = time.perf_counter() - start
    ratios = [ray["ratio"] for ray in report["rays"]]
    ok = report["uniform_within_factor_2"] and elapsed < 30.0
    detail = (
        "|lam|*sup|u| ratios per ray: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f" (must stay < 2), {elapsed:.1f}s (budget 30s)"
    )
    return ok, detail


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
        replace(peel_exponents(x, v), mode_j=mode_j, t=t)
        for mode_j, t, x, v in rows_to_series(csv_to_rows(rows_to_csv(solution_rows(solutions))))
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
            if isinstance(lam, Fraction) and isinstance(cs.eigenvalues[j], Fraction):
                if lam != cs.eigenvalues[j]:
                    problems.append(f"{cs.name} j={j}: exact round trip broke")
            else:
                target = float(cs.eigenvalues[j])
                if abs(float(lam) - target) > 1e-12 * max(1.0, abs(target)):
                    problems.append(f"{cs.name} j={j}: round trip {lam} != {target}")
    detail = f"recovered {lams} from solved modes; {trips} algebraic round trips"
    if problems:
        detail += "; " + "; ".join(problems[:3])
    return not problems, detail


# ---------------------------------------------------------------------------
# 9. membership rule vs quadrature classifier
# ---------------------------------------------------------------------------


def criterion_9():
    cases = []
    for n, gamma, offsets in (
        (1, 0.0, [(-1.0, 1), (-0.5, 2), (-0.25, 1), (-0.1, 0), (0.1, 0), (0.25, 1), (0.5, 2), (1.0, 0)]),
        (2, 0.3, [(-0.5, 0), (-0.25, 2), (-0.1, 1), (0.1, 1), (0.25, 2), (0.5, 0)]),
        (3, 0.25, [(-1.0, 1), (-0.25, 0), (-0.1, 2), (0.1, 2), (0.25, 0), (1.0, 1)]),
    ):
        threshold = gamma - 0.5 * (n + 1)
        for delta, log_power in offsets:
            cases.append((n, gamma, threshold + delta, log_power, delta > 0))
    disagreements = []
    for n, gamma, a, log_power, analytic in cases:
        rule = membership(n, gamma, a, log_power)
        quad = quadrature_membership(n, gamma, a, log_power)
        if rule != quad or rule != analytic:
            disagreements.append(f"n={n} gamma={gamma} a={a:.3f} log^{log_power}: "
                                 f"rule={rule} quad={quad} analytic={analytic}")
    detail = f"{len(cases)} straddling exponents classified both ways"
    if disagreements:
        detail += "; " + "; ".join(disagreements[:3])
    return not disagreements, detail


# ---------------------------------------------------------------------------
# 10. special-function cross-checks
# ---------------------------------------------------------------------------


def criterion_10():
    from .besselkit import bessel_i, bessel_k

    problems = []
    z_grid = [1e-3, 0.1, 0.7, 1.0, 5.0, 20.0, 100.0, 500.0, 1000.0, 1e4]

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    def cosh_minus_sinh_over(z):
        # cosh z - sinh z / z without the small-z cancellation
        if z >= 0.5:
            return math.cosh(z) - math.sinh(z) / z
        total, power = 0.0, 1.0
        for m in range(1, 14):
            power *= z * z
            total += 2 * m * power / math.factorial(2 * m + 1)
        return total

    for z in z_grid:
        s = math.sqrt(2.0 / (math.pi * z))
        em = math.expm1(-2.0 * z)
        # scaled forms stay finite for all z on the grid
        i_half = s * (-em) / 2.0
        if z <= 300.0:
            i_three = s * cosh_minus_sinh_over(z) * math.exp(-z)
        else:
            i_three = s * ((2.0 + em) / 2.0 + em / (2.0 * z))
        k_half = math.sqrt(math.pi / (2.0 * z))
        k_three = k_half * (1.0 + 1.0 / z)
        checks = [
            ("I 1/2", bessel_i(0.5, z, scaled=True), i_half),
            ("I 3/2", bessel_i(1.5, z, scaled=True), i_three),
            ("K 1/2", bessel_k(0.5, z, scaled=True), k_half),
            ("K 3/2", bessel_k(1.5, z, scaled=True), k_three),
        ]
        for name, got, want in checks:
            r = rel(got, want)
            if r > 1e-9:
                problems.append(f"{name} at z={z}: rel {r:.2e}")

    worst_w = 0.0
    pairs = 0
    for nu in (0.0, 0.5, 1.0, 1.5, 2.5, 5.0, 10.5, 20.0, 35.0, 59.0):
        for z in z_grid:
            w = z * (
                bessel_i(nu, z, scaled=True) * bessel_k(nu + 1.0, z, scaled=True)
                + bessel_i(nu + 1.0, z, scaled=True) * bessel_k(nu, z, scaled=True)
            )
            pairs += 1
            worst_w = max(worst_w, abs(w - 1.0))
    if worst_w > 1e-9:
        problems.append(f"Wronskian defect {worst_w:.2e} > 1e-9")
    detail = (
        f"half-integer closed forms on {len(z_grid)} arguments, "
        f"Wronskian on {pairs} (nu, z) pairs (worst {worst_w:.2e})"
    )
    if problems:
        detail += "; " + "; ".join(problems[:3])
    return not problems, detail


CRITERIA = [
    (1, "templates: closed formula matches induction across the corpus", criterion_1),
    (2, "templates: hand-derived structures reproduced exactly", criterion_2),
    (3, "templates: integer exponent ladders for round spheres", criterion_3),
    (4, "indicial algebra: Vieta, symbol powers, double root at zero", criterion_4),
    (5, "heat modes: leading and second exponents of the fitted ladder", criterion_5),
    (6, "heat solver: parabolic scaling identity", criterion_6),
    (7, "resolvent: sectorial sweep uniform within a factor 2", criterion_7),
    (8, "end to end: spectrum recovery and algebraic round trips", criterion_8),
    (9, "weights: membership rule agrees with quadrature classifier", criterion_9),
    (10, "bessel: half-integer closed forms and Wronskian identity", criterion_10),
]


def run_all(ids=None) -> list:
    results = []
    for cid, name, fn in CRITERIA:
        if ids is not None and cid not in ids:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a criterion must report, never crash the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(cid, name, passed, detail, time.perf_counter() - start))
    return results


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status} [{result.cid:2d}] {result.name} ({result.seconds:.2f}s) - {result.detail}"
