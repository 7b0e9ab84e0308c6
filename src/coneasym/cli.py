"""Command-line interface.

Subcommands: template, solve, fit, recover, check-resolvent, selftest.
Outputs are deterministic for identical inputs (floats carry 17 significant
digits; JSON artifacts carry a 'generator' version field and CSV files a
'# coneasym <version>' first line).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from . import jsonio
from .errors import (
    ConeAsymError,
    ContinuityHypothesisFailed,
    DomainError,
    FitError,
    KTooSmall,
    NotASpectralExponent,
    QuadratureFailure,
    ScenarioError,
    SpectrumError,
    SpectrumRay,
    WindowViolation,
)
from .recovery import recover_spectrum, reports_from_jsonl, reports_to_jsonl
from .spectra import circle_spectrum, custom_spectrum, require_dimension, sphere_spectrum
from .templates import render_uexp, template_closed_form, template_differences, template_inductive
from .version import __version__
from .weights import require_power, require_window, window_midpoint

# numpy, the solvers and the ladder fit are imported by the commands that
# use them, so that `template` and `recover` start without numpy.
if TYPE_CHECKING:
    import numpy as np

    from .conesolve import RadialProfile


def __getattr__(name):
    """Bind the ladder fit on first use.  `cmd_fit` calls it as the module
    attribute ``peel_exponents``, so a wrapper set on that attribute sees
    every call."""
    if name != "peel_exponents":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fitrecover import peel_exponents

    globals()[name] = peel_exponents
    return peel_exponents


# One row per exit code: (code, EXIT_CODES key, --help text, exception
# classes).  main maps an exception to the code of the first class on its
# MRO that a row lists, so a subclass inherits its base's code.
_EXITS = (
    (0, None, "success", ()),
    (1, "internal", "unexpected internal error", (ConeAsymError,)),
    (2, "usage", "usage error", ()),
    (3, "window", "weight exponent outside the admissible window", (WindowViolation,)),
    (4, "k_too_small", "power k too small (k >= 2 required)", (KTooSmall,)),
    (5, "continuity", "continuity hypothesis s + 2k > (n+1)/p fails", (ContinuityHypothesisFailed,)),
    (6, "quadrature", "quadrature tolerance not reached", (QuadratureFailure,)),
    (7, "spectrum_ray", "resolvent parameter on the spectral ray", (SpectrumRay,)),
    (8, "domain", "special-function argument outside its domain", (DomainError,)),
    (9, "fit", "exponent fit failed (degenerate samples / not spectral)", (FitError, NotASpectralExponent)),
    (10, "spectrum", "invalid cross-section spectrum", (SpectrumError,)),
    (11, "scenario", "malformed scenario or i/o problem", (ScenarioError, OSError, ValueError, KeyError, TypeError)),
    (12, "selftest", "selftest criterion failed", ()),
    (13, "sectorial", "sectorial uniformity check failed", ()),
)
EXIT_CODES = {key: code for code, key, _, _ in _EXITS if key}
_EXIT_DOC = "exit codes:\n" + "".join(f"  {code:<4}{text}\n" for code, _, text, _ in _EXITS)
_ERROR_EXITS = {cls: code for code, _, _, classes in _EXITS for cls in classes}


def _number(value, what):
    """value as a float, unless it is a JSON boolean (ScenarioError): Python
    takes true for the number 1, so float() alone would read it as one."""
    if isinstance(value, bool):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    return float(value)


def _parse_number(text, what):
    """Number from CLI/JSON: '1/2' stays an exact fraction, and a JSON
    number stays as it is (an integer exact) once _number accepts it."""
    if isinstance(text, str):
        if "/" not in text:
            return float(text)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ScenarioError(f"{what} {text} has a zero denominator") from None
    _number(text, what)
    return text


def _integer(value, what):
    """value, unless it is not a JSON integer (ScenarioError)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return value


def build_cross_section(spec: dict):
    """Cross-section of a spec: custom whenever it lists eigenvalues,
    whatever its name; else the built-in spectrum the name selects.
    n and the multiplicities go to spectra's rules unconverted."""
    name = spec.get("name", "custom")
    j_max = _integer(spec.get("j_max", 8), "j_max")
    if name == "custom" or "eigenvalues" in spec:
        pairs = list(zip([_parse_number(v, "eigenvalue") for v in spec["eigenvalues"]], spec["multiplicities"]))
        return custom_spectrum(spec["n"], pairs, name=name)
    if name.startswith("s") and name[1:].isdigit():
        return sphere_spectrum(int(name[1:]), j_max)
    if name == "sphere":
        return sphere_spectrum(spec["n"], j_max)
    if name == "circle":
        radius = spec.get("radius")
        radius_squared = spec.get("radius_squared")
        return circle_spectrum(
            radius=_parse_number(radius, "radius") if radius is not None else None,
            j_max=j_max,
            radius_squared=_parse_number(radius_squared, "radius_squared") if radius_squared is not None else None,
        )
    raise ScenarioError(f"unknown cross-section spec {spec!r}")


def resolve_gamma(gamma, cross_section):
    if gamma == "midpoint":
        return window_midpoint(require_window(cross_section))
    return _parse_number(gamma, "gamma")


@dataclass(frozen=True)
class Scenario:
    """Validated solve configuration."""

    cross_section: object
    modes: tuple
    gamma: object
    profile: "RadialProfile"
    t_values: tuple
    x_grid: "np.ndarray"
    rel_tol: float

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        import numpy as np

        from .conesolve import RadialProfile, default_grid

        cs = build_cross_section(data["cross_section"])
        gamma = resolve_gamma(data.get("gamma", "midpoint"), cs)
        require_window(cs, gamma)
        modes = tuple(_integer(j, "mode index") for j in data.get("modes", [0]))
        if not modes:
            raise ScenarioError("modes must list at least one mode index")
        if len(set(modes)) < len(modes):
            raise ScenarioError(f"modes {list(modes)} repeat a mode index")
        for j in modes:
            if not 0 <= j < len(cs.eigenvalues):
                raise ScenarioError(f"mode index {j} outside the provided spectrum")
        prof = data.get("profile", {"shape": "bump", "support": [1.0, 2.0]})
        support = prof.get("support", [1.0, 2.0])
        lo, hi = _number(support[0], "profile support"), _number(support[1], "profile support")
        profile = RadialProfile(
            shape=prof.get("shape", "bump"),
            lo=lo,
            hi=hi,
            center=_number(prof.get("center", 0.5 * (lo + hi)), "profile center"),
            width=_number(prof.get("width", 0.25 * (hi - lo)), "profile width"),
        )
        ts = tuple(_number(t, "t value") for t in data.get("t", [1.0]))
        if not ts or any(t <= 0 for t in ts):
            raise ScenarioError("t values must be positive")
        if len(set(ts)) < len(ts):
            raise ScenarioError(f"t values {list(ts)} repeat a time")
        grid_spec = data.get("x_grid", {"decades": [-4, -1], "points_per_decade": 16})
        if "points" in grid_spec:
            grid = np.asarray([_number(v, "x grid point") for v in grid_spec["points"]])
        else:
            dec = [_number(d, "x grid decade") for d in grid_spec.get("decades", [-4, -1])]
            if len(dec) != 2 or not all(math.isfinite(d) for d in dec):
                raise ScenarioError("x grid decades must be two finite numbers")
            if not dec[0] < dec[1]:
                raise ScenarioError(f"x grid decades {dec} must increase")
            per_decade = _number(grid_spec.get("points_per_decade", 16), "points_per_decade")
            if not (per_decade.is_integer() and per_decade >= 1):
                raise ScenarioError(f"points_per_decade must be an integer of at least 1, got {per_decade}")
            grid = default_grid(dec, int(per_decade))
        return Scenario(
            cross_section=cs,
            modes=modes,
            gamma=gamma,
            profile=profile,
            t_values=ts,
            x_grid=grid,
            rel_tol=_number(data.get("rel_tol", 1e-9), "rel_tol"),
        )


def solve_scenario(scenario: Scenario) -> list:
    """(mode_j, ModeSolution) of every (mode, t) task, modes then times in
    scenario order; heat_mode checks the grid and rel_tol."""
    from .conesolve import ModeProblem, heat_mode

    solutions = []
    for j in scenario.modes:
        for t in scenario.t_values:
            problem = ModeProblem(
                n=scenario.cross_section.n,
                lam=float(scenario.cross_section.eigenvalues[j]),
                t=t,
                profile=scenario.profile,
            )
            solutions.append((j, heat_mode(problem, scenario.x_grid, rel_tol=scenario.rel_tol)))
    return solutions


def _write_output(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_template(args) -> int:
    cs = build_cross_section(_cross_section_args(args))
    gamma = resolve_gamma(args.gamma, cs)
    template = template_closed_form(cs, gamma, args.k)
    if args.check:
        other = template_inductive(cs, gamma, args.k)
        diffs = template_differences(template, other)
        if diffs:
            sys.stderr.write("construction mismatch:\n" + "\n".join(diffs) + "\n")
            return EXIT_CODES["internal"]
    if args.text:
        _write_output(render_uexp(template, s=args.s, p=args.p) + "\n", args.out)
    else:
        _write_output(jsonio.dumps({"generator": f"coneasym {__version__}", **template.as_dict()}), args.out)
    return 0


def _cross_section_args(args) -> dict:
    if args.custom:
        with open(args.custom) as fh:
            return json.loads(fh.read())
    spec = {"name": args.cross_section, "j_max": args.j_max}
    if args.radius is not None:
        spec["radius"] = args.radius
    if args.radius_squared is not None:
        spec["radius_squared"] = args.radius_squared
    return spec


def cmd_solve(args) -> int:
    from .conesolve import solutions_to_csv

    with open(args.scenario) as fh:
        scenario = Scenario.from_dict(json.loads(fh.read()))
    _write_output(solutions_to_csv(solve_scenario(scenario)), args.out)
    return 0


def cmd_fit(args) -> int:
    from .conesolve import csv_to_series

    with open(args.csv) as fh:
        series = csv_to_series(fh.read())
    peel = sys.modules[__name__].peel_exponents  # see __getattr__
    reports = [replace(peel(x, v), mode_j=mode_j, t=t) for mode_j, t, x, v in series]
    _write_output(reports_to_jsonl(reports), args.out)
    return 0


def cmd_recover(args) -> int:
    gamma = _parse_number(args.gamma, "gamma")
    if not math.isfinite(gamma):
        raise ScenarioError(f"gamma must be finite, got {args.gamma}")
    require_dimension(args.n)
    require_power(args.k)
    with open(args.fits) as fh:
        reports = reports_from_jsonl(fh.read())
    summary = recover_spectrum(reports, n=args.n, gamma=gamma, k=args.k)
    _write_output(summary.to_json(), args.out)
    return 0


def cmd_check_resolvent(args) -> int:
    from .conesolve import RadialProfile, sectorial_sweep

    profile = RadialProfile("bump", args.support[0], args.support[1])
    report = sectorial_sweep(args.n, args.lam_mode, profile)
    _write_output(jsonio.dumps({"generator": f"coneasym {__version__}", **report}), args.out)
    if not report["uniform_within_factor_2"]:
        return EXIT_CODES["sectorial"]
    return 0


def _criterion_ids(text):
    """--criteria as a list of ids; an unknown or non-integer id is a
    usage error that names the valid ones."""
    from .acceptance import CRITERIA

    valid = [cid for cid, *_ in CRITERIA]
    try:
        ids = [int(v) for v in text.split(",")]
    except ValueError:
        ids = None
    if ids is None or not set(ids) <= set(valid):
        raise argparse.ArgumentTypeError(
            f"{text!r}: criterion ids are comma-separated integers among {', '.join(map(str, valid))}")
    return ids


def cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all(args.criteria)
    for result in results:
        sys.stdout.write(acceptance.format_line(result) + "\n")
    if all(r.passed for r in results):
        sys.stdout.write("all criteria passed\n")
        return 0
    return EXIT_CODES["selftest"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coneasym",
        description="Asymptotic templates and model-cone solvers near a conical singularity.",
        epilog=_EXIT_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"coneasym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("template", help="emit the expansion template for a cross-section")
    p.add_argument("--cross-section", default="s2", help="s1, s2, s3, ..., or circle")
    p.add_argument("--radius", help="circle radius (accepts fractions like 2/3)")
    p.add_argument("--radius-squared", help="exact squared radius (e.g. 1/2)")
    p.add_argument("--custom", help="path to a cross-section JSON file")
    p.add_argument("--j-max", type=int, default=14)
    p.add_argument("--gamma", default="midpoint", help="weight exponent or 'midpoint'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--check", action="store_true", help="cross-check both constructions")
    p.add_argument("--text", action="store_true", help="human-readable expansion instead of JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_template)

    p = sub.add_parser("solve", help="solve heat modes from a scenario config")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("fit", help="fit the small-x exponent ladder of each series in a solution CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("recover", help="recover eigenvalues from fit reports")
    p.add_argument("--fits", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", required=True, help="weight exponent (accepts fractions like 1/2)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("check-resolvent", help="sectorial uniformity sweep")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--lam-mode", type=float, default=-3.0)
    p.add_argument("--support", type=float, nargs=2, default=[4.0, 12.0])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_check_resolvent)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--criteria", type=_criterion_ids, default=None, help="comma-separated criterion ids")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_ERROR_EXITS) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(_ERROR_EXITS[cls] for cls in type(exc).__mro__ if cls in _ERROR_EXITS)


if __name__ == "__main__":
    sys.exit(main())
