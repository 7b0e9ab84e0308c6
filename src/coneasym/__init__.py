"""Asymptotics of heat flow near an isolated conical singularity.

Builds the exponent/log template of solutions near the cone tip from the
cross-section spectrum, solves model-cone heat and resolvent problems to
high accuracy, and closes the loop by recovering eigenvalues from the
numerically observed exponents.
"""

import importlib

# Each public name and the module that is its one home.  The package
# imports a module only when one of its names is first read (PEP 562), so
# `import coneasym` loads no numpy and the exact algebra stays numpy-free.
_HOMES = {
    "version": ("__version__",),
    "spectra": ("CrossSection", "circle_spectrum", "custom_spectrum", "harmonic_multiplicity",
                "sphere_spectrum"),
    "indicial": ("IndicialData", "Pole", "indicial_roots", "conormal_symbol",
                 "conormal_poly_coeffs", "root_multiplicity", "pole_set"),
    "weights": ("admissible_window", "window_midpoint", "locate_interval"),
    "templates": ("Origin", "AsymTerm", "ExpansionTemplate", "template_closed_form",
                  "template_inductive", "template_differences", "render_uexp"),
    "conesolve": ("RadialProfile", "ModeProblem", "ModeSolution", "ResolventModeSolution", "default_grid",
                  "heat_mode", "heat_small_x_series", "resolvent_mode", "resolvent_residual",
                  "sectorial_sweep"),
    "fitrecover": ("peel_exponents",),
    "recovery": ("FitReport", "RecoverySummary", "recover_lambda", "recover_spectrum"),
    "errors": ("ConeAsymError", "SpectrumError", "WindowViolation", "KTooSmall",
               "ContinuityHypothesisFailed", "DomainError", "QuadratureFailure", "SpectrumRay", "FitError",
               "ScenarioError", "TruncationTooShort"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME_OF)


def __getattr__(name):
    """A public name from its home module, or a submodule of the package."""
    home = _HOME_OF.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f".{home}", __name__), name)
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value
