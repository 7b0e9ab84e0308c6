"""Asymptotics of heat flow near an isolated conical singularity.

Builds the exponent/log template of solutions near the cone tip from the
cross-section spectrum, solves model-cone heat and resolvent problems to
high accuracy, and closes the loop by recovering eigenvalues from the
numerically observed exponents.
"""

from .conesolve import (
    ModeProblem,
    ModeSolution,
    RadialProfile,
    ResolventModeSolution,
    default_grid,
    heat_mode,
    heat_small_x_series,
    resolvent_mode,
    resolvent_residual,
    sectorial_sweep,
)
from .errors import (
    ConeAsymError,
    ContinuityHypothesisFailed,
    DegenerateSamples,
    DomainError,
    FitError,
    KTooSmall,
    NotASpectralExponent,
    QuadratureFailure,
    ScenarioError,
    SpectrumError,
    SpectrumRay,
    TruncationTooShort,
    WindowViolation,
)
from .fitrecover import (
    FitReport,
    RecoverySummary,
    peel_exponents,
    recover_lambda,
    recover_spectrum,
)
from .indicial import (
    IndicialData,
    Pole,
    PoleSet,
    conormal_poly_coeffs,
    conormal_symbol,
    indicial_roots,
    pole_set,
    root_multiplicity,
)
from .spectra import (
    CrossSection,
    circle_spectrum,
    custom_spectrum,
    harmonic_multiplicity,
    sphere_spectrum,
)
from .templates import (
    AsymTerm,
    ExpansionReport,
    ExpansionTemplate,
    Origin,
    render_uexp,
    template_closed_form,
    template_differences,
    template_inductive,
)
from .version import __version__
from .weights import (
    admissible_window,
    locate_interval,
    window_midpoint,
)

__all__ = [
    "__version__",
    "CrossSection",
    "circle_spectrum",
    "custom_spectrum",
    "harmonic_multiplicity",
    "sphere_spectrum",
    "IndicialData",
    "Pole",
    "PoleSet",
    "indicial_roots",
    "conormal_symbol",
    "conormal_poly_coeffs",
    "root_multiplicity",
    "pole_set",
    "admissible_window",
    "window_midpoint",
    "locate_interval",
    "Origin",
    "AsymTerm",
    "ExpansionTemplate",
    "ExpansionReport",
    "template_closed_form",
    "template_inductive",
    "template_differences",
    "render_uexp",
    "RadialProfile",
    "ModeProblem",
    "ModeSolution",
    "ResolventModeSolution",
    "default_grid",
    "heat_mode",
    "heat_small_x_series",
    "resolvent_mode",
    "resolvent_residual",
    "sectorial_sweep",
    "FitReport",
    "RecoverySummary",
    "peel_exponents",
    "recover_lambda",
    "recover_spectrum",
    "ConeAsymError",
    "SpectrumError",
    "WindowViolation",
    "KTooSmall",
    "ContinuityHypothesisFailed",
    "DomainError",
    "QuadratureFailure",
    "SpectrumRay",
    "FitError",
    "DegenerateSamples",
    "NotASpectralExponent",
    "ScenarioError",
    "TruncationTooShort",
]
