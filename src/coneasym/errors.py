"""Exception classes, one per exit code of `cli._EXITS`, and warning types."""


class ConeAsymError(Exception):
    """Base class for all package errors."""


class SpectrumError(ConeAsymError):
    """Invalid cross-section spectrum data: dimension, multiplicities, order or sign."""


class WindowViolation(ConeAsymError):
    """Weight exponent outside the admissible window, or the window is empty."""


class KTooSmall(ConeAsymError):
    """Templates and recovery require a power k >= 2."""


class ContinuityHypothesisFailed(ConeAsymError):
    """Smoothness budget too small for pointwise asymptotics: s + 2k <= (n+1)/p."""


class DomainError(ConeAsymError):
    """Special-function argument outside the supported domain."""


class QuadratureFailure(ConeAsymError):
    """Adaptive quadrature did not reach the requested tolerance."""


class SpectrumRay(ConeAsymError):
    """Resolvent parameter on the spectral ray (-inf, 0]."""


class FitError(ConeAsymError):
    """Exponent fit failed: degenerate samples, or an exponent that is not spectral."""


class ScenarioError(ConeAsymError):
    """Malformed or inconsistent scenario configuration."""


class TruncationTooShort(UserWarning):
    """Provided spectrum is too short to certify the template complete."""
