"""Exception hierarchy and warning types shared across the package."""


class ConeAsymError(Exception):
    """Base class for all package errors."""


class SpectrumError(ConeAsymError):
    """Invalid cross-section spectrum data."""


class NonZeroTop(SpectrumError):
    """The top eigenvalue is not 0 (or its multiplicity is not 1)."""


class NotDecreasing(SpectrumError):
    """Eigenvalues are not strictly decreasing."""


class BadMultiplicity(SpectrumError):
    """A multiplicity is not a positive integer, or lengths mismatch."""


class PositiveEigenvalue(SpectrumError):
    """An eigenvalue of the cross-section Laplacian is positive."""


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
    """Base class for exponent-fitting errors."""


class DegenerateSamples(FitError):
    """Too few usable samples, or no sign-consistent window."""


class NotASpectralExponent(ConeAsymError):
    """Exponent cannot arise as -mu_j (+ even shift) for any eigenvalue."""


class ScenarioError(ConeAsymError):
    """Malformed or inconsistent scenario configuration."""


class TruncationTooShort(UserWarning):
    """Provided spectrum is too short to certify the template complete."""
