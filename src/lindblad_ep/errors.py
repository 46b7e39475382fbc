"""Exception types shared across the package."""


class LindbladEPError(Exception):
    """Base class for package-specific failures."""


class DomainError(LindbladEPError, ValueError):
    """Input lies outside the domain an operation is defined on."""


class NearDegenerateError(LindbladEPError):
    """Eigenvectors are not separable: the requested mode sits at or near a coalescence."""


class NonConvergenceError(LindbladEPError):
    """An iterative solver failed to reach its residual target."""


class StepSizeError(LindbladEPError):
    """The integrator step is too large: a conserved quantity drifted past tolerance."""


class DegenerateFitError(LindbladEPError):
    """Too few usable points to fit a scaling exponent."""
