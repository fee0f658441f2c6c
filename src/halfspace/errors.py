"""Exception types shared across the package."""


class HalfspaceError(Exception):
    """Base class for all errors raised by this package."""


class BadShape(HalfspaceError):
    """Coefficient tensor or data array has inconsistent dimensions."""


class EllipticityViolation(HalfspaceError):
    """Estimated ellipticity margin is non-positive."""


class RealAxisRoot(HalfspaceError):
    """A characteristic root lies too close to the real axis."""


class ImproperSplit(HalfspaceError):
    """Characteristic roots do not split evenly between half-planes."""


class SingularBoundaryMatrix(HalfspaceError):
    """Boundary matching matrix is numerically singular."""


class InsufficientDecay(HalfspaceError):
    """Symbol magnitude at the frequency-grid boundary is above threshold."""


class OutOfDomain(HalfspaceError):
    """Requested point or window lies outside what can be evaluated."""


class AliasRisk(HalfspaceError):
    """Boundary data support margin too small for the requested accuracy."""


class InsufficientLevels(HalfspaceError):
    """Field height levels do not resolve the requested computation."""


class EmptyWindow(HalfspaceError):
    """No sampled point falls in the requested seminorm window."""


class BadDescriptor(HalfspaceError):
    """Unknown function-space descriptor."""


class CubeTooSmall(HalfspaceError):
    """Cube holds fewer than two grid samples per axis."""


class UnknownExperiment(HalfspaceError):
    """Experiment name not present in the registry."""
