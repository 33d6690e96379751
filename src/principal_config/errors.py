"""Exception types shared across the package."""

import numpy as np


class PrincipalConfigError(Exception):
    """Base class for all package-specific failures."""


class RegularityError(PrincipalConfigError):
    """Chart is not an immersion at the requested point (|a_u x a_v| at floor)."""


class UmbilicReferenceError(PrincipalConfigError):
    """An angle relative to a principal direction was requested at an umbilic."""


class CriticalPointError(PrincipalConfigError):
    """Gradient of an implicit surface fell below the regularity floor."""


class FrameError(PrincipalConfigError):
    """Local graph frame could not be built (normal nearly tangent to chart axes)."""


class ConvergenceError(PrincipalConfigError):
    """An iterative search exhausted its iteration budget."""


class ReturnFailure(PrincipalConfigError):
    """An offset trajectory failed to return to its Poincare section."""


class UmbilicProximityError(PrincipalConfigError):
    """A cycle passes too close to an umbilic for the integral estimator."""


class TransversalityError(PrincipalConfigError):
    """A section crossing was tangential within the angle floor."""


class DegenerateRoots(PrincipalConfigError):
    """Two confocal roots coincide (point on or near a focal conic)."""


class ParamError(PrincipalConfigError):
    """Surface or command parameters outside their documented validity."""


class UnsupportedSurfaceError(PrincipalConfigError):
    """Operation not available for this surface representation."""


class InconclusiveError(PrincipalConfigError):
    """A check could not reach a verdict (degenerate or near-boundary input)."""


# Failures that end one seed of a search: the seed is dropped (with its
# reason where the caller reports one).  Any other exception is a fault in
# the program or the surface and propagates.
SEED_FAILURES = (PrincipalConfigError, FloatingPointError,
                 np.linalg.LinAlgError)
