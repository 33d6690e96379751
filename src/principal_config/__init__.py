"""Principal curvature configurations on surfaces in R^3.

Compute, classify and render umbilic points, principal foliations,
principal cycles and separatrices, and audit the structural-stability
conditions of a principal configuration numerically.
"""

__version__ = "0.1.0"

from .geometry import (MAXIMAL, MINIMAL, ImplicitSurface, PrincipalData,
                       SurfaceChart, implicit_principal_data, normal_curvature,
                       principal_at)

__all__ = [
    "__version__", "MINIMAL", "MAXIMAL", "SurfaceChart", "ImplicitSurface",
    "PrincipalData", "principal_at", "normal_curvature",
    "implicit_principal_data",
]
