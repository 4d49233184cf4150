"""Exact moments of prime counts in short intervals.

The integrand psi(x+h) - psi(x) - h (or its proportional-width cousin
with h = delta x) is piecewise linear in x, with breakpoints where a
prime power enters or leaves the window.  Sweeping those breakpoints in
order gives the moment integrals exactly, up to floating point, with no
sampling grid.  Closed-form predictions for the same quantities live in
psimoments.predictions, and psimoments.specfun.identity_residuals checks
the special function identities those predictions lean on.
"""

from .errors import ConfigError, InvariantError, ResourceError
from .sieve import EventSource
from .specfun import (
    double_factorial,
    duplication_residual,
    gaussian_abs_moment,
    sin_fourth_integral,
    sin_squared_integral,
)
from .predictions import odd_normalizer, scaled_refined_term
from .sweep import (
    Fixed,
    Kind,
    Scaled,
    WindowSpec,
    default_threads,
    first_moment_exact,
    grid_oracle,
    sweep_moments,
)
from .equivalence import decomposition_check, saffari_vaughan_average

__version__ = "0.1.0"

# Names callers import from the package root; everything else is imported
# from its submodule.
__all__ = [
    "ConfigError",
    "EventSource",
    "Fixed",
    "InvariantError",
    "Kind",
    "ResourceError",
    "Scaled",
    "WindowSpec",
    "decomposition_check",
    "default_threads",
    "double_factorial",
    "duplication_residual",
    "first_moment_exact",
    "gaussian_abs_moment",
    "grid_oracle",
    "odd_normalizer",
    "saffari_vaughan_average",
    "scaled_refined_term",
    "sin_fourth_integral",
    "sin_squared_integral",
    "sweep_moments",
]
