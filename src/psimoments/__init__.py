"""Exact moments of prime counts in short intervals.

The integrand psi(x+h) - psi(x) - h (or its proportional-width cousin
with h = delta x) is piecewise linear in x, with breakpoints where a
prime power enters or leaves the window.  Sweeping those breakpoints in
order gives the moment integrals exactly, up to floating point, with no
sampling grid.  Closed-form predictions for the same quantities live in
psimoments.predictions, and psimoments.specfun checks the special
function identities those predictions lean on.
"""

from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    InvalidOrderError,
    InvalidWindowError,
    InvariantError,
    QuadratureError,
    RangeLimitError,
    ResourceError,
)
from .sieve import EventSource, psi
from .specfun import (
    VerifierConfig,
    duplication_residual,
    gamma,
    gaussian_abs_moment,
    moment_constant_residual,
    sin_fourth_integral,
    sin_power_coefficients,
    sin_squared_integral,
)
from .predictions import (
    B_CONSTANT,
    C0,
    E_CONSTANT,
    double_factorial,
    even_main_b_fixed,
    even_main_b_scaled,
    fixed_main_term,
    fixed_refined_term,
    odd_normalizer,
    scaled_main_term,
    scaled_refined_term,
)
from .sweep import (
    Fixed,
    Kind,
    MomentRequest,
    MomentResult,
    Scaled,
    WindowSpec,
    default_threads,
    evaluate,
    first_moment_exact,
    grid_oracle,
    moment_fixed,
    moment_scaled,
    sweep_moments,
)
from .equivalence import (
    AverageReport,
    EquivalenceReport,
    decomposition_check,
    saffari_vaughan_average,
    smallness_ratio,
)
from .report import (
    ReportRow,
    RunConfig,
    emit,
    parse_rows,
    predict_rows,
    reproduce_tables,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "B_CONSTANT",
    "C0",
    "E_CONSTANT",
    "AverageReport",
    "ConfigError",
    "CoverageError",
    "DomainError",
    "EquivalenceReport",
    "EventSource",
    "Fixed",
    "InvalidOrderError",
    "InvalidWindowError",
    "InvariantError",
    "Kind",
    "MomentRequest",
    "MomentResult",
    "QuadratureError",
    "RangeLimitError",
    "ReportRow",
    "ResourceError",
    "RunConfig",
    "Scaled",
    "VerifierConfig",
    "WindowSpec",
    "decomposition_check",
    "default_threads",
    "double_factorial",
    "duplication_residual",
    "emit",
    "evaluate",
    "even_main_b_fixed",
    "even_main_b_scaled",
    "first_moment_exact",
    "fixed_main_term",
    "fixed_refined_term",
    "gamma",
    "gaussian_abs_moment",
    "grid_oracle",
    "moment_constant_residual",
    "moment_fixed",
    "moment_scaled",
    "odd_normalizer",
    "parse_rows",
    "predict_rows",
    "psi",
    "reproduce_tables",
    "run",
    "saffari_vaughan_average",
    "scaled_main_term",
    "scaled_refined_term",
    "sin_fourth_integral",
    "sin_power_coefficients",
    "sin_squared_integral",
    "smallness_ratio",
    "sweep_moments",
]
