"""Exception types shared across the package.

Every type here derives from one of three bases, and the CLI maps each
base onto an exit code: configuration problems (ConfigError, unreadable
config files) exit with 2, resource problems (ResourceError, unwritable
output files, memory) with 3, violated invariants (InvariantError) with 4.
"""


class ConfigError(ValueError):
    """Bad user-supplied configuration: unknown kind, malformed rational, ..."""


class InvalidWindowError(ConfigError):
    """Window parameters outside their admissible range (h >= X, delta >= 1, ...)."""


class InvalidOrderError(ConfigError):
    """Moment order outside its admissible range, or non-integer where an
    integer is required."""


class DomainError(ConfigError):
    """Argument outside a formula's domain (an exponent where an integral
    diverges, odd k for an even-moment form, ...)."""


class ResourceError(RuntimeError):
    """Missing or unusable resource: too little sieve coverage, the integer
    range of the platform."""


class CoverageError(ResourceError):
    """Event source does not cover the range a computation needs."""


class RangeLimitError(ResourceError):
    """A computation leaves the range of the platform's numbers: a limit
    past what 64-bit key arithmetic can represent, or a moment past the
    float64 range."""


class InvariantError(AssertionError):
    """An internal consistency check failed; results cannot be trusted."""

