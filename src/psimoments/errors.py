"""Exception types shared across the package.

Every type here derives from one of three bases, and the CLI maps each
base onto a process exit code: configuration problems (ConfigError) exit
with 2, resource problems (ResourceError: files, memory, integer range)
with 3, and violated internal invariants (InvariantError) with 4.
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
    """Missing or unusable resource: an unreadable file, too little sieve
    coverage, the integer range of the platform."""


class CoverageError(ResourceError):
    """Event source does not cover the range a computation needs."""


class RangeLimitError(ResourceError):
    """Requested limit exceeds what 64-bit key arithmetic can represent."""


class InvariantError(AssertionError):
    """An internal consistency check failed; results cannot be trusted."""

