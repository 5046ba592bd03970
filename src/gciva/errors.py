"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: configuration problems exit with 1,
I/O problems (plain ``OSError``) with 2, numerical failures with 3.
"""


class GcivaError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(GcivaError):
    """Raised when an operation receives malformed data or parameters."""


class ConfigError(GcivaError):
    """Raised for invalid experiment configuration (bad key, bad value)."""


class SingularUpdateError(GcivaError):
    """Raised when a demixing update system stays singular after the
    regularized retry."""


class CostOverflowError(GcivaError):
    """Raised when a demixing matrix becomes numerically degenerate
    (|det W| below 1e-300) during cost evaluation, or when a solver's cost
    is not finite (names the solver and the iteration)."""


class DegenerateReferenceError(GcivaError):
    """Raised when reference signals are rank deficient and the metric
    projection system cannot be solved."""
