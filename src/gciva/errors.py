"""Exception types shared across the toolkit, and the one input rule.

The CLI maps these onto exit codes: configuration problems exit with 1,
I/O problems (plain ``OSError``) with 2, numerical failures with 3.

Every public entry point passes each array it takes through
:func:`checked_array` and each index or count through :func:`checked_index`,
so bad input raises an InvalidInputError that names it, never a numpy error.
"""

import operator

import numpy as np


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


def checked_array(value, name: str, dtype=np.float64) -> np.ndarray:
    """``value`` as an array of ``dtype``, not copied if it is one; raises
    InvalidInputError "<name> is not a numeric array" (a ragged list, a
    string) or "<name> contains non-finite entries"."""
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} is not a numeric array") from None
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return array


def checked_index(value, bound: int | None, name: str) -> int:
    """``value`` as an int in [0, bound), or [0, inf) for a None bound;
    raises InvalidInputError "<name> <value> is not an integer" unless
    ``operator.index`` takes it, or "<name> <value> outside [0, n)"."""
    try:
        index = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} {value!r} is not an integer") from None
    upper = np.inf if bound is None else bound
    if not 0 <= index < upper:
        raise InvalidInputError(f"{name} {index} outside [0, {upper})")
    return index
