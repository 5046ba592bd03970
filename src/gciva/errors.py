"""Exception types shared across the toolkit, and the one input rule.

The CLI maps these onto exit codes: configuration problems exit with 1,
I/O problems (plain ``OSError``) with 2, numerical failures with 3.

Every public entry point passes each array it takes through
:func:`checked_array`, each index, count or seed through :func:`checked_index`
and each other number through :func:`checked_scalar`, so bad input raises an
InvalidInputError that names it, never a numpy error or a silent result:
"<name> is not a numeric array", "<name> contains non-finite entries",
"<name> <value> is not an integer" (or "a real number"), "<name> <value>
outside <interval>".
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
    InvalidInputError "<name> is not a numeric array" (a ragged list, a bool,
    a string, which is never parsed) or "<name> contains non-finite entries"."""
    try:
        if np.asarray(value).dtype.kind in "bSUT":  # bool, bytes, str, StringDType
            raise TypeError
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} is not a numeric array") from None
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return array


def checked_index(value, name: str, low: int = 0, high: float = np.inf) -> int:
    """``value`` as an int in [low, high); raises InvalidInputError "<name>
    <value> is not an integer" unless ``operator.index`` takes it, or
    "<name> <value> outside [low, high)"."""
    try:
        index = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} {value!r} is not an integer") from None
    if not low <= index < high:
        raise InvalidInputError(f"{name} {index} outside [{low}, {high})")
    return index


def checked_scalar(value, name: str, low: float = -np.inf, high: float = np.inf, *,
                   strict: bool = False, inf_ok: bool = False) -> float:
    """``value`` as a float in [low, high], or (low, high) if ``strict``; an
    infinite end is open, save +inf if ``inf_ok``. Raises InvalidInputError
    "<name> <value> is not a real number" unless ``value`` is an int or float
    (or a numpy one), or "<name> <value> outside <interval>", as NaN always is."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list
        array = np.asarray(None)
    if array.ndim or array.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} {value!r} is not a real number")
    number = float(array)
    open_low = strict or low == -np.inf
    closed_high = inf_ok if high == np.inf else not strict
    if not ((low < number if open_low else low <= number)
            and (number <= high if closed_high else number < high)):
        interval = f"{'(' if open_low else '['}{low:.15g}, {high:.15g}{']' if closed_high else ')'}"
        raise InvalidInputError(f"{name} {number} outside {interval}")
    return number
