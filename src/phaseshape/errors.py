"""Exception types shared across the package, and the one integer rule,
the one real rule, the one sequence rule and the one array conversion.

Two failure families are distinguished so that callers (and the CLI exit
codes) can tell bad input apart from runtime numerical breakdown.
"""

import math
from collections.abc import Sequence
from contextlib import contextmanager
from numbers import Real

import numpy as np

__all__ = [
    "ValidationError", "NumericalError", "channel_errors", "check_int", "check_real",
    "check_reals", "check_sequence",
]


class ValidationError(ValueError):
    """Invalid input data or configuration: bad shapes, non-finite values,
    violated preconditions, unparseable files."""


class NumericalError(RuntimeError):
    """A computation failed numerically: diverging integration, degenerate
    fits, non-finite intermediate state."""


@contextmanager
def channel_errors(prefix: str):
    """Re-raise a package error as the same type, prefixed ``{prefix}: ``,
    e.g. ``channel 0`` or ``instance 'a/i1'``; nested uses stack."""
    try:
        yield
    except (ValidationError, NumericalError) as e:
        raise type(e)(f"{prefix}: {e}") from e


def check_int(name: str, value, low: int) -> int:
    """``int(value)`` for an integer ``value >= low``, else ValidationError.

    Every count, window and seed of the package goes through this rule;
    seeds use ``low=0``. A Python or numpy integer qualifies; a boolean is
    not a count.
    """
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= low):
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_real(name: str, value, low: float = -math.inf, strict: bool = False) -> float:
    """``float(value)`` for a finite real ``value >= low`` (``> low`` when
    ``strict``), else ValidationError.

    Every real parameter of the package goes through this rule. Booleans and
    strings are not reals, and neither is an int too large for a float.
    """
    v = math.nan
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:
            pass
    if not (math.isfinite(v) and (v > low if strict else v >= low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ValidationError(f"{name} must be a finite real{bound}, got {value!r}")
    return v


def check_sequence(name: str, value, what: str, size: int | None = None) -> list:
    """``value`` as a list, for a sequence (an ndarray, not a string) of
    ``size`` items, or of any length when None; else ValidationError."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if (isinstance(items, (str, bytes)) or not isinstance(items, Sequence)
            or size not in (None, len(items))):
        raise ValidationError(f"{name} must be a sequence of {what}, got {items!r}")
    return list(items)


def check_reals(name: str, value, what: str) -> np.ndarray:
    """``value`` as a new float array, else ValidationError naming it as
    ``{name} must be {what}``; shape and finiteness are the caller's to check.

    Every array of reals the package is given goes through this conversion.
    Strings, even numeric ones, ragged nestings and complex values are not
    reals (numpy would parse the strings and drop the imaginary parts).
    """
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "cSU":
            raise TypeError
        return np.array(arr, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be {what}, got {value!r}") from None
