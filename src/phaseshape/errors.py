"""Exception types shared across the package.

Two failure families are distinguished so that callers (and the CLI exit
codes) can tell bad input apart from runtime numerical breakdown.
"""

from contextlib import contextmanager

__all__ = ["ValidationError", "NumericalError", "channel_errors"]


class ValidationError(ValueError):
    """Invalid input data or configuration: bad shapes, non-finite values,
    violated preconditions, unparseable files."""


class NumericalError(RuntimeError):
    """A computation failed numerically: diverging integration, degenerate
    fits, non-finite intermediate state."""


@contextmanager
def channel_errors(ci: int):
    """Re-raise a package error as the same type, prefixed ``channel {ci}: ``."""
    try:
        yield
    except (ValidationError, NumericalError) as e:
        raise type(e)(f"channel {ci}: {e}") from e
