"""Error taxonomy shared across the package, and the one rule for the
numbers that a config, its budgets, a constant ledger or a witness gives."""

import sys


class CatqmError(Exception):
    """Base class for package errors."""


class InputError(CatqmError):
    """Invalid domain object: non-reduced word, nonpositive height, etc."""


class ConfigError(CatqmError):
    """Malformed or inconsistent configuration."""


class BudgetError(CatqmError):
    """A configured enumeration or iteration budget was exceeded.

    ``partial`` optionally carries whatever was computed before the budget
    ran out, so callers can report partial results honestly.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NumericError(CatqmError):
    """A numeric routine failed to converge within its iteration budget."""


def checked_number(value, what: str, kinds=(int, float), zero_ok: bool = False,
                   error: type = InputError):
    """``value`` itself if it is a finite number of ``kinds`` above 0, or at
    least 0 with ``zero_ok``; otherwise ``error``.  A bool is no number, and
    NaN fails both comparisons."""
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not (0 <= value if zero_ok else 0 < value) or not value <= sys.float_info.max):
        noun = kinds.__name__ if isinstance(kinds, type) else "number"
        raise error(f"{what} must be a {'non-negative' if zero_ok else 'positive'} "
                    f"finite {noun}, got {value!r}")
    return value
