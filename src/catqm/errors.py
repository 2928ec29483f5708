"""Error taxonomy shared across the package."""


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
