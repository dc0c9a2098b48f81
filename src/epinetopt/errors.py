"""Exception types shared across the package."""


class EpinetoptError(Exception):
    """Base class for all package errors."""


class ParameterError(EpinetoptError, ValueError):
    """An argument violates an operation's preconditions; ``field`` names it, if known."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DegenerateDistributionError(EpinetoptError):
    """A degree distribution has (numerically) no probability mass left."""


class IngestionError(EpinetoptError):
    """An input file could not be parsed."""


class NumericalFailureError(EpinetoptError):
    """A simulation or optimization produced non-finite values."""


class ConfigError(EpinetoptError):
    """An experiment configuration is invalid."""
