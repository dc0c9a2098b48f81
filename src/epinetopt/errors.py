"""Exception types shared across the package."""

import functools
import warnings


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


def fp_checked(func):
    """Raise floating-point overflow and invalid values inside ``func`` as
    :class:`NumericalFailureError` instead of warning and going on.

    NumPy's warnings are turned into errors, not its error state: under any
    ``np.errstate`` every small-array ufunc call is a few percent slower. Like
    ``warnings.catch_warnings``, the filter is process-wide while ``func`` runs.
    """

    @functools.wraps(func)
    def checked(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "(overflow|invalid value) encountered", RuntimeWarning)
            try:
                return func(*args, **kwargs)
            except RuntimeWarning as exc:
                raise NumericalFailureError(f"{func.__name__}: floating-point {exc}") from exc

    return checked
