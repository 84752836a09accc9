"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation/parse problems exit 2,
solver problems exit 3, I/O problems and failed allocations exit 4.
"""

from __future__ import annotations


class PriorAdaptError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PriorAdaptError):
    """An input violates a documented invariant."""


class DimensionError(ValidationError):
    """Vectors or matrices indexed against a catalog have the wrong size."""


class ParseError(ValidationError):
    """A file could not be parsed.  Carries the offending location."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)


class InsufficientDataError(PriorAdaptError):
    """An operation needs at least one observation and got none."""


class DegenerateRecallError(PriorAdaptError):
    """A class with zero recall received decisions, so its prior is unidentifiable."""


class SingularMatrixError(PriorAdaptError):
    """The decision-mixing matrix is exactly singular."""


class IllConditionedError(PriorAdaptError):
    """Condition number beyond the trustable range for a direct solve."""


class ConvergenceError(PriorAdaptError):
    """Iterative solver hit its iteration cap.

    Carries the best iterate seen so far and the solve report, so callers
    can still inspect (or deliberately use) the partial result.
    """

    def __init__(self, message: str, best_iterate=None, report=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.report = report


class IllConditionedWarning(UserWarning):
    """Attached to direct solves whose condition number exceeds 1e12."""


def describe(exc: Exception, best_iterate_format: str = " (best iterate: {})") -> str:
    """``Type: message``, then a convergence failure's best iterate put into ``best_iterate_format``.

    The iterate's entries are printed to 17 significant digits, as output files print floats.
    """
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, ConvergenceError) and exc.best_iterate is not None:
        text += best_iterate_format.format(", ".join(f"{float(v):.17g}" for v in exc.best_iterate))
    return text
