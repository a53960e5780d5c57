"""Typed errors for undefined or degenerate quantities.

Every error carries a stable ``kind`` string so callers (notably the CLI)
can report failures in a machine-parsable way without matching on class
names or message text.
"""

__all__ = [
    "PrevthreshError",
    "DegenerateDenominator",
    "UndefinedMetric",
    "DegenerateProfile",
    "ZeroDenominator",
    "ParseError",
    "EmptyInput",
    "UsageError",
]


class PrevthreshError(Exception):
    """Base class for all library errors."""

    kind = "error"


class DegenerateDenominator(PrevthreshError):
    """A Bayes predictive-value denominator vanished; the curve has no value there."""

    kind = "degenerate-denominator"


class UndefinedMetric(PrevthreshError):
    """The metric's defining expression has no value for these inputs."""

    kind = "undefined-metric"


class DegenerateProfile(PrevthreshError):
    """The sensitivity/specificity pair degenerates the requested construction."""

    kind = "degenerate-profile"


class ZeroDenominator(PrevthreshError):
    """The reference value of a ratio is zero."""

    kind = "zero-denominator"


class ParseError(PrevthreshError):
    """Malformed input data. ``row`` is the 1-based file row (header is row 1)."""

    kind = "parse"

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptyInput(PrevthreshError):
    """An input stream contained no data rows."""

    kind = "empty-input"


class UsageError(PrevthreshError):
    """Bad command-line usage."""

    kind = "usage"


# Longest argument an error message echoes whole; a longer one is cut.
_ECHO_CHARS = 64


def _echo(text: str, show=repr) -> str:
    """show(text) for an error message; a text over _ECHO_CHARS characters is shown by its first ones and its length."""
    if len(text) <= _ECHO_CHARS:
        return show(text)
    return f"{show(text[:_ECHO_CHARS])}... ({len(text)} characters)"


def value_or_none(fn, *args) -> float | None:
    """fn(*args) as a float, or None where it raises a PrevthreshError.

    Lets a report fill an undefined entry with None without hiding the rest.
    """
    try:
        return float(fn(*args))
    except PrevthreshError:
        return None
