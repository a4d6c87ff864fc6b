"""Semantic exception hierarchy shared by all modules.

The CLI maps these onto exit codes, printing one line to stderr instead of
a traceback:

* 1 (``error: ...``): :class:`ValidationError` and its subclasses,
  :class:`InvariantViolationError` (``error: internal invariant violated:
  ...``), any other :class:`DetectionError`, and an ``OSError`` from a
  file that cannot be read or written;
* 2 (``capacity error: ...``): :class:`CapacityError`.
"""


class DetectionError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DetectionError, ValueError):
    """Inputs violate a contract: bad parameter, shape, file, or data."""


class DomainError(ValidationError):
    """A numeric argument lies outside the domain of the requested quantity
    (diverging moment generating function, singular spectral profile, ...)."""


class DegenerateModelError(ValidationError):
    """The model is too degenerate for the requested operation, e.g. a zero
    marginal entry, broken mutual absolute continuity, or an exactly
    independent joint law."""


class CapacityError(DetectionError):
    """An exact computation would exceed its configured time or size guard."""


class InvariantViolationError(DetectionError):
    """An internal quantity broke a mathematical invariant; this signals a
    bug upstream of the raising function, not bad user input."""
