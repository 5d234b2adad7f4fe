"""Exception types shared across the package."""

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class BohrlabError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(BohrlabError, ValueError):
    """A parameter lies outside its mathematical domain."""


class PreconditionError(BohrlabError, ValueError):
    """A structural precondition on the input data is violated."""


class TruncationError(BohrlabError, RuntimeError):
    """A truncated series cannot deliver the requested accuracy."""


class QuadratureError(BohrlabError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class BracketError(BohrlabError, RuntimeError):
    """No sign change was found while scanning for a root bracket."""


class ContinuityError(BohrlabError, RuntimeError):
    """Adjacent roots of a parameter sweep jumped more than the local trend allows."""
