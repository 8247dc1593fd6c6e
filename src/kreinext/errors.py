"""Exception types shared across the package."""


class KreinExtError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(KreinExtError):
    """A system or matrix has inconsistent dimensions."""


class ExprSyntaxError(KreinExtError):
    """An expression string failed to parse.

    Carries the byte offset of the offending token.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(KreinExtError):
    """An expression produced a non-finite or undefined value."""

    def __init__(self, message, x=None, source=None):
        detail = message
        if source is not None:
            detail += f" in '{source}'"
        if x is not None:
            detail += f" at x={x}"
        super().__init__(detail)
        self.x = x
        self.source = source


class IntegrationError(KreinExtError):
    """The fundamental matrix is not finite, or its Magnus mesh did not
    converge within the step cap."""


class GammaBijectivityError(KreinExtError):
    """The endpoint-trace map on the kernel is too ill-conditioned to invert.

    Either 0 is close to a Friedrichs eigenvalue (the minimal operator is
    not strictly positive), or Psi(b; 0) is too ill-conditioned to tell.
    """


class NumericalError(KreinExtError):
    """An internal cross-check failed beyond its tolerance."""
