"""Exception types shared across the toolkit."""


class OvalkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(OvalkitError):
    """Syntax or semantic error while parsing an expression.

    Carries the zero-based character position of the offending token.
    """

    def __init__(self, message: str, position: int = -1):
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvaluationError(OvalkitError):
    """Evaluation outside the domain (missing variable, zero denominator)."""


class DegenerateEliminantError(OvalkitError):
    """A resultant or eliminant vanished identically.

    The inputs share a common factor in the eliminated variable; callers
    may remove common factors and retry.
    """


class DeskScopeError(OvalkitError):
    """Input is structurally valid but beyond the supported desk scale."""


class SylvesterSizeError(DeskScopeError):
    """Requested Sylvester matrix exceeds the supported desk-scale size."""


class RamificationError(OvalkitError):
    """A branch expansion required a finer ramification than the initial one."""


class BranchExpansionError(OvalkitError):
    """No expandable branch with rational coefficients was found."""


class CenteredParametrizationError(OvalkitError):
    """A parametrization violates the centered-parametrization conditions."""


class ExactIntegrationError(OvalkitError):
    """Exact integration is only available for polynomial components."""


class DegenerateCurveError(OvalkitError):
    """The curve encloses zero signed area or is otherwise degenerate."""

