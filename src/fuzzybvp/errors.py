"""Exception types shared across the package."""


class FuzzyBvpError(Exception):
    """Base class for every error this library raises deliberately."""


class InvalidFuzzyNumberError(FuzzyBvpError, ValueError):
    """Branch data violates the fuzzy-number ordering or monotonicity rules."""


class UnsupportedProblemError(FuzzyBvpError):
    """The problem leaves the closed-form class this method covers.

    Raised for repeated characteristic roots, quartics that are not
    biquadratic, root configurations the exp/trig/hyperbolic basis cannot
    represent, and solutions whose validity check would overflow double
    precision. The failure is a method boundary, not a bug.
    """


class EigenvalueDegeneracyError(FuzzyBvpError):
    """An elimination hit a zero pivot.

    Raised by the boundary elimination when the domain length makes the
    homogeneous problem resonant (an eigenvalue of the differential
    operator), so the shooting constant cannot be solved for. Also raised
    by the finite-difference oracle when its three-point stencil is
    singular; under ``--oracle`` (``check_case(..., oracle=True)``) that
    fails the case.
    """


class CaseInapplicableError(FuzzyBvpError):
    """The requested differentiability case does not fit these coefficients."""


class ProblemFormatError(FuzzyBvpError):
    """A problem file failed to parse.

    ``line`` is the 1-based offending line when one can be pinpointed.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
