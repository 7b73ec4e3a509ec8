"""Closed-form solver for second-order two-point boundary value problems
with fuzzy boundary values, based on branch-wise Laplace transforms under
the four generalized Hukuhara differentiability cases."""

from .errors import (
    CaseInapplicableError,
    EigenvalueDegeneracyError,
    FuzzyBvpError,
    InvalidFuzzyNumberError,
    ProblemFormatError,
    UnsupportedProblemError,
)
from .fuzzy import FuzzyNumber, RFun, add, h_difference, hausdorff, scale, triangular
from .laplace import (
    ClosedForm,
    Polynomial,
    RClosedForm,
    RationalFunction,
    TermKind,
    forward_laplace,
    inverse_laplace,
    partial_fractions,
    roots,
)
from .solver import (
    ALL_CASES,
    DiffCase,
    FuzzyBVP,
    FuzzySolution,
    solve,
)
from .validate import (
    CaseResult,
    ValidityReport,
    check_case,
    check_level_set,
    enumerate_cases,
    fd_oracle,
    oracle_gap,
    residual_ode,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CASES",
    "CaseInapplicableError",
    "CaseResult",
    "ClosedForm",
    "DiffCase",
    "EigenvalueDegeneracyError",
    "FuzzyBVP",
    "FuzzyBvpError",
    "FuzzyNumber",
    "FuzzySolution",
    "InvalidFuzzyNumberError",
    "Polynomial",
    "ProblemFormatError",
    "RClosedForm",
    "RFun",
    "RationalFunction",
    "TermKind",
    "UnsupportedProblemError",
    "ValidityReport",
    "add",
    "check_case",
    "check_level_set",
    "enumerate_cases",
    "fd_oracle",
    "forward_laplace",
    "h_difference",
    "hausdorff",
    "inverse_laplace",
    "oracle_gap",
    "partial_fractions",
    "residual_ode",
    "roots",
    "scale",
    "solve",
    "triangular",
]
