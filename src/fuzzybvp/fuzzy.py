"""Parametric fuzzy numbers with affine level-cut branches.

A fuzzy number is stored by its two level-cut endpoint functions
``lower(r)`` and ``upper(r)`` for membership levels ``r`` in [0, 1].
Both branches are affine in ``r``, which is all the boundary data and
solution coefficients in this package ever need; it keeps every check
exact endpoint arithmetic instead of sampled approximation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import KW_ONLY, InitVar, dataclass

from .errors import InvalidFuzzyNumberError

# Slack for the invariant checks, relative to the largest |endpoint| so that
# no check depends on the scale of the data; each is a few flops, so 1e-12 is
# generous. Below the normal range rounding is absolute, so the smallest
# normal double stands in for a smaller endpoint.
ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class RFun:
    """Affine function of the membership level: r -> c0 + c1*r on [0, 1]."""

    c0: float
    c1: float = 0.0

    def __call__(self, r: float) -> float:
        return self.c0 + self.c1 * r

    def __add__(self, other: "RFun") -> "RFun":
        return RFun(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "RFun") -> "RFun":
        return RFun(self.c0 - other.c0, self.c1 - other.c1)

    def scaled(self, j: float) -> "RFun":
        return RFun(j * self.c0, j * self.c1)


@dataclass(frozen=True)
class FuzzyNumber:
    """Pair of affine branches (lower, upper) forming a valid level set.

    Invariants, checked at construction with one slack, ``ENDPOINT_TOL`` times
    the largest |endpoint| at r = 0 and r = 1: every coefficient and every
    endpoint is finite, lower is non-decreasing in r, upper is non-increasing
    in r, and lower(1) <= upper(1) (with the monotonicity this orders the
    branches at every level). Scaling a number by a power of two that keeps its largest
    endpoint in the normal range never changes whether it is accepted.

    A sum or difference rounds at the size of its operands, not of its
    result, so ``add`` and ``h_difference`` pass the operands' largest
    |endpoint| as ``operand_size``, which the slack is taken relative to
    when it is the larger.
    """

    lower: RFun
    upper: RFun
    _: KW_ONLY
    operand_size: InitVar[float] = 0.0

    def __post_init__(self, operand_size):
        values = (self.lower.c0, self.lower.c1, self.upper.c0, self.upper.c1)
        if not all(math.isfinite(v) for v in values):
            raise InvalidFuzzyNumberError(f"branch coefficients must be finite, got {values}")
        size = _size(self)
        if not math.isfinite(size):  # c0 + c1 overflowed; the slack would be infinite
            ends = (self.lower(1.0), self.upper(1.0))
            raise InvalidFuzzyNumberError(f"branch endpoints at r=1 must be finite, got {ends}")
        tol = ENDPOINT_TOL * max(sys.float_info.min, operand_size, size)
        if self.lower.c1 < -tol:
            raise InvalidFuzzyNumberError(
                f"lower branch decreases in r (slope {self.lower.c1})"
            )
        if self.upper.c1 > tol:
            raise InvalidFuzzyNumberError(
                f"upper branch increases in r (slope {self.upper.c1})"
            )
        if self.lower(1.0) > self.upper(1.0) + tol:
            raise InvalidFuzzyNumberError(
                f"branches cross at r=1: lower {self.lower(1.0)} > upper {self.upper(1.0)}"
            )

    @staticmethod
    def crisp(value: float) -> "FuzzyNumber":
        return FuzzyNumber(RFun(value), RFun(value))

    def __add__(self, other: "FuzzyNumber") -> "FuzzyNumber":
        return add(self, other)

    def __rmul__(self, j: float) -> "FuzzyNumber":
        return scale(j, self)


def triangular(left: float, center: float, right: float) -> FuzzyNumber:
    """Triangular fuzzy number from its support endpoints and peak.

    lower(r) = left + (center - left) * r, upper(r) = right - (right - center) * r.
    """
    if not left <= center <= right:
        raise InvalidFuzzyNumberError(
            f"triangular parameters must satisfy left <= center <= right, "
            f"got ({left}, {center}, {right})"
        )
    return FuzzyNumber(
        RFun(left, center - left),
        RFun(right, center - right),
    )


def _size(*numbers: FuzzyNumber) -> float:
    """Largest |endpoint| at r = 0 and r = 1 over ``numbers``."""
    return max(abs(f(r)) for u in numbers for f in (u.lower, u.upper) for r in (0.0, 1.0))


def add(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber:
    """Level-wise addition."""
    return FuzzyNumber(u.lower + v.lower, u.upper + v.upper, operand_size=_size(u, v))


def scale(j: float, u: FuzzyNumber) -> FuzzyNumber:
    """Scalar multiplication; negative factors swap the branches."""
    if j >= 0:
        return FuzzyNumber(u.lower.scaled(j), u.upper.scaled(j))
    return FuzzyNumber(u.upper.scaled(j), u.lower.scaled(j))


def h_difference(x: FuzzyNumber, y: FuzzyNumber) -> FuzzyNumber | None:
    """Hukuhara difference: the z with y + z = x, or None if no such z exists.

    The candidate is the branch-wise difference; it qualifies only when it
    is itself a valid fuzzy number, with the slack of its operands' size.
    Nonexistence is an ordinary outcome, not an error.
    """
    try:
        return FuzzyNumber(x.lower - y.lower, x.upper - y.upper, operand_size=_size(x, y))
    except InvalidFuzzyNumberError:
        return None


def hausdorff(u: FuzzyNumber, v: FuzzyNumber) -> float:
    """Sup over r of the larger endpoint gap between u and v.

    Both branch differences are affine in r, so the supremum is attained
    at r = 0 or r = 1 and the value is exact.
    """
    return max(
        abs(u.lower(0.0) - v.lower(0.0)),
        abs(u.lower(1.0) - v.lower(1.0)),
        abs(u.upper(0.0) - v.upper(0.0)),
        abs(u.upper(1.0) - v.upper(1.0)),
    )
