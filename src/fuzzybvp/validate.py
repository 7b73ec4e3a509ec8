"""The level-set verdict per differentiability case, residual measurement,
and an independent finite-difference oracle for crisp cross-checks. The
oracle's grid values come in closed form from the roots of its stencil's
characteristic quadratic, as the paper's solution comes from the roots of
a*p**2 + b*p + c, so no Python loop runs over grid points.

A solution envelope is a valid level set when, at every point of the
domain, the lower branch is non-decreasing in the membership level r, the
upper branch is non-increasing, and lower <= upper. ``check_level_set`` is
the one verdict. One ``evaluate_grids`` pass (one basis evaluation per key
for both branches and x-derivatives 0-2, canonical term order, zero
coefficients masked) gives the grids that the monotonicity and ordering
flags and both residuals are read from. The envelopes are affine in r, so
their values at r = 0 and r = 1 decide the r-conditions exactly, whatever
the number of levels sampled; in x the verdict is sampled.

Solutions violating the conditions are reported, not rejected: which
differentiability case produces a valid level set is exactly what a caller
wants to inspect. ``check_case`` solves one case, checks it and, when
asked, measures its ``oracle_gap``, turning a refusal at any of these steps
into a value; ``enumerate_cases`` runs it once per family of twin cases
(11/22 and 12/21) and relabels the result for the twin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import EigenvalueDegeneracyError, FuzzyBvpError, UnsupportedProblemError
from .laplace import evaluate_grids
from .solver import DiffCase, FuzzyBVP, FuzzySolution, solve

# Slack for the discrete monotonicity/ordering tests, relative to the
# largest |envelope| on the grid.
GRID_TOL = 1e-10

# Intervals of the coarse oracle grid in ``oracle_gap``, which extrapolates
# the solves on ORACLE_N and 2*ORACLE_N intervals; its gaps on the demo
# problems are at most 6.4e-15.
ORACLE_N = 2000


@dataclass(frozen=True)
class ValidityReport:
    """Grid-based verdict on one solution envelope."""

    monotone_lower_in_r: bool
    monotone_upper_in_r: bool
    ordered: bool
    max_ode_residual: float
    max_boundary_residual: float
    grid: tuple[int, int]
    oracle_max_gap: float | None = None

    @property
    def valid_level_set(self) -> bool:
        return self.monotone_lower_in_r and self.monotone_upper_in_r and self.ordered

    def to_text(self) -> str:
        lines = [
            f"monotone_lower_in_r = {str(self.monotone_lower_in_r).lower()}",
            f"monotone_upper_in_r = {str(self.monotone_upper_in_r).lower()}",
            f"ordered = {str(self.ordered).lower()}",
            f"valid_level_set = {str(self.valid_level_set).lower()}",
            f"max_ode_residual = {self.max_ode_residual:.6e}",
            f"max_boundary_residual = {self.max_boundary_residual:.6e}",
        ]
        if self.oracle_max_gap is not None:
            lines.append(f"oracle_max_gap = {self.oracle_max_gap:.6e}")
        lines.append(f"grid_x = {self.grid[0]}")
        lines.append(f"grid_r = {self.grid[1]}")
        return "\n".join(lines)


def residual_ode(sol: FuzzySolution, x_count: int = 101, r_count: int = 11) -> float:
    """Largest pointwise residual of the governing equation on the grid:
    ``check_level_set(sol, x_count, r_count).max_ode_residual``."""
    return check_level_set(sol, x_count, r_count).max_ode_residual


def check_level_set(sol: FuzzySolution, x_count: int = 101, r_count: int = 11) -> ValidityReport:
    """Test the level-set conditions on an x-by-r grid and collect residuals.

    Both envelopes and their first two x-derivatives come from one
    ``evaluate_grids`` pass; ``np.linspace`` puts the first and last rows
    exactly at x = 0 and x = L. The envelopes are affine in r, so the
    levels r = 0 and r = 1 decide every level, as in ``FuzzyNumber`` and
    ``oracle_gap``: lower(1) - lower(0) >= -tol, upper(1) - upper(0) <= tol,
    and lower <= upper + tol at both levels. ``r_count`` only sets the
    levels the residuals are sampled at, never the verdict. In x the
    conditions are checked at the ``x_count`` samples only. ``tol`` is
    ``GRID_TOL`` times the largest |envelope| on the grid (which an affine
    function takes at r = 0 or r = 1), one scalar for all three conditions,
    so the verdict does not change when the boundary data are scaled.

    The ODE residual is |a*y'' + b*y' + c*y| per branch for the decoupled
    cases and the coupled pair |a*lower'' + c_eff*upper|,
    |a*upper'' + c_eff*lower| for the mixed ones. Derivatives are exact
    term-wise rules, so this is a genuine substitution check, not a finite
    difference. Since a != 0 and 0*inf is NaN, the residual is finite only
    if every grid it is formed from is; a non-finite one raises
    ``UnsupportedProblemError``.
    """
    if x_count < 2 or r_count < 2:
        raise ValueError("need at least a 2x2 grid")
    prob = sol.problem
    xs = np.linspace(0.0, prob.L, x_count)
    rs = np.linspace(0.0, 1.0, r_count)
    with np.errstate(over="ignore", invalid="ignore"):
        # y[branch, order]: branch 0 is lower, 1 upper
        y = evaluate_grids((sol.lower, sol.upper), xs, rs, (0, 1, 2))
        if sol.case.is_mixed:
            residual = prob.a * y[:, 2] + prob.effective_c(sol.case) * y[::-1, 0]
        else:
            residual = prob.a * y[:, 2] + prob.b * y[:, 1] + prob.c * y[:, 0]
        max_ode_residual = float(np.max(np.abs(residual)))
    if not np.isfinite(max_ode_residual):
        raise UnsupportedProblemError(
            f"case {sol.case.tag} overflows double precision on [0, L={prob.L}]: "
            "an envelope or one of its first two x-derivatives is not finite"
        )
    lower, upper = y[:, 0]
    # the envelopes are affine in r, so r = 0 and r = 1 decide every level
    tol = GRID_TOL * float(np.max(np.abs(y[:, 0][..., [0, -1]])))
    boundary_gaps = (
        lower[0] - prob.bc0.lower(rs),
        upper[0] - prob.bc0.upper(rs),
        lower[-1] - prob.bcL.lower(rs),
        upper[-1] - prob.bcL.upper(rs),
    )
    return ValidityReport(
        monotone_lower_in_r=bool(np.all(lower[:, -1] - lower[:, 0] >= -tol)),
        monotone_upper_in_r=bool(np.all(upper[:, -1] - upper[:, 0] <= tol)),
        ordered=bool(np.all(lower[:, [0, -1]] <= upper[:, [0, -1]] + tol)),
        max_ode_residual=max_ode_residual,
        max_boundary_residual=float(np.max(np.abs(boundary_gaps))),
        grid=(x_count, r_count),
    )


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one differentiability case: a checked solution or an error."""

    case: DiffCase
    solution: FuzzySolution | None
    error: str | None
    report: ValidityReport | None

    @property
    def solved(self) -> bool:
        return self.solution is not None


def check_case(
    prob: FuzzyBVP, case: DiffCase, x_count: int = 101, r_count: int = 11, *, oracle: bool = False
) -> CaseResult:
    """Solve ``prob`` under ``case``, check the solution and, with ``oracle``, put
    ``oracle_gap(sol)`` in its report; a refusal at any of the three becomes a value."""
    try:
        sol = solve(replace(prob, case=case))
        report = check_level_set(sol, x_count, r_count)
        if oracle:
            report = replace(report, oracle_max_gap=oracle_gap(sol))
    except FuzzyBvpError as exc:
        return CaseResult(case, None, f"{type(exc).__name__}: {exc}", None)
    return CaseResult(case, sol, None, report)


def enumerate_cases(
    prob: FuzzyBVP, x_count: int = 101, r_count: int = 11, *, oracle: bool = False
) -> list[CaseResult]:
    """Run all four cases and attach validity reports; failures become values.

    The level-set criterion decides which differentiability case yields a
    usable solution, so callers typically want all four side by side. Each
    family is solved, checked and (with ``oracle``) cross-checked once: 22
    gets the envelopes of 11 with F1 and F2 swapped and 21 the solution of
    12 (``FuzzySolution.as_case``), and each twin shares the report, or the
    error text, of its family. The results come in ``ALL_CASES`` order.
    """
    results = []
    for case in (DiffCase.CASE_11, DiffCase.CASE_12):
        res = check_case(prob, case, x_count, r_count, oracle=oracle)
        twin = res.solution.as_case(case.twin) if res.solved else None
        results += [res, replace(res, case=case.twin, solution=twin)]
    return results


def _log_abs_1p(t: float) -> tuple[float, float]:
    """(log|1 + t|, sign of 1 + t), from log1p on both sides of t = -1."""
    if t == -1.0:
        return -math.inf, 1.0
    return (math.log1p(t), 1.0) if t > -1.0 else (math.log1p(-2.0 - t), -1.0)


def _end_solutions(a: float, b: float, c: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """U and V at j = 1..n-1: the solutions of the stencil (sub, diag, sup) =
    (w - v, c - 2*w, w + v), with w = a/h**2 and v = b/(2*h), for y_0 = 1,
    y_n = 0 and y_0 = 0, y_n = 1.

    With mu_1, mu_2 the roots of sup*mu**2 + diag*mu + sub = 0, |mu_2| <= |mu_1|,
    rho = mu_2/mu_1 and E(k) = 1 - rho**k, U_j = mu_2**j*E(n-j)/E(n) and
    V_j = mu_1**(j-n)*E(j)/E(n): each mode is anchored at the end where it is
    largest. A complex pair r*exp(+-i*theta) has E(k) = sin(k*theta) and a
    double root E(k) = k. If sub*sup/diag**2 <= 2**-100, a root is ~0 or ~inf
    and each end keeps one mode. mu = 1 + t, with the t-quadratic
    sup*t**2 + (c + 2*v)*t + c = 0 formed from w, v and c: the rounded
    diag = c - 2*w has already lost about u*w of c, a relative u/(k*h)**2,
    and r**2 = sub/sup = 1 - 2*v/(w + v) likewise. Elimination in order
    meets the pivots p_i = lambda_1*E(i+1)/E(i), lambda = -sup*mu; one at or
    below 1e-13 times the rounded stencil's largest entry raises
    ``EigenvalueDegeneracyError``, and an entry that is not finite, or a
    weight w below the normal range (the y'' term lost),
    ``UnsupportedProblemError``. Every test and value here is homogeneous
    of degree 0 in (w, v, c), so they are first scaled by one power of two
    to a largest stencil entry in [0.5, 1): no bit changes, and no sum can
    overflow. v is scaled through b, since b/(2*h) below the normal range
    has lost bits that b*2**-e/(2*h) keeps; so (a, b, c) scaled exactly by
    a power of two keeps every bit of U and V.
    """
    # a / h / h, not a / h**2: a float quotient overflows to inf where ** raises
    w, v = a / h / h, b / (2.0 * h)
    sub, diag, sup = w - v, c - 2.0 * w, w + v
    stencil = f"finite-difference oracle at n = {n}, stencil (sub, diag, sup) = ({sub}, {diag}, {sup})"
    # a weight of y'' below the normal range has lost the term it stands for
    if not (abs(w) >= sys.float_info.min and all(map(math.isfinite, (sub, diag, sup)))):
        raise UnsupportedProblemError(f"{stencil} with a/h**2 = {w}: stencil beyond double precision")
    refusal = f"{stencil}: singular tridiagonal system (zero pivot)"
    e = math.frexp(max(abs(sub), abs(diag), abs(sup)))[1]
    w, c, sub, diag, sup = (math.ldexp(x, -e) for x in (w, c, sub, diag, sup))
    v = math.ldexp(b, -e) / (2.0 * h)
    tol = 1e-13 * max(abs(sub), abs(diag), abs(sup))
    if abs(diag) <= tol:  # the first pivot
        raise EigenvalueDegeneracyError(refusal)
    j = np.arange(1, n)
    if abs((sub / diag) * (sup / diag)) <= 2.0**-100:
        return (-sub / diag) ** j, (-sup / diag) ** (n - j)
    half = (c + 2.0 * v) / (2.0 * sup)  # t**2 + 2*half*t + prod = 0
    prod = c / sup
    disc = half * half - prod
    k = np.arange(1, n + 1)
    if disc < 0.0:
        l1 = l2 = 0.5 * math.log1p(-2.0 * v / sup)
        s1 = s2 = 1.0
        E = np.sin(k * math.atan2(math.sqrt(-disc), 1.0 - half))
    else:
        q = -(half + math.copysign(math.sqrt(disc), half))
        (l2, s2), (l1, s1) = sorted(map(_log_abs_1p, (q, prod / q) if q else (0.0, 0.0)))
        E = -np.expm1(k * (l2 - l1)) if l2 < l1 or s1 != s2 else k.astype(float)
        if s1 != s2:
            E[::2] = 2.0 - E[::2]  # odd k: 1 + |rho|**k
    if np.any(abs(sup) * math.exp(l1) * np.abs(E[1:]) <= tol * np.abs(E[:-1])):
        raise EigenvalueDegeneracyError(refusal)
    U = np.exp(j * l2) * E[-2::-1] / E[-1]
    V = np.exp((j - n) * l1) * E[:-1] / E[-1]
    if s2 < 0.0:
        U[::2] *= -1.0
    if s1 < 0.0:
        V[n % 2 :: 2] *= -1.0
    return U, V


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def fd_oracle(a: float, b: float, c: float, L: float, y0, yL, n: int) -> np.ndarray:
    """Second-order central-difference solve of a*y'' + b*y' + c*y = 0.

    ``y0`` and ``yL`` are two scalars, or two 1-D sequences of equal length
    holding one boundary pair per column. Returns the n+1 grid values
    including both boundaries, with shape (n+1,) for scalars and (n+1, k)
    for k pairs. A column's interior is U*y0 + V*yL, with U and V the
    stencil's solutions for a unit value at the left and the right end, in
    closed form (``_end_solutions``) and shared by all columns; so a column
    has the same bits alone as with others, and a scalar call equals a
    one-column call. The stencil weight is inside U and V, so data near the
    overflow edge never meet sub ~ a*n^2/L^2 on their own. Non-finite
    coefficients, L or boundary values and a non-positive L raise
    ``ValueError``. A step h = L/n that underflows to 0, a stencil entry
    that is not finite and a weight a/h**2 below the normal range (the y''
    term lost) raise ``UnsupportedProblemError``. Accuracy is O((L/n)^2);
    this is the independent check for the closed-form pipeline and shares
    none of its machinery.
    """
    if n < 16:
        raise ValueError(f"need at least 16 intervals, got {n}")
    _require_finite(a=a, b=b, c=c, L=L)
    if a == 0.0:
        raise ValueError("leading coefficient a must be nonzero")
    if not L > 0.0:
        raise ValueError(f"domain length must be positive, got {L}")
    y0, yL = np.asarray(y0, dtype=float), np.asarray(yL, dtype=float)
    if y0.ndim > 1 or y0.shape != yL.shape:
        raise ValueError(
            "boundary values must be scalars or 1-D sequences of equal length, "
            f"got shapes {[y0.shape, yL.shape]}"
        )
    if not (np.isfinite(y0).all() and np.isfinite(yL).all()):
        raise ValueError("boundary values must be finite")
    h = L / n
    if not h > 0.0:
        raise UnsupportedProblemError(
            f"finite-difference oracle at n = {n}: grid step L/n = {L}/{n} underflows to 0"
        )
    U, V = _end_solutions(a, b, c, h, n)
    # one row per column, so the products run along the grid, not along the
    # few columns; the (n+1, k) result is its transpose
    out = np.empty((y0.size, n + 1))
    out[:, 0] = y0
    out[:, -1] = yL
    np.multiply.outer(y0.ravel(), U, out=out[:, 1:-1])
    out[:, 1:-1] += np.multiply.outer(yL.ravel(), V)
    return out.T if y0.ndim else out[0]


def _extrapolated(a: float, b: float, c: float, L: float, y0, yL) -> np.ndarray:
    """``fd_oracle`` on ``ORACLE_N`` intervals with its O(h**2) error term
    cancelled: f_2n + (f_2n - f_n)/3 on the coarse grid, Richardson's deferred
    approach to the limit. The scheme's error is even in h, so what is left
    is O(h**4)."""
    coarse = fd_oracle(a, b, c, L, y0, yL, ORACLE_N)
    fine = fd_oracle(a, b, c, L, y0, yL, 2 * ORACLE_N)[::2]
    return fine + (fine - coarse) / 3.0


def oracle_gap(sol: FuzzySolution) -> float:
    """Largest gap over every level in [0, 1] between the closed-form envelopes
    and the oracle extrapolated from ``ORACLE_N`` and ``2*ORACLE_N`` intervals,
    on the ``ORACLE_N + 1`` points of the coarse grid.

    At each fixed r the envelopes solve a crisp problem the oracle can
    reproduce: the branch equations for cases 11/22, the coupled pair
    a*lower'' + c_eff*upper = 0 = a*upper'' + c_eff*lower for the mixed cases.
    The envelopes are affine in r, and so is each extrapolated oracle column,
    which is linear in its boundary data; the gap at a grid point is then
    |alpha + r*beta|, largest at r = 0 or r = 1. So those two levels give
    the gap at every level, to the rounding of the data, and go to
    ``fd_oracle`` as columns of one call per stencil and grid: a lower and
    an upper column per level for cases 11/22. For the mixed cases the half
    sum s solves a*s'' + c_eff*s = 0 and the half difference d
    a*d'' - c_eff*d = 0, and lower = s + d, upper = s - d.
    """
    prob = sol.problem
    rs = np.array((0.0, 1.0))
    lo0, up0 = prob.bc0.lower(rs), prob.bc0.upper(rs)
    loL, upL = prob.bcL.lower(rs), prob.bcL.upper(rs)
    if sol.case.is_mixed:
        c_eff = prob.effective_c(sol.case)
        # halved before they are summed, so finite data stay finite
        lo0, up0, loL, upL = (v / 2.0 for v in (lo0, up0, loL, upL))
        s = _extrapolated(prob.a, 0.0, c_eff, prob.L, lo0 + up0, loL + upL)
        d = _extrapolated(prob.a, 0.0, -c_eff, prob.L, lo0 - up0, loL - upL)
        fd = np.hstack((s + d, s - d))
        del s, d  # not held while the envelopes are evaluated
    else:
        bc0, bcL = np.concatenate((lo0, up0)), np.concatenate((loL, upL))
        fd = _extrapolated(prob.a, prob.b, prob.c, prob.L, bc0, bcL)
    xs = np.linspace(0.0, prob.L, ORACLE_N + 1)
    lower, upper = evaluate_grids((sol.lower, sol.upper), xs, rs)[:, 0]
    fd[:, : rs.size] -= lower
    fd[:, rs.size :] -= upper
    return float(np.max(np.abs(fd, out=fd), initial=0.0))
