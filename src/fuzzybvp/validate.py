"""The level-set verdict per differentiability case, residual measurement,
and an independent finite-difference oracle for crisp cross-checks.

A solution envelope is a valid level set when, at every point of the
domain, the lower branch is non-decreasing in the membership level r, the
upper branch is non-increasing, and lower <= upper. ``check_level_set`` is
the one verdict. One ``evaluate_grids`` pass (one basis evaluation per key
for both branches and x-derivatives 0-2, canonical term order, zero
coefficients masked) gives the grids that the monotonicity and ordering
flags and both residuals are read from. The envelopes are affine in r, so
the r-grid decides the r-conditions exactly; in x the verdict is sampled.

Solutions violating the conditions are reported, not rejected: which
differentiability case produces a valid level set is exactly what a caller
wants to inspect. ``check_case`` solves one case and checks it, turning a
refusal into a value, and ``enumerate_cases`` runs it once per family of
twin cases (11/22 and 12/21) and relabels the result for the twin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EigenvalueDegeneracyError, FuzzyBvpError, UnsupportedProblemError
from .laplace import evaluate_grids
from .solver import DiffCase, FuzzyBVP, FuzzySolution, solve

# Slack for the discrete monotonicity/ordering tests, relative to the
# largest |envelope| on the grid.
GRID_TOL = 1e-10


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
    r-grid (which holds r = 0 and r = 1) settles monotonicity and ordering
    for every level; in x the conditions are checked at the ``x_count``
    samples only. The slack is ``GRID_TOL`` times the largest |envelope| on
    the grid, one scalar for all three conditions, so the verdict does not
    change when the boundary data are scaled.

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
    tol = GRID_TOL * float(np.max(np.abs(y[:, 0])))
    boundary_gaps = (
        lower[0] - prob.bc0.lower(rs),
        upper[0] - prob.bc0.upper(rs),
        lower[-1] - prob.bcL.lower(rs),
        upper[-1] - prob.bcL.upper(rs),
    )
    return ValidityReport(
        monotone_lower_in_r=bool(np.all(np.diff(lower, axis=1) >= -tol)),
        monotone_upper_in_r=bool(np.all(np.diff(upper, axis=1) <= tol)),
        ordered=bool(np.all(lower <= upper + tol)),
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
    prob: FuzzyBVP, case: DiffCase, x_count: int = 101, r_count: int = 11
) -> CaseResult:
    """Solve ``prob`` under ``case`` and check the solution; a refusal becomes a value."""
    try:
        sol = solve(replace(prob, case=case))
        report = check_level_set(sol, x_count, r_count)
    except FuzzyBvpError as exc:
        return CaseResult(case, None, f"{type(exc).__name__}: {exc}", None)
    return CaseResult(case, sol, None, report)


def enumerate_cases(prob: FuzzyBVP, x_count: int = 101, r_count: int = 11) -> list[CaseResult]:
    """Run all four cases and attach validity reports; failures become values.

    The level-set criterion decides which differentiability case yields a
    usable solution, so callers typically want all four side by side. Each
    family is solved and checked once: 22 gets the envelopes of 11 with F1
    and F2 swapped and 21 the solution of 12 (``FuzzySolution.as_case``),
    and each twin shares the report, or the error text, of its family.
    The results come in ``ALL_CASES`` order.
    """
    results = []
    for case in (DiffCase.CASE_11, DiffCase.CASE_12):
        res = check_case(prob, case, x_count, r_count)
        twin = res.solution.as_case(case.twin) if res.solved else None
        results += [res, replace(res, case=case.twin, solution=twin)]
    return results


def _end_solutions(sub: float, diag: float, sup: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """u = T^-1 e_1 and v = T^-1 e_m for the m-by-m tridiagonal T = (sub, diag, sup).

    The pivots p_1 = diag, p_i = diag - sub*sup/p_{i-1} are formed in Python
    floats, with zero-pivot detection. v is the back sweep of e_m, the
    running product v_m = 1/p_m, v_i = -(sup/p_i)*v_{i+1}. Reversing the
    unknowns swaps sub and sup and keeps the pivots (they depend on sub*sup
    only), so u is the mirror product u_1 = 1/p_m, u_{j+1} = -(sub/p_{m-j})*u_j.
    """
    scale = max(abs(sub), abs(diag), abs(sup), 1.0)
    pivots = []
    pivot = diag
    for i in range(m):
        if i:
            pivot = diag - sub * (sup / pivot)
        if abs(pivot) <= 1e-13 * scale:
            raise EigenvalueDegeneracyError("singular tridiagonal system (zero pivot)")
        pivots.append(pivot)
    # row 0 is u's factors, row 1 v's from its far end
    steps = np.empty((2, m))
    steps[:, 0] = 1.0 / pivots[-1]
    steps[:, 1:] = np.divide.outer((-sub, -sup), pivots[-2::-1])
    u, v = np.multiply.accumulate(steps, axis=1)
    return u, v[::-1]


def _boundary_arrays(*values) -> list[np.ndarray]:
    """Float arrays of the boundary values, all scalars or all 1-D of one length."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    shapes = [x.shape for x in arrays]
    if arrays[0].ndim > 1 or len(set(shapes)) > 1:
        raise ValueError(
            f"boundary values must be scalars or 1-D sequences of equal length, got shapes {shapes}"
        )
    return arrays


def fd_oracle(a: float, b: float, c: float, L: float, y0, yL, n: int) -> np.ndarray:
    """Second-order central-difference solve of a*y'' + b*y' + c*y = 0.

    ``y0`` and ``yL`` are two scalars, or two 1-D sequences of equal length
    holding one boundary pair per column. Returns the n+1 grid values
    including both boundaries, with shape (n+1,) for scalars and (n+1, k)
    for k pairs. A column's interior is -sub*y0*u - sup*yL*v, with u and v
    the stencil's solutions for a unit value at the left and the right end
    (``_end_solutions``), shared by all columns; so a column has the same
    bits alone as with others, and a scalar call equals a one-column call.
    Accuracy is O((L/n)^2); this is the independent check for the
    closed-form pipeline and shares none of its machinery.
    """
    if n < 16:
        raise ValueError(f"need at least 16 intervals, got {n}")
    if a == 0.0:
        raise ValueError("leading coefficient a must be nonzero")
    y0, yL = _boundary_arrays(y0, yL)
    h = L / n
    sub = a / h**2 - b / (2.0 * h)
    diag = c - 2.0 * a / h**2
    sup = a / h**2 + b / (2.0 * h)
    u, v = _end_solutions(sub, diag, sup, n - 1)
    out = np.empty((n + 1, y0.size))
    out[0] = y0
    out[-1] = yL
    np.multiply.outer(u, -sub * y0.ravel(), out=out[1:-1])
    out[1:-1] += np.multiply.outer(v, -sup * yL.ravel())
    return out if y0.ndim else out[:, 0]


def fd_oracle_coupled(
    a: float, kappa: float, L: float, v0, w0, vL, wL, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference solve of the coupled pair a*v'' = kappa*w, a*w'' = kappa*v.

    The sum s = v + w solves a*s'' - kappa*s = 0 and the difference
    d = v - w solves a*d'' + kappa*d = 0. The three-point stencil commutes
    with this change of variables, so two scalar solves recombined as
    v = (s + d)/2, w = (s - d)/2 are the coupled scheme's solution. The
    boundary values follow ``fd_oracle``'s rule: scalars or equal-length
    sequences, one column per boundary set, so each of the two matrices
    gets its two end solutions once however many columns there are.
    """
    v0, w0, vL, wL = _boundary_arrays(v0, w0, vL, wL)
    s = fd_oracle(a, 0.0, -kappa, L, v0 + w0, vL + wL, n)
    d = fd_oracle(a, 0.0, kappa, L, v0 - w0, vL - wL, n)
    return (s + d) / 2.0, (s - d) / 2.0


def oracle_gap(sol: FuzzySolution, n: int = 10_000, r_values=(0.0, 0.5, 1.0)) -> float:
    """Largest gap between the closed-form envelopes and the oracle.

    At each fixed r the envelopes solve a crisp problem the oracle can
    reproduce: the branch equations directly for cases 11/22, the coupled
    pair for the mixed cases. All levels go to the oracle as columns of one
    call, so each stencil is solved once: one ``fd_oracle`` call with a
    lower and an upper column per level for cases 11/22, one
    ``fd_oracle_coupled`` call for the mixed cases.
    """
    prob = sol.problem
    rs = np.asarray(r_values, dtype=float)
    lo0, up0 = prob.bc0.lower(rs), prob.bc0.upper(rs)
    loL, upL = prob.bcL.lower(rs), prob.bcL.upper(rs)
    if sol.case.is_mixed:
        kappa = -prob.effective_c(sol.case)
        fd = np.hstack(fd_oracle_coupled(prob.a, kappa, prob.L, lo0, up0, loL, upL, n))
    else:
        bc0, bcL = np.concatenate((lo0, up0)), np.concatenate((loL, upL))
        fd = fd_oracle(prob.a, prob.b, prob.c, prob.L, bc0, bcL, n)
    xs = np.linspace(0.0, prob.L, n + 1)
    lower, upper = evaluate_grids((sol.lower, sol.upper), xs, rs)[:, 0]
    fd[:, : rs.size] -= lower
    fd[:, rs.size :] -= upper
    return float(np.max(np.abs(fd, out=fd), initial=0.0))
