"""Level-set validity checks, residual measurement, and an independent
finite-difference oracle for crisp cross-checks.

A solution envelope is a valid level set when, at every point of the
domain, the lower branch is non-decreasing in the membership level r, the
upper branch is non-increasing, and lower <= upper. Solutions violating
this are reported, not rejected: which differentiability case produces a
valid level set is exactly what a caller wants to inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EigenvalueDegeneracyError
from .solver import FuzzySolution

# Slack for the discrete monotonicity/ordering tests.
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


def _grids(sol: FuzzySolution, x_count: int, r_count: int):
    xs = np.linspace(0.0, sol.problem.L, x_count)
    rs = np.linspace(0.0, 1.0, r_count)
    return xs, rs


def residual_ode(sol: FuzzySolution, x_count: int = 101, r_count: int = 11) -> float:
    """Largest pointwise residual of the governing equation on the grid.

    Decoupled cases measure |a*y'' + b*y' + c*y| per branch; the mixed
    cases measure the coupled pair |a*lower'' + c_eff*upper| and
    |a*upper'' + c_eff*lower|. Derivatives are exact term-wise rules, so
    this is a genuine substitution check, not a finite difference.
    """
    prob = sol.problem
    xs, rs = _grids(sol, x_count, r_count)
    lo = [sol.lower.evaluate_grid(xs, rs, d) for d in range(3)]
    up = [sol.upper.evaluate_grid(xs, rs, d) for d in range(3)]
    if sol.case.is_mixed:
        c_eff = prob.effective_c(sol.case)
        res_lo = prob.a * lo[2] + c_eff * up[0]
        res_up = prob.a * up[2] + c_eff * lo[0]
    else:
        res_lo = prob.a * lo[2] + prob.b * lo[1] + prob.c * lo[0]
        res_up = prob.a * up[2] + prob.b * up[1] + prob.c * up[0]
    return float(max(np.max(np.abs(res_lo)), np.max(np.abs(res_up))))


def boundary_residual(sol: FuzzySolution, r_count: int = 11) -> float:
    """Largest endpoint mismatch against the prescribed boundary values."""
    prob = sol.problem
    rs = np.linspace(0.0, 1.0, r_count)
    ends = (0.0, prob.L)
    lo = sol.lower.evaluate_grid(ends, rs)
    up = sol.upper.evaluate_grid(ends, rs)
    gaps = (
        lo[0] - prob.bc0.lower(rs),
        up[0] - prob.bc0.upper(rs),
        lo[1] - prob.bcL.lower(rs),
        up[1] - prob.bcL.upper(rs),
    )
    return float(np.max(np.abs(gaps)))


def monotone_by_slope(sol: FuzzySolution, x_count: int = 101) -> tuple[bool, bool]:
    """Monotonicity via the exact r-derivative of the affine coefficients.

    Returns (lower non-decreasing, upper non-increasing). Because the
    envelopes are affine in r, the sign of the slope closed form decides
    monotonicity outright; the grid test in check_level_set remains the
    authoritative verdict in reports (it also covers non-affine data).
    """
    xs = np.linspace(0.0, sol.problem.L, x_count)
    lower_slope = np.atleast_1d(sol.lower.r_slope().evaluate(xs))
    upper_slope = np.atleast_1d(sol.upper.r_slope().evaluate(xs))
    return (
        bool(np.all(lower_slope >= -GRID_TOL)),
        bool(np.all(upper_slope <= GRID_TOL)),
    )


def check_level_set(sol: FuzzySolution, x_count: int = 101, r_count: int = 11) -> ValidityReport:
    """Test the level-set conditions on an x-by-r grid and collect residuals."""
    if x_count < 2 or r_count < 2:
        raise ValueError("need at least a 2x2 grid")
    xs, rs = _grids(sol, x_count, r_count)
    lower_vals = sol.lower.evaluate_grid(xs, rs)
    upper_vals = sol.upper.evaluate_grid(xs, rs)

    monotone_lower = bool(np.all(np.diff(lower_vals, axis=1) >= -GRID_TOL))
    monotone_upper = bool(np.all(np.diff(upper_vals, axis=1) <= GRID_TOL))
    ordered = bool(np.all(lower_vals <= upper_vals + GRID_TOL))

    return ValidityReport(
        monotone_lower_in_r=monotone_lower,
        monotone_upper_in_r=monotone_upper,
        ordered=ordered,
        max_ode_residual=residual_ode(sol, x_count, r_count),
        max_boundary_residual=boundary_residual(sol, r_count),
        grid=(x_count, r_count),
    )


def _thomas(sub: float, diag: float, sup: float, rhs: np.ndarray) -> np.ndarray:
    """Constant-coefficient tridiagonal solve with zero-pivot detection."""
    m = len(rhs)
    scale = max(abs(sub), abs(diag), abs(sup), 1.0)
    w = np.empty(m)
    g = np.empty(m)
    pivot = diag
    if abs(pivot) <= 1e-13 * scale:
        raise EigenvalueDegeneracyError("singular tridiagonal system (zero pivot)")
    w[0] = sup / pivot
    g[0] = rhs[0] / pivot
    for i in range(1, m):
        pivot = diag - sub * w[i - 1]
        if abs(pivot) <= 1e-13 * scale:
            raise EigenvalueDegeneracyError("singular tridiagonal system (zero pivot)")
        w[i] = sup / pivot
        g[i] = (rhs[i] - sub * g[i - 1]) / pivot
    y = np.empty(m)
    y[-1] = g[-1]
    for i in range(m - 2, -1, -1):
        y[i] = g[i] - w[i] * y[i + 1]
    return y


def fd_oracle(
    a: float, b: float, c: float, L: float, y0: float, yL: float, n: int
) -> np.ndarray:
    """Second-order central-difference solve of a*y'' + b*y' + c*y = 0.

    Returns the n+1 grid values including both boundaries. Accuracy is
    O((L/n)^2); this is the independent check for the closed-form pipeline
    and shares none of its machinery.
    """
    if n < 16:
        raise ValueError(f"need at least 16 intervals, got {n}")
    if a == 0.0:
        raise ValueError("leading coefficient a must be nonzero")
    h = L / n
    sub = a / h**2 - b / (2.0 * h)
    diag = c - 2.0 * a / h**2
    sup = a / h**2 + b / (2.0 * h)
    rhs = np.zeros(n - 1)
    rhs[0] -= sub * y0
    rhs[-1] -= sup * yL
    interior = _thomas(sub, diag, sup, rhs)
    return np.concatenate(([y0], interior, [yL]))


def fd_oracle_coupled(
    a: float,
    kappa: float,
    L: float,
    v0: float,
    w0: float,
    vL: float,
    wL: float,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference solve of the coupled pair a*v'' = kappa*w, a*w'' = kappa*v.

    The sum s = v + w solves a*s'' - kappa*s = 0 and the difference
    d = v - w solves a*d'' + kappa*d = 0. The three-point stencil commutes
    with this change of variables, so two scalar solves recombined as
    v = (s + d)/2, w = (s - d)/2 are the coupled scheme's solution.
    """
    s = fd_oracle(a, 0.0, -kappa, L, v0 + w0, vL + wL, n)
    d = fd_oracle(a, 0.0, kappa, L, v0 - w0, vL - wL, n)
    return (s + d) / 2.0, (s - d) / 2.0


def oracle_gap(sol: FuzzySolution, n: int = 10_000, r_values=(0.0, 0.5, 1.0)) -> float:
    """Largest gap between the closed-form envelopes and the oracle.

    At each fixed r the envelopes solve a crisp problem the oracle can
    reproduce: the branch equations directly for cases 11/22, the coupled
    pair for the mixed cases.
    """
    prob = sol.problem
    xs = np.linspace(0.0, prob.L, n + 1)
    lo_grid = sol.lower.evaluate_grid(xs, r_values)
    up_grid = sol.upper.evaluate_grid(xs, r_values)
    worst = 0.0
    for j, r in enumerate(r_values):
        lo_vals = lo_grid[:, j]
        up_vals = up_grid[:, j]
        if sol.case.is_mixed:
            kappa = -prob.effective_c(sol.case)
            v, w = fd_oracle_coupled(
                prob.a,
                kappa,
                prob.L,
                prob.bc0.lower(r),
                prob.bc0.upper(r),
                prob.bcL.lower(r),
                prob.bcL.upper(r),
                n,
            )
            worst = max(
                worst,
                float(np.max(np.abs(lo_vals - v))),
                float(np.max(np.abs(up_vals - w))),
            )
        else:
            lo_fd = fd_oracle(
                prob.a, prob.b, prob.c, prob.L, prob.bc0.lower(r), prob.bcL.lower(r), n
            )
            up_fd = fd_oracle(
                prob.a, prob.b, prob.c, prob.L, prob.bc0.upper(r), prob.bcL.upper(r), n
            )
            worst = max(
                worst,
                float(np.max(np.abs(lo_vals - lo_fd))),
                float(np.max(np.abs(up_vals - up_fd))),
            )
    return worst


def with_oracle_gap(report: ValidityReport, sol: FuzzySolution, n: int = 10_000) -> ValidityReport:
    return replace(report, oracle_max_gap=oracle_gap(sol, n=n))
