"""Level-set checks, residual measurement, and the finite-difference oracle."""

from dataclasses import replace

import numpy as np
import pytest

from fuzzybvp import (
    DiffCase,
    EigenvalueDegeneracyError,
    FuzzyBVP,
    FuzzyNumber,
    RClosedForm,
    RFun,
    check_level_set,
    fd_oracle,
    fd_oracle_coupled,
    monotone_by_slope,
    oracle_gap,
    residual_ode,
    solve,
)

BC0 = FuzzyNumber(RFun(1, 1), RFun(3, -1))
BCL = FuzzyNumber(RFun(4, 1), RFun(6, -1))


def wave_solution(case=DiffCase.CASE_11):
    prob = FuzzyBVP(a=1.0, b=0.0, c=-1.0, L=1.0, bc0=BC0, bcL=BCL, case=case)
    return solve(prob)


class TestCheckLevelSet:
    def test_wave_solution_is_ordered(self):
        report = check_level_set(wave_solution(), x_count=101, r_count=11)
        assert report.ordered
        assert report.monotone_lower_in_r
        assert report.monotone_upper_in_r
        assert report.valid_level_set
        assert report.grid == (101, 11)

    def test_crisp_solution_trivially_valid(self):
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-1.0, L=1.0,
            bc0=FuzzyNumber.crisp(1.0), bcL=FuzzyNumber.crisp(2.0),
            case=DiffCase.CASE_11,
        )
        report = check_level_set(solve(prob))
        assert report.valid_level_set
        assert report.max_boundary_residual <= 1e-10

    def test_swapped_envelopes_fail_ordering(self):
        sol = wave_solution()
        swapped = replace(sol, lower=sol.upper, upper=sol.lower)
        report = check_level_set(swapped)
        assert not report.ordered
        assert not report.valid_level_set

    def test_failure_persists_under_grid_refinement(self):
        sol = wave_solution()
        swapped = replace(sol, lower=sol.upper, upper=sol.lower)
        coarse = check_level_set(swapped, x_count=11, r_count=11)
        fine = check_level_set(swapped, x_count=21, r_count=21)  # nested grids
        assert not coarse.ordered and not fine.ordered

    def test_report_serialization(self):
        report = check_level_set(wave_solution())
        text = report.to_text()
        assert "ordered = true" in text
        assert "grid_x = 101" in text
        assert all(" = " in line for line in text.splitlines())

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            check_level_set(wave_solution(), x_count=1, r_count=11)

    def test_slope_test_agrees_with_grid_test(self):
        # the exact affine-slope variant and the authoritative grid test
        # must agree on affine data, in both directions
        sol = wave_solution()
        report = check_level_set(sol)
        lo_ok, up_ok = monotone_by_slope(sol)
        assert (lo_ok, up_ok) == (report.monotone_lower_in_r, report.monotone_upper_in_r)

        swapped = replace(sol, lower=sol.upper, upper=sol.lower)
        swapped_report = check_level_set(swapped)
        lo_ok, up_ok = monotone_by_slope(swapped)
        assert (lo_ok, up_ok) == (
            swapped_report.monotone_lower_in_r,
            swapped_report.monotone_upper_in_r,
        )
        assert not lo_ok and not up_ok


class TestResiduals:
    def test_solver_output_residual_is_tiny(self):
        sol = wave_solution()
        xs = np.linspace(0, 1, 101)
        peak = max(
            float(np.max(np.abs(sol.lower.evaluate(xs, r)))) for r in (0.0, 1.0)
        )
        assert residual_ode(sol, 101, 11) <= 1e-8 * (1 + peak)

    def test_zero_solution_residual_is_zero(self):
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-1.0, L=1.0,
            bc0=FuzzyNumber.crisp(0.0), bcL=FuzzyNumber.crisp(0.0),
            case=DiffCase.CASE_11,
        )
        assert residual_ode(solve(prob)) == 0.0

    def test_perturbed_coupled_solution_is_detected(self):
        # bumping one coefficient breaks the cross-branch coupling
        sol = wave_solution(DiffCase.CASE_12)
        kind, k, coeff = sol.lower.terms[0]
        bumped = (kind, k, RFun(coeff.c0 + 0.1, coeff.c1))
        bad = replace(sol, lower=RClosedForm((bumped,) + sol.lower.terms[1:]))
        assert residual_ode(bad) > 1e-3

    def test_perturbed_uncoupled_solution_moves_the_boundary(self):
        # for the decoupled cases every basis term solves the equation, so
        # a coefficient bump stays in the kernel; it is the boundary check
        # that catches it
        sol = wave_solution()
        kind, k, coeff = sol.lower.terms[0]
        bumped = (kind, k, RFun(coeff.c0 + 0.1, coeff.c1))
        bad = replace(sol, lower=RClosedForm((bumped,) + sol.lower.terms[1:]))
        report = check_level_set(bad)
        assert report.max_ode_residual <= 1e-10
        assert report.max_boundary_residual > 1e-3


class TestFdOracle:
    def test_zero_data(self):
        assert np.all(fd_oracle(1.0, -3.0, 2.0, 1.0, 0.0, 0.0, 64) == 0.0)

    def test_matches_cosh(self):
        n = 10_000
        xs = np.linspace(0, 1, n + 1)
        got = fd_oracle(1.0, 0.0, -1.0, 1.0, 1.0, np.cosh(1.0), n)
        assert np.max(np.abs(got - np.cosh(xs))) <= 1e-7

    def test_second_order_convergence(self):
        errors = []
        for n in [2 ** m for m in range(6, 13)]:
            xs = np.linspace(0, 1, n + 1)
            got = fd_oracle(1.0, 0.0, -1.0, 1.0, 1.0, np.cosh(1.0), n)
            errors.append(np.max(np.abs(got - np.cosh(xs))))
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        assert all(3.6 <= ratio <= 4.4 for ratio in ratios), ratios

    def test_singular_system_raises(self):
        # c = 2a/h^2 zeroes the diagonal; with an odd interior count the
        # matrix is genuinely singular
        n, L, a = 16, 1.0, 1.0
        c = 2.0 * a * n * n / (L * L)
        with pytest.raises(EigenvalueDegeneracyError):
            fd_oracle(a, 0.0, c, L, 1.0, 1.0, n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fd_oracle(1.0, 0.0, -1.0, 1.0, 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            fd_oracle(0.0, 0.0, -1.0, 1.0, 0.0, 1.0, 64)


class TestFdOracleCoupled:
    def test_symmetric_data_reduces_to_scalar(self):
        # with v = w on the boundary the coupled pair collapses to
        # a y'' = kappa y, which the scalar oracle solves with c = -kappa
        kappa, n = 1.3, 256
        v, w = fd_oracle_coupled(1.0, kappa, 1.0, 1.0, 1.0, 2.0, 2.0, n)
        scalar = fd_oracle(1.0, 0.0, -kappa, 1.0, 1.0, 2.0, n)
        assert np.max(np.abs(v - w)) <= 1e-12
        assert np.max(np.abs(v - scalar)) <= 1e-10

    def test_matches_dense_stacked_system(self):
        # the coupled central-difference system assembled and solved as it
        # stands, with no sum/difference change of variables
        a, kappa, L, n = 1.5, 2.0, 1.3, 64
        v0, w0, vL, wL = 1.0, 3.0, 4.0, 6.0
        m, h = n - 1, L / n
        lap = (
            np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
        ) * (a / h**2)
        system = np.block([[lap, -kappa * np.eye(m)], [-kappa * np.eye(m), lap]])
        rhs = np.zeros(2 * m)
        rhs[0] -= a / h**2 * v0
        rhs[m - 1] -= a / h**2 * vL
        rhs[m] -= a / h**2 * w0
        rhs[-1] -= a / h**2 * wL
        dense = np.linalg.solve(system, rhs)
        v, w = fd_oracle_coupled(a, kappa, L, v0, w0, vL, wL, n)
        assert np.max(np.abs(v[1:-1] - dense[:m])) <= 1e-10
        assert np.max(np.abs(w[1:-1] - dense[m:])) <= 1e-10
        assert (v[0], w[0], v[-1], w[-1]) == (v0, w0, vL, wL)

    def test_matches_coupled_closed_form(self):
        sol = wave_solution(DiffCase.CASE_12)
        assert oracle_gap(sol, n=10_000) <= 1e-5

    def test_second_order_convergence_against_closed_form(self):
        sol = wave_solution(DiffCase.CASE_12)
        gaps = [oracle_gap(sol, n=n, r_values=(0.0,)) for n in (128, 256, 512)]
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        assert all(3.5 <= ratio <= 4.5 for ratio in ratios), ratios


class TestOracleGap:
    def test_uncoupled_gap_small(self):
        assert oracle_gap(wave_solution(), n=10_000) <= 1e-5

    def test_gap_detects_wrong_solution(self):
        sol = wave_solution()
        kind, k, coeff = sol.lower.terms[0]
        bumped = (kind, k, RFun(coeff.c0 + 0.5, coeff.c1))
        bad = replace(sol, lower=RClosedForm((bumped,) + sol.lower.terms[1:]))
        assert oracle_gap(bad, n=1000) > 1e-2
