"""The transform pipeline end to end, for all four differentiability cases."""

import math
import re
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fix_r, per_point
from fuzzybvp import (
    ALL_CASES,
    CaseInapplicableError,
    ClosedForm,
    DiffCase,
    EigenvalueDegeneracyError,
    FuzzyBVP,
    FuzzyBvpError,
    FuzzyNumber,
    RClosedForm,
    RFun,
    TermKind,
    UnsupportedProblemError,
    check_level_set,
    enumerate_cases,
    fd_oracle,
    solve,
)
from fuzzybvp import laplace, solver
from fuzzybvp.cli import parse_problem_file
from fuzzybvp.laplace import Polynomial, RationalFunction, evaluate_grids, inverse_laplace

BC0 = FuzzyNumber(RFun(1, 1), RFun(3, -1))      # (1+r, 3-r)
BCL = FuzzyNumber(RFun(4, 1), RFun(6, -1))      # (4+r, 6-r)


# The wave boundary data with k*L just below ln(DBL_MAX) ~ 709.78.
NEAR_OVERFLOW = FuzzyBVP(a=2.109375, b=0.0, c=-6.109375, L=416.6015625, bc0=BC0, bcL=BCL)


def wave_problem(case=DiffCase.CASE_11, energy=1.0):
    """a*u'' = energy*u with the standard boundary data, on [0, 1]."""
    return FuzzyBVP(a=1.0, b=0.0, c=-energy, L=1.0, bc0=BC0, bcL=BCL, case=case)


def homogeneous_problem(case=DiffCase.CASE_11):
    """x'' - 3x' + 2x = 0, x(0) = (0.5r-0.5, 1-r), x(1) = (r-1, 1-r)."""
    return FuzzyBVP(
        a=1.0, b=-3.0, c=2.0, L=1.0,
        bc0=FuzzyNumber(RFun(-0.5, 0.5), RFun(1, -1)),
        bcL=FuzzyNumber(RFun(-1, 1), RFun(1, -1)),
        case=case,
    )


def paper_F(r, boundary_0, boundary_L, k, L):
    """Shooting constant written exactly as the worked wave example prints it."""
    num = boundary_L(r) - (boundary_0(r) / 2.0) * (np.exp(k * L) + np.exp(-k * L))
    den = 0.5 * (1.0 / k) * (np.exp(k * L) - np.exp(-k * L))
    return num / den


def paper_H(r, w, L, lo0, up0, loL, upL):
    """Coupled shooting constants as the worked example prints them (w = 1)."""
    c1 = np.cos(w * L) + np.cosh(w * L)
    c2 = np.sin(w * L) + np.sinh(w * L)
    c3 = np.cos(w * L) - np.cosh(w * L)
    c4 = np.sin(w * L) - np.sinh(w * L)
    r1 = loL(r) - (lo0(r) / 2.0) * c1 + (up0(r) / 2.0) * c3
    r2 = upL(r) - (up0(r) / 2.0) * c1 + (lo0(r) / 2.0) * c3
    h1 = 2 * c2 / (c2 ** 2 - c4 ** 2) * r1 + 2 * c4 / (c2 ** 2 - c4 ** 2) * r2
    h2 = 2 * c4 / (c2 ** 2 - c4 ** 2) * r1 + 2 * c2 / (c2 ** 2 - c4 ** 2) * r2
    return h1, h2


class TestTransformTemplates:
    def test_wave_template(self):
        # a p^2 - 1 = (p - 1)(p + 1): psi = l^-1[1/(p^2 - 1)] = sinh x and
        # phi = psi' = cosh x, the solutions with (y, y') = (1, 0) and (0, 1) at 0
        phi, psi = laplace.fundamental_pair(1.0, 0.0, -1.0)
        assert phi.terms == ((TermKind.COSH, 1.0, 1.0),)
        assert psi.terms == ((TermKind.SINH, 1.0, 1.0),)

    def test_homogeneous_template_sign(self):
        # y'' - 3y' + 2y = 0 has roots 1 and 2: psi = e^2x - e^x, and
        # phi = psi' - 3*psi = 2e^x - e^2x
        phi, psi = laplace.fundamental_pair(1.0, -3.0, 2.0)
        phi_map, psi_map = ({(kind, k): c for kind, k, c in form.terms} for form in (phi, psi))
        assert phi_map == {(TermKind.EXP, 1.0): 2.0, (TermKind.EXP, 2.0): -1.0}
        assert psi_map == {(TermKind.EXP, 1.0): -1.0, (TermKind.EXP, 2.0): 1.0}
        for form, value, slope in ((phi, 1.0, 0.0), (psi, 0.0, 1.0)):
            assert form.evaluate(0.0) == value
            assert form.differentiate().evaluate(0.0) == slope

    def test_crisp_zero_template(self):
        zero = FuzzyNumber.crisp(0.0)
        phi, psi, (f,) = solver._two_point(1.0, 0.0, -1.0, 1.0, ((zero.lower, zero.upper),))
        form = RClosedForm.combine(((zero.lower, phi), (f, psi)))
        assert form.terms == ()
        assert f == RFun(0.0, 0.0)


class TestSolveUncoupled:
    def test_wave_shooting_constants_match_worked_formula(self):
        sol = solve(wave_problem())
        k = 1.0
        for r in (0.0, 0.5, 1.0):
            want_f1 = paper_F(r, BC0.lower, BCL.lower, k, 1.0)
            want_f2 = paper_F(r, BC0.upper, BCL.upper, k, 1.0)
            assert sol.constants["F1"](r) == pytest.approx(want_f1, rel=1e-12)
            assert sol.constants["F2"](r) == pytest.approx(want_f2, rel=1e-12)

    def test_boundary_exactness(self):
        sol = solve(wave_problem())
        for r in np.linspace(0, 1, 11):
            assert abs(sol.lower.evaluate(0.0, r) - BC0.lower(r)) <= 1e-9
            assert abs(sol.lower.evaluate(1.0, r) - BCL.lower(r)) <= 1e-9
            assert abs(sol.upper.evaluate(0.0, r) - BC0.upper(r)) <= 1e-9
            assert abs(sol.upper.evaluate(1.0, r) - BCL.upper(r)) <= 1e-9

    def test_homogeneous_matches_fd_oracle(self):
        sol = solve(homogeneous_problem())
        prob = sol.problem
        n = 10_000
        xs = np.linspace(0.0, 1.0, n + 1)
        for r in (0.0, 0.5, 1.0):
            for branch, bc0, bcL in (
                (sol.lower, prob.bc0.lower, prob.bcL.lower),
                (sol.upper, prob.bc0.upper, prob.bcL.upper),
            ):
                fd = fd_oracle(1.0, -3.0, 2.0, 1.0, bc0(r), bcL(r), n)
                assert np.max(np.abs(branch.evaluate(xs, r) - fd)) <= 1e-5

    def test_zero_data_gives_zero_solution(self):
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-1.0, L=1.0,
            bc0=FuzzyNumber.crisp(0.0), bcL=FuzzyNumber.crisp(0.0),
            case=DiffCase.CASE_11,
        )
        sol = solve(prob)
        xs = np.linspace(0, 1, 21)
        for r in (0.0, 0.5, 1.0):
            assert np.max(np.abs(sol.lower.evaluate(xs, r))) <= 1e-12
            assert np.max(np.abs(sol.upper.evaluate(xs, r))) <= 1e-12

    def test_crisp_core_matches_classical_solution(self):
        # at r = 1 both branches reduce to the same crisp problem
        sol = solve(wave_problem())
        n = 10_000
        xs = np.linspace(0.0, 1.0, n + 1)
        fd = fd_oracle(1.0, 0.0, -1.0, 1.0, BC0.lower(1.0), BCL.lower(1.0), n)
        assert np.max(np.abs(sol.lower.evaluate(xs, 1.0) - fd)) <= 1e-5
        assert np.max(np.abs(sol.upper.evaluate(xs, 1.0) - fd)) <= 1e-5

    def test_crisp_core_envelopes_coincide(self):
        # at r = 1 the boundary data collapses to points, so both branches
        # solve the same crisp problem
        sol = solve(wave_problem())
        xs = np.linspace(0, 1, 101)
        gap = np.abs(sol.lower.evaluate(xs, 1.0) - sol.upper.evaluate(xs, 1.0))
        assert np.max(gap) <= 1e-9

    def test_affine_in_r(self):
        sol = solve(homogeneous_problem())
        xs = np.linspace(0, 1, 17)
        for branch in (sol.lower, sol.upper):
            mid = branch.evaluate(xs, 0.5)
            averaged = (branch.evaluate(xs, 0.0) + branch.evaluate(xs, 1.0)) / 2.0
            assert np.max(np.abs(mid - averaged)) <= 1e-10

    def test_case_22_shares_envelopes_with_case_11(self):
        s11 = solve(wave_problem(DiffCase.CASE_11))
        s22 = solve(wave_problem(DiffCase.CASE_22))
        assert s11.lower.terms == s22.lower.terms
        assert s11.upper.terms == s22.upper.terms
        # the constants swap owners: each branch equation carries the
        # opposite endpoint of the fuzzy derivative
        assert s22.constants["F1"] == s11.constants["F2"]
        assert s22.constants["F2"] == s11.constants["F1"]

    def test_negative_leading_coefficient(self):
        # -y'' + y = 0 is the same operator as y'' - y = 0
        prob = FuzzyBVP(a=-1.0, b=0.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        sol = solve(prob)
        reference = solve(wave_problem())
        xs = np.linspace(0, 1, 31)
        for r in (0.0, 0.5, 1.0):
            gap = np.abs(sol.lower.evaluate(xs, r) - reference.lower.evaluate(xs, r))
            assert np.max(gap) <= 1e-12

    def test_oscillatory_problem(self):
        # y'' + 4y = 0 on [0, 1]: pure-imaginary roots give cos/sin envelopes
        from fuzzybvp import TermKind, oracle_gap

        prob = FuzzyBVP(a=1.0, b=0.0, c=4.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        sol = solve(prob)
        kinds = {kind for kind, _, _ in sol.lower.terms}
        assert kinds == {TermKind.COS, TermKind.SIN}
        assert oracle_gap(sol) <= 1e-5

    def test_asymmetric_real_roots_stay_exponential(self):
        # y'' - y' - 2y = 0 has roots 2 and -1: not a +/- pair, no cosh/sinh
        from fuzzybvp import TermKind, oracle_gap

        prob = FuzzyBVP(a=1.0, b=-1.0, c=-2.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        sol = solve(prob)
        assert {(kind, k) for kind, k, _ in sol.lower.terms} == {
            (TermKind.EXP, -1.0), (TermKind.EXP, 2.0)
        }
        assert oracle_gap(sol) <= 1e-5

    def test_resonant_length_raises(self):
        # u'' + pi^2 u = 0 on [0, 1]: sin(pi x) vanishes at the far boundary
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=np.pi ** 2, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11
        )
        with pytest.raises(EigenvalueDegeneracyError):
            solve(prob)

    @pytest.mark.parametrize("b, c, L, solvable_L", [
        (3.0, 2.0, 30.0, 20.0),         # roots -1, -2: psi(L) = e^-L - e^-2L, no eigenvalue
        (0.0, -1.0, 1e-13, 1e-11),      # psi(L) = sinh(L) ~ L on a very short domain
        (0.0, np.pi ** 2, 1.0, None),   # sin(pi x) vanishes at L = 1: an eigenvalue
    ], ids=["decaying-long", "very-short", "eigenvalue"])
    def test_pivot_refusal_names_what_it_measured(self, b, c, L, solvable_L):
        prob = FuzzyBVP(a=1.0, b=b, c=c, L=L, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(EigenvalueDegeneracyError) as info:
            solve(prob)
        message = str(info.value)
        assert message.startswith("boundary elimination pivot |psi(L)| = ")
        assert f"is at most PIVOT_TOL = 1e-12 at L={L}: the domain length is an eigenvalue" in message
        assert "or the pivot fell below the absolute tolerance" in message
        if solvable_L is not None:
            sol = solve(replace(prob, L=solvable_L))
            assert check_level_set(sol).max_boundary_residual <= 1e-6

    def test_repeated_characteristic_root_raises(self):
        prob = FuzzyBVP(a=1.0, b=-2.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(UnsupportedProblemError):
            solve(prob)

    def test_damped_oscillation_raises(self):
        prob = FuzzyBVP(a=1.0, b=1.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(UnsupportedProblemError):
            solve(prob)

    def test_small_damping_raises(self):
        # roots -5e-8 +/- 1000i: b is 1e-13 of c, yet the damping is real and
        # an undamped cos/sin pair would be off by 5e-8 relative at x = 1
        prob = FuzzyBVP(a=1.0, b=1e-7, c=1e6, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(UnsupportedProblemError, match="neither real nor pure imaginary"):
            solve(prob)

    @pytest.mark.parametrize("a, b, c", [(1.0, 1e13, -3e14), (1e-320, 0.0, -1.0)], ids=["dominated", "subnormal"])
    def test_negligible_leading_coefficient_refused(self, a, b, c):
        # chopping a would lose a root: the first input once returned
        # lower(0, 0) = 3.7e-13 instead of 1, the second a false eigenvalue
        prob = FuzzyBVP(a=a, b=b, c=c, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(UnsupportedProblemError, match="negligible"):
            solve(prob)
        results = {r.case: r for r in enumerate_cases(replace(prob, case=None))}
        assert not any(r.solved for r in results.values())
        for case in (DiffCase.CASE_11, DiffCase.CASE_22):
            assert results[case].error.startswith("UnsupportedProblemError")

    def test_stiff_small_rate_matches_mpmath(self):
        # y'' + 1e8 y' + y = 0: the slow rate -1e-8 must not come out of a
        # cancelling quadratic formula (it once read -7.45e-9)
        prob = FuzzyBVP(a=1.0, b=1e8, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        sol = solve(prob)
        xs = np.linspace(0.0, 1.0, 11)
        rs = np.array([0.0, 0.5, 1.0])
        with mpmath.workdps(60):
            root = mpmath.sqrt(mpmath.mpf(1e8) ** 2 - 4)
            m1, m2 = (-mpmath.mpf(1e8) + root) / 2, (-mpmath.mpf(1e8) - root) / 2
            for branch, y0, yL in ((sol.lower, BC0.lower, BCL.lower), (sol.upper, BC0.upper, BCL.upper)):
                got = evaluate_grids((branch,), xs, rs, (0,))[0, 0]
                for j, r in enumerate(rs):
                    y0r, yLr = mpmath.mpf(y0(r)), mpmath.mpf(yL(r))
                    fast = (yLr - y0r * mpmath.exp(m1)) / (mpmath.exp(m2) - mpmath.exp(m1))
                    for i, x in enumerate(xs):
                        want = (y0r - fast) * mpmath.exp(m1 * x) + fast * mpmath.exp(m2 * x)
                        assert abs(float((got[i, j] - want) / want)) <= 1e-14


class TestSolveCoupled:
    def test_shooting_constants_match_worked_formula(self):
        sol = solve(wave_problem(DiffCase.CASE_12))
        for r in (0.0, 0.5, 1.0):
            want_h1, want_h2 = paper_H(
                r, 1.0, 1.0, BC0.lower, BC0.upper, BCL.lower, BCL.upper
            )
            assert sol.constants["H1"](r) == pytest.approx(want_h1, rel=1e-12)
            assert sol.constants["H2"](r) == pytest.approx(want_h2, rel=1e-12)

    def test_boundary_reproduction(self):
        sol = solve(wave_problem(DiffCase.CASE_12))
        for r in np.linspace(0, 1, 11):
            assert abs(sol.lower.evaluate(0.0, r) - BC0.lower(r)) <= 1e-9
            assert abs(sol.upper.evaluate(0.0, r) - BC0.upper(r)) <= 1e-9
            assert abs(sol.lower.evaluate(1.0, r) - BCL.lower(r)) <= 1e-9
            assert abs(sol.upper.evaluate(1.0, r) - BCL.upper(r)) <= 1e-9

    def test_basis_values_at_origin(self):
        # cos+cosh is 2 at the origin and the other three basis functions
        # vanish, so lower(0, r) is exactly the lower boundary value
        sol = solve(wave_problem(DiffCase.CASE_12))
        for r in (0.0, 0.25, 1.0):
            assert sol.lower.evaluate(0.0, r) == pytest.approx(1 + r, abs=1e-12)

    def test_crisp_core_equality(self):
        sol = solve(wave_problem(DiffCase.CASE_12))
        xs = np.linspace(0, 1, 101)
        gap = np.abs(sol.lower.evaluate(xs, 1.0) - sol.upper.evaluate(xs, 1.0))
        assert np.max(gap) <= 1e-9

    def test_coupled_system_residual(self):
        sol = solve(wave_problem(DiffCase.CASE_12))
        xs = np.linspace(0, 1, 101)
        kappa = 1.0  # -c/a
        for r in np.linspace(0, 1, 11):
            lo = fix_r(sol.lower, r)
            up = fix_r(sol.upper, r)
            res1 = lo.differentiate().differentiate().evaluate(xs) - kappa * up.evaluate(xs)
            res2 = up.differentiate().differentiate().evaluate(xs) - kappa * lo.evaluate(xs)
            scale = 1 + max(np.max(np.abs(lo.evaluate(xs))), np.max(np.abs(up.evaluate(xs))))
            assert np.max(np.abs(res1)) <= 1e-8 * scale
            assert np.max(np.abs(res2)) <= 1e-8 * scale

    def test_case_21_shares_envelopes_with_case_12(self):
        s12 = solve(wave_problem(DiffCase.CASE_12))
        s21 = solve(wave_problem(DiffCase.CASE_21))
        assert s12.lower.terms == s21.lower.terms
        assert s12.upper.terms == s21.upper.terms

    def test_potential_step_shifts_coefficient(self):
        # with a step of height 0.75 the mixed case solves
        # u'' = (energy - height) u, here frequency sqrt(0.25) = 0.5
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-1.0, L=1.0, bc0=BC0, bcL=BCL,
            case=DiffCase.CASE_12, v_height=0.75,
        )
        sol = solve(prob)
        rates = {k for _, k, _ in sol.lower.terms}
        assert rates == {0.5}

    def test_resonant_length_raises(self):
        # sin(w L) = 0 at w = pi, L = 1
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-np.pi ** 2, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_12
        )
        with pytest.raises(EigenvalueDegeneracyError):
            solve(prob)

    def test_wrong_sign_redirects_to_uncoupled(self):
        prob = FuzzyBVP(a=1.0, b=0.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_12)
        with pytest.raises(CaseInapplicableError):
            solve(prob)

    def test_first_derivative_term_rejected(self):
        with pytest.raises(CaseInapplicableError):
            solve(homogeneous_problem(DiffCase.CASE_12))

    @pytest.mark.parametrize(
        "a, c, v_height, L",
        [
            (1.0, -1.0, 0.0, 1.0),
            (-2.0, 3.0, 0.0, 1.5),     # a < 0 with c_eff > 0
            (1.0, -4.0, 1.5, 1.7),     # nonzero potential height
            (0.5, -0.3, -0.2, 2.0),
        ],
    )
    def test_constants_are_initial_derivatives(self, a, c, v_height, L):
        prob = FuzzyBVP(
            a=a, b=0.0, c=c, L=L, bc0=BC0, bcL=BCL,
            case=DiffCase.CASE_12, v_height=v_height,
        )
        sol = solve(prob)
        c_eff = c + v_height
        xs = np.linspace(0, L, 101)
        for r in np.linspace(0, 1, 5):
            lo = fix_r(sol.lower, r)
            up = fix_r(sol.upper, r)
            assert sol.constants["H1"](r) == pytest.approx(
                lo.differentiate().evaluate(0.0), rel=1e-12, abs=1e-12
            )
            assert sol.constants["H2"](r) == pytest.approx(
                up.differentiate().evaluate(0.0), rel=1e-12, abs=1e-12
            )
            res1 = a * lo.differentiate().differentiate().evaluate(xs) + c_eff * up.evaluate(xs)
            res2 = a * up.differentiate().differentiate().evaluate(xs) + c_eff * lo.evaluate(xs)
            scale = 1 + max(np.max(np.abs(lo.evaluate(xs))), np.max(np.abs(up.evaluate(xs))))
            assert np.max(np.abs(res1)) <= 1e-8 * scale
            assert np.max(np.abs(res2)) <= 1e-8 * scale

    @pytest.mark.parametrize("size", [1e308, -1e308], ids=["positive", "negative"])
    def test_overflowing_c_plus_height_named(self, size):
        # c + height is +-inf; kappa and the transform would misname it
        prob = replace(wave_problem(DiffCase.CASE_12), c=size, v_height=size)
        with pytest.raises(UnsupportedProblemError) as info:
            solve(prob)
        assert str(info.value) == (
            f"the mixed cases solve with c + height = {size} + {size}, "
            f"which overflows to {2 * size}"
        )


class TestDispatchAndEnumeration:
    def test_solve_dispatches(self):
        assert solve(homogeneous_problem()).case is DiffCase.CASE_11
        assert solve(wave_problem(DiffCase.CASE_12)).case is DiffCase.CASE_12

    def test_solve_requires_case(self):
        prob = wave_problem(case=None)
        with pytest.raises(CaseInapplicableError):
            solve(prob)

    def test_enumerate_produces_four_reports(self):
        results = enumerate_cases(wave_problem(case=None))
        assert [r.case for r in results] == list(ALL_CASES)
        assert all(r.solved for r in results)
        assert all(r.report is not None for r in results)

    def test_enumerate_captures_failures(self):
        # a first-derivative term: the mixed cases fail, the others solve
        results = enumerate_cases(homogeneous_problem(case=None))
        by_tag = {r.case.tag: r for r in results}
        assert by_tag["11"].solved and by_tag["22"].solved
        assert not by_tag["12"].solved and not by_tag["21"].solved
        assert "CaseInapplicableError" in by_tag["12"].error
        assert by_tag["12"].report is None

    def test_enumerate_crisp_problem_all_cases_agree(self):
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-1.0, L=1.0,
            bc0=FuzzyNumber.crisp(1.0), bcL=FuzzyNumber.crisp(2.0), case=None,
        )
        results = enumerate_cases(prob)
        assert all(r.solved for r in results)
        assert all(r.report.valid_level_set for r in results)
        xs = np.linspace(0, 1, 31)
        base = results[0].solution.lower.evaluate(xs, 0.0)
        for r in results:
            for branch in (r.solution.lower, r.solution.upper):
                for level in (0.0, 0.5, 1.0):
                    assert np.max(np.abs(branch.evaluate(xs, level) - base)) <= 1e-9

    def test_invalid_problem_construction(self):
        with pytest.raises(ValueError):
            FuzzyBVP(a=0.0, b=0.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL)
        with pytest.raises(ValueError):
            FuzzyBVP(a=1.0, b=0.0, c=1.0, L=0.0, bc0=BC0, bcL=BCL)

    @pytest.mark.parametrize(
        "field, value",
        [("a", np.inf), ("b", np.nan), ("c", np.nan), ("L", np.inf), ("v_height", -np.inf)],
    )
    def test_non_finite_coefficients_rejected(self, field, value):
        data = dict(a=1.0, b=0.0, c=-1.0, L=1.0, v_height=0.0)
        data[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FuzzyBVP(bc0=BC0, bcL=BCL, **data)

    @pytest.mark.filterwarnings("error")
    def test_numpy_scalars_stored_as_floats(self):
        # -c/a overflows: a numpy float64 would warn where a float gives inf
        data = dict(b=0.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_12)
        messages = []
        for a, c in ((1e-300, -1e10), (np.float64(1e-300), np.float64(-1e10))):
            prob = FuzzyBVP(a=a, c=c, v_height=np.float64(0.0), **data)
            assert all(type(getattr(prob, name)) is float for name in ("a", "b", "c", "L", "v_height"))
            with pytest.raises(UnsupportedProblemError, match="negligible") as info:
                solve(prob)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        with pytest.raises(TypeError):
            FuzzyBVP(a="1.0", c=-1.0, **data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_overflowing_domain_refused(self, case):
        # cosh(800) overflows double precision: no NaN solution comes back
        prob = FuzzyBVP(a=1.0, b=0.0, c=-1.0, L=800.0, bc0=BC0, bcL=BCL, case=case)
        with pytest.raises(UnsupportedProblemError, match=r"k\*L = 800"):
            solve(prob)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_overflowing_second_derivative_refused(self, case):
        # k*L = 708.99: the values at L are finite, but the checker's
        # y0*k^2*cosh(k*x) overflows, so the solve is refused
        prob = replace(NEAR_OVERFLOW, case=case)
        with pytest.raises(UnsupportedProblemError, match=r"k\*L = 708\.99"):
            solve(prob)

    @pytest.mark.parametrize(
        "prob",
        [wave_problem(case) for case in ALL_CASES]
        + [homogeneous_problem(DiffCase.CASE_11), homogeneous_problem(DiffCase.CASE_22)],
    )
    def test_tiny_coefficients_same_solution(self, prob):
        # at 2**-600, b*b - 4*a*c is below the smallest double; scaling a, b
        # and c by a power of two is exact and leaves every term unchanged
        tiny = replace(prob, **{name: math.ldexp(getattr(prob, name), -600) for name in "abc"})
        got, want = solve(tiny), solve(prob)
        assert (got.lower.terms, got.upper.terms) == (want.lower.terms, want.upper.terms)
        assert got.constants == want.constants

    def test_tiny_damped_roots_refused(self):
        # b*b - 4*a*c = -3e-326 < 0: damped roots, not one underflowed double root
        prob = FuzzyBVP(a=-1e-160, b=-1e-163, c=-1e-166, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(UnsupportedProblemError, match="neither real nor pure imaginary"):
            solve(prob)

    @pytest.mark.filterwarnings("error")
    def test_enumerate_records_overflow(self):
        prob = FuzzyBVP(a=1.0, b=0.0, c=-1.0, L=800.0, bc0=BC0, bcL=BCL)
        results = enumerate_cases(prob)
        assert not any(r.solved for r in results)
        assert all(r.error.startswith("UnsupportedProblemError") for r in results)


def _assert_grid_matches_per_point(branch: RClosedForm, xs, rs) -> None:
    for derivative in (0, 1, 2):
        grid = evaluate_grids((branch,), xs, rs, (derivative,))[0, 0]
        assert grid.shape == (len(xs), len(rs))
        assert grid.tobytes() == per_point(branch, xs, rs, derivative).tobytes()


def _assert_fused_matches_per_point(forms, xs, rs) -> np.ndarray:
    """One fused pass over ``forms``: every (form, order) grid equals the per-point path."""
    grids = evaluate_grids(forms, xs, rs, (0, 1, 2))
    assert grids.shape == (len(forms), 3, len(xs), len(rs))
    for form, by_order in zip(forms, grids):
        for derivative in (0, 1, 2):
            want = per_point(form, xs, rs, derivative)
            assert by_order[derivative].tobytes() == want.tobytes()
    # any selection of orders, in any order, gives the same columns
    assert evaluate_grids(forms, xs, rs, (2, 0)).tobytes() == grids[:, [2, 0]].tobytes()
    return grids


_coef = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def solvable_problems(draw):
    """A problem of one case the closed form solves, with k*L <= 7."""
    case = draw(st.sampled_from(ALL_CASES))
    a = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from((-1.0, 1.0)))
    L = draw(st.floats(0.1, 3.0))
    if case.is_mixed or draw(st.booleans()):
        # a*y'' = kappa*a*y: cosh/sinh, or cos/sin when kappa < 0 (11/22 only)
        k = draw(st.floats(0.05, 7.0)) / L
        sign = 1.0 if case.is_mixed else draw(st.sampled_from((-1.0, 1.0)))
        b, c = 0.0, -sign * a * k * k
    else:
        # two distinct real characteristic roots m1, m2
        m1 = draw(st.floats(-7.0, 7.0)) / L
        m2 = m1 + draw(st.floats(0.2, 7.0)) / L * draw(st.sampled_from((-1.0, 1.0)))
        assume(abs(m2) * L <= 7.0)
        b, c = -a * (m1 + m2), a * m1 * m2
    lo0, lo1, up0, up1 = draw(_coef), draw(st.floats(0.0, 3.0)), draw(_coef), draw(st.floats(0.0, 3.0))
    bc0 = FuzzyNumber(RFun(lo0 - lo1, lo1), RFun(max(lo0, up0) + up1, -up1))
    lo0, lo1, up0, up1 = draw(_coef), draw(st.floats(0.0, 3.0)), draw(_coef), draw(st.floats(0.0, 3.0))
    bcL = FuzzyNumber(RFun(lo0 - lo1, lo1), RFun(max(lo0, up0) + up1, -up1))
    return FuzzyBVP(a=a, b=b, c=c, L=L, bc0=bc0, bcL=bcL, case=case)


class TestEvaluateGrid:
    @settings(max_examples=60, deadline=None)
    @given(prob=solvable_problems(), x_count=st.integers(2, 9), r_count=st.integers(2, 6))
    def test_bit_identical_to_per_point_fix_r(self, prob, x_count, r_count):
        try:
            sol = solve(prob)
        except FuzzyBvpError:
            assume(False)
        xs = np.linspace(0.0, prob.L, x_count)
        rs = np.linspace(0.0, 1.0, r_count)
        _assert_grid_matches_per_point(sol.lower, xs, rs)
        _assert_grid_matches_per_point(sol.upper, xs, rs)

    @settings(max_examples=60, deadline=None)
    @given(
        prob=solvable_problems(), other=solvable_problems(),
        x_count=st.integers(2, 9), r_count=st.integers(2, 6),
    )
    def test_fused_branches_bit_identical_to_per_point_fix_r(self, prob, other, x_count, r_count):
        # (lower, upper) as check_level_set fuses them, then four forms from
        # two problems, whose rate sets differ: every column keeps its bits
        try:
            sol, sol2 = solve(prob), solve(replace(other, L=prob.L))
        except FuzzyBvpError:
            assume(False)
        xs = np.linspace(0.0, prob.L, x_count)
        rs = np.linspace(0.0, 1.0, r_count)
        _assert_fused_matches_per_point((sol.lower, sol.upper), xs, rs)
        _assert_fused_matches_per_point((sol.lower, sol.upper, sol2.lower, sol2.upper), xs, rs)

    def test_fused_key_in_one_branch_only(self):
        # lower's one key comes first but sorts last among upper's keys,
        # which lower lacks: upper must still be summed in canonical order
        xs = np.linspace(0.0, 2.0, 7)
        rs = np.linspace(0.0, 1.0, 5)
        lower = RClosedForm(((TermKind.SINH, 0.7, RFun(3.0, -1.0)),))
        upper = RClosedForm((
            (TermKind.EXP, 0.0, RFun(0.5, 1.0)),
            (TermKind.COS, 1.5, RFun(-1.0, 2.0)),
            (TermKind.SIN, 2.0, RFun(1.0, -0.5)),
            (TermKind.SINH, 0.7, RFun(0.3, 0.1)),
        ))
        _assert_fused_matches_per_point((lower, upper), xs, rs)

    def test_fused_overflowing_branch_stays_in_its_columns(self):
        # cosh(400x) itself is inf for x > 1.78: masked out of the finite
        # branch's columns, it forms no 0*inf there (a warning is an error)
        xs = np.linspace(0.0, 2.0, 11)
        rs = np.linspace(0.0, 1.0, 4)
        huge = RClosedForm(((TermKind.COSH, 400.0, RFun(1e140, 0.0)),))
        finite = solve(wave_problem()).lower
        with np.errstate(over="ignore"):
            grids = evaluate_grids((finite, huge), xs, rs, (0, 1, 2))
        for derivative in (0, 1, 2):
            assert grids[0, derivative].tobytes() == per_point(finite, xs, rs, derivative).tobytes()
            assert np.isposinf(grids[1, derivative, -1]).all()
        assert not np.isnan(grids).any()

    def test_fused_dead_level_and_negative_zero(self):
        xs = np.linspace(0.0, 2.0, 7)
        rs = np.linspace(0.0, 1.0, 5)
        # every coefficient of dead vanishes at r = 0.5; -1*sin(0) = -0.0 is
        # the whole value of sine at x = 0
        dead = RClosedForm((
            (TermKind.EXP, 0.0, RFun(0.5, -1.0)),
            (TermKind.COS, 1.5, RFun(-1.0, 2.0)),
            (TermKind.SINH, 0.7, RFun(2.0, -4.0)),
        ))
        sine = RClosedForm(((TermKind.SIN, 1.0, RFun(-1.0)),))
        grids = _assert_fused_matches_per_point((dead, sine), xs, rs)
        assert (grids[0, :, :, 2] == 0.0).all() and not np.signbit(grids[0, :, :, 2]).any()
        assert np.signbit(grids[1, 0, 0]).all()

    def test_coefficient_zero_at_one_level_is_masked(self):
        rs = np.linspace(0.0, 1.0, 5)
        xs = np.linspace(0.0, 2.0, 7)
        # each coefficient vanishes at exactly one level, the others live there
        partial = RClosedForm((
            (TermKind.EXP, 0.0, RFun(0.5, -1.0)),
            (TermKind.COS, 1.5, RFun(-1.0, 2.0)),
            (TermKind.SIN, 1.5, RFun(1.0, -4.0)),
            (TermKind.SINH, 0.7, RFun(-3.0, 4.0)),
        ))
        _assert_grid_matches_per_point(partial, xs, rs)
        # every coefficient vanishes at r = 0.5: that level is the zero form
        dead_level = RClosedForm((
            (TermKind.EXP, 0.0, RFun(0.5, -1.0)),
            (TermKind.COS, 1.5, RFun(-1.0, 2.0)),
            (TermKind.SINH, 0.7, RFun(2.0, -4.0)),
        ))
        _assert_grid_matches_per_point(dead_level, xs, rs)
        assert not np.signbit(evaluate_grids((dead_level,), xs, rs, (0,))[0, 0][:, 2]).any()
        # -1*sin(0) = -0.0 is the whole value at x = 0 and keeps its sign
        sine = RClosedForm(((TermKind.SIN, 1.0, RFun(-1.0)),))
        _assert_grid_matches_per_point(sine, xs, rs)
        assert np.signbit(evaluate_grids((sine,), xs, rs, (0,))[0, 0][0]).all()

    def test_identically_zero_branch(self):
        branch = RClosedForm(((TermKind.COSH, 1.0, RFun(0.0, 0.0)),))
        assert branch.terms == ()
        xs = np.linspace(0.0, 1.0, 4)
        rs = np.linspace(0.0, 1.0, 3)
        for derivative in (0, 1, 2):
            grid = evaluate_grids((branch,), xs, rs, (derivative,))[0, 0]
            assert grid.tobytes() == np.zeros((4, 3)).tobytes()
        assert branch.evaluate(0.5, 0.5) == 0.0
        assert branch.evaluate(xs, 0.5).tobytes() == np.zeros(4).tobytes()

    def test_evaluate_shapes(self):
        sol = solve(wave_problem())
        assert np.ndim(sol.lower.evaluate(0.3, 0.5)) == 0
        xs = np.linspace(0.0, 1.0, 11)
        values = sol.lower.evaluate(xs, 0.5)
        assert values.shape == (11,)
        assert values.tobytes() == evaluate_grids((sol.lower,), xs, [0.5], (0,))[0, 0][:, 0].tobytes()


def _three_template_branch(a, b, c, L, y0, yL):
    """The former kernel: const, r-slope and gain templates inverted one by one."""
    den = Polynomial((c, b, a))
    base0, base1, gain = (
        inverse_laplace(RationalFunction(num, den))
        for num in (Polynomial((b * y0.c0, a * y0.c0)), Polynomial((b * y0.c1, a * y0.c1)), Polynomial((a,)))
    )
    gL, b0L, b1L = (float(form.evaluate(L)) for form in (gain, base0, base1))
    if abs(gL) <= solver.PIVOT_TOL:
        raise EigenvalueDegeneracyError("pivot")
    f = RFun((yL.c0 - b0L) / gL, (yL.c1 - b1L) / gL)
    base0, base1, gain = ({(kind, k): c for kind, k, c in form.terms} for form in (base0, base1, gain))
    keys = dict.fromkeys([*base0, *base1, *gain])
    terms = tuple(
        (kind, k, RFun(base0.get((kind, k), 0.0) + f.c0 * gain.get((kind, k), 0.0),
                       base1.get((kind, k), 0.0) + f.c1 * gain.get((kind, k), 0.0)))
        for kind, k in keys
    )
    return RClosedForm(terms), f


def _half_sum(s, d, sign):
    """(s + sign*d) / 2, merging terms that share a (kind, rate) key."""
    coeffs = {}
    for form, j in ((s, 0.5), (d, 0.5 * sign)):
        for kind, k, coeff in form.terms:
            coeffs[(kind, k)] = coeffs.get((kind, k), RFun(0.0)) + coeff.scaled(j)
    return RClosedForm(tuple((kind, k, coeff) for (kind, k), coeff in coeffs.items()))


def _three_template_solve(prob):
    """Envelopes and constants as the three-template kernel assembled them."""
    bc0, bcL = prob.bc0, prob.bcL
    if not prob.case.is_mixed:
        lower, f_lower = _three_template_branch(prob.a, prob.b, prob.c, prob.L, bc0.lower, bcL.lower)
        upper, f_upper = _three_template_branch(prob.a, prob.b, prob.c, prob.L, bc0.upper, bcL.upper)
        if prob.case is DiffCase.CASE_22:
            return lower, upper, {"F1": f_upper, "F2": f_lower}
        return lower, upper, {"F1": f_lower, "F2": f_upper}
    c_eff = prob.effective_c(prob.case)
    s, f_s = _three_template_branch(prob.a, 0.0, c_eff, prob.L, bc0.lower + bc0.upper, bcL.lower + bcL.upper)
    d, f_d = _three_template_branch(prob.a, 0.0, -c_eff, prob.L, bc0.lower - bc0.upper, bcL.lower - bcL.upper)
    constants = {"H1": (f_s + f_d).scaled(0.5), "H2": (f_s - f_d).scaled(0.5)}
    return _half_sum(s, d, 1.0), _half_sum(s, d, -1.0), constants


def _kernel_triples_solve(prob):
    """Envelopes and constants as they were assembled from kernel triples.

    Each branch is built from y0*phi_t and F*psi_t, one triple per term of
    the kernel's phi and psi; the mixed cases build the s and d closed forms
    and then halve their terms into (s + d)/2 and (s - d)/2.
    """
    bc0, bcL = prob.bc0, prob.bcL

    def branches(a, b, c, pairs):
        phi, psi, fs = solver._two_point(a, b, c, prob.L, pairs)
        out = []
        for (y0, _), f in zip(pairs, fs):
            terms = [(kind, k, y0.scaled(coeff)) for kind, k, coeff in phi.terms]
            terms += [(kind, k, f.scaled(coeff)) for kind, k, coeff in psi.terms]
            out.append((RClosedForm(tuple(terms)), f))
        return out

    if not prob.case.is_mixed:
        (lower, f_lower), (upper, f_upper) = branches(
            prob.a, prob.b, prob.c, ((bc0.lower, bcL.lower), (bc0.upper, bcL.upper))
        )
        if prob.case is DiffCase.CASE_22:
            return lower, upper, {"F1": f_upper, "F2": f_lower}
        return lower, upper, {"F1": f_lower, "F2": f_upper}
    c_eff = prob.effective_c(prob.case)
    ((s, f_s),) = branches(prob.a, 0.0, c_eff, ((bc0.lower + bc0.upper, bcL.lower + bcL.upper),))
    ((d, f_d),) = branches(prob.a, 0.0, -c_eff, ((bc0.lower - bc0.upper, bcL.lower - bcL.upper),))
    constants = {"H1": (f_s + f_d).scaled(0.5), "H2": (f_s - f_d).scaled(0.5)}
    half_s = [(kind, k, coeff.scaled(0.5)) for kind, k, coeff in s.terms]
    lower, upper = (
        RClosedForm((*half_s, *((kind, k, coeff.scaled(j)) for kind, k, coeff in d.terms)))
        for j in (0.5, -0.5)
    )
    return lower, upper, constants


def _hex_solution(lower, upper, constants):
    """Every term and constant as float.hex, so -0.0 and the last bit count."""
    def hexed(f):
        return f.c0.hex(), f.c1.hex()

    forms = [[(kind, k.hex(), *hexed(coeff)) for kind, k, coeff in form.terms] for form in (lower, upper)]
    return forms, {name: hexed(f) for name, f in constants.items()}


def _assert_assembly_matches_kernel_triples(prob):
    try:
        want = _kernel_triples_solve(prob)
    except FuzzyBvpError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            solve(prob)
        return
    sol = solve(prob)
    assert _hex_solution(sol.lower, sol.upper, sol.constants) == _hex_solution(*want)


DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"

# Halving is exact above 2**-1021. Boundary data of at least this size keep
# every product and sum of the assembly there (k*L <= 7 bounds the basis).
NORMAL_DATA = 2.0 ** -900


def _term_scale(form: RClosedForm, xs, rs) -> np.ndarray:
    """(|c0| + |c1|*r) * |basis(k*x)| summed over the terms of ``form``, per grid point.

    Rounding scales with this sum, not with |value|: it also covers points
    where terms of ~e^{kL} cancel (the far boundary value of a pair of
    growing exponentials) and levels where c0 + c1*r cancels.
    """
    out = np.zeros((len(xs), len(rs)))
    for kind, k, coeff in form.terms:
        bound = RFun(abs(coeff.c0), abs(coeff.c1))
        out += np.abs(evaluate_grids((RClosedForm(((kind, k, bound),)),), xs, rs, (0,))[0, 0])
    return out


def _close(got, want, scale=1.0):
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, scale))


def _operators(prob):
    """The (a, b, c) of each operator whose fundamental pair ``solve`` forms."""
    if not prob.case.is_mixed:
        return [(prob.a, prob.b, prob.c)]
    c_eff = prob.effective_c(prob.case)
    return [(prob.a, 0.0, c_eff), (prob.a, 0.0, -c_eff)]


def _three_construction_pair(a, b, c):
    """phi = psi' + (b/a)*psi as the derivative, the scaled psi and their sum,
    three closed forms, written out over term tuples."""
    psi = inverse_laplace(RationalFunction(Polynomial((a,)), Polynomial((c, b, a))))
    scaled = ClosedForm(tuple((kind, k, (b / a) * coeff) for kind, k, coeff in psi.terms))
    return ClosedForm(psi.differentiate().terms + scaled.terms), psi


def _assert_pair_matches_three_constructions(a, b, c):
    try:
        want = _three_construction_pair(a, b, c)
    except FuzzyBvpError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            laplace.fundamental_pair(a, b, c)
        return
    got = laplace.fundamental_pair(a, b, c)
    for got_form, want_form in zip(got, want):
        hexed = [[(kind, k.hex(), coeff.hex()) for kind, k, coeff in form.terms]
                 for form in (got_form, want_form)]
        assert hexed[0] == hexed[1]


class TestFundamentalPair:
    @settings(max_examples=300, deadline=None)
    @given(prob=solvable_problems())
    def test_matches_three_constructions(self, prob):
        # one construction over psi' and (b/a)*psi merges the same terms in
        # the same order; a +-0.0 the old path dropped adds exactly
        for a, b, c in _operators(prob):
            _assert_pair_matches_three_constructions(a, b, c)

    @pytest.mark.parametrize("a, b, c", [(1.0, 0.0, -1.0), (1.0, 0.0, 1.0), (1.0, -3.0, 2.0)],
                             ids=["wave-s", "wave-d", "homogeneous"])
    def test_demo_operators_match_three_constructions(self, a, b, c):
        _assert_pair_matches_three_constructions(a, b, c)

    @pytest.mark.parametrize("prob, built", [
        (wave_problem(DiffCase.CASE_11), 2), (wave_problem(DiffCase.CASE_22), 2),
        (wave_problem(DiffCase.CASE_12), 4), (wave_problem(DiffCase.CASE_21), 4),
        (homogeneous_problem(DiffCase.CASE_11), 2),
    ], ids=["wave-11", "wave-22", "wave-12", "wave-21", "homogeneous-11"])
    def test_two_closed_forms_per_operator(self, monkeypatch, prob, built):
        # psi from the inversion and phi in one construction: no throw-away
        # derivative, scaled or summed closed form
        seen = []
        post_init = ClosedForm.__post_init__

        def counting(form):
            seen.append(form)
            post_init(form)

        monkeypatch.setattr(ClosedForm, "__post_init__", counting)
        solve(prob)
        assert len(seen) == built


class TestTwoPointKernel:
    @settings(max_examples=300, deadline=None)
    @given(prob=solvable_problems())
    def test_matches_three_template_kernel(self, prob):
        # y0*phi + F*psi is the same closed form the three templates built
        try:
            want = _three_template_solve(prob)
        except FuzzyBvpError as exc:
            with pytest.raises(type(exc)):
                solve(prob)
            return
        sol = solve(prob)
        xs = np.linspace(0.0, prob.L, 9)
        rs = np.array([0.0, 1.0])
        lower, upper, constants = want
        for got, ref in ((sol.lower, lower), (sol.upper, upper)):
            got_grid = evaluate_grids((got,), xs, rs, (0,))[0, 0]
            ref_grid = evaluate_grids((ref,), xs, rs, (0,))[0, 0]
            assert _close(got_grid, ref_grid, _term_scale(ref, xs, rs))
        assert sol.constants.keys() == constants.keys()
        for name, ref in constants.items():
            assert _close(sol.constants[name](rs), ref(rs), abs(ref.c0) + abs(ref.c1) * rs)

    @settings(max_examples=300, deadline=None)
    @given(prob=solvable_problems())
    def test_assembly_bit_identical_to_kernel_triples(self, prob):
        # one combine per envelope over halved weights has the bits of
        # building s and d and halving their terms: scaling by 0.5 is exact
        data = [v for fn in (prob.bc0, prob.bcL) for f in (fn.lower, fn.upper) for v in (f.c0, f.c1)]
        assume(all(v == 0.0 or abs(v) >= NORMAL_DATA for v in data))
        _assert_assembly_matches_kernel_triples(prob)

    @pytest.mark.parametrize("name, tag", [
        ("wave", "11"), ("wave", "22"), ("wave", "12"), ("wave", "21"),
        ("homogeneous", "11"), ("homogeneous", "22"),
    ])
    def test_demo_assembly_bit_identical_to_kernel_triples(self, name, tag):
        prob = parse_problem_file(DEMO_PROBLEMS / f"{name}.problem").problem
        _assert_assembly_matches_kernel_triples(replace(prob, case=DiffCase(tag)))

    def test_subnormal_products_may_round_apart(self):
        # below 2**-1021 halving rounds: (d/2)*coeff and (d*coeff)/2 may differ
        # by one unit 2**-1074, so a term the halved-terms path rounded to 0
        # survives here at the smallest subnormal
        tiny = 5e-324
        prob = FuzzyBVP(
            a=-1.0, b=0.0, c=2.25, L=1.0, case=DiffCase.CASE_12,
            bc0=FuzzyNumber(RFun(0.0, 0.0), RFun(0.0, -0.0)),
            bcL=FuzzyNumber(RFun(0.0, 0.0), RFun(tiny, -tiny)),
        )
        sol = solve(prob)
        lower, upper, _ = _kernel_triples_solve(prob)
        assert lower.terms == upper.terms == ()
        assert sol.lower.terms == ((TermKind.SIN, 1.5, RFun(-tiny, tiny)),)
        assert sol.upper.terms == ((TermKind.SIN, 1.5, RFun(tiny, -tiny)),)

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.tag)
    def test_two_closed_forms_per_solve(self, monkeypatch, case):
        # each envelope is built once: no intermediate s or d closed form
        built = []
        post_init = RClosedForm.__post_init__

        def counting(form):
            built.append(form)
            post_init(form)

        monkeypatch.setattr(RClosedForm, "__post_init__", counting)
        sol = solve(wave_problem(case))
        assert len(built) == 2
        assert built[0] is sol.lower and built[1] is sol.upper

    @pytest.mark.parametrize("case, calls", [
        (DiffCase.CASE_11, 1), (DiffCase.CASE_22, 1), (DiffCase.CASE_12, 2), (DiffCase.CASE_21, 2),
    ])
    def test_one_inversion_per_operator(self, monkeypatch, case, calls):
        seen = []

        def counting(f):
            seen.append(f.denominator.coeffs)
            return inverse_laplace(f)

        monkeypatch.setattr(laplace, "inverse_laplace", counting)
        solve(wave_problem(case))
        assert len(seen) == calls
        if not case.is_mixed:
            seen.clear()
            solve(homogeneous_problem(case))
            assert seen == [(2.0, -3.0, 1.0)]
