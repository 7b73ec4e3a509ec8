"""Level-set checks, residual measurement, and the finite-difference oracle."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzybvp import (
    ALL_CASES,
    CaseResult,
    DiffCase,
    EigenvalueDegeneracyError,
    FuzzyBVP,
    FuzzyBvpError,
    FuzzyNumber,
    RClosedForm,
    RFun,
    TermKind,
    UnsupportedProblemError,
    check_case,
    check_level_set,
    enumerate_cases,
    fd_oracle,
    fd_oracle_coupled,
    oracle_gap,
    residual_ode,
    scale,
    solve,
)
from fuzzybvp import validate
from fuzzybvp.laplace import evaluate_grids
from conftest import per_point
from test_solver import NEAR_OVERFLOW, homogeneous_problem, wave_problem

BC0 = FuzzyNumber(RFun(1, 1), RFun(3, -1))
BCL = FuzzyNumber(RFun(4, 1), RFun(6, -1))

# Finite input refused in every case, each with its message prefix.
# "nan-roots": a*c overflows in the discriminant, so the roots are NaN.
# "inf-residue": a = 1e10 times boundary data near 1e299 overflows the
# transform numerator a*y(0)*p, and c*y, which the check forms, as well.
EXTREME_PROBLEMS = {
    "nan-roots": (
        FuzzyBVP(a=1e308, b=0.0, c=-1e308, L=1.0, bc0=BC0, bcL=BCL),
        "non-finite root or residue",
    ),
    "inf-residue": (
        FuzzyBVP(
            a=1e10, b=0.0, c=-1e10, L=1.0,
            bc0=FuzzyNumber(RFun(1e299, 1e299), RFun(3e299, -1e299)),
            bcL=FuzzyNumber(RFun(4e299, 1e299), RFun(6e299, -1e299)),
        ),
        "closed form overflows",
    ),
}

# Representable coefficients whose discriminant b*b - 4*a*c overflows.
OVERFLOWING_DISCRIMINANT = {"a": 1.8598821737886637e166, "b": 1.697451456474211e168, "c": -5.033210501176903e169}


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
        assert not report.monotone_lower_in_r
        assert not report.monotone_upper_in_r

    def test_failure_persists_under_grid_refinement(self):
        sol = wave_solution()
        swapped = replace(sol, lower=sol.upper, upper=sol.lower)
        coarse = check_level_set(swapped, x_count=11, r_count=11)
        fine = check_level_set(swapped, x_count=21, r_count=21)  # nested grids
        assert not coarse.ordered and not fine.ordered

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.tag)
    def test_verdict_is_scale_free(self, case):
        # the same wave problem with its boundary data scaled: every flag
        # keeps its value, and swapped envelopes are never ordered
        verdicts = set()
        for scale in (1e-12, 1.0, 1e12):
            bc0, bcL = (
                FuzzyNumber(bc.lower.scaled(scale), bc.upper.scaled(scale)) for bc in (BC0, BCL)
            )
            sol = solve(FuzzyBVP(a=1.0, b=0.0, c=-1.0, L=1.0, bc0=bc0, bcL=bcL, case=case))
            report = check_level_set(sol)
            verdicts.add((report.monotone_lower_in_r, report.monotone_upper_in_r, report.ordered))
            swapped = check_level_set(replace(sol, lower=sol.upper, upper=sol.lower))
            assert not swapped.ordered, scale
        assert len(verdicts) == 1, verdicts

    def test_report_serialization(self):
        report = check_level_set(wave_solution())
        text = report.to_text()
        assert "ordered = true" in text
        assert "grid_x = 101" in text
        assert all(" = " in line for line in text.splitlines())

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            check_level_set(wave_solution(), x_count=1, r_count=11)


def _endpoint_boundary_residual(sol, r_count: int) -> float:
    """Boundary residual from a separate evaluation at x = 0 and x = L only."""
    prob = sol.problem
    rs = np.linspace(0.0, 1.0, r_count)
    lo = evaluate_grids((sol.lower,), (0.0, prob.L), rs, (0,))[0, 0]
    up = evaluate_grids((sol.upper,), (0.0, prob.L), rs, (0,))[0, 0]
    gaps = (
        lo[0] - prob.bc0.lower(rs),
        up[0] - prob.bc0.upper(rs),
        lo[1] - prob.bcL.lower(rs),
        up[1] - prob.bcL.upper(rs),
    )
    return float(np.max(np.abs(gaps)))


def _per_point_ode_residual(sol, x_count: int, r_count: int) -> float:
    """ODE residual from the per-point ``fix_r`` values of each branch and derivative."""
    prob = sol.problem
    xs = np.linspace(0.0, prob.L, x_count)
    rs = np.linspace(0.0, 1.0, r_count)
    lo = [per_point(sol.lower, xs, rs, d) for d in range(3)]
    up = [per_point(sol.upper, xs, rs, d) for d in range(3)]
    if sol.case.is_mixed:
        c_eff = prob.effective_c(sol.case)
        residuals = (prob.a * lo[2] + c_eff * up[0], prob.a * up[2] + c_eff * lo[0])
    else:
        residuals = [prob.a * y[2] + prob.b * y[1] + prob.c * y[0] for y in (lo, up)]
    return float(np.max(np.abs(residuals)))


SOLVABLE = [(wave_problem, case) for case in ALL_CASES] + [
    (homogeneous_problem, DiffCase.CASE_11),
    (homogeneous_problem, DiffCase.CASE_22),
]


class TestOnePass:
    """check_level_set reads both residuals off its own grid, bit for bit."""

    @pytest.mark.parametrize(
        "make, case", SOLVABLE, ids=[f"{m.__name__}-{c.tag}" for m, c in SOLVABLE]
    )
    @pytest.mark.parametrize("x_count, r_count", [(101, 11), (7, 4)])
    def test_residuals_match_separate_evaluations(self, make, case, x_count, r_count):
        sol = solve(make(case))
        report = check_level_set(sol, x_count, r_count)
        want = _per_point_ode_residual(sol, x_count, r_count)
        assert report.max_ode_residual.hex() == want.hex()
        assert report.max_boundary_residual == _endpoint_boundary_residual(sol, r_count)


def _overflowing(sol):
    """``sol`` with a lower envelope of 1e140*cosh(400x), which overflows on [0, 1]."""
    return replace(sol, lower=RClosedForm(((TermKind.COSH, 400.0, RFun(1e140, 0.0)),)))


class TestCheckCase:
    @pytest.mark.parametrize("case", [DiffCase.CASE_11, DiffCase.CASE_12])
    def test_non_finite_grid_fails(self, case):
        with pytest.raises(UnsupportedProblemError, match=f"case {case.tag} overflows"):
            check_level_set(_overflowing(wave_solution(case)))
        with pytest.raises(UnsupportedProblemError):
            residual_ode(_overflowing(wave_solution(case)))

    def test_non_finite_grid_fails_the_case(self, monkeypatch):
        monkeypatch.setattr(validate, "solve", lambda prob: _overflowing(solve(prob)))
        res = check_case(wave_problem(case=None), DiffCase.CASE_11)
        assert not res.solved and res.report is None
        assert res.error.startswith("UnsupportedProblemError: case 11 overflows")

    def test_overflowing_discriminant_is_no_resonance(self):
        # the roots are -114.8 and 23.6, but b*b - 4*a*c overflows
        prob = FuzzyBVP(**OVERFLOWING_DISCRIMINANT, L=1.0, bc0=BC0, bcL=BCL)
        for case in ALL_CASES:
            with pytest.raises(FuzzyBvpError) as info:
                solve(replace(prob, case=case))
            assert "resonant" not in str(info.value)
            if not case.is_mixed:
                assert str(info.value).startswith("non-finite root or residue")
        results = enumerate_cases(prob)
        assert [r.case for r in results] == list(ALL_CASES)
        assert not any(r.solved for r in results)
        assert not any("resonant" in r.error for r in results)
        assert results[0].error.startswith("UnsupportedProblemError: non-finite root or residue")

    @pytest.mark.parametrize("name", sorted(EXTREME_PROBLEMS))
    def test_overflowing_transform_fails_every_case(self, name):
        prob, prefix = EXTREME_PROBLEMS[name]
        results = enumerate_cases(prob)
        assert [r.case for r in results] == list(ALL_CASES)
        for res in results:
            assert isinstance(res, CaseResult)
            assert not res.solved and res.report is None
            assert res.error.startswith(f"UnsupportedProblemError: {prefix}")


_coef = st.floats(-5.0, 5.0)


@st.composite
def _fuzzy(draw):
    lo0, lo1, up0, up1 = draw(_coef), draw(st.floats(0.0, 3.0)), draw(_coef), draw(st.floats(0.0, 3.0))
    return FuzzyNumber(RFun(lo0 - lo1, lo1), RFun(max(lo0, up0) + up1, -up1))


# The wave data x1e293 with a = 1e10, c = -1e16 on L = 1e-3: every envelope
# value fits in double precision, but the check's c*y does not.
CHECK_OVERFLOW = FuzzyBVP(
    a=1e10, b=0.0, c=-1e16, L=1e-3, bc0=scale(1e293, BC0), bcL=scale(1e293, BCL)
)
# The wave data x2**877 (scaled exactly) with a = 1e45: a*y(0) overflows, but
# every value and product the check forms fits.
LARGE_BUT_FITS = FuzzyBVP(
    a=1e45, b=0.0, c=-1e41, L=3.5, bc0=scale(2.0**877, BC0), bcL=scale(2.0**877, BCL)
)


def _data_size(prob: FuzzyBVP) -> float:
    ends = (u(r) for bc in (prob.bc0, prob.bcL) for u in (bc.lower, bc.upper) for r in (0.0, 1.0))
    return max(abs(v) for v in ends)


@st.composite
def extreme_problems(draw):
    """a, b, c and boundary data log-uniform up to ~1e300, k*L up to ~750.

    The rate k sets c ~ a*k^2 and b ~ a*k, so most draws reach the
    two-point kernel; half the draws size the data so that the largest
    value the check forms lands near the double-precision limit.
    """
    sign = st.sampled_from((-1.0, 1.0))
    a = draw(sign) * 10.0 ** draw(st.floats(-300.0, 300.0))
    k = 10.0 ** draw(st.floats(-3.0, 3.0))
    c = draw(sign) * abs(a) * k * k * draw(st.floats(0.5, 2.0))
    b = a * k * draw(st.floats(-3.0, 3.0)) if draw(st.booleans()) else 0.0
    kL = 10.0 ** draw(st.floats(-3.0, math.log10(750.0)))
    if draw(st.booleans()):
        top = draw(st.floats(290.0, 320.0)) - math.log10(max(abs(a), abs(c), 1.0) * max(k, 1.0) ** 2)
        exponent = min(max(top - kL / math.log(10.0), -300.0), 300.0)
    else:
        exponent = draw(st.floats(-300.0, 300.0))
    data = [scale(10.0 ** exponent, u) for u in (draw(_fuzzy()), draw(_fuzzy()))]
    return FuzzyBVP(a=a, b=b, c=c, L=kL / k, bc0=data[0], bcL=data[1])


class TestOverflowRule:
    """A solution ``solve`` returns can always be checked: the two-point
    kernel refuses what ``check_level_set`` could not evaluate."""

    @settings(max_examples=400, deadline=None)
    @given(prob=extreme_problems(), case=st.sampled_from(ALL_CASES))
    @example(prob=CHECK_OVERFLOW, case=DiffCase.CASE_11)
    @example(prob=CHECK_OVERFLOW, case=DiffCase.CASE_12)
    @example(prob=LARGE_BUT_FITS, case=DiffCase.CASE_11)
    @example(prob=NEAR_OVERFLOW, case=DiffCase.CASE_12)
    def test_solved_means_checkable(self, prob, case):
        try:
            sol = solve(replace(prob, case=case))
        except FuzzyBvpError:
            return
        report = check_level_set(sol, 11, 4)
        assert math.isfinite(report.max_ode_residual)
        assert math.isfinite(report.max_boundary_residual)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_check_overflow_refused(self, case):
        with pytest.raises(UnsupportedProblemError) as info:
            solve(replace(CHECK_OVERFLOW, case=case))
        message = str(info.value)
        assert message.startswith("closed form overflows double precision at L=0.001: k*L = ")
        assert "a=1e+10, b=0, c=-1e+16" in message and "|y(0)| <= " in message

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_large_coefficients_that_fit_solve(self, case):
        report = check_level_set(solve(replace(LARGE_BUT_FITS, case=case)))
        assert report.max_boundary_residual <= 1e-12 * _data_size(LARGE_BUT_FITS)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_zero_data_with_overflowing_basis_refused(self, case):
        # m0 = 0 and S(phi) = inf: 0*inf is NaN, and NaN is refused, not passed
        zero = FuzzyNumber.crisp(0.0)
        prob = FuzzyBVP(a=1.0, b=0.0, c=-1.0, L=800.0, bc0=zero, bcL=zero, case=case)
        with pytest.raises(UnsupportedProblemError, match=r"k\*L = 800"):
            solve(prob)


@st.composite
def enumerable_problems(draw):
    """Problems with no case set: some solve in both families, some in one or none."""
    a = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from((-1.0, 1.0)))
    L = draw(st.floats(0.1, 3.0))
    height = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        # b = 0 and kappa = k^2 > 0: the mixed cases apply too
        k = draw(st.floats(0.05, 7.0)) / L
        b, c = 0.0, -a * k * k - height
    else:
        # any sign of kappa, a y' term, damped roots, eigenvalue lengths
        b = draw(st.just(0.0) | st.floats(-5.0, 5.0))
        c = draw(st.floats(-20.0, 20.0) | st.just(np.pi**2))
    if draw(st.integers(0, 5)) == 0:
        L *= 300.0  # a growing basis overflows, an oscillating one does not
    return FuzzyBVP(a=a, b=b, c=c, L=L, bc0=draw(_fuzzy()), bcL=draw(_fuzzy()), v_height=height)


def _assert_same_result(got: CaseResult, want: CaseResult) -> None:
    """Field by field, floats by ==."""
    assert got.case is want.case
    assert got.error == want.error
    if want.report is None:
        assert got.report is None
    else:
        for field in fields(want.report):
            assert getattr(got.report, field.name) == getattr(want.report, field.name), field.name
    if want.solution is None:
        assert got.solution is None
        return
    sol, ref = got.solution, want.solution
    assert sol.case is ref.case
    assert sol.problem == ref.problem
    assert sol.lower.terms == ref.lower.terms
    assert sol.upper.terms == ref.upper.terms
    assert list(sol.constants.items()) == list(ref.constants.items())


class TestOneSolvePerFamily:
    """enumerate_cases solves 11 and 12 and relabels them as 22 and 21."""

    @settings(max_examples=150, deadline=None)
    @given(prob=enumerable_problems())
    @example(prob=NEAR_OVERFLOW)
    def test_equals_four_direct_solves(self, prob):
        got = enumerate_cases(prob, 11, 4)
        want = [check_case(prob, case, 11, 4) for case in ALL_CASES]
        assert len(got) == len(want)
        for res, ref in zip(got, want):
            _assert_same_result(res, ref)

    @pytest.mark.parametrize(
        "prob", [wave_problem(case=None), homogeneous_problem(case=None)],
        ids=["both-families-solve", "mixed-refused"],
    )
    def test_one_solve_per_family(self, monkeypatch, prob):
        seen = []

        def counting(p):
            seen.append(p.case)
            return solve(p)

        monkeypatch.setattr(validate, "solve", counting)
        results = enumerate_cases(prob)
        assert seen == [DiffCase.CASE_11, DiffCase.CASE_12]
        assert [r.case for r in results] == list(ALL_CASES)

    def test_twin_of_a_solution(self):
        s11 = solve(wave_problem(DiffCase.CASE_11))
        s12 = solve(wave_problem(DiffCase.CASE_12))
        assert s11.as_case(DiffCase.CASE_11) is s11
        s22 = s11.as_case(DiffCase.CASE_22)
        assert s22.problem.case is s22.case is DiffCase.CASE_22
        assert (s22.constants["F1"], s22.constants["F2"]) == (s11.constants["F2"], s11.constants["F1"])
        assert s12.as_case(DiffCase.CASE_21).constants == s12.constants
        with pytest.raises(ValueError, match="not the twin"):
            s11.as_case(DiffCase.CASE_12)


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


def _thomas_per_column(sub, diag, sup, rhs):
    """The textbook elimination of one column: forward sweep, then back sweep."""
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


def _stencil(a, b, c, L, n):
    """The oracle's three-point coefficients (sub, diag, sup) on n intervals."""
    h = L / n
    return a / h**2 - b / (2.0 * h), c - 2.0 * a / h**2, a / h**2 + b / (2.0 * h)


def _fd_oracle_per_column(a, b, c, L, y0, yL, n):
    """One scalar boundary pair, one sequential elimination: an independent
    reference for ``fd_oracle``."""
    sub, diag, sup = _stencil(a, b, c, L, n)
    rhs = np.zeros(n - 1)
    rhs[0] -= sub * y0
    rhs[-1] -= sup * yL
    return np.concatenate(([y0], _thomas_per_column(sub, diag, sup, rhs), [yL]))


def _oracle_gap_per_level(sol, n, r_values):
    """``oracle_gap`` as one pair of scalar ``fd_oracle`` solves per level,
    with a running max."""
    prob = sol.problem
    xs = np.linspace(0.0, prob.L, n + 1)
    lo_grid = evaluate_grids((sol.lower,), xs, r_values, (0,))[0, 0]
    up_grid = evaluate_grids((sol.upper,), xs, r_values, (0,))[0, 0]
    worst = 0.0
    for j, r in enumerate(r_values):
        bc = (prob.bc0.lower(r), prob.bc0.upper(r), prob.bcL.lower(r), prob.bcL.upper(r))
        if sol.case.is_mixed:
            kappa = -prob.effective_c(sol.case)
            s = fd_oracle(prob.a, 0.0, -kappa, prob.L, bc[0] + bc[1], bc[2] + bc[3], n)
            d = fd_oracle(prob.a, 0.0, kappa, prob.L, bc[0] - bc[1], bc[2] - bc[3], n)
            lo_fd, up_fd = (s + d) / 2.0, (s - d) / 2.0
        else:
            lo_fd = fd_oracle(prob.a, prob.b, prob.c, prob.L, bc[0], bc[2], n)
            up_fd = fd_oracle(prob.a, prob.b, prob.c, prob.L, bc[1], bc[3], n)
        worst = max(
            worst,
            float(np.max(np.abs(lo_grid[:, j] - lo_fd))),
            float(np.max(np.abs(up_grid[:, j] - up_fd))),
        )
    return worst


_boundary = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestFdOracleColumns:
    """Every column is the same combination of one stencil's two end
    solutions, so it has the same bits whether solved alone or with others;
    the sequential per-column elimination is the independent reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=10.0) | st.floats(min_value=-10.0, max_value=-0.1),
        b=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        c=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        L=st.floats(min_value=0.1, max_value=5.0),
        n=st.integers(16, 200),
        pairs=st.lists(st.tuples(_boundary, _boundary), min_size=1, max_size=5),
    )
    @example(a=1.0, b=0.0, c=0.0, L=1.0, n=77, pairs=[(2.2250738585e-313, 0.0)])
    def test_matches_per_column_solve(self, a, b, c, L, n, pairs):
        y0 = [p[0] for p in pairs]
        yL = [p[1] for p in pairs]
        try:
            want = [_fd_oracle_per_column(a, b, c, L, p, q, n) for p, q in pairs]
        except EigenvalueDegeneracyError:
            with pytest.raises(EigenvalueDegeneracyError):
                fd_oracle(a, b, c, L, y0, yL, n)
            return
        got = fd_oracle(a, b, c, L, y0, yL, n)
        assert got.shape == (n + 1, len(pairs))
        for j, (p, q) in enumerate(pairs):
            assert got[:, j].tobytes() == fd_oracle(a, b, c, L, [p], [q], n)[:, 0].tobytes()
        scalar = fd_oracle(a, b, c, L, y0[0], yL[0], n)
        assert scalar.shape == (n + 1,)
        assert scalar.tobytes() == got[:, 0].tobytes()
        sub, diag, sup = _stencil(a, b, c, L, n)
        size = max(abs(sub), abs(diag), abs(sup))
        # below the normal range a double has no relative precision to bound
        tiny = np.finfo(float).tiny
        for y, ref in zip(got.T, want):
            assert np.max(np.abs(y - ref)) <= 1e-9 * max(np.max(np.abs(ref)), tiny)
            residual = sub * y[:-2] + diag * y[1:-1] + sup * y[2:]
            assert np.max(np.abs(residual)) <= 1e-13 * size * max(np.max(np.abs(y)), tiny)

    @pytest.mark.parametrize(
        "y0, yL", [([0.0, 1.0], [1.0]), ([0.0], [1.0, 2.0]), (0.0, [1.0]), ([[0.0]], [[1.0]])]
    )
    def test_mismatched_boundary_shapes_raise(self, y0, yL):
        with pytest.raises(ValueError, match="equal length"):
            fd_oracle(1.0, 0.0, -1.0, 1.0, y0, yL, 64)
        with pytest.raises(ValueError, match="equal length"):
            fd_oracle_coupled(1.0, 1.0, 1.0, y0, yL, y0, y0, 64)

    def test_singular_stencil_raises_for_sequences(self):
        n, L, a = 16, 1.0, 1.0
        c = 2.0 * a * n * n / (L * L)
        for y0, yL in (([1.0, 2.0], [1.0, 3.0]), ([], [])):
            with pytest.raises(EigenvalueDegeneracyError):
                fd_oracle(a, 0.0, c, L, y0, yL, n)


class TestOracleGapColumns:
    @pytest.mark.parametrize("r_values", [(0.0, 0.5, 1.0), (0.0,)])
    @pytest.mark.parametrize(
        "prob",
        [wave_problem(case) for case in ALL_CASES]
        + [homogeneous_problem(case) for case in (DiffCase.CASE_11, DiffCase.CASE_22)],
        ids=["wave-11", "wave-22", "wave-12", "wave-21", "homogeneous-11", "homogeneous-22"],
    )
    def test_matches_per_level_loop(self, prob, r_values):
        sol = solve(prob)
        n = 10_000
        assert oracle_gap(sol, n, r_values) == _oracle_gap_per_level(sol, n, r_values)
