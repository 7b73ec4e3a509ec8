"""Level-set checks, residual measurement, and the finite-difference oracle."""

import math
import warnings
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fuzzybvp import (
    ALL_CASES,
    CaseResult,
    DiffCase,
    EigenvalueDegeneracyError,
    FuzzyBVP,
    FuzzyBvpError,
    FuzzyNumber,
    FuzzySolution,
    RClosedForm,
    RFun,
    TermKind,
    UnsupportedProblemError,
    check_case,
    check_level_set,
    enumerate_cases,
    fd_oracle,
    oracle_gap,
    residual_ode,
    scale,
    solve,
)
from fuzzybvp import validate
from fuzzybvp.laplace import evaluate_grids
from conftest import per_point
from test_solver import NEAR_OVERFLOW, homogeneous_problem, solvable_problems, wave_problem

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


def _constant_in_x(lower: RFun, upper: RFun) -> FuzzySolution:
    """A hand-built case-11 solution of y'' = 0 on [0, 1] with envelopes constant in x."""
    prob = FuzzyBVP(
        a=1.0, b=0.0, c=0.0, L=1.0,
        bc0=FuzzyNumber.crisp(1.0), bcL=FuzzyNumber.crisp(3.0), case=DiffCase.CASE_11,
    )
    const = lambda coeff: RClosedForm(((TermKind.EXP, 0.0, coeff),))
    return FuzzySolution(const(lower), const(upper), DiffCase.CASE_11, prob, {})


def _flags(report):
    return report.monotone_lower_in_r, report.monotone_upper_in_r, report.ordered


class TestVerdictReadsLevels0And1:
    """The envelopes are affine in r, so r = 0 and r = 1 decide every flag,
    and the number of levels sampled never moves the verdict."""

    # The slack is GRID_TOL * 3 = 3e-10. A change of 5e-10 over [0, 1]
    # exceeds it; split into adjacent-level steps it would not at r_count >= 3.
    @pytest.mark.parametrize("r_count", [2, 3, 11, 101])
    @pytest.mark.parametrize("lower, upper, want", [
        (RFun(1.0, -5e-10), RFun(3.0), (False, True, True)),
        (RFun(1.0), RFun(3.0, 5e-10), (True, False, True)),
        (RFun(1.0, -2e-10), RFun(3.0, 2e-10), (True, True, True)),
    ], ids=["falling-lower", "rising-upper", "within-slack"])
    def test_change_over_the_whole_level_range(self, lower, upper, want, r_count):
        assert _flags(check_level_set(_constant_in_x(lower, upper), 11, r_count)) == want

    @settings(max_examples=60, deadline=None)
    @given(prob=solvable_problems(), swapped=st.booleans())
    def test_flags_do_not_depend_on_r_count(self, prob, swapped):
        try:
            sol = solve(prob)
        except FuzzyBvpError:
            assume(False)
        if swapped:
            sol = replace(sol, lower=sol.upper, upper=sol.lower)
        verdicts = {_flags(check_level_set(sol, 101, r_count)) for r_count in (2, 11, 101)}
        assert len(verdicts) == 1, verdicts


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


DEMO_PROBLEMS = [wave_problem(case=None), homogeneous_problem(case=None)]


class TestOracleInCheckCase:
    """check_case(..., oracle=True) is check_case with the gap in its report."""

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.tag)
    @pytest.mark.parametrize("prob", DEMO_PROBLEMS, ids=["wave", "homogeneous"])
    def test_equals_check_then_gap(self, prob, case):
        got = check_case(prob, case, oracle=True)
        want = check_case(prob, case)
        if want.solved:
            want = replace(want, report=replace(want.report, oracle_max_gap=oracle_gap(want.solution)))
            assert got.report.oracle_max_gap is not None
        _assert_same_result(got, want)

    @pytest.mark.parametrize("prob", DEMO_PROBLEMS, ids=["both-families-solve", "mixed-refused"])
    def test_one_gap_per_family(self, monkeypatch, prob):
        seen = []
        original = validate.oracle_gap

        def counting(sol, *args, **kwargs):
            seen.append(sol.case)
            return original(sol, *args, **kwargs)

        monkeypatch.setattr(validate, "oracle_gap", counting)
        results = enumerate_cases(prob, oracle=True)
        assert seen == [r.case for r in results[::2] if r.solved]
        for res, twin in zip(results[::2], results[1::2]):
            assert res.solved == twin.solved
            if res.solved:
                assert res.report.oracle_max_gap == twin.report.oracle_max_gap is not None

    def test_oracle_refusal_fails_the_case(self):
        # at n = ORACLE_N = 2000 the stencil diagonal c - 2a/h**2 is exactly 0,
        # and the stencil has an odd number of interior points, so it is singular
        prob = wave_problem(case=None, energy=-8e6)
        assert check_case(prob, DiffCase.CASE_11).solved
        results = enumerate_cases(prob, oracle=True)
        for res in results[:2]:
            assert not res.solved and res.report is None
            assert res.error == (
                "EigenvalueDegeneracyError: finite-difference oracle at n = 2000, stencil "
                "(sub, diag, sup) = (4000000.0, 0.0, 4000000.0): "
                "singular tridiagonal system (zero pivot)"
            )
        assert all(r.error.startswith("CaseInapplicableError: ") for r in results[2:])


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


    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.0, -1.0, 0.0, 1.0, 2.0), "domain length must be positive"),
        ((1.0, 0.0, -1.0, -1.0, 1.0, 2.0), "domain length must be positive"),
        ((1.0, 0.0, -1.0, math.inf, 1.0, 2.0), "L must be finite"),
        ((1.0, 0.0, -1.0, math.nan, 1.0, 2.0), "L must be finite"),
        ((math.nan, 0.0, -1.0, 1.0, 1.0, 2.0), "a must be finite"),
        ((1.0, math.inf, -1.0, 1.0, 1.0, 2.0), "b must be finite"),
        ((1.0, 0.0, math.nan, 1.0, 1.0, 2.0), "c must be finite"),
        ((1.0, 0.0, -1.0, 1.0, math.nan, 2.0), "boundary values must be finite"),
        ((1.0, 0.0, -1.0, 1.0, [0.0, 1.0], [2.0, math.inf]), "boundary values must be finite"),
    ], ids=["L-zero", "L-negative", "L-inf", "L-nan", "a-nan", "b-inf", "c-nan", "y0-nan", "yL-inf"])
    def test_invalid_input_raises_value_error(self, args, message):
        with pytest.raises(ValueError, match=message):
            fd_oracle(*args, 64)


def _mixed_columns(a, c_eff, L, v0, w0, vL, wL, n):
    """The mixed cases' oracle columns as ``oracle_gap`` forms them: the half
    sum and half difference from one ``fd_oracle`` call each, recombined."""
    v0, w0, vL, wL = (x / 2.0 for x in (v0, w0, vL, wL))
    s = fd_oracle(a, 0.0, c_eff, L, v0 + w0, vL + wL, n)
    d = fd_oracle(a, 0.0, -c_eff, L, v0 - w0, vL - wL, n)
    return s + d, s - d


class TestFdOracleCoupled:
    """Two ``fd_oracle`` solves, on the half sum and the half difference, are
    the coupled scheme for a*v'' + c_eff*w = 0, a*w'' + c_eff*v = 0."""

    def test_symmetric_data_reduces_to_scalar(self):
        # with v = w on the boundary the coupled pair collapses to
        # a*y'' + c_eff*y = 0, a single scalar solve
        c_eff, n = -1.3, 256
        v, w = _mixed_columns(1.0, c_eff, 1.0, 1.0, 1.0, 2.0, 2.0, n)
        scalar = fd_oracle(1.0, 0.0, c_eff, 1.0, 1.0, 2.0, n)
        assert np.max(np.abs(v - w)) <= 1e-12
        assert np.max(np.abs(v - scalar)) <= 1e-10

    def test_matches_dense_stacked_system(self):
        # the coupled central-difference system assembled and solved as it
        # stands, with no sum/difference change of variables
        a, c_eff, L, n = 1.5, -2.0, 1.3, 64
        v0, w0, vL, wL = 1.0, 3.0, 4.0, 6.0
        m, h = n - 1, L / n
        lap = (
            np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
        ) * (a / h**2)
        system = np.block([[lap, c_eff * np.eye(m)], [c_eff * np.eye(m), lap]])
        rhs = np.zeros(2 * m)
        rhs[0] -= a / h**2 * v0
        rhs[m - 1] -= a / h**2 * vL
        rhs[m] -= a / h**2 * w0
        rhs[-1] -= a / h**2 * wL
        dense = np.linalg.solve(system, rhs)
        v, w = _mixed_columns(a, c_eff, L, v0, w0, vL, wL, n)
        assert np.max(np.abs(v[1:-1] - dense[:m])) <= 1e-10
        assert np.max(np.abs(w[1:-1] - dense[m:])) <= 1e-10
        assert (v[0], w[0], v[-1], w[-1]) == (v0, w0, vL, wL)

    def test_matches_coupled_closed_form(self):
        sol = wave_solution(DiffCase.CASE_12)
        assert oracle_gap(sol) <= 1e-5

    def test_second_order_convergence_against_closed_form(self):
        # the closed form is the scheme's O(h**2) limit: halving h quarters the gap
        sol = wave_solution(DiffCase.CASE_12)
        prob = sol.problem
        c_eff = prob.effective_c(sol.case)
        data = (prob.bc0.lower(0.0), prob.bc0.upper(0.0), prob.bcL.lower(0.0), prob.bcL.upper(0.0))
        gaps = []
        for n in (128, 256, 512):
            xs = np.linspace(0.0, prob.L, n + 1)
            v, w = _mixed_columns(prob.a, c_eff, prob.L, *data, n)
            gaps.append(max(
                np.max(np.abs(v - sol.lower.evaluate(xs, 0.0))),
                np.max(np.abs(w - sol.upper.evaluate(xs, 0.0))),
            ))
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        assert all(3.5 <= ratio <= 4.5 for ratio in ratios), ratios


def _scaled_data(prob: FuzzyBVP, power: int) -> FuzzyBVP:
    """``prob`` with every boundary coefficient times 2**power, which is exact."""
    def scaled(fn: FuzzyNumber) -> FuzzyNumber:
        return FuzzyNumber(fn.lower.scaled(2.0 ** power), fn.upper.scaled(2.0 ** power))

    return replace(prob, bc0=scaled(prob.bc0), bcL=scaled(prob.bcL))


class TestOracleGap:
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.tag)
    def test_gap_scales_exactly_with_the_data(self, case):
        # the stencil weight scales the unit-end solutions before the data
        # do, so data near 2**1000 neither overflow nor round differently
        prob = wave_problem(case)
        want = math.ldexp(oracle_gap(solve(prob)), 1000)
        assert math.isfinite(want)
        assert oracle_gap(solve(_scaled_data(prob, 1000))) == want

    @pytest.mark.parametrize("case", [DiffCase.CASE_12, DiffCase.CASE_21], ids=lambda c: c.tag)
    def test_mixed_oracle_solves_with_c_plus_height(self, case):
        # c + height = -1 as in the wave problem, so the gap keeps its bits
        shifted = replace(wave_problem(case), c=1.5, v_height=-2.5)
        assert oracle_gap(solve(shifted)) == oracle_gap(solve(wave_problem(case)))

    def test_uncoupled_gap_small(self):
        assert oracle_gap(wave_solution()) <= 1e-5

    def test_gap_detects_wrong_solution(self):
        sol = wave_solution()
        kind, k, coeff = sol.lower.terms[0]
        bumped = (kind, k, RFun(coeff.c0 + 0.5, coeff.c1))
        bad = replace(sol, lower=RClosedForm((bumped,) + sol.lower.terms[1:]))
        assert oracle_gap(bad) > 1e-2


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


def _richardson(a, b, c, L, y0, yL, n):
    """The scalar ``fd_oracle`` solves on n and 2n intervals, extrapolated
    to f_2n + (f_2n - f_n)/3 on the n + 1 coarse points."""
    coarse = fd_oracle(a, b, c, L, y0, yL, n)
    fine = fd_oracle(a, b, c, L, y0, yL, 2 * n)[::2]
    return fine + (fine - coarse) / 3.0


def _oracle_gap_per_level(sol, n, r_values):
    """``oracle_gap`` as one pair of extrapolated scalar oracle solves per
    level, with a running max."""
    prob = sol.problem
    xs = np.linspace(0.0, prob.L, n + 1)
    lo_grid = evaluate_grids((sol.lower,), xs, r_values, (0,))[0, 0]
    up_grid = evaluate_grids((sol.upper,), xs, r_values, (0,))[0, 0]
    worst = 0.0
    for j, r in enumerate(r_values):
        bc = (prob.bc0.lower(r), prob.bc0.upper(r), prob.bcL.lower(r), prob.bcL.upper(r))
        if sol.case.is_mixed:
            c_eff = prob.effective_c(sol.case)
            s = _richardson(prob.a, 0.0, c_eff, prob.L, bc[0] + bc[1], bc[2] + bc[3], n)
            d = _richardson(prob.a, 0.0, -c_eff, prob.L, bc[0] - bc[1], bc[2] - bc[3], n)
            lo_fd, up_fd = (s + d) / 2.0, (s - d) / 2.0
        else:
            lo_fd = _richardson(prob.a, prob.b, prob.c, prob.L, bc[0], bc[2], n)
            up_fd = _richardson(prob.a, prob.b, prob.c, prob.L, bc[1], bc[3], n)
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
    @example(a=1.0, b=-32.0, c=3.0, L=1.0, n=16, pairs=[(1.0, 2.0)])  # sup = 0
    @example(a=1.0, b=32.0, c=3.0, L=1.0, n=16, pairs=[(1.0, 2.0)])  # sub = 0
    @example(a=1.0, b=3.0, c=50.0, L=5.0, n=16, pairs=[(1.0, 2.0)])  # two negative roots
    @example(a=1.0, b=31.999999999999996, c=3.0, L=1.0, n=16, pairs=[(1.0, 2.0)])  # 1 + t rounds to 0
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

    def test_singular_stencil_raises_for_sequences(self):
        n, L, a = 16, 1.0, 1.0
        c = 2.0 * a * n * n / (L * L)
        for y0, yL in (([1.0, 2.0], [1.0, 3.0]), ([], [])):
            with pytest.raises(EigenvalueDegeneracyError):
                fd_oracle(a, 0.0, c, L, y0, yL, n)

    @pytest.mark.parametrize("n", [16, 32])
    def test_lowest_eigenvalue_stencil_raises(self, n):
        # c at the stencil's lowest discrete eigenvalue: the diagonal is far
        # from 0, so only the scan over the elimination pivots refuses it
        h = 1.0 / n
        c = 2.0 / h**2 - 2.0 / h**2 * math.cos(math.pi / n)
        sub, diag, sup = _stencil(1.0, 0.0, c, 1.0, n)
        with pytest.raises(EigenvalueDegeneracyError) as info:
            fd_oracle(1.0, 0.0, c, 1.0, 1.0, 2.0, n)
        assert str(info.value) == (
            f"finite-difference oracle at n = {n}, stencil (sub, diag, sup) = "
            f"({sub}, {diag}, {sup}): singular tridiagonal system (zero pivot)"
        )

    @pytest.mark.parametrize("a, b, c, L, n", [
        (1.0, 40.0, 3.0, 1.0, 16),
        (1.0, -40.0, 3.0, 1.0, 16),
        (1.0, 40.0, 3.0, 1.0, 17),
        (0.1, 50.0, -20.0, 5.0, 40),
    ])
    def test_roots_of_opposite_sign(self, a, b, c, L, n):
        # |b|*h > 2|a| makes sub and sup of opposite sign, so the roots are
        # too, and E(k) = 1 + |rho|**k at odd k
        sub, _, sup = _stencil(a, b, c, L, n)
        assert sub * sup < 0.0
        pairs = [(1.0, 0.0), (0.0, 1.0), (2.5, -3.0)]
        got = fd_oracle(a, b, c, L, [p for p, _ in pairs], [q for _, q in pairs], n)
        for j, (p, q) in enumerate(pairs):
            assert got[:, j].tobytes() == fd_oracle(a, b, c, L, [p], [q], n)[:, 0].tobytes()
            want = _fd_oracle_per_column(a, b, c, L, p, q, n)
            assert np.max(np.abs(got[:, j] - want)) <= 1e-9 * np.max(np.abs(want))


def _exact_end_solutions(a, b, c, L, n, js):
    """U_j and V_j, the solutions for unit data at the left and at the right
    end, at the indices ``js``, in 40 digits, of the stencil
    (w - v, c - 2*w, w + v) formed without rounding from the oracle's
    weights w = a/h**2 and v = b/(2*h)."""
    h = L / n
    with mpmath.workdps(40):
        w, v, c = mpmath.mpf(a / h / h), mpmath.mpf(b / (2.0 * h)), mpmath.mpf(c)
        sub, diag, sup = w - v, c - 2 * w, w + v
        root = mpmath.sqrt(diag**2 - 4 * sub * sup)  # imaginary for an oscillatory stencil
        mu1, mu2 = (-diag + root) / (2 * sup), (-diag - root) / (2 * sup)
        den = mu1**n - mu2**n
        U = [float(mpmath.re((mu2**j * mu1**n - mu1**j * mu2**n) / den)) for j in js]
        V = [float(mpmath.re((mu1**j - mu2**j) / den)) for j in js]
    return np.column_stack((U, V))


class TestFdOracleEndSolutions:
    """The columns of unit data at one end, which every other column combines."""

    @pytest.mark.parametrize("a, b, c, L", [
        (1.0, 0.0, -1.0, 1.0),
        (1.0, 0.0, 1.0, 1.0),
        (1.0, -3.0, 2.0, 1.0),
        # sub + diag + sup of the rounded entries is not c for this stencil
        (1.51, 11.9, -4.7, 3.0),
        # a*d'' - c_eff*d = 0, the mixed cases' half-difference stencil
        (0.5, 0.0, 7.3, 2.0),
    ], ids=["cosh", "cos", "exp", "exp-rounded-sum", "mixed-difference"])
    def test_match_exact_solution_of_the_stencil(self, a, b, c, L):
        # log(1 + t) in place of log1p(t) is off by ~5e-14 here, and a
        # sequential elimination by 3e-12 to 1e-11
        n = 10_000
        js = np.unique(np.linspace(1, n - 1, 100).astype(int))
        got = fd_oracle(a, b, c, L, [1.0, 0.0], [0.0, 1.0], n)[js]
        want = _exact_end_solutions(a, b, c, L, n, js.tolist())
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-14 * np.max(np.abs(want), axis=0))

    def test_long_hyperbolic_domain_stays_finite(self):
        # sinh(j*k)/sinh(n*k) overflows here; each mode anchored at the end
        # where it is largest does not
        args = (1.0, 0.0, -1.0, 1000.0, 1.0, 2.0, 10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fd_oracle(*args)
        want = _fd_oracle_per_column(*args)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# Every case of the two demo problems that solves; homogeneous has a y' term,
# so its mixed cases are refused.
_SOLVED_DEMO_CASES = {
    **{f"wave-{case.tag}": wave_problem(case) for case in ALL_CASES},
    **{
        f"homogeneous-{case.tag}": homogeneous_problem(case)
        for case in (DiffCase.CASE_11, DiffCase.CASE_22)
    },
}


class TestOracleGapColumns:
    # the per-level loop takes the two levels in either order; its running
    # max has the bits of oracle_gap's one call
    @pytest.mark.parametrize("r_values", [(0.0, 1.0), (1.0, 0.0)])
    @pytest.mark.parametrize("prob", _SOLVED_DEMO_CASES.values(), ids=_SOLVED_DEMO_CASES.keys())
    def test_matches_per_level_loop(self, prob, r_values):
        sol = solve(prob)
        assert oracle_gap(sol) == _oracle_gap_per_level(sol, validate.ORACLE_N, r_values)


def _assert_levels_0_and_1_bound_the_gap(sol):
    """The gap at 11 levels is at most ``oracle_gap``'s, to 1e-13 of the
    largest |envelope| on the oracle grid."""
    n = validate.ORACLE_N
    levels = np.linspace(0.0, 1.0, 11)
    xs = np.linspace(0.0, sol.problem.L, n + 1)
    size = np.max(np.abs(evaluate_grids((sol.lower, sol.upper), xs, levels)))
    assert _oracle_gap_per_level(sol, n, levels) <= oracle_gap(sol) + 1e-13 * size


class TestOracleGapBoundsEveryLevel:
    """Envelopes and oracle columns are both affine in r, so the gap at
    r = 0 and r = 1 bounds the gap at every level."""

    @pytest.mark.parametrize("prob", _SOLVED_DEMO_CASES.values(), ids=_SOLVED_DEMO_CASES.keys())
    def test_demo_problems(self, prob):
        _assert_levels_0_and_1_bound_the_gap(solve(prob))

    @settings(max_examples=25, deadline=None)
    @given(prob=solvable_problems())
    def test_solvable_problems(self, prob):
        try:
            sol = solve(prob)
        except FuzzyBvpError:
            assume(False)
        _assert_levels_0_and_1_bound_the_gap(sol)


def _exact_unit_columns(a, b, c, L, n, js):
    """The solutions of a*y'' + b*y' + c*y = 0 with (y(0), y(L)) = (1, 0) and
    (0, 1) at x = j*L/n for j in ``js``, in 50 digits."""
    with mpmath.workdps(50):
        a, b, c, L = (mpmath.mpf(v) for v in (a, b, c, L))
        root = mpmath.sqrt(b * b - 4 * a * c)  # imaginary for an oscillatory pair
        m1, m2 = (-b + root) / (2 * a), (-b - root) / (2 * a)
        den = mpmath.exp(m2 * L) - mpmath.exp(m1 * L)
        xs = [L * j / n for j in js]
        U = [float(mpmath.re((mpmath.exp(m1 * x + m2 * L) - mpmath.exp(m2 * x + m1 * L)) / den)) for x in xs]
        V = [float(mpmath.re((mpmath.exp(m2 * x) - mpmath.exp(m1 * x)) / den)) for x in xs]
    return np.column_stack((U, V))


# a = 1.3 and k = 1.7: a*y'' = a*k**2*y, a*y'' = -a*k**2*y, and the
# exponentials e^(k*x), e^(-k*x/2); (b, c) per family
_A, _K = 1.3, 1.7
_FAMILIES = {
    "cosh": (0.0, -_A * _K**2),
    "cos": (0.0, _A * _K**2),
    "exp": (-_A * _K / 2.0, -_A * _K**2 / 2.0),
}


class TestExtrapolatedOracle:
    """f_2n + (f_2n - f_n)/3 on the ORACLE_N grid is fourth order, and its
    stencil keeps c exactly, so it judges the closed form to ~1e-12."""

    @pytest.mark.parametrize("family, kL, bound", [
        *((family, kL, 1e-12) for family in _FAMILIES for kL in (1.0, 5.0)),
        ("cosh", 20.0, 1e-11),
        ("exp", 20.0, 1e-11),
    ])
    def test_columns_match_the_ode(self, family, kL, bound):
        # ~3e-16 at kL = 1 and at most 3.6e-12 at kL = 20; with the stencil's
        # t-quadratic summed from its rounded entries, 1.5e-11 at kL = 1
        b, c = _FAMILIES[family]
        L, n = kL / _K, validate.ORACLE_N
        js = np.unique(np.linspace(0, n, 101).astype(int))
        got = _richardson(_A, b, c, L, [1.0, 0.0], [0.0, 1.0], n)[js]
        want = _exact_unit_columns(_A, b, c, L, n, js.tolist())
        assert np.all(np.max(np.abs(got - want), axis=0) <= bound * np.max(np.abs(want), axis=0))

    @settings(max_examples=60, deadline=None)
    @given(prob=solvable_problems())
    def test_gap_is_at_rounding_level(self, prob):
        # k*L <= 5 and |sin(w*L)| >= 0.2 for an oscillatory pair: the gap was
        # up to 2.8e-7 of the envelopes with the n = 10**4 oracle alone
        if prob.case.is_mixed:
            # s and d solve a*y'' = -+c_eff*y: one pair is oscillatory
            k = math.sqrt(abs(prob.effective_c(prob.case) / prob.a))
            kL, wL = k * prob.L, k * prob.L
        else:
            m = np.roots((prob.a, prob.b, prob.c))
            kL, wL = float(np.max(np.abs(m))) * prob.L, float(np.max(m.imag)) * prob.L
        assume(kL <= 5.0 and (wL == 0.0 or abs(math.sin(wL)) >= 0.2))
        try:
            sol = solve(prob)
        except FuzzyBvpError:
            assume(False)
        xs = np.linspace(0.0, prob.L, validate.ORACLE_N + 1)
        size = np.max(np.abs(evaluate_grids((sol.lower, sol.upper), xs, (0.0, 1.0))))
        assert oracle_gap(sol) <= 1e-10 * size


# (a, b, c, L) whose oracle stencil cannot be formed in double precision at
# ORACLE_N intervals, each with its refusal.
# "weight-underflows": a/h**2 is 0, so the stencil has lost the y'' term.
# "step-underflows": L/n is 0.
# "entries-overflow": a/h**2 is inf, and sub is inf - inf.
BEYOND_DOUBLE = {
    "weight-underflows": ((1.0, 0.0, 1.0, 1e200), "stencil beyond double precision"),
    "step-underflows": ((1.0, 0.0, 1.0, 5e-324), "grid step L/n = 5e-324/2000 underflows to 0"),
    "entries-overflow": ((1e300, 1.7976931348623157e308, 0.0, 1e-12), "stencil beyond double precision"),
}


class TestStencilBeyondDoublePrecision:
    """An oracle stencil that double precision cannot hold is refused with
    ``UnsupportedProblemError``, and ``check_case`` fails the case."""

    @pytest.mark.parametrize("args, message", BEYOND_DOUBLE.values(), ids=BEYOND_DOUBLE.keys())
    def test_fd_oracle_refuses(self, args, message):
        with pytest.raises(UnsupportedProblemError, match=message) as info:
            fd_oracle(*args, 1.0, 2.0, validate.ORACLE_N)
        assert str(info.value).startswith(f"finite-difference oracle at n = {validate.ORACLE_N}")

    @pytest.mark.parametrize("args, message", BEYOND_DOUBLE.values(), ids=BEYOND_DOUBLE.keys())
    def test_check_case_fails_the_case(self, args, message):
        # a case the closed form solves fails at the oracle; one it refuses
        # keeps its own error. Case 11 solves on all but the subnormal domain.
        a, b, c, L = args
        prob = FuzzyBVP(a=a, b=b, c=c, L=L, bc0=BC0, bcL=BCL)
        assert check_case(prob, DiffCase.CASE_11).solved == (L > 5e-324)
        for case in ALL_CASES:
            plain, checked = check_case(prob, case), check_case(prob, case, oracle=True)
            assert not checked.solved
            if plain.solved:
                assert checked.error.startswith(
                    "UnsupportedProblemError: finite-difference oracle at n = 2000"
                )
                assert message in checked.error
            else:
                assert checked.error == plain.error


class TestFdOracleScaleFree:
    """The refusal and every value are homogeneous of degree 0 in the
    stencil, so scaling (a, b, c) by a power of two keeps every bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=10.0) | st.floats(min_value=-10.0, max_value=-0.1),
        b=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        c=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        L=st.floats(min_value=0.1, max_value=5.0),
        n=st.integers(16, 200),
        e=st.integers(-600, 600),
    )
    # y'' = y scaled by 2**-70 was refused as singular while 2**-60 solved
    @example(a=2.0**-70, b=0.0, c=-(2.0**-70), L=1.0, n=validate.ORACLE_N, e=70)
    # stencil entries near 1e308, whose sums overflow unless scaled first
    @example(a=4e299, b=1e304, c=0.0, L=1.0, n=validate.ORACLE_N, e=-10)
    # c*2**e is subnormal: the scaled problem has a c of fewer bits
    @example(a=1.0, b=0.0, c=4.803105604735833e-196, L=1.0, n=16, e=-374)
    # b/(2*h) is subnormal in the scaled problem only
    @example(a=1.0, b=1e-300, c=0.0, L=3.0, n=100, e=-67)
    def test_power_of_two_scaling_keeps_every_bit(self, a, b, c, L, n, e):
        y0, yL = [1.0, 0.0, 2.5], [0.0, 1.0, -3.0]
        scaled = [math.ldexp(v, e) for v in (a, b, c)]
        # ldexp rounds below the normal range; the oracle keeps every bit of
        # c and b, so the reference is the problem ``scaled`` is an exact
        # power-of-two scaling of
        a, b, c = (math.ldexp(v, -e) for v in scaled)
        try:
            want = fd_oracle(a, b, c, L, y0, yL, n)
        except EigenvalueDegeneracyError:
            with pytest.raises(EigenvalueDegeneracyError):
                fd_oracle(*scaled, L, y0, yL, n)
            return
        got = fd_oracle(*scaled, L, y0, yL, n)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == want.tobytes()
