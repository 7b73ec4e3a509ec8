"""The transform pipeline end to end, for all four differentiability cases."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzybvp import (
    ALL_CASES,
    CaseInapplicableError,
    DiffCase,
    EigenvalueDegeneracyError,
    FuzzyBVP,
    FuzzyBvpError,
    FuzzyNumber,
    RClosedForm,
    RFun,
    TermKind,
    UnsupportedProblemError,
    enumerate_cases,
    fd_oracle,
    solve,
    solve_coupled,
    solve_uncoupled,
    transform_bvp,
)

BC0 = FuzzyNumber(RFun(1, 1), RFun(3, -1))      # (1+r, 3-r)
BCL = FuzzyNumber(RFun(4, 1), RFun(6, -1))      # (4+r, 6-r)


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
        # (a p^2 - b) l[u] = a (p (1+r) + F) for the lower branch
        lower, upper = transform_bvp(wave_problem())
        assert lower.const_part.denominator.coeffs == (-1.0, 0.0, 1.0)
        assert lower.const_part.numerator.coeffs == (0.0, 1.0)   # p * 1
        assert lower.r_part.numerator.coeffs == (0.0, 1.0)       # p * r-slope 1
        assert lower.f_part.numerator.coeffs == (1.0,)           # a * F
        assert upper.const_part.numerator.coeffs == (0.0, 3.0)   # p * 3
        assert upper.r_part.numerator.coeffs == (0.0, -1.0)

    def test_homogeneous_template_sign(self):
        # l[x'] = p l[x] - x(0) forces the collected right side
        # p*x0 + F - 3*x0; with x0 = -0.5 + 0.5r the constant parts are
        # (1.5, -0.5p) and the r parts (-1.5, 0.5p)
        lower, _ = transform_bvp(homogeneous_problem())
        assert lower.const_part.denominator.coeffs == (2.0, -3.0, 1.0)
        assert lower.const_part.numerator.coeffs == (1.5, -0.5)
        assert lower.r_part.numerator.coeffs == (-1.5, 0.5)
        assert lower.f_part.numerator.coeffs == (1.0,)

    def test_crisp_zero_template(self):
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-1.0, L=1.0,
            bc0=FuzzyNumber.crisp(0.0), bcL=FuzzyNumber.crisp(0.0),
            case=DiffCase.CASE_11,
        )
        lower, upper = transform_bvp(prob)
        assert lower.const_part.numerator.is_zero
        assert lower.r_part.numerator.is_zero
        assert lower.f_part.numerator.coeffs == upper.f_part.numerator.coeffs == (1.0,)


class TestSolveUncoupled:
    def test_wave_shooting_constants_match_worked_formula(self):
        sol = solve_uncoupled(wave_problem())
        k = 1.0
        for r in (0.0, 0.5, 1.0):
            want_f1 = paper_F(r, BC0.lower, BCL.lower, k, 1.0)
            want_f2 = paper_F(r, BC0.upper, BCL.upper, k, 1.0)
            assert sol.constants["F1"](r) == pytest.approx(want_f1, rel=1e-12)
            assert sol.constants["F2"](r) == pytest.approx(want_f2, rel=1e-12)

    def test_boundary_exactness(self):
        sol = solve_uncoupled(wave_problem())
        for r in np.linspace(0, 1, 11):
            assert abs(sol.lower.evaluate(0.0, r) - BC0.lower(r)) <= 1e-9
            assert abs(sol.lower.evaluate(1.0, r) - BCL.lower(r)) <= 1e-9
            assert abs(sol.upper.evaluate(0.0, r) - BC0.upper(r)) <= 1e-9
            assert abs(sol.upper.evaluate(1.0, r) - BCL.upper(r)) <= 1e-9

    def test_homogeneous_matches_fd_oracle(self):
        sol = solve_uncoupled(homogeneous_problem())
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
        sol = solve_uncoupled(prob)
        xs = np.linspace(0, 1, 21)
        for r in (0.0, 0.5, 1.0):
            assert np.max(np.abs(sol.lower.evaluate(xs, r))) <= 1e-12
            assert np.max(np.abs(sol.upper.evaluate(xs, r))) <= 1e-12

    def test_crisp_core_matches_classical_solution(self):
        # at r = 1 both branches reduce to the same crisp problem
        sol = solve_uncoupled(wave_problem())
        n = 10_000
        xs = np.linspace(0.0, 1.0, n + 1)
        fd = fd_oracle(1.0, 0.0, -1.0, 1.0, BC0.lower(1.0), BCL.lower(1.0), n)
        assert np.max(np.abs(sol.lower.evaluate(xs, 1.0) - fd)) <= 1e-5
        assert np.max(np.abs(sol.upper.evaluate(xs, 1.0) - fd)) <= 1e-5

    def test_crisp_core_envelopes_coincide(self):
        # at r = 1 the boundary data collapses to points, so both branches
        # solve the same crisp problem
        sol = solve_uncoupled(wave_problem())
        xs = np.linspace(0, 1, 101)
        gap = np.abs(sol.lower.evaluate(xs, 1.0) - sol.upper.evaluate(xs, 1.0))
        assert np.max(gap) <= 1e-9

    def test_affine_in_r(self):
        sol = solve_uncoupled(homogeneous_problem())
        xs = np.linspace(0, 1, 17)
        for branch in (sol.lower, sol.upper):
            mid = branch.evaluate(xs, 0.5)
            averaged = (branch.evaluate(xs, 0.0) + branch.evaluate(xs, 1.0)) / 2.0
            assert np.max(np.abs(mid - averaged)) <= 1e-10

    def test_case_22_shares_envelopes_with_case_11(self):
        s11 = solve_uncoupled(wave_problem(DiffCase.CASE_11))
        s22 = solve_uncoupled(wave_problem(DiffCase.CASE_22))
        assert s11.lower.terms == s22.lower.terms
        assert s11.upper.terms == s22.upper.terms
        # the constants swap owners: each branch equation carries the
        # opposite endpoint of the fuzzy derivative
        assert s22.constants["F1"] == s11.constants["F2"]
        assert s22.constants["F2"] == s11.constants["F1"]

    def test_negative_leading_coefficient(self):
        # -y'' + y = 0 is the same operator as y'' - y = 0
        prob = FuzzyBVP(a=-1.0, b=0.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        sol = solve_uncoupled(prob)
        reference = solve_uncoupled(wave_problem())
        xs = np.linspace(0, 1, 31)
        for r in (0.0, 0.5, 1.0):
            gap = np.abs(sol.lower.evaluate(xs, r) - reference.lower.evaluate(xs, r))
            assert np.max(gap) <= 1e-12

    def test_oscillatory_problem(self):
        # y'' + 4y = 0 on [0, 1]: pure-imaginary roots give cos/sin envelopes
        from fuzzybvp import TermKind, oracle_gap

        prob = FuzzyBVP(a=1.0, b=0.0, c=4.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        sol = solve_uncoupled(prob)
        kinds = {kind for kind, _, _ in sol.lower.terms}
        assert kinds == {TermKind.COS, TermKind.SIN}
        assert oracle_gap(sol, n=10_000) <= 1e-5

    def test_asymmetric_real_roots_stay_exponential(self):
        # y'' - y' - 2y = 0 has roots 2 and -1: not a +/- pair, no cosh/sinh
        from fuzzybvp import TermKind, oracle_gap

        prob = FuzzyBVP(a=1.0, b=-1.0, c=-2.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        sol = solve_uncoupled(prob)
        assert {(kind, k) for kind, k, _ in sol.lower.terms} == {
            (TermKind.EXP, -1.0), (TermKind.EXP, 2.0)
        }
        assert oracle_gap(sol, n=10_000) <= 1e-5

    def test_resonant_length_raises(self):
        # u'' + pi^2 u = 0 on [0, 1]: sin(pi x) vanishes at the far boundary
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=np.pi ** 2, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11
        )
        with pytest.raises(EigenvalueDegeneracyError):
            solve_uncoupled(prob)

    def test_repeated_characteristic_root_raises(self):
        prob = FuzzyBVP(a=1.0, b=-2.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(UnsupportedProblemError):
            solve_uncoupled(prob)

    def test_damped_oscillation_raises(self):
        prob = FuzzyBVP(a=1.0, b=1.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_11)
        with pytest.raises(UnsupportedProblemError):
            solve_uncoupled(prob)

    def test_rejects_mixed_case(self):
        with pytest.raises(CaseInapplicableError):
            solve_uncoupled(wave_problem(DiffCase.CASE_12))


class TestSolveCoupled:
    def test_shooting_constants_match_worked_formula(self):
        sol = solve_coupled(wave_problem(DiffCase.CASE_12))
        for r in (0.0, 0.5, 1.0):
            want_h1, want_h2 = paper_H(
                r, 1.0, 1.0, BC0.lower, BC0.upper, BCL.lower, BCL.upper
            )
            assert sol.constants["H1"](r) == pytest.approx(want_h1, rel=1e-12)
            assert sol.constants["H2"](r) == pytest.approx(want_h2, rel=1e-12)

    def test_boundary_reproduction(self):
        sol = solve_coupled(wave_problem(DiffCase.CASE_12))
        for r in np.linspace(0, 1, 11):
            assert abs(sol.lower.evaluate(0.0, r) - BC0.lower(r)) <= 1e-9
            assert abs(sol.upper.evaluate(0.0, r) - BC0.upper(r)) <= 1e-9
            assert abs(sol.lower.evaluate(1.0, r) - BCL.lower(r)) <= 1e-9
            assert abs(sol.upper.evaluate(1.0, r) - BCL.upper(r)) <= 1e-9

    def test_basis_values_at_origin(self):
        # cos+cosh is 2 at the origin and the other three basis functions
        # vanish, so lower(0, r) is exactly the lower boundary value
        sol = solve_coupled(wave_problem(DiffCase.CASE_12))
        for r in (0.0, 0.25, 1.0):
            assert sol.lower.evaluate(0.0, r) == pytest.approx(1 + r, abs=1e-12)

    def test_crisp_core_equality(self):
        sol = solve_coupled(wave_problem(DiffCase.CASE_12))
        xs = np.linspace(0, 1, 101)
        gap = np.abs(sol.lower.evaluate(xs, 1.0) - sol.upper.evaluate(xs, 1.0))
        assert np.max(gap) <= 1e-9

    def test_coupled_system_residual(self):
        sol = solve_coupled(wave_problem(DiffCase.CASE_12))
        xs = np.linspace(0, 1, 101)
        kappa = 1.0  # -c/a
        for r in np.linspace(0, 1, 11):
            lo = sol.lower.fix_r(r)
            up = sol.upper.fix_r(r)
            res1 = lo.differentiate().differentiate().evaluate(xs) - kappa * up.evaluate(xs)
            res2 = up.differentiate().differentiate().evaluate(xs) - kappa * lo.evaluate(xs)
            scale = 1 + max(np.max(np.abs(lo.evaluate(xs))), np.max(np.abs(up.evaluate(xs))))
            assert np.max(np.abs(res1)) <= 1e-8 * scale
            assert np.max(np.abs(res2)) <= 1e-8 * scale

    def test_case_21_shares_envelopes_with_case_12(self):
        s12 = solve_coupled(wave_problem(DiffCase.CASE_12))
        s21 = solve_coupled(wave_problem(DiffCase.CASE_21))
        assert s12.lower.terms == s21.lower.terms
        assert s12.upper.terms == s21.upper.terms

    def test_potential_step_shifts_coefficient(self):
        # with a step of height 0.75 the mixed case solves
        # u'' = (energy - height) u, here frequency sqrt(0.25) = 0.5
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-1.0, L=1.0, bc0=BC0, bcL=BCL,
            case=DiffCase.CASE_12, v_height=0.75,
        )
        sol = solve_coupled(prob)
        rates = {k for _, k, _ in sol.lower.terms}
        assert rates == {0.5}

    def test_resonant_length_raises(self):
        # sin(w L) = 0 at w = pi, L = 1
        prob = FuzzyBVP(
            a=1.0, b=0.0, c=-np.pi ** 2, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_12
        )
        with pytest.raises(EigenvalueDegeneracyError):
            solve_coupled(prob)

    def test_wrong_sign_redirects_to_uncoupled(self):
        prob = FuzzyBVP(a=1.0, b=0.0, c=1.0, L=1.0, bc0=BC0, bcL=BCL, case=DiffCase.CASE_12)
        with pytest.raises(CaseInapplicableError):
            solve_coupled(prob)

    def test_first_derivative_term_rejected(self):
        with pytest.raises(CaseInapplicableError):
            solve_coupled(homogeneous_problem(DiffCase.CASE_12))

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
        sol = solve_coupled(prob)
        c_eff = c + v_height
        xs = np.linspace(0, L, 101)
        for r in np.linspace(0, 1, 5):
            lo = sol.lower.fix_r(r)
            up = sol.upper.fix_r(r)
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
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_overflowing_domain_refused(self, case):
        # cosh(800) overflows double precision: no NaN solution comes back
        prob = FuzzyBVP(a=1.0, b=0.0, c=-1.0, L=800.0, bc0=BC0, bcL=BCL, case=case)
        with pytest.raises(UnsupportedProblemError, match=r"k\*L = 800"):
            solve(prob)

    @pytest.mark.filterwarnings("error")
    def test_enumerate_records_overflow(self):
        prob = FuzzyBVP(a=1.0, b=0.0, c=-1.0, L=800.0, bc0=BC0, bcL=BCL)
        results = enumerate_cases(prob)
        assert not any(r.solved for r in results)
        assert all(r.error.startswith("UnsupportedProblemError") for r in results)


def _per_point(branch: RClosedForm, xs, rs, derivative: int) -> np.ndarray:
    """Reference values: one ``fix_r`` closed form per level, one scalar x at a time."""
    out = np.empty((len(xs), len(rs)))
    for j, r in enumerate(rs):
        form = branch.fix_r(float(r))
        for _ in range(derivative):
            form = form.differentiate()
        for i, x in enumerate(xs):
            out[i, j] = float(form.evaluate(float(x)))
    return out


def _assert_grid_matches_per_point(branch: RClosedForm, xs, rs) -> None:
    for derivative in (0, 1, 2):
        grid = branch.evaluate_grid(xs, rs, derivative)
        assert grid.shape == (len(xs), len(rs))
        assert grid.tobytes() == _per_point(branch, xs, rs, derivative).tobytes()


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
        assert not np.signbit(dead_level.evaluate_grid(xs, rs)[:, 2]).any()
        # -1*sin(0) = -0.0 is the whole value at x = 0 and keeps its sign
        sine = RClosedForm(((TermKind.SIN, 1.0, RFun(-1.0)),))
        _assert_grid_matches_per_point(sine, xs, rs)
        assert np.signbit(sine.evaluate_grid(xs, rs)[0]).all()

    def test_identically_zero_branch(self):
        branch = RClosedForm(((TermKind.COSH, 1.0, RFun(0.0, 0.0)),))
        assert branch.terms == ()
        xs = np.linspace(0.0, 1.0, 4)
        rs = np.linspace(0.0, 1.0, 3)
        for derivative in (0, 1, 2):
            grid = branch.evaluate_grid(xs, rs, derivative)
            assert grid.tobytes() == np.zeros((4, 3)).tobytes()
        assert branch.evaluate(0.5, 0.5) == 0.0
        assert branch.evaluate(xs, 0.5).tobytes() == np.zeros(4).tobytes()

    def test_evaluate_shapes(self):
        sol = solve(wave_problem())
        assert np.ndim(sol.lower.evaluate(0.3, 0.5)) == 0
        xs = np.linspace(0.0, 1.0, 11)
        values = sol.lower.evaluate(xs, 0.5)
        assert values.shape == (11,)
        assert values.tobytes() == sol.lower.evaluate_grid(xs, [0.5])[:, 0].tobytes()
