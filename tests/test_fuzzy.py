"""Fuzzy number arithmetic, the Hukuhara difference, and the sup metric."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_fuzzy
from fuzzybvp import (
    FuzzyNumber,
    InvalidFuzzyNumberError,
    RFun,
    add,
    h_difference,
    hausdorff,
    scale,
    triangular,
)

cores = st.floats(min_value=-50, max_value=50, allow_nan=False)
slopes = st.floats(min_value=0, max_value=20, allow_nan=False)
spreads = st.floats(min_value=0, max_value=30, allow_nan=False)


@st.composite
def fuzzy_numbers(draw):
    core = draw(cores)
    spread = draw(spreads)
    lo_slope = draw(slopes)
    up_slope = draw(slopes)
    return FuzzyNumber(
        RFun(core - lo_slope, lo_slope),
        RFun(core + spread + up_slope, -up_slope),
    )


def assert_fn_equal(u: FuzzyNumber, v: FuzzyNumber, tol: float = 0.0):
    assert abs(u.lower.c0 - v.lower.c0) <= tol
    assert abs(u.lower.c1 - v.lower.c1) <= tol
    assert abs(u.upper.c0 - v.upper.c0) <= tol
    assert abs(u.upper.c1 - v.upper.c1) <= tol


class TestConstruction:
    @pytest.mark.parametrize(
        "lower, upper",
        [
            (RFun(float("nan")), RFun(1.0)),
            (RFun(0.0, float("inf")), RFun(1.0)),
            (RFun(0.0), RFun(float("-inf"))),
            (RFun(0.0), RFun(1.0, float("nan"))),
        ],
    )
    def test_rejects_non_finite_coefficients(self, lower, upper):
        with pytest.raises(InvalidFuzzyNumberError, match="finite"):
            FuzzyNumber(lower, upper)

    @pytest.mark.parametrize("lower, upper", [
        (RFun(1e308, 1e308), RFun(1.0, 0.0)),
        (RFun(-1e308, -1e308), RFun(-1e308, 0.0)),
        (RFun(0.0, 0.0), RFun(1e308, 1e308)),
    ], ids=["crossing", "falling-lower", "rising-upper"])
    def test_rejects_overflowing_endpoint(self, lower, upper):
        # c0 + c1 is infinite at r = 1, so a slack relative to it would be too
        with pytest.raises(InvalidFuzzyNumberError, match=r"^branch endpoints at r=1 must be finite"):
            FuzzyNumber(lower, upper)

    def test_rejects_increasing_upper_branch(self):
        with pytest.raises(InvalidFuzzyNumberError, match=r"^upper branch increases in r \(slope 0.5\)$"):
            FuzzyNumber(RFun(0.0), RFun(1.0, 0.5))

    @pytest.mark.parametrize("lower, upper, message", [
        (RFun(2e-20), RFun(1e-20), "branches cross"),
        (RFun(1e-20, -9e-21), RFun(2e-20), "lower branch decreases"),
        (RFun(1e-20), RFun(2e-20, 9e-21), "upper branch increases"),
    ], ids=["crossing", "falling-lower", "rising-upper"])
    def test_small_numbers_refused_as_their_scaled_copies(self, lower, upper, message):
        # every slack is relative to the largest |endpoint|, so a number of
        # size 1e-20 fails as the same number of size 1 does
        for factor in (1.0, 1e20):
            with pytest.raises(InvalidFuzzyNumberError, match=message):
                FuzzyNumber(lower.scaled(factor), upper.scaled(factor))

    def test_rounding_sized_slope_on_large_values_accepted(self):
        FuzzyNumber(RFun(1e6, -1e-7), RFun(2e6))

    def test_sum_rounds_at_the_size_of_its_operands(self):
        # each operand crosses by 2e-20 at r = 1, within the slack of its size
        # 1; so does the sum, of size 2e-20, which is no crossing at size 1
        u = FuzzyNumber(RFun(1.0, 1e-20), RFun(1.0, -1e-20))
        v = FuzzyNumber(RFun(-1.0, 1e-20), RFun(-1.0, -1e-20))
        assert add(u, v).lower(1.0) == 2e-20

    def test_subnormal_rounding_is_not_a_crossing(self):
        # (1, 2.5 - 1.5r) scaled by 5e-324: upper(1) rounds to 0 below
        # lower(1) = 5e-324, where rounding is absolute
        v = FuzzyNumber(RFun(1.0), RFun(2.5, -1.5))
        assert scale(5e-324, v).upper(1.0) == 0.0


# Branch coefficients of either sign in [1e-3, 1e3], or a slope a few
# ENDPOINT_TOL of the number's size, where the verdict turns.
_magnitudes = st.floats(-3.0, 3.0).map(lambda u: 10.0**u)
_signed = st.builds(lambda m, s: s * m, _magnitudes, st.sampled_from((-1.0, 1.0)))
_near_edge = st.builds(lambda m, f: f * 1e-12 * m, _magnitudes, st.floats(-4.0, 4.0))


@given(
    coefficients=st.tuples(_signed, _signed | _near_edge, _signed, _signed | _near_edge),
    e=st.integers(-900, 900),
)
@example(coefficients=(1.0, -2e-12, 1.0, 0.0), e=-900)
@example(coefficients=(2.0, 0.0, 1.0, 0.0), e=-900)
def test_acceptance_is_invariant_under_power_of_two_scaling(coefficients, e):
    def accepted(values):
        try:
            FuzzyNumber(RFun(*values[:2]), RFun(*values[2:]))
        except InvalidFuzzyNumberError:
            return False
        return True

    assert accepted(coefficients) == accepted([math.ldexp(v, e) for v in coefficients])


class TestTriangular:
    def test_symmetric_unit(self):
        u = triangular(1, 2, 3)
        assert u.lower == RFun(1, 1)
        assert u.upper == RFun(3, -1)

    def test_peak_at_full_membership(self):
        u = triangular(1, 4, 6)
        assert u.lower(1.0) == 4
        assert u.upper(1.0) == 4

    def test_degenerate_point(self):
        u = triangular(0, 0, 0)
        for r in (0.0, 0.5, 1.0):
            assert u.lower(r) == 0
            assert u.upper(r) == 0

    def test_support_at_zero_membership(self):
        u = triangular(-2, 0.5, 7)
        assert (u.lower(0.0), u.upper(0.0)) == (-2, 7)
        assert (u.lower(1.0), u.upper(1.0)) == (0.5, 0.5)

    @pytest.mark.parametrize("bad", [(2, 1, 3), (1, 3, 2), (5, 4, 3)])
    def test_rejects_misordered(self, bad):
        with pytest.raises(InvalidFuzzyNumberError):
            triangular(*bad)

    @pytest.mark.parametrize(
        "triple",
        [
            (-22166.458984473047, -6914.856193996277, 93176.0926982428),
            (-620.2126551409956, 2.8965234280172427, 21918995753.557854),
        ],
    )
    def test_peak_rounding_is_not_a_crossing(self, triple):
        # lower(1) and upper(1) round at the size of the support, not of the
        # peak: several ulps of |center| apart here
        u = triangular(*triple)
        assert (u.lower(0.0), u.upper(0.0)) == (triple[0], triple[2])

    @given(st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3).map(sorted))
    def test_every_ordered_triple_is_accepted(self, triple):
        triangular(*triple)

    def test_crossing_beyond_the_relative_slack_rejected(self):
        with pytest.raises(InvalidFuzzyNumberError, match="branches cross"):
            FuzzyNumber(RFun(1e6 + 1e-5), RFun(1e6))


class TestArithmetic:
    def test_add_boundary_values(self):
        # the two boundary values (1+r, 3-r) and (4+r, 6-r)
        u = FuzzyNumber(RFun(1, 1), RFun(3, -1))
        v = FuzzyNumber(RFun(4, 1), RFun(6, -1))
        assert_fn_equal(add(u, v), FuzzyNumber(RFun(5, 2), RFun(9, -2)))

    def test_add_identity(self):
        u = triangular(1, 2, 5)
        assert_fn_equal(add(u, FuzzyNumber.crisp(0.0)), u)

    def test_add_doubling(self):
        u = FuzzyNumber(RFun(1, 1), RFun(3, -1))
        assert_fn_equal(add(u, u), FuzzyNumber(RFun(2, 2), RFun(6, -2)))

    def test_scale_positive(self):
        u = FuzzyNumber(RFun(1, 1), RFun(3, -1))
        assert_fn_equal(scale(2, u), FuzzyNumber(RFun(2, 2), RFun(6, -2)))

    def test_scale_negative_swaps(self):
        u = FuzzyNumber(RFun(1, 1), RFun(3, -1))
        assert_fn_equal(scale(-1, u), FuzzyNumber(RFun(-3, 1), RFun(-1, -1)))

    def test_scale_zero(self):
        u = triangular(-1, 0, 4)
        assert_fn_equal(scale(0, u), FuzzyNumber.crisp(0.0))

    def test_operator_sugar(self):
        u = triangular(0, 1, 2)
        assert_fn_equal(u + u, scale(2, u))
        assert_fn_equal(2 * u, scale(2, u))


class TestHDifference:
    def test_inverse_of_add(self):
        x = FuzzyNumber(RFun(5, 2), RFun(9, -2))
        y = FuzzyNumber(RFun(4, 1), RFun(6, -1))
        z = h_difference(x, y)
        assert z is not None
        assert_fn_equal(z, FuzzyNumber(RFun(1, 1), RFun(3, -1)))

    def test_nonexistence(self):
        # candidate z = (-4-r, -6+r): direct evaluation shows the lower
        # branch decreases (r=0 -> -4, r=1 -> -5), so no valid z exists
        x = FuzzyNumber(RFun(1, 1), RFun(3, -1))
        y = FuzzyNumber(RFun(5, 2), RFun(9, -2))
        cand_lower = (x.lower(0) - y.lower(0), x.lower(1) - y.lower(1))
        assert cand_lower[1] < cand_lower[0]
        assert h_difference(x, y) is None

    def test_difference_rounds_at_the_size_of_its_operands(self):
        # 4.00001 - 4 and -3.00001 + 3 round at the size 4 of the operands;
        # at the size 1e-5 of the result their sum would read as a crossing
        y = FuzzyNumber(RFun(0.0), RFun(4.0, -3.0))
        z = FuzzyNumber(RFun(0.0), RFun(1e-5, -1e-5))
        recovered = h_difference(add(y, z), y)
        assert recovered is not None
        assert_fn_equal(recovered, z, tol=1e-15)

    def test_self_difference_is_crisp_zero(self):
        u = triangular(2, 3, 5)
        z = h_difference(u, u)
        assert z is not None
        assert_fn_equal(z, FuzzyNumber.crisp(0.0))


class TestHausdorff:
    def test_identical(self):
        u = triangular(1, 2, 3)
        assert hausdorff(u, u) == 0.0

    def test_shifted_pair(self):
        # |lower gap| and |upper gap| both equal 3 at r = 0 and r = 1
        u = FuzzyNumber(RFun(1, 1), RFun(3, -1))
        v = FuzzyNumber(RFun(4, 1), RFun(6, -1))
        gaps = [abs(u.lower(r) - v.lower(r)) for r in (0.0, 1.0)]
        gaps += [abs(u.upper(r) - v.upper(r)) for r in (0.0, 1.0)]
        assert max(gaps) == 3.0
        assert hausdorff(u, v) == 3.0

    def test_translation_invariance_example(self):
        u, v = triangular(0, 1, 2), triangular(1, 3, 4)
        w = triangular(-5, -2, 8)
        assert hausdorff(add(u, w), add(v, w)) == pytest.approx(hausdorff(u, v), abs=1e-12)


@given(fuzzy_numbers(), fuzzy_numbers())
def test_add_closure(u, v):
    add(u, v)  # constructor re-checks the invariants


@given(fuzzy_numbers(), st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_scale_closure(u, j):
    scale(j, u)


@given(fuzzy_numbers(), fuzzy_numbers())
def test_h_difference_round_trip(y, z):
    recovered = h_difference(add(y, z), y)
    assert recovered is not None
    tol = 1e-10 * (1 + max(abs(z.lower.c0), abs(z.upper.c0), abs(z.lower.c1), abs(z.upper.c1)))
    assert_fn_equal(recovered, z, tol=tol)


@given(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers())
def test_metric_translation_invariance(u, v, w):
    tol = 1e-12 * (1 + hausdorff(u, v))
    assert abs(hausdorff(add(u, w), add(v, w)) - hausdorff(u, v)) <= tol


@given(fuzzy_numbers(), fuzzy_numbers(), st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_metric_scaling(u, v, k):
    lhs = hausdorff(scale(k, u), scale(k, v))
    rhs = abs(k) * hausdorff(u, v)
    assert abs(lhs - rhs) <= 1e-12 * (1 + rhs)


@given(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers())
def test_metric_subadditivity(u, v, w, e):
    lhs = hausdorff(add(u, v), add(w, e))
    rhs = hausdorff(u, w) + hausdorff(v, e)
    assert lhs <= rhs + 1e-12 * (1 + rhs)


def test_random_generator_produces_valid_numbers():
    rng = np.random.default_rng(7)
    for _ in range(100):
        random_fuzzy(rng)  # would raise on an invariant violation
