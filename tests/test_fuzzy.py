"""Fuzzy number arithmetic, the Hukuhara difference, and the sup metric."""

import numpy as np
import pytest
from hypothesis import given
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
