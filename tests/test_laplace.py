"""Rational-function algebra, partial fractions, and the transform table."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    closed_forms_close,
    random_supported_rational,
    rational_close,
    same_function,
)
from fuzzybvp import (
    ClosedForm,
    Polynomial,
    RClosedForm,
    RationalFunction,
    RFun,
    TermKind,
    UnsupportedProblemError,
    forward_laplace,
    inverse_laplace,
    partial_fractions,
    roots,
)


def term(kind, k, coeff):
    return (kind, k, coeff)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        assert Polynomial((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0, 2.0)
        assert Polynomial((0.0, 0.0)).is_zero
        assert Polynomial(()).coeffs == (0.0,)

    def test_degree_and_evaluate(self):
        p = Polynomial((2.0, -3.0, 1.0))
        assert p.degree == 2
        assert p.evaluate(2.0) == 0.0
        assert p.evaluate(1j) == (2.0 - 3.0 * 1j + (1j) ** 2)

    def test_arithmetic(self):
        p = Polynomial((1.0, 1.0))
        q = Polynomial((-1.0, 1.0))
        assert (p * q).coeffs == (-1.0, 0.0, 1.0)
        assert (p + q).coeffs == (0.0, 2.0)
        assert p.derivative().coeffs == (1.0,)
        assert Polynomial((3.0,)).derivative().coeffs == (0.0,)

    def test_rational_rejects_improper(self):
        with pytest.raises(ValueError):
            RationalFunction(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0, 1.0)))
        with pytest.raises(ValueError):
            RationalFunction(Polynomial((1.0,)), Polynomial((0.0,)))


class TestRoots:
    def test_quadratic_distinct_reals(self):
        got = [z for z in roots(Polynomial((2.0, -3.0, 1.0)))]
        assert got == [1.0, 2.0]

    def test_difference_of_squares(self):
        k = 1.7
        got = [z for z in roots(Polynomial((-k * k, 0.0, 1.0)))]
        assert got == pytest.approx([-k, k])

    def test_biquadratic(self):
        # oracle: (p^2 - k^2)(p^2 + k^2) expands to p^4 - k^4
        k = 1.3
        expanded = Polynomial((-k * k, 0.0, 1.0)) * Polynomial((k * k, 0.0, 1.0))
        quartic = Polynomial((-k ** 4, 0.0, 0.0, 0.0, 1.0))
        assert expanded.coeffs == pytest.approx(quartic.coeffs)

        got = sorted(
            (z for z in roots(quartic)), key=lambda z: (z.real, z.imag)
        )
        want = sorted([k, -k, 1j * k, -1j * k], key=lambda z: (z.real, z.imag))
        assert got == pytest.approx(want)
        # independent cross-check with numpy's companion-matrix roots
        np_roots = sorted(np.roots([1, 0, 0, 0, -k ** 4]), key=lambda z: (z.real, z.imag))
        assert got == pytest.approx(np_roots, abs=1e-9)

    @pytest.mark.parametrize("squares", [
        (2.0, -2.0), (0.25, -0.25), (9.0, -9.0), (-2.0, -3.0), (-0.5, -7.0),
    ], ids=["k2=2", "k2=0.25", "k2=9", "2,3", "0.5,7"])
    def test_biquadratic_roots_are_exact_square_roots(self, squares):
        # (p^2 - k^2)(p^2 + k^2) and (p^2 + k^2)(p^2 + m^2), with squares the
        # quadratic formula returns exactly: each root pair is +-math.sqrt
        q1, q2 = squares
        quartic = Polynomial((-q1, 0.0, 1.0)) * Polynomial((-q2, 0.0, 1.0))
        want = []
        for q in squares:
            s = complex(math.sqrt(q), 0.0) if q > 0 else complex(0.0, math.sqrt(-q))
            want += [s, -s]
        want.sort(key=lambda z: (z.real, z.imag))
        got = roots(quartic)
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]

    def test_biquadratic_with_complex_squares(self):
        # p^4 + 1: p^2 = +-i, so each square root takes the complex branch
        got = roots(Polynomial((1.0, 0.0, 0.0, 0.0, 1.0)))
        h = math.sqrt(0.5)
        want = [complex(-h, -h), complex(-h, h), complex(h, -h), complex(h, h)]
        assert got == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize(
        "coeffs, message",
        [((0.0,), "zero polynomial has no well-defined roots"), ((2.5,), "constant polynomial has no roots")],
        ids=["zero", "constant"],
    )
    def test_polynomial_without_roots_raises(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            roots(Polynomial(coeffs))

    def test_cubic_with_zero_root(self):
        k = 2.0
        got = [z for z in roots(Polynomial((0.0, k * k, 0.0, 1.0)))]
        assert sorted(got, key=lambda z: z.imag) == pytest.approx([-2j, 0.0, 2j])

    def test_repeated_root_rejected(self):
        with pytest.raises(UnsupportedProblemError):
            roots(Polynomial((1.0, -2.0, 1.0)))  # (p-1)^2

    def test_general_quartic_rejected(self):
        with pytest.raises(UnsupportedProblemError):
            roots(Polynomial((1.0, 1.0, 1.0, 1.0, 1.0)))

    def test_cubic_without_zero_root_rejected(self):
        with pytest.raises(UnsupportedProblemError):
            roots(Polynomial((1.0, 0.0, 0.0, 1.0)))

    @pytest.mark.parametrize("coeffs", [(-3e14, 1e13, 1.0), (-1.0, 0.0, 1e-320)], ids=["dominated", "subnormal"])
    def test_negligible_leading_coefficient_rejected(self, coeffs):
        # chopping the leading coefficient would drop the degree, and a root with it
        with pytest.raises(UnsupportedProblemError, match="negligible"):
            roots(Polynomial(coeffs))

    @pytest.mark.parametrize(
        "coeffs",
        [
            (-5.033210501176903e169, 1.697451456474211e168, 1.8598821737886637e166),
            (-1e200, 0.0, 1e200),
            (-1e308, 0.0, 1e308),
        ],
        ids=["overflowing-discriminant", "scaled-wave", "nan-roots"],
    )
    def test_non_finite_root_is_refused_as_overflow(self, coeffs):
        # b*b - 4*a*c overflows, so the roots come out infinite or NaN; that
        # is the coefficients' range, not a repeated root
        with pytest.raises(UnsupportedProblemError) as info:
            roots(Polynomial(coeffs))
        assert str(info.value) == (
            f"non-finite root or residue for denominator {coeffs}: "
            "the coefficients are too large for double precision"
        )

    def test_small_root_without_cancellation(self):
        # p^2 + 1e8 p + 1: -c1 + sqrt(disc) cancels to -7.45e-9 for the small root
        with mpmath.workdps(60):
            root = mpmath.sqrt(mpmath.mpf(1e8) ** 2 - 4)  # 60 digits absorb the cancellation
            want = [float((-mpmath.mpf(1e8) - root) / 2), float((-mpmath.mpf(1e8) + root) / 2)]
        got = [z.real for z in roots(Polynomial((1.0, 1e8, 1.0)))]
        assert all(abs(g - w) <= 1e-15 * abs(w) for g, w in zip(got, want))

    @pytest.mark.parametrize("coeffs", [(-3.0, -1.0, 2.0), (2.0, 0.0, 1.0), (-4.0, 0.0, 0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("power", [-3, -600, -1000])
    def test_small_coefficients_keep_their_roots(self, coeffs, power):
        # at 2**-600 and below, c1*c1 - 4*c2*c0 is below the smallest double;
        # a power-of-two scale is exact, so the roots keep every bit
        scaled = Polynomial(tuple(math.ldexp(c, power) for c in coeffs))
        assert roots(scaled) == roots(Polynomial(coeffs))

    def test_tiny_constant_coefficient_keeps_its_root(self):
        # p^2 + p + 1e-13: the small root -1e-13 is set by the constant
        # coefficient, so that coefficient is not dropped as negligible
        with mpmath.workdps(60):
            root = mpmath.sqrt(1 - 4 * mpmath.mpf(1e-13))
            want = [float((-1 - root) / 2), float((-1 + root) / 2)]
        got = [z.real for z in roots(Polynomial((1e-13, 1.0, 1.0)))]
        assert all(abs(g - w) <= 1e-15 * abs(w) for g, w in zip(got, want))


class TestPartialFractions:
    def test_even_over_difference_of_squares(self):
        k = 1.4
        f = RationalFunction(Polynomial((0.0, 1.0)), Polynomial((-k * k, 0.0, 1.0)))
        got = {round(root.real, 9): res for res, root in partial_fractions(f)}
        assert got[round(k, 9)] == pytest.approx(0.5)
        assert got[round(-k, 9)] == pytest.approx(0.5)

    def test_odd_over_difference_of_squares(self):
        k = 1.4
        f = RationalFunction(Polynomial((1.0,)), Polynomial((-k * k, 0.0, 1.0)))
        got = {round(root.real, 9): res for res, root in partial_fractions(f)}
        assert got[round(k, 9)] == pytest.approx(1 / (2 * k))
        assert got[round(-k, 9)] == pytest.approx(-1 / (2 * k))

    def test_two_simple_poles(self):
        # oracle: clear denominators in (p-3) = A(p-2) + B(p-1) and solve
        # the 2x2 system for the residues
        A, B = np.linalg.solve([[1.0, 1.0], [-2.0, -1.0]], [1.0, -3.0])
        assert (A, B) == pytest.approx((2.0, -1.0))

        f = RationalFunction(Polynomial((-3.0, 1.0)), Polynomial((2.0, -3.0, 1.0)))
        got = {round(root.real, 9): res for res, root in partial_fractions(f)}
        assert got[1.0] == pytest.approx(A)
        assert got[2.0] == pytest.approx(B)

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = random_supported_rational(rng)
            pairs = partial_fractions(f)
            for p in (0.37 + 0.21j, -1.91 + 0.43j, 2.63 - 1.17j):
                direct = f.numerator.evaluate(p) / f.denominator.evaluate(p)
                recombined = sum(res / (p - root) for res, root in pairs)
                assert abs(direct - recombined) <= 1e-9 * (1 + abs(direct))

    def test_repeated_pole_rejected(self):
        f = RationalFunction(Polynomial((1.0,)), Polynomial((1.0, -2.0, 1.0)))
        with pytest.raises(UnsupportedProblemError):
            partial_fractions(f)

    @staticmethod
    def _assert_real_roots_have_real_residues(f):
        for res, root in partial_fractions(f):
            if root.imag == 0.0:
                # a real root is a float or complex(x, +-0.0): Horner steps
                # and complex division keep the zero imaginary part exact
                assert res.imag == 0.0

    @given(seed=st.integers(0, 2**32 - 1))
    def test_real_root_residue_is_real(self, seed):
        self._assert_real_roots_have_real_residues(random_supported_rational(np.random.default_rng(seed)))

    @given(
        a=st.floats(-1e300, 1e300).filter(lambda v: v != 0.0),
        b=st.floats(-1e300, 1e300) | st.just(0.0),
        c=st.floats(-1e300, 1e300),
    )
    def test_solver_denominator_residue_is_real(self, a, b, c):
        # psi = l^-1[a / (a p^2 + b p + c)], as the two-point kernel inverts it
        try:
            self._assert_real_roots_have_real_residues(
                RationalFunction(Polynomial((a,)), Polynomial((c, b, a)))
            )
        except UnsupportedProblemError:
            pass  # repeated, damped or negligible-leading roots are refused


class TestInverseLaplace:
    def test_non_finite_residue_refused(self):
        # the roots +-2 are finite; the residue (1e308 + 2e308)/4 is not
        f = RationalFunction(Polynomial((1e308, 1e308)), Polynomial((-4.0, 0.0, 1.0)))
        with pytest.raises(UnsupportedProblemError, match="^non-finite root or residue"):
            inverse_laplace(f)

    def test_cosh_entry(self):
        k = 1.2
        f = RationalFunction(Polynomial((0.0, 1.0)), Polynomial((-k * k, 0.0, 1.0)))
        g = inverse_laplace(f)
        assert g.terms == (term(TermKind.COSH, k, 1.0),)

    def test_sin_entry(self):
        k = 2.5
        f = RationalFunction(Polynomial((1.0,)), Polynomial((k * k, 0.0, 1.0)))
        g = inverse_laplace(f)
        assert len(g.terms) == 1
        kind, rate, coeff = g.terms[0]
        assert kind is TermKind.SIN and rate == pytest.approx(k)
        assert coeff == pytest.approx(1 / k)

    def test_two_exponentials(self):
        f = RationalFunction(Polynomial((-3.0, 1.0)), Polynomial((2.0, -3.0, 1.0)))
        g = {(kind, k): coeff for kind, k, coeff in inverse_laplace(f).terms}
        assert g.get((TermKind.EXP, 1.0), 0.0) == pytest.approx(2.0)
        assert g.get((TermKind.EXP, 2.0), 0.0) == pytest.approx(-1.0)

    def test_constant_from_origin_pole(self):
        f = RationalFunction(Polynomial((1.0,)), Polynomial((0.0, 1.0)))
        assert inverse_laplace(f).terms == (term(TermKind.EXP, 0.0, 1.0),)

    def test_damped_oscillation_rejected(self):
        f = RationalFunction(Polynomial((1.0,)), Polynomial((1.0, 1.0, 1.0)))
        with pytest.raises(UnsupportedProblemError):
            inverse_laplace(f)

    def test_barely_damped_oscillation_rejected(self):
        # roots -7.5e-13 +/- i: the damping is small but not zero, so no cos/sin
        # pair (roots keeps a middle coefficient however small it is)
        f = RationalFunction(Polynomial((1.0,)), Polynomial((1.0, 1.5e-12, 1.0)))
        with pytest.raises(UnsupportedProblemError, match="neither real nor pure imaginary"):
            inverse_laplace(f)

    @pytest.mark.parametrize("k, b, L", [(1.0, 1e-10, 5.0), (100.0, 5e-8, 0.3), (100.0, 9e-8, 0.35)])
    def test_nearly_symmetric_real_roots_stay_exponentials(self, k, b, L):
        # psi = 1/(p^2 + b p - k^2) has roots r1, r2 = -b/2 +/- sqrt(b^2/4 + k^2); a
        # cosh/sinh pair at one root's rate would drop the factor e^{-bx/2}
        psi = inverse_laplace(RationalFunction(Polynomial((1.0,)), Polynomial((-k * k, b, 1.0))))
        with mpmath.workdps(50):
            disc = mpmath.sqrt(mpmath.mpf(b) ** 2 + 4 * mpmath.mpf(k) ** 2)
            r1, r2 = (-b + disc) / 2, (-b - disc) / 2
            want = (mpmath.exp(r1 * L) - mpmath.exp(r2 * L)) / (r1 - r2)
            assert abs((psi.evaluate(L) - want) / want) <= 1e-13

    def test_tiny_damping_keeps_two_exponentials(self):
        # 1/(p^2 + 1e-13 p - 1): roots -5e-14 +/- (1 + 1.25e-27), not an exact
        # +/- pair, so no cosh/sinh at one root's rate
        psi = inverse_laplace(RationalFunction(Polynomial((1.0,)), Polynomial((-1.0, 1e-13, 1.0))))
        assert [kind for kind, _, _ in psi.terms] == [TermKind.EXP, TermKind.EXP]
        with mpmath.workdps(50):
            b = mpmath.mpf(1e-13)
            disc = mpmath.sqrt(b**2 + 4)
            r1, r2 = (-b + disc) / 2, (-b - disc) / 2
            for x in (0.5, 5.0, 30.0):
                want = (mpmath.exp(r1 * x) - mpmath.exp(r2 * x)) / (r1 - r2)
                assert abs((psi.evaluate(x) - want) / want) <= 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 20:
            f = random_supported_rational(rng)
            g = random_supported_rational(rng)
            alpha, beta = rng.uniform(-2, 2, size=2)
            f_scaled, g_scaled = (
                RationalFunction(Polynomial(tuple(j * c for c in h.numerator.coeffs)), h.denominator)
                for h, j in ((f, alpha), (g, beta))
            )
            try:
                combined = inverse_laplace(f_scaled + g_scaled)
            except UnsupportedProblemError:
                continue  # f and g drew overlapping poles
            separate = ClosedForm(tuple(
                (kind, k, j * coeff)
                for h, j in ((f, alpha), (g, beta))
                for kind, k, coeff in inverse_laplace(h).terms
            ))
            # a +/- pole pair split across f and g collapses to cosh/sinh in
            # the combined inverse, so compare as functions, not term lists
            assert same_function(combined, separate, tol=1e-9)
            checked += 1


class TestForwardLaplace:
    def test_cosh_entry(self):
        k = 1.2
        f = forward_laplace(ClosedForm((term(TermKind.COSH, k, 1.0),)))
        want = RationalFunction(Polynomial((0.0, 1.0)), Polynomial((-k * k, 0.0, 1.0)))
        assert rational_close(f, want)

    def test_constant(self):
        f = forward_laplace(ClosedForm((term(TermKind.EXP, 0.0, 1.0),)))
        assert rational_close(f, RationalFunction(Polynomial((1.0,)), Polynomial((0.0, 1.0))))

    @pytest.mark.parametrize("terms, num, den", [
        (((TermKind.EXP, 0.7, 3.0),), (3.0,), (-0.7, 1.0)),
        (((TermKind.COS, 0.7, 3.0),), (0.0, 3.0), (0.7 * 0.7, 0.0, 1.0)),
        (((TermKind.SIN, 0.7, 3.0),), (0.7 * 3.0,), (0.7 * 0.7, 0.0, 1.0)),
        (((TermKind.COSH, 0.7, 3.0),), (0.0, 3.0), (-0.7 * 0.7, 0.0, 1.0)),
        (((TermKind.SINH, 0.7, 3.0),), (0.7 * 3.0,), (-0.7 * 0.7, 0.0, 1.0)),
        # residues 1.5 at +k and 0.5 at -k
        (((TermKind.EXP, 0.7, 1.0), (TermKind.COSH, 0.7, 1.0)), (0.7, 2.0), (-0.7 * 0.7, 0.0, 1.0)),
    ], ids=["exp", "cos", "sin", "cosh", "sinh", "exp+cosh"])
    def test_table_entries(self, terms, num, den):
        # exact bits, signs of zero included: a reordered or rescaled
        # residue or pole changes at least one of them
        got = forward_laplace(ClosedForm(terms))
        assert [c.hex() for c in got.numerator.coeffs] == [c.hex() for c in num]
        assert [c.hex() for c in got.denominator.coeffs] == [c.hex() for c in den]

    def test_exp_cosh_overlap_stays_squarefree(self):
        # e^{kx} + cosh(kx) shares the pole at k; the merged residues must
        # leave a denominator with distinct roots
        k = 1.1
        g = ClosedForm((term(TermKind.EXP, k, 1.0), term(TermKind.COSH, k, 1.0)))
        f = forward_laplace(g)
        assert f.denominator.degree == 2
        # the canonical inverse splits e^{kx} into its cosh/sinh halves
        back = inverse_laplace(f)
        assert closed_forms_close(
            back,
            ClosedForm((term(TermKind.COSH, k, 2.0), term(TermKind.SINH, k, 1.0))),
            tol=1e-12,
        )
        assert same_function(back, g, tol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_supported_rational(rng)
            assert rational_close(forward_laplace(inverse_laplace(f)), f, tol=1e-12)


_coeff = st.floats(-2.0, 2.0)
_nonzero_coeff = st.tuples(st.floats(0.1, 2.0), st.sampled_from((1.0, -1.0))).map(
    lambda t: t[0] * t[1]
)


@st.composite
def _closed_form_group(draw, group: str, k: float) -> list:
    """The terms of one pole group: +-k, +-ik or the origin. The residues at
    +k and -k never cancel, so a +-k group keeps both poles."""
    if group == "pm" and draw(st.booleans()):
        return [(TermKind.EXP, k, draw(_nonzero_coeff)), (TermKind.EXP, -k, draw(_nonzero_coeff))]
    if group == "pm":
        c = draw(_nonzero_coeff)
        return [(TermKind.COSH, k, c), (TermKind.SINH, k, c * draw(st.floats(-0.9, 0.9)))]
    if group == "imag":
        return [(TermKind.COS, k, draw(_coeff)), (TermKind.SIN, k, draw(_coeff))]
    return [(TermKind.EXP, 0.0, draw(_coeff))]


@st.composite
def supported_closed_forms(draw) -> ClosedForm:
    """Closed forms whose transform has a denominator ``roots`` factors:
    +-k pairs at two rates, +-ik pairs, cosh(a) + cos(b), each alone or
    with EXP(0)."""
    groups = draw(st.sampled_from([
        ("pm", "pm"), ("pm", "imag"), ("imag", "pm"), ("imag", "imag"),
        ("pm",), ("imag",), ("zero", "pm"), ("zero", "imag"), ("zero",),
    ]))
    k1 = draw(st.floats(0.3, 3.0))
    rates = (k1, k1 + draw(st.floats(0.05, 2.0)))
    terms = []
    for group, k in zip(groups, rates):
        terms += draw(_closed_form_group(group, k))
    return ClosedForm(tuple(terms))


class TestForwardLaplacePoleGroups:
    @given(g=supported_closed_forms())
    # summed pole by pole, in either order, this leaves ~1e-17 in the odd
    # coefficients of (p^2 - 0.09)(p^2 - 0.1225), and roots refuses it
    @example(g=ClosedForm(tuple((TermKind.EXP, k, 1.0) for k in (-0.35, -0.3, 0.3, 0.35))))
    def test_round_trip_and_even_denominator(self, g):
        f = forward_laplace(g)
        poles = np.roots(f.denominator.coeffs[::-1])
        if all(abs(z) > 1e-9 and np.min(np.abs(poles + z)) <= 1e-6 * abs(z) for z in poles):
            # every pole in a +- pair: an even denominator, exactly, or
            # roots cannot factor a quartic
            assert all(c == 0.0 for c in f.denominator.coeffs[1::2])
        assert same_function(inverse_laplace(f), g)


class TestEvaluateDifferentiate:
    def test_cosh_at_zero(self):
        g = ClosedForm((term(TermKind.COSH, 1.5, 1.0),))
        assert g.evaluate(0.0) == 1.0

    def test_derivative_of_cosh(self):
        k = 1.5
        g = ClosedForm((term(TermKind.COSH, k, 1.0),)).differentiate()
        assert g.terms == (term(TermKind.SINH, k, k),)

    def test_operator_annihilates_its_solution(self):
        # y = 2e^x - e^{2x} solves y'' - 3y' + 2y = 0
        y = ClosedForm((term(TermKind.EXP, 1.0, 2.0), term(TermKind.EXP, 2.0, -1.0)))
        y1 = y.differentiate()
        y2 = y1.differentiate()
        xs = np.linspace(-1.0, 2.0, 31)
        residual = y2.evaluate(xs) - 3.0 * y1.evaluate(xs) + 2.0 * y.evaluate(xs)
        assert np.max(np.abs(residual)) <= 1e-12 * (1 + np.max(np.abs(y.evaluate(xs))))

    @given(
        st.sampled_from(list(TermKind)),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_derivative_matches_finite_differences(self, kind, k, coeff, x):
        if kind is TermKind.EXP:
            k = k - 5.0  # allow negative rates for exponentials
        g = ClosedForm((term(kind, k, coeff),))
        h = 1e-5
        fd = (g.evaluate(x + h) - g.evaluate(x - h)) / (2 * h)
        exact = g.differentiate().evaluate(x)
        assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))

    def test_normalization_merges_duplicates(self):
        g = ClosedForm((term(TermKind.COS, 2.0, 1.0), term(TermKind.COS, 2.0, 0.5)))
        assert g.terms == (term(TermKind.COS, 2.0, 1.5),)

    def test_both_closed_forms_normalize_alike(self):
        # equal keys merge in first-seen order, exact-zero sums drop out, and
        # the rest sort by kind, then rate
        raw = [(TermKind.SIN, 2.0, 0.1), (TermKind.COSH, 1.0, 1.0), (TermKind.SIN, 2.0, 0.2),
               (TermKind.EXP, 3.0, 4.0), (TermKind.COSH, 1.0, -1.0), (TermKind.EXP, -1.0, 5.0)]
        want = [(TermKind.EXP, -1.0, 5.0), (TermKind.EXP, 3.0, 4.0), (TermKind.SIN, 2.0, 0.1 + 0.2)]
        assert [tuple(t) for t in ClosedForm(tuple(term(*t) for t in raw)).terms] == want
        affine = RClosedForm(tuple((kind, k, RFun(c, -c)) for kind, k, c in raw))
        assert affine.terms == tuple((kind, k, RFun(c, -c)) for kind, k, c in want)

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            ClosedForm(((TermKind.COS, 0.0, 1.0),))
        with pytest.raises(ValueError):
            ClosedForm(((TermKind.EXP, float("inf"), 1.0),))
