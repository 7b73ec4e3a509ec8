"""Transform pipeline for second-order fuzzy boundary value problems.

The equation a*y'' + b*y' + c*y = 0 with fuzzy values at x = 0 and x = L
is transformed branch-wise, the unknown initial-derivative constant is
carried symbolically, the far boundary condition eliminates it, and the
result is assembled as envelope closed forms whose coefficients stay
affine in the membership level r.

The four differentiability cases differ in whether derivative endpoints
swap. Cases 11 and 22 decouple the branches. The mixed cases 12 and 21
couple them, and the sum and difference of the branches decouple them
again. ``solve`` is the one entry, and every case goes through one
two-point kernel, ``_two_point``. The transform is linear in y(0) and
y'(0), so each branch is y(0)*phi + y'(0)*psi over the fundamental pair of
its operator, and one inversion per operator serves every branch: one for
both branches of cases 11/22, one each for the sum and the difference in
the mixed cases.

The envelopes are ``laplace.RClosedForm``. A branch is handed over as the
plain list of its y0*phi and F*psi terms, a mixed-case branch as the halved
terms of s and of +d or -d, and the closed form merges the terms that
share a key.

This module only solves. Checking a solution, and running the cases side
by side, is ``validate``'s job; nothing here imports it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CaseInapplicableError,
    EigenvalueDegeneracyError,
    UnsupportedProblemError,
)
from .fuzzy import FuzzyNumber, RFun
from .laplace import (
    ClosedForm,
    Polynomial,
    RClosedForm,
    RationalFunction,
    TermKind,
    inverse_laplace,
)

# A shooting-constant pivot smaller than this is a resonance of the
# operator, not a solvable elimination.
PIVOT_TOL = 1e-12


class DiffCase(enum.Enum):
    """Differentiability case tag: first/second derivative each (1) or (2)."""

    CASE_11 = "11"
    CASE_22 = "22"
    CASE_12 = "12"
    CASE_21 = "21"

    @property
    def tag(self) -> str:
        return self.value

    @property
    def is_mixed(self) -> bool:
        return self in (DiffCase.CASE_12, DiffCase.CASE_21)

    @property
    def twin(self) -> "DiffCase":
        """The case with both derivative types flipped: 11 <-> 22, 12 <-> 21."""
        return DiffCase(self.value.translate(_FLIP_TYPES))


# (1) <-> (2) in both digits of a case tag
_FLIP_TYPES = str.maketrans("12", "21")


ALL_CASES = (DiffCase.CASE_11, DiffCase.CASE_22, DiffCase.CASE_12, DiffCase.CASE_21)


@dataclass(frozen=True)
class FuzzyBVP:
    """a*y'' + b*y' + c*y = 0 on [0, L] with fuzzy boundary values.

    ``v_height`` is an optional potential step: the mixed differentiability
    cases solve with the shifted coefficient c + v_height while cases 11/22
    use c unchanged, matching a barrier that is only present on the region
    where the mixed cases apply. The forcing term is fixed at zero.
    """

    a: float
    b: float
    c: float
    L: float
    bc0: FuzzyNumber
    bcL: FuzzyNumber
    case: DiffCase | None = None
    v_height: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "L", "v_height"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.a == 0.0:
            raise ValueError("leading coefficient a must be nonzero")
        if not self.L > 0.0:
            raise ValueError(f"domain length must be positive, got {self.L}")

    def effective_c(self, case: DiffCase) -> float:
        return self.c + self.v_height if case.is_mixed else self.c


@dataclass(frozen=True)
class FuzzySolution:
    """Envelope pair for one differentiability case.

    ``constants`` holds the eliminated initial-derivative values as affine
    functions of r, keyed F1/F2 for the decoupled cases and H1/H2 for the
    coupled ones.
    """

    lower: RClosedForm
    upper: RClosedForm
    case: DiffCase
    problem: FuzzyBVP
    constants: dict[str, RFun]

    def as_case(self, case: DiffCase) -> "FuzzySolution":
        """This solution under ``case``, which is this case or its twin.

        Twins solve the same branch problems, so the twin is relabelled, not
        solved: 22 has the envelopes of 11 with the constants F1 and F2
        swapped, since under 22 the constant in each branch equation is the
        opposite endpoint of the fuzzy derivative; 21 is 12 unchanged, since
        both mixed cases solve with c + v_height. ``problem.case`` follows
        the new tag.
        """
        if case is self.case:
            return self
        if case is not self.case.twin:
            raise ValueError(f"case {case.tag} is not the twin of case {self.case.tag}")
        constants = self.constants
        if not case.is_mixed:
            constants = {"F1": constants["F2"], "F2": constants["F1"]}
        problem = self.problem if self.problem.case is case else replace(self.problem, case=case)
        return FuzzySolution(self.lower, self.upper, case, problem, constants)


def _fundamental_pair(a: float, b: float, c: float) -> tuple[ClosedForm, ClosedForm]:
    """The fundamental pair (phi, psi) of a*y'' + b*y' + c*y = 0.

    With y(0) = y0 and y'(0) = F kept symbolic, l[y'] = p*l[y] - y(0) and
    l[y''] = p^2*l[y] - p*y(0) - y'(0) give

        (a p^2 + b p + c) l[y] = y0*(a p + b) + F*a,

    so y = y0*phi + F*psi. Only psi = l^-1[a / (a p^2 + b p + c)] is
    inverted. Since psi(0) = 0, the same rule gives l[psi'] = p*l[psi], so
    phi = psi' + (b/a)*psi, formed with the exact term-wise derivative.
    """
    psi = inverse_laplace(RationalFunction(Polynomial((a,)), Polynomial((c, b, a))))
    return psi.differentiate() + psi.scaled(b / a), psi


def _sizes(form: ClosedForm, L: float) -> tuple[float, float, float]:
    """Sj = sum of |coeff|*|k|^j*peak, j = 0, 1, 2, bounds the j-th x-derivative of
    ``form`` on [0, L]; the peak is 1 for cos and sin, else e^{max(k, 0)*L}."""
    s0 = s1 = s2 = 0.0
    for kind, k, coeff in form.terms:
        bounded = kind in (TermKind.COS, TermKind.SIN)
        try:
            size = abs(coeff) * (1.0 if bounded else math.exp(max(k, 0.0) * L))
        except OverflowError:  # math.exp
            size = math.inf
        s0 += size
        s1 += size * abs(k)
        s2 += size * k * k
    return s0, s1, s2


def _two_point(
    a: float, b: float, c: float, L: float, pairs: tuple[tuple[RFun, RFun], ...]
) -> list[tuple[RClosedForm, RFun]]:
    """The two-point kernel: a*y'' + b*y' + c*y = 0, y(0) = y0, y(L) = yL.

    Every (y0, yL) pair shares the operator, so the fundamental pair is
    inverted and evaluated at L once. For each pair the x = L value imposes
    y0*phi(L) + F*psi(L) = yL, one linear equation for F. Returns, per pair,
    the solution with term coefficients y0*phi_t + F*psi_t and F, both
    affine in r.

    One overflow rule. With m0 = |y0.c0| + |y0.c1| and mF = |F.c0| + |F.c1|
    (bounds for r in [0, 1]) and Bj = m0*Sj(phi) + mF*Sj(psi) (``_sizes``),
    a pair is refused unless (1+|c|)*B0 + (1+|b|)*B1 + (1+|a|)*B2 is finite.
    Bj bounds the j-th x-derivative at every level on [0, L], so the sum
    bounds y, y', y'' and c*y, b*y', a*y'', which ``validate.check_level_set``
    forms; in the mixed cases each call has its own operator, so it also
    bounds a*lower'' + c_eff*upper. So every returned solution is checked
    without overflow, and a non-finite phi(L), psi(L) or F, which makes the
    sum non-finite, is refused too.
    """
    phi, psi = _fundamental_pair(a, b, c)
    with np.errstate(over="ignore", invalid="ignore"):
        phi_L = float(phi.evaluate(L))
        psi_L = float(psi.evaluate(L))
    if abs(psi_L) <= PIVOT_TOL:
        raise EigenvalueDegeneracyError(
            f"boundary elimination pivot vanished at L={L}; the domain "
            "length is an eigenvalue of the operator"
        )
    sizes = tuple(zip((1.0 + abs(c), 1.0 + abs(b), 1.0 + abs(a)), _sizes(phi, L), _sizes(psi, L)))
    out = []
    for y0, yL in pairs:
        f = RFun((yL.c0 - y0.c0 * phi_L) / psi_L, (yL.c1 - y0.c1 * phi_L) / psi_L)
        m0, mf = abs(y0.c0) + abs(y0.c1), abs(f.c0) + abs(f.c1)
        if not math.isfinite(sum(w * (m0 * s_phi + mf * s_psi) for w, s_phi, s_psi in sizes)):
            k = max(abs(rate) for _, rate, _ in psi.terms)
            raise UnsupportedProblemError(
                f"closed form overflows double precision at L={L}: k*L = {k * L:g} (rate k of "
                f"the basis; a={a:g}, b={b:g}, c={c:g}, |y(0)| <= {m0:g}, |y'(0)| <= {mf:g})"
            )
        terms = [(kind, k, y0.scaled(coeff)) for kind, k, coeff in phi.terms]
        terms += [(kind, k, f.scaled(coeff)) for kind, k, coeff in psi.terms]
        out.append((RClosedForm(tuple(terms)), f))
    return out


def solve(prob: FuzzyBVP) -> FuzzySolution:
    """Solve the differentiability case the problem is tagged with.

    Cases 11 and 22 separate the branches: each is a classical
    constant-coefficient problem, and both share one operator, so they go
    to the two-point kernel together and share one inversion. Under case 22
    the derivative endpoints swap twice, which restores the same template;
    only which branch owns which constant (F1, F2) changes. So both are
    solved as case 11, and ``FuzzySolution.as_case`` relabels the solution
    as 22, F1 and F2 swapped.

    The mixed cases 12 and 21 swap endpoints in the second derivative, which
    couples the branches: a*lower'' = -c_eff*upper, a*upper'' = -c_eff*lower
    with c_eff = c + v_height. The sum s = lower + upper and the difference
    d = lower - upper decouple the pair exactly:

        a*s'' + c_eff*s = 0    (cosh/sinh, rate w = sqrt(kappa))
        a*d'' - c_eff*d = 0    (cos/sin, frequency w)

    with kappa = -c_eff/a. They need b = 0 and kappa > 0, and raise
    ``CaseInapplicableError`` otherwise. Each is handed to the two-point
    kernel with its own operator, and the branches and their initial
    derivatives H1 = lower'(0), H2 = upper'(0) are recombined as half sums
    and half differences. Cases 12 and 21 solve the same equations and give
    the same solution. Every kernel call refuses (``UnsupportedProblemError``)
    what ``check_level_set`` could not evaluate in double precision.
    """
    if prob.case is None:
        raise CaseInapplicableError("problem has no differentiability case set")
    bc0, bcL = prob.bc0, prob.bcL
    if not prob.case.is_mixed:
        (lower, f_lower), (upper, f_upper) = _two_point(
            prob.a, prob.b, prob.c, prob.L,
            ((bc0.lower, bcL.lower), (bc0.upper, bcL.upper)),
        )
        constants = {"F1": f_lower, "F2": f_upper}
        return FuzzySolution(lower, upper, DiffCase.CASE_11, prob, constants).as_case(prob.case)

    if prob.b != 0.0:
        raise CaseInapplicableError(
            "mixed cases need a pure a*y'' = kappa*y equation (no y' term); "
            "use case 11 or 22"
        )
    c_eff = prob.effective_c(prob.case)
    kappa = -c_eff / prob.a
    if kappa <= 0.0:
        raise CaseInapplicableError(
            f"mixed cases need kappa = -c_eff/a > 0, got {kappa}; use case 11 or 22"
        )
    ((s, f_s),) = _two_point(
        prob.a, 0.0, c_eff, prob.L, ((bc0.lower + bc0.upper, bcL.lower + bcL.upper),)
    )
    ((d, f_d),) = _two_point(
        prob.a, 0.0, -c_eff, prob.L, ((bc0.lower - bc0.upper, bcL.lower - bcL.upper),)
    )
    constants = {"H1": (f_s + f_d).scaled(0.5), "H2": (f_s - f_d).scaled(0.5)}
    half_s = [(kind, k, coeff.scaled(0.5)) for kind, k, coeff in s.terms]
    lower, upper = (
        RClosedForm((*half_s, *((kind, k, coeff.scaled(j)) for kind, k, coeff in d.terms)))
        for j in (0.5, -0.5)
    )
    return FuzzySolution(lower, upper, prob.case, prob, constants)
