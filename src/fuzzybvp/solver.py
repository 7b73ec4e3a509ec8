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
its operator. ``laplace.fundamental_pair`` forms that pair from one
inversion, and one pair per operator serves every branch: one for both
branches of cases 11/22, one each for the sum and the difference in the
mixed cases. This module holds no transform algebra of its own.

The kernel only eliminates: it returns phi, psi and each F. ``solve`` then
builds each envelope once, as one ``laplace.RClosedForm.combine`` over
weighted fundamental forms: y0*phi + F*psi in cases 11/22, and in the mixed
cases the half sum of the s and +d or -d solutions, with the weights halved.

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
from .laplace import ClosedForm, RClosedForm, fundamental_pair

# An absolute bound on the shooting-constant pivot psi(L). A pivot at or
# below it is refused: at a resonance of the operator, but also where psi(L)
# is only small (a decaying operator on a long domain, a very short domain).
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


ALL_CASES = tuple(DiffCase)  # 11, 22, 12, 21: the enum order


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
        # stored as Python floats, so numpy scalars overflow to inf silently
        # in the scalar kernel as floats do, instead of warning
        for name in ("a", "b", "c", "L", "v_height"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
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


def _two_point(
    a: float, b: float, c: float, L: float, pairs: tuple[tuple[RFun, RFun], ...]
) -> tuple[ClosedForm, ClosedForm, list[RFun]]:
    """The two-point kernel: a*y'' + b*y' + c*y = 0, y(0) = y0, y(L) = yL.

    Every (y0, yL) pair shares the operator, so the fundamental pair is
    inverted and evaluated at L once. For each pair the x = L value imposes
    y0*phi(L) + F*psi(L) = yL, one linear equation for F. Returns phi, psi
    and the F of each pair, affine in r; the solution of a pair is
    y0*phi + F*psi, which ``solve`` assembles.

    One overflow rule. With m0 = |y0.c0| + |y0.c1| and mF = |F.c0| + |F.c1|
    (bounds for r in [0, 1]) and Bj = m0*Sj(phi) + mF*Sj(psi), where Sj is
    ``ClosedForm.bounds``, a pair is refused unless (1+|c|)*B0 + (1+|b|)*B1
    + (1+|a|)*B2 is finite. Bj bounds the j-th x-derivative at every level
    on [0, L], so the sum bounds y, y', y'' and c*y, b*y', a*y'', which
    ``validate.check_level_set`` forms; in the mixed cases each call has its
    own operator, so it also bounds a*lower'' + c_eff*upper. So every
    returned solution is checked without overflow, and a non-finite phi(L),
    psi(L) or F, which makes the sum non-finite, is refused too.
    """
    phi, psi = fundamental_pair(a, b, c)
    with np.errstate(over="ignore", invalid="ignore"):
        phi_L = float(phi.evaluate(L))
        psi_L = float(psi.evaluate(L))
    if abs(psi_L) <= PIVOT_TOL:
        raise EigenvalueDegeneracyError(
            f"boundary elimination pivot |psi(L)| = {abs(psi_L):g} is at most PIVOT_TOL = "
            f"{PIVOT_TOL:g} at L={L}: the domain length is an eigenvalue of the operator, or "
            "the pivot fell below the absolute tolerance (for example a decaying operator "
            "on a long domain, or a very short domain)"
        )
    sizes = tuple(zip((1.0 + abs(c), 1.0 + abs(b), 1.0 + abs(a)), phi.bounds(L), psi.bounds(L)))
    fs = []
    for y0, yL in pairs:
        f = RFun((yL.c0 - y0.c0 * phi_L) / psi_L, (yL.c1 - y0.c1 * phi_L) / psi_L)
        m0, mf = abs(y0.c0) + abs(y0.c1), abs(f.c0) + abs(f.c1)
        if not math.isfinite(sum(w * (m0 * s_phi + mf * s_psi) for w, s_phi, s_psi in sizes)):
            _, rates, _ = zip(*psi.terms)
            k = max(map(abs, rates))
            raise UnsupportedProblemError(
                f"closed form overflows double precision at L={L}: k*L = {k * L:g} (rate k of "
                f"the basis; a={a:g}, b={b:g}, c={c:g}, |y(0)| <= {m0:g}, |y'(0)| <= {mf:g})"
            )
        fs.append(f)
    return phi, psi, fs


def solve(prob: FuzzyBVP) -> FuzzySolution:
    """Solve the differentiability case the problem is tagged with.

    Cases 11 and 22 separate the branches: each is a classical
    constant-coefficient problem, and both share one operator, so they go
    to the two-point kernel together and share one inversion. Each branch
    is y0*phi + F*psi, built by one ``RClosedForm.combine``. Under case 22
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
    ``CaseInapplicableError`` otherwise; a c + v_height that overflows is
    refused first (``UnsupportedProblemError``). Each goes to the two-point
    kernel with its own operator. A branch is then built once over both pairs, with
    the weights s0/2, F_s/2 and +-d0/2, +-F_d/2, and H1 = lower'(0), H2 =
    upper'(0) are the half sum and half difference of F_s and F_d. Cases 12
    and 21 solve the same equations and give the same solution. Every kernel
    call refuses (``UnsupportedProblemError``) what ``check_level_set`` could
    not evaluate in double precision.
    """
    if prob.case is None:
        raise CaseInapplicableError("problem has no differentiability case set")
    bc0, bcL = prob.bc0, prob.bcL
    if not prob.case.is_mixed:
        phi, psi, (f_lower, f_upper) = _two_point(
            prob.a, prob.b, prob.c, prob.L,
            ((bc0.lower, bcL.lower), (bc0.upper, bcL.upper)),
        )
        lower = RClosedForm.combine(((bc0.lower, phi), (f_lower, psi)))
        upper = RClosedForm.combine(((bc0.upper, phi), (f_upper, psi)))
        constants = {"F1": f_lower, "F2": f_upper}
        return FuzzySolution(lower, upper, DiffCase.CASE_11, prob, constants).as_case(prob.case)

    if prob.b != 0.0:
        raise CaseInapplicableError(
            "mixed cases need a pure a*y'' = kappa*y equation (no y' term); "
            "use case 11 or 22"
        )
    c_eff = prob.effective_c(prob.case)
    if not math.isfinite(c_eff):
        raise UnsupportedProblemError(
            f"the mixed cases solve with c + height = {prob.c} + {prob.v_height}, "
            f"which overflows to {c_eff}"
        )
    kappa = -c_eff / prob.a
    if kappa <= 0.0:
        raise CaseInapplicableError(
            f"mixed cases need kappa = -c_eff/a > 0, got {kappa}; use case 11 or 22"
        )
    s0, d0 = bc0.lower + bc0.upper, bc0.lower - bc0.upper
    phi_s, psi_s, (f_s,) = _two_point(prob.a, 0.0, c_eff, prob.L, ((s0, bcL.lower + bcL.upper),))
    phi_d, psi_d, (f_d,) = _two_point(prob.a, 0.0, -c_eff, prob.L, ((d0, bcL.lower - bcL.upper),))
    constants = {"H1": (f_s + f_d).scaled(0.5), "H2": (f_s - f_d).scaled(0.5)}
    half_s = (s0.scaled(0.5), phi_s), (f_s.scaled(0.5), psi_s)
    lower, upper = (
        RClosedForm.combine((*half_s, (d0.scaled(j), phi_d), (f_d.scaled(j), psi_d)))
        for j in (0.5, -0.5)
    )
    return FuzzySolution(lower, upper, prob.case, prob, constants)
