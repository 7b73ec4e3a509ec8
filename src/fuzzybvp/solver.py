"""Transform pipeline for second-order fuzzy boundary value problems.

The equation a*y'' + b*y' + c*y = 0 with fuzzy values at x = 0 and x = L
is transformed branch-wise, the unknown initial-derivative constant is
carried symbolically, the far boundary condition eliminates it, and the
result is assembled as envelope closed forms whose coefficients stay
affine in the membership level r.

The four differentiability cases differ in whether derivative endpoints
swap. Cases 11 and 22 decouple the branches. The mixed cases 12 and 21
couple them, and the sum and difference of the branches decouple them
again. Every case thus reduces to two calls of one scalar two-point
kernel, ``_solve_branch``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CaseInapplicableError,
    EigenvalueDegeneracyError,
    FuzzyBvpError,
    UnsupportedProblemError,
)
from .fuzzy import FuzzyNumber, RFun
from .laplace import (
    ClosedForm,
    ClosedFormTerm,
    Polynomial,
    RationalFunction,
    TermKind,
    _BASIS,
    _DERIVATIVE,
    _KIND_ORDER,
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
class RClosedForm:
    """Closed form whose term coefficients are affine functions of r."""

    terms: tuple[tuple[TermKind, float, RFun], ...]

    def __post_init__(self):
        cleaned = [
            (kind, k, coeff)
            for kind, k, coeff in self.terms
            if coeff.c0 != 0.0 or coeff.c1 != 0.0
        ]
        cleaned.sort(key=lambda t: (_KIND_ORDER[t[0]], t[1]))
        object.__setattr__(self, "terms", tuple(cleaned))

    def fix_r(self, r: float) -> ClosedForm:
        return ClosedForm(
            tuple(ClosedFormTerm(kind, k, coeff(r)) for kind, k, coeff in self.terms)
        )

    def r_slope(self) -> ClosedForm:
        """d/dr of the envelope; a plain closed form since coefficients are affine."""
        return ClosedForm(
            tuple(ClosedFormTerm(kind, k, coeff.c1) for kind, k, coeff in self.terms)
        )

    def evaluate(self, x, r: float):
        """Envelope at level r: a scalar for scalar x, else an array shaped like x."""
        values = self.evaluate_grid(np.ravel(x), (r,))[:, 0]
        return values[0] if np.ndim(x) == 0 else values.reshape(np.shape(x))

    def evaluate_grid(self, xs, rs, derivative: int = 0) -> np.ndarray:
        """The ``derivative``-th x-derivative on an x-by-r grid, shape (len(xs), len(rs)).

        The coefficients c0 + c1*r are formed once per term over all levels
        and each basis function once over all x. Terms are summed one by
        one in canonical order, and a term whose coefficient is exactly
        zero at a level is left out there, so every value is bit-identical
        to ``fix_r(r)`` differentiated ``derivative`` times and evaluated at x.
        """
        xs = np.asarray(xs, dtype=float)
        rs = np.asarray(rs, dtype=float)
        coeffs: dict[tuple[TermKind, float], np.ndarray] = {}
        for kind, k, coeff in self.terms:
            cr = coeff(rs)
            coeffs[(kind, k)] = coeffs[(kind, k)] + cr if (kind, k) in coeffs else cr
        for _ in range(derivative):
            coeffs = {
                (_DERIVATIVE[kind][0], k): _DERIVATIVE[kind][1] * cr * k
                for (kind, k), cr in coeffs.items()
                if not (kind is TermKind.EXP and k == 0.0)
            }
        # -0.0 is the exact additive identity, so the first term enters
        # the sum unchanged, sign of zero included
        total = np.full((xs.size, rs.size), -0.0)
        term = np.empty_like(total)
        live = np.zeros(rs.size, dtype=bool)
        for kind, k in sorted(coeffs, key=lambda key: (_KIND_ORDER[key[0]], key[1])):
            cr = coeffs[(kind, k)]
            nonzero = cr != 0.0
            if not nonzero.any():
                continue
            np.multiply(_BASIS[kind](k * xs)[:, None], cr, out=term, where=nonzero)
            np.add(total, term, out=total, where=nonzero)
            live |= nonzero
        total[:, ~live] = 0.0  # a level with no terms is the zero form
        return total


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


@dataclass(frozen=True)
class BranchTransform:
    """Transform of one branch with the derivative constant still symbolic.

    Represents l[y](p) = const_part(p) + r * r_part(p) + F * f_part(p).
    """

    const_part: RationalFunction
    r_part: RationalFunction
    f_part: RationalFunction


def _branch_transform(a: float, b: float, c: float, y0: RFun) -> BranchTransform:
    """Transform template of a*y'' + b*y' + c*y = 0 with y(0) = y0, y'(0) = F.

    Using l[y'] = p*l[y] - y(0) and l[y''] = p^2*l[y] - p*y(0) - y'(0) gives

        (a p^2 + b p + c) l[y] = a*y(0)*p + b*y(0) + a*F.
    """
    den = Polynomial((c, b, a))
    return BranchTransform(
        const_part=RationalFunction(Polynomial((b * y0.c0, a * y0.c0)), den),
        r_part=RationalFunction(Polynomial((b * y0.c1, a * y0.c1)), den),
        f_part=RationalFunction(Polynomial((a,)), den),
    )


def transform_bvp(prob: FuzzyBVP) -> tuple[BranchTransform, BranchTransform]:
    """Branch-wise transform templates of the decoupled pipeline."""
    return (
        _branch_transform(prob.a, prob.b, prob.c, prob.bc0.lower),
        _branch_transform(prob.a, prob.b, prob.c, prob.bc0.upper),
    )


def _merge_affine(base0: ClosedForm, base1: ClosedForm, gain: ClosedForm, f: RFun) -> RClosedForm:
    """Assemble coeff(r) = base0 + r*base1 + (f.c0 + f.c1*r)*gain."""
    keys = dict.fromkeys([*base0.coeff_map(), *base1.coeff_map(), *gain.coeff_map()])
    terms = []
    for kind, k in keys:
        gc = gain.coeff(kind, k)
        terms.append(
            (kind, k, RFun(base0.coeff(kind, k) + f.c0 * gc, base1.coeff(kind, k) + f.c1 * gc))
        )
    return RClosedForm(tuple(terms))


def _solve_branch(
    a: float, b: float, c: float, L: float, y0: RFun, yL: RFun
) -> tuple[RClosedForm, RFun]:
    """The scalar two-point kernel: a*y'' + b*y' + c*y = 0, y(0) = y0, y(L) = yL.

    Inverts the transform template with y'(0) = F symbolic (the solution is
    affine in F), then solves the single linear equation the x = L value
    imposes on F. Returns the solution and F, both affine in r.
    """
    tmpl = _branch_transform(a, b, c, y0)
    base0 = inverse_laplace(tmpl.const_part)
    base1 = inverse_laplace(tmpl.r_part)
    gain = inverse_laplace(tmpl.f_part)
    with np.errstate(over="ignore", invalid="ignore"):
        gL = float(gain.evaluate(L))
        b0L = float(base0.evaluate(L))
        b1L = float(base1.evaluate(L))
    if abs(gL) <= PIVOT_TOL:
        raise EigenvalueDegeneracyError(
            f"boundary elimination pivot vanished at L={L}; the domain "
            "length is an eigenvalue of the operator"
        )
    f = RFun((yL.c0 - b0L) / gL, (yL.c1 - b1L) / gL)
    if not all(math.isfinite(v) for v in (gL, b0L, b1L, f.c0, f.c1)):
        k = max(abs(t.k) for t in gain.terms)
        raise UnsupportedProblemError(
            f"closed form overflows double precision at L={L}: k*L = {k * L:g} "
            "(rate k of the basis)"
        )
    return _merge_affine(base0, base1, gain, f), f


def _half_sum(s: RClosedForm, d: RClosedForm, sign: float) -> RClosedForm:
    """(s + sign*d) / 2, merging terms that share a (kind, rate) key."""
    coeffs: dict[tuple[TermKind, float], RFun] = {}
    for form, j in ((s, 0.5), (d, 0.5 * sign)):
        for kind, k, coeff in form.terms:
            coeffs[(kind, k)] = coeffs.get((kind, k), RFun(0.0)) + coeff.scaled(j)
    return RClosedForm(tuple((kind, k, coeff) for (kind, k), coeff in coeffs.items()))


def solve_uncoupled(prob: FuzzyBVP) -> FuzzySolution:
    """Solve under case 11 or 22, where the branches separate.

    Each branch is a classical constant-coefficient problem handed to the
    scalar kernel. Under case 22 the derivative endpoints swap twice, which
    restores the same template; only the bookkeeping of which branch owns
    which constant changes, so both tags share this computation.
    """
    if prob.case not in (DiffCase.CASE_11, DiffCase.CASE_22):
        raise CaseInapplicableError(f"solve_uncoupled expects case 11 or 22, got {prob.case}")

    lower, f_lower = _solve_branch(
        prob.a, prob.b, prob.c, prob.L, prob.bc0.lower, prob.bcL.lower
    )
    upper, f_upper = _solve_branch(
        prob.a, prob.b, prob.c, prob.L, prob.bc0.upper, prob.bcL.upper
    )
    if prob.case is DiffCase.CASE_11:
        constants = {"F1": f_lower, "F2": f_upper}
    else:
        # case 22: the constant in each branch equation is the opposite
        # endpoint of the fuzzy derivative
        constants = {"F1": f_upper, "F2": f_lower}
    return FuzzySolution(lower, upper, prob.case, prob, constants)


def solve_coupled(prob: FuzzyBVP) -> FuzzySolution:
    """Solve under the mixed cases 12 or 21, where the branches couple.

    The endpoint swap in the second derivative turns the equation into the
    pair a*lower'' = -c_eff*upper, a*upper'' = -c_eff*lower with
    c_eff = c + v_height. The sum s = lower + upper and the difference
    d = lower - upper decouple it exactly:

        a*s'' + c_eff*s = 0    (cosh/sinh, rate w = sqrt(kappa))
        a*d'' - c_eff*d = 0    (cos/sin, frequency w)

    with kappa = -c_eff/a > 0. Each is handed to the scalar kernel, and the
    branches and their initial derivatives H1 = lower'(0), H2 = upper'(0)
    are recombined as half sums and half differences.
    """
    if prob.case is None or not prob.case.is_mixed:
        raise CaseInapplicableError(f"solve_coupled expects case 12 or 21, got {prob.case}")
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

    bc0, bcL = prob.bc0, prob.bcL
    s, f_s = _solve_branch(
        prob.a, 0.0, c_eff, prob.L, bc0.lower + bc0.upper, bcL.lower + bcL.upper
    )
    d, f_d = _solve_branch(
        prob.a, 0.0, -c_eff, prob.L, bc0.lower - bc0.upper, bcL.lower - bcL.upper
    )
    constants = {"H1": (f_s + f_d).scaled(0.5), "H2": (f_s - f_d).scaled(0.5)}
    return FuzzySolution(_half_sum(s, d, 1.0), _half_sum(s, d, -1.0), prob.case, prob, constants)


def solve(prob: FuzzyBVP) -> FuzzySolution:
    """Dispatch on the differentiability case tag."""
    if prob.case is None:
        raise CaseInapplicableError("problem has no differentiability case set")
    if prob.case.is_mixed:
        return solve_coupled(prob)
    return solve_uncoupled(prob)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one differentiability case inside an enumeration."""

    case: DiffCase
    solution: FuzzySolution | None
    error: str | None
    report: "object | None"  # ValidityReport; kept loose to avoid an import cycle

    @property
    def solved(self) -> bool:
        return self.solution is not None


def enumerate_cases(prob: FuzzyBVP, x_count: int = 101, r_count: int = 11) -> list[CaseResult]:
    """Run all four cases and attach validity reports; failures become values.

    The level-set criterion decides which differentiability case yields a
    usable solution, so callers typically want all four side by side.
    """
    from .validate import check_level_set  # deferred: validate imports solver types

    results = []
    for case in ALL_CASES:
        tagged = replace(prob, case=case)
        try:
            sol = solve(tagged)
        except FuzzyBvpError as exc:
            results.append(CaseResult(case, None, f"{type(exc).__name__}: {exc}", None))
            continue
        report = check_level_set(sol, x_count=x_count, r_count=r_count)
        results.append(CaseResult(case, sol, None, report))
    return results
