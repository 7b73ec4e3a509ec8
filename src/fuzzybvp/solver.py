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

This module only solves. Checking a solution, and running the cases side
by side, is ``validate``'s job; nothing here imports it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
        to the plain closed form at level r, differentiated ``derivative``
        times and evaluated term by term at x.
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


def _require_finite_numerator(*values: float) -> None:
    """Refuse a transform numerator whose terms overflow double precision."""
    if not all(math.isfinite(v) for v in values):
        raise UnsupportedProblemError(
            "non-finite root or residue: the transform numerator "
            "a*y(0)*p + b*y(0) + a*F overflows double precision"
        )


def _two_point(
    a: float, b: float, c: float, L: float, pairs: tuple[tuple[RFun, RFun], ...]
) -> list[tuple[RClosedForm, RFun]]:
    """The two-point kernel: a*y'' + b*y' + c*y = 0, y(0) = y0, y(L) = yL.

    Every (y0, yL) pair shares the operator, so the fundamental pair is
    inverted and evaluated at L once. For each pair the x = L value imposes
    y0*phi(L) + F*psi(L) = yL, one linear equation for F. Returns, per pair,
    the solution with term coefficients y0*phi_t + F*psi_t and F, both
    affine in r.
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
    phi_c, psi_c = phi.coeff_map(), psi.coeff_map()
    keys = dict.fromkeys([*phi_c, *psi_c])
    out = []
    for y0, yL in pairs:
        _require_finite_numerator(a * y0.c0, a * y0.c1, b * y0.c0, b * y0.c1)
        f = RFun((yL.c0 - y0.c0 * phi_L) / psi_L, (yL.c1 - y0.c1 * phi_L) / psi_L)
        if not all(math.isfinite(v) for v in (phi_L, psi_L, f.c0, f.c1)):
            k = max(abs(t.k) for t in psi.terms)
            raise UnsupportedProblemError(
                f"closed form overflows double precision at L={L}: k*L = {k * L:g} "
                "(rate k of the basis)"
            )
        _require_finite_numerator(a * f.c0, a * f.c1)
        terms = []
        for key in keys:
            ph, ps = phi_c.get(key, 0.0), psi_c.get(key, 0.0)
            terms.append((*key, RFun(y0.c0 * ph + f.c0 * ps, y0.c1 * ph + f.c1 * ps)))
        out.append((RClosedForm(tuple(terms)), f))
    return out


def _half_sum(s: RClosedForm, d: RClosedForm, sign: float) -> RClosedForm:
    """(s + sign*d) / 2, merging terms that share a (kind, rate) key."""
    coeffs: dict[tuple[TermKind, float], RFun] = {}
    for form, j in ((s, 0.5), (d, 0.5 * sign)):
        for kind, k, coeff in form.terms:
            coeffs[(kind, k)] = coeffs.get((kind, k), RFun(0.0)) + coeff.scaled(j)
    return RClosedForm(tuple((kind, k, coeff) for (kind, k), coeff in coeffs.items()))


def solve(prob: FuzzyBVP) -> FuzzySolution:
    """Solve the differentiability case the problem is tagged with.

    Cases 11 and 22 separate the branches: each is a classical
    constant-coefficient problem, and both share one operator, so they go
    to the two-point kernel together and share one inversion. Under case 22
    the derivative endpoints swap twice, which restores the same template;
    only which branch owns which constant (F1, F2) changes.

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
    and half differences.
    """
    if prob.case is None:
        raise CaseInapplicableError("problem has no differentiability case set")
    bc0, bcL = prob.bc0, prob.bcL
    if not prob.case.is_mixed:
        (lower, f_lower), (upper, f_upper) = _two_point(
            prob.a, prob.b, prob.c, prob.L,
            ((bc0.lower, bcL.lower), (bc0.upper, bcL.upper)),
        )
        if prob.case is DiffCase.CASE_11:
            constants = {"F1": f_lower, "F2": f_upper}
        else:
            # case 22: the constant in each branch equation is the opposite
            # endpoint of the fuzzy derivative
            constants = {"F1": f_upper, "F2": f_lower}
        return FuzzySolution(lower, upper, prob.case, prob, constants)

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
    return FuzzySolution(_half_sum(s, d, 1.0), _half_sum(s, d, -1.0), prob.case, prob, constants)
