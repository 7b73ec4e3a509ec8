"""Rational-function algebra in the transform variable and the table-driven
transform between it and exp/trig/hyperbolic closed forms.

Everything is double precision; root extraction is closed form only
(quadratic formula, biquadratic quartics), which covers every denominator
the solver pipeline can produce. Repeated roots are rejected outright
rather than extending the basis with polynomial-weighted terms.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedProblemError

# Tolerance for coefficient arithmetic; verification margins elsewhere
# are orders of magnitude looser.
COEFF_TOL = 1e-12

# Two roots closer than this (relative to their size) are treated as one
# repeated root; partial fractions would be hopelessly ill-conditioned.
ROOT_SEP_TOL = 1e-9


def _trimmed(coeffs) -> tuple[float, ...]:
    cs = [float(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    if not cs:
        cs = [0.0]
    return tuple(cs)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients stored by ascending power."""

    coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def evaluate(self, p):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def scaled(self, j: float) -> "Polynomial":
        return Polynomial(tuple(j * c for c in self.coeffs))

    def chopped(self, tol: float = COEFF_TOL) -> "Polynomial":
        """Zero out coefficients that are negligible next to the largest one."""
        scale = max(abs(c) for c in self.coeffs)
        if scale == 0.0:
            return self
        return Polynomial(tuple(0.0 if abs(c) <= tol * scale else c for c in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0.0,) * (n - len(self.coeffs))
        b = other.coeffs + (0.0,) * (n - len(other.coeffs))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "Polynomial":
        return self.scaled(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))


@dataclass(frozen=True)
class RationalFunction:
    """Strictly proper ratio of two real polynomials in the transform variable."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.is_zero:
            raise ValueError("denominator is the zero polynomial")
        if not self.numerator.is_zero and self.numerator.degree >= self.denominator.degree:
            raise ValueError(
                f"not strictly proper: numerator degree {self.numerator.degree} "
                f">= denominator degree {self.denominator.degree}"
            )

    def evaluate(self, p):
        return self.numerator.evaluate(p) / self.denominator.evaluate(p)

    def scaled(self, j: float) -> "RationalFunction":
        return RationalFunction(self.numerator.scaled(j), self.denominator)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )


class TermKind(enum.Enum):
    EXP = "exp"
    COS = "cos"
    SIN = "sin"
    COSH = "cosh"
    SINH = "sinh"


_KIND_ORDER = {TermKind.EXP: 0, TermKind.COS: 1, TermKind.SIN: 2,
               TermKind.COSH: 3, TermKind.SINH: 4}

# The basis function of each kind, and the term-wise derivative rule
# d/dx kind(k*x) = sign * k * kind'(k*x); EXP(0), the constant, has none.
_BASIS = {TermKind.EXP: np.exp, TermKind.COS: np.cos, TermKind.SIN: np.sin,
         TermKind.COSH: np.cosh, TermKind.SINH: np.sinh}
_DERIVATIVE = {
    TermKind.EXP: (TermKind.EXP, 1.0),
    TermKind.COS: (TermKind.SIN, -1.0),
    TermKind.SIN: (TermKind.COS, 1.0),
    TermKind.COSH: (TermKind.SINH, 1.0),
    TermKind.SINH: (TermKind.COSH, 1.0),
}


@dataclass(frozen=True)
class ClosedFormTerm:
    """One basis term coeff * kind(k * x).

    Rates/frequencies of the trig and hyperbolic kinds are kept strictly
    positive; a zero rate is only meaningful as the constant EXP(0).
    """

    kind: TermKind
    k: float
    coeff: float

    def __post_init__(self):
        if not math.isfinite(self.coeff) or not math.isfinite(self.k):
            raise ValueError(f"non-finite term {self}")
        if self.kind is not TermKind.EXP and self.k <= 0:
            raise ValueError(f"{self.kind.value} requires a positive rate, got {self.k}")

    def evaluate(self, x):
        return self.coeff * _BASIS[self.kind](self.k * x)

    def derivative(self) -> "ClosedFormTerm | None":
        if self.kind is TermKind.EXP and self.k == 0.0:
            return None
        kind, sign = _DERIVATIVE[self.kind]
        return ClosedFormTerm(kind, self.k, sign * self.coeff * self.k)


def _normalize_terms(terms) -> tuple[ClosedFormTerm, ...]:
    merged: dict[tuple[TermKind, float], float] = {}
    for t in terms:
        key = (t.kind, t.k)
        merged[key] = merged.get(key, 0.0) + t.coeff
    out = [
        ClosedFormTerm(kind, k, coeff)
        for (kind, k), coeff in merged.items()
        if coeff != 0.0
    ]
    out.sort(key=lambda t: (_KIND_ORDER[t.kind], t.k))
    return tuple(out)


@dataclass(frozen=True)
class ClosedForm:
    """Finite sum of exp/cos/sin/cosh/sinh terms.

    Normalized so no two terms share a (kind, rate) pair; differentiation
    stays inside the basis, which is what makes residual checks exact.
    """

    terms: tuple[ClosedFormTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize_terms(self.terms))

    def evaluate(self, x):
        if not self.terms:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        total = self.terms[0].evaluate(x)
        for t in self.terms[1:]:
            total = total + t.evaluate(x)
        return total

    def differentiate(self) -> "ClosedForm":
        return ClosedForm(tuple(d for t in self.terms if (d := t.derivative()) is not None))

    def scaled(self, j: float) -> "ClosedForm":
        return ClosedForm(tuple(ClosedFormTerm(t.kind, t.k, j * t.coeff) for t in self.terms))

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        return ClosedForm(self.terms + other.terms)

    def coeff(self, kind: TermKind, k: float) -> float:
        for t in self.terms:
            if t.kind is kind and t.k == k:
                return t.coeff
        return 0.0

    def coeff_map(self) -> dict[tuple[TermKind, float], float]:
        return {(t.kind, t.k): t.coeff for t in self.terms}


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[complex]:
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc >= 0.0:
        sq = math.sqrt(disc)
        return [(-c1 + sq) / (2.0 * c2), (-c1 - sq) / (2.0 * c2)]
    re = -c1 / (2.0 * c2)
    im = math.sqrt(-disc) / (2.0 * c2)
    return [complex(re, im), complex(re, -im)]


def _complex_sqrt(q: complex) -> complex:
    # Branch chosen so real/imaginary inputs yield exactly real/imaginary roots.
    if q.imag == 0.0:
        if q.real >= 0.0:
            return complex(math.sqrt(q.real), 0.0)
        return complex(0.0, math.sqrt(-q.real))
    return q ** 0.5


def roots(d: Polynomial) -> list[tuple[complex, int]]:
    """Closed-form roots of a denominator polynomial, with multiplicities.

    Supports degrees 1 and 2, higher degrees after factoring out a zero
    root, and biquadratic quartics (odd coefficients all zero). Any
    repeated root or unfactorable shape raises: partial fractions over
    simple poles is the only inversion route implemented.
    """
    if d.is_zero:
        raise ValueError("zero polynomial has no well-defined roots")
    if d.degree == 0:
        raise ValueError("constant polynomial has no roots")
    if d.degree > 4:
        raise UnsupportedProblemError(f"degree {d.degree} denominator is unsupported")

    c = list(d.chopped().coeffs)
    found: list[complex] = []
    while len(c) > 1 and c[0] == 0.0:
        found.append(0j)
        c.pop(0)

    deg = len(c) - 1
    if deg == 0:
        pass
    elif deg == 1:
        found.append(complex(-c[0] / c[1]))
    elif deg == 2:
        found.extend(_quadratic_roots(c[0], c[1], c[2]))
    elif deg == 4 and c[1] == 0.0 and c[3] == 0.0:
        for q in _quadratic_roots(c[0], c[2], c[4]):
            s = _complex_sqrt(q)
            found.extend([s, -s])
    else:
        raise UnsupportedProblemError(
            f"no closed-form factorization for denominator {d.coeffs}"
        )

    found.sort(key=lambda z: (z.real, z.imag))
    for a, b in zip(found, found[1:]):
        if abs(a - b) <= ROOT_SEP_TOL * max(1.0, abs(a)):
            raise UnsupportedProblemError(
                f"repeated root near {a}: resonant problems are outside this method"
            )
    return [(z, 1) for z in found]


def partial_fractions(f: RationalFunction) -> list[tuple[complex, complex]]:
    """Decompose into sum of residue / (p - root) over simple poles.

    Returns (residue, root) pairs; complex roots appear in conjugate pairs
    with conjugate residues because the input has real coefficients.
    """
    if f.numerator.is_zero:
        return []
    dprime = f.denominator.derivative()
    out = []
    for root, _ in roots(f.denominator):
        out.append((f.numerator.evaluate(root) / dprime.evaluate(root), root))
    return out


def _require_real(value: complex, what: str) -> float:
    if abs(value.imag) > COEFF_TOL * (1.0 + abs(value)):
        raise ValueError(f"{what} has a non-cancelling imaginary part: {value}")
    return value.real


def inverse_laplace(f: RationalFunction) -> ClosedForm:
    """Invert a strictly proper rational function over the closed-form basis.

    Real roots become exponentials, with exact +/- pairs collapsed to
    cosh/sinh; pure-imaginary conjugate pairs become cos/sin. Roots with
    both parts nonzero would need exponentially damped oscillations the
    basis does not contain, so they are rejected, and so are non-finite
    roots or residues, which coefficients near the double-precision range
    produce.
    """
    pairs = partial_fractions(f)
    if not all(cmath.isfinite(res) and cmath.isfinite(root) for res, root in pairs):
        raise UnsupportedProblemError(
            f"non-finite root or residue for denominator {f.denominator.coeffs}: "
            "the coefficients are too large for double precision"
        )
    terms: list[ClosedFormTerm] = []
    consumed = [False] * len(pairs)

    def _find_partner(target: complex, start: int) -> int | None:
        for j in range(start + 1, len(pairs)):
            if consumed[j]:
                continue
            _, rj = pairs[j]
            if abs(rj - target) <= ROOT_SEP_TOL * max(1.0, abs(target)):
                return j
        return None

    for i, (res, root) in enumerate(pairs):
        if consumed[i]:
            continue
        consumed[i] = True
        scale = max(1.0, abs(root))
        is_real = abs(root.imag) <= COEFF_TOL * scale
        is_imag = abs(root.real) <= COEFF_TOL * scale

        if is_real and is_imag:
            # root at the origin: a constant
            c = _require_real(res, "residue at the origin")
            if c != 0.0:
                terms.append(ClosedFormTerm(TermKind.EXP, 0.0, c))
        elif is_real:
            j = _find_partner(-root, -1)
            if j is None:
                c = _require_real(res, f"residue at {root.real}")
                if c != 0.0:
                    terms.append(ClosedFormTerm(TermKind.EXP, root.real, c))
            else:
                consumed[j] = True
                res_j = pairs[j][0]
                if root.real > 0:
                    r_plus, r_minus, k = res, res_j, root.real
                else:
                    r_plus, r_minus, k = res_j, res, -root.real
                even = _require_real(r_plus + r_minus, f"cosh residue sum at {k}")
                odd = _require_real(r_plus - r_minus, f"sinh residue gap at {k}")
                if even != 0.0:
                    terms.append(ClosedFormTerm(TermKind.COSH, k, even))
                if odd != 0.0:
                    terms.append(ClosedFormTerm(TermKind.SINH, k, odd))
        elif is_imag:
            j = _find_partner(root.conjugate(), -1)
            if j is None:
                raise ValueError(f"imaginary root {root} has no conjugate partner")
            consumed[j] = True
            res_top = res if root.imag > 0 else pairs[j][0]
            k = abs(root.imag)
            cos_c = 2.0 * res_top.real
            sin_c = -2.0 * res_top.imag
            if cos_c != 0.0:
                terms.append(ClosedFormTerm(TermKind.COS, k, cos_c))
            if sin_c != 0.0:
                terms.append(ClosedFormTerm(TermKind.SIN, k, sin_c))
        else:
            raise UnsupportedProblemError(
                f"root {root} is neither real nor pure imaginary; damped "
                "oscillations are outside the exp/trig/hyperbolic basis"
            )
    return ClosedForm(tuple(terms))


def forward_laplace(g: ClosedForm) -> RationalFunction:
    """Transform a closed form back to a rational function.

    Each basis term contributes residues at its poles (the classical table
    entries); residues at coinciding poles are merged before the rational
    function is reassembled, so the returned denominator always has
    distinct roots.
    """
    residues: dict[complex, complex] = {}

    def _put(pole: complex, res: complex):
        residues[pole] = residues.get(pole, 0j) + res

    for t in g.terms:
        k, c = t.k, t.coeff
        if t.kind is TermKind.EXP:
            _put(complex(k, 0.0), complex(c, 0.0))
        elif t.kind is TermKind.COS:
            _put(complex(0.0, k), complex(c / 2.0, 0.0))
            _put(complex(0.0, -k), complex(c / 2.0, 0.0))
        elif t.kind is TermKind.SIN:
            _put(complex(0.0, k), complex(0.0, -c / 2.0))
            _put(complex(0.0, -k), complex(0.0, c / 2.0))
        elif t.kind is TermKind.COSH:
            _put(complex(k, 0.0), complex(c / 2.0, 0.0))
            _put(complex(-k, 0.0), complex(c / 2.0, 0.0))
        else:  # SINH
            _put(complex(k, 0.0), complex(c / 2.0, 0.0))
            _put(complex(-k, 0.0), complex(-c / 2.0, 0.0))

    if residues:
        biggest = max(abs(r) for r in residues.values())
        poles = sorted(
            (p for p, r in residues.items() if abs(r) > COEFF_TOL * biggest),
            key=lambda z: (z.real, z.imag),
        )
    else:
        poles = []
    if not poles:
        return RationalFunction(Polynomial((0.0,)), Polynomial((1.0,)))

    def _mul(a: list[complex], b: list[complex]) -> list[complex]:
        out = [0j] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    den = [complex(1.0)]
    for p in poles:
        den = _mul(den, [-p, complex(1.0)])
    num = [0j] * max(1, len(den) - 1)
    for p in poles:
        partial = [complex(1.0)]
        for q in poles:
            if q is not p:
                partial = _mul(partial, [-q, complex(1.0)])
        r = residues[p]
        for i, coef in enumerate(partial):
            num[i] += r * coef

    num_scale = max((abs(c) for c in num), default=1.0) or 1.0
    den_scale = max(abs(c) for c in den)
    num_real = [
        0.0 if abs(c) <= COEFF_TOL * num_scale else _require_real(c, "numerator coefficient")
        for c in num
    ]
    den_real = [
        0.0 if abs(c) <= COEFF_TOL * den_scale else _require_real(c, "denominator coefficient")
        for c in den
    ]
    return RationalFunction(Polynomial(tuple(num_real)), Polynomial(tuple(den_real)))
