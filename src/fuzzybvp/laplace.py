"""Rational-function algebra in the transform variable and the table-driven
transform between it and exp/trig/hyperbolic closed forms.

Everything is double precision; root extraction is closed form only
(quadratic formula, biquadratic quartics), which covers every denominator
the solver pipeline can produce. Repeated roots are rejected outright
rather than extending the basis with polynomial-weighted terms, and so is
a leading coefficient too small next to the others to keep its root.
Symmetric roots come out exact, by negation or conjugation, so the
inverse pairs them by lookup, not by a tolerance.

``ClosedForm`` (float coefficients, from ``inverse_laplace``) and
``RClosedForm`` (coefficients affine in r, the solution envelopes) both
hold plain (kind, k, coeff) triples and share one normal form,
``_canonical``, and one derivative rule, ``_derivative``. The solver takes
the fundamental pair (phi, psi) of each operator from ``fundamental_pair``,
one inversion and one construction of phi, then builds each envelope with
``RClosedForm.combine`` and sizes it with ``ClosedForm.bounds``.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import UnsupportedProblemError
from .fuzzy import RFun

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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0.0)
        return Polynomial(tuple(x + y for x, y in pairs))

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

    # members are singletons compared by identity; Enum.__hash__ is Python-level
    __hash__ = object.__hash__


_KIND_ORDER = {kind: i for i, kind in enumerate(TermKind)}

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
# The transform of each kind at rate k as (pole / k, residue / coeff) pairs,
# +pole first: l[cos(k*x)] = (1/2)/(p - ik) + (1/2)/(p + ik), and so on.
_RESIDUES = {
    TermKind.EXP: ((1 + 0j, 1 + 0j),),
    TermKind.COS: ((1j, 0.5 + 0j), (-1j, 0.5 + 0j)),
    TermKind.SIN: ((1j, -0.5j), (-1j, 0.5j)),
    TermKind.COSH: ((1 + 0j, 0.5 + 0j), (-1 + 0j, 0.5 + 0j)),
    TermKind.SINH: ((1 + 0j, 0.5 + 0j), (-1 + 0j, -0.5 + 0j)),
}


def _order(term) -> tuple:
    """The canonical order of terms and (kind, k) keys: by kind, then rate."""
    return _KIND_ORDER[term[0]], term[1]


def _canonical(terms, is_zero) -> list:
    """(kind, k, coeff) triples with equal keys summed in first-seen order,
    ``is_zero`` sums dropped, and the rest sorted by kind, then rate."""
    merged = {}
    for kind, k, coeff in terms:
        key = (kind, k)
        merged[key] = merged[key] + coeff if key in merged else coeff
    kept = [(kind, k, coeff) for (kind, k), coeff in merged.items() if not is_zero(coeff)]
    return sorted(kept, key=_order)


def _derivative(terms) -> list:
    """d/dx of (kind, k, coeff) triples, coeff a float or an array; EXP(0) drops out."""
    return [
        (_DERIVATIVE[kind][0], k, _DERIVATIVE[kind][1] * coeff * k)
        for kind, k, coeff in terms
        if not (kind is TermKind.EXP and k == 0.0)
    ]


@dataclass(frozen=True)
class ClosedForm:
    """Finite sum of exp/cos/sin/cosh/sinh terms, (kind, k, coeff) triples.

    Normalized so no two terms share a (kind, rate) pair; differentiation
    stays inside the basis, which is what makes residual checks exact.
    Every term is finite, and the trig and hyperbolic rates are strictly
    positive; a zero rate is only meaningful as the constant EXP(0).
    """

    terms: tuple[tuple[TermKind, float, float], ...] = ()

    def __post_init__(self):
        terms = tuple(_canonical(self.terms, lambda c: c == 0.0))
        for kind, k, coeff in terms:
            if not math.isfinite(coeff) or not math.isfinite(k):
                raise ValueError(f"non-finite term {kind.value}, rate {k}, coefficient {coeff}")
            if kind is not TermKind.EXP and k <= 0:
                raise ValueError(f"{kind.value} requires a positive rate, got {k}")
        object.__setattr__(self, "terms", terms)

    def evaluate(self, x):
        if not self.terms:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        (kind, k, coeff), *rest = self.terms
        total = coeff * _BASIS[kind](k * x)
        for kind, k, coeff in rest:
            total = total + coeff * _BASIS[kind](k * x)
        return total

    def differentiate(self) -> "ClosedForm":
        return ClosedForm(tuple(_derivative(self.terms)))

    def bounds(self, L: float) -> tuple[float, float, float]:
        """Sj = sum of |coeff|*|k|^j*peak, j = 0, 1, 2, bounds the j-th x-derivative
        on [0, L]; the peak is 1 for cos and sin, else e^{max(k, 0)*L}."""
        s0 = s1 = s2 = 0.0
        for kind, k, coeff in self.terms:
            bounded = kind in (TermKind.COS, TermKind.SIN)
            try:
                size = abs(coeff) * (1.0 if bounded else math.exp(max(k, 0.0) * L))
            except OverflowError:  # math.exp
                size = math.inf
            s0 += size
            s1 += size * abs(k)
            s2 += size * k * k
        return s0, s1, s2


@dataclass(frozen=True)
class RClosedForm:
    """Closed form whose term coefficients are affine functions of r.

    The terms are ``(kind, k, RFun)`` triples, normalized like ``ClosedForm``.
    """

    terms: tuple[tuple[TermKind, float, RFun], ...]

    def __post_init__(self):
        canonical = _canonical(self.terms, lambda c: c.c0 == 0.0 and c.c1 == 0.0)
        object.__setattr__(self, "terms", tuple(canonical))

    @classmethod
    def combine(cls, weighted) -> "RClosedForm":
        """Sum of w*form over (RFun w, ClosedForm form) pairs, terms merged in pair order."""
        return cls(tuple((kind, k, w.scaled(c)) for w, f in weighted for kind, k, c in f.terms))

    def evaluate(self, x, r: float):
        """Envelope at level r: a scalar for scalar x, else an array shaped like x."""
        values = evaluate_grids((self,), np.ravel(x), (r,))[0, 0, :, 0]
        return values[0] if np.ndim(x) == 0 else values.reshape(np.shape(x))


def evaluate_grids(forms, xs, rs, orders=(0,)) -> np.ndarray:
    """The x-derivatives named by ``orders`` (0 is the form itself) of each form
    on one x-by-r grid, shape (len(forms), len(orders), len(xs), len(rs)), with
    the bits of the plain closed form at each level, differentiated and
    evaluated term by term: each (kind, k) basis is evaluated once for all
    forms and orders, and one pass over the keys in canonical order
    (``_derivative`` maps each key to one key) sums every (form, order,
    level) column in its own canonical order. A zero coefficient is masked
    out of its column, so -0.0 keeps its sign, a column with no live term is
    +0.0 and no 0*inf crosses forms.
    """
    xs = np.asarray(xs, dtype=float)
    rs = np.asarray(rs, dtype=float)
    columns = []  # the (kind, k, coeff) terms of each (form, order)
    for form in forms:
        by_order = [[(kind, k, coeff(rs)) for kind, k, coeff in form.terms]]
        for _ in range(max(orders)):
            by_order.append(_derivative(by_order[-1]))
        columns += [by_order[d] for d in orders]
    keys = sorted({(kind, k) for terms in columns for kind, k, _ in terms}, key=_order)
    coeffs = np.zeros((len(keys), len(columns), rs.size))
    for c, terms in enumerate(columns):
        for kind, k, cr in terms:
            coeffs[keys.index((kind, k)), c] = cr
    # one row per (form, order, level), with x along it
    coeffs = coeffs.reshape(len(keys), len(columns) * rs.size, 1)
    nonzero = coeffs != 0.0
    # -0.0 is the exact additive identity: a first term enters unchanged
    total = np.full((len(columns) * rs.size, xs.size), -0.0)
    term = np.empty_like(total)
    for i in np.flatnonzero(nonzero.any(axis=(1, 2))):
        kind, k = keys[i]
        where = True if nonzero[i].all() else nonzero[i]  # True skips the masked loop
        np.multiply(coeffs[i], _BASIS[kind](k * xs), out=term, where=where)
        np.add(total, term, out=total, where=where)
    total[~nonzero.any(axis=(0, 2))] = 0.0
    return total.reshape(len(forms), len(orders), rs.size, xs.size).transpose(0, 1, 3, 2)


def _quadratic_roots(c0: float, c1: float, c2: float) -> list[complex]:
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc >= 0.0:
        sq = math.sqrt(disc)
        if c1 == 0.0:
            # exact negatives, which inverse_laplace pairs into cosh/sinh
            return [sq / (2.0 * c2), -sq / (2.0 * c2)]
        # q adds two numbers of one sign, and c0/q (Vieta) gives the small
        # root that -c1 + sq would lose to cancellation
        q = -(c1 + math.copysign(sq, c1)) / 2.0
        return [q / c2, c0 / q]
    re = -c1 / (2.0 * c2)
    im = math.sqrt(-disc) / (2.0 * c2)
    return [complex(re, im), complex(re, -im)]


def roots(d: Polynomial) -> list[complex]:
    """Closed-form roots of a denominator polynomial; every root is simple.

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

    # only the leading coefficient is held against the others: a small
    # middle or constant coefficient still sets a root and is kept
    top = max(abs(v) for v in d.coeffs)
    if abs(d.coeffs[-1]) <= COEFF_TOL * top:
        raise UnsupportedProblemError(
            f"leading coefficient of denominator {d.coeffs} is negligible next to "
            "the largest one: the roots it sets are beyond double precision"
        )
    c = list(d.coeffs)
    if top < 0.5:  # scale exactly by a power of two into [0.5, 1): b*b - 4*a*c cannot underflow
        c = [math.ldexp(v, -math.frexp(top)[1]) for v in c]
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
            s = cmath.sqrt(q)
            found.extend([s, -s])
    else:
        raise UnsupportedProblemError(
            f"no closed-form factorization for denominator {d.coeffs}"
        )

    if not all(cmath.isfinite(z) for z in found):
        raise UnsupportedProblemError(
            f"non-finite root or residue for denominator {d.coeffs}: "
            "the coefficients are too large for double precision"
        )
    found.sort(key=lambda z: (z.real, z.imag))
    for a, b in zip(found, found[1:]):
        if abs(a - b) <= ROOT_SEP_TOL * max(1.0, abs(a)):
            raise UnsupportedProblemError(
                f"repeated root near {a}: resonant problems are outside this method"
            )
    return found


def partial_fractions(f: RationalFunction) -> list[tuple[complex, complex]]:
    """Decompose into sum of residue / (p - root) over simple poles.

    Returns (residue, root) pairs; complex roots appear in conjugate pairs
    with conjugate residues because the input has real coefficients.
    """
    if f.numerator.is_zero:
        return []
    dprime = f.denominator.derivative()
    out = []
    for root in roots(f.denominator):
        out.append((f.numerator.evaluate(root) / dprime.evaluate(root), root))
    return out


def inverse_laplace(f: RationalFunction) -> ClosedForm:
    """Invert a strictly proper rational function over the closed-form basis.

    One pass over the residue of each root, as ``roots`` forms them: the
    origin gives a constant, a real root an exponential, and a real root
    whose exact negation is also a root pairs with it into cosh/sinh at the
    positive rate. A pure-imaginary root gives cos/sin at its positive
    frequency; its conjugate carries the conjugate residue. Nearly
    symmetric real roots are not a pair and stay two exponentials. Roots
    with both parts nonzero would need exponentially damped oscillations
    the basis does not contain, so they are rejected. Coefficients near the
    double-precision range produce non-finite roots, which ``roots``
    refuses, or non-finite residues, which are refused here.
    """
    residues = {root: res for res, root in partial_fractions(f)}
    if not all(cmath.isfinite(res) for res in residues.values()):
        raise UnsupportedProblemError(
            f"non-finite root or residue for denominator {f.denominator.coeffs}: "
            "the coefficients are too large for double precision"
        )
    terms = []
    for root, res in residues.items():
        if root == 0:
            terms.append((TermKind.EXP, 0.0, res.real))
        elif root.imag == 0.0 and -root not in residues:
            terms.append((TermKind.EXP, root.real, res.real))
        elif root.imag == 0.0:
            if root.real > 0:  # the pair is emitted once, at its positive root
                terms.append((TermKind.COSH, root.real, (res + residues[-root]).real))
                terms.append((TermKind.SINH, root.real, (res - residues[-root]).real))
        elif root.real == 0.0:
            if root.imag > 0:  # the lower conjugate carries the conjugate residue
                terms.append((TermKind.COS, root.imag, 2.0 * res.real))
                terms.append((TermKind.SIN, root.imag, -2.0 * res.imag))
        else:
            raise UnsupportedProblemError(
                f"root {root} is neither real nor pure imaginary; damped "
                "oscillations are outside the exp/trig/hyperbolic basis"
            )
    return ClosedForm(tuple(terms))


def fundamental_pair(a: float, b: float, c: float) -> tuple[ClosedForm, ClosedForm]:
    """The fundamental pair (phi, psi) of a*y'' + b*y' + c*y = 0.

    With y(0) = y0 and y'(0) = F kept symbolic, l[y'] = p*l[y] - y(0) and
    l[y''] = p^2*l[y] - p*y(0) - y'(0) give

        (a p^2 + b p + c) l[y] = y0*(a p + b) + F*a,

    so y = y0*phi + F*psi. Only psi = l^-1[a / (a p^2 + b p + c)] is
    inverted. Since psi(0) = 0, the same rule gives l[psi'] = p*l[psi], so
    phi = psi' + (b/a)*psi, formed with the exact term-wise derivative.
    """
    psi = inverse_laplace(RationalFunction(Polynomial((a,)), Polynomial((c, b, a))))
    gain = b / a
    scaled = ((kind, k, gain * coeff) for kind, k, coeff in psi.terms)
    return ClosedForm((*_derivative(psi.terms), *scaled)), psi


def forward_laplace(g: ClosedForm) -> RationalFunction:
    """Transform a closed form back to a rational function.

    Each basis term contributes residues at its poles, read from the
    classical table ``_RESIDUES``, merged at coinciding poles. The result is
    a sum of one real rational function per pole group, grouped as
    ``inverse_laplace`` pairs them: +-iw, with r the residue at +iw, gives
    (2*Re r*p - 2w*Im r)/(p^2 + w^2); real +-k gives
    ((r+ + r-)*p + k*(r+ - r-))/(p^2 - k^2); any other pole r/(p - pole).
    So a denominator whose poles all come in +- pairs is a product of even
    factors, with odd coefficients exactly zero, as ``roots`` needs.
    """
    residues: dict[complex, complex] = {}
    for kind, k, c in g.terms:
        for pole, res in _RESIDUES[kind]:
            residues[k * pole] = residues.get(k * pole, 0j) + c * res

    # a pole whose residues cancel exactly is no pole of the transform
    residues = {pole: r for pole, r in residues.items() if r != 0}
    total = RationalFunction(Polynomial((0.0,)), Polynomial((1.0,)))
    for pole, r in residues.items():
        if pole.imag != 0.0:
            if pole.imag < 0:  # the conjugate residue of the pair at +iw
                continue
            w = pole.imag
            num, den = (-2.0 * w * r.imag, 2.0 * r.real), (w * w, 0.0, 1.0)
        elif pole.real != 0.0 and -pole in residues:
            if pole.real < 0:  # the pair is formed once, at its positive pole
                continue
            k, r_minus = pole.real, residues[-pole].real
            num, den = (k * (r.real - r_minus), r.real + r_minus), (-k * k, 0.0, 1.0)
        else:
            num, den = (r.real,), (-pole.real, 1.0)
        total = total + RationalFunction(Polynomial(num), Polynomial(den))
    return total
