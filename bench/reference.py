"""Independent reference solutions in plain numpy.

Nothing here imports ``fuzzybvp``: the benchmark judges the program against
these envelopes, so they must not share its machinery. Every scalar branch
``a*y'' + b*y' + c*y = 0, y(0) = y0, y(L) = yL`` is solved in a
boundary-anchored basis: ``e^{m(x-L)}`` for growing roots, ``e^{mx}`` for
decaying ones, or ``cos/sin`` for a pure-imaginary pair. Every basis function
is bounded by 1 on [0, L] (or by the solution's own scale for two growing
roots), so the values stay accurate on long domains where a cosh/sinh
expansion about x = 0 cancels catastrophically.

Envelopes are affine in the membership level r, so the value at any r is
the solve with the boundary data taken at that r.

A problem is a plain dict with keys ``a, b, c, L, height`` and boundary
data ``bc0 = ((lo_c0, lo_c1), (up_c0, up_c1))`` and ``bcL`` likewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative gaps below which two characteristic roots count as repeated, or a
# trig pivot sin(wL) counts as zero; the generator keeps far away from both.
ROOT_SEP = 1e-9
TRIG_PIVOT = 1e-8

CASES = ("11", "22", "12", "21")


class Refusal(Exception):
    """The method's contract says this case must be refused."""


@dataclass(frozen=True)
class ScalarBasis:
    """Two anchored basis functions of one constant-coefficient branch."""

    kind: str  # "exp" or "trig"
    rates: tuple[float, float]
    anchors: tuple[float, float]

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "trig":
            w = self.rates[0]
            return np.stack([np.cos(w * x), np.sin(w * x)], axis=-1)
        return np.stack(
            [np.exp(m * (x - x0)) for m, x0 in zip(self.rates, self.anchors)], axis=-1
        )

    def slopes(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "trig":
            w = self.rates[0]
            return np.stack([-w * np.sin(w * x), w * np.cos(w * x)], axis=-1)
        return np.stack(
            [m * np.exp(m * (x - x0)) for m, x0 in zip(self.rates, self.anchors)], axis=-1
        )


def scalar_basis(a: float, b: float, c: float, L: float) -> ScalarBasis:
    """Anchored basis for a*y'' + b*y' + c*y = 0, or Refusal outside the method."""
    disc = b * b - 4.0 * a * c
    if disc > 0.0:
        sq = math.sqrt(disc)
        m1, m2 = (-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)
        if abs(m1 - m2) <= ROOT_SEP * max(1.0, abs(m1), abs(m2)):
            raise Refusal("repeated characteristic root")
        rates = (m1, m2)
        return ScalarBasis("exp", rates, tuple(L if m > 0.0 else 0.0 for m in rates))
    if disc < 0.0 and b == 0.0:
        w = math.sqrt(c / a)
        if abs(math.sin(w * L)) <= TRIG_PIVOT:
            raise Refusal("domain length is an eigenvalue")
        return ScalarBasis("trig", (w, w), (0.0, 0.0))
    if disc < 0.0:
        raise Refusal("damped oscillation is outside the basis")
    raise Refusal("repeated characteristic root")


class Branch:
    """One scalar boundary value problem with boundary data affine in r."""

    def __init__(self, basis: ScalarBasis, L: float, y0: tuple[float, float], yL: tuple[float, float]):
        # y0, yL are (c0, c1): y(0) = c0 + c1*r. The solution is affine in r,
        # so one solve gives the basis coefficients of the c0 and c1 parts.
        self.basis = basis
        ends = basis.values(np.array([0.0, L]))
        self.coef = np.linalg.solve(ends, np.array([[y0[0], y0[1]], [yL[0], yL[1]]]))

    def coefficients(self, rs) -> np.ndarray:
        """Basis coefficients, shape (2, len(rs))."""
        rs = np.asarray(rs, dtype=float)
        return self.coef[:, :1] + self.coef[:, 1:] * rs

    def values(self, xs, rs) -> np.ndarray:
        """Branch values on the x-by-r grid, shape (len(xs), len(rs))."""
        return self.basis.values(xs) @ self.coefficients(rs)

    def slope0(self, rs) -> tuple[np.ndarray, np.ndarray]:
        """y'(0) at each r, and the size of the terms summed to get it."""
        terms = self.basis.slopes(np.array([0.0]))[0][:, None] * self.coefficients(rs)
        return terms.sum(axis=0), np.abs(terms).sum(axis=0)


@dataclass(frozen=True)
class CaseSolution:
    """Reference envelopes and derivative constants for one case."""

    case: str
    lower_fn: object
    upper_fn: object
    constants: dict  # name -> function r -> (value, scale)

    def lower(self, xs, rs) -> np.ndarray:
        return self.lower_fn(xs, rs)

    def upper(self, xs, rs) -> np.ndarray:
        return self.upper_fn(xs, rs)


def _combine(p: tuple[float, float], q: tuple[float, float], sign: float):
    return (p[0] + sign * q[0], p[1] + sign * q[1])


def solve_case(prob: dict, case: str) -> CaseSolution:
    """Reference solution of one differentiability case, or Refusal."""
    a, b, c, L = prob["a"], prob["b"], prob["c"], prob["L"]
    (lo0, up0), (loL, upL) = prob["bc0"], prob["bcL"]
    if case in ("11", "22"):
        basis = scalar_basis(a, b, c, L)
        lower = Branch(basis, L, lo0, loL)
        upper = Branch(basis, L, up0, upL)
        d_lower, d_upper = lower.slope0, upper.slope0
        names = ("F1", "F2") if case == "11" else ("F2", "F1")
        return CaseSolution(
            case, lower.values, upper.values, {names[0]: d_lower, names[1]: d_upper}
        )
    if case not in ("12", "21"):
        raise ValueError(f"unknown case {case!r}")
    if b != 0.0:
        raise Refusal("mixed cases need b = 0")
    kappa = -(c + prob["height"]) / a
    if not kappa > 0.0:
        raise Refusal("mixed cases need kappa > 0")
    # s = lower + upper solves s'' = kappa*s; d = lower - upper solves d'' = -kappa*d.
    s = Branch(scalar_basis(1.0, 0.0, -kappa, L), L, _combine(lo0, up0, 1.0), _combine(loL, upL, 1.0))
    d = Branch(scalar_basis(1.0, 0.0, kappa, L), L, _combine(lo0, up0, -1.0), _combine(loL, upL, -1.0))

    def half(sign: float):
        def values(xs, rs):
            return 0.5 * (s.values(xs, rs) + sign * d.values(xs, rs))

        def slope(rs):
            (sv, ss), (dv, ds) = s.slope0(rs), d.slope0(rs)
            return 0.5 * (sv + sign * dv), 0.5 * (ss + ds)

        return values, slope

    (lower_v, lower_s), (upper_v, upper_s) = half(1.0), half(-1.0)
    return CaseSolution(case, lower_v, upper_v, {"H1": lower_s, "H2": upper_s})


def solve_all(prob: dict) -> dict:
    """Case tag -> CaseSolution, or the Refusal the method contract predicts."""
    out = {}
    for case in CASES:
        try:
            out[case] = solve_case(prob, case)
        except Refusal as exc:
            out[case] = exc
    return out
