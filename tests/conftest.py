"""Shared generators and comparison helpers for the test suite."""

from __future__ import annotations

import numpy as np

from fuzzybvp import (
    ClosedForm,
    FuzzyNumber,
    Polynomial,
    RationalFunction,
    RClosedForm,
    RFun,
)


def random_fuzzy(rng: np.random.Generator, magnitude: float = 5.0) -> FuzzyNumber:
    """Random valid fuzzy number with affine branches."""
    core_lo = rng.uniform(-magnitude, magnitude)
    core_up = core_lo + rng.uniform(0.0, magnitude)
    lo_slope = rng.uniform(0.0, 3.0)
    up_slope = -rng.uniform(0.0, 3.0)
    return FuzzyNumber(
        RFun(core_lo - lo_slope, lo_slope),
        RFun(core_up - up_slope, up_slope),
    )


def fix_r(form: RClosedForm, r: float) -> ClosedForm:
    """The plain closed form of an envelope at one level: the reference for bit-identity checks."""
    return ClosedForm(tuple((kind, k, coeff(r)) for kind, k, coeff in form.terms))


def per_point(branch: RClosedForm, xs, rs, derivative: int) -> np.ndarray:
    """Reference values: one ``fix_r`` closed form per level, one scalar x at a time."""
    out = np.empty((len(xs), len(rs)))
    for j, r in enumerate(rs):
        form = fix_r(branch, float(r))
        for _ in range(derivative):
            form = form.differentiate()
        for i, x in enumerate(xs):
            out[i, j] = float(form.evaluate(float(x)))
    return out


def _pole_group(rng: np.random.Generator, kind: str) -> Polynomial:
    if kind == "zero":
        return Polynomial((0.0, 1.0))
    if kind == "real":
        r = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        return Polynomial((-r, 1.0))
    k = rng.uniform(0.5, 3.0)
    if kind == "pmreal":
        return Polynomial((-k * k, 0.0, 1.0))
    if kind == "imag":
        return Polynomial((k * k, 0.0, 1.0))
    raise ValueError(kind)


# Denominator shapes the closed-form root extraction supports: degrees 1-2,
# degree 3 with a zero root, and biquadratic quartics.
_DENOMINATOR_MENUS = (
    ("real",),
    ("zero",),
    ("real", "real"),
    ("zero", "real"),
    ("pmreal",),
    ("imag",),
    ("zero", "pmreal"),
    ("zero", "imag"),
    ("zero", "real", "real"),
    ("pmreal", "imag"),
    ("pmreal", "pmreal"),
    ("imag", "imag"),
)


def random_supported_rational(rng: np.random.Generator) -> RationalFunction:
    """Strictly proper rational function whose poles the pipeline can invert."""
    from fuzzybvp import roots

    while True:
        menu = _DENOMINATOR_MENUS[rng.integers(len(_DENOMINATOR_MENUS))]
        den = Polynomial((1.0,))
        for kind in menu:
            den = den * _pole_group(rng, kind)
        try:
            pole_list = roots(den)
        except Exception:
            continue  # coincident factors, redraw
        if len({(round(z.real, 6), round(z.imag, 6)) for z in pole_list}) < len(pole_list):
            continue
        num_deg = int(rng.integers(0, den.degree))
        coeffs = rng.uniform(-2.0, 2.0, size=num_deg + 1)
        if np.max(np.abs(coeffs)) < 0.1:
            coeffs[-1] = 1.0
        return RationalFunction(Polynomial(tuple(coeffs)), den)


def rational_close(f: RationalFunction, g: RationalFunction, tol: float = 1e-12) -> bool:
    """Equality up to common scaling, decided by cross-multiplication."""
    lhs = f.numerator * g.denominator
    rhs = g.numerator * f.denominator
    n = max(len(lhs.coeffs), len(rhs.coeffs))
    a = lhs.coeffs + (0.0,) * (n - len(lhs.coeffs))
    b = rhs.coeffs + (0.0,) * (n - len(rhs.coeffs))
    scale = max(1.0, max(abs(x) for x in a + b))
    return all(abs(x - y) <= tol * scale for x, y in zip(a, b))


def closed_forms_close(f: ClosedForm, g: ClosedForm, tol: float = 1e-10) -> bool:
    """Term-by-term coefficient comparison (same canonical structure)."""
    keys = set(f.coeff_map()) | set(g.coeff_map())
    scale = max(
        [1.0]
        + [abs(c) for c in f.coeff_map().values()]
        + [abs(c) for c in g.coeff_map().values()]
    )
    return all(abs(f.coeff(kind, k) - g.coeff(kind, k)) <= tol * scale for kind, k in keys)


def same_function(f: ClosedForm, g: ClosedForm, tol: float = 1e-9) -> bool:
    """Pointwise comparison; insensitive to exp-vs-cosh/sinh representation."""
    xs = np.linspace(0.0, 1.5, 41)
    fv = np.atleast_1d(f.evaluate(xs))
    gv = np.atleast_1d(g.evaluate(xs))
    scale = max(1.0, float(np.max(np.abs(fv))), float(np.max(np.abs(gv))))
    return bool(np.max(np.abs(fv - gv)) <= tol * scale)
