"""The transform layer: partial fractions over closed-form roots, the
inverse transform into exp/trig/hyperbolic terms, and the forward
transform back.

The inverse normalizes exact +/- root pairs into cosh/sinh. The round
trip forward(inverse(f)) reproduces f up to a common scaling, which is
how the table is verified.
"""

import numpy as np

from fuzzybvp import (
    Polynomial,
    RationalFunction,
    forward_laplace,
    inverse_laplace,
    partial_fractions,
    roots,
)

# Roots come from the quadratic formula or, for biquadratics, a quadratic
# solve in p^2. Repeated roots are rejected: the basis has no polynomial-
# weighted terms, so resonant denominators are a hard method boundary.
quad = Polynomial((2.0, -3.0, 1.0))                 # p^2 - 3p + 2
print("roots of p^2 - 3p + 2:", roots(quad))
biquad = Polynomial((-1.3 ** 4, 0, 0, 0, 1))        # p^4 - 1.3^4
print("roots of p^4 - 1.3^4:", roots(biquad))

# Partial fractions via the residue formula num(root) / den'(root).
f = RationalFunction(Polynomial((-3.0, 1.0)), quad)  # (p-3) / (p^2-3p+2)
print("\n(p-3)/(p^2-3p+2) =")
for res, root in partial_fractions(f):
    print(f"  {res.real:+g} / (p - {root.real:g})")

# Inversion groups the poles: lone real roots give exponentials, +/- pairs
# give cosh/sinh, pure-imaginary pairs give cos/sin.
print("\ninverse transforms:")
for num, den, label in [
    (Polynomial((-3.0, 1.0)), quad, "(p-3)/(p^2-3p+2)"),
    (Polynomial((0.0, 1.0)), Polynomial((-1.0, 0.0, 1.0)), "p/(p^2-1)"),
    (Polynomial((1.0,)), Polynomial((4.0, 0.0, 1.0)), "1/(p^2+4)"),
    (Polynomial((0.0, 0.0, 1.0)), biquad, "p^2/(p^4-1.3^4)"),
]:
    g = inverse_laplace(RationalFunction(num, den))
    pretty = " + ".join(f"{coeff:g}*{kind.value}({k:g}x)" for kind, k, coeff in g.terms)
    print(f"  {label:22s} -> {pretty}")

# Round trip: transform the closed form back and compare coefficient-wise
# after cross-multiplying (scaling-insensitive).
g = inverse_laplace(f)
back = forward_laplace(g)
lhs = f.numerator * back.denominator
rhs = back.numerator * f.denominator
print("\nround trip cross-multiplied gap:",
      max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)))

# Differentiation is exact and term-wise, so a closed form can be pushed
# through its own differential operator as a residual check.
xs = np.linspace(0, 2, 5)
residual = (g.differentiate().differentiate().evaluate(xs)
            - 3 * g.differentiate().evaluate(xs) + 2 * g.evaluate(xs))
print("operator residual of the inverse on a grid:", np.max(np.abs(residual)))
