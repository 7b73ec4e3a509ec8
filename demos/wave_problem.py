"""A wave-equation style problem u'' = u with fuzzy boundary values,
solved under a decoupled case and under a coupled (mixed) case.

Under cases 11/22 the branches separate into two classical problems.
Under the mixed cases the derivative endpoint swap couples them into
a*lower'' = kappa*upper and a*upper'' = kappa*lower. The sum
s = lower + upper solves a*s'' = kappa*s (cosh/sinh) and the difference
d = lower - upper solves a*d'' = -kappa*d (cos/sin), so the coupled pair
is again two classical problems. Both routes eliminate the unknown
initial derivatives with the far boundary condition.
"""

import numpy as np

from fuzzybvp import DiffCase, FuzzyBVP, FuzzyNumber, RFun, residual_ode, solve

prob = FuzzyBVP(
    a=1.0, b=0.0, c=-1.0, L=1.0,
    bc0=FuzzyNumber(RFun(1, 1), RFun(3, -1)),   # (1+r, 3-r)
    bcL=FuzzyNumber(RFun(4, 1), RFun(6, -1)),   # (4+r, 6-r)
    case=DiffCase.CASE_11,
)


def show(sol, title):
    print(f"\n{title}")
    for name, rf in sorted(sol.constants.items()):
        print(f"  {name}(r) = {rf.c0:.6g} {rf.c1:+.6g}*r")
    for label, branch in (("lower", sol.lower), ("upper", sol.upper)):
        pretty = " + ".join(
            f"({c.c0:.4g}{c.c1:+.4g}r)*{kind.value}({k:g}x)"
            for kind, k, c in branch.terms
        )
        print(f"  {label}(x,r) = {pretty}")
    xs = np.linspace(0, 1, 5)
    print("  envelope at r=0:  ",
          np.array2string(np.asarray(sol.lower.evaluate(xs, 0.0)), precision=4), "..",
          np.array2string(np.asarray(sol.upper.evaluate(xs, 0.0)), precision=4))
    print("  crisp core (r=1): ",
          np.array2string(np.asarray(sol.lower.evaluate(xs, 1.0)), precision=4))
    print("  max operator residual:", residual_ode(sol))


# Decoupled: each branch is cosh/sinh with its own shooting constant.
show(solve(prob), "case 11 (branches decouple)")

# Coupled: the same data under mixed differentiability. The crisp core
# (r = 1) is identical in both cases; the envelopes differ.
from dataclasses import replace
show(solve(replace(prob, case=DiffCase.CASE_12)), "case 12 (branches couple)")
