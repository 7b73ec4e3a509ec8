"""Failure classifier: compares program outputs with the reference.

A problem fails when any of these happen:

- a call raises anything other than a ``FuzzyBvpError``;
- the CLI exits with a code the reference does not predict;
- a returned value differs from the reference by more than ``REL_TOL``
  relative to that branch's max |reference| on the grid;
- a case the reference can solve is refused, or one the method must refuse
  is solved.

Every function returns a list of reasons; an empty list means no failure.
Program outcomes arrive as plain values (arrays, dicts, exceptions), so this
module needs no ``fuzzybvp`` import.

A value mismatch carries its relative error, so a caller can tell a loss of
accuracy (the closed forms cancel as k*L grows) from a structural failure:
an exception, a wrong exit code, a wrong refusal or a non-finite value.
"""

from __future__ import annotations

import numpy as np

from reference import CaseSolution, Refusal

REL_TOL = 1e-8
# x and r columns are grid coordinates printed with 17 significant digits.
GRID_REL_TOL = 1e-12
# ``check_level_set`` tests with this absolute slack.
GRID_TOL = 1e-10
CSV_HEADER = "x,r,lower,upper"


class Failure(str):
    """A failure reason; ``rel_error`` is set for finite value mismatches."""

    rel_error: float | None = None


def value_failure(message: str, rel_error: float) -> Failure:
    failure = Failure(message)
    failure.rel_error = rel_error
    return failure


def is_structured_error(exc: BaseException) -> bool:
    """True for the library's ``FuzzyBvpError`` family, matched by class name."""
    return any(cls.__name__ == "FuzzyBvpError" for cls in type(exc).__mro__)


def check_outcome(case: str, ref, outcome) -> list[str]:
    """Refusal agreement; ``outcome`` is an exception or None when solved."""
    if outcome is not None and not is_structured_error(outcome):
        return [f"case {case}: raised {type(outcome).__name__}: {outcome}"]
    if isinstance(ref, Refusal) and outcome is None:
        return [f"case {case}: solved a case the method must refuse ({ref})"]
    if not isinstance(ref, Refusal) and outcome is not None:
        return [f"case {case}: refused a solvable case: {type(outcome).__name__}: {outcome}"]
    return []


def compare(what: str, prog, ref) -> list[str]:
    """Relative gap of ``prog`` to ``ref`` against max |ref|."""
    prog = np.asarray(prog, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if prog.shape != ref.shape:
        return [f"{what}: shape {prog.shape}, expected {ref.shape}"]
    scale = float(np.max(np.abs(ref)))
    if not np.all(np.isfinite(prog)):
        return [f"{what}: non-finite value"]
    err = float(np.max(np.abs(prog - ref)))
    if err > REL_TOL * scale:
        return [value_failure(f"{what}: relative error {err / scale:.3e}", err / scale)]
    return []


def check_envelopes(ref: CaseSolution, xs, rs, lower, upper) -> list[str]:
    """``lower``/``upper`` are program values on the x-by-r grid."""
    return compare(f"case {ref.case} lower", lower, ref.lower(xs, rs)) + compare(
        f"case {ref.case} upper", upper, ref.upper(xs, rs)
    )


def check_constants(ref: CaseSolution, rs, constants: dict) -> list[str]:
    """``constants`` maps a name to program values at each r in ``rs``.

    A constant is y'(0) of one branch, a sum of basis terms; its error is
    judged against the larger of its value and the size of those terms.
    """
    reasons = []
    if set(constants) != set(ref.constants):
        return [f"case {ref.case}: constants {sorted(constants)}, expected {sorted(ref.constants)}"]
    for name, fn in ref.constants.items():
        value, terms = fn(np.asarray(rs, dtype=float))
        prog = np.asarray(constants[name], dtype=float)
        scale = np.maximum(np.abs(value), terms)
        if not np.all(np.isfinite(prog)):
            reasons.append(f"case {ref.case} {name}: non-finite value")
        elif np.any(np.abs(prog - value) > REL_TOL * scale):
            rel = float(np.max(np.abs(prog - value) / scale))
            reasons.append(value_failure(f"case {ref.case} {name}: relative error {rel:.3e}", rel))
    return reasons


def check_verdict(ref: CaseSolution, xs, rs, flags: dict) -> list[str]:
    """Level-set flags of ``check_level_set``, where the reference is decisive.

    The grid verdict compares r-neighbours and branch gaps with ``GRID_TOL``
    slack. A flag is judged only when the reference margin clears that test
    by more than the values' own tolerance, so rounding cannot flip it.
    """
    lo, up = ref.lower(xs, rs), ref.upper(xs, rs)
    scale = max(float(np.max(np.abs(lo))), float(np.max(np.abs(up))))
    slack = 4.0 * REL_TOL * scale
    margins = {
        "monotone_lower_in_r": float(np.min(np.diff(lo, axis=1))) + GRID_TOL,
        "monotone_upper_in_r": float(np.min(-np.diff(up, axis=1))) + GRID_TOL,
        "ordered": float(np.min(up - lo)) + GRID_TOL,
    }
    reasons = []
    for name, margin in margins.items():
        if abs(margin) > slack and flags[name] != (margin >= 0.0):
            reasons.append(f"case {ref.case}: {name} = {flags[name]}, reference margin {margin:.3e}")
    return reasons


def expected_exit(refs: dict, cases) -> int:
    """CLI exit code the reference predicts for the requested cases."""
    return 0 if any(not isinstance(refs[c], Refusal) for c in cases) else 1


def check_csv(ref: CaseSolution, stream, xs, rs) -> list[str]:
    """Every row of a ``case_<tag>.csv`` read from the text ``stream``: grid
    columns and both envelopes. Rows are parsed in chunks, so checking adds
    little to the process's peak memory."""
    header = stream.readline().rstrip("\n")
    if header != CSV_HEADER:
        return [f"case {ref.case} csv: header {header!r}"]
    try:
        table = np.loadtxt(stream, delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"case {ref.case} csv: unparsable row ({exc})"]
    nx, nr = len(xs), len(rs)
    if table.shape != (nx * nr, 4):
        return [f"case {ref.case} csv: shape {table.shape}, expected {(nx * nr, 4)}"]
    grid = table.reshape(nx, nr, 4)
    reasons = []
    for col, want, name in ((0, xs[:, None], "x"), (1, rs[None, :], "r")):
        gap = np.abs(grid[:, :, col] - want)
        if np.any(gap > GRID_REL_TOL * max(1.0, float(np.max(np.abs(want))))):
            reasons.append(f"case {ref.case} csv: {name} column off the grid")
    return reasons + check_envelopes(ref, xs, rs, grid[:, :, 2], grid[:, :, 3])
