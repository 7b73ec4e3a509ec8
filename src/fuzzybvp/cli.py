"""Problem-file ingestion and the command-line front end.

Problem files are plain-text sections of ``key = value`` lines; see the
README for the grammar. The tool writes three artifacts per run: a
human-readable solution summary, one CSV of envelope samples per solved
case, and a validity report block per requested case. Each case comes from
``check_case`` or ``enumerate_cases``, which also run ``--oracle``'s check.

Exit codes: 0 when at least one requested case produced a solution,
1 when every requested case failed (under ``--oracle``, an oracle refusal
fails its case), 2 when the file cannot be read (missing, or not UTF-8) or
parsed or the output directory cannot be written, 3 on an unexpected
internal error (reported as one ``error: internal:`` line).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidFuzzyNumberError, ProblemFormatError
from .fuzzy import FuzzyNumber, RFun, triangular
from .laplace import evaluate_grids
from .solver import ALL_CASES, DiffCase, FuzzyBVP
from .validate import CaseResult, check_case, enumerate_cases

CASE_CHOICES = (*(case.tag for case in ALL_CASES), "all")

_SECTIONS = {
    "ode": {"a", "b", "c"},
    "domain": {"L"},
    "bc0": {"triangular", "lower", "upper"},
    "bcL": {"triangular", "lower", "upper"},
    "solve": {"case"},
    "potential": {"height"},
    "output": {"r_levels", "x_samples"},
}


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem file: the BVP data plus run configuration."""

    problem: FuzzyBVP
    case_request: str
    r_levels: int
    x_samples: int


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    header_lines: dict[str, int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a comment runs from the first '#' or ';' to the end of the line;
        # no section name, key or value contains either character
        line = re.split("[#;]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProblemFormatError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ProblemFormatError(f"unknown section [{name}]", lineno)
            if name in header_lines:
                raise ProblemFormatError(
                    f"section [{name}] already given at line {header_lines[name]}", lineno
                )
            header_lines[name] = lineno
            current = name
            sections[name] = {}
            continue
        if "=" not in line:
            raise ProblemFormatError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ProblemFormatError(f"key outside any section: {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[current]:
            raise ProblemFormatError(f"unknown key {key!r} in section [{current}]", lineno)
        body = sections[current]
        for first, (_, first_line) in body.items():
            # a boundary value is a triangular number or a pair of branches, never both
            if first == key or "triangular" in (first, key):
                raise ProblemFormatError(
                    f"ambiguous key {key!r} in section [{current}]: "
                    f"{first!r} already given at line {first_line}",
                    lineno,
                )
        body[key] = (value.strip(), lineno)
    return sections


def _get_float(sections, section: str, key: str, default: float | None = None) -> float:
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if default is not None:
            return default
        raise ProblemFormatError(f"missing key {key!r} in section [{section}]")
    value, lineno = entry
    try:
        out = float(value)
    except ValueError:
        raise ProblemFormatError(f"invalid number for {key!r}: {value!r}", lineno) from None
    if not math.isfinite(out):
        raise ProblemFormatError(f"{key} must be finite, got {out}", lineno)
    return out


def _get_int(sections, section: str, key: str, default: int) -> int:
    entry = sections.get(section, {}).get(key)
    if entry is None:
        return default
    value, lineno = entry
    try:
        out = int(value)
    except ValueError:
        raise ProblemFormatError(f"invalid integer for {key!r}: {value!r}", lineno) from None
    if out < 2:
        raise ProblemFormatError(f"{key!r} must be at least 2, got {out}", lineno)
    return out


def _parse_floats(value: str, count: int, key: str, lineno: int) -> list[float]:
    parts = value.split()
    if len(parts) != count:
        raise ProblemFormatError(
            f"{key!r} needs {count} space-separated numbers, got {value!r}", lineno
        )
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ProblemFormatError(f"invalid number in {key!r}: {value!r}", lineno) from None


def _parse_bc(sections, section: str) -> FuzzyNumber:
    body = sections[section]
    if "triangular" in body:
        value, lineno = body["triangular"]
        left, center, right = _parse_floats(value, 3, "triangular", lineno)
        try:
            return triangular(left, center, right)
        except InvalidFuzzyNumberError as exc:
            raise ProblemFormatError(str(exc), lineno) from None
    if "lower" not in body or "upper" not in body:
        raise ProblemFormatError(
            f"section [{section}] needs either 'triangular' or both 'lower' and 'upper'"
        )
    lo_val, lo_line = body["lower"]
    up_val, up_line = body["upper"]
    lo = _parse_floats(lo_val, 2, "lower", lo_line)
    up = _parse_floats(up_val, 2, "upper", up_line)
    try:
        return FuzzyNumber(RFun(*lo), RFun(*up))
    except InvalidFuzzyNumberError as exc:
        raise ProblemFormatError(str(exc), lo_line) from None


def parse_problem_text(text: str) -> ProblemSpec:
    """Parse a problem file into a ProblemSpec, or raise ProblemFormatError."""
    sections = _parse_sections(text)
    for required in ("ode", "domain", "bc0", "bcL"):
        if required not in sections:
            raise ProblemFormatError(f"missing section [{required}]")

    case_entry = sections.get("solve", {}).get("case")
    if case_entry is None:
        case_request = "all"
    else:
        case_request, lineno = case_entry
        if case_request not in CASE_CHOICES:
            raise ProblemFormatError(
                f"case must be one of {'|'.join(CASE_CHOICES)}, got {case_request!r}", lineno
            )

    # every field is parsed, in file order, before the problem is built, so
    # a malformed field is reported ahead of an out-of-range value
    fields = dict(
        a=_get_float(sections, "ode", "a"),
        b=_get_float(sections, "ode", "b"),
        c=_get_float(sections, "ode", "c"),
        L=_get_float(sections, "domain", "L"),
        bc0=_parse_bc(sections, "bc0"),
        bcL=_parse_bc(sections, "bcL"),
        v_height=_get_float(sections, "potential", "height", default=0.0),
    )
    r_levels = _get_int(sections, "output", "r_levels", 11)
    x_samples = _get_int(sections, "output", "x_samples", 101)
    try:
        problem = FuzzyBVP(**fields)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    return ProblemSpec(problem, case_request, r_levels, x_samples)


def parse_problem_file(path) -> ProblemSpec:
    # utf-8-sig also reads a file saved with a byte-order mark
    return parse_problem_text(Path(path).read_text(encoding="utf-8-sig"))


def _solve_requested(spec: ProblemSpec, oracle: bool) -> list[CaseResult]:
    grid = (spec.x_samples, spec.r_levels)
    if spec.case_request == "all":
        return enumerate_cases(spec.problem, *grid, oracle=oracle)
    return [check_case(spec.problem, DiffCase(spec.case_request), *grid, oracle=oracle)]


# Every value of the CSV is f"{v:.16e}". For |v| in [_FAST_MIN, _FAST_MAX] the
# 17 correctly rounded digits are computed in numpy: with E = floor(log10|v|),
# t = |v|*10**(16 - E) lies in [1e16, 1e17) and the digits are round(t).
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# 16 - E over the fast range, with log10's E one off either way
_K_MIN, _K_MAX = 16 - 282, 16 + 282
# Veltkamp's constant: splits a double into two 26-bit halves (Dekker 1971)
_SPLIT = 2.0**27 + 1.0
# t is formed as p + e with an error below 5e-15 (see _e16_fast); a fraction
# of e this close to 1/2 may be a tie or on the wrong side, so Python rounds it
_GUARD = 2.0**-40
# slots of one field: sign, d, '.', 16 digits, 'e', sign, 3 exponent digits
_E16_WIDTH = 24
_BLOCK = 8192


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """10**k = hi + lo for k in [_K_MIN, _K_MAX]: hi is 10**k rounded to a
    double and lo the rounded remainder, both from exact integer ratios."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # int / int rounds correctly
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    return np.array(hi), np.array(lo)


_POW10_HI, _POW10_LO = _pow10_table()


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = a*10**(16 - e10) as p + e: p, err = a*hi exactly, by Dekker's
    product with Veltkamp's split (no FMA), and e = err + a*lo."""
    k = 16 - _K_MIN - e10
    hi, lo = _POW10_HI[k], _POW10_LO[k]
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * hi
    h_hi = c - (c - hi)
    h_lo = hi - h_hi
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    return p, err + a * lo


def _e16_fast(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write f"{v:.16e}" of each value into the columns of out (one slot a
    row, NUL in an unused sign or exponent-hundreds slot) and return where
    that text is proven; Python formats the rest.

    The error of p + e against t: 10**k = hi + lo + d with |lo| <= 2**-53*hi
    and |d| <= 2**-106*hi, and t < 2**57 once E is right. So |a*d| < 2**-49,
    fl(a*lo) errs by < 2**-50 (|a*lo| < 16), and err + fl(a*lo) (< 8 + 16)
    rounds by < 2**-49: |t - (p + e)| < 5*2**-50 < 5e-15. f = e - floor(e) is
    exact but for e in (-1/2, 0), where it errs by 2**-54. Beyond _GUARD of
    1/2, f and the fraction of t fall on the same side of 1/2, so
    N = p + floor(e) + (f > 1/2) is round(t), and p >= 2**53 is an integer.
    """
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # False for 0, inf and nan
    a[~fast] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    p, e = _scaled(a, e10)
    # log10 is within an ulp, so E is at most one off, near a power of ten;
    # where p + e cannot tell t from 1e16 or 1e17, either E gives the same text
    step = ((p - 1e17) + e >= 0).astype(np.int64) - ((p - 1e16) + e < 0)
    redo = np.flatnonzero(step)
    if redo.size:
        e10[redo] += step[redo]
        p[redo], e[redo] = _scaled(a[redo], e10[redo])
    whole = np.floor(e)
    f = e - whole
    fast &= np.abs(f - 0.5) > _GUARD
    n = p.astype(np.int64) + whole.astype(np.int64) + (f > 0.5)
    carry = n == 10**17
    n[carry] = 10**16
    e10 += carry

    out[0] = np.where(v < 0, ord("-"), 0)
    out[2] = ord(".")
    out[19] = ord("e")
    out[20] = np.where(e10 < 0, ord("-"), ord("+"))
    # the leading nine digits, then the last eight: each part fits uint32,
    # whose division by a scalar numpy runs through libdivide
    high, low = divmod(n, 10**8)
    for part, slots in (
        (high.astype(np.uint32), (10, 9, 8, 7, 6, 5, 4, 3, 1)),
        (low.astype(np.uint32), range(18, 10, -1)),
        (np.abs(e10).astype(np.uint32), (23, 22)),
    ):
        for slot in slots:
            rest = part // 10
            out[slot] = part - 10 * rest + ord("0")
            part = rest
    out[21] = np.where(part > 0, part + ord("0"), 0)
    return fast


def _e16_bytes(values: np.ndarray) -> np.ndarray:
    """f"{v:.16e}" of each value as a row of _E16_WIDTH ASCII bytes, NUL in
    the unused slots: the numpy digits where they are proven, else Python's."""
    v = np.asarray(values, dtype=float).ravel()
    out = np.empty((_E16_WIDTH, v.size), np.uint8)
    fast = np.empty(v.size, bool)
    # blocks keep the float temporaries small and in cache
    for start in range(0, v.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        fast[block] = _e16_fast(v[block], out[:, block])
    for i in np.flatnonzero(~fast):
        text = f"{v[i]:.16e}".encode("ascii")
        out[:, i] = 0
        out[: len(text), i] = np.frombuffer(text, np.uint8)
    return out.T


def _write_csv(path: Path, sol, x_samples: int, r_levels: int) -> None:
    # 17 significant digits, scientific: round-trips doubles on any platform.
    # Each line is four NUL-padded fields and three commas; one mask drops the NULs
    xs = np.linspace(0.0, sol.problem.L, x_samples)
    rs = np.linspace(0.0, 1.0, r_levels)
    envelopes = evaluate_grids((sol.lower, sol.upper), xs, rs)[:, 0]
    text = _e16_bytes(np.concatenate([xs, rs, envelopes.ravel()]))
    x_text, r_text = text[:x_samples], text[x_samples : x_samples + r_levels]
    lower, upper = text[x_samples + r_levels :].reshape(2, x_samples, r_levels, _E16_WIDTH)
    header = b"x,r,lower,upper\n"
    field = _E16_WIDTH + 1
    data = np.empty(len(header) + x_samples * r_levels * 4 * field, np.uint8)
    data[: len(header)] = np.frombuffer(header, np.uint8)
    lines = data[len(header) :].reshape(x_samples, r_levels, 4 * field)
    lines[..., _E16_WIDTH::field] = ord(",")
    lines[..., -1] = ord("\n")
    for i, column in enumerate((x_text[:, None], r_text, lower, upper)):
        lines[..., i * field : i * field + _E16_WIDTH] = column
    path.write_bytes(data[data != 0])


def _term_label(kind, k: float) -> str:
    if kind.value == "exp" and k == 0.0:
        return "const"
    return f"{kind.value}({k:g}x)"


def _summary_block(res: CaseResult) -> list[str]:
    lines = [f"case {res.case.tag}:"]
    if not res.solved:
        lines.append(f"  failed: {res.error}")
        return lines
    sol = res.solution
    r_points = (0.0, 0.5, 1.0)
    for name, rf in sorted(sol.constants.items()):
        vals = ", ".join(f"r={r:g}: {rf(r):.12g}" for r in r_points)
        lines.append(f"  {name}: {vals}")
    for label, branch in (("lower", sol.lower), ("upper", sol.upper)):
        lines.append(f"  {label}(x, r) terms:")
        for kind, k, coeff in branch.terms:
            vals = ", ".join(f"r={r:g}: {coeff(r):.12g}" for r in r_points)
            lines.append(f"    {_term_label(kind, k)}: {vals}")
    return lines


def run(
    path,
    case: str | None = None,
    r_levels: int | None = None,
    x_samples: int | None = None,
    oracle: bool = False,
    out_dir="out",
) -> int:
    """Solve the problem file and emit summary, CSVs, and reports."""
    try:
        spec = parse_problem_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except ProblemFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2

    if case is not None:
        if case not in CASE_CHOICES:
            choices = "|".join(CASE_CHOICES)
            print(f"error: case must be one of {choices}, got {case!r}", file=sys.stderr)
            return 2
        spec = replace(spec, case_request=case)
    for name, value in (("r_levels", r_levels), ("x_samples", x_samples)):
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                print(f"error: {name} must be an integer, got {value!r}", file=sys.stderr)
                return 2
            if value < 2:
                print(f"error: {name} must be at least 2, got {value}", file=sys.stderr)
                return 2
            spec = replace(spec, **{name: value})

    out = Path(out_dir)
    # the directory is made before the solve, so a bad --out fails fast; the
    # solve does no I/O, so an OSError here comes from the output
    try:
        out.mkdir(parents=True, exist_ok=True)
        results = _solve_requested(spec, oracle)
        prob = spec.problem
        summary_lines = [
            f"problem: a={prob.a:g} b={prob.b:g} c={prob.c:g} L={prob.L:g} "
            f"height={prob.v_height:g}",
            f"bc0: lower = {prob.bc0.lower.c0:g} + {prob.bc0.lower.c1:g}*r, "
            f"upper = {prob.bc0.upper.c0:g} + {prob.bc0.upper.c1:g}*r",
            f"bcL: lower = {prob.bcL.lower.c0:g} + {prob.bcL.lower.c1:g}*r, "
            f"upper = {prob.bcL.upper.c0:g} + {prob.bcL.upper.c1:g}*r",
            "",
        ]
        report_blocks = []
        for res in results:
            summary_lines += _summary_block(res) + [""]
            block = [f"case = {res.case.tag}", f"solved = {str(res.solved).lower()}"]
            if res.solved:
                block.append(res.report.to_text())
                _write_csv(out / f"case_{res.case.tag}.csv", res.solution, spec.x_samples, spec.r_levels)
            else:
                block.append(f"error = {res.error}")
            report_blocks.append("\n".join(block))

        # "\n" line ends on every platform, as the CSV's bytes have
        (out / "summary.txt").write_text("\n".join(summary_lines), encoding="utf-8", newline="\n")
        (out / "report.txt").write_text(
            "\n\n".join(report_blocks) + "\n", encoding="utf-8", newline="\n"
        )
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2

    if any(res.solved for res in results):
        return 0
    for res in results:
        print(f"case {res.case.tag} failed: {res.error}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fuzzybvp",
        description="Solve a two-point boundary value problem with fuzzy "
        "boundary values and report level-set validity per "
        "differentiability case.",
    )
    parser.add_argument("problem", help="path to a problem file")
    parser.add_argument("--case", choices=CASE_CHOICES, default=None,
                        help="override the case requested in the file")
    parser.add_argument("--r-levels", type=int, default=None,
                        help="number of membership levels to sample (default from file, 11)")
    parser.add_argument("--x-samples", type=int, default=None,
                        help="number of x samples (default from file, 101)")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check against the finite-difference oracle "
                        "and report the largest gap")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    args = parser.parse_args(argv)
    try:
        return run(
            args.problem,
            case=args.case,
            r_levels=args.r_levels,
            x_samples=args.x_samples,
            oracle=args.oracle,
            out_dir=args.out,
        )
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
