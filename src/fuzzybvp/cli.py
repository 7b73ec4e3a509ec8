"""Problem-file ingestion and the command-line front end.

Problem files are plain-text sections of ``key = value`` lines; see the
README for the grammar. The tool writes three artifacts per run: a
human-readable solution summary, one CSV of envelope samples per solved
case, and a validity report block per requested case.

Exit codes: 0 when at least one requested case produced a solution,
1 when every requested case failed, 2 on a parse failure, 3 on an
unexpected internal error (reported as one ``error: internal:`` line).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FuzzyBvpError, InvalidFuzzyNumberError, ProblemFormatError
from .fuzzy import FuzzyNumber, RFun, triangular
from .solver import (
    CaseResult,
    DiffCase,
    FuzzyBVP,
    enumerate_cases,
    solve,
)
from .validate import check_level_set, with_oracle_gap

CASE_CHOICES = ("11", "22", "12", "21", "all")

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

    a: float
    b: float
    c: float
    L: float
    bc0: FuzzyNumber
    bcL: FuzzyNumber
    case_request: str = "all"
    v_height: float = 0.0
    r_levels: int = 11
    x_samples: int = 101

    def to_bvp(self, case: DiffCase | None = None) -> FuzzyBVP:
        return FuzzyBVP(
            a=self.a, b=self.b, c=self.c, L=self.L,
            bc0=self.bc0, bcL=self.bcL, case=case, v_height=self.v_height,
        )


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProblemFormatError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ProblemFormatError(f"unknown section [{name}]", lineno)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ProblemFormatError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ProblemFormatError(f"key outside any section: {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[current]:
            raise ProblemFormatError(f"unknown key {key!r} in section [{current}]", lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def _get_float(sections, section: str, key: str, default: float | None = None) -> float:
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if default is not None:
            return default
        raise ProblemFormatError(f"missing key {key!r} in section [{section}]")
    value, lineno = entry
    try:
        return float(value)
    except ValueError:
        raise ProblemFormatError(f"invalid number for {key!r}: {value!r}", lineno) from None


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
    body = sections.get(section)
    if body is None:
        raise ProblemFormatError(f"missing section [{section}]")
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

    spec = ProblemSpec(
        a=_get_float(sections, "ode", "a"),
        b=_get_float(sections, "ode", "b"),
        c=_get_float(sections, "ode", "c"),
        L=_get_float(sections, "domain", "L"),
        bc0=_parse_bc(sections, "bc0"),
        bcL=_parse_bc(sections, "bcL"),
        case_request=case_request,
        v_height=_get_float(sections, "potential", "height", default=0.0),
        r_levels=_get_int(sections, "output", "r_levels", 11),
        x_samples=_get_int(sections, "output", "x_samples", 101),
    )
    try:
        spec.to_bvp()
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    return spec


def parse_problem_file(path) -> ProblemSpec:
    return parse_problem_text(Path(path).read_text(encoding="utf-8"))


def format_problem(spec: ProblemSpec) -> str:
    """Canonical problem file text; re-parses to an equal ProblemSpec."""

    def bc_lines(bc: FuzzyNumber) -> list[str]:
        return [
            f"lower = {bc.lower.c0!r} {bc.lower.c1!r}",
            f"upper = {bc.upper.c0!r} {bc.upper.c1!r}",
        ]

    lines = ["[ode]", f"a = {spec.a!r}", f"b = {spec.b!r}", f"c = {spec.c!r}", ""]
    lines += ["[domain]", f"L = {spec.L!r}", ""]
    lines += ["[bc0]", *bc_lines(spec.bc0), ""]
    lines += ["[bcL]", *bc_lines(spec.bcL), ""]
    lines += ["[solve]", f"case = {spec.case_request}", ""]
    lines += ["[potential]", f"height = {spec.v_height!r}", ""]
    lines += ["[output]", f"r_levels = {spec.r_levels}", f"x_samples = {spec.x_samples}", ""]
    return "\n".join(lines)


def _solve_requested(spec: ProblemSpec, oracle: bool) -> list[CaseResult]:
    if spec.case_request == "all":
        results = enumerate_cases(spec.to_bvp(), x_count=spec.x_samples, r_count=spec.r_levels)
    else:
        case = DiffCase(spec.case_request)
        try:
            sol = solve(spec.to_bvp(case))
        except FuzzyBvpError as exc:
            results = [CaseResult(case, None, f"{type(exc).__name__}: {exc}", None)]
        else:
            report = check_level_set(sol, x_count=spec.x_samples, r_count=spec.r_levels)
            results = [CaseResult(case, sol, None, report)]
    if oracle:
        results = [
            replace(res, report=with_oracle_gap(res.report, res.solution))
            if res.solved
            else res
            for res in results
        ]
    return results


def _write_csv(path: Path, sol, x_samples: int, r_levels: int) -> None:
    # 17 significant digits, scientific: round-trips doubles on any platform
    xs = np.linspace(0.0, sol.problem.L, x_samples)
    rs = np.linspace(0.0, 1.0, r_levels)
    lower = sol.lower.evaluate_grid(xs, rs).tolist()
    upper = sol.upper.evaluate_grid(xs, rs).tolist()
    r_text = [f"{r:.16e}" for r in rs.tolist()]
    rows = ["x,r,lower,upper"]
    for x, lo_row, up_row in zip(xs.tolist(), lower, upper):
        x_text = f"{x:.16e}"
        rows.extend(
            f"{x_text},{r},{lo:.16e},{up:.16e}" for r, lo, up in zip(r_text, lo_row, up_row)
        )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


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
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except ProblemFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2

    if case is not None:
        spec = replace(spec, case_request=case)
    for name, value in (("r_levels", r_levels), ("x_samples", x_samples)):
        if value is not None:
            if value < 2:
                print(f"error: {name} must be at least 2, got {value}", file=sys.stderr)
                return 2
            spec = replace(spec, **{name: value})

    results = _solve_requested(spec, oracle)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary_lines = [
        f"problem: a={spec.a:g} b={spec.b:g} c={spec.c:g} L={spec.L:g} "
        f"height={spec.v_height:g}",
        f"bc0: lower = {spec.bc0.lower.c0:g} + {spec.bc0.lower.c1:g}*r, "
        f"upper = {spec.bc0.upper.c0:g} + {spec.bc0.upper.c1:g}*r",
        f"bcL: lower = {spec.bcL.lower.c0:g} + {spec.bcL.lower.c1:g}*r, "
        f"upper = {spec.bcL.upper.c0:g} + {spec.bcL.upper.c1:g}*r",
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

    (out / "summary.txt").write_text("\n".join(summary_lines), encoding="utf-8")
    (out / "report.txt").write_text("\n\n".join(report_blocks) + "\n", encoding="utf-8")

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
