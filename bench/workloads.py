"""The four workloads: what each one calls, and how its outputs are checked.

Each workload has ``make(i)`` (input generation, untimed), ``call(item)``
(the timed call into the program) and ``check(item, out)`` (comparison with
the reference, untimed). Outputs are checked against ``reference`` only.

    solve-batch  solver.solve on all four cases of each problem. A parameter
                 study: eight shared ODEs, each with many draws of L and
                 boundary data, so inputs share work such as the roots of a
                 repeated denominator. The transform and elimination
                 kernel dominates.
    sweep        solver.enumerate_cases at 101x11 over distinct ODEs, no I/O:
                 the "which case gives a valid level set" loop. Distinct ODEs
                 bypass any per-ODE cache. check_level_set dominates.
    cli-fine     cli.main per problem file at --x-samples 1001 --r-levels 21,
                 one case per file rotating 11/22/12/21. Many points per
                 closed form and no oracle: envelope evaluation and CSV
                 formatting dominate.
    cli-oracle   cli.main --oracle per problem file at the default 101x11,
                 one case per file rotating as in cli-fine, so a run holds
                 four times as many problems as with case = all. The
                 finite-difference oracle (n = 10^4, fixed by the CLI)
                 dominates.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import classify
import generate
import reference

CASES = reference.CASES
# 1001 x-samples as in the fine CSV use case, but 21 levels instead of 101: at
# 1001x101 one problem takes 3.5-7 s on this package, so a run would hold only
# three or four problems and its median would not repeat across seeds.
CLI_FINE_GRID = (1001, 21)
DEFAULT_GRID = (101, 11)


def to_bvp(fz, prob: dict):
    """The library's problem object for a generated problem (no case set)."""
    (lo0, up0), (loL, upL) = prob["bc0"], prob["bcL"]
    return fz.FuzzyBVP(
        a=prob["a"], b=prob["b"], c=prob["c"], L=prob["L"],
        bc0=fz.FuzzyNumber(fz.RFun(*lo0), fz.RFun(*up0)),
        bcL=fz.FuzzyNumber(fz.RFun(*loL), fz.RFun(*upL)),
        v_height=prob["height"],
    )


def grid(prob: dict, shape: tuple[int, int]):
    return np.linspace(0.0, prob["L"], shape[0]), np.linspace(0.0, 1.0, shape[1])


def envelope_values(sol, xs, rs):
    """Program envelopes on the grid through the public ``evaluate`` API."""
    lower = np.column_stack([np.asarray(sol.lower.evaluate(xs, float(r)), dtype=float) for r in rs])
    upper = np.column_stack([np.asarray(sol.upper.evaluate(xs, float(r)), dtype=float) for r in rs])
    return lower, upper


class Workload:
    """With ``long_domain``, problem ``i`` is ``generate.long_problem``."""

    name = ""
    grid_shape = DEFAULT_GRID
    # Long-domain problems in one run's probe; fewer where a problem is slow.
    probe_count = 16

    def __init__(self, fz, seed: int, workdir: Path, long_domain: bool = False):
        self.fz = fz
        self.seed = seed
        self.workdir = workdir
        self.long_domain = long_domain
        self.output_bytes = 0

    def problem(self, i: int) -> dict:
        if self.long_domain:
            return generate.long_problem(self.seed, i)
        return generate.problem(self.seed, i)

    def warmup(self) -> None:
        self.call(self.make(0))


class SolveBatch(Workload):
    name = "solve-batch"
    grid_shape = None  # solve only: no sampling grid
    # Envelopes are checked on a coarse grid at both ends of r: affine in r,
    # so r in {0, 1} pins every level.
    check_shape = (11, 2)

    probe_count = 32

    def __init__(self, fz, seed, workdir, long_domain=False):
        super().__init__(fz, seed, workdir, long_domain)
        self.odes = generate.shared_odes(seed)

    def problem(self, i):
        if self.long_domain:
            return super().problem(i)
        return generate.problem(self.seed, i, self.odes[i % len(self.odes)])

    def make(self, i):
        prob = self.problem(i)
        base = to_bvp(self.fz, prob)
        return prob, [replace(base, case=self.fz.DiffCase(c)) for c in CASES]

    def call(self, item):
        solve = self.fz.solve
        out = []
        for bvp in item[1]:
            try:
                out.append(solve(bvp))
            except Exception as exc:  # classified by check, not fatal to the run
                out.append(exc)
        return out

    def check(self, item, out):
        prob = item[0]
        refs = reference.solve_all(prob)
        xs, rs = grid(prob, self.check_shape)
        reasons = []
        for case, sol in zip(CASES, out):
            failed = isinstance(sol, Exception)
            outcome = classify.check_outcome(case, refs[case], sol if failed else None)
            reasons += outcome
            if failed or outcome:
                continue
            constants = {name: [rf(float(r)) for r in rs] for name, rf in sol.constants.items()}
            reasons += classify.check_constants(refs[case], rs, constants)
            reasons += classify.check_envelopes(refs[case], xs, rs, *envelope_values(sol, xs, rs))
        return reasons


class Sweep(Workload):
    name = "sweep"
    check_rs = np.array([0.0, 0.5, 1.0])

    def make(self, i):
        prob = self.problem(i)
        return prob, to_bvp(self.fz, prob)

    def call(self, item):
        try:
            return self.fz.enumerate_cases(item[1], x_count=DEFAULT_GRID[0], r_count=DEFAULT_GRID[1])
        except Exception as exc:
            return exc

    def check(self, item, out):
        prob = item[0]
        if isinstance(out, Exception):  # enumerate_cases turns refusals into values
            return [f"raised {type(out).__name__}: {out}"]
        refs = reference.solve_all(prob)
        tags = [res.case.tag for res in out]
        if tags != list(CASES):
            return [f"cases {tags}, expected {list(CASES)}"]
        xs, rs = grid(prob, DEFAULT_GRID)
        reasons = []
        for res in out:
            case, ref = res.case.tag, refs[res.case.tag]
            if not res.solved:
                # enumerate_cases turns a FuzzyBvpError into an error string
                reasons += classify.check_outcome(case, ref, self.fz.FuzzyBvpError(res.error))
                continue
            outcome = classify.check_outcome(case, ref, None)
            reasons += outcome
            if outcome:
                continue
            reasons += classify.check_envelopes(ref, xs, self.check_rs, *envelope_values(res.solution, xs, self.check_rs))
            flags = {name: getattr(res.report, name) for name in ("monotone_lower_in_r", "monotone_upper_in_r", "ordered")}
            reasons += classify.check_verdict(ref, xs, rs, flags)
        return reasons


class CliWorkload(Workload):
    """One ``cli.main`` invocation per generated problem file."""

    flags: tuple[str, ...] = ()
    warmup_flags: tuple[str, ...] = ()
    warmup_case: str | None = None  # None: the case problem 0 requests

    def requested(self, i: int) -> str:
        return CASES[i % len(CASES)]

    def make(self, i, flags=None, case=None):
        prob = self.problem(i)
        case = case or self.requested(i)
        path = self.workdir / f"problem-{i}.txt"
        path.write_text(generate.problem_text(prob, case), encoding="utf-8")
        out_dir = self.workdir / f"out-{i}"
        return prob, case, [str(path), "--out", str(out_dir), *(self.flags if flags is None else flags)]

    def call(self, item):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return self.fz.cli.main(item[2])
            except Exception as exc:
                return exc

    def warmup(self):
        item = self.make(0, flags=self.warmup_flags, case=self.warmup_case)
        self.call(item)
        self.cleanup(item)

    def cleanup(self, item):
        argv = item[2]
        Path(argv[0]).unlink(missing_ok=True)
        shutil.rmtree(argv[2], ignore_errors=True)

    def check(self, item, out):
        prob, case, argv = item
        try:
            return self._check(prob, case, Path(argv[2]), out)
        finally:
            self.cleanup(item)

    def _check(self, prob, case, out_dir, code):
        if isinstance(code, Exception):  # the CLI must never end in a traceback
            return [f"raised {type(code).__name__}: {code}"]
        cases = list(CASES) if case == "all" else [case]
        refs = reference.solve_all(prob)
        want = classify.expected_exit(refs, cases)
        reasons = [] if code == want else [f"exit code {code}, expected {want}"]
        self.output_bytes += sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
        xs, rs = grid(prob, self.grid_shape)
        for c in cases:
            csv_path = out_dir / f"case_{c}.csv"
            if isinstance(refs[c], reference.Refusal):
                if csv_path.exists():
                    reasons.append(f"case {c}: wrote a CSV for a case the method must refuse")
            elif not csv_path.exists():
                reasons.append(f"case {c}: refused a solvable case (no CSV)")
            else:
                with csv_path.open(encoding="utf-8") as stream:
                    reasons += classify.check_csv(refs[c], stream, xs, rs)
        return reasons


class CliFine(CliWorkload):
    name = "cli-fine"
    probe_count = 4
    grid_shape = CLI_FINE_GRID
    flags = ("--x-samples", str(CLI_FINE_GRID[0]), "--r-levels", str(CLI_FINE_GRID[1]))
    # The warm-up takes the same code path at the default grid: the first call
    # pays lazy set-up without a full fine-grid solve.
    warmup_flags = ()


class CliOracle(CliWorkload):
    name = "cli-oracle"
    probe_count = 4
    flags = warmup_flags = ("--oracle",)
    # Every case once, so the warm-up also covers the coupled oracle.
    warmup_case = "all"


WORKLOADS = {w.name: w for w in (SolveBatch, Sweep, CliFine, CliOracle)}
