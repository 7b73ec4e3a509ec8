"""Problem-file parsing, the run entry point, and its emitted artifacts."""

import codecs
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fix_r
from fuzzybvp import DiffCase, FuzzySolution, ProblemFormatError, RClosedForm, RFun, solve
from fuzzybvp import cli, validate
from fuzzybvp.cli import (
    _write_csv,
    main,
    parse_problem_file,
    parse_problem_text,
    run,
)
from test_solver import homogeneous_problem, paper_H, wave_problem

README = Path(__file__).resolve().parents[1] / "README.md"
DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"
SRC = Path(__file__).resolve().parents[1] / "src"

WAVE_PROBLEM = """\
# wave problem with fuzzy boundary values
[ode]
a = 1
b = 0
c = -1

[domain]
L = 1

[bc0]
lower = 1 1
upper = 3 -1

[bcL]
lower = 4 1
upper = 6 -1

[solve]
case = all
"""

HOMOGENEOUS_PROBLEM = """\
[ode]
a = 1
b = -3
c = 2

[domain]
L = 1

[bc0]
lower = -0.5 0.5
upper = 1 -1

[bcL]
lower = -1 1
upper = 1 -1

[solve]
case = 11
"""

# Input the parser once resolved silently, each with the error it now raises
# at the second occurrence.
AMBIGUOUS = {
    "repeated-key": (
        WAVE_PROBLEM.replace("c = -1\n", "c = -1\na = 5\n"),
        "line 6: ambiguous key 'a' in section [ode]: 'a' already given at line 3",
    ),
    "repeated-section": (
        WAVE_PROBLEM.replace("b = 0\n", "") + "[ode]\nb = 0\n",
        "line 19: section [ode] already given at line 2",
    ),
    "triangular-after-branches": (
        WAVE_PROBLEM.replace("upper = 6 -1\n", "upper = 6 -1\ntriangular = 4 5 6\n"),
        "line 17: ambiguous key 'triangular' in section [bcL]: "
        "'lower' already given at line 15",
    ),
    "branches-after-triangular": (
        WAVE_PROBLEM.replace("lower = 1 1\nupper = 3 -1\n", "triangular = 1 2 3\nlower = 1 1\n"),
        "line 12: ambiguous key 'lower' in section [bc0]: "
        "'triangular' already given at line 11",
    ),
}


class TestParsing:
    def test_parses_wave_problem(self):
        spec = parse_problem_text(WAVE_PROBLEM)
        prob = spec.problem
        assert (prob.a, prob.b, prob.c, prob.L) == (1.0, 0.0, -1.0, 1.0)
        assert prob.bc0.lower(0.5) == 1.5
        assert spec.case_request == "all"
        assert (spec.r_levels, spec.x_samples) == (11, 101)

    def test_triangular_sections(self):
        text = WAVE_PROBLEM.replace(
            "[bc0]\nlower = 1 1\nupper = 3 -1", "[bc0]\ntriangular = 1 2 3"
        )
        spec = parse_problem_text(text)
        bc0 = spec.problem.bc0
        assert bc0.lower(0.0) == 1.0
        assert bc0.lower(1.0) == bc0.upper(1.0) == 2.0

    def test_empty_file(self):
        with pytest.raises(ProblemFormatError, match=r"missing section \[ode\]"):
            parse_problem_text("")

    def test_missing_key_named(self):
        text = WAVE_PROBLEM.replace("b = 0\n", "")
        with pytest.raises(ProblemFormatError, match="'b'"):
            parse_problem_text(text)

    def test_bad_number_names_key_and_line(self):
        text = WAVE_PROBLEM.replace("c = -1", "c = minus-one")
        with pytest.raises(ProblemFormatError, match="line 5.*'c'"):
            parse_problem_text(text)

    def test_unknown_section(self):
        with pytest.raises(ProblemFormatError, match=r"unknown section"):
            parse_problem_text("[odes]\na = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ProblemFormatError, match="unknown key 'q'"):
            parse_problem_text("[ode]\nq = 1\n")

    def test_misordered_triangular_diagnosed_with_line(self):
        text = "[ode]\na = 1\nb = 0\nc = -1\n[domain]\nL = 1\n[bc0]\ntriangular = 3 2 1\n[bcL]\nlower = 0 0\nupper = 0 0\n"
        with pytest.raises(ProblemFormatError, match="line 8"):
            parse_problem_text(text)

    def test_bad_case_value(self):
        text = WAVE_PROBLEM.replace("case = all", "case = 13")
        with pytest.raises(ProblemFormatError, match="case must be one of"):
            parse_problem_text(text)

    @pytest.mark.parametrize("text, message", AMBIGUOUS.values(), ids=AMBIGUOUS.keys())
    def test_ambiguous_input_rejected(self, tmp_path, capsys, text, message):
        with pytest.raises(ProblemFormatError) as info:
            parse_problem_text(text)
        assert str(info.value) == message
        problem = tmp_path / "problem.txt"
        problem.write_text(text)
        assert run(problem, out_dir=tmp_path / "out") == 2
        assert message in capsys.readouterr().err

    def test_value_error_reported_after_every_field_parses(self):
        # L = -1 fails only when the problem is built; r_levels = 1 fails
        # while parsing, so its error comes first
        text = WAVE_PROBLEM.replace("L = 1", "L = -1") + "[output]\nr_levels = 1\n"
        with pytest.raises(ProblemFormatError, match="'r_levels' must be at least 2"):
            parse_problem_text(text)
        with pytest.raises(ProblemFormatError, match="domain length must be positive"):
            parse_problem_text(WAVE_PROBLEM.replace("L = 1", "L = -1"))

    def test_readme_grammar_example_parses(self):
        # the example carries comments after headers and values
        grammar = README.read_text(encoding="utf-8").split("### Problem file grammar", 1)[1]
        example = grammar.split("```")[1]
        assert "[ode]                # a*y'' + b*y' + c*y = 0" in example
        spec = parse_problem_text(example)
        prob = spec.problem
        assert (prob.a, prob.b, prob.c, prob.L, prob.v_height) == (1.0, 0.0, -1.0, 1.0, 0.0)
        assert (prob.bc0.lower, prob.bc0.upper) == (RFun(1.0, 1.0), RFun(3.0, -1.0))
        assert (prob.bcL.lower(0.0), prob.bcL.lower(1.0), prob.bcL.upper(0.0)) == (4.0, 5.0, 6.0)
        assert (spec.case_request, spec.r_levels, spec.x_samples) == ("all", 11, 101)

    def test_trailing_comment_keeps_line_numbers(self):
        text = WAVE_PROBLEM.replace("c = -1\n", "c = -1 ; decay\n").replace("L = 1", "L = x # bad")
        with pytest.raises(ProblemFormatError, match="line 8: invalid number for 'L'"):
            parse_problem_text(text)

    def test_round_trip_with_all_sections(self):
        text = (
            HOMOGENEOUS_PROBLEM
            + "\n[potential]\nheight = 0.25\n\n[output]\nr_levels = 5\nx_samples = 21\n"
        )
        spec = parse_problem_text(text)
        assert (spec.problem.v_height, spec.r_levels, spec.x_samples) == (0.25, 5, 21)


class TestRun:
    def test_homogeneous_csv_row(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, out_dir=out) == 0
        rows = (out / "case_11.csv").read_text().splitlines()
        assert rows[0] == "x,r,lower,upper"
        x, r, lower, upper = (float(v) for v in rows[1].split(","))
        assert (x, r) == (0.0, 0.0)
        assert lower == pytest.approx(-0.5, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)

    def test_wave_all_cases_reports(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(WAVE_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, out_dir=out) == 0
        report = (out / "report.txt").read_text()
        blocks = [b for b in report.split("\n\n") if b.strip()]
        assert len(blocks) == 4
        assert {b.splitlines()[0] for b in blocks} == {
            "case = 11", "case = 22", "case = 12", "case = 21"
        }
        for tag in ("11", "22", "12", "21"):
            assert (out / f"case_{tag}.csv").exists()

    def test_summary_coupled_constants_match_worked_formula(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(WAVE_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, out_dir=out) == 0
        summary = (out / "summary.txt").read_text()
        block = summary.split("case 12:")[1].split("case 21:")[0]
        h1_line = next(l for l in block.splitlines() if l.strip().startswith("H1:"))
        h1_r0 = float(h1_line.split("r=0:")[1].split(",")[0])
        want_h1, _ = paper_H(
            0.0, 1.0, 1.0,
            lambda r: 1 + r, lambda r: 3 - r, lambda r: 4 + r, lambda r: 6 - r,
        )
        assert h1_r0 == pytest.approx(want_h1, rel=1e-9)

    def test_oracle_flag_adds_gap(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, oracle=True, out_dir=out) == 0
        report = (out / "report.txt").read_text()
        gap_line = next(l for l in report.splitlines() if l.startswith("oracle_max_gap"))
        assert float(gap_line.split("=")[1]) <= 1e-5

    def test_csv_deterministic(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(problem, out_dir=out1) == 0
        assert run(problem, out_dir=out2) == 0
        assert (out1 / "case_11.csv").read_bytes() == (out2 / "case_11.csv").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_grid_overrides(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, r_levels=3, x_samples=5, out_dir=out) == 0
        rows = (out / "case_11.csv").read_text().splitlines()
        assert len(rows) == 1 + 5 * 3
        assert "grid_x = 5" in (out / "report.txt").read_text()

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        problem = tmp_path / "broken.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM.replace("a = 1", "a = ?"))
        assert run(problem, out_dir=tmp_path / "out") == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert run(tmp_path / "nope.txt", out_dir=tmp_path / "out") == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        problem = tmp_path / "latin1.txt"
        problem.write_bytes(HOMOGENEOUS_PROBLEM.replace("c = 2", "c = 2\xff").encode("latin-1"))
        assert main([str(problem), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {problem}: 'utf-8' codec can't decode byte 0xff")

    def test_byte_order_mark_is_read(self, tmp_path):
        # as Windows Notepad saves UTF-8
        wave = DEMO_PROBLEMS / "wave.problem"
        problem = tmp_path / "bom.problem"
        problem.write_bytes(codecs.BOM_UTF8 + wave.read_bytes())
        assert parse_problem_file(problem) == parse_problem_file(wave)
        assert run(problem, out_dir=tmp_path / "out") == 0

    def test_triangular_peak_rounding_exit_0(self, tmp_path):
        # lower(1) and upper(1) of this triple differ by several ulps of |center|
        problem = tmp_path / "problem.txt"
        problem.write_text(WAVE_PROBLEM.replace(
            "lower = 4 1\nupper = 6 -1",
            "triangular = -22166.458984473047 -6914.856193996277 93176.0926982428",
        ))
        assert run(problem, out_dir=tmp_path / "out") == 0

    @pytest.mark.parametrize("blocked", ["out-is-a-file", "out-under-a-file", "report-is-a-dir"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, blocked):
        taken = tmp_path / "taken"
        if blocked == "report-is-a-dir":
            out = tmp_path / "out"
            (out / "report.txt").mkdir(parents=True)
        else:
            taken.write_text("")
            out = taken if blocked == "out-is-a-file" else taken / "out"
        assert main([str(DEMO_PROBLEMS / "wave.problem"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "error: internal" not in err and "Traceback" not in err

    def test_degenerate_grid_override_exit_2(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        assert run(problem, r_levels=1, out_dir=tmp_path / "out") == 2
        assert "r_levels" in capsys.readouterr().err

    def test_all_cases_failed_exit_1(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        # the homogeneous problem has a first-derivative term: mixed cases fail
        assert run(problem, case="12", out_dir=out) == 1
        assert "CaseInapplicableError" in capsys.readouterr().err
        report = (out / "report.txt").read_text()
        assert "solved = false" in report
        assert "error = CaseInapplicableError" in report

    @pytest.mark.parametrize(
        "old, new, where",
        [("c = -1", "c = nan", "c must be finite"),
         ("L = 1\n", "L = inf\n", "L must be finite"),
         ("lower = 4 1", "lower = nan 1", "line 15: branch coefficients must be finite")],
    )
    def test_non_finite_input_exit_2(self, tmp_path, capsys, old, new, where):
        problem = tmp_path / "problem.txt"
        problem.write_text(WAVE_PROBLEM.replace(old, new))
        assert run(problem, out_dir=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_domain_exit_1(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text(WAVE_PROBLEM.replace("L = 1\n", "L = 800\n"))
        out = tmp_path / "out"
        assert run(problem, out_dir=out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4
        assert all("failed: UnsupportedProblemError" in line for line in err)
        assert (out / "report.txt").read_text().count("solved = false") == 4

    def test_overflowing_derivative_exit_1_without_warning(self, tmp_path):
        # k*L = 708.99: the second derivative the checker evaluates overflows
        text = WAVE_PROBLEM.replace("a = 1\n", "a = 2.109375\n").replace("c = -1\n", "c = -6.109375\n")
        problem = tmp_path / "problem.txt"
        problem.write_text(text.replace("L = 1\n", "L = 416.6015625\n").replace("case = all", "case = 11"))
        done = subprocess.run(
            [sys.executable, "-m", "fuzzybvp.cli", str(problem), "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("case 11 failed: UnsupportedProblemError: closed form overflows")
        assert "Warning" not in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "edits",
        [
            [("a = 1\n", "a = 1e308\n"), ("c = -1\n", "c = -1e308\n")],
            [
                ("a = 1\n", "a = 1e10\n"), ("c = -1\n", "c = -1e10\n"),
                ("lower = 1 1", "lower = 1e299 1e299"), ("upper = 3 -1", "upper = 3e299 -1e299"),
                ("lower = 4 1", "lower = 4e299 1e299"), ("upper = 6 -1", "upper = 6e299 -1e299"),
            ],
        ],
        ids=["nan-roots", "inf-residue"],
    )
    def test_overflowing_transform_exit_1(self, tmp_path, capsys, edits):
        text = WAVE_PROBLEM
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        problem = tmp_path / "problem.txt"
        problem.write_text(text)
        assert main([str(problem), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            f"case {tag} failed" for tag in ("11", "22", "12", "21")
        ]
        assert all("UnsupportedProblemError" in line for line in err)
        assert not any("error: internal" in line for line in err)

    def test_overflowing_discriminant_exit_1(self, tmp_path, capsys):
        # roots -114.8 and 23.6, but b*b - 4*a*c overflows: refused for the
        # coefficients' range in 11/22, as inapplicable in 12/21, never as resonant
        text = WAVE_PROBLEM
        for old, new in (
            ("a = 1\n", "a = 1.8598821737886637e166\n"),
            ("b = 0\n", "b = 1.697451456474211e168\n"),
            ("c = -1\n", "c = -5.033210501176903e169\n"),
        ):
            assert old in text
            text = text.replace(old, new)
        problem = tmp_path / "problem.txt"
        problem.write_text(text)
        out = tmp_path / "out"
        assert main([str(problem), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            f"case {tag} failed" for tag in ("11", "22", "12", "21")
        ]
        assert err[0].startswith("case 11 failed: UnsupportedProblemError: non-finite root or residue")
        assert "resonant" not in captured.out + captured.err + (out / "report.txt").read_text()

    @pytest.mark.parametrize(
        "edits, mixed",
        [
            ([("b = 0\n", "b = 1e13\n"), ("c = -1\n", "c = -3e14\n")], "CaseInapplicableError"),
            ([("a = 1\n", "a = 1e-320\n")], "UnsupportedProblemError"),
        ],
        ids=["dominated", "subnormal"],
    )
    def test_negligible_leading_coefficient_exit_1(self, tmp_path, capsys, edits, mixed):
        text = WAVE_PROBLEM
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        problem = tmp_path / "problem.txt"
        problem.write_text(text)
        out = tmp_path / "out"
        assert main([str(problem), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            f"case {tag} failed" for tag in ("11", "22", "12", "21")
        ]
        assert all("UnsupportedProblemError" in line for line in err[:2])
        assert all(mixed in line for line in err[2:])
        assert not any("error: internal" in line for line in err)
        assert not list(out.glob("case_*.csv"))

    def test_main_entry_point(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        assert main([str(problem), "--case", "11", "--out", str(out)]) == 0
        assert main([str(problem), "--case", "12", "--out", str(out)]) == 1


def _per_point_csv(sol, x_samples: int, r_levels: int) -> bytes:
    """The CSV as a loop over single points through ``fix_r`` writes it."""
    xs = np.linspace(0.0, sol.problem.L, x_samples)
    rs = np.linspace(0.0, 1.0, r_levels)
    rows = ["x,r,lower,upper"]
    for x in xs:
        for r in rs:
            lo = float(fix_r(sol.lower, float(r)).evaluate(float(x)))
            up = float(fix_r(sol.upper, float(r)).evaluate(float(x)))
            rows.append(f"{float(x):.16e},{float(r):.16e},{lo:.16e},{up:.16e}")
    return ("\n".join(rows) + "\n").encode("utf-8")


class TestCsvBytes:
    @pytest.mark.parametrize(
        "problem",
        [wave_problem(DiffCase.CASE_12), homogeneous_problem(DiffCase.CASE_11)],
        ids=["wave-12", "homogeneous-11"],
    )
    @pytest.mark.parametrize("x_samples, r_levels", [(7, 4), (101, 11)])
    def test_matches_per_point_loop(self, tmp_path, problem, x_samples, r_levels):
        sol = solve(problem)
        path = tmp_path / "case.csv"
        _write_csv(path, sol, x_samples, r_levels)
        assert path.read_bytes() == _per_point_csv(sol, x_samples, r_levels)

    def test_identically_zero_branch(self, tmp_path):
        zero = RClosedForm(())
        sol = FuzzySolution(zero, zero, DiffCase.CASE_11, wave_problem(), {})
        path = tmp_path / "case.csv"
        _write_csv(path, sol, 5, 3)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 15
        for row in rows:
            assert row.split(",")[2:] == ["0.0000000000000000e+00"] * 2


def _blocks(path: Path) -> list[str]:
    """The blank-line separated blocks of a summary or report file."""
    return [block.strip("\n") for block in path.read_text().split("\n\n") if block.strip()]


class TestAllCasesMatchSingleCaseRuns:
    """A case = all run writes what the four single-case runs write."""

    @pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
    @pytest.mark.parametrize("name", ["wave", "homogeneous"])
    def test_same_bytes(self, tmp_path, capsys, name, oracle):
        problem = str(DEMO_PROBLEMS / f"{name}.problem")
        flags = ["--oracle"] if oracle else []
        every = tmp_path / "all"
        main([problem, "--case", "all", "--out", str(every), *flags])
        reports, summary = _blocks(every / "report.txt"), _blocks(every / "summary.txt")
        assert len(reports) == 4 and len(summary) == 5
        for i, tag in enumerate(("11", "22", "12", "21")):
            single = tmp_path / tag
            main([problem, "--case", tag, "--out", str(single), *flags])
            assert _blocks(single / "report.txt") == [reports[i]]
            assert _blocks(single / "summary.txt") == [summary[0], summary[1 + i]]
            csv = f"case_{tag}.csv"
            assert (single / csv).exists() == (every / csv).exists()
            if (single / csv).exists():
                assert (single / csv).read_bytes() == (every / csv).read_bytes()

    def test_oracle_runs_once_per_family(self, tmp_path, monkeypatch):
        seen = []

        def counting(sol, *args, **kwargs):
            seen.append(sol.case)
            return validate.oracle_gap(sol, *args, **kwargs)

        monkeypatch.setattr(cli, "oracle_gap", counting)
        out = tmp_path / "out"
        assert main([str(DEMO_PROBLEMS / "wave.problem"), "--case", "all", "--oracle", "--out", str(out)]) == 0
        assert seen == [DiffCase.CASE_11, DiffCase.CASE_12]
        gaps = [l for l in (out / "report.txt").read_text().splitlines() if l.startswith("oracle_max_gap")]
        assert len(gaps) == 4 and gaps[0] == gaps[1] and gaps[2] == gaps[3]


class TestInternalError:
    def test_unexpected_exception_exit_3(self, tmp_path, capsys, monkeypatch):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)

        def broken_solve(prob):
            raise RuntimeError("solver exploded\nsecond line")

        monkeypatch.setattr(validate, "solve", broken_solve)
        assert main([str(problem), "--case", "11", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == "error: internal: RuntimeError: solver exploded second line\n"
        assert "Traceback" not in err
