"""Problem-file parsing, the run entry point, and its emitted artifacts."""

import codecs
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fix_r
from fuzzybvp import (
    DiffCase,
    FuzzyNumber,
    FuzzySolution,
    ProblemFormatError,
    RClosedForm,
    RFun,
    TermKind,
    solve,
)
from fuzzybvp import cli, validate
from fuzzybvp.cli import (
    _write_csv,
    main,
    parse_problem_file,
    parse_problem_text,
    run,
)
from test_solver import BC0, BCL, homogeneous_problem, paper_H, wave_problem

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

WAVE_DEMO = (DEMO_PROBLEMS / "wave.problem").read_text()

# One edit each to the wave demo, and the error the parser names it with.
MALFORMED = {
    "open-header": (("[ode]\n", "[ode\n"), "line 4: malformed section header '[ode'"),
    "no-equals": (("b = 0\n", "b 0\n"), "line 6: expected 'key = value', got 'b 0'"),
    "key-before-section": (
        (WAVE_DEMO.splitlines(keepends=True)[0], "a = 1\n"),
        "line 1: key outside any section: 'a = 1'",
    ),
    "bad-integer": (("r_levels = 11", "r_levels = two"), "line 24: invalid integer for 'r_levels': 'two'"),
    "short-branch": (
        ("lower = 1 1\n", "lower = 1\n"), "line 13: 'lower' needs 2 space-separated numbers, got '1'"
    ),
    "bad-branch-number": (("lower = 1 1\n", "lower = 1 x\n"), "line 13: invalid number in 'lower': '1 x'"),
    "missing-branch": (
        ("upper = 3 -1\n", ""), "section [bc0] needs either 'triangular' or both 'lower' and 'upper'"
    ),
    # 1e308 + 1e308 overflows, so lower(1) is inf: no slack may absorb it
    "overflowing-endpoint": (
        ("lower = 4 1\nupper = 6 -1\n", "lower = 1e308 1e308\nupper = 1 0\n"),
        "line 17: branch endpoints at r=1 must be finite, got (inf, 1.0)",
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

    @pytest.mark.parametrize("edit, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_demo_file_rejected(self, tmp_path, capsys, edit, message):
        assert WAVE_DEMO.count(edit[0]) == 1
        text = WAVE_DEMO.replace(*edit)
        with pytest.raises(ProblemFormatError) as info:
            parse_problem_text(text)
        assert str(info.value) == message
        problem = tmp_path / "wave.problem"
        problem.write_text(text)
        out = tmp_path / "out"
        assert run(problem, out_dir=out) == 2
        assert capsys.readouterr().err == f"error: {problem}: {message}\n"
        assert not list(out.glob("case_*.csv"))

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

    @pytest.mark.parametrize("key, value, shown", [
        ("height", "1e400", "inf"), ("height", "-inf", "-inf"), ("a", "nan", "nan"), ("L", "inf", "inf"),
    ])
    def test_non_finite_number_refused_at_its_line(self, key, value, shown):
        # refused under the file's key and at its line, not later under the
        # problem's field name (height is FuzzyBVP.v_height)
        text = WAVE_PROBLEM + "\n[potential]\nheight = 0\n"
        lines = text.splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} = "))
        lines[lineno - 1] = f"{key} = {value}"
        with pytest.raises(ProblemFormatError) as info:
            parse_problem_text("\n".join(lines) + "\n")
        assert info.value.line == lineno
        assert str(info.value) == f"line {lineno}: {key} must be finite, got {shown}"

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

    def test_zero_root_labelled_const(self, tmp_path):
        # y'' + y' = 0 has roots 0 and -1: every envelope has a constant term
        problem = tmp_path / "problem.txt"
        problem.write_text(WAVE_PROBLEM.replace("b = 0\n", "b = 1\n").replace("c = -1\n", "c = 0\n"))
        out = tmp_path / "out"
        assert run(problem, out_dir=out) == 0
        summary = (out / "summary.txt").read_text()
        assert summary.count("    const: r=0: ") == 4  # lower and upper of cases 11 and 22

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

    @pytest.mark.parametrize("case", ["13", 11, "All"])
    def test_bad_case_override_exit_2(self, tmp_path, capsys, case):
        # argparse's choices guard the command line; run() checks its own
        # argument before it makes the output directory
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, case=case, out_dir=out) == 2
        err = capsys.readouterr().err
        assert err == f"error: case must be one of 11|22|12|21|all, got {case!r}\n"
        assert not out.exists()

    def test_degenerate_grid_override_exit_2(self, tmp_path, capsys):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        assert run(problem, r_levels=1, out_dir=tmp_path / "out") == 2
        assert "r_levels" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["r_levels", "x_samples"])
    @pytest.mark.parametrize("value", [2.5, 11.0, "11", True])
    def test_non_integer_grid_override_exit_2(self, tmp_path, capsys, name, value):
        # argparse's type=int guards the command line; run() checks its own
        # arguments before it makes the output directory
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, out_dir=out, **{name: value}) == 2
        assert capsys.readouterr().err == f"error: {name} must be an integer, got {value!r}\n"
        assert not out.exists()

    def test_numpy_integer_grid_override(self, tmp_path):
        problem = tmp_path / "problem.txt"
        problem.write_text(HOMOGENEOUS_PROBLEM)
        out = tmp_path / "out"
        assert run(problem, r_levels=np.int64(3), x_samples=np.int32(5), out_dir=out) == 0
        assert "grid_x = 5\ngrid_r = 3\n" in (out / "report.txt").read_text()

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
        [("c = -1", "c = nan", "line 5: c must be finite, got nan"),
         ("L = 1\n", "L = inf\n", "line 8: L must be finite, got inf"),
         ("lower = 4 1", "lower = nan 1", "line 15: branch coefficients must be finite"),
         ("case = all\n", "case = all\n[potential]\nheight = 1e400\n",
          "line 21: height must be finite, got inf")],
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

    def test_oracle_at_data_scale_1e300(self, tmp_path):
        # -sub*y0 with sub = 1e8 (n = 10**4) would overflow these data
        text = WAVE_PROBLEM
        for old, new in (
            ("lower = 1 1", "lower = 1e300 1e300"), ("upper = 3 -1", "upper = 3e300 -1e300"),
            ("lower = 4 1", "lower = 4e300 1e300"), ("upper = 6 -1", "upper = 6e300 -1e300"),
        ):
            assert old in text
            text = text.replace(old, new)
        problem = tmp_path / "problem.txt"
        problem.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([str(problem), "--oracle", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text().splitlines()
        gaps = [float(line.split(" = ")[1]) for line in report if line.startswith("oracle_max_gap = ")]
        assert len(gaps) == 4
        assert all(math.isfinite(gap) for gap in gaps)

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


def _scaled_wave(case: DiffCase, scale: float) -> FuzzySolution:
    """The wave problem's solution with every boundary coefficient times scale."""
    bc0, bcL = (FuzzyNumber(bc.lower.scaled(scale), bc.upper.scaled(scale)) for bc in (BC0, BCL))
    return solve(replace(wave_problem(case), bc0=bc0, bcL=bcL))


# 1 + 2**-17 = 1.00000762939453125 has 18 significant digits: a tie at 17
TIE = 1.0 + 2.0**-17
TIE_FORM = RClosedForm(((TermKind.EXP, 0.0, RFun(TIE, 0.0)),))


class TestCsvBytes:
    @pytest.mark.parametrize(
        "sol, x_samples, r_levels",
        [
            pytest.param(solve(problem), *grid, id=f"{grid[0]}-{grid[1]}-{name}")
            for grid in [(7, 4), (101, 11)]
            for name, problem in [
                ("wave-12", wave_problem(DiffCase.CASE_12)),
                ("homogeneous-11", homogeneous_problem(DiffCase.CASE_11)),
            ]
        ]
        # 2**±400 give three-digit exponents; at 2**-1000 every value is near
        # 1e-301, below the fast range, so Python formats the whole file
        + [
            pytest.param(_scaled_wave(case, 2.0**power), 101, 11, id=f"wave-{case.tag}-2^{power}")
            for case in (DiffCase.CASE_11, DiffCase.CASE_12)
            for power in (400, -400, -1000)
        ]
        + [
            pytest.param(solve(wave_problem(DiffCase.CASE_11)), 1001, 21, id="1001-21-wave-11"),
            pytest.param(
                FuzzySolution(TIE_FORM, TIE_FORM, DiffCase.CASE_11, wave_problem(), {}), 7, 4,
                id="7-4-tie",
            ),
        ],
    )
    def test_matches_per_point_loop(self, tmp_path, sol, x_samples, r_levels):
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


def _e16_texts(values) -> list[str]:
    """The CSV helper's text of each value, its NUL slots dropped."""
    rows = cli._e16_bytes(np.array(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _proven(values) -> np.ndarray:
    """Where the helper's numpy digits stand without Python's formatter."""
    v = np.array(values, dtype=float)
    return cli._e16_fast(v, np.empty((cli._E16_WIDTH, v.size), np.uint8))


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-300, 301)])
EDGE_VALUES = [
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    *POWERS_OF_TEN,
    *np.nextafter(POWERS_OF_TEN, 0.0),
    *np.nextafter(POWERS_OF_TEN, np.inf),
    *(
        np.nextafter(bound, toward)
        for bound in (cli._FAST_MIN, cli._FAST_MAX)
        for toward in (0.0, bound, np.inf)
    ),
]


class TestE16Text:
    """The CSV's numbers are f"{v:.16e}", byte for byte, whichever path forms them."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310])
    def test_matches_format(self, values):
        assert _e16_texts(values) == [f"{v:.16e}" for v in values]

    def test_edge_values(self):
        values = EDGE_VALUES + [-v for v in EDGE_VALUES]
        assert _e16_texts(values) == [f"{v:.16e}" for v in values]

    def test_ties_round_half_even_in_python(self):
        ties = [TIE, -TIE, 1.0 + 3.0 * 2.0**-17]
        assert not _proven(ties).any()
        assert _e16_texts(ties) == [
            "1.0000076293945312e+00",
            "-1.0000076293945312e+00",
            "1.0000228881835938e+00",
        ]

    def test_fast_path_proves_ordinary_values(self):
        # an exact tie at 17 digits (Python's to round) needs a short decimal
        # expansion, which doubles above ~1e10 often have; these stay below 1e5
        values = np.random.default_rng(0).standard_normal(10_000) * 10.0 ** np.arange(-20, 5).repeat(400)
        assert _proven(values).mean() > 0.999
        assert _e16_texts(values) == [f"{v:.16e}" for v in values.tolist()]


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
        oracle_gap = validate.oracle_gap

        def counting(sol, *args, **kwargs):
            seen.append(sol.case)
            return oracle_gap(sol, *args, **kwargs)

        monkeypatch.setattr(validate, "oracle_gap", counting)
        out = tmp_path / "out"
        assert main([str(DEMO_PROBLEMS / "wave.problem"), "--case", "all", "--oracle", "--out", str(out)]) == 0
        assert seen == [DiffCase.CASE_11, DiffCase.CASE_12]
        gaps = [l for l in (out / "report.txt").read_text().splitlines() if l.startswith("oracle_max_gap")]
        assert len(gaps) == 4 and gaps[0] == gaps[1] and gaps[2] == gaps[3]


# At n = ORACLE_N = 2000 the oracle's stencil diagonal 8000000 - 2/h**2 is exactly
# 0 and the stencil has 1999 interior points, so it is singular; the closed form
# solves.
SINGULAR_ORACLE = (DEMO_PROBLEMS / "wave.problem").read_text().replace("\nc = -1\n", "\nc = 8000000\n")


class TestOracleRefusal:
    """Under --oracle an oracle refusal fails its case: exit 1, never exit 3."""

    @pytest.fixture
    def problem(self, tmp_path):
        path = tmp_path / "singular.problem"
        path.write_text(SINGULAR_ORACLE)
        return str(path)

    def test_single_case_fails(self, tmp_path, capsys, problem):
        out = tmp_path / "out"
        assert main([problem, "--case", "11", "--oracle", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("case 11 failed: EigenvalueDegeneracyError: ")
        assert "finite-difference oracle at n = 2000" in err[0]
        report = (out / "report.txt").read_text()
        assert "solved = false\nerror = EigenvalueDegeneracyError: " in report
        assert not (out / "case_11.csv").exists()

    def test_all_cases_fail(self, tmp_path, capsys, problem):
        assert main([problem, "--oracle", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line[:15] for line in err] == [f"case {tag} failed:" for tag in ("11", "22", "12", "21")]
        assert not any(line.startswith("error: internal") for line in err)

    def test_solves_without_oracle(self, tmp_path, capsys, problem):
        assert main([problem, "--case", "11", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


def _edited_wave_demo(*edits) -> str:
    """The wave demo file with each (old, new) edit applied; each old text
    must match exactly once, so an edit that stops matching fails loudly."""
    text = WAVE_DEMO
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


class TestDemoScenarios:
    """Whole-file runs of the demos and of edited copies under --oracle."""

    @pytest.mark.parametrize("name", ["wave", "homogeneous"])
    def test_demo_oracle_gaps_at_most_1e_13(self, tmp_path, name):
        # the gaps are 2.7e-15 (wave, all four cases) and 6.4e-15; NaN fails
        # the bound too
        out = tmp_path / name
        assert main([str(DEMO_PROBLEMS / f"{name}.problem"), "--oracle", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        gaps = [float(g) for g in re.findall(r"^oracle_max_gap = (\S+)$", report, re.M)]
        assert gaps and len(gaps) == report.count("solved = true\n")
        assert all(g <= 1e-13 for g in gaps), gaps

    def test_scaled_wave_writes_the_demo_bytes(self, tmp_path):
        # a and c times 2**-100 give the same ODE, and the oracle's refusal is
        # scale-free: only the summary's problem line may differ
        scale = 2.0**-100
        problem = tmp_path / "scaled.problem"
        problem.write_text(_edited_wave_demo(
            ("\na = 1\n", f"\na = {scale!r}\n"), ("\nc = -1\n", f"\nc = {-scale!r}\n")
        ))
        demo, scaled = tmp_path / "demo", tmp_path / "scaled"
        assert main([str(DEMO_PROBLEMS / "wave.problem"), "--oracle", "--out", str(demo)]) == 0
        assert main([str(problem), "--oracle", "--out", str(scaled)]) == 0
        names = sorted(p.name for p in demo.iterdir() if p.name != "summary.txt")
        assert names == sorted(p.name for p in scaled.iterdir() if p.name != "summary.txt")
        assert "report.txt" in names and len(names) == 5
        for name in names:
            assert (scaled / name).read_bytes() == (demo / name).read_bytes(), name

    def test_long_domain_oracle_fails_the_case(self, tmp_path, capsys):
        # y'' + y = 0 at L = 1e200: the oracle's weight a/h**2 underflows to 0,
        # so case 11 fails under --oracle, and is never an internal error
        problem = tmp_path / "long.problem"
        problem.write_text(_edited_wave_demo(("\nc = -1\n", "\nc = 1\n"), ("\nL = 1\n", "\nL = 1e200\n")))
        assert main([str(problem), "--case", "11", "--oracle", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("case 11 failed: "), err


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


def _magnitudes(zero: bool = False):
    """Floats of either sign with magnitude 10**[-320, 308], and 0 with ``zero``."""
    signed = st.builds(
        lambda u, sign: sign * 10.0**u, st.floats(-320.0, 308.0), st.sampled_from((-1.0, 1.0))
    )
    return signed | st.just(0.0) if zero else signed


def _scaled_problem(a, b, c, L, scale, height) -> str:
    """The wave problem file with these coefficients, domain and height, and its
    boundary data times ``scale``; a negative scale swaps the branches."""
    def bc(lower, upper):
        lo, up = ([scale * v for v in branch] for branch in (lower, upper))
        lo, up = (lo, up) if scale >= 0.0 else (up, lo)
        return f"lower = {lo[0]!r} {lo[1]!r}\nupper = {up[0]!r} {up[1]!r}\n"

    return (
        f"[ode]\na = {a!r}\nb = {b!r}\nc = {c!r}\n\n[domain]\nL = {L!r}\n\n"
        f"[bc0]\n{bc((1.0, 1.0), (3.0, -1.0))}\n[bcL]\n{bc((4.0, 1.0), (6.0, -1.0))}\n"
        f"[potential]\nheight = {height!r}\n"
    )


class TestNoMagnitudeIsAnInternalError:
    """Whatever the magnitudes of the input, ``--oracle`` solves, refuses a
    case or refuses the file; it never ends in exit 3."""

    @settings(max_examples=100, deadline=None)
    @given(
        a=_magnitudes(), b=_magnitudes(zero=True), c=_magnitudes(zero=True), L=_magnitudes(),
        scale=_magnitudes(), height=_magnitudes(zero=True),
    )
    # the oracle's h**2 overflowed, L/n underflowed, fsum met inf - inf, and
    # fsum overflowed on stencil entries near 1e308
    @example(a=1.0, b=0.0, c=1.0, L=1e200, scale=1.0, height=0.0)
    @example(a=1.0, b=0.0, c=1.0, L=5e-324, scale=1.0, height=0.0)
    @example(a=1e300, b=1.7976931348623157e308, c=0.0, L=1e-12, scale=1.0, height=0.0)
    @example(a=4e299, b=1e304, c=0.0, L=1.0, scale=1.0, height=0.0)
    def test_exit_code(self, a, b, c, L, scale, height):
        with contextlib.ExitStack() as stack:
            tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("error")
            path = tmp / "scaled.problem"
            path.write_text(_scaled_problem(a, b, c, L, scale, height))
            code = run(str(path), oracle=True, out_dir=tmp / "out")
        assert code in (0, 1, 2)
        assert "error: internal" not in err.getvalue()
