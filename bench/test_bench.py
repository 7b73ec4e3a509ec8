"""Self-tests of the benchmark's reference and failure classifier.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

import io
import math

import numpy as np
import pytest

import classify
import reference
from fuzzybvp.errors import EigenvalueDegeneracyError

# y'' = y on [0, 1] with (1+r, 3-r) at x = 0 and (4+r, 6-r) at x = 1.
WAVE = {
    "a": 1.0, "b": 0.0, "c": -1.0, "L": 1.0, "height": 0.0,
    "bc0": ((1.0, 1.0), (3.0, -1.0)),
    "bcL": ((4.0, 1.0), (6.0, -1.0)),
}
XS = np.linspace(0.0, 1.0, 21)
RS = np.linspace(0.0, 1.0, 5)


def cosh_sinh(y0, yL, x):
    """Hand solution of y'' = y, y(0) = y0, y(1) = yL."""
    return y0 * np.cosh(x) + (yL - y0 * math.cosh(1.0)) / math.sinh(1.0) * np.sinh(x)


def cos_sin(y0, yL, x):
    """Hand solution of y'' = -y, y(0) = y0, y(1) = yL."""
    return y0 * np.cos(x) + (yL - y0 * math.cos(1.0)) / math.sin(1.0) * np.sin(x)


def test_reference_matches_hand_solved_wave_problem():
    x, r = XS[:, None], RS[None, :]
    lower = cosh_sinh(1.0 + r, 4.0 + r, x)
    upper = cosh_sinh(3.0 - r, 6.0 - r, x)
    for case in ("11", "22"):
        sol = reference.solve_case(WAVE, case)
        np.testing.assert_allclose(sol.lower(XS, RS), lower, rtol=1e-13)
        np.testing.assert_allclose(sol.upper(XS, RS), upper, rtol=1e-13)
    f_lower = (4.0 + RS - (1.0 + RS) * math.cosh(1.0)) / math.sinh(1.0)
    f_upper = (6.0 - RS - (3.0 - RS) * math.cosh(1.0)) / math.sinh(1.0)
    np.testing.assert_allclose(reference.solve_case(WAVE, "11").constants["F1"](RS)[0], f_lower, rtol=1e-13)
    np.testing.assert_allclose(reference.solve_case(WAVE, "22").constants["F1"](RS)[0], f_upper, rtol=1e-13)

    # Mixed cases: s = lower + upper = (4, 10) solves s'' = s, and
    # d = lower - upper = (2r - 2, 2r - 2) solves d'' = -d.
    s = cosh_sinh(4.0, 10.0, x)
    d = cos_sin(2.0 * r - 2.0, 2.0 * r - 2.0, x)
    mixed = reference.solve_case(WAVE, "12")
    np.testing.assert_allclose(mixed.lower(XS, RS), (s + d) / 2, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(mixed.upper(XS, RS), (s - d) / 2, rtol=1e-13, atol=1e-14)


def test_reference_refuses_outside_the_method():
    damped = dict(WAVE, b=1.0, c=2.0)
    assert all(isinstance(v, reference.Refusal) for v in reference.solve_all(damped).values())
    oscillating = dict(WAVE, c=1.0)
    refs = reference.solve_all(oscillating)
    assert isinstance(refs["12"], reference.Refusal)
    assert not isinstance(refs["11"], reference.Refusal)


def csv_text(sol) -> str:
    lower, upper = sol.lower(XS, RS), sol.upper(XS, RS)
    rows = [classify.CSV_HEADER]
    for i, x in enumerate(XS):
        for j, r in enumerate(RS):
            rows.append(f"{x:.16e},{r:.16e},{lower[i, j]:.16e},{upper[i, j]:.16e}")
    return "\n".join(rows) + "\n"


def test_classifier_flags_one_perturbed_csv_value():
    sol = reference.solve_case(WAVE, "12")
    text = csv_text(sol)
    assert classify.check_csv(sol, io.StringIO(text), XS, RS) == []

    rows = text.splitlines()
    x, r, lo, up = rows[37].split(",")
    rows[37] = ",".join([x, r, repr(float(lo) * (1.0 + 1e-6)), up])
    reasons = classify.check_csv(sol, io.StringIO("\n".join(rows) + "\n"), XS, RS)
    assert len(reasons) == 1 and "lower" in reasons[0]
    assert 1e-8 < reasons[0].rel_error < 1e-5


def test_classifier_flags_unexpected_refusal():
    refs = reference.solve_all(dict(WAVE, c=1.0))
    refusal = EigenvalueDegeneracyError("pivot vanished")
    assert classify.check_outcome("11", refs["11"], refusal)
    assert classify.check_outcome("12", refs["12"], refusal) == []
    assert classify.check_outcome("11", refs["11"], ValueError("non-finite term"))
    assert classify.check_outcome("12", refs["12"], None)
    assert classify.expected_exit(refs, ["12", "21"]) == 1
    assert classify.expected_exit(refs, ["11", "12"]) == 0


@pytest.mark.parametrize("kL", [20.0, 40.0])
def test_reference_stays_accurate_on_long_domains(kL):
    # Far boundary reproduced to rounding where a cosh/sinh expansion about
    # x = 0 loses e^{kL} * eps.
    prob = dict(WAVE, L=kL)
    sol = reference.solve_case(prob, "11")
    ends = sol.lower(np.array([0.0, kL]), RS)
    np.testing.assert_allclose(ends, np.stack([1.0 + RS, 4.0 + RS]), rtol=1e-14)
