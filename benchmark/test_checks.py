"""Each checker accepts the program's real output and rejects a planted
wrong one.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import call_cli  # noqa: E402


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    family = inputs.Family(6, 12, 4, 1, "in+out")
    groups = inputs.make_membership_inputs(tmp_path_factory.mktemp("in"), 5, family, 2)
    return [inp for group in groups for inp in group]


def test_membership_accepts_real_verdicts(scenarios):
    for inp in scenarios:
        code, stdout = call_cli(["membership", str(inp.path)])
        assert checks.check_membership(inp, code, stdout) == []
        if not inp.inside:
            assert checks.check_inequality(inp) == []


def test_membership_rejects_flipped_verdict(scenarios):
    inside = next(i for i in scenarios if i.inside)
    outside = next(i for i in scenarios if not i.inside)
    assert checks.check_membership(inside, 1, "result: outside C(6,S)\n")
    assert checks.check_membership(outside, 0, "result: inside C(6,S)\n"
                                   "max reconstruction error = 0\n")


def test_membership_rejects_inexact_certificate(scenarios):
    inside = next(i for i in scenarios if i.inside)
    printed = "result: inside C(6,S)\ncertificate: max reconstruction error = {}\n"
    assert checks.check_membership(inside, 0, printed.format("1/64"))
    as_float = replace(inside, exact=False)
    assert checks.check_membership(as_float, 0, printed.format("1e-12")) == []
    assert checks.check_membership(as_float, 0, printed.format("1e-6"))


def test_inequality_rejects_one_violating_vertex(scenarios):
    outside = next(i for i in scenarios if not i.inside)
    n = outside.n
    # p_1 + ... + p_n <= n - 1 fails at the all-ones vertex and nowhere else
    a = (1,) * n + (0,) * len(outside.pairs)
    vector = (Fraction(1),) * (n + len(outside.pairs))
    planted = replace(outside, ineq=a, bound=n - 1, vector=vector, margin=Fraction(1))
    assert int(((inputs.vertex_matrix(n, outside.pairs) @ np.array(a)) > n - 1).sum()) == 1
    problems = checks.check_inequality(planted)
    assert len(problems) == 1 and "vertex" in problems[0]


def _sweep(tmp_path, *extra):
    out = tmp_path / "sweep.csv"
    code, _ = call_cli(["sweep", *extra, "--out", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


def test_sweep_rejects_cell_changed_in_12th_digit(tmp_path):
    text = _sweep(tmp_path, "--rho-steps", "21", "--eps-steps", "21")
    assert checks.check_sweep_csv(text, 21, 21) == []
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines[1:-1], 1)
               if len(line.split(",")[2].lstrip("-").replace(".", "").lstrip("0")) == 12)
    cells = lines[row].split(",")
    cells[2] = cells[2][:-1] + str((int(cells[2][-1]) + 1) % 10)
    lines[row] = ",".join(cells)
    problems = checks.check_sweep_csv("\n".join(lines), 21, 21)
    assert len(problems) == 1 and f"row {row}:" in problems[0]


def test_sweep_rejects_wrong_header_and_order(tmp_path):
    text = _sweep(tmp_path, "--rho-steps", "3", "--eps-steps", "4")
    assert checks.check_sweep_csv(text, 3, 4) == []
    assert checks.check_sweep_csv(text.replace("rho,", "rho ,", 1), 3, 4)
    lines = text.split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    assert checks.check_sweep_csv("\n".join(lines), 3, 4)


def test_mc_rejects_stream_shifted_by_one_trial(tmp_path):
    steps, trials, seed = 5, 2001, 3
    text = _sweep(tmp_path, "--rho-steps", str(steps), "--eps-steps", str(steps),
                  "--trials", str(trials), "--seed", str(seed))
    cells = range(steps * steps)
    assert checks.check_sweep_csv(text, steps, steps, trials) == []
    assert checks.check_mc_cells(text, steps, steps, trials, seed, cells) == []
    cell = 13  # rho = 0.5, eps = 0.75: no component is saturated
    lines = text.split("\n")
    row = lines[1 + cell].split(",")
    shifted = checks.mc_cell(0.5, 0.75, cell, trials, seed, shift=1)
    assert shifted != tuple(row[9:11])
    lines[1 + cell] = ",".join(row[:9] + list(shifted))
    problems = checks.check_mc_cells("\n".join(lines), steps, steps, trials, seed, cells)
    assert len(problems) == 1 and f"cell {cell} " in problems[0]
