"""Output checkers, computed apart from the program under test.

Each checker returns a list of problems; an empty list means the output is
correct. Nothing here imports bellpoly: the closed forms, the regime rule,
the CSV layout and the Monte Carlo stream contract are re-derived from their
documented definitions (README "Sweep CSV" and the rho-eps model).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
from numpy.random import Philox

from inputs import MembershipInput, vertex_matrix

SQRT2 = math.sqrt(2.0)
COS_45 = math.cos(math.pi / 4.0)

#: the four coincidence cosines of the sweep: angles 45, 135, 45, 45 degrees
COSINES = (COS_45, -COS_45, COS_45, COS_45)

HEADER = "rho,epsilon,e_ab,e_ab2,e_a2b,e_a2b2,chsh,violates,regime"
MC_HEADER = HEADER + ",mc_chsh,mc_stderr"

#: rows within this distance of eps = sqrt(2)*rho are tagged "boundary"
BOUNDARY_TOL = 1e-9

#: every Monte Carlo CHSH estimate lies within Z_BOUND standard errors of the
#: closed form; for one normal cell a miss at 6 sigma has odds of about 2e-9
Z_BOUND = 6.0

#: float-mode reconstruction errors up to this are accepted
FLOAT_RECON_TOL = 1e-9

#: an outside vector must violate its inequality by at least this much
MIN_MARGIN = Fraction(1, 100)

_RECON = re.compile(r"max reconstruction error = (\S+)")


# -- membership ---------------------------------------------------------------

def check_membership(inp: MembershipInput, code, stdout: str) -> list[str]:
    """Verdict, exit code and printed certificate of one `membership` call."""
    name = inp.path.name
    if inp.inside:
        if code != 0 or "result: inside" not in stdout:
            return [f"{name}: inside vector got exit {code!r}"]
        match = _RECON.search(stdout)
        if match is None:
            return [f"{name}: no reconstruction error printed"]
        text = match.group(1)
        if inp.exact:
            return [] if text == "0" else [f"{name}: exact reconstruction error {text}"]
        try:
            ok = 0 <= Fraction(text) <= FLOAT_RECON_TOL
        except ValueError:
            ok = False
        return [] if ok else [f"{name}: float reconstruction error {text}"]
    if code != 1 or "result: outside" not in stdout:
        return [f"{name}: outside vector got exit {code!r}"]
    return []


def check_inequality(inp: MembershipInput) -> list[str]:
    """The outside vector's integer inequality a.x <= b holds on all 2^n
    vertices (numpy integers) and the vector violates it by its margin."""
    a = np.array(inp.ineq, dtype=np.int64)
    worst = int((vertex_matrix(inp.n, inp.pairs) @ a).max())
    problems = []
    if worst > inp.bound:
        problems.append(f"{inp.path.name}: a vertex reaches {worst} > bound {inp.bound}")
    excess = sum(int(c) * x for c, x in zip(inp.ineq, inp.vector)) - inp.bound
    if excess != inp.margin or excess < MIN_MARGIN:
        problems.append(f"{inp.path.name}: violation {excess} (stated {inp.margin})")
    return problems


# -- sweep CSV ----------------------------------------------------------------

def fmt(value: float) -> str:
    return format(value, ".12g")


def expectation(rho: float, eps: float, cos_ab: float) -> float:
    """-rho*c/eps clipped to [-1, 1]; the sign rule -sign(rho*c) at eps = 0."""
    x = rho * cos_ab
    if eps == 0.0:
        return -1.0 if x > 0.0 else (1.0 if x < 0.0 else 0.0)
    if x >= eps:
        return -1.0
    if x <= -eps:
        return 1.0
    return -x / eps + 0.0


def chsh(rho: float, eps: float) -> float:
    """2*sqrt(2)*rho/eps, or the algebraic maximum 4 once that exceeds it."""
    if rho == 0.0:
        return 0.0
    if eps > rho * SQRT2 / 2.0:
        return 2.0 * SQRT2 * rho / eps
    return 4.0


def regime(rho: float, eps: float) -> str:
    if abs(eps - SQRT2 * rho) <= BOUNDARY_TOL:
        return "boundary"
    if rho == 0.0 or eps == 0.0:
        return "degenerate"
    return "saturated" if eps <= rho * COS_45 else "linear"


def expected_cells(rho: float, eps: float) -> list[str]:
    value = chsh(rho, eps)
    return [fmt(rho), fmt(eps), *(fmt(expectation(rho, eps, c)) for c in COSINES),
            fmt(value), str(int(value > 2.0)), regime(rho, eps)]


def check_sweep_csv(text: str, rho_steps: int, eps_steps: int, trials=None) -> list[str]:
    """Header, row count, row-major order and every closed-form cell; with
    `trials`, every Monte Carlo CHSH lies within Z_BOUND standard errors."""
    lines = text.split("\n")
    header = MC_HEADER if trials else HEADER
    if lines[0] != header:
        return [f"header {lines[0]!r}"]
    if lines[-1] != "" or len(lines) != rho_steps * eps_steps + 2:
        return [f"{len(lines) - 2} rows, expected {rho_steps * eps_steps}"]
    problems = []
    width = 11 if trials else 9
    for idx, line in enumerate(lines[1:-1]):
        rho = (idx // eps_steps) / (rho_steps - 1)
        eps = (idx % eps_steps) / (eps_steps - 1)
        cells = line.split(",")
        want = expected_cells(rho, eps)
        if len(cells) != width or cells[:9] != want:
            problems.append(f"row {idx + 1}: {line!r}, expected {','.join(want)}")
        elif abs(eps - SQRT2 * rho) > BOUNDARY_TOL and cells[7] != str(int(eps < SQRT2 * rho)):
            problems.append(f"row {idx + 1}: violates={cells[7]} at rho={rho}, eps={eps}")
        elif trials:
            gap = abs(float(cells[9]) - chsh(rho, eps))
            if gap > Z_BOUND * float(cells[10]) + 1e-12:
                problems.append(f"row {idx + 1}: mc_chsh {cells[9]} off by {gap:.3g}")
        if len(problems) >= 5:
            break
    return problems


# -- Monte Carlo stream -------------------------------------------------------

def product_sum(rho: float, eps: float, cos_ab: float, trials: int, seed: int,
                first: int) -> int:
    """Sum of the +/-1 outcome products of trials first .. first+trials-1.

    Stream contract: trial i draws doubles 2i and 2i+1 of Philox(key=seed),
    each double being the top 53 bits of one raw 64-bit output times 2^-53,
    and a Philox counter step yields four raw outputs.
    """
    start = 2 * first
    skip = start % 4
    raw = Philox(key=seed, counter=start // 4).random_raw(skip + 2 * trials)[skip:]
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    left_up = u[0::2] < 0.5
    x = np.where(left_up, -(rho * cos_ab), rho * cos_ab)
    aux = u[1::2]
    if eps > 0.0:
        right_up = (-eps + 2.0 * eps * aux) < x
    else:
        right_up = (x > 0.0) | ((x == 0.0) & (aux < 0.5))
    return 2 * int(np.count_nonzero(left_up == right_up)) - trials


def mc_cell(rho: float, eps: float, cell: int, trials: int, seed: int,
            shift: int = 0) -> tuple[str, str]:
    """(mc_chsh, mc_stderr) CSV cells of grid cell `cell` (row-major index).

    Angle-run k of the cell starts at trial (4*cell + k) * stride, where the
    stride is `trials` rounded up to even. `shift` moves every run's start
    and exists only to plant a wrong value in the checker's own tests.
    """
    stride = trials + trials % 2
    means, variances = [], []
    for k, c in enumerate(COSINES):
        total = product_sum(rho, eps, c, trials, seed, (4 * cell + k) * stride + shift)
        means.append(total / trials)
        var = max(0.0, (trials - total * total / trials)) / max(trials - 1, 1)
        variances.append(var / trials)
    m_ab, m_ab2, m_a2b, m_a2b2 = means
    value = abs(m_ab - m_ab2) + abs(m_a2b + m_a2b2)
    stderr = math.sqrt(sum(variances))
    return fmt(value), fmt(stderr)


def check_mc_cells(text: str, rho_steps: int, eps_steps: int, trials: int,
                   seed: int, cells) -> list[str]:
    """The given cells' mc_chsh and mc_stderr match the stream contract exactly."""
    lines = text.split("\n")
    problems = []
    for cell in cells:
        rho = (cell // eps_steps) / (rho_steps - 1)
        eps = (cell % eps_steps) / (eps_steps - 1)
        got = tuple(lines[1 + cell].split(",")[9:11])
        want = mc_cell(rho, eps, cell, trials, seed)
        if got != want:
            problems.append(f"cell {cell} (seed {seed}): mc {got}, expected {want}")
    return problems
