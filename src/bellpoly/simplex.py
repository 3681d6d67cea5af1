"""Phase-1 feasibility solver.

Decides whether A x = b has a solution with x >= 0 by minimizing the sum of
artificial variables. Two modes:

- "float": certified delayed column generation (Gilmore-Gomory). A small
  float phase-1 master over a growing set of columns is re-solved each
  round; its duals price every column of A in one matrix-vector pass, and
  up to 2m of the best-priced columns join it. The final basis is then
  checked in exact integer arithmetic (fraction-free Bareiss elimination):
  "feasible" needs exact nonnegative weights, "infeasible" an integer Farkas
  vector y with y.b > 0 and y.A <= 0 on every column. If neither check
  passes, exact Bland pivoting on the restricted master, priced exactly,
  takes over; it terminates. The verdict is rigorous either way and the
  weights are Fractions.
- "exact": that exact master started from every column of A, so one dense
  `fractions.Fraction` tableau under Bland's rule, which terminates.

A is an integer matrix; b is taken at its exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import Prob, as_fraction

#: float master: objective counted as zero, smallest price that adds a column,
#: and the reduced-cost and pivot thresholds
FEAS_TOL = 1e-9

_ZERO = Fraction(0)


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Equality system A x = b with x >= 0 on every variable.

    `a` is a 2-D array-like of integers; `b` is the right-hand side, one
    entry per row.
    """

    a: np.ndarray
    b: tuple[Prob, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.a)
        if a.ndim != 2:
            raise ValueError("constraint matrix must be 2-D")
        if a.dtype.kind not in "biu":
            raise ValueError(f"constraint matrix must be integer, not {a.dtype}")
        if a.shape[0] != len(self.b):
            raise ValueError(
                f"dimension mismatch: {a.shape[0]} rows vs {len(self.b)} right-hand sides"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", tuple(self.b))


def lp_feasible(
    problem: FeasibilityProblem, mode: str = "float"
) -> Optional[list[Fraction]]:
    """Nonnegative solution of the equality system, or None if infeasible."""
    if mode == "float":
        return certified_feasible(problem.a, problem.b)[0]
    if mode == "exact":
        return _exact_rounds(problem.a, problem.b, range(problem.a.shape[1]))[0]
    raise ValueError(f"unknown mode {mode!r}; expected 'float' or 'exact'")


class _Stall(Exception):
    """The float master ran past its pivot budget."""


def certified_feasible(
    a: np.ndarray, b: Sequence[Prob]
) -> tuple[Optional[list[Fraction]], Optional[list[int]]]:
    """(x, None) with exact x >= 0 and A x = b, or (None, y) with an integer
    Farkas vector y: y.b > 0 and y.A_j <= 0 on every column. `a` is an
    integer array."""
    frac_b = [as_fraction(x) for x in b]
    sign = [-1 if x < 0 else 1 for x in frac_b]
    scale = math.lcm(*(x.denominator for x in frac_b))
    int_b = [int(x * scale) for x in frac_b]
    cols: list[int] = []
    start = cols  # the columns the exact fallback starts from
    # the first pass stops once the objective reaches zero; if its basis
    # certifies nothing, the second prices until no column prices positive
    for stop in (FEAS_TOL, -math.inf):
        try:
            basis, objective = _float_rounds(a, [float(x) for x in frac_b], sign, cols, stop)
        except _Stall:
            break
        if objective <= FEAS_TOL:
            x = _certify_feasible(a, int_b, scale, sign, basis)
            if x is not None:
                return x, None
        y = _certify_infeasible(a, int_b, sign, basis)
        if y is not None:
            return None, y
        # a near miss: starting from the basis, not from every column the
        # float passes took, made the exact master 4-15 times faster on
        # float inputs rounded just off a face at n = 11 and 12
        start = [j for j in basis if j < a.shape[1]]
    return _exact_rounds(a, frac_b, start)


def _float_rounds(a, rhs, sign, cols, stop):
    """Column generation on a float phase-1 master, until the objective is
    at most `stop` or no column prices positive. Grows `cols` in place;
    returns the final master basis (column ids of A, artificial i as
    ncol + i) and its objective.

    The master is a dense tableau [I | A_cols | b] over the artificials and
    the columns taken so far, rows flipped to b >= 0, with reduced costs and
    minus the objective in its last row. It keeps every column it takes
    (dropping them let degenerate vectors cycle) and goes on each round from
    the last basis: a new column enters as B^-1 A_j, read off the
    artificial block, with reduced cost -y.A_j.
    """
    m, ncol = a.shape
    af = a * np.array(sign, dtype=float)[:, None]
    k = len(cols)
    t = np.zeros((m + 1, m + k + 1))
    t[:m, :m] = np.eye(m)
    t[:m, m:-1] = af[:, cols]
    t[:m, -1] = np.abs(rhs)
    t[m, m:] = -t[:m, m:].sum(axis=0)
    basis = list(range(m))
    in_master = np.zeros(ncol, dtype=bool)
    in_master[cols] = True
    take = min(2 * m, ncol - k)
    while True:
        objective = _pivot_to_optimum(t, basis)
        if objective <= stop or not take:
            break
        y = 1.0 - t[m, :m]  # an artificial's reduced cost is 1 - y_i
        price = y @ af
        price[in_master] = -np.inf
        best = np.argpartition(price, ncol - take)[ncol - take:]
        new = np.sort(best[price[best] > FEAS_TOL])
        if not new.size:
            break
        in_master[new] = True
        cols.extend(new.tolist())
        take = min(take, ncol - len(cols))
        block = af[:, new]
        t = np.hstack([t[:, :-1], np.vstack([t[:m, :m] @ block, -(y @ block)]), t[:, -1:]])
    return [ncol + j if j < m else cols[j - m] for j in basis], objective


def _pivot_to_optimum(t: np.ndarray, basis: list[int]) -> float:
    """Phase-1 pivots on the tableau in place; returns the objective.

    Dantzig's rule, switching to Bland's after a degenerate plateau; raises
    _Stall past the pivot budget.
    """
    m = len(basis)
    bland = False
    plateau = 0
    for _ in range(100 * t.shape[1]):
        reduced = t[m, :-1]
        if bland:
            candidates = np.flatnonzero(reduced < -FEAS_TOL)
            if not candidates.size:
                break
            enter = int(candidates[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -FEAS_TOL:
                break
        col = t[:m, enter]
        rows = np.flatnonzero(col > FEAS_TOL)
        if not rows.size:
            raise _Stall  # phase 1 is bounded below; only round-off gets here
        ratios = t[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        if bland:
            leave = min(ties, key=lambda r: basis[r])
        else:
            leave = int(ties[np.argmax(col[ties])])
        objective = -t[m, -1]
        t[leave] /= t[leave, enter]
        factors = t[:, enter].copy()
        factors[leave] = 0.0
        t -= np.outer(factors, t[leave])
        basis[leave] = enter
        # a drop below 1e-12 is round-off, not progress
        plateau = 0 if -t[m, -1] < objective - 1e-12 else plateau + 1
        bland = bland or plateau > 2 * m
    else:
        raise _Stall
    return -t[m, -1]


def _bareiss_solve(rows: list[list[int]]) -> Optional[tuple[int, list[int]]]:
    """Solve the square integer system given as augmented rows [M | r].

    Fraction-free Gauss-Jordan elimination (Bareiss): every division is
    exact, and at the end each diagonal entry is the same d = +-det(M).
    Returns (d, z) with M (z / d) = r, or None if M is singular.
    """
    m = len(rows)
    prev = 1
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        piv = pivot_row[k]
        for i in range(m):
            if i != k:
                row = rows[i]
                f = row[k]
                rows[i] = row[:k] + [
                    (piv * x - f * y) // prev for x, y in zip(row[k:], pivot_row[k:])
                ]
        prev = piv
    return prev, [row[m] for row in rows]


def _basis_columns(a: np.ndarray, sign, basis) -> list[list[int]]:
    """Integer columns of the basis; artificial i is sign_i times e_i."""
    m, ncol = a.shape
    real = iter(a[:, [j for j in basis if j < ncol]].T.tolist())
    return [next(real) if j < ncol else [sign[i] * (i == j - ncol) for i in range(m)]
            for j in basis]


def _certify_feasible(a, int_b, scale, sign, basis) -> Optional[list[Fraction]]:
    """Exact weights of the basis, if they are >= 0 with every artificial 0."""
    m, ncol = a.shape
    columns = _basis_columns(a, sign, basis)
    solved = _bareiss_solve([[c[r] for c in columns] + [int_b[r]] for r in range(m)])
    if solved is None:
        return None
    det, z = solved
    if det < 0:
        det, z = -det, [-v for v in z]
    x = [_ZERO] * ncol
    for j, v in zip(basis, z):
        if v < 0 or (v and j >= ncol):
            return None
        if v:
            x[j] = Fraction(v, det * scale)
    return x


def _certify_infeasible(a, int_b, sign, basis) -> Optional[list[int]]:
    """The basis duals, y B = c_B solved exactly, as an integer vector, if
    they are a Farkas vector."""
    ncol = a.shape[1]
    columns = _basis_columns(a, sign, basis)
    solved = _bareiss_solve([c + [int(j >= ncol)] for c, j in zip(columns, basis)])
    if solved is None:
        return None
    det, y = solved
    y = _primitive([v if det > 0 else -v for v in y])
    if sum(u * v for u, v in zip(y, int_b)) > 0 and _exact_prices(a, y).max(initial=0) <= 0:
        return y
    return None


def _primitive(y: list[int]) -> list[int]:
    g = math.gcd(*y)
    return [v // g for v in y] if g > 1 else y


def _exact_prices(a: np.ndarray, y: list[int]) -> np.ndarray:
    """y @ a exactly: int64 when no sum can overflow, Python ints otherwise."""
    widest = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    if sum(abs(v) for v in y) * widest < 2 ** 63:
        return np.array(y, dtype=np.int64) @ a
    return np.array(y, dtype=object) @ a.astype(object)


def _exact_rounds(a: np.ndarray, b: Sequence[Prob], cols: Sequence[int]):
    """Column generation with an exact Bland master and exact pricing, in
    the return convention of certified_feasible. Every round adds a column
    the master does not hold, so it terminates."""
    m, ncol = a.shape
    cols = list(cols)
    take = min(2 * m, ncol)
    while True:
        x, y = _bland_phase1(a[:, cols], b)
        if x is not None:
            weights = [_ZERO] * ncol
            for j, w in zip(cols, x):
                weights[j] = w
            return weights, None
        denominator = math.lcm(*(v.denominator for v in y))
        y = _primitive([int(v * denominator) for v in y])
        price = _exact_prices(a, y)
        positive = price > 0  # a mask: np.setdiff1d would import numpy.ma
        positive[cols] = False
        candidates = np.flatnonzero(positive)
        if not candidates.size:
            return None, y
        order = np.argsort(-price[candidates].astype(float), kind="stable")
        cols.extend(candidates[order[:take]].tolist())


def _bland_phase1(
    a: np.ndarray, b: Sequence[Prob]
) -> tuple[Optional[list[Fraction]], list[Fraction]]:
    """Exact phase 1 under Bland's rule: (solution or None, optimal duals y).

    When infeasible, y is a Farkas vector in the original row signs:
    y.b > 0 and y.A_j <= 0 on every column.
    """
    # everything becomes Fraction up front: plain ints would silently turn
    # into floats at the first int/int pivot division
    rows = [[as_fraction(x) for x in row] for row in np.asarray(a).tolist()]
    rhs = [as_fraction(x) for x in b]
    m = len(rows)
    ncol = len(rows[0]) if m else 0
    flipped = [x < 0 for x in rhs]
    for i in range(m):
        if flipped[i]:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    zero = Fraction(0)
    t = [list(rows[i]) + [zero] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        t[i][ncol + i] = Fraction(1)
    cost = [-sum(rows[i][j] for i in range(m)) for j in range(ncol)]
    cost += [zero] * m + [-sum(rhs)]
    basis = list(range(ncol, ncol + m))

    width = ncol + m
    while True:
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j  # Bland: lowest negative reduced cost
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            aij = t[i][enter]
            if aij > 0:
                ratio = t[i][-1] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; inconsistent input")
        piv_row = t[leave]
        piv = piv_row[enter]
        if piv != 1:
            t[leave] = piv_row = [x / piv for x in piv_row]
        for i in range(m):
            if i != leave:
                f = t[i][enter]
                if f:
                    t[i] = [x - f * y for x, y in zip(t[i], piv_row)]
        f = cost[enter]
        if f:
            cost = [x - f * y for x, y in zip(cost, piv_row)]
        basis[leave] = enter

    # the artificials' reduced costs are 1 - y_i
    y = [(cost[ncol + i] - 1) if flipped[i] else (1 - cost[ncol + i]) for i in range(m)]
    if -cost[-1] > 0:
        return None, y
    x: list[Fraction] = [zero] * ncol
    for row, var in enumerate(basis):
        if var < ncol:
            x[var] = t[row][-1]
    return x, y
