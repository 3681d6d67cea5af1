"""Phase-1 simplex feasibility solver.

Decides whether A x = b has a solution with x >= 0 by minimizing the sum of
artificial variables, pivoting under Bland's rule (anti-cycling). Two modes:

- "float": numpy tableau, tolerance-based pivoting. Raises DegeneracyError
  if pivoting stalls past the iteration cap.
- "exact": pure rational arithmetic with `fractions.Fraction`; comparisons
  are exact and Bland's rule guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import Prob, as_fraction

#: pivot/zero tolerance for the float kernel
PIVOT_TOL = 1e-10

#: maximum allowed phase-1 objective for a float problem to count as feasible
FEAS_TOL = 1e-9


class DegeneracyError(RuntimeError):
    """Float-mode pivoting stalled (cycling or numerically degenerate basis)."""


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Equality system A x = b with x >= 0 on every variable.

    `a` may be any 2-D array-like with numeric entries (integers stay exact
    in exact mode); `b` is the right-hand side, one entry per row.
    """

    a: np.ndarray
    b: tuple[Prob, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.a)
        if a.ndim != 2:
            raise ValueError("constraint matrix must be 2-D")
        if a.shape[0] != len(self.b):
            raise ValueError(
                f"dimension mismatch: {a.shape[0]} rows vs {len(self.b)} right-hand sides"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", tuple(self.b))


def lp_feasible(
    problem: FeasibilityProblem, mode: str = "float"
) -> Optional[list[Prob]]:
    """Nonnegative solution of the equality system, or None if infeasible."""
    if mode == "float":
        x = _feasible_float(problem.a, problem.b)
        return None if x is None else [float(v) for v in x]
    if mode == "exact":
        return _feasible_exact(problem.a, problem.b)
    raise ValueError(f"unknown mode {mode!r}; expected 'float' or 'exact'")


def _aligned_zeros(shape: tuple[int, int]) -> np.ndarray:
    """Zeroed float array whose data starts on a 64-byte boundary.

    numpy only promises 16 bytes. The pivot update streams through the whole
    tableau; on an AVX-512 Xeon a misaligned start made it up to 1.5x slower,
    so its speed hinged on where earlier allocations left the heap.
    """
    size = shape[0] * shape[1]
    raw = np.zeros(size + 8)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip:skip + size].reshape(shape)


def _feasible_float(a: np.ndarray, b: Sequence[Prob]) -> Optional[np.ndarray]:
    a = np.array(a, dtype=float)
    rhs = np.array([float(x) for x in b], dtype=float)
    m, ncol = a.shape
    flip = rhs < 0
    a[flip] *= -1.0
    rhs[flip] *= -1.0

    # tableau: [A | I | b], artificials start in the basis; bottom row holds
    # reduced costs for min(sum of artificials) and minus the objective value
    t = _aligned_zeros((m + 1, ncol + m + 1))
    update = _aligned_zeros(t.shape)  # the rank-1 pivot update, reused
    t[:m, :ncol] = a
    t[:m, ncol:ncol + m] = np.eye(m)
    t[:m, -1] = rhs
    t[m, :ncol] = -a.sum(axis=0)
    t[m, -1] = -rhs.sum()
    basis = list(range(ncol, ncol + m))

    # healthy runs improve the objective on every pivot; a long plateau
    # means cycling or numerical degeneracy, independent of problem width
    max_plateau = 200 + 10 * m
    plateau = 0
    objective = rhs.sum()
    max_iter = 10_000 + 50 * (m + ncol)
    for _ in range(max_iter):
        reduced = t[m, :ncol + m]
        candidates = np.nonzero(reduced < -PIVOT_TOL)[0]
        if candidates.size == 0:
            break
        enter = int(candidates[0])  # Bland: lowest eligible column index
        col = t[:m, enter]
        eligible = np.nonzero(col > PIVOT_TOL)[0]
        if eligible.size == 0:
            raise DegeneracyError("no positive pivot in entering column")
        ratios = t[eligible, -1] / col[eligible]
        rmin = ratios.min()
        ties = eligible[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        leave = min(ties, key=lambda r: basis[r])  # Bland tie-break
        t[leave, :] /= t[leave, enter]
        factors = t[:, enter].copy()
        factors[leave] = 0.0
        np.multiply(factors[:, None], t[leave, :], out=update)
        t -= update
        basis[leave] = enter
        improved = -t[m, -1] < objective - 1e-14 * (1.0 + abs(objective))
        objective = -t[m, -1]
        plateau = 0 if improved else plateau + 1
        if plateau > max_plateau:
            raise DegeneracyError("phase-1 pivoting stalled before optimality")
    else:
        raise DegeneracyError("phase-1 pivoting stalled before optimality")

    if -t[m, -1] > FEAS_TOL:
        return None
    x = np.zeros(ncol)
    for row, var in enumerate(basis):
        if var < ncol:
            x[var] = max(t[row, -1], 0.0)
    return x


def _feasible_exact(a: np.ndarray, b: Sequence[Prob]) -> Optional[list[Fraction]]:
    # everything becomes Fraction up front: plain ints would silently turn
    # into floats at the first int/int pivot division
    rows = [[as_fraction(x) for x in row] for row in np.asarray(a).tolist()]
    rhs = [as_fraction(x) for x in b]
    m = len(rows)
    ncol = len(rows[0]) if m else 0
    for i in range(m):
        if rhs[i] < 0:
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

    if -cost[-1] > 0:
        return None
    x: list[Fraction] = [zero] * ncol
    for row, var in enumerate(basis):
        if var < ncol:
            x[var] = t[row][-1]
    return x
