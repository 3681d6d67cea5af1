"""Sphere-rod-elastic measurement model parameterized by correlation reach
rho and elastic half-width eps.

Two unit spheres hold point entities joined by a rigid rod. Measuring one
side drags its entity to an outcome pole with probability one half and, via
the rod, displaces the other entity by rho along the measured direction. The
second side's entity then falls onto an elastic spanning its measurement
axis; the elastic breaks uniformly inside [-eps, +eps] and drags the entity
to a pole. rho = 1, eps = 1 reproduces the quantum singlet correlations;
rho = 0 removes all correlation; eps = 0 is the deterministic limit (up to
the unstable equilibrium at projection zero, resolved by a fair coin).

Everything reduces to scalar projection arithmetic: with c = a.b the second
entity sits at -rho*c (first outcome up) or +rho*c (first outcome down), and
the outcome is up exactly when the break point falls below that position.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .core import ValidationError

SQRT2 = math.sqrt(2.0)

#: cos 45 degrees, the coincidence geometry that maximizes the statistic
COS_45 = math.cos(math.pi / 4.0)

#: Monte Carlo trials per fill of each thread's reused buffers; even, so chunk
#: starts align with the stream (trial i consumes doubles 2i and 2i+1). A
#: Monte Carlo sweep fills one set per CPU, so two threads' 32 Ki buffers weigh
#: what one 64 Ki set did; the chunk never changes a sum.
MC_CHUNK = 1 << 15

#: eps values per block of closed-form sweep columns; a wide row is held a block at a time
SWEEP_BLOCK = 4096

_buffers = threading.local()  # each caller thread's draw buffers, reused across calls


@dataclass(frozen=True)
class EpsRhoParams:
    """Correlation reach rho and elastic half-width eps, both in [0, 1]."""

    rho: float
    eps: float

    def __post_init__(self) -> None:
        for name in ("rho", "eps"):
            value = getattr(self, name)
            if not 0.0 <= float(value) <= 1.0:
                raise ValidationError(f"{name} = {value!r} outside [0, 1]")


@dataclass(frozen=True)
class MeasurementDirections:
    """Measurement directions of the two sides, reduced to cos_ab = a.b."""

    cos_ab: float

    def __post_init__(self) -> None:
        c = float(self.cos_ab)
        if math.isnan(c) or abs(c) > 1.0 + 1e-12:
            raise ValidationError(f"cos_ab = {self.cos_ab!r} outside [-1, 1]")
        object.__setattr__(self, "cos_ab", min(1.0, max(-1.0, c)))

    @classmethod
    def from_angle(cls, radians: float) -> "MeasurementDirections":
        return cls(math.cos(radians))


def closed_form_expectation(params: EpsRhoParams, cos_ab: float) -> float:
    """Coincidence expectation of the model.

    -rho*c/eps while the projection rho*c sits inside the breakable interval,
    saturating at -1 (rho*c >= eps) or +1 (rho*c <= -eps). At eps = 0 this
    degenerates to -sign(rho*c), zero at the unstable equilibrium.
    """
    if abs(cos_ab) > 1.0 + 1e-12:
        raise ValidationError(f"cos_ab = {cos_ab!r} outside [-1, 1]")
    return _expectation(params.rho, params.eps, cos_ab)


def _expectation(rho: float, eps: float, cos_ab: float) -> float:
    x = rho * cos_ab
    if eps == 0.0:
        if x > 0.0:
            return -1.0
        if x < 0.0:
            return 1.0
        return 0.0
    if x >= eps:
        return -1.0
    if x <= -eps:
        return 1.0
    return -x / eps + 0.0  # + 0.0 normalizes IEEE negative zero


def chsh_closed_form(params: EpsRhoParams) -> float:
    """CHSH value at the optimal 45/135-degree geometry.

    2*sqrt(2)*rho/eps while eps/rho > sqrt(2)/2, else the algebraic maximum
    4; identically 0 at rho = 0. Both branches meet at eps = rho*sqrt(2)/2
    where each gives 4.
    """
    return _chsh(params.rho, params.eps)


def _chsh(rho: float, eps: float) -> float:
    if rho == 0.0:
        return 0.0
    if eps / rho > SQRT2 / 2.0:
        return 2.0 * SQRT2 * rho / eps
    return 4.0


def violation_boundary(rho: float) -> float:
    """Largest eps (capped at 1) below which the CHSH bound 2 is violated.

    The violation region is exactly eps < sqrt(2)*rho, so any rho above
    1/sqrt(2) violates for every eps in [0, 1].
    """
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"rho = {rho!r} outside [0, 1]")
    if rho == 0.0:
        return 0.0
    return min(SQRT2 * rho, 1.0)


def _right_up(eps: float, x: float, u: float) -> bool:
    """Outcome predicate of the second side for auxiliary uniform u."""
    if eps > 0.0:
        return -eps + 2.0 * eps * u < x
    return x > 0.0 or (x == 0.0 and u < 0.5)


@functools.lru_cache(maxsize=1024)
def _threshold(eps: float, x: float) -> float:
    """The cut T with _right_up(eps, x, u) == (u < T) for every uniform u.

    A uniform is u = k * 2^-53, and IEEE multiply by a positive value and
    IEEE add are monotone, so the predicate is monotone in k: bisect k.
    """
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if _right_up(eps, x, mid * 2.0**-53):
            lo = mid + 1
        else:
            hi = mid
    return lo * 2.0**-53


def _product_sum(
    rho: float,
    eps: float,
    cos_ab: float,
    trials: int,
    seed: int,
    base_trial: int = 0,
    chunk: int = MC_CHUNK,
) -> int:
    """Exact integer sum of the +/-1 outcome products for the given trials.

    The per-trial stream contract: trial i (counted from base_trial) draws
    u[2i] and u[2i+1], doubles 2i and 2i+1 of Philox(key=seed). The first
    side is up iff u[2i] < 0.5, which puts the second entity at
    x = -rho*cos_ab (else +rho*cos_ab). The elastic breaks at
    -eps + 2*eps*u[2i+1], and the second side is up iff that break point is
    strictly below x (a tie comes out down); at eps = 0 it is up iff x > 0,
    with u[2i+1] < 0.5 as the fair coin at x = 0. So any even-aligned cut of
    the trials gives the same sum. The run is one serial pass on the caller's
    thread; a Monte Carlo sweep spreads its grid cells, never one run, over
    threads, so a run's time does not hinge on a second CPU being free.

    A run whose second outcome is fixed by the first (the saturated corner
    eps <= |rho*cos_ab|, and eps = 0 away from x = 0) has every product equal
    to -1, or every one to +1, whatever is drawn: it returns -trials or
    +trials and draws nothing. The doubles it would have read stay its own,
    so no other run's draws move.
    """
    if chunk % 2 or chunk <= 0:
        raise ValueError("chunk size must be a positive even integer")
    if base_trial % 2:
        raise ValueError("base_trial must be even to align with the stream")
    if not 0 <= seed < 1 << 128:  # Philox's key range, checked here for a run that draws nothing
        raise ValueError(f"seed = {seed} outside [0, 2**128), the Philox key range")
    t_up, t_dn = _threshold(eps, -rho * cos_ab), _threshold(eps, rho * cos_ab)
    if {t_up, t_dn} == {0.0, 1.0}:  # u < 1.0 always holds and u < 0.0 never does
        return trials if t_up == 1.0 else -trials
    size = min(chunk, trials)  # short runs keep short buffers
    u, flags = getattr(_buffers, "arrays", (np.empty(0), None))
    if u.size < 2 * size:
        u, flags = _buffers.arrays = np.empty(2 * size), np.empty((2, size), bool)
    gen = Generator(Philox(key=seed).advance(base_trial // 2))  # a step skips four doubles
    agree = 0
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        gen.random(out=u[: 2 * m])
        left_up = np.less(u[0 : 2 * m : 2], 0.5, out=flags[0, :m])
        aux = u[1 : 2 * m : 2]
        right_up = np.less(aux, t_up, out=flags[1, :m])  # given left up
        agree += np.count_nonzero(np.logical_and(left_up, right_up, out=right_up))
        right_up = np.less(aux, t_dn, out=flags[1, :m])  # given left down
        agree += m - np.count_nonzero(np.logical_or(left_up, right_up, out=right_up))
    return 2 * int(agree) - trials


def _mean_and_stderr(total: int, trials: int) -> tuple[float, float]:
    mean = total / trials
    # products are +/-1, so the sample variance follows from the sum alone
    var = max(0.0, (trials - total * total / trials)) / max(trials - 1, 1)
    return mean, math.sqrt(var / trials)


def monte_carlo_expectation(
    params: EpsRhoParams,
    dirs: MeasurementDirections,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate the coincidence expectation by simulation.

    Returns (mean of the +/-1 products, standard error). Deterministic for a
    fixed seed: each trial's draws are derived from (seed, trial index), so
    the result does not depend on chunking or evaluation order. A run whose
    products are all fixed (saturated, or eps = 0 with rho*cos_ab != 0) draws
    nothing and returns (-1.0, 0.0) or (1.0, 0.0) at once. The trial count
    and the seed must be integers: a float seed would be truncated to another
    seed's stream.
    """
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 1:
        raise ValueError(f"trials = {trials} must be at least 1")
    total = _product_sum(params.rho, params.eps, dirs.cos_ab, trials, seed)
    return _mean_and_stderr(total, trials)


class SweepRow(NamedTuple):
    """One (rho, eps) grid cell of a violation-region sweep; its fields, in
    order, are the columns of the sweep CSV."""

    rho: float
    epsilon: float
    e_ab: float
    e_ab2: float
    e_a2b: float
    e_a2b2: float
    chsh: float
    violates: int
    regime: str
    mc_chsh: Optional[float] = None
    mc_stderr: Optional[float] = None


def _regime(rho: float, eps: float) -> str:
    if abs(eps - SQRT2 * rho) <= 1e-9:
        return "boundary"
    if rho == 0.0 or eps == 0.0:
        return "degenerate"
    return "saturated" if eps / rho <= SQRT2 / 2.0 else "linear"


#: cosines of the four coincidence angles (ab, ab', a'b, a'b') at the
#: CHSH-optimal geometry: 45, 135, 45, 45 degrees
SWEEP_COSINES = (COS_45, -COS_45, COS_45, COS_45)


def sweep(
    rho_grid: Sequence[float],
    eps_grid: Sequence[float],
    trials: Optional[int] = None,
    seed: int = 0,
) -> Iterator[SweepRow]:
    """Evaluate the model over a (rho, eps) grid at the CHSH-optimal angles.

    Returns an iterator of `SweepRow`s in row-major order (rho outer, eps
    inner). The closed-form columns are computed in numpy for a block of at
    most SWEEP_BLOCK eps values of one rho at a time, bit for bit what the
    scalar functions give, and the block's rows are returned one by one; so
    memory does not grow with the grid, and a caller that needs a sequence
    takes `list(sweep(...))`. The arguments are checked when `sweep` is called,
    before any row. Each row carries the four closed-form expectations, the
    closed-form CHSH value, a violation flag (value > 2), and a regime tag:
    "linear" or "saturated" away from the curve eps = sqrt(2)*rho,
    "boundary" within 1e-9 of it, "degenerate" when rho = 0 or eps = 0.

    With `trials` set, each cell additionally carries a Monte Carlo CHSH
    estimate (four independent runs of `trials` coincidences each) and the
    root-sum-square of the four standard errors. All cells draw from one
    long Philox(key=seed) stream indexed by a global trial counter, so the
    output is bit-identical for any chunking, CPU count or evaluation order.
    A run whose products are fixed whatever is drawn takes no draws, but its
    slice of the stream stays reserved, so no other run's draws move.
    The cells are spread over one thread per usable CPU, a few cells ahead of
    the row being returned; each of a cell's four runs is one serial pass on
    its thread. The threads live only while the iterator runs: they are
    stopped when it is exhausted, closed or left by an exception. Cells of
    fewer than MC_CHUNK trials in all stay on the caller's thread.
    """
    if len(rho_grid) == 0 or len(eps_grid) == 0:
        raise ValueError("grids must be nonempty")
    for value in (*rho_grid, *eps_grid):
        if not 0.0 <= float(value) <= 1.0:
            raise ValueError(f"grid value {value!r} outside [0, 1]")
    if trials is not None:
        # a non-integral count or seed fails here, not at the first row
        trials, seed = operator.index(trials), operator.index(seed)
        if trials < 1:
            raise ValueError(f"trials = {trials} must be at least 1")
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed = {seed} outside [0, 2**128), the Philox key range")
    return _sweep_rows([float(rho) for rho in rho_grid], [float(eps) for eps in eps_grid],
                       trials, seed)


def _sweep_rows(rho_grid: list[float], eps_grid: list[float], trials: Optional[int],
                seed: int) -> Iterator[SweepRow]:
    mc_cells = _mc_cells(rho_grid, eps_grid, trials, seed) if trials else repeat((None, None))
    try:
        for rho in rho_grid:
            for start in range(0, len(eps_grid), SWEEP_BLOCK):
                eps_block = eps_grid[start:start + SWEEP_BLOCK]
                columns = _closed_form_columns(rho, np.array(eps_block))
                # a'b and a'b' share ab's cosine (SWEEP_COSINES): e_a2b and e_a2b2 are e_ab itself
                for eps, e_ab, e_ab2, chsh, violates, regime, (mc_chsh, mc_stderr) in zip(
                        eps_block, *columns, mc_cells):
                    # SweepRow._make without its length check: one call less per row
                    yield tuple.__new__(SweepRow, (rho, eps, e_ab, e_ab2, e_ab, e_ab, chsh,
                                                   violates, regime, mc_chsh, mc_stderr))
    finally:
        if trials:
            mc_cells.close()  # stops the cell threads when the rows are closed early


def _closed_form_columns(rho: float, eps: np.ndarray) -> tuple[list, ...]:
    """e_ab, e_ab2, chsh, violates and regime of one rho over a block of eps, as lists:
    `_expectation`, `_chsh` and `_regime` bit for bit, by their IEEE operations and branches."""
    with np.errstate(all="ignore"):  # a branch not taken may divide by 0 or overflow
        e_ab, e_ab2 = (np.where(eps == 0.0, -1.0 if x > 0.0 else 1.0 if x < 0.0 else 0.0,
                                np.where(x >= eps, -1.0, np.where(x <= -eps, 1.0,
                                                                  -x / eps + 0.0)))
                       for x in (rho * COS_45, rho * -COS_45))
        chsh = (np.zeros_like(eps) if rho == 0.0
                else np.where(eps / rho > SQRT2 / 2.0, 2.0 * SQRT2 * rho / eps, 4.0))
        regime = np.where(np.abs(eps - SQRT2 * rho) <= 1e-9, 0,
                          np.where((eps == 0.0) | (rho == 0.0), 1,
                                   np.where(eps / rho <= SQRT2 / 2.0, 2, 3)))
    tags = np.array(("boundary", "degenerate", "saturated", "linear"), dtype=object)
    return (e_ab.tolist(), e_ab2.tolist(), chsh.tolist(),
            (chsh > 2.0 + 1e-12).astype(int).tolist(), tags[regime].tolist())


def _mc_cell(rho: float, eps: float, cell: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo CHSH estimate and its standard error for grid cell `cell`."""
    # keep per-run stream slices even-aligned for the positioning contract
    stride = trials + (trials % 2)
    # _product_sum is looked up by name on each call, so a wrapper set on the module sees it
    (m_ab, s_ab), (m_ab2, s_ab2), (m_a2b, s_a2b), (m_a2b2, s_a2b2) = [
        _mean_and_stderr(_product_sum(rho, eps, c, trials, seed, (cell * 4 + k) * stride), trials)
        for k, c in enumerate(SWEEP_COSINES)]
    return (abs(m_ab - m_ab2) + abs(m_a2b + m_a2b2),
            math.sqrt(s_ab**2 + s_ab2**2 + s_a2b**2 + s_a2b2**2))


def _mc_cells(rho_grid: list[float], eps_grid: list[float], trials: int,
              seed: int) -> Iterator[tuple[float, float]]:
    """`_mc_cell` of every grid cell in row-major order, computed by one thread
    per usable CPU, at most 2 * workers cells ahead of the one returned; on the
    caller's thread when a cell's four runs are shorter than one MC_CHUNK, where
    a hand-off costs more than the second CPU gives."""
    width, cells = len(eps_grid), len(rho_grid) * len(eps_grid)
    if 4 * trials < MC_CHUNK:
        for cell in range(cells):
            yield _mc_cell(rho_grid[cell // width], eps_grid[cell % width], cell, trials, seed)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a threaded sweep pays for it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cells, cpus or 1)
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for cell in range(cells):
            while len(pending) < 2 * workers and cell + len(pending) < cells:
                ahead = cell + len(pending)
                pending.append(pool.submit(_mc_cell, rho_grid[ahead // width],
                                           eps_grid[ahead % width], ahead, trials, seed))
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)  # cancels the queued cells, waits for running ones
