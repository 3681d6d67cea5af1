"""Seeded scenario inputs for the membership workloads.

Every input is built here from numpy integers and `fractions.Fraction`, apart
from the program under test:

- an *inside* vector is a convex combination of k distinct deterministic
  vertices of C(n, S) with integer weights, written as exact fraction strings
  (decimals can round a point on a face to one just outside it);
- an *outside* vector is such a combination of k vertices that are tight on
  an integer inequality a.x <= b valid on C(n, S), pushed along a by PUSH so
  that it violates the inequality by PUSH*|a|^2.

The same (seed, family) always gives the same files.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

#: push size of outside vectors; a triangle or CH inequality has |a|^2 = 4
#: or 6, so the violation margin is 1/4 or 3/8, far above the solver's 1e-9
PUSH = Fraction(1, 16)

#: the fixed input that stalls the float simplex: mean of 10 vertices at
#: n = 11 with 33 pairs, drawn from this seed (not from --seed)
DEGENERATE_SEED = 8
DEGENERATE_N = 11
DEGENERATE_PAIRS = 33
DEGENERATE_K = 10


@dataclass(frozen=True)
class MembershipInput:
    """One scenario file and what the program must answer for it."""

    path: Path
    n: int
    pairs: tuple[tuple[int, int], ...]
    vector: tuple[Fraction, ...]  # singles 1..n, then joints in pair order
    inside: bool
    exact: bool  # default mode is exact rational arithmetic (n <= 10)
    ineq: tuple[int, ...] | None = None  # a of a.x <= b, outside vectors only
    bound: int | None = None
    margin: Fraction | None = None  # a.v - b


def vertex_matrix(n: int, pairs) -> np.ndarray:
    """All 2^n vertices (eps_1..eps_n, eps_i*eps_j ...) as int64 rows."""
    idx = np.arange(2 ** n, dtype=np.int64)
    eps = (idx[:, None] >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1
    cols = [eps] + [eps[:, i - 1:i] * eps[:, j - 1:j] for i, j in pairs]
    return np.hstack(cols)


def random_pairs(rng: np.random.Generator, n: int, count: int) -> tuple[tuple[int, int], ...]:
    """`count` distinct pairs of 1..n, resampled until a triangle is present."""
    while True:
        pairs = tuple(sorted(_pick_pairs(rng, n, count)))
        if _triangles(pairs):
            return pairs


def _triangles(pairs) -> list[tuple[int, int, int]]:
    have = set(pairs)
    nodes = sorted({i for p in pairs for i in p})
    return [
        (i, j, k) for i, j, k in combinations(nodes, 3)
        if (i, j) in have and (i, k) in have and (j, k) in have
    ]


def _ch_cycles(pairs) -> list[tuple[int, int, int, int]]:
    """(i, j, k, l) with i-k, i-l, j-k, j-l all in S and i < j, k < l."""
    have = set(pairs)
    nodes = sorted({i for p in pairs for i in p})
    return [
        (i, j, k, l)
        for i, j in combinations(nodes, 2) for k, l in combinations(nodes, 2)
        if len({i, j, k, l}) == 4 and i < k
        and {_pk(i, k), _pk(i, l), _pk(j, k), _pk(j, l)} <= have
    ]


def _inequalities(n: int, pairs) -> list[tuple[dict, int]]:
    """Triangle cyclic (-p_i + p_ij + p_ik - p_jk <= 0), triangle sum
    (p_i + p_j + p_k - p_ij - p_ik - p_jk <= 1) and Clauser-Horne
    (p_ik + p_il + p_jl - p_jk - p_i - p_l <= 0) inequalities of S, as
    ({component key: coefficient}, bound); singles are keyed by int."""
    out = []
    for i, j, k in _triangles(pairs):
        for a, b, c in ((i, j, k), (j, i, k), (k, i, j)):
            out.append(({a: -1, _pk(a, b): 1, _pk(a, c): 1, _pk(b, c): -1}, 0))
        out.append(({i: 1, j: 1, k: 1, (i, j): -1, (i, k): -1, (j, k): -1}, 1))
    for i, j, k, l in _ch_cycles(pairs):
        out.append(({_pk(i, k): 1, _pk(i, l): 1, _pk(j, l): 1, _pk(j, k): -1, i: -1, l: -1}, 0))
    return out


def _pk(a: int, b: int) -> tuple[int, int]:
    return (min(a, b), max(a, b))


def _keys(n: int, pairs) -> list:
    return list(range(1, n + 1)) + list(pairs)


def _combine(rng, rows: np.ndarray, top: int) -> tuple[Fraction, ...]:
    """Convex combination of the rows with integer weights drawn from
    1..top (top = 1 gives the plain mean), as exact fractions."""
    w = rng.integers(1, top + 1, size=rows.shape[0])
    total = int(w.sum())
    return tuple(Fraction(int(s), total) for s in w @ rows)


def inside_vector(rng, n: int, pairs, k: int, top: int = 1) -> tuple[Fraction, ...]:
    verts = vertex_matrix(n, pairs)
    pick = rng.choice(len(verts), size=k, replace=False)
    return _combine(rng, verts[np.sort(pick)], top)


def outside_vector(rng, n: int, pairs, k: int, top: int = 1):
    """(vector, a, b, margin) with a.u <= b on every vertex u and
    a.vector - b = margin = PUSH * |a|^2."""
    verts = vertex_matrix(n, pairs)
    keys = _keys(n, pairs)
    candidates = _inequalities(n, pairs)
    while True:
        coef, bound = candidates[int(rng.integers(len(candidates)))]
        a = np.array([coef.get(key, 0) for key in keys], dtype=np.int64)
        tight = verts[verts @ a == bound]
        if len(tight) < k:
            continue
        base = _combine(rng, tight[np.sort(rng.choice(len(tight), size=k, replace=False))], top)
        vec = tuple(x + PUSH * int(c) for x, c in zip(base, a))
        if all(0 <= x <= 1 for x in vec):
            margin = sum(int(c) * x for c, x in zip(a, vec)) - bound
            return vec, tuple(int(c) for c in a), bound, margin


def scenario_text(name: str, n: int, pairs, vector) -> str:
    singles = {str(i): str(vector[i - 1]) for i in range(1, n + 1)}
    joints = {f"{i},{j}": str(x) for (i, j), x in zip(pairs, vector[n:])}
    data = {
        "name": name, "kind": "explicit", "n": n,
        "pairs": [list(p) for p in pairs], "singles": singles, "joints": joints,
    }
    return json.dumps(data, indent=1) + "\n"


def _write(path: Path, n: int, pairs, vector) -> None:
    path.write_text(scenario_text(path.stem, n, pairs, vector), encoding="utf-8")


@dataclass(frozen=True)
class Family:
    """Membership inputs at size n on `pairs` random pairs (always with a
    triangle); each vector combines k distinct vertices with integer weights
    drawn from 1..top. `kinds` is "in", "out" or "in+out"."""

    n: int
    pairs: int
    k: int
    top: int
    kinds: str


def make_membership_inputs(
    workdir: Path, seed: int, family: Family, count: int
) -> list[list[MembershipInput]]:
    """`count` groups of scenario files: an inside vector and/or an outside
    vector on one pair set. Group idx draws its pair set and its vectors from
    the stream (seed, family, idx)."""
    n, k, top = family.n, family.k, family.top
    tag = zlib.crc32(repr(family).encode())
    groups = []
    for idx in range(count):
        rng = np.random.default_rng([seed, tag, idx])
        pairs = random_pairs(rng, n, family.pairs)
        group = []
        if "in" in family.kinds:
            vec = inside_vector(rng, n, pairs, k, top)
            path = workdir / f"n{n}-{family.kinds}-in{idx}.json"
            _write(path, n, pairs, vec)
            group.append(MembershipInput(path, n, pairs, vec, True, n <= 10))
        if "out" in family.kinds:
            vec, a, b, margin = outside_vector(rng, n, pairs, k, top)
            path = workdir / f"n{n}-{family.kinds}-out{idx}.json"
            _write(path, n, pairs, vec)
            group.append(MembershipInput(path, n, pairs, vec, False, n <= 10, a, b, margin))
        groups.append(group)
    return groups


def make_degenerate_input(workdir: Path) -> MembershipInput:
    """The fixed inside vector on which the float simplex stalls."""
    rng = np.random.default_rng(DEGENERATE_SEED)
    pairs = tuple(sorted(_pick_pairs(rng, DEGENERATE_N, DEGENERATE_PAIRS)))
    vec = inside_vector(rng, DEGENERATE_N, pairs, DEGENERATE_K)
    path = workdir / "degenerate-n11.json"
    _write(path, DEGENERATE_N, pairs, vec)
    return MembershipInput(path, DEGENERATE_N, pairs, vec, True, False)


def _pick_pairs(rng, n: int, count: int) -> list[tuple[int, int]]:
    every = list(combinations(range(1, n + 1), 2))
    return [every[k] for k in rng.choice(len(every), size=count, replace=False)]
