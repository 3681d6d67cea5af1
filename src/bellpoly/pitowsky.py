"""Classical correlation polytope C(n, S): vertex enumeration, membership by
linear-programming feasibility, the explicit inequality lists for the n=3 and
n=4 shapes, and constructive Kolmogorov representations.

A correlation vector lies in C(n, S) exactly when some finite probability
space (X, M, mu) carries events A_1..A_n with mu(A_i) = p_i and
mu(A_i and A_j) = p_ij. Membership is decided by phase-1 simplex over the
2^n deterministic 0/1 assignment vertices rather than by facet enumeration,
so it works for any (n, S) within the capacity guard; named facets are
reported only for the two shapes whose complete inequality lists are known
here (n=4 coincidence shape, n=3 full shape). Those lists are data, integer
`core.Inequality` rows judged by one function: exactly on exact values, and
within TOL only on float values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    BELL3_SHAPE,
    CH_COMBINATIONS,
    CH_SHAPE,
    CapacityError,
    CorrelationVector,
    Inequality,
    Prob,
    ShapeError,
    TOL,
    is_exact,
    require_shape,
)
from .simplex import FeasibilityProblem, lp_feasible

#: absolute ceiling on n (2^20 vertex columns is about desk-scale memory)
HARD_CAPACITY = 20

#: enumeration guard of membership; enumerate_vertices(max_n=) can go beyond it
DEFAULT_GUARD = 16

#: largest n for which membership defaults to exact rational arithmetic
EXACT_DEFAULT_MAX_N = 10


class NoRepresentationError(ValueError):
    """A pair fails the pairwise representability conditions."""


@dataclass(frozen=True, eq=False)
class VertexSet:
    """All 2^n deterministic assignment vectors u^eps of C(n, S).

    Row k holds (eps_1..eps_n, eps_i*eps_j ...) for the k-th tuple eps in
    lexicographic order; every row satisfies u_ij = u_i * u_j exactly.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    vertices: np.ndarray  # (2**n, n + len(pairs)), int8, read-only

    def __len__(self) -> int:
        return self.vertices.shape[0]


def enumerate_vertices(
    n: int, pairs: Sequence[tuple[int, int]], *, max_n: int = DEFAULT_GUARD
) -> VertexSet:
    """Enumerate the vertex set of C(n, S) in lexicographic eps order."""
    limit = min(max_n, HARD_CAPACITY)
    if not 1 <= n <= limit:
        raise CapacityError(f"n = {n} outside the enumeration guard 1..{limit}")
    pairs = tuple(sorted((int(i), int(j)) for i, j in pairs))
    for i, j in pairs:
        if not (1 <= i < j <= n):
            raise ValueError(f"pair ({i},{j}) is not ordered within 1..{n}")
    idx = np.arange(2 ** n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    eps = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int8)
    cols = [eps]
    for i, j in pairs:
        cols.append((eps[:, i - 1] * eps[:, j - 1])[:, None])
    vertices = np.hstack(cols)
    vertices.setflags(write=False)
    return VertexSet(n, pairs, vertices)


def membership_problem(v: CorrelationVector, vertex_set: VertexSet) -> FeasibilityProblem:
    """LP encoding of convex-hull membership: find lambda >= 0 with
    sum(lambda) = 1 and sum(lambda * u^eps) = v."""
    a = np.vstack([
        np.ones((1, len(vertex_set)), dtype=np.int8),
        vertex_set.vertices.T,
    ])
    return FeasibilityProblem(a, (1, *v.components()))


@dataclass(frozen=True)
class InequalityResult:
    """One evaluated inequality: value must satisfy lower <= value <= upper."""

    name: str
    value: Prob
    lower: Optional[Prob]
    upper: Optional[Prob]
    satisfied: bool
    facet: bool = False  # True for the nontrivial named combinations

    def violation(self) -> float:
        amount = 0.0
        if self.lower is not None:
            amount = max(amount, float(self.lower - self.value))
        if self.upper is not None:
            amount = max(amount, float(self.value - self.upper))
        return amount


def _bound_inequalities(n: int, pairs: Sequence[tuple[int, int]]) -> list[Inequality]:
    """p_i <= 1, and the four conditions under which a pair {i, j} admits a
    probability space."""
    out = [Inequality(f"p{i}<=1", ((i, 1),), upper=1) for i in range(1, n + 1)]
    for i, j in pairs:
        ij = f"p{i}{j}"
        out += [
            Inequality(f"0<={ij}", (((i, j), 1),), lower=0),
            Inequality(f"{ij}<=p{i}", ((i, 1), ((i, j), -1)), lower=0),
            Inequality(f"{ij}<=p{j}", ((j, 1), ((i, j), -1)), lower=0),
            Inequality(f"p{i}+p{j}-{ij}<=1", ((i, 1), (j, 1), ((i, j), -1)), upper=1),
        ]
    return out


def _bell3_facet(label: str, coeffs, lower: Optional[int] = None,
                 upper: Optional[int] = None) -> Inequality:
    """An n=3 facet named by its label, formula and bound."""
    bound = f"<={upper}" if upper is not None else f">={lower}"
    return Inequality(f"{label}:{Inequality('', coeffs).formula}{bound}", coeffs, lower, upper)


#: the facets of C(3, S) beyond the bounds: the sum inequality B1 and the
#: three cyclic facets B2..B4. The cyclic facets hold with >= 0: every
#: deterministic assignment satisfies them with equality or slack (e.g.
#: eps = (1,0,0) gives value 1), so the opposite orientation would exclude
#: vertices of the polytope itself.
BELL3_FACETS: tuple[Inequality, ...] = (
    _bell3_facet("B1", ((1, 1), (2, 1), (3, 1), ((1, 2), -1), ((1, 3), -1), ((2, 3), -1)),
                 upper=1),
    _bell3_facet("B2", ((1, 1), ((1, 2), -1), ((1, 3), -1), ((2, 3), 1)), lower=0),
    _bell3_facet("B3", ((2, 1), ((1, 2), -1), ((2, 3), -1), ((1, 3), 1)), lower=0),
    _bell3_facet("B4", ((3, 1), ((1, 3), -1), ((2, 3), -1), ((1, 2), 1)), lower=0),
)


def _evaluate(v: CorrelationVector, facets: Sequence[Inequality]) -> list[InequalityResult]:
    """The bounds of the vector's shape, then the facets, each judged on the
    vector: exactly when its value is exact, within TOL when it is a float."""
    out = []
    for ineq in (*_bound_inequalities(v.n, v.pairs), *facets):
        value = ineq.value(v)
        tol = TOL if isinstance(value, float) else 0
        ok = (ineq.lower is None or value >= ineq.lower - tol) and (
            ineq.upper is None or value <= ineq.upper + tol)
        out.append(InequalityResult(ineq.name, value, ineq.lower, ineq.upper, ok, ineq in facets))
    return out


def ch_inequality_set(v: CorrelationVector) -> list[InequalityResult]:
    """Complete inequality list for the n=4 coincidence shape.

    Bound constraints plus the four Clauser-Horne combinations CH1..CH4, each
    confined to [-1, 0]. Together these cut out exactly C(4, S), so a vector
    satisfies all of them iff membership() reports inside.
    """
    require_shape(v, 4, CH_SHAPE)
    return _evaluate(v, CH_COMBINATIONS)


def bell_inequality_set_n3(v: CorrelationVector) -> list[InequalityResult]:
    """Complete inequality list for the n=3 full-pair shape: bound
    constraints and the facets B1..B4 of BELL3_FACETS."""
    require_shape(v, 3, BELL3_SHAPE)
    return _evaluate(v, BELL3_FACETS)


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Outcome of a polytope membership query.

    When inside, `certificate` holds convex weights over the vertex set (in
    enumeration order) reconstructing the queried vector. When outside and
    the shape has a known inequality list, `violated_facet` names a violated
    inequality (most violated, preferring the CH/Bell combinations on ties).
    """

    inside: bool
    certificate: Optional[tuple[Prob, ...]]
    violated_facet: Optional[InequalityResult]
    mode: str
    vertex_set: Optional[VertexSet] = None

    def reconstruction_error(self, v: CorrelationVector) -> Prob:
        """Max-norm gap between the certificate combination and the vector."""
        if not self.inside or self.certificate is None or self.vertex_set is None:
            raise ValueError("no certificate to check")
        target = v.components()
        exact = all(is_exact(w) for w in self.certificate) and all(
            is_exact(c) for c in target
        )
        verts = self.vertex_set.vertices
        if exact:
            err: Prob = 0
            for k, t in enumerate(target):
                acc = sum(w * int(u) for w, u in zip(self.certificate, verts[:, k]) if w)
                err = max(err, abs(acc - t))
            return err
        weights = np.array([float(w) for w in self.certificate])
        recon = weights @ verts.astype(float)
        return float(np.max(np.abs(recon - np.array([float(t) for t in target]))))


def _violated_facet(v: CorrelationVector) -> Optional[InequalityResult]:
    if v.n == 4 and v.pairs == CH_SHAPE:
        results = ch_inequality_set(v)
    elif v.n == 3 and v.pairs == BELL3_SHAPE:
        results = bell_inequality_set_n3(v)
    else:
        return None
    violated = [r for r in results if not r.satisfied]
    return max(violated, key=lambda r: (r.violation(), r.facet), default=None)


def membership(v: CorrelationVector, mode: Optional[str] = None) -> MembershipResult:
    """Decide whether the vector lies in C(n, S).

    mode "exact" is the exact master of the float mode's fallback started
    from all 2^n vertex columns: Bland pivots on a dense rational tableau.
    mode "float" means float pricing with an exact certificate: column
    generation on a small float master, then an exact check of its final
    basis (exact convex weights for inside, an integer separating vector
    checked on every vertex for outside), with an exact fallback when the
    check fails. mode None picks "exact" for n <= 10 and "float" beyond.
    Both modes judge float inputs at their exact binary value, so the
    verdict is rigorous either way and an inside certificate is Fractions.
    """
    if mode not in (None, "float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode is None:
        mode = "exact" if v.n <= EXACT_DEFAULT_MAX_N else "float"
    vertex_set = enumerate_vertices(v.n, v.pairs)
    problem = membership_problem(v, vertex_set)
    weights = lp_feasible(problem, mode=mode)
    if weights is not None:
        return MembershipResult(True, tuple(weights), None, mode, vertex_set)
    return MembershipResult(False, None, _violated_facet(v), mode, vertex_set)


@dataclass(frozen=True)
class KolmogorovRep:
    """Finite probability space with named events: the classicality certificate.

    `atoms` maps atom labels to nonnegative weights summing to 1; `events`
    maps each event index to the subset of atoms it contains.
    """

    atoms: tuple[tuple[str, Prob], ...]
    events: dict[int, frozenset[str]]

    def __post_init__(self) -> None:
        labels = set()
        total: Prob = 0
        for label, weight in self.atoms:
            if label in labels:
                raise ValueError(f"duplicate atom label {label!r}")
            labels.add(label)
            if isinstance(weight, float):
                if weight < -1e-12:
                    raise ValueError(f"atom {label!r} has negative weight {weight!r}")
            elif weight < 0:
                raise ValueError(f"atom {label!r} has negative weight {weight!r}")
            total = total + weight
        exact = all(is_exact(w) for _, w in self.atoms)
        if exact:
            if total != 1:
                raise ValueError(f"atom weights sum to {total}, expected exactly 1")
        elif abs(total - 1) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, expected 1")
        events = {int(k): frozenset(s) for k, s in self.events.items()}
        for k, subset in events.items():
            stray = subset - labels
            if stray:
                raise ValueError(f"event {k} references unknown atoms {sorted(stray)}")
        object.__setattr__(self, "events", events)

    def measure(self, *indices: int) -> Prob:
        """mu of the intersection of the events with the given indices."""
        subsets = []
        for k in indices:
            if k not in self.events:
                raise ShapeError(f"no event declared for index {k}")
            subsets.append(self.events[k])
        if not subsets:
            raise ValueError("measure() needs at least one event index")
        common = frozenset.intersection(*subsets)
        total: Prob = 0
        for label, weight in self.atoms:
            if label in common:
                total = total + weight
        return total


def pair_atom_weights(p_i: Prob, p_j: Prob, p_ij: Prob) -> tuple[Prob, Prob, Prob, Prob]:
    """Atom weights (both, i only, j only, neither) of the 4-atom pair space.

    Raises NoRepresentationError unless 0 <= p_ij <= min(p_i, p_j) and
    p_i + p_j - p_ij <= 1, i.e. unless the pair admits a probability space.
    """
    weights = (p_ij, p_i - p_ij, p_j - p_ij, 1 - p_i - p_j + p_ij)
    slack = -TOL if any(isinstance(w, float) for w in weights) else 0
    if any(w < slack for w in weights):
        raise NoRepresentationError(
            f"pair with p_i={p_i}, p_j={p_j}, p_ij={p_ij} admits no probability space"
        )
    return tuple(_clamp_roundoff(w) for w in weights)


def _clamp_roundoff(weight: Prob) -> Prob:
    # float round-off within tolerance counts as zero mass
    if isinstance(weight, float) and -TOL <= weight < 0.0:
        return 0.0
    return weight


def _normalized_factor(weights: Sequence[Prob]) -> list[Prob]:
    """Rescale a float factor whose mass drifted within tolerance of 1.

    Exact factors already sum to 1 identically; float factors built from
    tolerance-valid probabilities may be off by up to a few 1e-9 and would
    otherwise break the representation's mass invariant.
    """
    if all(is_exact(w) for w in weights):
        return list(weights)
    total = sum(float(w) for w in weights)
    if total == 1.0:
        return list(weights)
    return [float(w) / total for w in weights]


def product_representation(v: CorrelationVector) -> KolmogorovRep:
    """Constructive Kolmogorov representation for index-disjoint pair sets.

    Each pair {i, j} becomes a 4-atom factor with weights
    (p_ij, p_i - p_ij, p_j - p_ij, 1 - p_i - p_j + p_ij); indices outside
    every pair get a 2-atom factor (p_i, 1 - p_i), the minimal completion
    needed to cover the whole vector. The product measure over the factors
    then reproduces every single and joint probability, which
    verify_representation confirms.
    """
    used: set[int] = set()
    for i, j in v.pairs:
        if i in used or j in used:
            raise ShapeError("pairs must be index-disjoint for the product construction")
        used.update((i, j))

    # each factor: (indices-with-up-slot, [(part_label, weight, up_flags)])
    factors: list[tuple[tuple[int, ...], list[tuple[str, Prob, tuple[bool, ...]]]]] = []
    for i, j in v.pairs:
        w_uu, w_ud, w_du, w_dd = _normalized_factor(
            pair_atom_weights(v.singles[i], v.singles[j], v.joints[(i, j)])
        )
        factors.append((
            (i, j),
            [
                ("11", w_uu, (True, True)),
                ("10", w_ud, (True, False)),
                ("01", w_du, (False, True)),
                ("00", w_dd, (False, False)),
            ],
        ))
    for i in range(1, v.n + 1):
        if i not in used:
            p, q = _normalized_factor(
                [_clamp_roundoff(v.singles[i]), _clamp_roundoff(1 - v.singles[i])]
            )
            factors.append(((i,), [("1", p, (True,)), ("0", q, (False,))]))

    atoms: list[tuple[str, Prob]] = []
    events: dict[int, set[str]] = {i: set() for i in range(1, v.n + 1)}
    for combo in itertools.product(*(parts for _, parts in factors)):
        label = "|".join(part[0] for part in combo)
        weight: Prob = 1
        for _, w, _ in combo:
            weight = weight * w
        atoms.append((label, weight))
        for (indices, _), (_, _, flags) in zip(factors, combo):
            for idx, up in zip(indices, flags):
                if up:
                    events[idx].add(label)
    return KolmogorovRep(tuple(atoms), {k: frozenset(s) for k, s in events.items()})


def verify_representation(
    rep: KolmogorovRep, v: CorrelationVector, *, tol: Optional[float] = None
) -> bool:
    """Check mu(A_i) = p_i and mu(A_i and A_j) = p_ij for every component.

    tol None compares exactly when both sides are rational and within the
    float tolerance otherwise.
    """
    for i in range(1, v.n + 1):
        if i not in rep.events:
            raise ShapeError(f"representation declares no event for index {i}")
    if tol is None:
        exact = all(is_exact(w) for _, w in rep.atoms) and all(
            is_exact(c) for c in v.components()
        )
        tol = 0.0 if exact else TOL
    for i in range(1, v.n + 1):
        if abs(rep.measure(i) - v.singles[i]) > tol:
            return False
    for i, j in v.pairs:
        if abs(rep.measure(i, j) - v.joints[(i, j)]) > tol:
            return False
    return True
