"""Data model for two-sided correlation experiments and the Bell/CHSH and
Clauser-Horne statistics.

Probabilities may be ints, floats, or `fractions.Fraction`. Operations keep
exact inputs exact (rational in, rational out), so exact-mode polytope checks
downstream can avoid rounding entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Prob = Union[int, float, Fraction]

#: absolute tolerance for probability bounds and sum checks on float data
TOL = 1e-9


class ValidationError(ValueError):
    """A probability, distribution, or expectation fails its domain constraints."""


class ShapeError(ValueError):
    """A correlation vector does not have the (n, S) shape an operation requires."""


class CapacityError(ValueError):
    """An event count exceeds the vertex-enumeration guard."""


def is_exact(value: Prob) -> bool:
    """True when the value carries no rounding (int or Fraction)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def as_fraction(value: Prob) -> Fraction:
    """Exact rational image of a value; floats map to their binary expansion."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a probability")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(*value.as_integer_ratio())
    raise TypeError(f"cannot express {type(value).__name__} as a fraction")


def check_probability(value: Prob, name: str, tol: float = TOL) -> None:
    if isinstance(value, float):
        if math.isnan(value) or not (-tol <= value <= 1.0 + tol):
            raise ValidationError(f"{name} = {value!r} is not a probability")
    elif is_exact(value):
        if not (0 <= value <= 1):
            raise ValidationError(f"{name} = {value!r} is not a probability")
    else:
        raise ValidationError(f"{name} has unsupported type {type(value).__name__}")


def _check_expectation(value: Prob, name: str, tol: float = TOL) -> None:
    if isinstance(value, float):
        if math.isnan(value) or not (-1.0 - tol <= value <= 1.0 + tol):
            raise ValidationError(f"{name} = {value!r} is outside [-1, 1]")
    elif is_exact(value):
        if not (-1 <= value <= 1):
            raise ValidationError(f"{name} = {value!r} is outside [-1, 1]")
    else:
        raise ValidationError(f"{name} has unsupported type {type(value).__name__}")


@dataclass(frozen=True)
class ExpectationSet:
    """The four coincidence expectation values entering the CHSH statistic."""

    e13: Prob
    e14: Prob
    e23: Prob
    e24: Prob

    def __post_init__(self) -> None:
        for name in ("e13", "e14", "e23", "e24"):
            _check_expectation(getattr(self, name), name)


def chsh_statistic(e: ExpectationSet) -> Prob:
    """Bell/CHSH statistic |E13 - E14| + |E23 + E24|.

    At most 2 for any local/classical model, 2*sqrt(2) for the quantum
    singlet at optimal angles, and 4 algebraically.
    """
    return abs(e.e13 - e.e14) + abs(e.e23 + e.e24)


@dataclass(frozen=True)
class CorrelationVector:
    """Single and joint up-probabilities over a pair set S.

    Components live in R(n, S): one probability p_i per event index 1..n and
    one joint probability p_ij per pair {i, j} in S. Pairs are normalized to
    sorted (i, j) tuples in lexicographic order.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    singles: dict[int, Prob]
    joints: dict[tuple[int, int], Prob]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"n = {self.n} must be a positive integer")
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        seen: set[tuple[int, int]] = set()
        for i, j in pairs:
            if not (1 <= i < j <= self.n):
                raise ValidationError(f"pair ({i},{j}) is not ordered within 1..{self.n}")
            if (i, j) in seen:
                raise ValidationError(f"duplicate pair ({i},{j})")
            seen.add((i, j))
        singles = {int(k): v for k, v in self.singles.items()}
        if set(singles) != set(range(1, self.n + 1)):
            raise ValidationError("singles must be defined for exactly the indices 1..n")
        joints = {(int(i), int(j)): v for (i, j), v in self.joints.items()}
        if set(joints) != seen:
            raise ValidationError("joints must be defined for exactly the pairs in S")
        for i, v in singles.items():
            check_probability(v, f"p{i}")
        for (i, j), v in joints.items():
            check_probability(v, f"p{i}{j}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "joints", joints)

    def components(self) -> list[Prob]:
        """Vector layout: singles in index order, then joints in pair order."""
        return [self.singles[i] for i in range(1, self.n + 1)] + [
            self.joints[p] for p in self.pairs
        ]


#: pair set of the standard 2x2 coincidence layout (left events 1,2; right 3,4)
CH_SHAPE: tuple[tuple[int, int], ...] = ((1, 3), (1, 4), (2, 3), (2, 4))

#: full pair set on three events
BELL3_SHAPE: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (2, 3))


def require_shape(v: CorrelationVector, n: int, pairs: tuple[tuple[int, int], ...]) -> None:
    if v.n != n or v.pairs != pairs:
        raise ShapeError(
            f"expected n={n} with pairs {list(pairs)}, got n={v.n} with pairs {list(v.pairs)}"
        )


def ch_shape_vector(
    p1: Prob, p2: Prob, p3: Prob, p4: Prob,
    p13: Prob, p14: Prob, p23: Prob, p24: Prob,
) -> CorrelationVector:
    """Build the n=4 vector on the coincidence pair set {13, 14, 23, 24}."""
    return CorrelationVector(
        4, CH_SHAPE,
        {1: p1, 2: p2, 3: p3, 4: p4},
        {(1, 3): p13, (1, 4): p14, (2, 3): p23, (2, 4): p24},
    )


def bell3_vector(p1: Prob, p2: Prob, p3: Prob, p12: Prob, p13: Prob, p23: Prob) -> CorrelationVector:
    """Build the n=3 vector on the full pair set."""
    return CorrelationVector(
        3, BELL3_SHAPE,
        {1: p1, 2: p2, 3: p3},
        {(1, 2): p12, (1, 3): p13, (2, 3): p23},
    )


@dataclass(frozen=True)
class Inequality:
    """lower <= sum of c * x_key <= upper over integer coefficients c; key i
    is p_i, key (i, j) is p_ij, and a bound of None is absent."""

    name: str
    coeffs: tuple[tuple[Union[int, tuple[int, int]], int], ...]
    lower: Optional[int] = None
    upper: Optional[int] = None

    @property
    def formula(self) -> str:
        """The left-hand side as text, e.g. p14+p23+p24-p13-p2-p4."""
        terms = "".join(
            ("+" if c == 1 else "-" if c == -1 else f"{c:+d}")
            + (f"p{key}" if isinstance(key, int) else f"p{key[0]}{key[1]}")
            for key, c in self.coeffs
        )
        return terms.removeprefix("+")

    def value(self, v: CorrelationVector) -> Prob:
        """The sum in coefficient order; exact components give an exact value."""
        total: Prob = 0
        for key, c in self.coeffs:
            x = v.singles[key] if isinstance(key, int) else v.joints[key]
            total = total + x if c == 1 else total - x if c == -1 else total + c * x
        return total


#: the four sign patterns CH1..CH4 of the Clauser-Horne combination, classically
#: in [-1, 0]. CH2 (p14+p23+p24-p13-p2-p4) is the plain statistic's default.
CH_COMBINATIONS: tuple[Inequality, ...] = (
    Inequality("CH1", (((1, 3), 1), ((1, 4), 1), ((2, 4), 1), ((2, 3), -1), (1, -1), (4, -1)), -1, 0),
    Inequality("CH2", (((1, 4), 1), ((2, 3), 1), ((2, 4), 1), ((1, 3), -1), (2, -1), (4, -1)), -1, 0),
    Inequality("CH3", (((1, 3), 1), ((1, 4), 1), ((2, 3), 1), ((2, 4), -1), (1, -1), (3, -1)), -1, 0),
    Inequality("CH4", (((1, 3), 1), ((2, 3), 1), ((2, 4), 1), ((1, 4), -1), (2, -1), (3, -1)), -1, 0),
)

CH_BY_NAME = {c.name: c for c in CH_COMBINATIONS}


def resolve_ch_combination(combination: Union[str, Inequality, None]) -> Inequality:
    if combination is None:
        return CH_BY_NAME["CH2"]
    if isinstance(combination, Inequality):
        return combination
    name = str(combination).upper()
    if name not in CH_BY_NAME:
        raise ValueError(f"unknown CH combination {combination!r}; expected CH1..CH4")
    return CH_BY_NAME[name]


def clauser_horne_statistic(
    v: CorrelationVector, combination: Union[str, Inequality, None] = None
) -> Prob:
    """Signed Clauser-Horne sum for one of the CH1..CH4 sign patterns.

    Requires the n=4 coincidence shape. Classical vectors keep every
    combination within [-1, 0]; the default pattern is CH2
    (p14 - p13 + p23 + p24 - p2 - p4).
    """
    require_shape(v, 4, CH_SHAPE)
    return resolve_ch_combination(combination).value(v)


SCENARIO_KINDS = ("singlet", "vessels", "concept", "explicit")


@dataclass(frozen=True)
class Scenario:
    """A named experimental configuration.

    kind "singlet" carries four coplanar direction angles (radians, labels
    a1..a4); kind "explicit" carries a raw correlation vector. The builtin
    generators populate both the vector and the expectation set.
    """

    name: str
    kind: str
    angles: Union[dict[str, float], None] = None
    vector: Union[CorrelationVector, None] = None
    expectations: Union[ExpectationSet, None] = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "singlet":
            if self.angles is None or set(self.angles) != {"a1", "a2", "a3", "a4"}:
                raise ValidationError("singlet scenarios require angles a1..a4")
        if self.kind == "explicit" and self.vector is None:
            raise ValidationError("explicit scenarios require a correlation vector")
