"""Scenario generators: the singlet spin pair, the connected water vessels,
the abstract-concept/instance experiment, and the event-distinguishing
transformation that splits each one-sided outcome into separate events per
pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CH_SHAPE,
    CorrelationVector,
    ExpectationSet,
    Prob,
    Scenario,
    ShapeError,
    ch_shape_vector,
    require_shape,
)

#: pair set of a distinguished vector: event k of pairing (i, j) meets its
#: mirror event on the other side, giving four index-disjoint pairs
DISTINGUISHED_PAIRS: tuple[tuple[int, int], ...] = ((1, 5), (2, 7), (3, 6), (4, 8))

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class SingletConfig:
    """Four coplanar spin-measurement directions, as angles in radians.

    a1 and a2 are measured on the left particle, a3 and a4 on the right;
    only angle differences matter and they are taken modulo 2*pi.
    """

    a1: float
    a2: float
    a3: float
    a4: float

    def angle(self, i: int, j: int) -> float:
        """Angle between directions a_i and a_j."""
        values = (self.a1, self.a2, self.a3, self.a4)
        return abs(values[i - 1] - values[j - 1])


def singlet_expectation(angle: float) -> float:
    """Coincidence expectation -cos(angle) for the singlet state."""
    return -math.cos(angle)


def singlet_joint_up_up(angle: float) -> float:
    """Up-up coincidence probability (1/2) sin^2(angle / 2) for the singlet."""
    return 0.5 * math.sin(angle / 2.0) ** 2


def maximal_violation_config() -> SingletConfig:
    """Directions 0, 90, 45, 135 degrees: 45 degrees between each adjacent
    coincidence pairing and 135 degrees for (a1, a4), which maximizes the
    CHSH statistic at 2*sqrt(2)."""
    return SingletConfig(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def ch_violation_config() -> SingletConfig:
    """Directions 0, 120, 120, 240 degrees (a2 = a3): the configuration whose
    probabilities violate a Clauser-Horne combination by +1/8."""
    third = 2 * math.pi / 3
    return SingletConfig(0.0, third, third, 2 * third)


def singlet_ch_vector() -> CorrelationVector:
    """Exact rational correlation vector of ch_violation_config():
    singles 1/2 and joints (3/8, 3/8, 0, 3/8)."""
    return ch_shape_vector(
        HALF, HALF, HALF, HALF,
        Fraction(3, 8), Fraction(3, 8), Fraction(0), Fraction(3, 8),
    )


def singlet_scenario(cfg: SingletConfig, name: str = "singlet") -> Scenario:
    """Quantum singlet predictions for the given directions.

    Every single probability is 1/2; for each pairing (i, j) the expectation
    is -cos of the angle between the directions and the up-up probability is
    (1/2) sin^2 of half that angle, so E + 1 = 4 p holds identically.
    """
    angles = {f"a{k}": getattr(cfg, f"a{k}") for k in range(1, 5)}
    joint = {
        (i, j): singlet_joint_up_up(cfg.angle(i, j)) for i, j in CH_SHAPE
    }
    expectations = ExpectationSet(
        *(singlet_expectation(cfg.angle(i, j)) for i, j in CH_SHAPE)
    )
    vector = ch_shape_vector(0.5, 0.5, 0.5, 0.5, *(joint[p] for p in CH_SHAPE))
    return Scenario(name, "singlet", angles=angles, vector=vector, expectations=expectations)


def vessels_scenario() -> Scenario:
    """Two connected vessels holding 20 liters of water in total.

    Up means: more than (left siphon) or at least (right siphon) 10 liters
    collected, or the sampled water is transparent. Each experiment alone
    succeeds with certainty (p_i = 1), both siphons together can never both
    collect 10+ liters (E13 = -1, p13 = 0), and every other coincidence is
    certain (E = +1, p = 1). The statistics reach the algebraic maxima:
    CHSH = 4 and the default Clauser-Horne combination = +1.
    """
    vector = ch_shape_vector(1, 1, 1, 1, 0, 1, 1, 1)
    return Scenario(
        "vessels", "vessels",
        vector=vector,
        expectations=ExpectationSet(-1, 1, 1, 1),
    )


def concept_scenario() -> Scenario:
    """Abstract-concept/instance experiment with the same correlation table
    as the vessels.

    A mind holding an abstract concept resolves it to exactly one of two
    instances when prompted (the two resolution outcomes exclude each other,
    E13 = -1), while two always-confirmed cue observations accompany either
    instance (E14 = E23 = E24 = +1). Kept as a separate named generator
    because it is a distinct domain instance of the same numbers.
    """
    vector = ch_shape_vector(1, 1, 1, 1, 0, 1, 1, 1)
    return Scenario(
        "concept", "concept",
        vector=vector,
        expectations=ExpectationSet(-1, 1, 1, 1),
    )


def distinguish_events(
    scenario: Scenario, pairing_weight: Prob = HALF
) -> CorrelationVector:
    """Split each one-sided outcome into a separate event per pairing.

    Every pairing (i, j) runs with probability `pairing_weight` per side, so
    the up-up outcome of pairing (i, j) contributes weight w * p_ij to each
    of its two side events and w^2 * p_ij to their joint. The result is an
    n=8 vector on the four index-disjoint pairs {1,5}, {2,7}, {3,6}, {4,8}:
    left-side events 1..4 for (e1,e3), (e1,e4), (e2,e3), (e2,e4) and
    right-side events 5..8 for the same pairings seen from the right.

    Because the pairs are disjoint, the output always admits a product-space
    representation (see pitowsky.product_representation) regardless of
    whether the input violated the n=4 inequalities.
    """
    if scenario.vector is None:
        raise ShapeError("scenario carries no correlation vector")
    v = scenario.vector
    require_shape(v, 4, CH_SHAPE)
    w = pairing_weight
    p13, p14, p23, p24 = (v.joints[p] for p in CH_SHAPE)
    singles = {
        1: w * p13, 2: w * p14, 3: w * p23, 4: w * p24,
        5: w * p13, 6: w * p23, 7: w * p14, 8: w * p24,
    }
    joints = {
        (1, 5): w * w * p13,
        (2, 7): w * w * p14,
        (3, 6): w * w * p23,
        (4, 8): w * w * p24,
    }
    return CorrelationVector(8, DISTINGUISHED_PAIRS, singles, joints)


def spin_distinguished_marginal() -> CorrelationVector:
    """Alternative bookkeeping of the distinguished 120-degree spin vector.

    Singles are pairing weight times the side's marginal up-probability
    (1/2 * 1/2 = 1/4 each) and joints are the squared pairing weight times
    sin^2 of the full angle between the directions (3/16, 3/16, 0, 3/16),
    instead of the up-up-probability weighting distinguish_events uses. Both
    bookkeepings are inside the classical polytope C(8, S) since the four
    pairs are index-disjoint.
    """
    q = Fraction(1, 4)
    j = Fraction(3, 16)
    return CorrelationVector(
        8,
        DISTINGUISHED_PAIRS,
        {k: q for k in range(1, 9)},
        {(1, 5): j, (2, 7): j, (3, 6): Fraction(0), (4, 8): j},
    )
