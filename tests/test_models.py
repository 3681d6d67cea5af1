import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellpoly.core import (
    CorrelationVector,
    Scenario,
    ShapeError,
    chsh_statistic,
    clauser_horne_statistic,
)
from bellpoly.models import (
    DISTINGUISHED_PAIRS,
    SingletConfig,
    ch_violation_config,
    concept_scenario,
    distinguish_events,
    maximal_violation_config,
    singlet_ch_vector,
    singlet_scenario,
    spin_distinguished_marginal,
    vessels_scenario,
)
from bellpoly.pitowsky import membership

HALF = Fraction(1, 2)


class TestSingletScenario:
    def test_120_degree_joint(self):
        cfg = SingletConfig(0.0, 0.0, 0.0, math.radians(120))
        s = singlet_scenario(cfg)
        assert s.vector.joints[(1, 4)] == pytest.approx(3 / 8, abs=1e-12)

    def test_zero_angle_perfect_anticorrelation(self):
        cfg = SingletConfig(0.0, 0.0, 0.0, 0.0)
        s = singlet_scenario(cfg)
        assert s.expectations.e13 == -1.0
        assert s.vector.joints[(1, 3)] == 0.0

    def test_45_degree_values(self):
        cfg = SingletConfig(0.0, 0.0, math.pi / 4, 0.0)
        s = singlet_scenario(cfg)
        assert s.expectations.e13 == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)
        assert s.vector.joints[(1, 3)] == pytest.approx(0.07322330470336313, abs=1e-12)

    def test_singles_are_half(self):
        s = singlet_scenario(maximal_violation_config())
        assert all(s.vector.singles[i] == 0.5 for i in range(1, 5))

    def test_maximal_violation_geometry(self):
        s = singlet_scenario(maximal_violation_config())
        assert chsh_statistic(s.expectations) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12
        )

    def test_ch_violation_config_matches_exact_vector(self):
        generated = singlet_scenario(ch_violation_config()).vector
        stored = singlet_ch_vector()
        for a, b in zip(generated.components(), stored.components()):
            assert float(a) == pytest.approx(float(b), abs=1e-12)
        assert stored.joints[(1, 4)] == Fraction(3, 8)

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_expectation_joint_identity(self, a, b):
        # both sides equal 2 sin^2(angle/2), so E + 1 = 4 p for every angle
        cfg = SingletConfig(a, 0.0, b, 0.0)
        s = singlet_scenario(cfg)
        assert s.expectations.e13 + 1 == pytest.approx(
            4 * s.vector.joints[(1, 3)], abs=1e-9
        )


class TestVesselsAndConcept:
    def test_vessels_table(self):
        s = vessels_scenario()
        assert s.vector.components() == [1, 1, 1, 1, 0, 1, 1, 1]
        assert (s.expectations.e13, s.expectations.e14) == (-1, 1)

    def test_vessels_statistics(self):
        s = vessels_scenario()
        assert chsh_statistic(s.expectations) == 4
        assert clauser_horne_statistic(s.vector) == 1

    def test_concept_matches_vessels_numbers(self):
        c, v = concept_scenario(), vessels_scenario()
        assert c.vector == v.vector
        assert c.expectations == v.expectations
        assert c.name != v.name and c.kind == "concept"
        assert chsh_statistic(c.expectations) == 4
        assert c.expectations.e13 == -1 and c.expectations.e24 == 1


class TestDistinguishEvents:
    def test_vessels_vector(self):
        v = distinguish_events(vessels_scenario())
        assert v.n == 8 and v.pairs == DISTINGUISHED_PAIRS
        assert v.components() == [
            0, HALF, HALF, HALF, 0, HALF, HALF, HALF,
            0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
        ]

    def test_concept_matches_vessels_output(self):
        assert distinguish_events(concept_scenario()) == distinguish_events(
            vessels_scenario()
        )

    def test_ch_violation_joints(self):
        scenario = Scenario("singlet-ch", "explicit", vector=singlet_ch_vector())
        v = distinguish_events(scenario)
        assert v.joints[(3, 6)] == 0
        assert v.joints[(1, 5)] == Fraction(3, 32)
        assert v.singles[1] == Fraction(3, 16) and v.singles[3] == 0

    def test_anticorrelated_pair_gives_zero_joint(self):
        cfg = SingletConfig(0.0, math.pi / 3, math.pi / 3, math.pi)
        v = distinguish_events(singlet_scenario(cfg))
        assert v.joints[(3, 6)] == 0.0  # a2 = a3: up-up never happens

    def test_joint_bounded_by_weighted_single(self):
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = SingletConfig(*rng.uniform(0, 2 * math.pi, size=4))
            v = distinguish_events(singlet_scenario(cfg))
            for (i, j) in v.pairs:
                assert v.joints[(i, j)] <= 0.5 * v.singles[i] + 1e-12

    def test_pairing_weight_parameter(self):
        v = distinguish_events(vessels_scenario(), pairing_weight=Fraction(1, 3))
        assert v.singles[2] == Fraction(1, 3)
        assert v.joints[(2, 7)] == Fraction(1, 9)

    def test_requires_vector(self):
        with pytest.raises(ShapeError):
            distinguish_events(Scenario("bare", "vessels"))

    def test_requires_ch_shape(self):
        v = CorrelationVector(2, ((1, 2),), {1: 1, 2: 1}, {(1, 2): 1})
        with pytest.raises(ShapeError):
            distinguish_events(Scenario("tiny", "explicit", vector=v))


class TestDistinguishedMembership:
    def test_vessels_distinguished_inside(self):
        assert membership(distinguish_events(vessels_scenario())).inside

    def test_spin_marginal_variant_inside(self):
        v = spin_distinguished_marginal()
        assert v.singles[1] == Fraction(1, 4)
        assert v.joints[(1, 5)] == Fraction(3, 16)
        assert v.joints[(3, 6)] == 0
        assert membership(v).inside

    def test_artifact_convention_spin_inside(self):
        scenario = Scenario("singlet-ch", "explicit", vector=singlet_ch_vector())
        assert membership(distinguish_events(scenario)).inside
