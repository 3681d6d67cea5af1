import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellpoly.core import (
    CH_BY_NAME,
    CorrelationVector,
    ExpectationSet,
    Inequality,
    Scenario,
    ShapeError,
    ValidationError,
    ch_shape_vector,
    chsh_statistic,
    clauser_horne_statistic,
    resolve_ch_combination,
)

HALF = Fraction(1, 2)


class TestChshStatistic:
    def test_singlet_maximum(self):
        r = math.sqrt(2) / 2
        e = ExpectationSet(r, -r, r, r)
        assert chsh_statistic(e) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_algebraic_maximum(self):
        assert chsh_statistic(ExpectationSet(-1, 1, 1, 1)) == 4

    def test_zero(self):
        assert chsh_statistic(ExpectationSet(0, 0, 0, 0)) == 0

    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_negation_invariance_and_cap(self, es):
        e = ExpectationSet(*es)
        neg = ExpectationSet(*(-x for x in es))
        value = chsh_statistic(e)
        assert value == pytest.approx(chsh_statistic(neg), abs=1e-12)
        assert 0.0 <= value <= 4.0 + 1e-12

    def test_four_only_at_extremes(self):
        e = ExpectationSet(-1, 1, 1, 1)
        assert abs(e.e13 - e.e14) == 2 and abs(e.e23 + e.e24) == 2
        almost = ExpectationSet(-1, 0.999, 1, 1)
        assert chsh_statistic(almost) < 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ExpectationSet(1.5, 0, 0, 0)


VESSELS = ch_shape_vector(1, 1, 1, 1, 0, 1, 1, 1)


class TestClauserHorneStatistic:
    def test_vessels_default_combination(self):
        assert clauser_horne_statistic(VESSELS) == 1

    def test_zero_vector(self):
        zero = ch_shape_vector(0, 0, 0, 0, 0, 0, 0, 0)
        assert clauser_horne_statistic(zero) == 0

    def test_ch_violation_configuration(self):
        # singles 1/2, joints (3/8, 3/8, 0, 3/8): the first sign pattern
        # evaluates to 3/8 + 3/8 + 3/8 - 0 - 1/2 - 1/2 = +1/8
        v = ch_shape_vector(
            HALF, HALF, HALF, HALF,
            Fraction(3, 8), Fraction(3, 8), 0, Fraction(3, 8),
        )
        assert clauser_horne_statistic(v, "CH1") == Fraction(1, 8)

    def test_default_is_ch2(self):
        assert resolve_ch_combination(None) is CH_BY_NAME["CH2"]
        assert CH_BY_NAME["CH2"].formula == "p14+p23+p24-p13-p2-p4"

    def test_general_integer_coefficients(self):
        ineq = Inequality("x", ((1, 2), ((1, 3), -3), (4, 1)), upper=0)
        assert ineq.formula == "2p1-3p13+p4"
        assert ineq.value(VESSELS) == 2 * VESSELS.singles[1] - 3 * VESSELS.joints[(1, 3)] + \
            VESSELS.singles[4]

    def test_combination_names(self):
        values = {
            name: clauser_horne_statistic(VESSELS, name)
            for name in ("CH1", "CH2", "CH3", "CH4")
        }
        assert values == {"CH1": -1, "CH2": 1, "CH3": -1, "CH4": -1}

    def test_unknown_combination(self):
        with pytest.raises(ValueError):
            clauser_horne_statistic(VESSELS, "CH9")

    def test_wrong_shape(self):
        v = CorrelationVector(2, ((1, 2),), {1: 0.5, 2: 0.5}, {(1, 2): 0.25})
        with pytest.raises(ShapeError):
            clauser_horne_statistic(v)

    def test_classical_spaces_stay_in_range(self):
        # any vector realized by one finite probability space keeps every
        # combination inside [-1, 0]
        import numpy as np

        rng = np.random.default_rng(314)
        for _ in range(200):
            k = int(rng.integers(1, 20))
            weights = rng.random(k)
            weights /= weights.sum()
            member = rng.random((4, k)) < rng.random((4, 1))
            singles = {i + 1: float(weights[member[i]].sum()) for i in range(4)}
            joints = {
                (i, j): float(weights[member[i - 1] & member[j - 1]].sum())
                for i, j in ((1, 3), (1, 4), (2, 3), (2, 4))
            }
            v = CorrelationVector(4, ((1, 3), (1, 4), (2, 3), (2, 4)), singles, joints)
            for name in ("CH1", "CH2", "CH3", "CH4"):
                value = clauser_horne_statistic(v, name)
                assert -1 - 1e-9 <= value <= 1e-9


class TestCorrelationVector:
    def test_components_order(self):
        v = VESSELS
        assert v.components() == [1, 1, 1, 1, 0, 1, 1, 1]
        assert v.pairs == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_pair_normalization(self):
        v = CorrelationVector(
            3, ((2, 3), (1, 2)), {1: 0.5, 2: 0.5, 3: 0.5}, {(1, 2): 0.1, (2, 3): 0.2}
        )
        assert v.pairs == ((1, 2), (2, 3))

    @pytest.mark.parametrize(
        "n, pairs, singles, joints",
        [
            (2, ((2, 1),), {1: 0.5, 2: 0.5}, {(2, 1): 0.2}),  # unordered pair
            (2, ((1, 2), (1, 2)), {1: 0.5, 2: 0.5}, {(1, 2): 0.2}),  # duplicate
            (2, ((1, 3),), {1: 0.5, 2: 0.5}, {(1, 3): 0.2}),  # index out of range
            (2, ((1, 2),), {1: 0.5}, {(1, 2): 0.2}),  # missing single
            (2, ((1, 2),), {1: 0.5, 2: 0.5}, {}),  # missing joint
            (2, ((1, 2),), {1: 1.5, 2: 0.5}, {(1, 2): 0.2}),  # out of [0, 1]
        ],
    )
    def test_invalid_vectors(self, n, pairs, singles, joints):
        with pytest.raises(ValidationError):
            CorrelationVector(n, pairs, singles, joints)


class TestScenario:
    def test_singlet_requires_angles(self):
        with pytest.raises(ValidationError):
            Scenario("s", "singlet")

    def test_explicit_requires_vector(self):
        with pytest.raises(ValidationError):
            Scenario("e", "explicit")

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Scenario("x", "mystery")
