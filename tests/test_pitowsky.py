import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly.core import (
    BELL3_SHAPE,
    CH_COMBINATIONS,
    CH_SHAPE,
    CapacityError,
    CorrelationVector,
    Scenario,
    ShapeError,
    bell3_vector,
    ch_shape_vector,
)
from bellpoly.models import (
    distinguish_events,
    singlet_scenario,
    maximal_violation_config,
    vessels_scenario,
)
from bellpoly.pitowsky import (
    BELL3_FACETS,
    KolmogorovRep,
    NoRepresentationError,
    bell_inequality_set_n3,
    ch_inequality_set,
    enumerate_vertices,
    membership,
    pair_atom_weights,
    product_representation,
    verify_representation,
)
from bellpoly.scenario_io import save_scenario

HALF = Fraction(1, 2)


class TestEnumerateVertices:
    def test_two_events(self):
        vs = enumerate_vertices(2, ((1, 2),))
        assert vs.vertices.tolist() == [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]]

    def test_three_events_row(self):
        vs = enumerate_vertices(3, ((1, 2), (1, 3), (2, 3)))
        # eps = (1, 1, 0) sits at lexicographic position 6
        assert vs.vertices[6].tolist() == [1, 1, 0, 1, 0, 0]

    def test_ch_shape_count(self):
        vs = enumerate_vertices(4, ((1, 3), (1, 4), (2, 3), (2, 4)))
        assert vs.vertices.shape == (16, 8)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_product_identity_all_pairs(self, n):
        pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        vs = enumerate_vertices(n, pairs)
        assert len(vs) == 2 ** n
        eps = vs.vertices[:, :n]
        for k, (i, j) in enumerate(vs.pairs):
            assert np.array_equal(vs.vertices[:, n + k], eps[:, i - 1] * eps[:, j - 1])

    def test_guard(self):
        with pytest.raises(CapacityError):
            enumerate_vertices(17, ())
        enumerate_vertices(17, (), max_n=18)
        with pytest.raises(CapacityError):
            enumerate_vertices(21, (), max_n=25)


def product_vector_ch(rng):
    p = rng.random(4)
    return ch_shape_vector(
        *p, p[0] * p[2], p[0] * p[3], p[1] * p[2], p[1] * p[3]
    )


class TestMembership:
    def test_distinguished_vessels_inside(self):
        v = distinguish_events(vessels_scenario())
        result = membership(v)
        assert result.inside and result.mode == "exact"
        assert result.reconstruction_error(v) == 0
        weights = result.certificate
        assert sum(weights) == 1 and min(weights) >= 0

    def test_raw_vessels_outside_with_ch_facet(self):
        result = membership(vessels_scenario().vector)
        assert not result.inside
        assert result.violated_facet.name == "CH2"
        assert result.violated_facet.value == 1

    def test_product_vectors_inside(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            result = membership(product_vector_ch(rng), mode="float")
            assert result.inside

    def test_singlet_max_violation_outside_both_routes(self):
        v = singlet_scenario(maximal_violation_config()).vector
        result = membership(v)
        assert not result.inside
        facet = result.violated_facet
        assert facet.name == "CH4"
        # 3*(1/2)sin^2(22.5deg) - (1/2)sin^2(67.5deg) - 1 = -1/2 - sqrt(2)/2
        assert facet.value == pytest.approx(-0.5 - math.sqrt(2) / 2, abs=1e-9)
        # the printed list and the LP must agree
        assert any(not r.satisfied for r in ch_inequality_set(v))

    def test_float_mode_certificate_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = product_vector_ch(rng)
            result = membership(v, mode="float")
            assert result.inside
            assert result.reconstruction_error(v) <= 1e-9

    def test_exact_mode_certificate_is_exact(self):
        v = ch_shape_vector(
            HALF, HALF, HALF, HALF,
            Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
        )
        result = membership(v, mode="exact")
        assert result.inside
        assert result.reconstruction_error(v) == 0
        assert all(isinstance(w, Fraction) for w in result.certificate)

    def test_float_inputs_are_judged_at_their_binary_value(self):
        # a mean of five vertices lies on a face; rounding its fifths to
        # floats can move it just off that face, and both modes then agree
        # on the rounded value
        rng = np.random.default_rng(7)
        verdicts = []
        for _ in range(20):
            n = int(rng.integers(3, 6))
            pairs = tuple(itertools.combinations(range(1, n + 1), 2))
            rows = enumerate_vertices(n, pairs).vertices
            picked = rows[rng.choice(len(rows), size=5, replace=False)]
            point = [float(Fraction(int(s), 5)) for s in picked.sum(axis=0)]
            v = CorrelationVector(n, pairs, dict(enumerate(point[:n], 1)),
                                  dict(zip(pairs, point[n:])))
            exact = membership(v, mode="exact").inside
            assert membership(v, mode="float").inside == exact
            verdicts.append(exact)
        assert True in verdicts and False in verdicts

    def test_default_mode_switches_on_size(self):
        v = CorrelationVector(11, (), {i: 0.5 for i in range(1, 12)}, {})
        assert membership(v).mode == "float"

    def test_unknown_shape_reports_no_facet(self):
        v = CorrelationVector(2, ((1, 2),), {1: 1, 2: 0}, {(1, 2): 1})
        result = membership(v)
        assert not result.inside and result.violated_facet is None

    def test_capacity_guard(self):
        v = CorrelationVector(17, (), {i: 0.5 for i in range(1, 18)}, {})
        with pytest.raises(CapacityError):
            membership(v)

    def test_product_vector_inside_at_n12(self):
        rng = np.random.default_rng(41)
        n = 12
        pairs = tuple((i, i + 6) for i in range(1, 7))
        p = rng.random(n)
        v = CorrelationVector(
            n, pairs,
            {i + 1: float(p[i]) for i in range(n)},
            {(i, j): float(p[i - 1] * p[j - 1]) for i, j in pairs},
        )
        result = membership(v)
        assert result.mode == "float" and result.inside
        assert result.reconstruction_error(v) <= 1e-9

    def test_certificate_support_is_basic(self):
        # a basic feasible solution has at most (rows) positive weights
        rng = np.random.default_rng(12)
        for _ in range(10):
            v = product_vector_ch(rng)
            result = membership(v, mode="float")
            support = sum(1 for w in result.certificate if w > 1e-12)
            assert support <= v.n + len(v.pairs) + 1

    def test_agreement_with_inequality_list_n4(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            v = ch_shape_vector(*rng.random(8))
            inside = membership(v, mode="float").inside
            assert inside == all(r.satisfied for r in ch_inequality_set(v))

    def test_agreement_with_inequality_list_n3(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            v = bell3_vector(*rng.random(6))
            inside = membership(v, mode="float").inside
            assert inside == all(r.satisfied for r in bell_inequality_set_n3(v))

    def test_float_and_exact_agree_away_from_facets(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(120):
            v = ch_shape_vector(*rng.random(8))
            distance = min(
                _facet_distance(r) for r in ch_inequality_set(v)
            )
            if distance <= 1e-6:
                continue
            checked += 1
            assert membership(v, mode="float").inside == membership(v, mode="exact").inside
        assert checked > 100

    def test_float_and_exact_agree_n3(self):
        rng = np.random.default_rng(98)
        checked = 0
        for _ in range(120):
            v = bell3_vector(*rng.random(6))
            distance = min(
                _facet_distance(r) for r in bell_inequality_set_n3(v)
            )
            if distance <= 1e-6:
                continue
            checked += 1
            assert membership(v, mode="float").inside == membership(v, mode="exact").inside
        assert checked > 100


def _facet_distance(result):
    # geometric distance needs the coefficient norm; every inequality here
    # has at most six unit coefficients, so norm <= sqrt(6)
    slack = math.inf
    if result.lower is not None:
        slack = min(slack, abs(float(result.value - result.lower)))
    if result.upper is not None:
        slack = min(slack, abs(float(result.value - result.upper)))
    return slack / math.sqrt(6)


class TestChInequalitySet:
    def test_vessels(self):
        results = {r.name: r for r in ch_inequality_set(vessels_scenario().vector)}
        ch2 = results["CH2"]
        assert ch2.value == 1 and not ch2.satisfied
        assert not results["p1+p3-p13<=1"].satisfied

    def test_zero_vector(self):
        results = ch_inequality_set(ch_shape_vector(0, 0, 0, 0, 0, 0, 0, 0))
        assert all(r.satisfied for r in results)
        assert all(r.value == 0 for r in results if r.facet)

    def test_ch_violation_configuration(self):
        v = ch_shape_vector(
            HALF, HALF, HALF, HALF,
            Fraction(3, 8), Fraction(3, 8), 0, Fraction(3, 8),
        )
        results = {r.name: r for r in ch_inequality_set(v)}
        assert results["CH1"].value == Fraction(1, 8)
        assert not results["CH1"].satisfied
        assert all(r.satisfied for name, r in results.items() if name != "CH1")

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            ch_inequality_set(bell3_vector(1, 1, 1, 1, 1, 1))


class TestBellInequalitySetN3:
    def test_independent_fair_events(self):
        v = bell3_vector(HALF, HALF, HALF, *(Fraction(1, 4),) * 3)
        assert all(r.satisfied for r in bell_inequality_set_n3(v))

    def test_anticorrelated_triple_violates_sum(self):
        v = bell3_vector(HALF, HALF, HALF, 0, 0, 0)
        results = {r.name: r for r in bell_inequality_set_n3(v)}
        b1 = results["B1:p1+p2+p3-p12-p13-p23<=1"]
        assert b1.value == Fraction(3, 2) and not b1.satisfied
        assert not membership(v).inside  # no 8-atom space realizes it

    def test_certain_singles_with_conflicting_joints(self):
        v = bell3_vector(1, 1, 1, 0, 0, 1)
        results = {r.name: r for r in bell_inequality_set_n3(v)}
        assert results["B2:p1-p12-p13+p23>=0"].value == 2
        assert not results["p1+p2-p12<=1"].satisfied
        assert not membership(v).inside

    def test_cyclic_facets_hold_on_vertices(self):
        vs = enumerate_vertices(3, ((1, 2), (1, 3), (2, 3)))
        for row in vs.vertices.tolist():
            v = bell3_vector(*row)
            assert all(r.satisfied for r in bell_inequality_set_n3(v))

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            bell_inequality_set_n3(vessels_scenario().vector)


TINY = Fraction(1, 10 ** 10)


class TestExactJudgement:
    """The inequality lists judge exact values exactly, and float values
    within core.TOL."""

    def test_rational_ch2_just_above_zero_is_violated(self):
        v = ch_shape_vector(HALF, HALF, HALF, HALF, HALF - TINY, HALF, HALF, HALF)
        ch2 = {r.name: r for r in ch_inequality_set(v)}["CH2"]
        assert ch2.value == TINY and not ch2.satisfied
        result = membership(v)
        assert not result.inside and result.violated_facet == ch2

    def test_rational_b1_just_above_one_is_violated(self):
        joint = Fraction(1, 6) - TINY / 3
        v = bell3_vector(HALF, HALF, HALF, joint, joint, joint)
        violated = [r for r in bell_inequality_set_n3(v) if not r.satisfied]
        assert [(r.name, r.value) for r in violated] == [(BELL3_FACETS[0].name, 1 + TINY)]
        assert membership(v).violated_facet == violated[0]

    def test_float_just_over_a_bound_reads_satisfied(self):
        v = ch_shape_vector(0.5, 0.5, 0.5, 0.5, 0.5 + 1e-10, 0.25, 0.25, 0.25)
        results = {r.name: r for r in ch_inequality_set(v)}
        assert results["p13<=p1"].value < 0 and results["p13<=p1"].satisfied

    def test_rational_points_within_1e9_of_a_facet(self):
        # a random point of a face of a CH or B facet, moved up to 1e-9 of
        # the way towards the polytope's center or away from it
        rng = np.random.default_rng(23)
        verdicts = []
        for shape, facets, inequality_set in ((CH_SHAPE, CH_COMBINATIONS, ch_inequality_set),
                                              (BELL3_SHAPE, BELL3_FACETS, bell_inequality_set_n3)):
            n = shape[-1][1]
            verts = enumerate_vertices(n, shape).vertices.astype(np.int64)
            keys = [*range(1, n + 1), *shape]
            center = [Fraction(int(s), len(verts)) for s in verts.sum(axis=0)]
            for facet in facets:
                a = np.array([dict(facet.coeffs).get(key, 0) for key in keys])
                for bound in (b for b in (facet.lower, facet.upper) if b is not None):
                    tight = verts[verts @ a == bound]
                    for _ in range(10):
                        w = rng.integers(1, 10, size=len(tight))
                        face = [Fraction(int(s), int(w.sum())) for s in w @ tight]
                        step = Fraction(int(rng.integers(-1000, 1001)), 10 ** 12)
                        point = [f + step * (c - f) for f, c in zip(face, center)]
                        v = CorrelationVector(n, shape, dict(enumerate(point[:n], 1)),
                                              dict(zip(shape, point[n:])))
                        inside = membership(v, mode="exact").inside
                        assert all(r.satisfied for r in inequality_set(v)) == inside
                        verdicts.append(inside)
        assert True in verdicts and False in verdicts


class TestProductRepresentation:
    def test_pair_atom_weights_fair(self):
        assert pair_atom_weights(HALF, HALF, Fraction(1, 4)) == (
            Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)
        )

    def test_pair_atom_weights_empty_pair(self):
        assert pair_atom_weights(0, 0, 0) == (0, 0, 0, 1)

    def test_joint_above_marginal_rejected(self):
        with pytest.raises(NoRepresentationError):
            pair_atom_weights(Fraction(1, 4), HALF, Fraction(1, 2))

    def test_distinguished_vessels(self):
        v = distinguish_events(vessels_scenario())
        rep = product_representation(v)
        assert verify_representation(rep, v)
        assert rep.measure(1) == 0 and rep.measure(1, 5) == 0
        assert rep.measure(2, 7) == Fraction(1, 4)

    def test_single_pair_with_spectators(self):
        v = CorrelationVector(
            3, ((1, 2),),
            {1: HALF, 2: HALF, 3: Fraction(1, 3)},
            {(1, 2): Fraction(1, 4)},
        )
        rep = product_representation(v)
        assert verify_representation(rep, v)
        assert len(rep.atoms) == 8  # 4-atom pair factor x 2-atom spectator

    def test_overlapping_pairs_rejected(self):
        v = CorrelationVector(
            3, ((1, 2), (1, 3)),
            {1: HALF, 2: HALF, 3: HALF},
            {(1, 2): Fraction(1, 4), (1, 3): Fraction(1, 4)},
        )
        with pytest.raises(ShapeError):
            product_representation(v)

    def test_unrepresentable_pair_rejected(self):
        v = CorrelationVector(
            2, ((1, 2),), {1: Fraction(1, 4), 2: HALF}, {(1, 2): HALF}
        )
        with pytest.raises(NoRepresentationError):
            product_representation(v)

    def test_float_roundoff_at_marginal_boundary(self):
        # p_ij exceeds p_i by float noise within tolerance: still representable
        v = CorrelationVector(
            2, ((1, 2),), {1: 0.1 + 2e-10, 2: 0.3}, {(1, 2): 0.1 + 3e-10}
        )
        rep = product_representation(v)
        assert verify_representation(rep, v)
        assert min(w for _, w in rep.atoms) >= 0.0

    def test_float_roundoff_on_spectator(self):
        v = CorrelationVector(1, (), {1: 1.0 + 5e-10}, {})
        assert verify_representation(product_representation(v), v)


@st.composite
def disjoint_pair_vectors(draw):
    denom = 64
    frac = lambda k: Fraction(k, denom)
    singles = {}
    joints = {}
    for i, j in ((1, 4), (2, 5)):
        pij = draw(st.integers(0, denom))
        pi = draw(st.integers(pij, denom))
        pj = draw(st.integers(pij, denom - pi + pij))
        singles[i], singles[j] = frac(pi), frac(pj)
        joints[(i, j)] = frac(pij)
    singles[3] = frac(draw(st.integers(0, denom)))
    singles[6] = frac(draw(st.integers(0, denom)))
    return CorrelationVector(6, ((1, 4), (2, 5)), singles, joints)


class TestRepresentationProperties:
    @settings(max_examples=60, deadline=None)
    @given(disjoint_pair_vectors())
    def test_product_representation_always_verifies(self, v):
        rep = product_representation(v)
        assert verify_representation(rep, v, tol=0)

    def test_perturbed_rep_fails(self):
        v = CorrelationVector(
            2, ((1, 2),), {1: HALF, 2: HALF}, {(1, 2): Fraction(1, 4)}
        )
        rep = product_representation(v)
        # move 0.1 of mass from the both-up atom to the neither atom
        shifted = {
            label: weight for label, weight in rep.atoms
        }
        shifted["11"] = shifted["11"] - Fraction(1, 10)
        shifted["00"] = shifted["00"] + Fraction(1, 10)
        rep2 = KolmogorovRep(tuple(shifted.items()), rep.events)
        assert not verify_representation(rep2, v)

    def test_hand_built_four_atom_space(self):
        rep = KolmogorovRep(
            (("a", Fraction(1, 4)), ("b", Fraction(1, 4)),
             ("c", Fraction(1, 4)), ("d", Fraction(1, 4))),
            {1: frozenset("ab"), 2: frozenset("ac")},
        )
        v = CorrelationVector(
            2, ((1, 2),), {1: HALF, 2: HALF}, {(1, 2): Fraction(1, 4)}
        )
        assert verify_representation(rep, v, tol=0)

    def test_missing_event_declaration(self):
        rep = KolmogorovRep((("a", 1),), {1: frozenset("a")})
        v = CorrelationVector(2, (), {1: 1, 2: 1}, {})
        with pytest.raises(ShapeError):
            verify_representation(rep, v)


class TestKolmogorovRepValidation:
    def test_negative_weight(self):
        with pytest.raises(ValueError):
            KolmogorovRep((("a", -0.5), ("b", 1.5)), {})

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            KolmogorovRep((("a", Fraction(1, 2)),), {})

    def test_unknown_atom_in_event(self):
        with pytest.raises(ValueError):
            KolmogorovRep((("a", 1),), {1: frozenset("b")})

    def test_duplicate_label(self):
        with pytest.raises(ValueError):
            KolmogorovRep((("a", HALF), ("a", HALF)), {})


def _highs_residual(vertex_set, components):
    """Least L1 distance from the vector to the convex hull's affine
    constraints, by HiGHS: phase 1 with a free slack pair per row."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    a = np.vstack([np.ones(len(vertex_set)), vertex_set.vertices.T])
    eye = np.eye(a.shape[0])
    cost = np.r_[np.zeros(a.shape[1]), np.ones(2 * a.shape[0])]
    res = linprog(cost, A_eq=np.hstack([a, eye, -eye]), b_eq=[1.0, *map(float, components)],
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


class TestLinprogOracle:
    """membership() against an independent LP solver, scipy's HiGHS."""

    @staticmethod
    def _points(rng, n, pairs, q):
        """A random, a vertex-mean and a pairwise-bounded vector on the 1/q grid."""
        yield [Fraction(int(k), q) for k in rng.integers(0, q + 1, n + len(pairs))]
        rows = enumerate_vertices(n, pairs).vertices
        picked = rows[rng.choice(len(rows), size=int(rng.integers(1, 2 * n)), replace=False)]
        yield [Fraction(int(s), len(picked)) for s in picked.sum(axis=0)]
        singles = rng.integers(0, q + 1, n)
        joints = [rng.integers(max(0, singles[i - 1] + singles[j - 1] - q),
                               min(singles[i - 1], singles[j - 1]) + 1) for i, j in pairs]
        yield [Fraction(int(k), q) for k in [*singles, *joints]]

    @pytest.mark.parametrize("mode, sizes", [(None, range(3, 8)), ("float", range(9, 12)),
                                             (None, range(12, 17))],
                             ids=["default-exact", "float", "default-float"])
    def test_verdicts_agree_with_highs(self, mode, sizes):
        rng = np.random.default_rng(2024)
        verdicts = []
        for n in sizes:
            every = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            density = 0.5 if n < 12 else 0.25  # HiGHS takes seconds on 2^16 dense columns
            pairs = tuple(p for p in every if rng.random() < density)
            for point in self._points(rng, n, pairs, q=12):
                v = CorrelationVector(n, pairs, dict(enumerate(point[:n], 1)),
                                      dict(zip(pairs, point[n:])))
                result = membership(v, mode=mode)
                assert result.mode == (mode or ("exact" if n <= 10 else "float"))
                residual = _highs_residual(result.vertex_set, point)
                if 1e-9 < residual <= 1e-6:
                    continue  # too close to the boundary for HiGHS to decide
                assert result.inside == (residual <= 1e-9), (n, pairs, point)
                if result.inside:
                    assert result.reconstruction_error(v) == 0
                verdicts.append(result.inside)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("n, facets", [(12, ("CH1", "B1")), (13, ("CH2", "B2")),
                                           (14, ("CH3", "B3")), (15, ("CH4", "B4")),
                                           (16, ("CH1", "B1"))],
                             ids=lambda x: "-".join(x) if isinstance(x, tuple) else f"n{x}")
    def test_points_within_1e12_of_ch_and_b_facets(self, n, facets):
        """The CH facets on the 4-cycle 1-3-2-4 and B1..B4 on the triangle
        5-6-7, each approached to 1e-12 from inside and from outside in the
        default (float) mode. HiGHS puts the outside points on the polytope;
        the construction tells the two sides apart."""
        rng = np.random.default_rng(n)
        shape = [*CH_SHAPE, (5, 6), (5, 7), (6, 7)]
        rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if (i, j) not in shape]
        pairs = tuple(sorted(shape + [rest[k] for k in rng.choice(len(rest), n, replace=False)]))
        vertex_set = enumerate_vertices(n, pairs)
        verts = vertex_set.vertices.astype(np.int64)
        keys = [*range(1, n + 1), *pairs]
        center = [Fraction(int(s), len(verts)) for s in verts.sum(axis=0)]
        delta = Fraction(1, 10 ** 12)
        for name in facets:
            coef, bound = _FACETS[name]
            a = np.array([coef.get(key, 0) for key in keys])
            tight = verts[verts @ a == bound]
            face = [Fraction(int(s), len(tight)) for s in tight.sum(axis=0)]
            for inside, step in ((True, delta), (False, -delta)):
                point = [f + step * (c - f) for f, c in zip(face, center)]
                v = CorrelationVector(n, pairs, dict(enumerate(point[:n], 1)),
                                      dict(zip(pairs, point[n:])))
                result = membership(v)
                assert result.mode == "float" and result.inside == inside, (name, inside)
                if inside:
                    assert result.reconstruction_error(v) == 0
                else:
                    assert _highs_residual(vertex_set, point) <= 1e-9


def _shifted(key, by):
    return key + by if isinstance(key, int) else (key[0] + by, key[1] + by)


#: a.x = bound on the facet, over the component keys: CH1..CH4 = 0 from
#: core, and B1..B4 of pitowsky relabelled to the triangle 5-6-7
_FACETS = {
    **{c.name: (dict(c.coeffs), 0) for c in CH_COMBINATIONS},
    **{b.name.partition(":")[0]: ({_shifted(k, 4): c for k, c in b.coeffs},
                                  b.lower if b.upper is None else b.upper)
       for b in BELL3_FACETS},
}


def _vertex_mean(seed, n, npairs, k):
    """Mean of k distinct vertices of C(n, S) on npairs random pairs, drawn
    from default_rng(seed) the way benchmark/inputs.py draws its fixed
    degenerate input."""
    rng = np.random.default_rng(seed)
    every = list(itertools.combinations(range(1, n + 1), 2))
    pairs = tuple(sorted(every[i] for i in rng.choice(len(every), size=npairs, replace=False)))
    verts = enumerate_vertices(n, pairs).vertices
    picked = verts[rng.choice(len(verts), size=k, replace=False)]
    point = [Fraction(int(s), k) for s in picked.sum(axis=0)]
    return CorrelationVector(n, pairs, dict(enumerate(point[:n], 1)), dict(zip(pairs, point[n:])))


class TestVertexMeans:
    """Plain vertex means sit on low-dimensional faces, where the phase-1
    LP is heavily degenerate; each must come out inside, exactly."""

    def test_cli_on_the_benchmark_degenerate_vector(self, tmp_path):
        path = tmp_path / "degenerate-n11.json"
        save_scenario(Scenario("degenerate", "explicit", vector=_vertex_mean(8, 11, 33, 10)), path)
        proc = subprocess.run([sys.executable, "-m", "bellpoly.cli", "membership", str(path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "result: inside" in proc.stdout
        assert "max reconstruction error = 0\n" in proc.stdout

    @pytest.mark.parametrize("n, npairs, k, seeds", [(11, 33, 10, 12), (11, 22, 16, 20),
                                                     (12, 24, 64, 4)])
    def test_vertex_means_are_inside(self, n, npairs, k, seeds):
        for seed in range(seeds):
            v = _vertex_mean([seed, n, npairs, k], n, npairs, k)
            result = membership(v)
            assert result.mode == "float" and result.inside, seed
            assert result.reconstruction_error(v) == 0
