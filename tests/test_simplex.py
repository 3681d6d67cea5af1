from fractions import Fraction

import numpy as np
import pytest

from bellpoly import simplex
from bellpoly.core import CH_SHAPE, CorrelationVector
from bellpoly.models import distinguish_events, vessels_scenario
from bellpoly.pitowsky import enumerate_vertices, membership, membership_problem
from bellpoly.simplex import FeasibilityProblem, certified_feasible, lp_feasible


def _check_solution(problem, x, tol):
    a = np.asarray(problem.a, dtype=float)
    residual = a @ np.array([float(v) for v in x]) - np.array(
        [float(b) for b in problem.b]
    )
    assert np.max(np.abs(residual)) <= tol
    assert min(float(v) for v in x) >= -tol


@pytest.mark.parametrize("mode", ["float", "exact"])
class TestBothModes:
    def test_trivial_feasible(self, mode):
        x = lp_feasible(FeasibilityProblem(np.array([[1, 1]]), (1,)), mode)
        assert x is not None
        assert sum(x) == pytest.approx(1, abs=1e-12)

    def test_trivial_infeasible(self, mode):
        assert lp_feasible(FeasibilityProblem(np.array([[1]]), (-1,)), mode) is None

    def test_conflicting_rows_infeasible(self, mode):
        a = np.array([[1, 0], [1, 0]])
        assert lp_feasible(FeasibilityProblem(a, (1, 2)), mode) is None

    def test_zero_rhs(self, mode):
        a = np.array([[1, -1, 2], [0, 1, 1]])
        x = lp_feasible(FeasibilityProblem(a, (0, 0)), mode)
        assert x is not None
        _check_solution(FeasibilityProblem(a, (0, 0)), x, 1e-12)

    def test_random_constructed_systems(self, mode):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, ncol = rng.integers(2, 6), rng.integers(3, 9)
            a = rng.integers(-3, 4, size=(m, ncol))
            x_star = rng.integers(0, 5, size=ncol)
            b = tuple(int(v) for v in a @ x_star)
            problem = FeasibilityProblem(a, b)
            x = lp_feasible(problem, mode)
            assert x is not None
            _check_solution(problem, x, 1e-9)

    def test_negative_rhs_handled_by_row_flip(self, mode):
        a = np.array([[-1, 0], [0, 1]])
        x = lp_feasible(FeasibilityProblem(a, (-2, 3)), mode)
        assert x is not None
        assert x[0] == pytest.approx(2, abs=1e-12)
        assert x[1] == pytest.approx(3, abs=1e-12)


class TestExactMode:
    def test_exact_arithmetic_preserved(self):
        a = np.array([[1, 1, 0], [0, 1, 1]])
        b = (Fraction(1, 3), Fraction(2, 7))
        x = lp_feasible(FeasibilityProblem(a, b), "exact")
        assert all(isinstance(v, Fraction) for v in x)
        assert x[0] + x[1] == Fraction(1, 3)
        assert x[1] + x[2] == Fraction(2, 7)

    def test_membership_encoding_of_distinguished_vessels(self):
        v = distinguish_events(vessels_scenario())
        problem = membership_problem(v, enumerate_vertices(v.n, v.pairs))
        weights = lp_feasible(problem, "exact")
        assert weights is not None
        assert sum(weights) == 1
        recon = [
            sum(w * int(u) for w, u in zip(weights, col))
            for col in np.asarray(problem.a).tolist()
        ]
        assert recon == [Fraction(x) for x in problem.b]

    def test_float_inputs_become_exact(self):
        for mode in ("float", "exact"):
            x = lp_feasible(FeasibilityProblem(np.array([[1, 2]]), (0.75,)), mode)
            assert all(isinstance(w, Fraction) for w in x) and x[0] + 2 * x[1] == Fraction(3, 4)

    def test_non_integer_matrix_is_refused(self):
        with pytest.raises(ValueError, match="integer"):
            FeasibilityProblem(np.array([[0.5, 2.0]]), (0.75,))

    def test_heavily_degenerate_system_terminates(self):
        # many zero right-hand sides force degenerate pivots; Bland's rule
        # must still reach a verdict
        rng = np.random.default_rng(1234)
        for _ in range(20):
            m, ncol = 6, 10
            a = rng.integers(-2, 3, size=(m, ncol))
            b = [0] * (m - 1) + [int(abs(a[m - 1]).sum())]
            problem = FeasibilityProblem(a, tuple(b))
            x = lp_feasible(problem, "exact")
            if x is not None:
                residual = [
                    sum(int(c) * w for c, w in zip(row, x)) for row in a
                ]
                assert residual == [Fraction(v) for v in b]
                assert min(x) >= 0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        FeasibilityProblem(np.array([[1, 2]]), (1, 2))


def test_unknown_mode():
    with pytest.raises(ValueError):
        lp_feasible(FeasibilityProblem(np.array([[1]]), (1,)), "symbolic")


def _fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions (the reference)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


def test_bareiss_solve_matches_fraction_elimination():
    rng = np.random.default_rng(5)
    singular = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        mat = rng.integers(-2, 3, size=(m, m)).tolist()
        rhs = rng.integers(-5, 6, size=m).tolist()
        det = _fraction_det(mat)
        solved = simplex._bareiss_solve([row + [r] for row, r in zip(mat, rhs)])
        if det == 0:
            singular += 1
            assert solved is None
            continue
        d, z = solved
        assert abs(d) == abs(det)
        assert [sum(a * x for a, x in zip(row, z)) for row in mat] == [d * r for r in rhs]
    assert 0 < singular < 200


def test_exact_prices_leave_int64_before_a_sum_can_overflow():
    a = np.array([[1, 1, 1], [0, 1, -1]], dtype=np.int8)
    small = simplex._exact_prices(a, [3, -2])
    assert small.dtype == np.int64 and small.tolist() == [3, 1, 5]
    assert simplex._exact_prices(a, [2 ** 62, 2 ** 62]).tolist() == [2 ** 62, 2 ** 63, 0]


def _vessels_at_n11():
    """The vessels vector (CH2 = +1, outside) on events 1..4, plus a chain
    of independent fair events 5..11."""
    vessels = vessels_scenario().vector
    chain = tuple((i, i + 1) for i in range(5, 11))
    half = Fraction(1, 2)
    return CorrelationVector(
        11, CH_SHAPE + chain,
        {**vessels.singles, **{i: half for i in range(5, 12)}},
        {**vessels.joints, **{p: half * half for p in chain}},
    )


class TestCertificates:
    def test_farkas_vector_holds_on_every_vertex(self):
        v = _vessels_at_n11()
        vertex_set = enumerate_vertices(v.n, v.pairs)
        problem = membership_problem(v, vertex_set)
        x, y = certified_feasible(problem.a, problem.b)
        assert x is None
        # every column is (1, u): y.(1, u) <= 0 on all 2^11 vertices, y.b > 0
        columns = np.hstack([np.ones((len(vertex_set), 1), dtype=np.int64),
                             vertex_set.vertices.astype(np.int64)])

        def holds(y):
            excess = sum(int(c) * b for c, b in zip(y, problem.b))
            return int((columns @ np.array(y, dtype=np.int64)).max()) <= 0 and excess > 0

        assert holds(y)
        flipped = list(y)
        flipped[0] = -flipped[0]
        assert int((columns @ np.array(flipped, dtype=np.int64)).max()) > 0
        for i in np.flatnonzero(y):
            flipped = list(y)
            flipped[i] = -flipped[i]
            assert not holds(flipped), i

    @pytest.mark.parametrize("basis, claim", [("artificial", 0.0), ("artificial", 1.0),
                                              ("real", 0.0)],
                             ids=["artificials-claim-inside", "artificials-claim-outside",
                                  "real-columns-claim-inside"])
    def test_wrong_float_basis_falls_back_to_exact(self, monkeypatch, basis, claim):
        # the float rounds end on a wrong basis: the artificials (which
        # certify neither verdict here), or the first nonsingular set of real
        # columns (whose exact weights are negative for an outside vector)
        def wrong(a, rhs, sign, cols, stop):
            if basis == "artificial":
                return [a.shape[1] + i for i in range(a.shape[0])], claim
            picked = []
            for j in range(a.shape[1]):
                if np.linalg.matrix_rank(a[:, picked + [j]].astype(float)) > len(picked):
                    picked.append(j)
            return picked, claim

        fallbacks = []
        exact_rounds = simplex._exact_rounds

        def counted(*args):
            fallbacks.append(args)
            return exact_rounds(*args)

        monkeypatch.setattr(simplex, "_float_rounds", wrong)
        monkeypatch.setattr(simplex, "_exact_rounds", counted)
        inside = distinguish_events(vessels_scenario())
        result = membership(inside, mode="float")
        assert result.inside and result.reconstruction_error(inside) == 0
        assert min(result.certificate) >= 0
        assert not membership(vessels_scenario().vector, mode="float").inside
        # the outside vector always needs the fallback; the inside one does
        # unless the real columns happen to carry it
        assert len(fallbacks) == 2 or (basis == "real" and len(fallbacks) == 1)

    def test_stalled_master_falls_back_to_exact(self, monkeypatch):
        def stall(t, basis):
            raise simplex._Stall

        monkeypatch.setattr(simplex, "_pivot_to_optimum", stall)
        inside = distinguish_events(vessels_scenario())
        result = membership(inside, mode="float")
        assert result.inside and result.reconstruction_error(inside) == 0
        assert not membership(vessels_scenario().vector, mode="float").inside
