from fractions import Fraction

import numpy as np
import pytest

from bellpoly.models import distinguish_events, vessels_scenario
from bellpoly.pitowsky import enumerate_vertices, membership_problem
from bellpoly.simplex import FeasibilityProblem, _aligned_zeros, lp_feasible


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
        x = lp_feasible(FeasibilityProblem(np.array([[1.0, 2.0]]), (0.75,)), "exact")
        total = x[0] + 2 * x[1]
        assert isinstance(total, Fraction) and total == Fraction(3, 4)

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


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (24, 2072), (26, 4122)])
def test_tableau_starts_on_a_64_byte_boundary(shape):
    for _ in range(5):  # each allocation may land at a different heap offset
        t = _aligned_zeros(shape)
        assert t.ctypes.data % 64 == 0
        assert t.shape == shape and t.flags.c_contiguous and not t.any()
