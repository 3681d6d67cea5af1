import hashlib
import math
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import Philox

from bellpoly import cli, epsrho
from bellpoly.core import ValidationError
from bellpoly.epsrho import (
    COS_45,
    MC_CHUNK,
    SQRT2,
    SWEEP_COSINES,
    EpsRhoParams,
    MeasurementDirections,
    _mean_and_stderr,
    _product_sum,
    _regime,
    _right_up,
    _threshold,
    chsh_closed_form,
    closed_form_expectation,
    monte_carlo_expectation,
    sweep,
    violation_boundary,
)

C45 = COS_45


class TestClosedFormExpectation:
    def test_full_reach_full_elastic_is_quantum(self):
        p = EpsRhoParams(1.0, 1.0)
        for c in (-1.0, -0.3, 0.0, 0.5, 1.0):
            assert closed_form_expectation(p, c) == pytest.approx(-c, abs=1e-15)

    def test_saturated_down(self):
        assert closed_form_expectation(EpsRhoParams(1.0, 0.25), C45) == -1.0
        assert closed_form_expectation(EpsRhoParams(0.5, 0.5), 1.0) == -1.0

    def test_saturated_up(self):
        assert closed_form_expectation(EpsRhoParams(1.0, 0.25), -C45) == 1.0

    def test_no_reach(self):
        assert closed_form_expectation(EpsRhoParams(0.0, 0.7), 0.9) == 0.0

    def test_deterministic_limit_sign_rule(self):
        p = EpsRhoParams(0.5, 0.0)
        assert closed_form_expectation(p, 0.3) == -1.0
        assert closed_form_expectation(p, -0.3) == 1.0
        assert closed_form_expectation(p, 0.0) == 0.0

    def test_bad_cosine(self):
        with pytest.raises(ValidationError):
            closed_form_expectation(EpsRhoParams(1, 1), 1.5)

    @given(
        st.floats(0.0, 1.0), st.floats(0.01, 1.0),
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    )
    def test_odd_bounded_monotone(self, rho, eps, c1, c2):
        p = EpsRhoParams(rho, eps)
        v1 = closed_form_expectation(p, c1)
        assert -1.0 <= v1 <= 1.0
        assert v1 == pytest.approx(-closed_form_expectation(p, -c1), abs=1e-12)
        v2 = closed_form_expectation(p, c2)
        if c1 < c2:
            assert v1 >= v2 - 1e-12  # nonincreasing in cos_ab
        elif c2 < c1:
            assert v2 >= v1 - 1e-12

    def test_continuous_at_saturation_edge(self):
        p = EpsRhoParams(0.8, 0.4)  # saturates at cos_ab = 0.5
        edge = closed_form_expectation(p, 0.5)
        near = closed_form_expectation(p, 0.5 - 1e-12)
        assert edge == -1.0 and near == pytest.approx(-1.0, abs=1e-9)


class TestChshClosedForm:
    def test_quantum_point(self):
        assert chsh_closed_form(EpsRhoParams(1, 1)) == pytest.approx(
            2 * SQRT2, abs=1e-12
        )

    def test_saturated_region(self):
        assert chsh_closed_form(EpsRhoParams(1.0, 0.5)) == 4.0
        assert chsh_closed_form(EpsRhoParams(0.5, 0.0)) == 4.0

    def test_zero_reach(self):
        assert chsh_closed_form(EpsRhoParams(0.0, 0.0)) == 0.0
        assert chsh_closed_form(EpsRhoParams(0.0, 1.0)) == 0.0

    def test_branches_agree_at_crossover(self):
        rho = 0.9
        eps = rho * SQRT2 / 2
        linear = 2 * SQRT2 * rho / eps
        assert linear == pytest.approx(4.0, abs=1e-12)
        assert chsh_closed_form(EpsRhoParams(rho, eps)) == pytest.approx(4.0, abs=1e-12)

    def test_consistent_with_four_expectations(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = EpsRhoParams(rng.random(), rng.random())
            e = [closed_form_expectation(p, c) for c in (C45, -C45, C45, C45)]
            assert abs(e[0] - e[1]) + abs(e[2] + e[3]) == pytest.approx(
                chsh_closed_form(p), abs=1e-12
            )


class TestViolationBoundary:
    def test_known_points(self):
        assert violation_boundary(1 / SQRT2) == pytest.approx(1.0, abs=1e-12)
        assert violation_boundary(0.0) == 0.0
        assert violation_boundary(0.5) == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert violation_boundary(1.0) == 1.0  # capped

    def test_equivalence_with_chsh(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            rho, eps = rng.random(), rng.random()
            violates = chsh_closed_form(EpsRhoParams(rho, eps)) > 2.0
            assert violates == (eps < SQRT2 * rho)

    def test_domain(self):
        with pytest.raises(ValidationError):
            violation_boundary(1.5)


class TestSimulatePair:
    """Per-pair outcomes, read off the kernel: a sum of -n over n pairs means
    every pair came out anticorrelated."""

    def test_saturated_always_anticorrelated(self):
        assert _product_sum(1.0, 0.25, C45, 500, 11) == -500


def clean_room_product_sum(rho, eps, cos_ab, trials, seed, base_trial=0):
    """The per-trial stream contract, written out from its statement alone.

    Trial i reads raw outputs 2i and 2i+1 of Philox(key=seed), where a
    counter step yields four raw outputs; each double is the top 53 bits of
    one raw output times 2^-53. The first side is up iff u_2i < 0.5, which
    puts the second entity at x = -rho*cos_ab (else +rho*cos_ab); the second
    side is up iff (-eps + 2.0*eps*u_2i+1) < x, or for eps = 0 iff x > 0, or
    x == 0 and u_2i+1 < 0.5. The sum is over the products (+1 when they agree).
    """
    assert base_trial % 2 == 0
    raw = Philox(key=seed, counter=base_trial // 2).random_raw(2 * trials)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    left_up = u[0::2] < 0.5
    x = np.where(left_up, -rho * cos_ab, rho * cos_ab)
    aux = u[1::2]
    if eps > 0.0:
        right_up = (-eps + 2.0 * eps * aux) < x
    else:
        right_up = (x > 0.0) | ((x == 0.0) & (aux < 0.5))
    return int(np.where(left_up == right_up, 1, -1).sum())


class TestStreamContract:
    """_product_sum against the clean-room stream, bit for bit."""

    EDGE = [
        (0.5, 0.0, -0.6),  # eps = 0, x > 0 when the first side is up
        (0.5, 0.0, 0.6),  # eps = 0, x < 0 when the first side is up
        (0.5, 0.0, 0.0),  # eps = 0, x = -0.0 / +0.0
        (0.5, 0.0, -0.0),  # eps = 0, x = +0.0 / -0.0
        (0.0, 0.0, 1.0),  # eps = 0, no reach
        (0.5, 0.25, 0.5),  # rho*c exactly +eps
        (0.5, 0.25, -0.5),  # rho*c exactly -eps
        (1.0, 1e-300, 0.3),  # eps = 1e-300: subnormal products
        (1e-300, 1e-300, 1.0),  # rho*c = eps at the bottom of the range
        (1.0, 1.0, 1.0),
        (1.0, 1.0, -1.0),
        (0.9, 0.7, COS_45),
        (0.8, 0.6, -0.3),
    ]

    @pytest.mark.parametrize("rho, eps, cos_ab", EDGE)
    @pytest.mark.parametrize(
        "trials, base_trial, chunk",
        # chunks are passed explicitly: 1 << 16 is twice MC_CHUNK, and no
        # chunk changes a sum (the default one is pinned by the sweep bytes)
        [
            (1, 0, 1 << 16),
            (7, 2, 1 << 16),  # odd trial count
            (999, 0, 10),  # not a multiple of the buffer size
            ((1 << 16) + 3, 2**40, 1 << 16),  # two fills, large base_trial
            (16385, 2**62, 998),  # many fills, base_trial near the stream's end
            (32773, 2**33, 1 << 16),  # one fill, odd count, far into the stream
        ],
    )
    def test_edge_cases(self, rho, eps, cos_ab, trials, base_trial, chunk):
        expected = clean_room_product_sum(rho, eps, cos_ab, trials, 77, base_trial)
        got = _product_sum(rho, eps, cos_ab, trials, 77, base_trial, chunk=chunk)
        assert got == expected

    def test_seeded_cases(self):
        rng = np.random.default_rng(20001)
        for case in range(600):
            rho = float(rng.random())
            eps = float(rng.random()) * float(rng.choice([1.0, 1e-3, 1e-300, 0.0]))
            cos_ab = float(rng.uniform(-1.0, 1.0))
            if case % 10 == 0:
                eps = rho * abs(cos_ab)  # the outcome sits on the saturation edge
            big = case % 50 == 0  # a few long runs
            trials = int(rng.integers(1, 40960 if big else 3000))
            seed = int(rng.integers(0, 2**63))
            base_trial = 2 * int(rng.integers(0, 2**61))
            chunk = 2 * int(rng.integers(1, 600))
            expected = clean_room_product_sum(rho, eps, cos_ab, trials, seed, base_trial)
            got = _product_sum(rho, eps, cos_ab, trials, seed, base_trial, chunk=chunk)
            assert got == expected, (rho, eps, cos_ab, trials, seed, base_trial, chunk)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("trials, base_trial", [(1, 0), (999, 6), (40001, 2**40)])
    def test_fixed_runs(self, sign, trials, base_trial):
        # saturated and eps = 0 runs draw nothing; on and one ulp either side of
        # rho*|c| = eps the thresholds may or may not be exactly 0 and 1
        cases = [(1.0, 0.25, C45), (0.5, 0.0, 0.3), (0.5, 0.0, 0.0), (0.0, 0.0, 1.0)]
        below = math.nextafter(math.nextafter(0.5, 0.0), 0.0)
        assert _threshold(0.5, below) == 1.0 - 2.0**-53  # one draw short of fixed: it draws
        cases.append((1.0, 0.5, below))
        for rho, c in [(0.7, C45), (0.3, 1.0), (1.0, 0.6), (0.55, C45)]:
            x = rho * c
            cases += [(rho, eps, c) for eps in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0))]
        for rho, eps, c in cases:
            expected = clean_room_product_sum(rho, eps, sign * c, trials, 91, base_trial)
            assert _product_sum(rho, eps, sign * c, trials, 91, base_trial) == expected, (rho, eps, c)

    def test_checks_hold_on_fixed_runs(self):
        with pytest.raises(ValueError, match="chunk"):
            _product_sum(1.0, 0.25, C45, 10, 0, chunk=3)
        with pytest.raises(ValueError, match="base_trial"):
            _product_sum(1.0, 0.25, C45, 10, 0, base_trial=3)
        for seed in (-1, 2**128):  # 2**128 is past the Philox key range
            with pytest.raises(ValueError, match="seed"):
                _product_sum(1.0, 0.25, C45, 10, seed)
            with pytest.raises(ValueError, match="seed"):
                monte_carlo_expectation(EpsRhoParams(0.5, 0.0), MeasurementDirections(0.3), 10, seed)
        assert _product_sum(1.0, 0.25, C45, 10, 2**128 - 1) == -10

    def test_threshold_is_the_exact_cut(self):
        rng = np.random.default_rng(8)
        cases = [(eps, x) for eps in (0.0, 1e-300, 0.25, 1.0) for x in (-0.3, -0.0, 0.0, 0.25)]
        cases += [(float(rng.random()), float(rng.uniform(-1, 1))) for _ in range(200)]
        for eps, x in cases:
            t = _threshold(eps, x)
            assert t == 0.0 or _right_up(eps, x, t - 2.0**-53)
            assert t == 1.0 or not _right_up(eps, x, t)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("left_up", [True, False])
    def test_draw_on_the_cut(self, seed, left_up):
        # eps = 0.5 makes -eps + 2*eps*u = u - 0.5 exact for u >= 0.25, so
        # placing the entity at a - 0.5 puts the cut exactly on a drawn u = a
        u = (Philox(key=seed).random_raw(64) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        i = next(i for i in range(32) if u[2 * i + 1] >= 0.25 and (u[2 * i] < 0.5) == left_up)
        a = u[2 * i + 1]
        cos_ab = 0.5 - a if left_up else a - 0.5
        base = i - i % 2
        expected = clean_room_product_sum(1.0, 0.5, cos_ab, 2, seed, base)
        assert _product_sum(1.0, 0.5, cos_ab, 2, seed, base) == expected

    def test_additive_over_even_splits(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            rho, eps, cos_ab = float(rng.random()), float(rng.random()), float(rng.uniform(-1, 1))
            trials = int(rng.integers(2, 24576))
            base = 2 * int(rng.integers(0, 2**40))
            split = 2 * int(rng.integers(0, trials // 2 + 1))
            whole = _product_sum(rho, eps, cos_ab, trials, 3, base)
            parts = _product_sum(rho, eps, cos_ab, split, 3, base) + _product_sum(
                rho, eps, cos_ab, trials - split, 3, base + split
            )
            assert whole == parts

    def test_concurrent_callers(self):
        # each caller thread keeps its own draw buffers
        cases = [(0.1 * k, 0.55, 0.7, 24576 + k, k, 2 * k) for k in range(8)]
        expected = [clean_room_product_sum(*c) for c in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                got = list(callers.map(lambda c: _product_sum(*c), cases * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 3


class TestMonteCarloExpectation:
    def test_deterministic_and_chunk_invariant(self):
        p, d = EpsRhoParams(0.9, 0.7), MeasurementDirections(0.25)
        a = monte_carlo_expectation(p, d, 5000, 42)
        b = monte_carlo_expectation(p, d, 5000, 42)
        sums = [_product_sum(0.9, 0.7, 0.25, 5000, 42, chunk=c) for c in (MC_CHUNK, 2, 998)]
        assert a == b and a[0] == sums[0] / 5000
        assert sums[0] == sums[1] == sums[2]

    def test_different_seeds_differ(self):
        p, d = EpsRhoParams(0.9, 0.7), MeasurementDirections(0.25)
        assert monte_carlo_expectation(p, d, 5000, 1) != monte_carlo_expectation(
            p, d, 5000, 2
        )

    def test_symmetric_case_near_zero(self):
        est, se = monte_carlo_expectation(
            EpsRhoParams(1, 1), MeasurementDirections(0.0), 100_000, 9
        )
        assert abs(est) <= 3e-2 and se == pytest.approx(1 / math.sqrt(100_000), rel=0.01)

    def test_matches_closed_form_within_4_se(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = EpsRhoParams(rng.random(), rng.uniform(0.05, 1.0))
            d = MeasurementDirections(rng.uniform(-1, 1))
            est, se = monte_carlo_expectation(p, d, 100_000, int(rng.integers(1 << 30)))
            closed = closed_form_expectation(p, d.cos_ab)
            assert abs(est - closed) <= max(4 * se, 1e-12)

    def test_quantum_point_matches_closed_form(self):
        n = 40_000
        est, _ = monte_carlo_expectation(
            EpsRhoParams(1.0, 1.0), MeasurementDirections(C45), n, 7
        )
        assert abs(est - (-C45)) <= 5 / math.sqrt(n)

    def test_zero_reach_averages_zero(self):
        n = 20_000
        est, _ = monte_carlo_expectation(
            EpsRhoParams(0.0, 0.5), MeasurementDirections(1.0), n, 13
        )
        assert abs(est) <= 3 / math.sqrt(n)

    def test_saturated_exact(self):
        est, se = monte_carlo_expectation(
            EpsRhoParams(1.0, 0.25), MeasurementDirections(C45), 10_000, 0
        )
        assert est == -1.0 and se == 0.0
        # the mirrored geometry saturates the other way: always correlated
        assert _product_sum(1.0, 0.25, -C45, 500, 11) == 500

    def test_fixed_run_draws_nothing(self, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("a fixed run built a Philox stream")

        monkeypatch.setattr(epsrho, "Philox", no_stream)
        start = time.perf_counter()
        assert monte_carlo_expectation(EpsRhoParams(1.0, 0.25), MeasurementDirections.from_angle(
            math.pi / 4), trials=10**12, seed=0) == (-1.0, 0.0)
        assert time.perf_counter() - start < 1.0

    def test_deterministic_limit_exact(self):
        # eps = 0 with a nonzero projection always anticorrelates
        est, se = monte_carlo_expectation(
            EpsRhoParams(0.5, 0.0), MeasurementDirections(0.3), 5_000, 4
        )
        assert est == -1.0 and se == 0.0
        # cross-check: a tiny eps is saturated at the same projection
        est2, _ = monte_carlo_expectation(
            EpsRhoParams(0.5, 1e-6), MeasurementDirections(0.3), 5_000, 4
        )
        assert est2 == -1.0

    def test_deterministic_limit_fair_coin_at_zero(self):
        est, _ = monte_carlo_expectation(
            EpsRhoParams(0.5, 0.0), MeasurementDirections(0.0), 40_000, 5
        )
        assert abs(est) <= 3 / math.sqrt(40_000)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_expectation(EpsRhoParams(1, 1), MeasurementDirections(0), 0, 0)

    def test_odd_chunk_rejected(self):
        with pytest.raises(ValueError):
            _product_sum(1.0, 1.0, 0.0, 10, 0, chunk=3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_expectation(
                EpsRhoParams(1, 1), MeasurementDirections(0), 10, -1
            )

    def test_non_integral_seed_and_trials_rejected(self):
        # Philox(key=1.5) would silently draw seed 1's stream
        p, d = EpsRhoParams(0.9, 0.7), MeasurementDirections(0.25)
        with pytest.raises(TypeError):
            monte_carlo_expectation(p, d, 1000, 1.5)
        with pytest.raises(TypeError):
            monte_carlo_expectation(p, d, 1000.0, 1)
        assert monte_carlo_expectation(p, d, np.int64(1000), np.uint64(7)) == (
            monte_carlo_expectation(p, d, 1000, 7))


class TestRegime:
    @pytest.mark.parametrize(
        "rho, eps, tag",
        [
            (0.0, 0.0, "boundary"),
            (0.5, 0.5 * SQRT2, "boundary"),
            (0.0, 0.5, "degenerate"),
            (0.5, 0.0, "degenerate"),
            (1.0, 1.0, "linear"),
            (1.0, 0.5, "saturated"),
        ],
    )
    def test_tags(self, rho, eps, tag):
        assert _regime(rho, eps) == tag


class TestSweep:
    def test_grid_order_and_known_cells(self):
        grid = [i / 20 for i in range(21)]
        rows = list(sweep(grid, grid))
        assert len(rows) == 441
        assert (rows[0].rho, rows[0].epsilon) == (0.0, 0.0)
        assert (rows[1].rho, rows[1].epsilon) == (0.0, 0.05)  # eps is the inner loop
        last = rows[-1]
        assert (last.rho, last.epsilon) == (1.0, 1.0)
        assert last.chsh == pytest.approx(2 * SQRT2, abs=1e-12)
        assert last.violates == 1 and last.regime == "linear"
        zero = next(r for r in rows if r.rho == 0.0 and r.epsilon == 0.5)
        assert zero.chsh == 0.0 and zero.violates == 0 and zero.regime == "degenerate"

    def test_violation_region_matches_boundary(self):
        grid = [i / 20 for i in range(21)]
        for row in sweep(grid, grid):
            if abs(row.epsilon - SQRT2 * row.rho) <= 1e-9:
                assert row.regime == "boundary"
                continue
            assert row.violates == int(row.epsilon < SQRT2 * row.rho)

    def test_matches_public_functions_bit_for_bit(self):
        # sweep() computes its columns in numpy, a block of eps at a time; a
        # seeded non-uniform grid with the ends, -0.0, points on
        # eps = sqrt(2)*rho and each rho's saturation edges eps = rho*cos 45
        # and eps/rho = sqrt(2)/2 with their neighbouring floats must give what
        # the checked public scalar functions give, compared by repr so a
        # zero's sign shows
        rng = np.random.default_rng(20)
        rho_grid = [0.0, 1.0, 0.5, *rng.random(12).tolist()]
        edges = {e for r in rho_grid for edge in (r * COS_45, r * SQRT2 / 2.0)
                 for e in (math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0))}
        eps_grid = [0.0, -0.0, 1.0, *(SQRT2 * r for r in rho_grid if SQRT2 * r <= 1.0),
                    *sorted(e for e in edges if 0.0 <= e <= 1.0), *rng.random(12).tolist()]
        rows = list(sweep(rho_grid, eps_grid))
        assert [(r.rho, r.epsilon) for r in rows] == [(a, b) for a in rho_grid for b in eps_grid]
        assert sum(r.regime == "boundary" for r in rows) >= 4
        # cells exactly on the chsh and regime branch test eps/rho = sqrt(2)/2
        assert sum(r.rho > 0.0 and r.epsilon / r.rho == SQRT2 / 2.0 for r in rows) >= 10
        for row in rows:
            params = EpsRhoParams(row.rho, row.epsilon)
            e_ab = closed_form_expectation(params, C45)
            chsh = chsh_closed_form(params)
            expected = (row.rho, row.epsilon, e_ab, closed_form_expectation(params, -C45),
                        e_ab, e_ab, chsh, int(chsh > 2.0 + 1e-12),
                        _regime(row.rho, row.epsilon), None, None)
            assert repr(tuple(row)) == repr(expected)
            # the CSV writer formats e_ab once for all three columns
            assert row.e_a2b is row.e_ab and row.e_a2b2 is row.e_ab

    def test_monte_carlo_columns(self):
        rows = list(sweep([0.0, 1.0], [0.5, 1.0], trials=4000, seed=3))
        assert all(r.mc_chsh is not None and r.mc_stderr is not None for r in rows)
        rows2 = list(sweep([0.0, 1.0], [0.5, 1.0], trials=4000, seed=3))
        assert rows == rows2
        saturated = next(r for r in rows if r.rho == 1.0 and r.epsilon == 0.5)
        assert saturated.mc_chsh == 4.0 and saturated.mc_stderr == 0.0
        quantum = next(r for r in rows if r.rho == 1.0 and r.epsilon == 1.0)
        assert quantum.mc_chsh == pytest.approx(2 * SQRT2, abs=6 * quantum.mc_stderr + 1e-9)

    def test_fixed_cells_draw_nothing(self, monkeypatch):
        # a run is fixed when its thresholds are exactly 0 and 1; only the other
        # runs build a stream, and a cell whose four runs are fixed reads 4 +- 0
        streams = []

        def counting_philox(*args, **kwargs):
            streams.append(kwargs.get("key"))
            return Philox(*args, **kwargs)

        monkeypatch.setattr(epsrho, "Philox", counting_philox)
        grid = [i / 20 for i in range(21)]
        rows = list(sweep(grid, grid, trials=1000, seed=4))
        fixed = [[{_threshold(r.epsilon, -r.rho * c), _threshold(r.epsilon, r.rho * c)}
                  == {0.0, 1.0} for c in SWEEP_COSINES] for r in rows]
        assert sum(map(sum, fixed)) == 636  # of 1,764 runs
        assert len(streams) == 21 * 21 * 4 - 636 and set(streams) == {4}
        for row, runs in zip(rows, fixed):
            if all(runs):
                assert (row.mc_chsh, row.mc_stderr) == (4.0, 0.0), row

    def test_no_trials_leaves_columns_empty(self):
        before = threading.active_count()  # and the closed-form rows start no thread
        rows = sweep([0.0, 1.0], [0.0, 1.0])
        assert all(r.mc_chsh is None and r.mc_stderr is None
                   and threading.active_count() == before for r in rows)

    def test_bad_grids(self):
        with pytest.raises(ValueError):
            sweep([], [0.5])
        with pytest.raises(ValueError):
            sweep([0.5], [1.5])
        with pytest.raises(ValueError):
            sweep([0.5], [0.5], trials=0)
        # the seed is a Philox key; it is refused at the call, before the first row
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                sweep([0.5], [0.5], trials=3, seed=seed)
        sweep([0.5], [0.5], seed=2**128)  # unused without trials, so not checked
        # the trial count must be an integer; that too is refused at the call
        with pytest.raises(TypeError):
            sweep([0.5], [0.5], trials=2.5)
        with pytest.raises(TypeError):
            sweep([0.5], [0.5], trials=3, seed=1.5)  # would draw seed 1's stream
        assert len(list(sweep([0.5], [0.5], trials=np.int64(3), seed=np.uint64(7)))) == 1

    def test_full_grid_is_fast(self):
        # sweep() returns at once, so time the rows themselves: the 21x21 grid
        # of the acceptance test, iterated to the end
        grid = [i / 20 for i in range(21)]
        t0 = time.perf_counter()
        count = sum(1 for _ in sweep(grid, grid))
        assert count == 441
        assert time.perf_counter() - t0 < 5.0

    def test_wide_grid_holds_one_block(self):
        # a 20,001-wide row is computed SWEEP_BLOCK eps at a time: iterating
        # it peaks at ~1.1 MiB, where the columns of the whole row took ~5.3 MiB
        rows = sweep([0.0, 0.5], [i / 20000 for i in range(20001)])
        tracemalloc.start()
        try:
            count = sum(1 for _ in rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 2 * 20001
        assert peak < 2 * 1024 * 1024

    def test_rows_are_not_held(self):
        # the rows come out one at a time: iterating a 101x101 grid holds a few
        # rows at most, where the whole list would take ~1.9 MiB
        grid = [i / 100 for i in range(101)]
        tracemalloc.start()
        try:
            count = sum(1 for _ in sweep(grid, grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 101 * 101
        assert peak < 256 * 1024

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (["--rho-steps", "21", "--eps-steps", "21", "--trials", "100000", "--seed", "7"],
             "31c55f3027d9f5aa35772cb8ce4be13d00098d87199fe58c33e7fbbfab2936c0"),
            (["--rho-steps", "7", "--eps-steps", "5", "--trials", "20001", "--seed", "123"],
             "fceb2c0c142ed4c926efc32a62a71460446485e10e7c533bcf5c347045a6be6b"),
        ],
        ids=["mc-21x21", "mc-7x5-odd"],
    )
    def test_monte_carlo_pinned_bytes(self, args, sha256):
        # taken from the serial sweep, before the cells were spread over threads
        cmd = [sys.executable, "-m", "bellpoly.cli", "sweep", *args]
        stdout = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert hashlib.sha256(stdout).hexdigest() == sha256

    def test_monte_carlo_cells_match_serial_reference(self):
        # each cell's four runs start at (4 * cell + k) * stride of one stream,
        # with the stride rounded up to even; the threads must not change a bit
        rho_grid, eps_grid = [0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.5, 0.9, 1.0]
        trials, seed, stride = 3001, 11, 3002
        rows = list(sweep(rho_grid, eps_grid, trials=trials, seed=seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(epsrho, "MC_CHUNK", 2)  # these short cells then go to the pool too
            assert repr(rows) == repr(list(sweep(rho_grid, eps_grid, trials=trials, seed=seed)))
        assert [(r.rho, r.epsilon) for r in rows] == [(a, b) for a in rho_grid for b in eps_grid]
        for cell, row in enumerate(rows):
            (m0, s0), (m1, s1), (m2, s2), (m3, s3) = [
                _mean_and_stderr(_product_sum(row.rho, row.epsilon, c, trials, seed,
                                              (4 * cell + k) * stride), trials)
                for k, c in enumerate(SWEEP_COSINES)]
            assert repr(row.mc_chsh) == repr(abs(m0 - m1) + abs(m2 + m3))
            assert repr(row.mc_stderr) == repr(math.sqrt(s0**2 + s1**2 + s2**2 + s3**2))
            assert repr(row[:9]) == repr(next(sweep([row.rho], [row.epsilon]))[:9])

    def test_monte_carlo_rows_are_not_held(self, monkeypatch):
        # the Monte Carlo cells run a few ahead of the row returned, never the
        # whole grid: iterating holds ~0.33 MiB, mostly the _threshold cache,
        # where the list of these rows would take ~0.75 MiB. tracemalloc slows
        # each run's Philox set-up ~10x, so the grid is 51x51, not 101x101,
        # and a chunk of 2 puts its 2-trial cells on the pool.
        monkeypatch.setattr(epsrho, "MC_CHUNK", 2)
        grid = [i / 50 for i in range(51)]
        list(sweep([0.5], [0.5], trials=2))  # the thread pool's imports, outside the trace
        tracemalloc.start()
        try:
            count = sum(1 for _ in sweep(grid, grid, trials=2, seed=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 51 * 51
        assert peak < 512 * 1024

    def test_short_runs_stay_on_the_callers_thread(self):
        # a cell's four 2-trial runs are far below one MC_CHUNK: no pool starts
        grid = [i / 10 for i in range(11)]
        before = threading.active_count()
        rows = sweep(grid, grid, trials=2, seed=4)
        serial = [row for row in rows if threading.active_count() == before]
        assert len(serial) == 11 * 11
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(epsrho, "MC_CHUNK", 2)
            assert repr(serial) == repr(list(sweep(grid, grid, trials=2, seed=4)))

    def test_violation_region_script(self):
        # the script reads the rows twice, so it must take a list of them
        script = Path(__file__).resolve().parents[1] / "scripts" / "violation_region.py"
        proc = subprocess.run([sys.executable, str(script), "--steps", "5", "--trials", "200"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "largest |mc_chsh - chsh| = " in proc.stdout


class TestSweepThreads:
    """No cell thread outlives the rows, and a cell's error reaches the caller."""

    GRID = [i / 20 for i in range(21)]

    @pytest.fixture(autouse=True)
    def threaded(self, monkeypatch):
        # cells of fewer than MC_CHUNK trials stay on the caller's thread; a
        # chunk of 2 puts these tests' short cells on the pool
        monkeypatch.setattr(epsrho, "MC_CHUNK", 2)

    def test_closing_after_one_row(self):
        before = threading.active_count()
        rows = sweep(self.GRID, self.GRID, trials=20_000, seed=3)
        assert threading.active_count() == before  # no thread before the first row
        first = next(rows)
        assert first.mc_chsh is not None and threading.active_count() > before
        rows.close()
        assert threading.active_count() == before

    def test_full_output_exits_4(self, capsys):
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        before = threading.active_count()
        code = cli.main(["sweep", "--rho-steps", "21", "--eps-steps", "21",
                         "--trials", "200", "--seed", "1", "--out", "/dev/full"])
        assert code == 4
        assert "No space left on device" in capsys.readouterr().err
        assert threading.active_count() == before

    def test_cell_error_reaches_caller(self, monkeypatch):
        failing_start = (4 * 37 + 2) * 1000  # cell 37, third angle

        def product_sum(rho, eps, cos_ab, trials, seed, base_trial=0):
            if base_trial == failing_start:
                raise RuntimeError("cell 37 failed")
            return _product_sum(rho, eps, cos_ab, trials, seed, base_trial)

        monkeypatch.setattr(epsrho, "_product_sum", product_sum)
        before = threading.active_count()
        rows = sweep(self.GRID, self.GRID, trials=1000, seed=2)
        with pytest.raises(RuntimeError, match="cell 37 failed"):
            for count, _ in enumerate(rows):
                pass
        assert count == 36  # every row before the failing cell came out
        assert threading.active_count() == before


class TestParamValidation:
    def test_rho_out_of_range(self):
        with pytest.raises(ValidationError):
            EpsRhoParams(1.2, 0.5)

    def test_cosine_out_of_range(self):
        with pytest.raises(ValidationError):
            MeasurementDirections(-1.1)

    def test_from_angle(self):
        d = MeasurementDirections.from_angle(math.pi / 3)
        assert d.cos_ab == pytest.approx(0.5, abs=1e-12)
