"""Tests for repro.solvers.gap (Martello-Toth MTHG)."""

import itertools

import numpy as np
import pytest

from repro.runtime.budget import Budget
from repro.solvers.gap import GapInfeasibleError, solve_gap


def brute_force_gap(cost, sizes, capacities):
    """Exact GAP optimum by enumeration (tiny instances only)."""
    m, n = cost.shape
    best = np.inf
    for combo in itertools.product(range(m), repeat=n):
        loads = np.zeros(m)
        for j, i in enumerate(combo):
            loads[i] += sizes[j]
        if (loads <= capacities + 1e-9).all():
            value = sum(cost[i, j] for j, i in enumerate(combo))
            best = min(best, value)
    return best


class TestBasics:
    def test_assigns_every_item(self):
        cost = np.arange(12, dtype=float).reshape(3, 4)
        result = solve_gap(cost, np.ones(4), np.full(3, 2.0))
        assert result.assignment.shape == (4,)
        assert result.num_items == 4
        assert set(result.assignment) <= {0, 1, 2}

    def test_capacity_respected(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m, n = 4, 15
            cost = rng.uniform(0, 10, (m, n))
            sizes = rng.uniform(1, 5, n)
            caps = np.full(m, sizes.sum() / m * 1.4)
            result = solve_gap(cost, sizes, caps)
            loads = np.bincount(result.assignment, weights=sizes, minlength=m)
            assert (loads <= caps + 1e-9).all(), trial

    def test_cost_reported_correctly(self):
        cost = np.array([[1.0, 2.0], [3.0, 0.5]])
        result = solve_gap(cost, np.ones(2), np.full(2, 2.0))
        recomputed = cost[result.assignment, np.arange(2)].sum()
        assert result.cost == pytest.approx(recomputed)

    def test_unconstrained_picks_cheapest(self):
        cost = np.array([[5.0, 1.0, 9.0], [2.0, 4.0, 3.0]])
        result = solve_gap(cost, np.ones(3), np.full(2, 10.0))
        assert result.assignment.tolist() == [1, 0, 1]
        assert result.cost == pytest.approx(2.0 + 1.0 + 3.0)


class TestQuality:
    def test_near_optimal_on_small_instances(self):
        rng = np.random.default_rng(7)
        gaps = []
        for _ in range(25):
            m, n = 3, 7
            cost = rng.uniform(0, 10, (m, n))
            sizes = rng.uniform(1, 4, n)
            caps = np.full(m, sizes.sum() / m * 1.5)
            optimum = brute_force_gap(cost, sizes, caps)
            if not np.isfinite(optimum):
                continue
            result = solve_gap(cost, sizes, caps)
            gaps.append(result.cost / max(optimum, 1e-9))
        assert np.mean(gaps) < 1.10  # within 10% of optimal on average
        assert max(gaps) < 1.5

    def test_improvement_never_hurts(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(0, 10, (4, 20))
        sizes = rng.uniform(1, 3, 20)
        caps = np.full(4, sizes.sum() / 4 * 1.3)
        raw = solve_gap(cost, sizes, caps, improve=False)
        polished = solve_gap(cost, sizes, caps, improve=True)
        assert polished.cost <= raw.cost + 1e-9


class TestTightCapacities:
    def test_perfect_packing_found(self):
        # Two bins of capacity 3, items 2+1 and 2+1: needs careful packing.
        cost = np.zeros((2, 4))
        sizes = np.array([2.0, 2.0, 1.0, 1.0])
        caps = np.array([3.0, 3.0])
        result = solve_gap(cost, sizes, caps)
        loads = np.bincount(result.assignment, weights=sizes, minlength=2)
        assert (loads <= caps + 1e-9).all()

    def test_infeasible_raises(self):
        cost = np.zeros((2, 2))
        sizes = np.array([5.0, 5.0])
        caps = np.array([4.0, 4.0])
        with pytest.raises(GapInfeasibleError):
            solve_gap(cost, sizes, caps)

    def test_fallback_criterion_reported(self):
        # Construct a case where cost-greedy construction dead-ends but
        # best-fit packing succeeds: all criteria prefer bin 0 strongly.
        cost = np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
        sizes = np.array([3.0, 3.0, 3.0])
        caps = np.array([6.0, 3.0])
        result = solve_gap(cost, sizes, caps)
        loads = np.bincount(result.assignment, weights=sizes, minlength=2)
        assert (loads <= caps + 1e-9).all()


class TestValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solve_gap(np.zeros(3), np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            solve_gap(np.zeros((2, 3)), np.ones(4), np.ones(2))
        with pytest.raises(ValueError):
            solve_gap(np.zeros((2, 3)), np.ones(3), np.ones(3))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            solve_gap(np.zeros((2, 2)), np.array([-1.0, 1.0]), np.ones(2))
        with pytest.raises(ValueError):
            solve_gap(np.zeros((2, 2)), np.ones(2), np.array([-1.0, 1.0]))

    def test_infinite_cost_rejected(self):
        # Every masked value is +inf, so a sort cannot tell the fitting
        # partition from the full one; the budget bounds a regression.
        cost = np.array([[np.inf], [np.inf]])
        with pytest.raises(ValueError, match=r"cost\[0, 0\] = inf"):
            solve_gap(
                cost, [2.0], [1.0, 5.0], criteria=("cost",), improve=False,
                budget=Budget(wall_seconds=2),
            )

    def test_nan_cost_rejected(self):
        cost = np.array([[1.0, 2.0], [3.0, np.nan]])
        with pytest.raises(ValueError, match=r"cost\[1, 1\] = nan"):
            solve_gap(cost, np.ones(2), np.full(2, 2.0), budget=Budget(wall_seconds=2))

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            solve_gap(np.zeros((2, 2)), np.ones(2), np.full(2, 2.0), criteria=("bogus",))


class TestDeterminism:
    def test_repeatable(self):
        rng = np.random.default_rng(11)
        cost = rng.uniform(0, 5, (4, 30))
        sizes = rng.uniform(1, 3, 30)
        caps = np.full(4, sizes.sum() / 4 * 1.2)
        a = solve_gap(cost, sizes, caps)
        b = solve_gap(cost, sizes, caps)
        assert np.array_equal(a.assignment, b.assignment)
