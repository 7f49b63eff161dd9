"""Tests for the timing-aware GAP generalization (paper Section 4.3).

"We generalized his idea to handle additional Capacity Constraints and
Timing Constraints" - the inner assignment solver can enforce C2
dynamically during construction, statically via a trust-region mask, or
exactly during its improvement phases.
"""

import numpy as np
import pytest

from repro.core.constraints import TimingIndex
from repro.solvers.gap import GapInfeasibleError, solve_gap
from repro.timing.constraints import TimingConstraints

# A 1x3 linear topology: delays 0/1/2.
DELAY = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def index_for(pairs, n=4):
    tc = TimingConstraints(n)
    for j1, j2, budget in pairs:
        tc.add(j1, j2, budget, symmetric=True)
    return TimingIndex(tc, DELAY)


class TestDynamicConstruction:
    def test_constrained_pair_lands_close(self):
        # Items 0 and 1 must be within delay 1; costs push them apart.
        cost = np.array(
            [
                [0.0, 9.0, 0.0, 0.0],
                [9.0, 9.0, 0.0, 0.0],
                [9.0, 0.0, 0.0, 0.0],
            ]
        )
        timing = index_for([(0, 1, 1.0)])
        sizes = np.ones(4)
        caps = np.full(3, 4.0)
        result = solve_gap(cost, sizes, caps, timing=timing)
        a = result.assignment
        assert DELAY[a[0], a[1]] <= 1.0

    def test_all_constraints_satisfied_when_construction_succeeds(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            cost = rng.uniform(0, 5, (3, 6))
            tc = TimingConstraints(6)
            for j1 in range(6):
                for j2 in range(j1 + 1, 6):
                    if rng.random() < 0.3:
                        tc.add(j1, j2, 1.0, symmetric=True)
            timing = TimingIndex(tc, DELAY)
            sizes = np.ones(6)
            caps = np.full(3, 6.0)
            try:
                result = solve_gap(cost, sizes, caps, timing=timing)
            except GapInfeasibleError:
                continue  # wedged: acceptable for the dynamic masks
            a = result.assignment
            assert tc.is_satisfied(a, DELAY), trial

    def test_impossible_budget_raises(self):
        # Budget 0.5 forces co-location, but unit capacities forbid it.
        cost = np.zeros((3, 2))
        timing = index_for([(0, 1, 0.5)], n=2)
        with pytest.raises(GapInfeasibleError):
            solve_gap(cost, np.ones(2), np.ones(3), timing=timing)

    def test_colocate_when_required(self):
        cost = np.zeros((3, 2))
        timing = index_for([(0, 1, 0.5)], n=2)
        result = solve_gap(cost, np.ones(2), np.full(3, 2.0), timing=timing)
        a = result.assignment
        assert a[0] == a[1]


class TestStaticMask:
    def test_mask_respected(self):
        cost = np.zeros((3, 4))
        mask = np.ones((3, 4), dtype=bool)
        mask[0, :] = False  # partition 0 forbidden for everyone
        result = solve_gap(cost, np.ones(4), np.full(3, 4.0), allowed_mask=mask)
        assert (result.assignment != 0).all()

    def test_all_forbidden_raises(self):
        cost = np.zeros((2, 2))
        mask = np.zeros((2, 2), dtype=bool)
        with pytest.raises(GapInfeasibleError):
            solve_gap(cost, np.ones(2), np.full(2, 2.0), allowed_mask=mask)

    def test_mask_shape_validated(self):
        cost = np.zeros((2, 3))
        with pytest.raises(ValueError, match="allowed_mask"):
            solve_gap(
                cost, np.ones(3), np.full(2, 3.0), allowed_mask=np.ones((3, 2), bool)
            )

    def test_mask_plus_cost_tradeoff(self):
        # Cheapest slot is masked off; solver must take second best.
        cost = np.array([[0.0], [5.0], [9.0]])
        mask = np.array([[False], [True], [True]])
        result = solve_gap(cost, np.ones(1), np.full(3, 1.0), allowed_mask=mask)
        assert result.assignment[0] == 1


class TestImprovementRespectsTiming:
    def test_improvement_never_breaks_constraints(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            cost = rng.uniform(0, 10, (3, 8))
            tc = TimingConstraints(8)
            for j1 in range(8):
                for j2 in range(j1 + 1, 8):
                    if rng.random() < 0.25:
                        tc.add(j1, j2, 1.0, symmetric=True)
            timing = TimingIndex(tc, DELAY)
            sizes = rng.uniform(0.5, 1.5, 8)
            caps = np.full(3, sizes.sum())
            try:
                result = solve_gap(
                    cost, sizes, caps, timing=timing, improve=True
                )
            except GapInfeasibleError:
                continue
            assert tc.is_satisfied(result.assignment, DELAY), trial

